"""Order-6 character sums, their Weil bounds, and the correlation expansion.

Sums are accumulated as integer counts over the six 6th-root-of-unity phases
and reduced exactly in Z[w] (w = exp(pi*i/3), w^2 = w - 1), so every equality
assertion is integer arithmetic; floats appear only in magnitudes and bound
comparisons.  |a + b*w|^2 = a^2 + a*b + b^2 is exact as well.

One kernel computes every sum, for `phase_counts` and `weil_verdicts`.
It has one batch shape: a T x k array of shift tuples with one window each,
and a B x k array of exponent rows shared by every tuple; it evaluates all
T x B sums.  A single sum is the one-tuple, one-row batch, and a caller with
a different row per tuple batches the distinct rows and reads each tuple's
sum at its own row.  Tuples are evaluated in chunks of at most about
_BLOCK_CELLS array cells, so memory does not grow with T.  The
residues ind(n + d_i) mod 6 of a term form a k-digit base-6 code.  When the
6**k codes are few next to the window, each tuple's codes are histogrammed
first and the histogram is multiplied by a table of every code's phase under
every exponent row; otherwise each term's phase is formed from its digits.
Either way the six phase counts are summed as one integer word with a 10-bit
lane per phase, in pieces of at most 1023 terms so that no lane overflows.
The kernel is integer numpy throughout (no float product, so no BLAS
threads).  `weil_verdicts` holds a batch to its Weil-type bound chunk by
chunk, and a correlation expansion evaluates its 5**k exponent rows in one
call.  Exponents range over 1..5, so no row is the principal character and
Weil applies to every sum.  The per-term loop the kernel replaced stays in
tests/test_charsum.py as `_character_sum_reference`, the oracle the kernel is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .errors import ParameterError
from .ntheory import SexticParams, reduce_zeta6, zeta6_mul, zeta6_norm_sq
from .seqgen import CLASS_SETS, sign_coefficients

# Tuples are evaluated in chunks of at most about this many array cells, so the
# memory of a call does not grow with the number of tuples.
_BLOCK_CELLS = 16384

# A packed count word holds the six phase counts in 10-bit lanes; a packed sum
# runs over at most _PIECE terms, so no lane overflows into the next, and
# _PIECE also masks one lane.
_LANE = 10
_PIECE = (1 << _LANE) - 1


def _checked_shifts(params: SexticParams, shifts, window) -> tuple[np.ndarray, np.ndarray]:
    """(shifts as a T x k array, windows as a length-T array), one tuple per row.

    `window` is one window for every tuple or one per tuple.  Refuses anything
    but a T x k array with k >= 1, shifts that are not strictly increasing
    residues below p, and a window outside 1..p.
    """
    try:
        S = np.asarray(shifts, dtype=np.int64)
    except (TypeError, ValueError):
        raise ParameterError("shift tuples must be integers, all of one length")
    if S.ndim != 2 or S.shape[1] == 0:
        raise ParameterError(f"shifts of shape {S.shape} are not a T x k array of tuples, k >= 1")
    bad = (np.diff(S, axis=1) <= 0).any(axis=1) | (S[:, 0] < 0)
    if bad.any():
        raise ParameterError(f"shifts {tuple(S[bad.argmax()].tolist())} not strictly increasing")
    if (S[:, -1] >= params.p).any():
        raise ParameterError("shifts must be residues below p")
    try:
        windows = np.broadcast_to(np.asarray(window, dtype=np.int64), S.shape[:1])
    except ValueError:
        raise ParameterError(f"{np.size(window)} windows for {len(S)} shift tuples")
    outside = (windows < 1) | (windows > params.p)
    if outside.any():
        raise ParameterError(f"window {int(windows[outside][0])} outside 1..p")
    return S, windows


def _checked_exponents(exponents, k: int) -> np.ndarray:
    """Exponent rows as a B x k array shared by every tuple; entries in 1..5."""
    try:
        E = np.asarray(exponents, dtype=np.int64)
    except (TypeError, ValueError):
        raise ParameterError("exponent rows must be integers, all of one length")
    if E.ndim != 2 or E.shape[1] != k:
        raise ParameterError(f"exponents of shape {E.shape} are not B rows of {k} exponents")
    if ((E < 1) | (E > 5)).any():
        raise ParameterError("exponents outside 1..5")
    return E


def _packed_phases(E: np.ndarray) -> np.ndarray:
    """For exponent rows E (B x k), the 6**k x B table whose entry at residue
    code c is 1 << (_LANE * phase), phase = sum_i E_i * digit_i(c) mod 6."""
    k = E.shape[1]
    digits = np.arange(6**k)[:, None] // 6 ** np.arange(k) % 6
    phase = digits @ E.T % 6
    return np.left_shift(np.uint64(1), (_LANE * phase).astype(np.uint64))


def _conjugate_classes(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, gather): one exponent row per class of equal or conjugate rows of
    E, and the index that maps their counts, flattened to rows x 6, back to
    E's B x 6 counts.

    The conjugate row 6 - m has the negated phases of row m, so its counts are
    m's mirrored (phase r -> -r mod 6).
    """
    first = (E != 3).argmax(axis=1)  # the first entry the conjugation changes
    flip = E[np.arange(len(E)), first] > 3
    canon = np.where(flip[:, None], 6 - E, E)
    # one base-6 code per row, first entry most significant: a 1-d sort in row order
    codes = canon @ 6 ** np.arange(E.shape[1] - 1, -1, -1)
    _, first_of, back = np.unique(codes, return_index=True, return_inverse=True)
    phase = np.where(flip[:, None], -np.arange(6) % 6, np.arange(6))
    return canon[first_of], 6 * back.reshape(-1, 1) + phase


def _count_chunks(params: SexticParams, E: np.ndarray, S: np.ndarray, windows: np.ndarray):
    """Yield (lo, hi, counts) for consecutive chunks of the tuples S[lo:hi]:
    counts[t, b, r] is the number of terms n in 1..window-1 of tuple lo + t
    whose exponent row E[b] has phase r.

    The residues ind(n + d_i) mod 6 of a term are its k base-6 digits; a term
    outside its window (first digit) or with a vanishing argument (that
    argument's digit) gets an out-of-range digit and counts nowhere.  Phase
    counts are summed as packed words, one 10-bit lane per phase, over pieces
    of at most _PIECE terms.  When the window is long next to the 6**k digit
    codes, each tuple's codes are histogrammed and the histogram is multiplied
    by a table of packed phases; otherwise each term's phase is formed from its
    digits and packed.
    """
    p = params.p
    T, k = S.shape
    B = len(E)
    K = 6**k
    # terms n = 1..W, masked per window, summed in pieces of L <= _PIECE terms
    W = max(1, int(windows.max(initial=1)) - 1)
    pieces = -(-W // _PIECE)
    L = -(-W // pieces)
    W = pieces * L
    n = np.arange(1, W + 1)
    # histogramming first costs about 6**k multiply-adds per row and tuple, forming
    # each term's phase about 8 times as much per term (measured)
    by_code = K <= 8 * W
    # an out-of-range digit: it makes the code >= K, or the phase sum exceed
    # every real one (at most two digits of a term are out of range: window
    # and a vanishing argument, so a phase sum stays below 11 * out)
    out = K if by_code else 25 * k + 1
    dtype = np.int64 if by_code else np.min_scalar_type(-11 * out)
    # ind(x) mod 6 for the arguments x = n + d_i < 3p; x = p vanishes mod p
    ind6 = np.tile(params.cosets(6), 3).astype(dtype)
    ind6[p] = out
    per_tuple = W * k + pieces * B * 7
    if by_code:
        per_tuple += pieces * K
        table = _packed_phases(E)
    else:
        per_tuple += W * B
        Et = np.ascontiguousarray(E.T, dtype=dtype)  # rows along the last axis
        lane = np.zeros(11 * out, dtype=np.uint64)
        lane[:out] = np.left_shift(np.uint64(1), (_LANE * (np.arange(out) % 6)).astype(np.uint64))
    step = max(1, _BLOCK_CELLS // per_tuple)
    for lo in range(0, T, step):
        hi = min(T, lo + step)
        digits = ind6[S[lo:hi, :, None] + n]  # tuple x digit x term
        digits[:, 0][n >= windows[lo:hi, None]] = out
        if by_code:
            codes = np.minimum(np.matmul(6 ** np.arange(k), digits), K)
            slot = (n - 1) // L + pieces * np.arange(hi - lo)[:, None]
            hist = np.bincount((codes + (K + 1) * slot).ravel(), minlength=(K + 1) * slot.size // L)
            hist = hist.reshape(hi - lo, pieces, K + 1)[..., :K].astype(np.uint64)
            packed = np.matmul(hist, table)
        else:
            phase = Et[0, :, None] * digits[:, None, 0, :]
            for i in range(1, k):
                phase += Et[i, :, None] * digits[:, None, i, :]
            packed = lane[phase].reshape(hi - lo, -1, pieces, L).sum(axis=3).transpose(0, 2, 1)
        lanes = packed[..., None] >> np.arange(0, 6 * _LANE, _LANE, dtype=np.uint64)
        yield lo, hi, (lanes & np.uint64(_PIECE)).sum(axis=1).astype(np.int64)


def phase_counts(params: SexticParams, exponents, shifts, window):
    """Phase histograms of sum_{n=1}^{window-1} chi((n+d_1)^{m_1} ... (n+d_k)^{m_k}).

    `shifts` is a T x k array of shift tuples, each strictly increasing residues
    below p (one tuple is the 1 x k batch), and `window` one window in 1..p per
    tuple (or one for all); window = p gives the complete sum.  `exponents` is
    a B x k array of exponent rows in 1..5, every row summed over every tuple.
    Terms where some n + d_i vanishes mod p contribute 0 (chi(0) = 0).  Returns
    counts: counts[t, b, r] is the number of terms of tuple t, row b with
    phase r, so window - 1 - counts[t, b].sum() terms of tuple t vanish.
    """
    S, windows = _checked_shifts(params, shifts, window)
    E = _checked_exponents(exponents, S.shape[1])
    rows, gather = _conjugate_classes(E)
    counts = np.empty((len(S), len(E), 6), dtype=np.int64)
    for lo, hi, c in _count_chunks(params, rows, S, windows):
        counts[lo:hi] = c.reshape(hi - lo, -1)[:, gather]
    return counts


def weil_verdicts(params: SexticParams, exponents, shifts, window) -> np.ndarray:
    """|sum| <= its Weil-type bound, for each (tuple, exponent row) of a
    `phase_counts` batch: a T x B array.

    Complete sums (window = p) are held to (k-1)*sqrt(p) + k exactly: with n
    the Z[w] norm and a = n - (k-1)**2 p - k**2, iff a <= 0 or a**2 <=
    4 k**2 (k-1)**2 p, that is a <= isqrt(4 k**2 (k-1)**2 p).  Incomplete sums
    are held on floats to the desk-scale explicit form k*sqrt(p)*(1 + ln p),
    standing in for the cited O(k sqrt(p) log p).  Counts are reduced chunk by
    chunk and never held for the whole batch.
    """
    S, windows = _checked_shifts(params, shifts, window)
    E = _checked_exponents(exponents, S.shape[1])
    p, k = params.p, S.shape[1]
    complete = windows == p
    limit = (k - 1) ** 2 * p + k * k + math.isqrt(4 * k * k * (k - 1) ** 2 * p)
    bound = k * math.sqrt(p) * (1.0 + math.log(p)) + 1e-9
    rows, gather = _conjugate_classes(E)
    ok = np.empty((len(S), len(E)), dtype=bool)
    for lo, hi, counts in _count_chunks(params, rows, S, windows):
        norm = zeta6_norm_sq(reduce_zeta6(np.moveaxis(counts, -1, 0)))
        within = np.where(complete[lo:hi, None], norm <= limit, np.sqrt(norm) <= bound)
        # a row and its conjugate have sums of equal modulus
        ok[lo:hi] = within[:, gather[:, 0] // 6]
    return ok


@dataclass(frozen=True)
class CorrelationExpansion:
    """(-1)**(h_{n+d_1}+...+h_{n+d_k}) expanded into character sums.

    Per factor, (-1)**h_n = sum_{j=1}^{5} c_j chi^j(n) with Hall's coefficients
    from `sign_coefficients`, exact over the denominator 3 (c_0 = 0, as Hall's
    class set is balanced).  Products of k factors give 5**k exponent rows
    with exact Z[w] coefficients over denominator 3**k, all summed over the
    expansion's one shift tuple and window.
    """

    params: SexticParams
    shifts: tuple[int, ...]
    window: int
    exponents: tuple[tuple[int, ...], ...]  # the 5**k rows over 1..5
    coeffs: tuple[tuple[int, int], ...]  # a + b*w per row, over the denominator

    @property
    def k(self) -> int:
        return len(self.shifts)

    @property
    def denominator(self) -> int:
        return sign_coefficients(*CLASS_SETS["hall"])[1] ** self.k

    def evaluate_exact(self) -> tuple[int, int]:
        """Numerator of the expansion value as a + b*w, over `denominator`."""
        counts = phase_counts(self.params, self.exponents, [self.shifts], self.window)
        a, b = zeta6_mul(np.array(self.coeffs).T, reduce_zeta6(counts[0].T))
        return int(a.sum()), int(b.sum())


def expand_correlation_to_charsums(
    params: SexticParams, shifts, window: int
) -> CorrelationExpansion:
    """Expansion of the order-k correlation sum of the Hall sequence."""
    S, _ = _checked_shifts(params, [shifts], window)
    shifts = tuple(S[0].tolist())
    rows = tuple(product(range(1, 6), repeat=len(shifts)))
    c = sign_coefficients(*CLASS_SETS["hall"])[0]
    coeffs = tuple(reduce(zeta6_mul, (c[j] for j in ms), (1, 0)) for ms in rows)
    return CorrelationExpansion(
        params=params, shifts=shifts, window=window, exponents=rows, coeffs=coeffs
    )


def direct_signed_sum(params: SexticParams, shifts, window: int) -> int:
    """sum_{n=1}^{M-1} prod_i (-1)**h_{n+d_i}, skipping n with a vanishing argument.

    The independent side of the reconstruction check: computed from coset
    membership alone, no characters involved.
    """
    shifts = tuple(int(d) for d in shifts)
    p = params.p
    m, ones = CLASS_SETS["hall"]
    cls = params.cosets(m).tolist()
    total = 0
    for n in range(1, window):
        sign = 1
        for d in shifts:
            arg = (n + d) % p
            if arg == 0:
                sign = 0
                break
            if cls[arg] in ones:
                sign = -sign
        total += sign
    return total
