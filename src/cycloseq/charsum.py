"""Order-6 character sums and their Weil bounds.

Every term of a sum is a sixth root of unity w**r (w = exp(pi*i/3),
w^2 = w - 1), so a sum is an element a + b*w of Z[w], summed exactly in
integers; floats appear only in magnitudes and bound comparisons.
|a + b*w|^2 = a^2 + a*b + b^2 is exact as well.

One kernel computes every sum, and `weil_verdicts` is its one entry.  It has
one batch shape: a T x k array of shift tuples with one window each, and a
B x k array of exponent rows shared by every tuple; it evaluates all T x B
sums.  A single sum is the one-tuple, one-row batch, and a caller with a
different row per tuple batches the distinct rows and reads each tuple's
verdict at its own row.  Tuples are evaluated in chunks of at most about
_BLOCK_CELLS array cells, so memory does not grow with T.  The
residues ind(n + d_i) mod 6 of a term form a k-digit base-6 code.  When the
6**k codes are few next to the window, each tuple's codes are histogrammed
first and the histogram is multiplied by a table of every code's value under
every exponent row; otherwise each term's value is formed from its digits.
Either way a sum a + b*w is held as one int64, a + b * 2**32: a sum has at
most p - 1 < 2**31 terms, so |a|, |b| < 2**31 and packed terms add without a
carry from one half into the other, whatever the window.  The kernel is
integer numpy throughout (no float product, so no BLAS threads).
`weil_verdicts` holds a batch to its Weil-type bound chunk by chunk.
Exponents range over 1..5, so no row is the principal character and Weil
applies to every sum.

The paper's route to Theorem 1, expanding (-1)**(h_{n+d_1}+...+h_{n+d_k})
into 5**k character sums with Hall's coefficients, is checked in
tests/test_charsum.py: a helper there gathers the kernel's exact sums, and
the expansion's value is asserted equal to a direct coset count.  The per-term
loop the kernel replaced stays there as `_character_sum_reference`, the
oracle the kernel is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .ntheory import PrimeParams, reduce_zeta6, zeta6_norm_sq

# Tuples are evaluated in chunks of at most about this many array cells, so the
# memory of a call does not grow with the number of tuples.
_BLOCK_CELLS = 16384


def _pack(a, b):
    """a + b*w as the int64 a + b * 2**32, for |a|, |b| < 2**31."""
    return a + (b << 32)


def _unpack(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of packed sums: a is the low half, sign-extended."""
    a = sums.astype(np.int32).astype(np.int64)
    return a, (sums - a) >> 32


# w**r packed, r = 0..5
_UNITS = _pack(*reduce_zeta6(np.eye(6, dtype=np.int64)))


def _checked_shifts(params: PrimeParams, shifts, window) -> tuple[np.ndarray, np.ndarray]:
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
    code c is w**phase packed, phase = sum_i E_i * digit_i(c) mod 6."""
    k = E.shape[1]
    digits = np.arange(6**k)[:, None] // 6 ** np.arange(k) % 6
    return _UNITS[digits @ E.T % 6]


def _conjugate_classes(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, back): one exponent row per class of equal or conjugate rows of
    E, and for each row of E the index of its class in rows.

    The conjugate row 6 - m has the complex conjugate sum, so a class shares
    one norm.
    """
    first = (E != 3).argmax(axis=1)  # the first entry the conjugation changes
    flip = E[np.arange(len(E)), first] > 3
    canon = np.where(flip[:, None], 6 - E, E)
    # one base-6 code per row, first entry most significant: a 1-d sort in row order
    codes = canon @ 6 ** np.arange(E.shape[1] - 1, -1, -1)
    _, first_of, back = np.unique(codes, return_index=True, return_inverse=True)
    return canon[first_of], back


def _sum_chunks(params: PrimeParams, E: np.ndarray, S: np.ndarray, windows: np.ndarray):
    """Yield (lo, hi, a, b) for consecutive chunks of the tuples S[lo:hi]:
    a[t, j] + b[t, j]*w is the sum over n in 1..window-1 of
    chi((n+d_1)^m_1 ... (n+d_k)^m_k), d the tuple lo + t and m the row E[j].

    The residues ind(n + d_i) mod 6 of a term are its k base-6 digits; a term
    outside its window (first digit) or with a vanishing argument (that
    argument's digit) gets an out-of-range digit and adds nothing.  Sums are
    packed int64 (`_pack`).  When the window is long next to the 6**k digit
    codes, each tuple's codes are histogrammed and the histogram is multiplied
    by a table of packed values; otherwise each term's phase is formed from
    its digits and its packed value gathered.
    """
    p = params.p
    T, k = S.shape
    B = len(E)
    K = 6**k
    # terms n = 1..W, masked per window
    W = max(1, int(windows.max(initial=1)) - 1)
    n = np.arange(1, W + 1)
    # histogramming first costs about 6**k multiply-adds per row and tuple, forming
    # each term's phase about 8 times as much per term (measured)
    by_code = K <= 8 * W
    # an out-of-range digit: it makes the code >= K, or the phase sum exceed
    # every real one (at most two digits of a term are out of range: window
    # and a vanishing argument, so a phase sum stays below 11 * out)
    out = K if by_code else 25 * k + 1
    dtype = np.int64 if by_code else np.min_scalar_type(-11 * out)
    # ind(x) mod 6 for the arguments x = n + d_i <= 2p - 2 (n <= window - 1 <= p - 1,
    # d_i <= p - 1); x = p vanishes mod p
    ind6 = np.tile(params.cosets(6), 2).astype(dtype)
    ind6[p] = out
    per_tuple = W * k + 3 * B
    if by_code:
        per_tuple += K
        table = _packed_phases(E)
    else:
        per_tuple += W * B
        Et = np.ascontiguousarray(E.T, dtype=dtype)  # rows along the last axis
        units = np.zeros(11 * out, dtype=np.int64)
        units[:out] = _UNITS[np.arange(out) % 6]
    step = max(1, _BLOCK_CELLS // per_tuple)
    for lo in range(0, T, step):
        hi = min(T, lo + step)
        digits = ind6[S[lo:hi, :, None] + n]  # tuple x digit x term
        digits[:, 0][n >= windows[lo:hi, None]] = out
        if by_code:
            codes = np.minimum(np.matmul(6 ** np.arange(k), digits), K)
            codes += (K + 1) * np.arange(hi - lo)[:, None]
            hist = np.bincount(codes.ravel(), minlength=(K + 1) * (hi - lo))
            sums = np.matmul(hist.reshape(hi - lo, K + 1)[:, :K], table)
        else:
            phase = Et[0, :, None] * digits[:, None, 0, :]
            for i in range(1, k):
                phase += Et[i, :, None] * digits[:, None, i, :]
            sums = units[phase].sum(axis=2)
        yield lo, hi, *_unpack(sums)


def weil_verdicts(params: PrimeParams, exponents, shifts, window) -> np.ndarray:
    """|sum| <= its Weil-type bound for each tuple and exponent row: a T x B array.

    The sums are sum_{n=1}^{window-1} chi((n+d_1)^{m_1} ... (n+d_k)^{m_k}).
    `shifts` is a T x k array of shift tuples, each strictly increasing
    residues below p (one tuple is the 1 x k batch), and `window` one window
    in 1..p per tuple (or one for all); window = p gives the complete sum.
    `exponents` is a B x k array of exponent rows in 1..5, every row summed
    over every tuple.  Terms where some n + d_i vanishes mod p contribute 0
    (chi(0) = 0).

    Complete sums (window = p) are held to (k-1)*sqrt(p) + k exactly: with n
    the Z[w] norm and a = n - (k-1)**2 p - k**2, iff a <= 0 or a**2 <=
    4 k**2 (k-1)**2 p, that is a <= isqrt(4 k**2 (k-1)**2 p).  Incomplete sums
    are held on floats to the desk-scale explicit form k*sqrt(p)*(1 + ln p),
    standing in for the cited O(k sqrt(p) log p).  Sums are held to their bounds
    chunk by chunk and never kept for the whole batch.
    """
    S, windows = _checked_shifts(params, shifts, window)
    E = _checked_exponents(exponents, S.shape[1])
    p, k = params.p, S.shape[1]
    complete = windows == p
    limit = (k - 1) ** 2 * p + k * k + math.isqrt(4 * k * k * (k - 1) ** 2 * p)
    bound = k * math.sqrt(p) * (1.0 + math.log(p)) + 1e-9
    rows, back = _conjugate_classes(E)
    ok = np.empty((len(S), len(E)), dtype=bool)
    for lo, hi, a, b in _sum_chunks(params, rows, S, windows):
        norm = zeta6_norm_sq((a, b))
        within = np.where(complete[lo:hi, None], norm <= limit, np.sqrt(norm) <= bound)
        # a row and its conjugate have conjugate sums, of equal norm
        ok[lo:hi] = within[:, back]
    return ok
