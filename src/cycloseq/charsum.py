"""Order-6 character sums, their Weil bounds, and the correlation expansion.

Sums are accumulated as integer counts over the six 6th-root-of-unity phases
and reduced exactly in Z[w] (w = exp(pi*i/3), w^2 = w - 1), so every equality
assertion is integer arithmetic; floats appear only in magnitudes and bound
comparisons.  |a + b*w|^2 = a^2 + a*b + b^2 is exact as well.

One kernel, `phase_counts`, computes every sum, and it is the only way in.
Sums that share a shift tuple and a window differ only in their exponent
vectors, so for a batch of B exponent vectors (a B x k matrix E) the kernel
gathers ind(n + d_i) mod 6 once as a W x k array (dropping the n where some
n + d_i = 0 mod p), forms all the phases as ind @ E.T mod 6 and takes a
six-bin histogram per row.  A single sum is a one-row batch.  `weil_verdicts`
holds a batch to its Weil-type bound, and a correlation expansion evaluates
its 5**k exponent rows in one call.  Exponents range over 1..5, so no row is
the principal character and Weil applies to every sum.  The per-term loop the
kernel replaced stays in tests/test_charsum.py as `_character_sum_reference`,
the oracle the kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .errors import ParameterError
from .ntheory import SexticParams, reduce_zeta6
from .seqgen import HALL_CLASSES

# Per-factor expansion coefficients of (-1)**h as sum_m coeff_m * chi**m,
# merged over chi-powers m = 1..5; each pair (a, b) encodes (a + b*w)/3.
FACTOR_COEFFS = {1: (-1, 1), 2: (-2, 1), 3: (1, 0), 4: (-1, -1), 5: (0, -1)}


def zeta6_mul(x, y):
    """(a + bw)(c + dw) with w^2 = w - 1, for ints or elementwise for arrays."""
    a, b = x
    c, d = y
    return a * c - b * d, a * d + b * c + b * d


def zeta6_norm_sq(x):
    a, b = x
    return a * a + a * b + b * b


def _checked_shifts(params: SexticParams, shifts, window: int) -> tuple[int, ...]:
    """`shifts` as ints; refuses an empty tuple, shifts that are not strictly
    increasing residues below p, and a window outside 1..p."""
    shifts = tuple(int(d) for d in shifts)
    if not shifts:
        raise ParameterError("need at least one shift")
    if any(a >= b for a, b in zip(shifts, shifts[1:])) or shifts[0] < 0:
        raise ParameterError(f"shifts {shifts} not strictly increasing")
    if shifts[-1] >= params.p:
        raise ParameterError("shifts must be residues below p")
    if not 1 <= window <= params.p:
        raise ParameterError(f"window {window} outside 1..p")
    return shifts


def phase_counts(params: SexticParams, exponents, shifts, window: int) -> tuple[np.ndarray, int]:
    """Phase histograms of sum_{n=1}^{window-1} chi((n+d_1)^{m_1} ... (n+d_k)^{m_k})
    for a batch of exponent vectors sharing `shifts` and `window`.

    `exponents` is a B x k array of exponent rows, each in 1..5; `shifts` are
    strictly increasing residues below p and `window` lies in 1..p (window = p
    gives the complete sum).  Terms where some n + d_i vanishes mod p contribute
    0 (chi(0) = 0).  Returns (counts, skipped): counts[b, r] is the number of
    terms of row b with phase r, and skipped the number of n with a vanishing
    argument (the same for every row).
    """
    shifts = _checked_shifts(params, shifts, window)
    E = np.asarray(exponents, dtype=np.int64)
    if E.ndim != 2 or E.shape[1] != len(shifts):
        raise ParameterError(f"exponents of shape {E.shape} do not match {len(shifts)} shifts")
    if ((E < 1) | (E > 5)).any():
        raise ParameterError("exponents outside 1..5")
    args = (np.arange(1, window)[:, None] + shifts) % params.p
    keep = (args != 0).all(axis=1)
    phases = (params.index_table[args[keep]] % 6) @ E.T % 6
    B = E.shape[0]
    counts = np.bincount((phases + 6 * np.arange(B)).ravel(), minlength=6 * B).reshape(B, 6)
    return counts, window - 1 - int(keep.sum())


def weil_verdicts(params: SexticParams, exponents, shifts, window: int) -> np.ndarray:
    """|sum| <= its Weil-type bound, for each exponent row of a `phase_counts` batch.

    Complete sums (window = p) are held to the exact bound (k-1)*sqrt(p) + k;
    incomplete sums to the desk-scale explicit form k*sqrt(p)*(1 + ln p)
    standing in for the cited O(k sqrt(p) log p).  |sum| is the square root of
    the exact Z[w] norm.
    """
    counts, _ = phase_counts(params, exponents, shifts, window)
    mag = np.sqrt(zeta6_norm_sq(reduce_zeta6(counts.T)))
    p, k = params.p, len(shifts)
    if window == p:
        bound = (k - 1) * math.sqrt(p) + k
    else:
        bound = k * math.sqrt(p) * (1.0 + math.log(p))
    return mag <= bound + 1e-9


@dataclass(frozen=True)
class CorrelationExpansion:
    """(-1)**(h_{n+d_1}+...+h_{n+d_k}) expanded into character sums.

    Per factor, (-1)**h_n = sum_{m=1}^{5} coeff_m chi^m(n) after merging the
    cubic character eta in {chi^2, chi^4} into chi-powers: 5 terms per factor
    (7 before merging).  Products of k factors give 5**k exponent rows with
    exact Z[w] coefficients over denominator 3**k, all summed over the
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
        return 3**self.k

    def evaluate_exact(self) -> tuple[int, int]:
        """Numerator of the expansion value as a + b*w (denominator 3**k)."""
        counts, _ = phase_counts(self.params, self.exponents, self.shifts, self.window)
        a, b = zeta6_mul(np.array(self.coeffs).T, reduce_zeta6(counts.T))
        return int(a.sum()), int(b.sum())


def expand_correlation_to_charsums(
    params: SexticParams, shifts, window: int
) -> CorrelationExpansion:
    """Expansion of the order-k correlation sum of the Hall sequence."""
    shifts = _checked_shifts(params, shifts, window)
    rows = tuple(product(range(1, 6), repeat=len(shifts)))
    coeffs = tuple(reduce(zeta6_mul, (FACTOR_COEFFS[m] for m in ms), (1, 0)) for ms in rows)
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
    table = params.index_table
    total = 0
    for n in range(1, window):
        sign = 1
        for d in shifts:
            arg = (n + d) % p
            if arg == 0:
                sign = 0
                break
            if int(table[arg]) % 6 in HALL_CLASSES:
                sign = -sign
        total += sign
    return total
