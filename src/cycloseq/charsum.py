"""Complete and incomplete multiplicative character sums and their Weil bounds.

Sums are accumulated as integer counts over the six 6th-root-of-unity phases
and reduced exactly in Z[w] (w = exp(pi*i/3), w^2 = w - 1), so every equality
assertion is integer arithmetic; floats appear only in reported magnitudes and
bound comparisons.  |a + b*w|^2 = a^2 + a*b + b^2 is exact as well.

One kernel, `phase_counts`, computes every sum.  Sums that share a shift tuple
and a window differ only in their exponent vectors, so for a batch of B
exponent vectors (a B x k matrix E) the kernel gathers ind(n + d_i) mod 6 once
as a W x k array (dropping the n where some n + d_i = 0 mod p), forms all the
phases as ind @ E.T mod 6 and takes a six-bin histogram per column.  A single
sum is a one-row batch; the Weil suite evaluates the 5**k complete sums of a
shift tuple, and a correlation expansion its 5**k terms, in one call.  The
per-term loop it replaced stays in tests/test_charsum.py as
`_character_sum_reference`, the oracle the kernel is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .bounds import BoundEvaluation
from .errors import DegenerateCharacter, ParameterError
from .ntheory import SexticParams, reduce_zeta6
from .seqgen import HALL_CLASSES

# exp(2*pi*i*r/6) for r = 0..5
ROOT6 = tuple(cmath.exp(2j * cmath.pi * r / 6) for r in range(6))

# Per-factor expansion coefficients of (-1)**h as sum_m coeff_m * chi**m,
# merged over chi-powers m = 1..5; each pair (a, b) encodes (a + b*w)/3.
FACTOR_COEFFS = {1: (-1, 1), 2: (-2, 1), 3: (1, 0), 4: (-1, -1), 5: (0, -1)}


def zeta6_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    a, b = x
    c, d = y
    # (a + bw)(c + dw) with w^2 = w - 1
    return a * c - b * d, a * d + b * c + b * d


def zeta6_norm_sq(x: tuple[int, int]) -> int:
    a, b = x
    return a * a + a * b + b * b


def zeta6_conj(x: tuple[int, int]) -> tuple[int, int]:
    a, b = x
    return a + b, -b


@dataclass(frozen=True)
class CharSumQuery:
    """A sum sum_{n=1}^{M-1} chi((n+d_1)^{m_1} ... (n+d_k)^{m_k}).

    Exponents range over 1..5 (chi has order 6); M = p gives the complete sum.
    Terms where some n + d_i vanishes mod p contribute 0 (chi(0) = 0).
    """

    params: SexticParams
    exponents: tuple[int, ...]
    shifts: tuple[int, ...]
    window: int

    def __post_init__(self):
        k = len(self.exponents)
        if k < 1 or len(self.shifts) != k:
            raise ParameterError("exponent and shift vectors must have equal length k >= 1")
        if any(not 1 <= m <= 5 for m in self.exponents):
            raise ParameterError(f"exponents {self.exponents} outside 1..5")
        if any(a >= b for a, b in zip(self.shifts, self.shifts[1:])) or self.shifts[0] < 0:
            raise ParameterError(f"shifts {self.shifts} not strictly increasing")
        if self.shifts[-1] >= self.params.p:
            raise ParameterError("shifts must be residues below p")
        if not 1 <= self.window <= self.params.p:
            raise ParameterError(f"window {self.window} outside 1..p")

    @property
    def k(self) -> int:
        return len(self.exponents)

    @property
    def complete(self) -> bool:
        return self.window == self.params.p


@dataclass(frozen=True)
class CharSumValue:
    counts: tuple[int, ...]  # phase histogram, length 6
    reduced: tuple[int, int]  # exact a + b*w
    value: complex
    skipped: int  # terms with a vanishing argument

    @property
    def magnitude(self) -> float:
        return math.sqrt(zeta6_norm_sq(self.reduced))


def phase_counts(params: SexticParams, exponents, shifts, window: int) -> tuple[np.ndarray, int]:
    """Phase histograms of sum_{n=1}^{window-1} chi((n+d_1)^{m_1} ... (n+d_k)^{m_k})
    for a batch of exponent vectors sharing `shifts` and `window`.

    `exponents` is a B x k array of exponent rows.  Returns (counts, skipped):
    counts[b, r] is the number of terms of row b with phase r, and skipped the
    number of n with a vanishing argument (the same for every row).
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    E = np.asarray(exponents, dtype=np.int64)
    if E.ndim != 2 or E.shape[1] != shifts.size:
        raise ParameterError(f"exponents of shape {E.shape} do not match {shifts.size} shifts")
    args = (np.arange(1, window)[:, None] + shifts) % params.p
    keep = (args != 0).all(axis=1)
    phases = (params.index_table[args[keep]] % 6) @ E.T % 6
    B = E.shape[0]
    counts = np.bincount((phases + 6 * np.arange(B)).ravel(), minlength=6 * B).reshape(B, 6)
    return counts, window - 1 - int(keep.sum())


def _value(counts, skipped: int) -> CharSumValue:
    counts = tuple(int(c) for c in counts)
    value = sum(c * ROOT6[r] for r, c in enumerate(counts))
    return CharSumValue(counts=counts, reduced=reduce_zeta6(counts), value=value, skipped=skipped)


def character_sum(query: CharSumQuery) -> CharSumValue:
    """Evaluate the sum exactly (phase counts) and as a complex double."""
    counts, skipped = phase_counts(query.params, [query.exponents], query.shifts, query.window)
    return _value(counts[0], skipped)


def _weil(magnitude, p: int, k: int, complete: bool):
    """(bound, magnitude <= bound) for scalar or array magnitudes.

    Complete sums are held to the exact bound (k-1)*sqrt(p) + k; incomplete
    sums to the desk-scale explicit form k*sqrt(p)*(1 + ln p) standing in for
    the cited O(k sqrt(p) log p).
    """
    if complete:
        bound = (k - 1) * math.sqrt(p) + k
    else:
        bound = k * math.sqrt(p) * (1.0 + math.log(p))
    return bound, magnitude <= bound + 1e-9


def _check_nondegenerate(E) -> None:
    if (np.asarray(E) % 6 == 0).all(axis=-1).any():
        raise DegenerateCharacter("composed character is principal")


def weil_check(query: CharSumQuery) -> BoundEvaluation:
    """Compare |sum| with the Weil-type bound (see `_weil`)."""
    _check_nondegenerate(query.exponents)
    mag = character_sum(query).magnitude
    bound, satisfied = _weil(mag, query.params.p, query.k, query.complete)
    return BoundEvaluation(
        name="weil",
        inputs={
            "p": query.params.p,
            "k": query.k,
            "exponents": query.exponents,
            "shifts": query.shifts,
            "window": query.window,
            "complete": query.complete,
        },
        kernel_value=bound,
        measured_value=mag,
        satisfied=satisfied,
    )


def weil_verdicts(params: SexticParams, exponents, shifts, window: int) -> np.ndarray:
    """`weil_check(...).satisfied` for each exponent row of a batch sharing
    `shifts` and `window`, from one `phase_counts` call."""
    _check_nondegenerate(exponents)
    counts, _ = phase_counts(params, exponents, shifts, window)
    mag = np.sqrt(zeta6_norm_sq(reduce_zeta6(counts.T)))
    return _weil(mag, params.p, len(shifts), window == params.p)[1]


@dataclass(frozen=True)
class ExpansionTerm:
    coeff: tuple[int, int]  # (a + b*w) over the expansion's common denominator
    query: CharSumQuery


@dataclass(frozen=True)
class CorrelationExpansion:
    """(-1)**(h_{n+d_1}+...+h_{n+d_k}) expanded into character sums.

    Per factor, (-1)**h_n = sum_{m=1}^{5} coeff_m chi^m(n) after merging the
    cubic character eta in {chi^2, chi^4} into chi-powers: 5 merged terms per
    factor (7 before merging).  Products of k factors give merged_count = 5**k
    terms with exact Z[w] coefficients over denominator 3**k.
    """

    k: int
    denominator: int  # 3**k
    terms: tuple[ExpansionTerm, ...]
    merged_count: int  # 5**k
    unmerged_count: int  # 7**k

    def _values(self) -> list[CharSumValue]:
        """Every term's sum from one kernel call; the terms share shifts and window."""
        q = self.terms[0].query
        shared = (q.shifts, q.window)
        if any(t.query.params is not q.params or (t.query.shifts, t.query.window) != shared
               for t in self.terms):
            raise ParameterError("expansion terms must share params, shifts and window")
        counts, skipped = phase_counts(
            q.params, [t.query.exponents for t in self.terms], q.shifts, q.window
        )
        return [_value(row, skipped) for row in counts]

    def evaluate_exact(self) -> tuple[int, int]:
        """Numerator of the expansion value as a + b*w (denominator 3**k)."""
        acc = (0, 0)
        for term, s in zip(self.terms, self._values()):
            ab = zeta6_mul(term.coeff, s.reduced)
            acc = (acc[0] + ab[0], acc[1] + ab[1])
        return acc

    def evaluate_complex(self) -> complex:
        total = 0j
        for term, s in zip(self.terms, self._values()):
            a, b = term.coeff
            coeff = (a + b * ROOT6[1]) / self.denominator
            total += coeff * s.value
        return total


def expand_correlation_to_charsums(
    params: SexticParams, shifts, window: int
) -> CorrelationExpansion:
    """Expansion of the order-k correlation sum of the Hall sequence."""
    shifts = tuple(int(d) for d in shifts)
    k = len(shifts)
    if k < 1:
        raise ParameterError("need at least one shift")
    terms = []
    for ms in product(range(1, 6), repeat=k):
        coeff = (1, 0)
        for m in ms:
            coeff = zeta6_mul(coeff, FACTOR_COEFFS[m])
        terms.append(
            ExpansionTerm(
                coeff=coeff,
                query=CharSumQuery(params=params, exponents=ms, shifts=shifts, window=window),
            )
        )
    return CorrelationExpansion(
        k=k,
        denominator=3**k,
        terms=tuple(terms),
        merged_count=5**k,
        unmerged_count=7**k,
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
