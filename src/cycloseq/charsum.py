"""Complete and incomplete multiplicative character sums and their Weil bounds.

Sums are accumulated as integer counts over the six 6th-root-of-unity phases
and reduced exactly in Z[w] (w = exp(pi*i/3), w^2 = w - 1), so every equality
assertion is integer arithmetic; floats appear only in reported magnitudes and
bound comparisons.  |a + b*w|^2 = a^2 + a*b + b^2 is exact as well.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

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


def character_sum(query: CharSumQuery) -> CharSumValue:
    """Evaluate the sum exactly (phase counts) and as a complex double."""
    p = query.params.p
    table = query.params.index_table
    counts = [0] * 6
    skipped = 0
    for n in range(1, query.window):
        phase = 0
        for m, d in zip(query.exponents, query.shifts):
            arg = (n + d) % p
            if arg == 0:
                phase = -1
                break
            phase += m * int(table[arg])
        if phase < 0:
            skipped += 1
            continue
        counts[phase % 6] += 1
    reduced = reduce_zeta6(counts)
    value = sum(c * ROOT6[r] for r, c in enumerate(counts))
    return CharSumValue(counts=tuple(counts), reduced=reduced, value=value, skipped=skipped)


def weil_check(query: CharSumQuery) -> BoundEvaluation:
    """Compare |sum| with the Weil-type bound.

    Complete sums are held to the exact bound (k-1)*sqrt(p) + k; incomplete
    sums to the desk-scale explicit form k*sqrt(p)*(1 + ln p) standing in for
    the cited O(k sqrt(p) log p).
    """
    if all(m % 6 == 0 for m in query.exponents):
        raise DegenerateCharacter("composed character is principal")
    p = query.params.p
    k = query.k
    mag = character_sum(query).magnitude
    if query.complete:
        bound = (k - 1) * math.sqrt(p) + k
    else:
        bound = k * math.sqrt(p) * (1.0 + math.log(p))
    return BoundEvaluation(
        name="weil",
        inputs={
            "p": p,
            "k": k,
            "exponents": query.exponents,
            "shifts": query.shifts,
            "window": query.window,
            "complete": query.complete,
        },
        kernel_value=bound,
        measured_value=mag,
        satisfied=mag <= bound + 1e-9,
    )


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

    def evaluate_exact(self) -> tuple[int, int]:
        """Numerator of the expansion value as a + b*w (denominator 3**k)."""
        acc = (0, 0)
        for term in self.terms:
            s = character_sum(term.query).reduced
            ab = zeta6_mul(term.coeff, s)
            acc = (acc[0] + ab[0], acc[1] + ab[1])
        return acc

    def evaluate_complex(self) -> complex:
        total = 0j
        for term in self.terms:
            a, b = term.coeff
            coeff = (a + b * ROOT6[1]) / self.denominator
            total += coeff * character_sum(term.query).value
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
