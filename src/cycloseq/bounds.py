"""Bound kernels and cross-measure inequality checks.

The headline bound on the order-k correlation measure is asymptotic with an
unspecified absolute constant, so kernels are reported and compared, never
asserted with a constant.  The IW17 and BW06 inequalities are verified from
independently recomputed quantities.

IW17 raises k through C_1, C_2, ... until the full range k <= M+1 is covered
(mode `exact`) or the partial maximum already implies the inequality: it
lower-bounds the full maximum, so M >= N - 2**(M+1) * partial is a one-sided
certificate (mode `certified-partial`).  `k_cap` (`--kmax`) and `budget`
(`--budget`) bound this ladder; an instance it cannot settle is reported
not-applicable (mode `budget-exceeded` or `not-applicable`).

BW06 needs no ladder: BM's connection polynomial names shifts D, w <= L+1 of
them, whose walk reaches N - L, so C_w >= N - L settles every instance (mode
`certified-witness`, see `check_bw06`).

The difference-set check reads Hall's difference multiplicities lambda(t) and
autocorrelations A(t) off the order-6 cyclotomic numbers (Storer, Cyclotomy
and Difference Sets, 1967): both depend only on the class of t, so six values
decide them in O(p), and their exact pair count sum_t lambda(t) = w(w-1) is
checked at run time.  The O(p^2) correlations they replace are the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, InvariantViolation, ParameterError
from .measures import (
    DEFAULT_BUDGET,
    berlekamp_massey_profile,
    correlation_for_shifts,
    correlation_measure_exact,
    max_order_complexity_profile,
)
from .ntheory import SexticParams, cyclotomic_numbers
from .seqgen import CLASS_SETS, BitSequence

DEFAULT_K_CAP = 6


@dataclass(frozen=True)
class BoundEvaluation:
    """Outcome of one bound check (IW17 or BW06); satisfied=None means not-applicable."""

    inputs: dict = field(default_factory=dict)
    satisfied: bool | None = None


def theorem1_kernel(k: int, p: int) -> float:
    """(14/3)**k * k * sqrt(p) * ln(p), the bound shape without its constant."""
    if k < 1 or p < 2:
        raise ParameterError(f"need k >= 1 and prime p, got k={k}, p={p}")
    return (14.0 / 3.0) ** k * k * math.sqrt(p) * math.log(p)


def corollary1_kernel(n: int, p: int) -> float:
    """ln(min(N, p) / (sqrt(p) * ln(p)**2)); negative means the bound is vacuous."""
    if n < 1 or p < 2:
        raise ParameterError(f"need N >= 1 and prime p, got N={n}, p={p}")
    return math.log(min(n, p) / (math.sqrt(p) * math.log(p) ** 2))


def check_iw17(
    seq: BitSequence,
    n: int,
    k_cap: int = DEFAULT_K_CAP,
    budget: int = DEFAULT_BUDGET,
) -> BoundEvaluation:
    """M(S,N) >= N - 2**(M(S,N)+1) * max_{1<=k<=M(S,N)+1} C_k(S,N)."""
    if n < 2:
        raise ParameterError("need N >= 2")
    prefix = seq.prefix(n)
    m = max_order_complexity_profile(prefix).final
    c_values: dict[int, int] = {}
    detail = {"c_values": c_values, "mode": "not-applicable", "k_used": 0}
    satisfied = None
    for k in range(1, min(m + 1, k_cap) + 1):
        try:
            c_values[k] = correlation_measure_exact(prefix, k, budget=budget).value
        except BudgetExceeded:
            detail["mode"] = "budget-exceeded"
            break
        detail["k_used"] = k
        detail["rhs"] = rhs = n - 2 ** (m + 1) * max(c_values.values())
        if k == m + 1 or m >= rhs:
            detail["mode"] = "exact" if k == m + 1 else "certified-partial"
            satisfied = m >= rhs
            break
    inputs = {"N": n, "M": m, "label": seq.label, **detail}
    return BoundEvaluation(inputs=inputs, satisfied=satisfied)


def check_bw06(seq: BitSequence, n: int) -> BoundEvaluation:
    """L(S,N) >= N - max_{1<=k<=L(S,N)+1} C_k(S), certified by BM's own witness.

    BM's connection polynomial C(x) for the length-N prefix gives the shifts
    D = {L - i : c_i = 1}, w <= L + 1 of them, whose sign product is +1 at
    each of the first N - L steps; so C_w >= v >= N - L, with v the walk value
    of D from `correlation_for_shifts`.  A walk below N - L means BM or the
    walk is wrong (InvariantViolation).  When L = N, D reaches past the word
    and C_1 >= 1 settles the inequality without a walk (v = 0).  The witness
    costs O(N * w); no budget applies.
    """
    if n < 1:
        raise ParameterError("need N >= 1")
    prefix = seq.prefix(n)
    profile = berlekamp_massey_profile(prefix)
    lc, conn = profile.final, profile.connection
    if conn >> (lc + 1) or not conn & 1:
        raise InvariantViolation(
            f"{seq.label}: BM connection {conn:#x} has c_0 = 0 or degree > L = {lc}"
        )
    shifts = tuple(lc - i for i in range(lc, -1, -1) if conn >> i & 1)
    v = 0
    if lc < n:
        v = correlation_for_shifts(prefix, shifts)[0]
        if v < n - lc:
            raise InvariantViolation(
                f"{seq.label}: BM witness walks to {v} < N - L = {n - lc} (N={n}, L={lc})"
            )
    inputs = {"N": n, "L": lc, "label": seq.label, "D": shifts, "w": len(shifts), "v": v,
              "mode": "certified-witness", "rhs": n - v}
    return BoundEvaluation(inputs=inputs, satisfied=True)


@dataclass(frozen=True)
class DifferenceSetReport:
    lambda_value: int | None  # the constant lambda(t), None unless a difference set
    two_level_ideal: bool
    hall_form_u: int | None  # u with p = 4u**2 + 27, if any
    three_in_c1: bool


def _class_differences(p: int, cyc: np.ndarray, classes) -> tuple[np.ndarray, np.ndarray]:
    """lambda(h) and A(h), h = 0..m-1, of the p-periodic word with s_0 = 0 and
    ones on the union of the order-m classes C_i, i in classes; cyc is the
    m x m table of `cyclotomic_numbers`.

    For t in C_h, x = t*u is a one with x + t a one exactly when u is in
    C_{i-h} and u + 1 in C_{j-h} for some i, j in classes, so the difference
    multiplicity is lambda(h) = sum_{i,j} (i-h, j-h), and A(h) = p - 4(w - lambda(h))
    with w = |classes| (p-1)/m ones.  Every class holds (p-1)/m shifts t, so
    sum_h lambda(h) (p-1)/m counts the w(w-1) ordered pairs of distinct ones;
    InvariantViolation if it does not.
    """
    m = cyc.shape[0]
    f = (p - 1) // m
    ones = np.array(sorted(classes), dtype=np.intp)
    h = np.arange(m)[:, None, None]
    lam = cyc[(ones[:, None] - h) % m, (ones - h) % m].sum(axis=(1, 2))
    w = len(ones) * f
    pairs = int(lam.sum()) * f
    if pairs != w * (w - 1):
        raise InvariantViolation(
            f"p={p}, m={m}: difference multiplicities count {pairs} "
            f"pairs of ones, not w(w-1) = {w * (w - 1)}"
        )
    return lam, p - 4 * (w - lam)


def difference_set_check(params: SexticParams) -> DifferenceSetReport:
    """Is Hall's ones-set a difference set, with A(t) = -1 for all t?

    Both are read off the order-6 cyclotomic numbers: lambda(t) and A(t)
    depend only on the class h of t, and every class is nonempty, so the
    six values of `_class_differences` decide both verdicts in O(p).
    """
    p = params.p
    m, ones = CLASS_SETS["hall"]
    lam, autocorr = _class_differences(p, cyclotomic_numbers(params, m), ones)
    lambda_constant = bool((lam == lam[0]).all())
    two_level = bool((autocorr == -1).all())

    u = None
    if p > 27 and (p - 27) % 4 == 0:
        r = math.isqrt((p - 27) // 4)
        if 4 * r * r + 27 == p:
            u = r
    return DifferenceSetReport(
        lambda_value=int(lam[0]) if lambda_constant else None,
        two_level_ideal=two_level,
        hall_form_u=u,
        three_in_c1=bool(params.cosets(6)[3] == 1),
    )


@dataclass(frozen=True)
class BaselineStatistics:
    """C_k of each random word; mean, max and quartiles of C_k / sqrt(N ln N)."""

    values: tuple[int, ...]
    mean_ratio: float
    max_ratio: float
    quartiles: tuple[float, float, float]


def random_baseline(
    n: int, k: int, trials: int, rng_seed: int, budget: int = DEFAULT_BUDGET
) -> BaselineStatistics:
    """Exact C_k over uniform random words, normalized by sqrt(N ln N)."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if rng_seed < 0:
        raise ParameterError(f"seed must be >= 0; got {rng_seed}")
    rng = np.random.default_rng(rng_seed)
    norm = math.sqrt(n * math.log(n)) if n > 1 else 1.0
    values = []
    for _ in range(trials):
        word = BitSequence.create(rng.integers(0, 2, size=n, dtype=np.uint8), label="random")
        values.append(correlation_measure_exact(word, k, budget=budget).value)
    ratios = tuple(v / norm for v in values)
    q25, q50, q75 = (float(q) for q in np.quantile(ratios, [0.25, 0.5, 0.75]))
    return BaselineStatistics(
        values=tuple(values),
        mean_ratio=float(np.mean(ratios)),
        max_ratio=float(max(ratios)),
        quartiles=(q25, q50, q75),
    )
