"""Bound kernels and cross-measure inequality checks.

Theorem 1's bound on the order-k correlation measure is asymptotic with an
unspecified absolute constant, so its kernel is reported and compared, never
asserted with a constant.  Corollary 1's kernel ln(min(N, p)/(sqrt(p) ln^2 p))
is negative (vacuous) at every desk-scale prime and has no report here yet.
The IW17 and BW06 inequalities are verified from independently recomputed
quantities.

Neither inequality runs an exact C_k ladder: each is certified by the
witness its own proof names, a shift set D whose sign product is +1 at each of
its N - d_k steps, so its walk reaches v = N - d_k (mode `certified-witness`).
For BW06, BM's connection polynomial names shifts D, w <= L+1 of them, with
d_k = L, so C_w >= N - L (see `check_bw06`).  For IW17, the word's own
maximum-order feedback register names D = (i, j), two equal M-bit windows
among the first 2**M + 1, so C_2 >= N - j (see `check_iw17`).  One XOR of
shifted copies of the word checks all N - d_k steps (`_witness_value`).

The difference-set check reads Hall's difference multiplicities lambda(t) and
autocorrelations A(t) off the order-6 cyclotomic numbers (Storer, Cyclotomy
and Difference Sets, 1967): both depend only on the class of t, so six values
decide them in O(p), and their exact pair count sum_t lambda(t) = w(w-1) is
checked at run time.  The O(p^2) correlations they replace are the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetExceeded, InvariantViolation, ParameterError
from .measures import (
    DEFAULT_BUDGET,
    _bits_to_int,
    _charge,
    berlekamp_massey_profile,
    correlation_measure_exact,
    max_order_complexity,
)
from .ntheory import PrimeParams, cyclotomic_numbers
from .seqgen import CLASS_SETS, BitSequence


# ASCII binary digits '0'/'1' to the bytes 0/1, the selectors of `compress`
_BITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class BoundEvaluation:
    """Outcome of one bound check (IW17 or BW06)."""

    inputs: dict
    satisfied: bool


def theorem1_kernel(k: int, p: int) -> float:
    """(14/3)**k * k * sqrt(p) * ln(p), the bound shape without its constant."""
    if k < 1 or p < 2:
        raise ParameterError(f"need k >= 1 and prime p, got k={k}, p={p}")
    return (14.0 / 3.0) ** k * k * math.sqrt(p) * math.log(p)


def _witness_value(seq: BitSequence, shifts: tuple[int, ...], broken) -> int:
    """v = N - d_k, the walk value of the sorted shift set D = shifts, when its
    sign product prod_{d in D} (-1)**s_{n+d} is +1 at every step n < N - d_k;
    else InvariantViolation with message broken(n), n the first -1 step.

    With W the word as an int (bit n is s_n), bit n of the XOR of W >> d over D
    is the parity of s_{n+d} over D, 0 exactly when step n's product is +1: the
    XOR's low N - d_k bits decide every step, in O(w N / 64) word operations.
    """
    word = _bits_to_int(seq.bits)
    steps = seq.length - shifts[-1]
    parity = 0
    for d in shifts:
        parity ^= word >> d
    parity &= (1 << steps) - 1
    if parity:
        raise InvariantViolation(f"{seq.label}: {broken((parity & -parity).bit_length() - 1)}")
    return steps


def check_iw17(seq: BitSequence) -> BoundEvaluation:
    """M(S,N) >= N - 2**(M(S,N)+1) * max_{1<=k<=M(S,N)+1} C_k(S,N), N the word's
    length, certified by the word's own feedback register.

    With M = M(S, N) from `max_order_complexity`: when 2**(M+1) >= N - M, C_1 >= 1
    settles the inequality without a walk (D = (0,), v = 1).  Otherwise
    2**M < N/2, and equal M-bit windows share their successor, so two of the
    first 2**M + 1 windows are equal, at i < j, and s_{n+i} = s_{n+j} from
    there on: C_2 >= v = N - j, with v the walk value of D = (i, j) from
    `_witness_value`.  A step n < N - j with s_{n+i} != s_{n+j} means MOC is
    wrong (InvariantViolation).  The witness costs O(N / 64); no budget applies.
    """
    n = seq.length
    m = max_order_complexity(seq)
    shifts, v = (0,), 1
    if 2 ** (m + 1) < n - m:
        # the first repeated code among the first 2**m + 1 windows of m bits
        codes = sliding_window_view(seq.bits[: 2**m + m], m) @ (1 << np.arange(m))
        seen = {}
        for j, code in enumerate(codes.tolist()):
            i = seen.setdefault(code, j)
            if i < j:
                break
        shifts = (i, j)
        v = _witness_value(seq, shifts, lambda t: (
            f"MOC witness i = {i}, j = {j} has s_(n+i) != s_(n+j) at n = {t}, "
            f"one of the N - j = {n - j} steps (N={n}, M={m})"))
    rhs = n - 2 ** (m + 1) * v
    inputs = {"N": n, "M": m, "label": seq.label, "D": shifts, "w": len(shifts), "v": v,
              "mode": "certified-witness", "rhs": rhs}
    return BoundEvaluation(inputs=inputs, satisfied=m >= rhs)


def check_bw06(seq: BitSequence) -> BoundEvaluation:
    """L(S,N) >= N - max_{1<=k<=L(S,N)+1} C_k(S), N the word's length,
    certified by BM's own witness.

    BM's connection polynomial C(x) for the word gives the shifts
    D = {L - i : c_i = 1}, w <= L + 1 of them, whose sign product is +1 at
    each of the first N - L steps; so C_w >= v = N - L, with v the walk value
    of D from `_witness_value`.  A step whose product is -1, the recurrence
    broken at n = L + step, means BM is wrong (InvariantViolation).  When
    L = N, D reaches past the word and C_1 >= 1 settles the inequality without
    a walk (v = 0).  The witness costs O(w N / 64); no budget applies.
    """
    n = seq.length
    profile = berlekamp_massey_profile(seq)
    lc, conn = profile.final, profile.connection
    if conn >> (lc + 1) or not conn & 1:
        raise InvariantViolation(
            f"{seq.label}: BM connection {conn:#x} has c_0 = 0 or degree > L = {lc}"
        )
    # D off C(x)'s binary digits, c_deg first: shift L - deg + t at each 1 of digit t
    digits = bin(conn)[2:]
    shifts = tuple(compress(range(lc + 1 - len(digits), lc + 1), digits.encode().translate(_BITS)))
    v = 0
    if lc < n:
        v = _witness_value(seq, shifts, lambda t: (
            f"BM witness breaks the recurrence at n = {lc + t}, "
            f"step {t} of the N - L = {n - lc} steps (N={n}, L={lc})"))
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


def difference_set_check(params: PrimeParams) -> DifferenceSetReport:
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
        three_in_c1=bool(params.index_table[3] % 6 == 1),
    )


def random_baseline(
    n: int, k: int, trials: int, rng_seed: int, budget: int = DEFAULT_BUDGET
) -> dict:
    """Exact C_k over uniform random words, as the value `baseline` prints: the
    mean_ratio, max_ratio and quartiles [q25, q50, q75] of C_k / sqrt(N ln N),
    and the C_k of each word in values."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if rng_seed < 0:
        raise ParameterError(f"seed must be >= 0; got {rng_seed}")
    if n < 1:
        raise ParameterError(f"n must be >= 1; got {n}")
    if not 1 <= k <= n:
        raise ParameterError(f"order k={k} outside 1..{n}")
    # each word's exact search charges the same E, so all trials are charged once,
    # before the first draw: E * trials > budget exactly when E > budget // trials.
    # The baseline has no sampled variant to point to.
    hint = "lower --n, --k or --trials, or raise --budget"
    try:
        _charge(n, k, budget // trials, hint)
    except BudgetExceeded as e:
        raise BudgetExceeded(e.estimate * trials, budget, hint) from None
    rng = np.random.default_rng(rng_seed)
    norm = math.sqrt(n * math.log(n)) if n > 1 else 1.0
    values = []
    for _ in range(trials):
        word = BitSequence.create(rng.integers(0, 2, size=n, dtype=np.uint8), label="random")
        values.append(correlation_measure_exact(word, k, budget=budget).value)
    ratios = [v / norm for v in values]
    return {
        "mean_ratio": float(np.mean(ratios)),
        "max_ratio": max(ratios),
        "quartiles": [float(q) for q in np.quantile(ratios, [0.25, 0.5, 0.75])],
        "values": values,
    }
