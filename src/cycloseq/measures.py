"""Exact pseudorandomness measures for binary words.

The throughput-critical kernel is the exact aperiodic correlation measure of
order k.  Every tuple of k shifts D = (d_1 < ... < d_k) with a window length M
(M-1+d_k <= N-1) contributes |sum_{n=0}^{M-1} (-1)^{s_{n+d_1}+...+s_{n+d_k}}|.
The kernel enumerates shift *patterns* with d_1 = 0 and reads off, for each
pattern, the max-min spread of the signed prefix-sum walk: a window of the
pattern translated by a and of length b-a sums to P_b - P_a, so the spread
covers every (D, M) with that difference pattern in one linear pass.

For k >= 2 the patterns are walked depth first over the head shifts
(d_2..d_{k-1}), with an explicit stack rather than recursion, so k = N does
not nest N levels deep.  Each head's sign product extends its parent's by one
row, and the walks of all last shifts d_k under one head form one matrix
cumsum.  A pattern with last shift d_k has N - d_k walk steps, so its spread is
at most N - d_k.  Two cuts follow from that bound and the running best: a
branch at shift d with r shifts still to place (d_k included) is cut once
N - d - r < best, and a head's cumsum keeps only the rows with d_k <= N - best
and the N - d_{k-1} - 1 columns its longest row needs.  Both cuts compare
strictly, so every pattern that ties the final maximum is still evaluated and
the lexicographically smallest witness does not depend on them.  A branch
with N - d - r = best can only tie, and only through its one completion with
d_k = d + r, the consecutive shifts d+1..d+r; that pattern is evaluated
directly instead of expanding the branch.  The budget
is an upfront refusal on the nominal count binom(N, k) * N, not a count of
the walk steps evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    BadShifts,
    BudgetExceeded,
    CapExceeded,
    InvariantViolation,
    NoPeriod,
    ParameterError,
)
from .seqgen import BitSequence

DEFAULT_BUDGET = 10**9
MOC_NAIVE_CAP = 4096
# Not a cost cap: the gcd takes 16 ms at T = 100003.  It keeps the record
# printable: past T = 14 284 bits, S2 and 2**T - 1 exceed Python's 4300-digit
# int-to-str limit, and writing the record ends in a ValueError.
TWO_ADIC_CAP = 10000


@dataclass(frozen=True)
class CorrelationReport:
    k: int
    value: int
    witness_D: tuple[int, ...]
    witness_M: int
    exhaustive: bool


@dataclass(frozen=True)
class ComplexityProfile:
    """Per-prefix complexity values; values[i] is the value at prefix length i+1."""

    kind: str  # "linear" | "maxorder"
    values: tuple[int, ...]

    def at(self, n: int) -> int:
        if not 1 <= n <= len(self.values):
            raise ParameterError(f"prefix length {n} outside 1..{len(self.values)}")
        return self.values[n - 1]

    @property
    def final(self) -> int:
        return self.values[-1]


@dataclass(frozen=True)
class TwoAdicReport:
    period: int
    numerator: int  # S(2) = sum s_n 2**n over one period
    modulus: int  # 2**T - 1
    gcd_value: int
    complexity: float  # log2(modulus / gcd)

    @property
    def is_maximal(self) -> bool:
        return self.gcd_value == 1


def _validate_shifts(D, N: int) -> tuple[int, ...]:
    D = tuple(int(d) for d in D)
    if not D:
        raise BadShifts("empty shift tuple")
    if D[0] < 0 or any(a >= b for a, b in zip(D, D[1:])):
        raise BadShifts(f"shifts {D} not strictly increasing and nonnegative")
    if D[-1] >= N:
        raise BadShifts(f"largest shift {D[-1]} leaves no window in length {N}")
    return D


def correlation_for_shifts(seq: BitSequence, D) -> tuple[int, int]:
    """Inner maximization over M for a fixed shift tuple D.

    Returns (max_M |P_M|, smallest maximizing M) where P_M is the signed
    prefix sum of the k-fold products.  P_M = W[d_1+M] - W[d_1] on the walk W
    of the pattern D - d_1.
    """
    N = seq.length
    D = _validate_shifts(D, N)
    d1 = D[0]
    W = _pattern_walk(seq.signs(), tuple(d - d1 for d in D[1:]))
    P = np.abs(W[d1 + 1 : N - D[-1] + d1 + 1] - W[d1])
    value = int(P.max())
    best_m = int(np.argmax(P)) + 1
    return value, best_m


def _pattern_walk(x: np.ndarray, rest: tuple[int, ...]) -> np.ndarray:
    """Prefix-sum walk P_0..P_L of products over the pattern (0, *rest)."""
    N = x.size
    dk = rest[-1] if rest else 0
    L = N - dk
    T = x[:L].copy()
    for d in rest:
        T *= x[d : d + L]
    out = np.empty(L + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(T, out=out[1:])
    return out


def _lex_smallest_window(P: np.ndarray, v: int) -> tuple[int, int] | None:
    """Smallest (a, b), a < b, with |P_b - P_a| = v, given v = max spread of P."""
    pmin = int(P.min())
    pmax = int(P.max())
    if pmax - pmin != v:
        return None
    lows = np.flatnonzero(P == pmin)
    highs = np.flatnonzero(P == pmax)
    cands = []
    for starts, ends in ((lows, highs), (highs, lows)):
        pos = np.searchsorted(ends, starts[0], side="right")
        if pos < ends.size:
            cands.append((int(starts[0]), int(ends[pos])))
        # a later start can only beat the first on b, never on a
    return min(cands) if cands else None


def correlation_measure_exact(
    seq: BitSequence, k: int, budget: int = DEFAULT_BUDGET
) -> CorrelationReport:
    """Exhaustive correlation measure of order k with the maximizing witness.

    Ties are broken by the lexicographically smallest (D, M), so the result is
    independent of enumeration order.
    """
    N = seq.length
    if not 1 <= k <= N:
        raise ParameterError(f"order k={k} outside 1..{N}")
    estimate = math.comb(N, k) * N
    if estimate > budget:
        raise BudgetExceeded(estimate, budget)
    x = seq.signs()

    best = 0
    attaining: list[tuple[int, ...]] = []
    if k == 1:
        P = _pattern_walk(x, ())
        best = int(P.max() - P.min())
        attaining = [()]
    else:
        # path[j] holds the shift at pattern position j for the node being
        # expanded and its ancestors.  A node's product is kept only over the
        # N - d - todo steps a descendant can use.  x_ext is x zero-padded, so
        # each cumsum row's tail beyond its valid window is flat and cannot move
        # the spread; P_0 = 0 is folded in by clamping the extrema at 0.
        x_ext = np.concatenate([x, np.zeros(N, dtype=np.int64)])
        windows = np.lib.stride_tricks.sliding_window_view(x_ext, N)
        path = [0] * (k - 1)
        stack = [(0, 0, np.ones(N, dtype=np.int64))]  # (position, shift, parent's product)
        while stack:
            j, d, prod = stack.pop()
            todo = k - 1 - j
            if N - d - todo < best:
                continue
            path[j] = d
            if todo > 1 and N - d - todo == best:
                # only the consecutive completion d+1..d+todo can tie best
                tail = np.lib.stride_tricks.sliding_window_view(x, todo + 1)[d : d + best]
                walk = np.cumsum(prod[:best] * tail.prod(axis=1))
                if max(int(walk.max()), 0) - min(int(walk.min()), 0) == best:
                    attaining.append((*path[1 : j + 1], *range(d + 1, d + todo + 1)))
                continue
            prod = prod[: N - d - todo] * x[d : N - todo]
            if todo > 1:
                # pushed in reverse, so the smallest shift is expanded first
                stack.extend((j + 1, c, prod) for c in range(N - todo, d, -1))
                continue
            lo = d + 1
            walks = np.cumsum(prod * windows[lo : min(N, N + 1 - best), : N - lo], axis=1)
            spreads = np.maximum(walks.max(axis=1), 0) - np.minimum(walks.min(axis=1), 0)
            v = int(spreads.max())
            if v < best:
                continue
            if v > best:
                best = v
                attaining = []
            attaining.extend((*path[1:], lo + int(r)) for r in np.flatnonzero(spreads == v))

    witness = None
    for rest in attaining:
        pattern = (0, *rest)
        if witness is not None and pattern > witness[0]:
            continue  # its every D is pattern + a >= pattern > witness D
        ab = _lex_smallest_window(_pattern_walk(x, rest), best)
        if ab is None:
            continue
        a, b = ab
        cand = (tuple(a + d for d in pattern), b - a)
        if witness is None or cand < witness:
            witness = cand
    if witness is None:
        raise InvariantViolation(f"no (D, M) attains the computed C_{k} = {best}")
    return CorrelationReport(
        k=k, value=best, witness_D=witness[0], witness_M=witness[1], exhaustive=True
    )


def correlation_measure_sampled(
    seq: BitSequence, k: int, samples: int, rng_seed: int
) -> CorrelationReport:
    """Lower bound on C_k from randomly sampled shift tuples (exact inner pass).

    Deterministic for a fixed seed; when `samples` covers the whole tuple
    space the tuples are enumerated instead of drawn, so the value matches the
    exhaustive measure (the report still carries exhaustive=False).
    """
    N = seq.length
    if not 1 <= k <= N:
        raise ParameterError(f"order k={k} outside 1..{N}")
    if samples < 1:
        raise ParameterError("samples must be >= 1")

    total = math.comb(N, k)
    if samples >= total:
        tuples = combinations(range(N), k)
    else:
        rng = np.random.default_rng(rng_seed)
        tuples = (
            tuple(sorted(int(d) for d in rng.choice(N, size=k, replace=False)))
            for _ in range(samples)
        )

    best = None
    for D in tuples:
        value, m = correlation_for_shifts(seq, D)
        cand = (-value, D, m)
        if best is None or cand < best:
            best = cand
    value, D, m = -best[0], best[1], best[2]
    return CorrelationReport(k=k, value=value, witness_D=D, witness_M=m, exhaustive=False)


def periodic_autocorrelation(seq: BitSequence, t: int) -> int:
    """A(t) = sum over one period of (-1)**(s_n + s_{n+t mod T})."""
    T = seq.period
    if T is None:
        raise NoPeriod("periodic autocorrelation needs a declared period")
    if seq.length < T:
        raise ParameterError(f"need at least one full period ({T} bits), have {seq.length}")
    if not 1 <= t <= T - 1:
        raise ParameterError(f"shift t={t} outside 1..{T - 1}")
    x = seq.signs()[:T]
    return int(np.dot(x, np.roll(x, -t)))


def berlekamp_massey_profile(seq: BitSequence) -> ComplexityProfile:
    """N-th linear complexity over GF(2) for every prefix, by Berlekamp-Massey.

    Conventions: an all-zero prefix has complexity 0; a prefix 0...01 has
    complexity equal to its length.
    """
    # C and B are bitmasks (bit i = coefficient of x**i); bit i of hist is s_{n-i}.
    C = B = 1
    L = 0
    m = 1
    hist = 0
    values = []
    for n, bit in enumerate(seq.bits.tolist()):
        hist = (hist << 1) | bit
        if (C & hist & ((1 << (L + 1)) - 1)).bit_count() & 1:
            prev, C = C, C ^ (B << m)
            if 2 * L <= n:
                L, B, m = n + 1 - L, prev, 0
        m += 1
        values.append(L)
    return ComplexityProfile(kind="linear", values=tuple(values))


class _SuffixAutomaton:
    """Online suffix automaton over the alphabet {0, 1}."""

    def __init__(self):
        self.next: list[dict[int, int]] = [{}]
        self.link: list[int] = [-1]
        self.length: list[int] = [0]
        self.last: int = 0

    def extend(self, c: int) -> None:
        cur = len(self.next)
        self.next.append({})
        self.length.append(self.length[self.last] + 1)
        self.link.append(0)

        p = self.last
        while p >= 0 and c not in self.next[p]:
            self.next[p][c] = cur
            p = self.link[p]
        if p == -1:
            self.link[cur] = 0
        else:
            q = self.next[p][c]
            if self.length[p] + 1 == self.length[q]:
                self.link[cur] = q
            else:
                clone = len(self.next)
                self.next.append(self.next[q].copy())
                self.length.append(self.length[p] + 1)
                self.link.append(self.link[q])
                while p >= 0 and self.next[p].get(c) == q:
                    self.next[p][c] = clone
                    p = self.link[p]
                self.link[q] = self.link[cur] = clone
        self.last = cur


def max_order_complexity_profile(seq: BitSequence) -> ComplexityProfile:
    """Maximum order complexity M(S, N') for every prefix, incrementally.

    M(S, N) is the smallest window length M such that equal M-bit windows in
    the prefix always share their successor bit (any window map is realizable
    as a polynomial over GF(2), so this matches the polynomial definition).
    Equivalently M = 1 + length of the longest factor w such that both w0 and
    w1 occur.  Appending bit c can only create conflicts between the suffix w
    of the old prefix and an old occurrence of w followed by 1-c; the deepest
    suffix-chain state with a (1-c)-transition gives the longest such w.
    M(S, N') = 0 for N' <= 1 (no constraint pairs exist).
    """
    N = seq.length
    if N < 2:
        raise ParameterError("need N >= 2")
    bits = [int(b) for b in seq.bits]
    sa = _SuffixAutomaton()
    sa.extend(bits[0])
    conflict = -1  # length of the longest conflicting factor seen; -1 = none
    values = [0]
    for n in range(1, N):
        c = bits[n]
        d = 1 - c
        q = sa.last
        while q != -1 and d not in sa.next[q]:
            q = sa.link[q]
        if q != -1:
            conflict = max(conflict, sa.length[q])
        sa.extend(c)
        values.append(max(1, conflict + 1))
    return ComplexityProfile(kind="maxorder", values=tuple(values))


def max_order_complexity_naive(seq: BitSequence, cap: int = MOC_NAIVE_CAP) -> ComplexityProfile:
    """Independent oracle: per prefix, test each window length M ascending."""
    N = seq.length
    if N < 2:
        raise ParameterError("need N >= 2")
    if N > cap:
        raise CapExceeded(N, cap)
    b = bytes(int(x) for x in seq.bits)
    values = [0]
    for np_ in range(2, N + 1):
        for M in range(1, np_):
            succ: dict[bytes, int] = {}
            ok = True
            for i in range(np_ - M):
                w = b[i : i + M]
                prev = succ.get(w)
                if prev is None:
                    succ[w] = b[i + M]
                elif prev != b[i + M]:
                    ok = False
                    break
            if ok:
                values.append(M)
                break
    return ComplexityProfile(kind="maxorder", values=tuple(values))


def two_adic_complexity(seq: BitSequence) -> TwoAdicReport:
    """Full-period 2-adic complexity via gcd(S(2), 2**T - 1)."""
    T = seq.period
    if T is None:
        raise NoPeriod("2-adic complexity needs a declared period")
    if T > TWO_ADIC_CAP:
        raise CapExceeded(T, TWO_ADIC_CAP)
    if seq.length < T:
        raise ParameterError(f"need at least one full period ({T} bits), have {seq.length}")
    s2 = int.from_bytes(np.packbits(seq.bits[:T], bitorder="little").tobytes(), "little")
    modulus = (1 << T) - 1
    g = math.gcd(s2, modulus)
    return TwoAdicReport(
        period=T,
        numerator=s2,
        modulus=modulus,
        gcd_value=g,
        complexity=math.log2(modulus // g) if modulus > g else 0.0,
    )
