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
not nest N levels deep.  The walk works on packed bits.  Row s packs bits
s..s+N-1 of the word, zero past its end, so a pattern's sign product is the
XOR of its shifts' rows; a head's product is a Python int, its parent's XOR
one row.  A walk is read 8 steps per lookup: three 9 x 256 tables, built once
at import, give for each byte and each count of valid leading steps the sum,
the max prefix and the min prefix, and a row's cells carry their byte's count
of valid steps beside the byte.

A pattern with last shift d_k has N - d_k walk steps, so its spread is at
most N - d_k.  Two cuts follow from that bound and the running best: a branch
at shift d with r shifts still to place (d_k included) is cut once
N - d - r < best, and a head keeps only the rows with d_k <= N - best.  Both
cuts compare strictly, so every pattern that ties the final maximum is still
evaluated and the lexicographically smallest witness does not depend on them.
A branch with N - d - r = best can only tie, and only through its one
completion with d_k = d + r, the consecutive shifts d+1..d+r; that pattern is
checked directly (its best steps must share one sign) instead of expanding
the branch.

The (d_{k-1}, d_k) rows of consecutive heads are evaluated together, in
blocks of at most _BLOCK_CELLS row bytes; a head's rows are split across
blocks where they do not fit.  Each block gathers its rows from one packed
copy of the word (the 8-bit window at each of about 2N positions), so a call
needs O(N + _BLOCK_CELLS) memory.  The running best rises only when
a block is evaluated, and the cuts are re-read after each block.  A cut made
against an older, lower best evaluates more patterns but never drops one
that attains the final maximum.  While best is still the trivial 1, each head
is evaluated at once, so the cuts start from a real maximum.  At small N a
block has many more rows than cells per row (8 at N = 60, 63 at N = 499), and
numpy loops once per row along short rows, so `_spreads` reads such a block
cell-major: cell j of every row forms one slab, each walk's value before each
cell is a doubling prefix sum over the slabs, and max and min reduce across
them.  A block of rows at least as long as it is tall, from N of about 1000
up, keeps one cumsum per row.

Every other walk runs on one int8 kernel, `_walks`, over one padded copy of
the word's signs: the sampled measure's draws, in blocks of at most
8 * _BLOCK_CELLS steps, through `_walk_maxima`; and the exact witness pass,
which walks every attaining pattern (0, d_2, ..., d_k) the search hands back
over its N - d_k steps, k = 1 included: its one pattern (0,) has no search,
and its walk's spread is C_1.  A walk whose spread differs from the search's
is an InvariantViolation (exit 4).  A window attains a pattern's spread only
between a minimum and a maximum of its walk, so the smallest such window
(a, b) is the first minimum and the first maximum in order, which `argmin`
and `argmax` return.  Memory is O(N) plus the block.  The sampled measure
draws a block's shift tuples together, by Floyd's algorithm over every row at
once (`_draw_subsets`), whose rows x N mask is no bigger than the block's walk.

The budget is an upfront refusal in one unit, window evaluations: the exact
search is charged its nominal count binom(N, k) * N, not the walk steps it
evaluates, and the sampled measure min(samples, binom(N, k)) * N (`_charge`).
A charge is never computed in full to be refused: binom(N, k) >= (N/j)**j,
j = min(k, N - k), so a charge whose bound passes both 2**4096 and the budget
is refused from the bound alone, and samples below the bound charge
samples * N without binom.

The maximum order complexity profile comes from an online suffix automaton
(`max_order_complexity_profile`).  Its final value alone, M(N) = 1 + the length
of the longest factor w followed by both bits, is a longest-common-prefix
question, and the longest common prefix always shows up between two neighbours
in sorted order (Manber and Myers, SIAM J. Comput. 22, 1993), so
`max_order_complexity` answers it with one plain sort over one period.

A word of period T keeps bits[n] = bits[n - T] (`BitSequence.create` checks it,
the constructions tile their core), so only the positions i < K = min(N, T) are
sorted: an occurrence of w0 or w1 at i >= T also occurs at i - T, and two
positions congruent mod T are followed by the same bits, so they never
conflict.  Position i gets a 64-bit key: its code, bits i..i+56 MSB first and
zero past the word, in the top 57 bits, and in the low 7 how many of those are
real: 64, "full", at the first F = min(K, N - 56) positions, and the length
r = N - i <= 56 at the at most 56 truncated positions after them, whose low
bits are zero before r goes in.  A full key's bits 0..5 keep word bits past its
code; they are never read, since keys whose XOR is below 128 have equal codes,
which is no conflict.  So a truncated key sorts before every full key of its
code and after the shorter truncated ones, and equals no other key:
searchsorted finds its slot.  A periodic word with N >= T + 56, every N = 2p
word among them, has no truncated slot.  A neighbour pair with
x = key_a ^ key_b >= 128 shares 64 - bit_length(x) leading bits; it is a
conflict when both suffixes still have a real bit where they differ: always for
two full slots, else when x >> (64 - r) != 0 for the fewer real bits r of the
two, which is testing it against each truncated slot's own r, since bits that
agree within the larger r agree within the smaller.  M - 1 is the longest such
shared prefix, or 0 without a conflict.  Exact while the longest conflict w has
l <= 56 bits, seen as w0 at i and w1 at j: every suffix sorting between i and j
shares w, and has a real bit at l, since one that ends inside w or right after
it has the least code with its prefix and, by its length, sorts before i; so
some neighbour pair steps from 0 to 1 at l, and every conflicting pair is a
real conflict.  Conflicts are closed under suffixes, so a shared prefix of 56
bits means the longest conflict has 56 bits or more, which the codes cannot
tell apart: such words, eventually periodic ones with long periods among them,
take the automaton's final value.  So do words shorter than _MOC_SORT_MIN bits,
on which the automaton is cheaper than the sort's fixed cost.  The sort peaks
near 16.3 bytes per sorted position: two arrays of K uint64, the keys and their
neighbours' XORs, beside the packed word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SHOWN_BITS, BudgetExceeded, CapExceeded, InvariantViolation, ParameterError
from .seqgen import BitSequence

DEFAULT_BUDGET = 10**9
# Not a cost cap: the gcd takes 16 ms at T = 100003.  It keeps the record
# printable: past T = 14 284 bits, S2 and 2**T - 1 exceed Python's 4300-digit
# int-to-str limit, and writing the record ends in a ValueError.
TWO_ADIC_CAP = 10000


@dataclass(frozen=True)
class CorrelationReport:
    value: int
    witness_D: tuple[int, ...]
    witness_M: int
    exhaustive: bool


@dataclass(frozen=True)
class ComplexityProfile:
    """Per-prefix complexity values; values[i] is the value at prefix length i+1.

    A linear profile also carries BM's final connection polynomial
    C(x) = 1 + c_1 x + ... + c_L x**L as a bitmask (bit i = c_i).
    """

    values: tuple[int, ...]
    connection: int | None = None

    @property
    def final(self) -> int:
        return self.values[-1]


@dataclass(frozen=True)
class TwoAdicReport:
    numerator: int  # S(2) = sum s_n 2**n over one period
    modulus: int  # 2**T - 1
    gcd_value: int
    complexity: float  # log2(modulus / gcd)

    @property
    def is_maximal(self) -> bool:
        return self.gcd_value == 1


def _step_rows(bits: np.ndarray) -> np.ndarray:
    """(N, N) int8 view whose row d holds the signs (-1)**s_{d+n}, zero past the
    word, over one padded copy of it: row d is x[d : d + N]."""
    N = bits.size
    x = np.zeros(2 * N - 1, dtype=np.int8)
    x[:N] = 1 - 2 * bits.astype(np.int8)
    return np.ndarray((N, N), np.int8, x, 0, (1, 1))


def _walks(rows: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Int32 walk P_0 = 0, ..., P_L of prod_i (-1)**s_{n+d_i} for each row D of
    the (r, k) shift array, over the L columns of the `_step_rows` view `rows`.

    A tuple's step product is the product of its shifts' step rows; past
    N - d_k the d_k row is zero, so P stays at P_{N-d_k}.  The rows are
    gathered a group of shifts at a time, at most 8 * _BLOCK_CELLS steps per
    gather (a cell of the exact search packs 8 steps).
    """
    r, k = shifts.shape
    per = max(1, 8 * _BLOCK_CELLS // (r * rows.shape[1]))
    steps = rows[shifts[:, :per]].prod(axis=1, dtype=np.int8)
    for j in range(per, k, per):
        steps *= rows[shifts[:, j : j + per]].prod(axis=1, dtype=np.int8)
    walk = np.zeros((r, rows.shape[1] + 1), dtype=np.int32)
    np.add.accumulate(steps, axis=1, dtype=np.int32, out=walk[:, 1:])
    return walk


def _walk_maxima(rows: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row D of the (r, k) shift array: max_M |P_M| and the smallest
    M attaining it, over the walks of `_walks` (|P_1| = 1, so M >= 1)."""
    walk = _walks(rows, shifts)
    np.abs(walk, out=walk)
    return walk.max(axis=1), walk.argmax(axis=1)


def _block_rows(N: int) -> int:
    """Rows of N steps in one sampled block, at most 8 * _BLOCK_CELLS steps."""
    return max(1, 8 * _BLOCK_CELLS // N)


def _draw_subsets(rng: np.random.Generator, N: int, k: int, n: int) -> np.ndarray:
    """(n, k) int64 array of n uniform k-subsets of 0..N-1, each row sorted.

    Floyd's algorithm (Bentley and Floyd, CACM 30(9), 1987) on a chunk of rows
    at once: for j = N-k..N-1, one rng.integers(0, j + 1) call picks t for every
    row, and a row that already holds t takes j instead.  A rows x N bool mask
    answers the membership test.  A chunk holds at most a sampled block's rows,
    so the mask is never bigger than a block's walk, whatever n.
    """
    out = np.empty((n, k), dtype=np.int64)
    per = _block_rows(N)
    for lo in range(0, n, per):
        chunk = out[lo : lo + per]
        m = len(chunk)
        base = np.arange(m) * N  # row i's mask starts at i * N of the flat mask
        taken = np.zeros(m * N, dtype=bool)
        for c, j in enumerate(range(N - k, N)):
            t = rng.integers(0, j + 1, size=m)
            t[taken[base + t]] = j
            taken[base + t] = True
            chunk[:, c] = t
    out.sort(axis=1)
    return out


def _prefix_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(9, 256) tables over a byte read as 8 walk steps (-1)**bit, low bit first.

    Entry [c, b] covers the first c steps of byte b: their sum, and the max and
    min of the walk over them, the empty prefix (0) included.
    """
    steps = 1 - 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1)
    walk = np.concatenate([np.zeros((256, 1), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1)
    tables = (walk, np.maximum.accumulate(walk, axis=1), np.minimum.accumulate(walk, axis=1))
    return tuple(np.ascontiguousarray(t.T, dtype=np.int8) for t in tables)


_PREFIX_SUM, _PREFIX_MAX, _PREFIX_MIN = _prefix_tables()
# Cells (row bytes) per evaluated block: bounds the memory a block adds to the
# packed word and how long the cuts go stale between updates of the best.  The
# sampled measure draws each block's rows together, so changing this changes
# its seeded values: SAMPLED_DRAW, part of their cache identity, must change too.
_BLOCK_CELLS = 1 << 14
# The sampled measure's draw scheme, a param of its cached records: a record
# drawn under another scheme is never served.
SAMPLED_DRAW = "floyd"
# Shortest word whose final MOC is read off the sorted window codes.  Automaton
# vs sort in us (medians of 15 interleaved rounds over 50 words; 2 shared cores,
# Python 3.11.7, numpy 2.4.6): random words, N = 48: 24.4 vs 23.4, 56: 27.5 vs
# 23.2, 64: 43.8 vs 37.2; N = T with period T, 48: 27.5 vs 27.6, 56: 27.8 vs
# 23.3, 64: 31.7 vs 24.2; N = 2T, 48: 22.1 vs 24.2, 56: 22.8 vs 22.2, 64: 26.2
# vs 22.0, and 112, the first with no truncated slot: 41.9 vs 13.3.  Repeated
# runs cross between 48 and 60, each side ahead at 56 in some; from 64 on the
# sort leads in every shape.
_MOC_SORT_MIN = 64


def _bits_to_int(bits: np.ndarray) -> int:
    """The 0/1 array as a Python int whose bit n is bits[n]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _packed_rows(bits: np.ndarray) -> np.ndarray:
    """Row s, s < N: bits s..s+N-1 packed little-endian, zero past the word, as
    an (N, ceil(N / 8)) view over one array of windows.

    Each uint16 cell holds one byte of the row in its low half and, in its high
    half, how many of that byte's steps a pattern whose last shift is s has
    (N - s - 8j for byte j, clipped to 0..8), so a cell is its own index into
    the flattened prefix tables.  Both halves depend on s + 8j alone, so cell
    [s, j] is entry s + 8j of one array: the byte of bits i..i+7 at entry i.
    That byte is read off the packed word: bytes q and q + 1 of it, i = 8q + r,
    as one uint16 shifted down by r.
    """
    N = bits.size
    nb = -(-N // 8)
    # the packed word, zero past it: entry s + 8j < N + 8 nb <= 16 nb reads byte
    # (s + 8j) // 8 + 1 at most, so 2 nb + 1 bytes cover every cell
    packed = np.zeros(2 * nb + 1, dtype=np.uint16)
    packed[:nb] = np.packbits(bits, bitorder="little")
    packed[:-1] |= packed[1:] << 8
    windows = (packed[:-1, None] >> np.arange(8, dtype=np.uint16) & 0xFF).ravel()
    # steps: 8 at each entry i < N, but N - i for the last seven
    windows[:N] |= 8 << 8
    tail = min(N, 7)
    windows[N - tail : N] -= np.arange(8 - tail, 8, dtype=np.uint16) << 8
    # an ndarray over the buffer, which checks the view's bounds
    return np.ndarray((N, nb), np.uint16, windows, 0, (2, 16))  # [s, j] = windows[s + 8j]


def _spreads(cells: np.ndarray) -> np.ndarray:
    """Walk spread of each row of flat table indices (valid steps << 8 | byte).

    A block of more rows than cells per row is read cell-major, one slab per
    cell.  Its walks and spreads stay within 8n for n cells per row, so the
    doubling prefix is int16 while 8n < 2**15.  Other blocks keep one int32
    cumsum per row: on long rows it beats log2(n) doubling passes.
    """
    rows, n = cells.shape
    if rows <= n:
        axis = 1
        steps = _PREFIX_SUM.take(cells)
        ends = np.cumsum(steps, axis=1, dtype=np.int32)
    else:
        axis = 0
        cells = np.ascontiguousarray(cells.T)
        steps = _PREFIX_SUM.take(cells)
        ends = steps.astype(np.int16 if 8 * n < 1 << 15 else np.int32)
        s = 1
        while s < n:  # ends[j] sums slabs j - 2s + 1 .. j after the pass at s
            ends[s:] = ends[s:] + ends[:-s]
            s *= 2
    ends -= steps  # the walk's value before each byte
    high = (ends + _PREFIX_MAX.take(cells)).max(axis=axis)
    return high - (ends + _PREFIX_MIN.take(cells)).min(axis=axis)


def _search_patterns(bits: np.ndarray, k: int) -> tuple[int, list[tuple[int, ...]]]:
    """Max spread over the patterns (0, d_2, ..., d_k) of k >= 2 shifts, and
    every pattern that attains it."""
    N = bits.size
    R = _packed_rows(bits)
    nb = R.shape[1]
    word = _bits_to_int(bits)
    parity = np.zeros(N + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(bits, out=parity[1:])
    # bit n of prefix >> a ^ prefix >> (b + 1) is the parity of bits n+a..n+b
    prefix = _bits_to_int(parity)

    # one step alone sums to +-1, so every pattern's spread is at least 1
    best = 1
    attaining: list[tuple[int, ...]] = []
    block: list[tuple[int, tuple[int, ...], int, int]] = []  # (product, head, first d_k, rows)
    cells = 0

    def evaluate_block():
        nonlocal best, attaining, cells
        prods, heads, firsts, sizes = zip(*block)
        sizes = np.array(sizes)
        starts = sizes.cumsum() - sizes
        last = np.arange(cells // nb) + (np.array(firsts) - starts).repeat(sizes)
        rows = R[last]
        rows ^= np.frombuffer(
            b"".join(p.to_bytes(nb, "little") * n for p, n in zip(prods, sizes.tolist())),
            dtype=np.uint8,
        ).reshape(rows.shape)
        spreads = _spreads(rows)
        block.clear()
        cells = 0
        v = int(spreads.max())
        if v < best:
            return
        if v > best:
            best = v
            attaining = []
        hits = np.flatnonzero(spreads == v)
        owners = starts.searchsorted(hits, side="right") - 1
        attaining.extend((*heads[h], d) for h, d in zip(owners.tolist(), last[hits].tolist()))

    # path[j] holds the shift at pattern position j for the node being expanded
    # and its ancestors.  A node's product is the XOR of its shifts' rows, as a
    # Python int whose bit n is step n.
    path = [0] * (k - 1)
    stack = [(0, 0, 0)]  # (position, shift, parent's product)
    while stack:
        j, d, prod = stack.pop()
        todo = k - 1 - j
        if N - d - todo < best:
            continue
        if todo > 1 and N - d - todo == best:
            # only the consecutive completion d+1..d+todo can tie best, and only
            # if its best steps all have one sign
            mask = (1 << best) - 1
            v = (prod ^ (prefix >> d) ^ (prefix >> (d + todo + 1))) & mask
            if v == 0 or v == mask:
                attaining.append((*path[:j], *range(d, d + todo + 1)))
            continue
        path[j] = d
        prod ^= word >> d
        if todo > 1:
            # pushed in reverse, so the smallest shift is expanded first; a
            # child past N - todo + 1 - best is cut before it is pushed
            stack.extend((j + 1, c, prod) for c in range(N - todo + 1 - best, d, -1))
            continue
        # a head: its rows d_k = d+1..N-best join the block, which is
        # evaluated once it is full, or at once while best is the trivial 1 so
        # that the cuts start from a real maximum; the cut is re-read after each
        head = tuple(path)
        first = d + 1
        while first <= N - best:
            n = min(N - best + 1 - first, max(1, (_BLOCK_CELLS - cells) // nb))
            block.append((prod, head, first, n))
            cells += n * nb
            first += n
            if cells + nb > _BLOCK_CELLS or best == 1:
                evaluate_block()
    if block:
        evaluate_block()
    return best, attaining


def _charge(N: int, k: int, budget: int, hint: str = "use the sampled variant",
            samples: int | None = None) -> bool:
    """Charge comb(N, k) * N window evaluations, 1 <= k <= N, or with samples
    min(samples, comb(N, k)) * N, against budget: BudgetExceeded past it.  True
    when the samples cover every tuple, samples >= comb(N, k).

    comb(N, k) >= (N/j)**j >= 2**b, j = min(k, N - k), so comb is computed only
    when it is needed: samples < 2**b charge samples * N, and a charge whose
    bound 2**b * N alone passes both 2**SHOWN_BITS and the budget is refused as
    at least that bound (math.comb(10**20, 10**5) alone takes seconds).  Below
    that the estimate is exact.
    """
    j = min(k, N - k)
    x = j * (math.log2(N) - math.log2(j)) if j else 0.0
    b = max(0, math.floor(x - x / 2**20) - 1)  # 2**-20 of x and a bit spare cover rounding
    if samples is not None and samples.bit_length() <= b:  # samples < 2**b <= comb(N, k)
        tuples, covered = samples, False
    else:
        low = b + N.bit_length() - 1  # 2**low <= 2**b * N
        if low >= SHOWN_BITS and budget.bit_length() <= low:
            raise BudgetExceeded(1 << low, budget, hint)
        tuples = math.comb(N, k)
        covered = samples is not None and samples >= tuples
        if samples is not None:
            tuples = min(samples, tuples)
    if tuples * N > budget:
        raise BudgetExceeded(tuples * N, budget, hint)
    return covered


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
    _charge(N, k, budget)
    rows = _step_rows(seq.bits)
    # k = 1 has the one pattern (0,), whose walk's spread is C_1
    best, attaining = _search_patterns(seq.bits, k) if k > 1 else (None, [(0,)])
    witness = None
    for pattern in attaining:
        if witness is not None and pattern > witness[0]:
            continue  # its every D is pattern + a >= pattern > witness D
        # P_0..P_{N-d_k}: only the first N - d_k step columns are gathered
        P = _walks(rows[:, : N - pattern[-1]], np.array([pattern]))[0]
        spread = int(np.ptp(P))
        if best is None:
            best = spread
        elif spread != best:
            raise InvariantViolation(f"pattern {pattern} walks to spread {spread}, "
                                     f"where the search read C_{k} = {best}")
        a, b = sorted((int(P.argmin()), int(P.argmax())))
        cand = (tuple(a + d for d in pattern), b - a)
        if witness is None or cand < witness:
            witness = cand
    if witness is None:
        raise InvariantViolation(f"no (D, M) attains the computed C_{k} = {best}")
    return CorrelationReport(value=best, witness_D=witness[0], witness_M=witness[1], exhaustive=True)


def correlation_measure_sampled(
    seq: BitSequence, k: int, samples: int, rng_seed: int, budget: int = DEFAULT_BUDGET
) -> CorrelationReport:
    """Lower bound on C_k from randomly sampled shift tuples (exact inner pass).

    Deterministic for a fixed seed: the samples are drawn and walked a block
    of rows at a time, each block's rows by one `_draw_subsets` call (the
    SAMPLED_DRAW scheme) and its walks by one `_walk_maxima` call, and the best
    (value, lexicographically smallest D, M) wins.  The budget charges
    min(samples, binom(N, k)) * N, in the exact search's unit, before any draw.
    When `samples` covers the whole tuple space (samples >= binom(N, k))
    nothing is drawn: the exact measure runs and its value and witness are
    returned with exhaustive=False.
    """
    N = seq.length
    if not 1 <= k <= N:
        raise ParameterError(f"order k={k} outside 1..{N}")
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if rng_seed < 0:
        raise ParameterError(f"seed must be >= 0; got {rng_seed}")

    if _charge(N, k, budget, "lower --sampled or raise --budget", samples):
        return replace(correlation_measure_exact(seq, k, budget=budget), exhaustive=False)

    rng = np.random.default_rng(rng_seed)
    rows = _step_rows(seq.bits)
    per_block = _block_rows(N)
    best = None
    for start in range(0, samples, per_block):
        D = _draw_subsets(rng, N, k, min(per_block, samples - start))
        values, ms = _walk_maxima(rows, D)
        tied = np.flatnonzero(values == values.max())
        i = tied[np.lexsort(D[tied].T[::-1])[0]]
        cand = (-int(values[i]), tuple(D[i].tolist()), int(ms[i]))
        if best is None or cand < best:
            best = cand
    value, D, m = -best[0], best[1], best[2]
    return CorrelationReport(value=value, witness_D=D, witness_M=m, exhaustive=False)


def _one_period(seq: BitSequence, measure: str) -> np.ndarray:
    """The first T bits of a word of declared period T; ParameterError without
    one, or with fewer than T bits."""
    T = seq.period
    if T is None:
        raise ParameterError(f"{measure} needs a declared period")
    if seq.length < T:
        raise ParameterError(f"need at least one full period ({T} bits), have {seq.length}")
    return seq.bits[:T]


def _period_signs(seq: BitSequence) -> np.ndarray:
    """(-1)**s_n over one declared period."""
    return 1 - 2 * _one_period(seq, "periodic autocorrelation").astype(np.int64)


def periodic_autocorrelation(seq: BitSequence, t: int) -> int:
    """A(t) = sum over one period of (-1)**(s_n + s_{n+t mod T})."""
    x = _period_signs(seq)
    if not 1 <= t <= len(x) - 1:
        raise ParameterError(f"shift t={t} outside 1..{len(x) - 1}")
    return int(np.dot(x, np.roll(x, -t)))


def periodic_autocorrelations(seq: BitSequence) -> np.ndarray:
    """A(t) for every t = 1..T-1 (entry t - 1), as one integer correlation of a
    period against the period doubled."""
    x = _period_signs(seq)
    return np.correlate(np.concatenate([x, x[:-1]]), x, "valid")[1:]


def berlekamp_massey_profile(seq: BitSequence) -> ComplexityProfile:
    """N-th linear complexity over GF(2) for every prefix, by Berlekamp-Massey.

    Conventions: an all-zero prefix has complexity 0; a prefix 0...01 has
    complexity equal to its length.  The returned connection polynomial
    generates the whole word: sum_i c_i s_{n-i} = 0 (mod 2) for n = L..N-1.
    """
    # C and B are bitmasks (bit i = coefficient of x**i); bit i of hist is s_{n-i}.
    # deg C <= L at every step, so C & hist reads no bit past s_{n-L}.
    C = B = 1
    L = 0
    m = 1
    hist = 0
    values = []
    for n, bit in enumerate(seq.bits.tolist()):
        hist = (hist << 1) | bit
        if (C & hist).bit_count() & 1:
            prev, C = C, C ^ (B << m)
            if 2 * L <= n:
                L, B, m = n + 1 - L, prev, 0
        m += 1
        values.append(L)
    return ComplexityProfile(values=tuple(values), connection=C)


def max_order_complexity_profile(seq: BitSequence) -> ComplexityProfile:
    """Maximum order complexity M(S, N') for every prefix, incrementally.

    M(S, N) is the smallest window length M such that equal M-bit windows in
    the prefix always share their successor bit (any window map is realizable
    as a polynomial over GF(2), so this matches the polynomial definition).
    Equivalently M = 1 + length of the longest factor w such that both w0 and
    w1 occur.  M(S, N') = 0 for N' <= 1 (no constraint pairs exist).

    An online suffix automaton lives in four flat int lists of 2N + 1 entries:
    the 0- and 1-transitions (0 = none: no transition enters the root), the
    suffix links and the state lengths.  Appending bit c, the extend walk down
    the old prefix's suffix chain is also the conflict search: the first state
    on it with a (1-c)-transition and no c-transition holds the longest new w.
    Past the walk's stop every state has a c-transition, so a (1-c)-transition
    there marks a w already followed by both bits, counted before.
    """
    N = seq.length
    if N < 2:
        raise ParameterError("need N >= 2")
    size = 2 * N + 1
    trans = ([0] * size, [0] * size)
    link = [-1] * size
    length = [0] * size
    last = 0
    states = 1
    # length of the longest factor followed by both bits, 0 while there is
    # none: M = 1 for a prefix of two or more bits without a conflict
    conflict = 0
    values = []
    for c in seq.bits.tolist():
        tc = trans[c]
        td = trans[1 - c]
        cur = states
        states += 1
        length[cur] = length[last] + 1
        p = last
        while p >= 0 and not tc[p]:
            if td[p] and length[p] > conflict:
                conflict = length[p]
            tc[p] = cur
            p = link[p]
        if p < 0:
            link[cur] = 0
        else:
            q = tc[p]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = states
                states += 1
                trans[0][clone] = trans[0][q]
                trans[1][clone] = trans[1][q]
                length[clone] = length[p] + 1
                link[clone] = link[q]
                while p >= 0 and tc[p] == q:
                    tc[p] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
        values.append(conflict + 1)
    values[0] = 0
    return ComplexityProfile(values=tuple(values))


def max_order_complexity(seq: BitSequence) -> int:
    """M(S, N), the final value of `max_order_complexity_profile`, from one plain
    sort of the 57-bit window codes of one period's positions, each key carrying
    its length (see the module docstring).  Words shorter than _MOC_SORT_MIN
    bits, and words with a conflict of 56 bits or more, take the automaton."""
    N = seq.length
    if N < _MOC_SORT_MIN:
        return max_order_complexity_profile(seq).final
    # one period: positions K.. repeat earlier ones with shorter suffixes
    K = min(N, seq.period or N)
    F = max(0, min(K, N - 56))  # positions 0..F-1 have 57 real bits
    # key[i]'s top 57 bits are bits i..i+56, MSB first and zero past the word:
    # bytes q..q+7 of the packed word as one big-endian uint64, shifted by i - 8q
    Q = -(-K // 8)
    packed = np.zeros(Q + 7, dtype=np.uint8)
    head = np.packbits(seq.bits[: min(N, K + 56)])
    packed[: head.size] = head
    key = np.ndarray((Q, 1), ">u8", packed, 0, (1, 1)).astype(np.uint64)
    key = (key << np.arange(8, dtype=np.uint64)).ravel()[:K]
    # the low 7 bits: 64, "full", or a truncated key's real length N - i <= 56
    key[:F] |= 64
    key[F:] |= np.arange(N - F, N - K, -1, dtype=np.uint64)
    tail = key[F:].copy()
    key.sort()
    # d[j] = key[j - 1] ^ key[j], and 0 for the missing pairs at both ends
    d = np.zeros(K + 1, dtype=np.uint64)
    np.bitwise_xor(key[1:], key[:-1], out=d[1:-1])
    if F < K:
        # a truncated key is unique, so searchsorted finds its slot j; its pairs
        # d[j] and d[j + 1] conflict only if they differ within its r real bits
        pairs = key.searchsorted(tail)[:, None] + np.arange(2)
        cut = 64 - (tail & 63)
        d[pairs[d[pairs] >> cut[:, None] == 0]] = 0
    # d < 128: equal codes, or a pair dropped above; any other d is a conflict
    # of 64 - bit_length(d) bits.  Less 128, the former wrap to the top, so the
    # least d is the longest conflict, unless it wrapped too: no conflict
    d -= 128
    least = int(d.min()) + 128
    if least >> 64:
        return 1
    common = 64 - least.bit_length()
    if common >= 56:  # a conflict past the codes' width may hide behind it
        return max_order_complexity_profile(seq).final
    return common + 1


def two_adic_complexity(seq: BitSequence) -> TwoAdicReport:
    """Full-period 2-adic complexity via gcd(S(2), 2**T - 1)."""
    if seq.period is not None and seq.period > TWO_ADIC_CAP:
        raise CapExceeded(seq.period, TWO_ADIC_CAP)
    s2 = _bits_to_int(_one_period(seq, "2-adic complexity"))
    modulus = (1 << seq.period) - 1
    g = math.gcd(s2, modulus)
    return TwoAdicReport(
        numerator=s2,
        modulus=modulus,
        gcd_value=g,
        complexity=math.log2(modulus // g) if modulus > g else 0.0,
    )
