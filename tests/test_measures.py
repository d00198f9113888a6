import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import measures
from cycloseq.errors import BudgetExceeded, CapExceeded, ParameterError
from cycloseq.measures import (
    ComplexityProfile,
    berlekamp_massey_profile,
    correlation_measure_exact,
    correlation_measure_sampled,
    max_order_complexity,
    max_order_complexity_profile,
    periodic_autocorrelation,
    periodic_autocorrelations,
    two_adic_complexity,
)
from cycloseq.ntheory import SexticParams
from cycloseq.seqgen import BitSequence, dhl_sequence, hall_sequence, legendre_sequence

P13 = SexticParams.create(13, g=2)
P31 = SexticParams.create(31, g=3)
HALL13 = hall_sequence(P13, 13)
HALL31 = hall_sequence(P31, 31)

words = st.lists(st.integers(0, 1), min_size=2, max_size=24).map(BitSequence.create)


# --- independent oracles -----------------------------------------------------


def _signs(seq):
    """(-1)**bits of the whole word as int64."""
    return 1 - 2 * seq.bits.astype(np.int64)


def brute_force_ck(seq, k):
    """Direct (D, M) enumeration straight off the definition."""
    N = seq.length
    x = [1 - 2 * int(b) for b in seq.bits]
    best, bestw = 0, None
    for D in combinations(range(N), k):
        for M in range(1, N - D[-1] + 1):
            s = 0
            for n in range(M):
                t = 1
                for d in D:
                    t *= x[n + d]
                s += t
            a = abs(s)
            if a > best:
                best, bestw = a, (D, M)
            elif a == best and (D, M) < bestw:
                bestw = (D, M)
    return best, bestw


def _ck_reference(seq, k):
    """Exact C_k and its lex-smallest (D, M) by the batched loop the depth-first
    kernel replaced: every head, its product re-multiplied, no pruning."""
    N = seq.length
    x = _signs(seq)
    best, attaining = 0, []
    if k == 1:
        P = np.concatenate([[0], np.cumsum(x)])
        best, attaining = int(P.max() - P.min()), [()]
    else:
        x_ext = np.concatenate([x, np.zeros(N, dtype=np.int64)])
        windows = np.lib.stride_tricks.sliding_window_view(x_ext, N)
        for head in combinations(range(1, N - 1), k - 2):
            base = x_ext[:N].copy()
            for d in head:
                base *= x_ext[d : d + N]
            lo = (head[-1] if head else 0) + 1
            walks = np.cumsum(base[None, :] * windows[lo:N], axis=1)
            spreads = np.maximum(walks.max(axis=1), 0) - np.minimum(walks.min(axis=1), 0)
            v = int(spreads.max())
            if v < best:
                continue
            if v > best:
                best, attaining = v, []
            attaining.extend((*head, lo + int(r)) for r in np.flatnonzero(spreads == v))
    witness = None
    for rest in attaining:
        pattern = (0, *rest)
        L = N - pattern[-1]
        P = np.concatenate([[0], np.cumsum(x[np.add.outer(pattern, np.arange(L))].prod(axis=0))])
        # first (a, b), a < b, in row-major order with |P_b - P_a| = best
        a, b = (int(i) for i in np.argwhere(np.triu(np.abs(P[None, :] - P[:, None]) == best, 1))[0])
        cand = (tuple(a + d for d in pattern), b - a)
        if witness is None or cand < witness:
            witness = cand
    return best, witness


def _lex_smallest_window(P, v):
    """Smallest (a, b), a < b, with |P_b - P_a| = v, given v = max spread of P,
    by the first minimum and maximum and the next opposite extreme after each:
    the search that the first-extremes rule replaced."""
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
    return min(cands) if cands else None


@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=60), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_witness_window_is_the_first_extremes(steps, excess):
    # the exact measure's witness rule: where a walk's spread is the best, its
    # smallest window runs between its first minimum and first maximum, in order
    P = np.concatenate([[0], np.cumsum(steps)]).astype(np.int8)
    v = int(np.ptp(P)) + excess  # excess > 0: a best this walk does not attain
    expected = _lex_smallest_window(P, v)
    if excess:
        assert expected is None
    else:
        assert expected == tuple(sorted((int(P.argmin()), int(P.argmax()))))


def _walk_reference(seq, D):
    """The signed walk P_1, ..., P_{N-d_k} of D by one int64 walk of its own: the
    product of the word's shifted sign slices over N - d_k steps, summed."""
    x = _signs(seq)
    L = seq.length - D[-1]
    T = x[D[0] : D[0] + L].copy()
    for d in D[1:]:
        T *= x[d : d + L]
    return np.cumsum(T)


def _for_shifts_reference(seq, D):
    """(max_M |P_M|, smallest maximizing M) off `_walk_reference`."""
    P = np.abs(_walk_reference(seq, D))
    return int(P.max()), int(np.argmax(P)) + 1


def _floyd_reference(rng, N, k, n):
    """n k-subsets of range(N) by Floyd's algorithm, one row at a time in plain
    Python, fed the same rng.integers(0, j + 1, size=m) arrays the batched
    drawer consumes: for each chunk of m rows (a sampled block's, read off
    measures._BLOCK_CELLS), column j - (N - k) of the draws is every row's pick."""
    per = max(1, 8 * measures._BLOCK_CELLS // N)
    rows = []
    for lo in range(0, n, per):
        m = min(per, n - lo)
        columns = [rng.integers(0, j + 1, size=m).tolist() for j in range(N - k, N)]
        for i in range(m):
            chosen = set()
            for j, column in zip(range(N - k, N), columns):
                t = column[i]
                chosen.add(j if t in chosen else t)
            rows.append(tuple(sorted(chosen)))
    return rows


def _sampled_reference(seq, k, samples, rng_seed):
    """Sampled C_k by the per-tuple loop the batched walk replaced: one walk per
    sample, drawn by the plain Floyd oracle (whose chunks are the kernel's
    blocks), and the exact measure once the samples cover every tuple."""
    N = seq.length
    if samples >= math.comb(N, k):
        rep = correlation_measure_exact(seq, k)
        return rep.value, rep.witness_D, rep.witness_M, False
    best = None
    for D in _floyd_reference(np.random.default_rng(rng_seed), N, k, samples):
        value, m = _for_shifts_reference(seq, D)
        cand = (-value, D, m)
        if best is None or cand < best:
            best = cand
    return -best[0], best[1], best[2], False


@st.composite
def biased_words(draw, max_size):
    """Words whose density of ones is drawn first, so long runs and ties are common."""
    n = draw(st.integers(2, max_size))
    ones = draw(st.integers(0, 8))
    draws = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    return BitSequence.create([int(v < ones) for v in draws])


def naive_linear_complexity(bits):
    """Exhaustive search over all recurrences of each length (N <= 16)."""
    N = len(bits)
    for L in range(N + 1):
        if L == 0:
            if all(b == 0 for b in bits):
                return 0
            continue
        for mask in range(2**L):
            ok = True
            for n in range(N - L):
                pred = 0
                for i in range(L):
                    if (mask >> i) & 1:
                        pred ^= bits[n + i]
                if pred != bits[n + L]:
                    ok = False
                    break
            if ok:
                return L
    return N


def _bm_reference(bits):
    """Berlekamp-Massey over lists of bits, the loop the bit-packed kernel
    replaced: the profile and the final connection polynomial as a bitmask."""
    s = [int(b) for b in bits]
    C = [1]
    B = [1]
    L = 0
    m = 1
    values = []
    for n in range(len(s)):
        d = s[n]
        for i in range(1, min(L, len(C) - 1) + 1):
            d ^= C[i] & s[n - i]
        if d:
            need = m + len(B)
            if len(C) < need:
                C.extend([0] * (need - len(C)))
            if 2 * L <= n:
                prev = C[:]
                for i, bi in enumerate(B):
                    C[m + i] ^= bi
                L = n + 1 - L
                B = prev
                m = 1
            else:
                for i, bi in enumerate(B):
                    C[m + i] ^= bi
                m += 1
        else:
            m += 1
        values.append(L)
    return tuple(values), sum(c << i for i, c in enumerate(C))


def _moc_reference(bits):
    """MOC profile by the dict-per-state suffix automaton the flat-list kernel
    replaced, with its conflict search as a separate walk before each extend."""
    nxt, link, length = [{}], [-1], [0]

    def extend(last, c):
        cur = len(nxt)
        nxt.append({})
        length.append(length[last] + 1)
        link.append(0)
        p = last
        while p >= 0 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p >= 0:
            q = nxt[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(nxt)
                nxt.append(nxt[q].copy())
                length.append(length[p] + 1)
                link.append(link[q])
                while p >= 0 and nxt[p].get(c) == q:
                    nxt[p][c] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        return cur

    s = [int(b) for b in bits]
    last = extend(0, s[0])
    conflict = -1
    values = [0]
    for c in s[1:]:
        q = last
        while q != -1 and 1 - c not in nxt[q]:
            q = link[q]
        if q != -1:
            conflict = max(conflict, length[q])
        last = extend(last, c)
        values.append(max(1, conflict + 1))
    return tuple(values)


MOC_NAIVE_CAP = 4096


def max_order_complexity_naive(seq, cap=MOC_NAIVE_CAP):
    """Independent MOC oracle: per prefix, test each window length M ascending.
    Cubic and more in N, so refused (CapExceeded) past `cap` bits."""
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
    return ComplexityProfile(values=tuple(values))


# --- correlation -------------------------------------------------------------


def _for_shifts(seq, D):
    """(max_M |P_M|, smallest maximizing M) of one shift tuple: one row of
    `_walk_maxima`, the kernel of the sampled measure."""
    values, ms = measures._walk_maxima(measures._step_rows(seq.bits), np.array([D]))
    return int(values[0]), int(ms[0])


def test_for_shifts_examples():
    assert _for_shifts(BitSequence.create([0] * 10), (0,)) == (10, 10)
    assert _for_shifts(BitSequence.create([0, 1] * 5), (0, 1)) == (9, 9)
    # Hall p=13, D=(0): prefix-sum walk 0,1,0,-1,0,1,0,1,2,1,2,3,2,1 peaks at |P_11|=3
    assert _for_shifts(HALL13, (0,)) == (3, 11)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_for_shifts_matches_direct_sums(data):
    # oracle: |sum_{n<M} prod_i x[n+d_i]| for every M, straight off the definition
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    N = len(bits)
    k = data.draw(st.integers(1, min(N, 4)))
    D = tuple(sorted(data.draw(st.sets(st.integers(0, N - 1), min_size=k, max_size=k))))
    x = [1 - 2 * b for b in bits]
    sums = []
    for M in range(1, N - D[-1] + 1):
        sums.append(abs(sum(math.prod(x[n + d] for d in D) for n in range(M))))
    value = max(sums)
    assert _for_shifts(BitSequence.create(bits), D) == (value, sums.index(value) + 1)


def test_c1_hall13_is_4():
    rep = correlation_measure_exact(HALL13, 1)
    assert rep.value == 4
    assert rep.exhaustive
    assert (rep.witness_D, rep.witness_M) == ((3,), 8)


def test_c2_hall31_regression():
    # pinned on first run; frozen regression constant
    rep = correlation_measure_exact(HALL31, 2)
    assert rep.value == 6
    assert (rep.witness_D, rep.witness_M) == ((0, 3), 18)


def test_all_zero_word_ck():
    for n, k in ((10, 1), (10, 2), (8, 3)):
        rep = correlation_measure_exact(BitSequence.create([0] * n), k)
        assert rep.value == n - k + 1
        assert rep.witness_D == tuple(range(k))
        assert rep.witness_M == n - k + 1


def test_witness_satisfies_reported_value():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        k = int(rng.integers(1, 4))
        seq = BitSequence.create(rng.integers(0, 2, size=n, dtype=np.uint8))
        rep = correlation_measure_exact(seq, k)
        x = _signs(seq)
        s = sum(int(np.prod([x[i + d] for d in rep.witness_D])) for i in range(rep.witness_M))
        assert abs(s) == rep.value
        assert rep.witness_M - 1 + rep.witness_D[-1] <= n - 1


@given(words, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_exact_matches_brute_force(seq, k):
    if k > seq.length:
        k = seq.length
    value, witness = brute_force_ck(seq, k)
    rep = correlation_measure_exact(seq, k)
    assert rep.value == value
    assert (rep.witness_D, rep.witness_M) == witness


@given(biased_words(12), st.integers(4, 5))
@settings(max_examples=25, deadline=None)
def test_exact_matches_brute_force_deep_heads(seq, k):
    # k = 4, 5 put two or three shifts in the head, so the depth-first walk
    # and both of its cuts meet the definition
    k = min(k, seq.length)
    rep = correlation_measure_exact(seq, k)
    assert (rep.value, (rep.witness_D, rep.witness_M)) == brute_force_ck(seq, k)


@given(biased_words(28), st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_exact_matches_batched_reference(seq, k):
    k = min(k, seq.length)
    rep = correlation_measure_exact(seq, k)
    assert (rep.value, (rep.witness_D, rep.witness_M)) == _ck_reference(seq, k)


@given(biased_words(40), st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_exact_near_length_matches_batched_reference(seq, j):
    # k = N - j leaves at most j - 1 gaps in a pattern, so branches whose
    # spread bound only ties the best (evaluated as one consecutive
    # completion instead of expanded) are common
    k = max(seq.length - j, 1)
    rep = correlation_measure_exact(seq, k)
    assert (rep.value, (rep.witness_D, rep.witness_M)) == _ck_reference(seq, k)


@st.composite
def byte_edge_words(draw):
    """Biased words of length 8q + r, r in {7, 0, 1}: the last walk byte is
    short by one, full, or holds a single step."""
    n = 8 * draw(st.integers(0, 8)) + draw(st.sampled_from([7, 8, 9]))
    ones = draw(st.integers(0, 8))
    draws = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    return BitSequence.create([int(v < ones) for v in draws])


@given(byte_edge_words(), st.integers(1, 4), st.sampled_from([1, 24]))
@settings(max_examples=80, deadline=None)
def test_exact_matches_batched_reference_small_blocks(seq, k, bound):
    # the minimum bound, one cell, evaluates every row as its own block, so each
    # head's rows are split and the cuts are re-read between all of them; 24
    # cells split a head into blocks of two or more rows
    k = min(k, seq.length)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_BLOCK_CELLS", bound)
        rep = correlation_measure_exact(seq, k)
    assert (rep.value, (rep.witness_D, rep.witness_M)) == _ck_reference(seq, k)


def _attaining_reference(seq, k):
    """Max walk spread over every pattern (0, d_2, ..., d_k) of k shifts, and
    the set of patterns that attain it, by enumerating them all."""
    N = seq.length
    x = _signs(seq)
    spreads = {}
    for rest in combinations(range(1, N), k - 1):
        L = N - rest[-1]
        steps = x[:L].copy()
        for d in rest:
            steps *= x[d : d + L]
        walk = np.concatenate([[0], np.cumsum(steps)])
        spreads[(0, *rest)] = int(walk.max() - walk.min())
    best = max(spreads.values())
    return best, {pattern for pattern, v in spreads.items() if v == best}


@given(st.data(), biased_words(14), st.sampled_from([1, 17, 40]))
@settings(max_examples=150, deadline=None)
def test_search_attaining_set_matches_enumeration(data, seq, bound):
    # every k from 2 to N, so the tie-only consecutive completions decide
    # often; bounds of 17 and 40 cells split heads into blocks of several rows
    k = data.draw(st.integers(2, seq.length))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_BLOCK_CELLS", bound)
        best, attaining = measures._search_patterns(seq.bits, k)
    assert len(set(attaining)) == len(attaining)
    assert (best, set(attaining)) == _attaining_reference(seq, k)


@pytest.mark.parametrize("N", [*range(1, 42), 61, 542, 1001])
def test_packed_rows_match_the_cell_definition(N):
    # every N mod 8, and N < 8, where the last seven windows are all there is:
    # cell [s, j] is the byte of bits s+8j..s+8j+7 little-endian, zero past the
    # word, over N - s - 8j steps clipped to 0..8
    bits = np.random.default_rng(N).integers(0, 2, N, dtype=np.uint8)
    nb = -(-N // 8)
    R = measures._packed_rows(bits)
    assert R.shape == (N, nb) and R.dtype == np.uint16
    padded = [*bits.tolist(), *[0] * (16 * nb)]
    for s in range(N):
        for j in range(nb):
            i = s + 8 * j
            byte = sum(padded[i + t] << t for t in range(8))
            assert R[s, j] == min(max(N - i, 0), 8) << 8 | byte, (s, j)


def test_prefix_tables_match_direct_walk():
    for byte in range(256):
        for count in range(9):
            walk = [0]
            for i in range(count):
                walk.append(walk[-1] + (-1 if byte >> i & 1 else 1))
            got = tuple(int(t[count, byte]) for t in
                        (measures._PREFIX_SUM, measures._PREFIX_MAX, measures._PREFIX_MIN))
            assert got == (walk[-1], max(walk), min(walk)), (byte, count)


def _spreads_reference(cells):
    """Walk spread of each row, by decoding each cell's count of valid steps and
    its byte and walking those steps one at a time."""
    out = []
    for row in cells.tolist():
        walk = [0]
        for cell in row:
            count, byte = cell >> 8, cell & 0xFF
            for i in range(count):
                walk.append(walk[-1] + (-1 if byte >> i & 1 else 1))
        out.append(max(walk) - min(walk))
    return out


@st.composite
def cell_blocks(draw):
    """Blocks of cells (valid steps << 8 | byte) with more rows than cells per
    row, fewer, as many, one row, or one cell per row: both layouts of `_spreads`."""
    shape = draw(st.sampled_from(["tall", "wide", "square", "one row", "one cell"]))
    n = draw(st.integers(1, 70))
    rows = {"tall": n + draw(st.integers(1, 150)), "wide": n, "square": n, "one row": 1,
            "one cell": draw(st.integers(1, 150))}[shape]
    n = {"wide": n + draw(st.integers(1, 150)), "one cell": 1}.get(shape, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # counts favour 8 and 0, as in real rows, and the bytes' density of ones is
    # drawn, so long runs of one sign are common
    counts = rng.choice([0, 8, *range(9)], size=(rows, n))
    ones = rng.random((rows, n, 8)) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    return (counts << 8 | np.packbits(ones, axis=2, bitorder="little")[..., 0]).astype(np.uint16)


@given(cell_blocks())
@settings(max_examples=200, deadline=None)
def test_spreads_match_direct_walk(cells):
    assert measures._spreads(cells).tolist() == _spreads_reference(cells)


def test_spreads_reach_the_int16_extreme_of_the_default_block():
    # 128 rows of 127 all-down cells: every walk falls to -1016, the furthest a
    # cell-major block gets at the default _BLOCK_CELLS (fewer than 128 cells)
    cells = np.full((128, 127), 8 << 8 | 0xFF, dtype=np.uint16)
    assert measures._spreads(cells).tolist() == [1016] * 128
    # one up step first: the walks rise to 1, then fall to -1014
    cells[:, 0] = 8 << 8 | 0xFE
    assert measures._spreads(cells).tolist() == [1015] * 128


@pytest.mark.parametrize("n, k", [(1201, 2), (150, 3)])
def test_exact_blocks_stay_within_cell_bound(monkeypatch, n, k):
    seq = BitSequence.create(np.random.default_rng(n).integers(0, 2, size=n, dtype=np.uint8))
    sizes = []
    spreads = measures._spreads

    def recording(cells):
        sizes.append(cells.size)
        return spreads(cells)

    monkeypatch.setattr(measures, "_spreads", recording)
    monkeypatch.setattr(measures, "_BLOCK_CELLS", 4096)
    rep = correlation_measure_exact(seq, k)
    assert len(sizes) > 1 and max(sizes) <= 4096
    assert (rep.value, (rep.witness_D, rep.witness_M)) == _ck_reference(seq, k)


@pytest.mark.parametrize("k", [1200, 1199])
def test_exact_order_near_length(k):
    # the head then holds k - 2 shifts: the walk over it must not nest
    seq = BitSequence.create(np.random.default_rng(1200).integers(0, 2, size=1200, dtype=np.uint8))
    rep = correlation_measure_exact(seq, k)
    assert (rep.value, (rep.witness_D, rep.witness_M)) == _ck_reference(seq, k)


def test_exact_memory_does_not_grow_with_word_squared():
    # an (N, N / 8) table of uint16 rows alone would be 16 MB at N = 8000
    seq = BitSequence.create(np.random.default_rng(8000).integers(0, 2, size=8000, dtype=np.uint8))
    tracemalloc.start()
    try:
        rep = correlation_measure_exact(seq, 2, budget=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert _for_shifts_reference(seq, rep.witness_D) == (rep.value, rep.witness_M)


@given(words, st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_complement_invariance(seq, k):
    if k > seq.length:
        k = seq.length
    comp = BitSequence.create(1 - seq.bits)
    assert (
        correlation_measure_exact(seq, k).value
        == correlation_measure_exact(comp, k).value
    )


def test_budget_guard():
    seq = BitSequence.create([0, 1] * 50)
    with pytest.raises(BudgetExceeded) as err:
        correlation_measure_exact(seq, 3, budget=1000)
    assert err.value.estimate == math.comb(100, 3) * 100


@pytest.mark.parametrize("N, k", [(10**4, 2000), (10**4, 8000), (10**4, 5000), (10**5, 1000)])
def test_huge_charge_is_refused_from_a_lower_bound(N, k, monkeypatch):
    # past 2**4096 and the budget, comb(N, k) * N is refused as "at least 2**b"
    # from comb(N, j) >= (N/j)**j, j = min(k, N - k), never computing comb, and
    # the bound is a true lower bound of the exact charge
    exact = math.comb(N, k) * N
    monkeypatch.setattr(math, "comb", lambda *a: pytest.fail("comb computed"))
    seq = BitSequence.create(np.zeros(N, dtype=np.uint8))
    for refuse in (lambda: correlation_measure_exact(seq, k),
                   lambda: correlation_measure_sampled(seq, k, exact, rng_seed=0)):
        with pytest.raises(BudgetExceeded) as err:
            refuse()
        b = err.value.estimate.bit_length() - 1
        assert err.value.estimate == 1 << b and b >= 4096 and 1 << b <= exact
        assert str(err.value).startswith(f"estimated at least 2**{b} window")


def test_charge_below_the_bound_threshold_is_exact(monkeypatch):
    # comb(300, 150) * 300 is near 2**303, and comb(5000, 2000) * 5000 near
    # 2**4860 while its bound 2**2654 is not past 2**4096: both exactly, as before
    for N, k in ((300, 150), (5000, 2000)):
        seq = BitSequence.create(np.zeros(N, dtype=np.uint8))
        with pytest.raises(BudgetExceeded) as err:
            correlation_measure_exact(seq, k)
        assert err.value.estimate == math.comb(N, k) * N
    # samples below the bound charge samples * N, without comb
    monkeypatch.setattr(math, "comb", lambda *a: pytest.fail("comb computed"))
    seq = BitSequence.create(np.zeros(10**4, dtype=np.uint8))
    with pytest.raises(BudgetExceeded) as err:
        correlation_measure_sampled(seq, 5000, 10**6, rng_seed=0, budget=10**9)
    assert err.value.estimate == 10**6 * 10**4


def test_sampled_determinism_and_bound():
    a = correlation_measure_sampled(HALL31, 2, samples=40, rng_seed=7)
    b = correlation_measure_sampled(HALL31, 2, samples=40, rng_seed=7)
    assert a == b
    assert not a.exhaustive
    assert a.value <= correlation_measure_exact(HALL31, 2).value


def test_sampled_saturation_matches_exact():
    rep = correlation_measure_sampled(HALL13, 1, samples=13, rng_seed=0)
    assert rep.value == 4


@given(st.data(), biased_words(14), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_saturated_sampled_is_exact(data, seq, extra):
    # samples covering every tuple return the exact value and witness
    k = data.draw(st.integers(1, seq.length))
    sampled = correlation_measure_sampled(seq, k, math.comb(seq.length, k) + extra, rng_seed=0)
    exact = correlation_measure_exact(seq, k)
    assert not sampled.exhaustive
    assert ((sampled.value, sampled.witness_D, sampled.witness_M)
            == (exact.value, exact.witness_D, exact.witness_M))


@given(st.data(), biased_words(28), st.integers(1, 60), st.sampled_from([1, 50]))
@settings(max_examples=150, deadline=None)
def test_sampled_matches_per_tuple_reference(data, seq, samples, bound):
    # one cell puts one tuple in each block past N = 8; fifty cells hold 14 to
    # 200 tuples, so 1..60 samples end inside, at and past block boundaries,
    # and ties between blocks are broken by the running best
    k = data.draw(st.integers(1, seq.length))
    seed = data.draw(st.integers(0, 2**32 - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_BLOCK_CELLS", bound)  # the reference draws in these blocks too
        rep = correlation_measure_sampled(seq, k, samples, seed)
        assert ((rep.value, rep.witness_D, rep.witness_M, rep.exhaustive)
                == _sampled_reference(seq, k, samples, seed))


@given(st.data(), biased_words(40), st.sampled_from([1, 50, measures._BLOCK_CELLS]))
@settings(max_examples=150, deadline=None)
def test_for_shifts_matches_pattern_walk_route(data, seq, bound):
    # w from 1 to N shifts, and BM's witness tuple, whose product is +1 over
    # its first N - L steps; small blocks split the shifts into several gathers
    N = seq.length
    w = data.draw(st.integers(1, N))
    tuples = [tuple(sorted(data.draw(st.sets(st.integers(0, N - 1), min_size=w, max_size=w))))]
    profile = berlekamp_massey_profile(seq)
    L = profile.final
    if L < N:
        tuples.append(tuple(L - i for i in range(L, -1, -1) if profile.connection >> i & 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_BLOCK_CELLS", bound)
        for D in tuples:
            assert _for_shifts(seq, D) == _for_shifts_reference(seq, D)


def _check_draw_subsets(N, k, n, seed):
    drawn = measures._draw_subsets(np.random.default_rng(seed), N, k, n)
    assert drawn.shape == (n, k) and drawn.dtype == np.int64
    rows = [tuple(r) for r in drawn.tolist()]
    assert rows == _floyd_reference(np.random.default_rng(seed), N, k, n)
    for r in rows:
        assert list(r) == sorted(set(r)) and 0 <= r[0] and r[-1] < N


@given(st.data(), st.integers(1, 40), st.integers(0, 30), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 50, measures._BLOCK_CELLS]))
@settings(max_examples=150, deadline=None)
def test_draw_subsets_matches_floyd_reference(data, N, n, seed, bound):
    # n = 0 draws nothing; one cell holds 8 // N rows (at least one) a chunk,
    # fifty cells 10 to 400, so n rows end inside, at and past chunk boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_BLOCK_CELLS", bound)
        _check_draw_subsets(N, data.draw(st.integers(1, N)), n, seed)


@pytest.mark.parametrize("N, k", [(1, 1), (2, 2), (7, 7), (40, 40)])
def test_draw_subsets_whole_range(N, k):
    # N = 1, k = 1 and k = N: sorted, distinct and in range, every row is range(N)
    _check_draw_subsets(N, k, 5, seed=3)


def test_draw_subsets_uniform_over_all_subsets():
    # 60 000 draws over the 20 subsets of C(6, 3): chi-square below 43.8, its
    # p = 0.001 point at 19 degrees of freedom
    drawn = measures._draw_subsets(np.random.default_rng(2024), 6, 3, 60_000)
    counts = {D: 0 for D in combinations(range(6), 3)}
    for r in drawn.tolist():
        counts[tuple(r)] += 1
    expected = 60_000 / 20
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < 43.8


def test_sampled_budget_refuses_before_any_draw(monkeypatch):
    # min(samples, binom(N, k)) * N is charged, in the exact search's unit
    seq = BitSequence.create([0, 1] * 50)

    def no_draw(seed):
        raise AssertionError("drew past the budget")

    monkeypatch.setattr(measures.np.random, "default_rng", no_draw)
    with pytest.raises(BudgetExceeded) as err:
        correlation_measure_sampled(seq, 2, 11, rng_seed=0, budget=1000)
    assert err.value.estimate == 11 * 100
    # saturated: refused exactly where the exact search it runs is
    total = math.comb(100, 2) * 100
    for samples in (math.comb(100, 2), 10**9):
        with pytest.raises(BudgetExceeded) as err:
            correlation_measure_sampled(seq, 2, samples, rng_seed=0, budget=total - 1)
        assert err.value.estimate == total
    rep = correlation_measure_sampled(seq, 2, 10**9, rng_seed=0, budget=total)
    assert rep.value == correlation_measure_exact(seq, 2, budget=total).value


@given(words, st.integers(1, 2), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sampled_below_exact(seq, k, seed):
    if k > seq.length:
        k = seq.length
    sampled = correlation_measure_sampled(seq, k, samples=5, rng_seed=seed)
    assert sampled.value <= correlation_measure_exact(seq, k).value


# --- periodic autocorrelation ------------------------------------------------


def test_autocorrelation_examples():
    assert periodic_autocorrelation(legendre_sequence(7, 7), 1) == -1
    for t in range(1, 31):
        assert periodic_autocorrelation(HALL31, t) == -1
    assert periodic_autocorrelation(dhl_sequence(5, 2, 5), 2) == -3


def test_autocorrelation_needs_period():
    with pytest.raises(ParameterError, match="periodic autocorrelation needs a declared period"):
        periodic_autocorrelation(BitSequence.create([0, 1, 1]), 1)
    with pytest.raises(ParameterError):
        periodic_autocorrelation(HALL13, 13)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_autocorrelation_symmetry_and_parseval(bits):
    T = len(bits)
    seq = BitSequence.create(bits, period=T)
    ac = [periodic_autocorrelation(seq, t) for t in range(1, T)]
    for t in range(1, T):
        assert ac[t - 1] == ac[T - t - 1]
    imbalance = int(_signs(seq).sum())
    assert sum(ac) == imbalance**2 - T


@st.composite
def periodic_words(draw):
    """A word of period T in 1..200 and length T..2T."""
    T = draw(st.integers(1, 200))
    core = draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))
    length = draw(st.integers(T, 2 * T))
    return BitSequence.create([core[n % T] for n in range(length)], period=T)


@given(periodic_words())
@settings(max_examples=100, deadline=None)
def test_all_shift_autocorrelation_matches_per_shift(seq):
    T = seq.period
    values = periodic_autocorrelations(seq)
    assert values.shape == (T - 1,)
    assert values.tolist() == [periodic_autocorrelation(seq, t) for t in range(1, T)]


def test_all_shift_autocorrelation_errors():
    with pytest.raises(ParameterError, match="periodic autocorrelation needs a declared period"):
        periodic_autocorrelations(BitSequence.create([0, 1, 1]))
    short = BitSequence.create(HALL13.bits[:12], period=13)
    with pytest.raises(ParameterError, match=r"need at least one full period \(13 bits\), have 12"):
        periodic_autocorrelations(short)
    with pytest.raises(ParameterError):
        periodic_autocorrelation(short, 1)


# --- linear complexity -------------------------------------------------------


def test_bm_conventions():
    assert berlekamp_massey_profile(BitSequence.create([0, 0, 0, 0])).values == (0, 0, 0, 0)
    assert berlekamp_massey_profile(BitSequence.create([0, 0, 0, 1])).values == (0, 0, 0, 4)
    assert berlekamp_massey_profile(BitSequence.create([0, 0, 1])).values[2] == 3


@given(st.lists(st.integers(0, 1), min_size=1, max_size=14))
@settings(max_examples=80, deadline=None)
def test_bm_matches_naive_recurrence_search(bits):
    profile = berlekamp_massey_profile(BitSequence.create(bits))
    for n in range(1, len(bits) + 1):
        assert profile.values[n - 1] == naive_linear_complexity(bits[:n])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=512))
@settings(max_examples=150, deadline=None)
def test_bm_matches_list_reference(bits):
    profile = berlekamp_massey_profile(BitSequence.create(bits))
    assert (profile.values, profile.connection) == _bm_reference(bits)


@pytest.mark.parametrize(
    "seq",
    [hall_sequence(SexticParams.create(1033), 2066), legendre_sequence(1033, 2066)],
    ids=["hall", "legendre"],
)
def test_bm_matches_list_reference_at_2p(seq):
    profile = berlekamp_massey_profile(seq)
    assert (profile.values, profile.connection) == _bm_reference(seq.bits)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=64))
@settings(max_examples=60, deadline=None)
def test_bm_profile_monotone_and_jump_rule(bits):
    v = berlekamp_massey_profile(BitSequence.create(bits)).values
    for i in range(len(v) - 1):
        assert v[i] <= v[i + 1] <= len(bits)
        if v[i] > (i + 1) / 2:
            assert v[i + 1] == v[i]
    assert all(v[i] <= i + 1 for i in range(len(v)))


# --- maximum order complexity ------------------------------------------------


def test_moc_examples():
    assert max_order_complexity_naive(BitSequence.create([0, 0, 0, 0])).values[3] == 1
    assert max_order_complexity_naive(BitSequence.create([0, 0, 0, 1])).values[3] == 3
    assert max_order_complexity_naive(BitSequence.create([0, 1, 1, 0])).values[3] == 2
    alt = BitSequence.create([0, 1] * 10)
    assert max_order_complexity_profile(alt).final == 1
    tail = BitSequence.create([0] * 9 + [1])
    assert max_order_complexity_profile(tail).final == 9  # N-1 forced conflict


def test_moc_profile_starts_at_zero():
    prof = max_order_complexity_profile(BitSequence.create([1, 0, 1]))
    assert prof.values[0] == 0


def test_moc_naive_cap():
    with pytest.raises(CapExceeded):
        max_order_complexity_naive(BitSequence.create([0, 1] * 40), cap=64)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=64))
@settings(max_examples=100, deadline=None)
def test_moc_automaton_equals_naive(bits):
    seq = BitSequence.create(bits)
    assert max_order_complexity_profile(seq).values == max_order_complexity_naive(seq).values


@st.composite
def moc_words(draw):
    """Words up to 512 bits: uniformly random, periodic with period 1..8 (long
    repeated factors, deep suffix chains) or sparse (long runs of zeros)."""
    n = draw(st.integers(2, 512))
    kind = draw(st.sampled_from(["random", "periodic", "sparse"]))
    if kind == "random":
        return draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if kind == "periodic":
        period = draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
        return [period[i % len(period)] for i in range(n)]
    ones = draw(st.sets(st.integers(0, n - 1), max_size=8))
    return [int(i in ones) for i in range(n)]


@given(moc_words())
@settings(max_examples=150, deadline=None)
def test_moc_matches_dict_automaton_reference(bits):
    assert max_order_complexity_profile(BitSequence.create(bits)).values == _moc_reference(bits)


@pytest.mark.parametrize(
    "seq",
    [
        hall_sequence(SexticParams.create(1033), 2066),
        legendre_sequence(1033, 2066),
        dhl_sequence(1033, SexticParams.create(1033).g, 2066),
    ],
    ids=["hall", "legendre", "dhl"],
)
def test_moc_matches_dict_automaton_reference_at_2p(seq):
    assert max_order_complexity_profile(seq).values == _moc_reference(seq.bits)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=64))
@settings(max_examples=60, deadline=None)
def test_moc_profile_monotone_and_bounded(bits):
    v = max_order_complexity_profile(BitSequence.create(bits)).values
    for i in range(len(v) - 1):
        assert v[i] <= v[i + 1]
    for i in range(1, len(v)):
        assert v[i] <= i  # v[N'] <= N'-1 for N' >= 2


@given(st.lists(st.integers(0, 1), min_size=2, max_size=48))
@settings(max_examples=60, deadline=None)
def test_moc_below_linear_complexity(bits):
    # all-zero prefixes are the one exception: L = 0 by convention while M is
    # the smallest *positive* window length, so M = 1 there
    seq = BitSequence.create(bits)
    moc = max_order_complexity_profile(seq).values
    lc = berlekamp_massey_profile(seq).values
    for i, (m, l) in enumerate(zip(moc, lc)):
        if any(bits[: i + 1]):
            assert m <= l
        else:
            assert (m, l) == ((1, 0) if i >= 1 else (0, 0))



def _final_moc_by_sort(seq):
    """max_order_complexity with the sort taken at every length, and whether it
    fell back to the automaton."""
    calls = []
    real = measures.max_order_complexity_profile
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_MOC_SORT_MIN", 2)
        mp.setattr(measures, "max_order_complexity_profile",
                   lambda s: calls.append(s.length) or real(s))
        return max_order_complexity(seq), bool(calls)


@st.composite
def moc_final_words(draw):
    """Words of 2..300 bits: uniformly random, biased towards one bit (long runs,
    ties among the zero-padded window codes of the last suffixes), or eventually
    periodic (a head, then a period of 1..100 bits, perhaps with one bit flipped),
    whose conflicts run up to the period and past the codes' 57 bits."""
    n = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["random", "biased", "periodic"]))
    if kind == "random":
        return draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if kind == "biased":
        rare, odds = draw(st.integers(0, 1)), draw(st.integers(0, 4))
        draws = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
        return [rare if v < odds else 1 - rare for v in draws]
    head = draw(st.lists(st.integers(0, 1), max_size=20))
    period = draw(st.lists(st.integers(0, 1), min_size=1, max_size=100))
    bits = (head + period * (n // len(period) + 1))[:n]
    flip = draw(st.none() | st.integers(0, n - 1))
    if flip is not None:
        bits[flip] ^= 1
    return bits


@given(moc_final_words())
@settings(max_examples=300, deadline=None)
def test_moc_final_by_sort_equals_the_automaton(bits):
    seq = BitSequence.create(bits)
    want = max_order_complexity_profile(seq).final
    got, fell_back = _final_moc_by_sort(seq)
    assert got == want
    # the codes hold 57 bits: only a conflict of 56 bits or more (M >= 57) falls back
    assert fell_back == (want >= 57)
    if seq.length <= 40:
        assert got == max_order_complexity_naive(seq).final


def _moc_final_cases():
    rng = np.random.default_rng(34)
    cases = [([a, b], 1) for a in (0, 1) for b in (0, 1)]  # N = 2: no conflict
    cases += [([1] * 100, 1), ([0, 1] * 50, 1)]
    # 0^(N-1) 1: 0^(N-2) is followed by both bits, so M = N - 1
    cases += [([0] * (n - 1) + [1], n - 1) for n in (3, 10, 62, 63, 64, 65, 100)]
    # around 63 bits
    cases += [(bits, max_order_complexity_naive(BitSequence.create(bits)).final)
              for bits in (rng.integers(0, 2, n).tolist() for n in range(62, 67))]
    # the last suffix u has the code of an earlier u followed by zeros, and sorts
    # between it and u 0^5 1, which it shares u 0^5 with but ends before: only
    # shorter-first order (a truncated key sorts before the full key equal to it)
    # puts it outside the pair that holds the conflict u 0^5
    u = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1]
    cases.append((u + [0] * 34 + [1] + u + [0] * 5 + [1] + u, 36))
    # a sparse word's many zero-padded suffixes tie in code
    cases.append(([int(i in (39, 66, 105)) for i in range(107)], 54))
    # around the codes' 57 bits: M = 57 is the first value that falls back
    cases += [([0] * (n - 1) + [1], n - 1) for n in (56, 57, 58, 59)]
    cases += [(bits, max_order_complexity_naive(BitSequence.create(bits)).final)
              for bits in (rng.integers(0, 2, n).tolist() for n in range(55, 61))]
    return cases


@pytest.mark.parametrize("bits, m", _moc_final_cases())
def test_moc_final_examples(bits, m):
    seq = BitSequence.create(bits)
    assert max_order_complexity(seq) == m
    assert _final_moc_by_sort(seq) == (m, m >= 57)


@pytest.mark.parametrize("k", [2, 62])
def test_moc_final_truncated_ties_shorter_first(k):
    # 0 1 0^k: the suffixes 0^j tie in code, and only the longest of them, sorted
    # last among them, shows next to 0 1 0^(k-1) that 0 is followed by both bits
    seq = BitSequence.create([0, 1] + [0] * k)
    assert max_order_complexity(seq) == 2
    assert _final_moc_by_sort(seq) == (2, False)


def test_moc_final_needs_two_bits():
    with pytest.raises(ParameterError, match="need N >= 2"):
        max_order_complexity(BitSequence.create([1]))


def test_moc_final_falls_back_past_the_codes_width():
    # a random 80-bit block three times, one bit of the middle copy flipped: the
    # bits before the flip are also followed by the unflipped bit one block on,
    # so the longest conflict is 62 bits or more and the automaton decides
    rng = np.random.default_rng(80)
    for _ in range(20):
        bits = np.tile(rng.integers(0, 2, 80), 3)
        bits[80 + int(rng.integers(62, 80))] ^= 1
        seq = BitSequence.create(bits)
        m = max_order_complexity_profile(seq).final
        assert m >= 63
        assert _final_moc_by_sort(seq) == (m, True)
        assert max_order_complexity(seq) == m


def test_moc_final_below_the_floor_takes_the_automaton(monkeypatch):
    calls = []
    real = measures.max_order_complexity_profile
    monkeypatch.setattr(measures, "max_order_complexity_profile",
                        lambda s: calls.append(s.length) or real(s))
    rng = np.random.default_rng(64)
    floor = measures._MOC_SORT_MIN
    for n in (2, floor - 1, floor, 4 * floor):
        seq = BitSequence.create(rng.integers(0, 2, n))
        assert max_order_complexity(seq) == real(seq).final
    assert calls == [2, floor - 1]


@st.composite
def periodic_moc_final_words(draw):
    """A core of 1..100 bits, uniformly random or biased towards one bit, tiled
    to N bits with its period declared: N < T + 56 leaves truncated slots among
    the first T positions, N >= T + 56 leaves none."""
    T = draw(st.integers(1, 100))
    if draw(st.booleans()):
        core = draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))
    else:
        rare, odds = draw(st.integers(0, 1)), draw(st.integers(0, 4))
        draws = draw(st.lists(st.integers(0, 15), min_size=T, max_size=T))
        core = [rare if v < odds else 1 - rare for v in draws]
    n = draw(st.integers(2, T + 55) | st.integers(T + 56, 3 * T + 80))
    return (core * (n // T + 1))[:n], T


@given(periodic_moc_final_words())
@settings(max_examples=300, deadline=None)
def test_moc_final_by_sort_over_one_period(word):
    bits, T = word
    seq = BitSequence.create(bits, period=T)
    want = max_order_complexity_profile(seq).final
    got, fell_back = _final_moc_by_sort(seq)
    assert got == want
    assert fell_back == (want >= 57)
    # the period only drops positions: the same bits without it agree
    assert _final_moc_by_sort(BitSequence.create(bits)) == (got, fell_back)
    if seq.length <= 40:
        assert got == max_order_complexity_naive(seq).final


@pytest.mark.parametrize("T", [1, 2, 31, 62, 63, 64, 100])
def test_moc_final_over_one_period_around_the_last_truncated_slot(T):
    # N = T + 55 keeps one truncated slot in the first period, T + 56 none
    rng = np.random.default_rng(T)
    core = rng.integers(0, 2, T)
    for n in (T + 54, T + 55, T + 56, T + 57, T + 60, T + 61, T + 62, T + 63, 2 * T + 62):
        bits = np.resize(core, n)
        want = max_order_complexity_profile(BitSequence.create(bits)).final
        assert _final_moc_by_sort(BitSequence.create(bits, period=T)) == (want, want >= 57)


def test_moc_final_over_one_period_falls_back_past_the_codes_width():
    # an 80-bit block, then the block with one bit flipped, as the period: the
    # bits before the flip are followed by both bits, a conflict of 62 or more
    rng = np.random.default_rng(160)
    for _ in range(10):
        block = rng.integers(0, 2, 80)
        core = np.concatenate((block, block))
        core[80 + int(rng.integers(62, 80))] ^= 1
        for n in (200, 320, 400):
            seq = BitSequence.create(np.resize(core, n), period=160)
            m = max_order_complexity_profile(seq).final
            assert m >= 63
            assert _final_moc_by_sort(seq) == (m, True)


def test_moc_final_memory_is_one_period_of_keys():
    # the keys and their neighbours' XORs, one uint64 each per position of one
    # period: about 16.3 bytes per period bit at N = 2p, where keys and positions
    # over the whole word took 64
    seq = legendre_sequence(100003, 200006)
    tracemalloc.start()
    try:
        max_order_complexity(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 100003, peak


@pytest.mark.parametrize("N", [1033, 2066], ids=["p", "2p"])
@pytest.mark.parametrize(
    "build",
    [
        lambda N: hall_sequence(SexticParams.create(1033), N),
        lambda N: legendre_sequence(1033, N),
        lambda N: dhl_sequence(1033, SexticParams.create(1033).g, N),
    ],
    ids=["hall", "legendre", "dhl"],
)
def test_moc_final_by_sort_on_named_words(build, N):
    # N = 2p codes one period with no truncated slot; N = p, the length IW17
    # reads, leaves 56 truncated slots at the word's end
    seq = build(N)
    assert _final_moc_by_sort(seq) == (max_order_complexity_profile(seq).final, False)


# --- 2-adic complexity -------------------------------------------------------


def test_two_adic_hall13():
    rep = two_adic_complexity(HALL13)
    assert rep.numerator == 6438
    assert rep.modulus == 8191
    assert rep.gcd_value == 1
    assert rep.is_maximal
    assert rep.complexity == pytest.approx(math.log2(8191))


def test_two_adic_all_ones():
    rep = two_adic_complexity(BitSequence.create([1] * 12, period=12))
    assert rep.numerator == 2**12 - 1
    assert rep.gcd_value == 2**12 - 1
    assert rep.complexity == 0.0


def test_two_adic_hall31():
    rep = two_adic_complexity(HALL31)
    assert rep.gcd_value == 1


def test_two_adic_needs_period():
    with pytest.raises(ParameterError, match="2-adic complexity needs a declared period"):
        two_adic_complexity(BitSequence.create([0, 1, 1]))


def test_two_adic_cap():
    seq = BitSequence.create([0, 1] * 6000, period=12000)
    with pytest.raises(CapExceeded):
        two_adic_complexity(seq)
    # the cap is refused ahead of a short word, and a short word under the cap
    # as the autocorrelations refuse it
    with pytest.raises(CapExceeded):
        two_adic_complexity(BitSequence.create([0, 1] * 50, period=12000))
    with pytest.raises(ParameterError, match=r"need at least one full period \(13 bits\), have 12"):
        two_adic_complexity(BitSequence.create(HALL13.bits[:12], period=13))
