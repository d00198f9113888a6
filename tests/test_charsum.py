import cmath
import math
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import charsum
from cycloseq.bounds import difference_set_check
from cycloseq.charsum import weil_verdicts
from cycloseq.errors import ParameterError
from cycloseq.ntheory import (
    PrimeParams,
    SexticParams,
    reduce_zeta6,
    zeta6_mul,
    zeta6_norm_sq,
)
from cycloseq.seqgen import (
    CLASS_SETS,
    check_index_representation,
    hall_sequence,
    hall_sequence_via_characters,
    permutation_map_f,
    sign_coefficients,
)

P13 = SexticParams.create(13, g=2)
P31 = SexticParams.create(31, g=3)


SEXTIC = {p: SexticParams.create(p) for p in (7, 13, 19, 31, 37, 43)}

# exp(2*pi*i*r/6) for r = 0..5: the float side the exact Z[w] values are checked against
ROOT6 = tuple(cmath.exp(2j * cmath.pi * r / 6) for r in range(6))
# the same roots exactly, w**r as the row (a, b) of a + b*w
UNITS = np.array(reduce_zeta6(np.eye(6, dtype=np.int64))).T


def zeta6_conj(x):
    """Complex conjugate of a + b*w in Z[w]: conj(w) = 1 - w."""
    a, b = x
    return a + b, -b


def exact_sums(params, exponents, shifts, window):
    """sums[t, b] = (a, b): the sum over n in 1..window-1 of shift tuple t
    under exponent row b, exactly a + b*w, a T x B x 2 array.

    The batch is checked and summed by `weil_verdicts`' own kernel, and each
    row's sum is gathered from its conjugate class as `weil_verdicts` gathers
    its verdicts: a row whose class is its conjugate gets the conjugate sum.
    """
    S, windows = charsum._checked_shifts(params, shifts, window)
    E = charsum._checked_exponents(exponents, S.shape[1])
    rows, back = charsum._conjugate_classes(E)
    flip = (rows[back] != E).any(axis=1)
    sums = np.empty((len(S), len(E), 2), dtype=np.int64)
    for lo, hi, a, b in charsum._sum_chunks(params, rows, S, windows):
        a, b = a[:, back], b[:, back]
        sums[lo:hi] = np.stack(np.where(flip, zeta6_conj((a, b)), (a, b)), axis=-1)
    return sums


def one_sum(params, exponents, shifts, window):
    """The exact (a, b) of one sum a + b*w, as a one-row kernel batch."""
    return tuple(int(x) for x in exact_sums(params, [exponents], [shifts], window)[0, 0])


def reference_sum(params, exponents, shifts, window):
    """The exact (a, b) of one sum from the reference loop's counts."""
    counts, _ = _character_sum_reference(params, exponents, shifts, window)
    return tuple(int(x) for x in reduce_zeta6(counts))


def _character_sum_reference(params, exponents, shifts, window):
    """(counts, skipped) by the per-term loop the batched kernel replaced."""
    p = params.p
    table = params.index_table
    counts = [0] * 6
    skipped = 0
    for n in range(1, window):
        phase = 0
        for m, d in zip(exponents, shifts):
            arg = (n + d) % p
            if arg == 0:
                phase = -1
                break
            phase += m * int(table[arg])
        if phase < 0:
            skipped += 1
            continue
        counts[phase % 6] += 1
    return counts, skipped


@st.composite
def kernel_batches(draw):
    p = draw(st.sampled_from(sorted(SEXTIC)))
    k = draw(st.integers(1, 3))
    shifts = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=k, max_size=k))))
    window = draw(st.integers(1, p))
    if draw(st.booleans()):
        batch = list(product(range(1, 6), repeat=k))
    else:
        row = st.tuples(*[st.integers(1, 5)] * k)
        batch = draw(st.lists(row, min_size=1, max_size=40))
    return SEXTIC[p], batch, shifts, window


@given(kernel_batches())
@settings(max_examples=200, deadline=None)
def test_sums_match_reference(case):
    params, batch, shifts, window = case
    sums = exact_sums(params, batch, [shifts], window)
    assert sums.shape == (1, len(batch), 2)
    for row, ms in zip(sums[0], batch):
        assert tuple(row.tolist()) == reference_sum(params, ms, shifts, window)


@st.composite
def tuple_batches(draw):
    """Several shift tuples of one k with their windows (1 and p among them
    often), and exponent rows shared by all tuples."""
    p = draw(st.sampled_from(sorted(SEXTIC)))
    k = draw(st.integers(1, 3))
    T = draw(st.integers(1, 6))
    shifts = [sorted(draw(st.sets(st.integers(0, p - 1), min_size=k, max_size=k)))
              for _ in range(T)]
    windows = draw(st.lists(st.one_of(st.just(1), st.just(p), st.integers(1, p)),
                            min_size=T, max_size=T))
    row = st.tuples(*[st.integers(1, 5)] * k)
    exponents = draw(st.lists(row, min_size=1, max_size=6))
    block = draw(st.sampled_from([1, 50, charsum._BLOCK_CELLS]))
    return SEXTIC[p], exponents, shifts, windows, block


@given(tuple_batches())
@settings(max_examples=200, deadline=None)
def test_batched_tuples_match_reference(case):
    params, exponents, shifts, windows, block = case
    # a small chunk constant puts chunk edges between (at 1, inside) the tuples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charsum, "_BLOCK_CELLS", block)
        sums = exact_sums(params, exponents, shifts, windows)
        ok = weil_verdicts(params, exponents, shifts, windows)
    T, B = len(shifts), len(exponents)
    assert sums.shape == (T, B, 2) and ok.shape == (T, B)
    for t, (ds, window) in enumerate(zip(shifts, windows)):
        for b, ms in enumerate(exponents):
            assert tuple(sums[t, b].tolist()) == reference_sum(params, ms, ds, window)
            assert ok[t, b] == _reference_bound_ok(params, ms, ds, window)


def test_long_windows_match_reference():
    # the code-histogram path (k <= 2, k = 4 at window 200, and k = 1 over a
    # whole window at p = 100003) and the per-term path (k = 4 at window 40,
    # k = 6, and k = 7 at window 30 000, where 6**7 > 8 * 29 999) are checked
    # against the reference loop
    p2053, p100003 = SexticParams.create(2053), SexticParams.create(100003)
    cases = [(p2053, (1,), [(0,), (7,)], [2053, 1500]),
             (p2053, (2, 5), [(0, 1), (3, 2050)], [2053, 1024]),
             (p2053, (1, 2, 3, 4), [(0, 1, 2, 3)], [40]),
             (p2053, (1, 2, 3, 4), [(5, 9, 700, 2052)], [200]),
             (p2053, (1, 2, 3, 4, 5, 1), [(0, 1, 2, 3, 4, 5), (9, 99, 999, 1999, 2000, 2052)],
              [1100, 2053]),
             (p100003, (5,), [(77,)], [100003]),
             (p100003, (1, 5, 2, 4, 3, 1, 2), [(0, 3, 10, 500, 29000, 70000, 100002)], [30000])]
    for params, ms, shifts, windows in cases:
        sums = exact_sums(params, [ms], shifts, windows)
        for t, (ds, window) in enumerate(zip(shifts, windows)):
            assert tuple(sums[t, 0].tolist()) == reference_sum(params, ms, ds, window)


@pytest.mark.parametrize("p", [13, 31, 2053])
def test_complete_one_shift_sums_skip_the_vanishing_term(p):
    # n + d runs over every residue but d, and chi^m sums to zero over all
    # residues (chi(0) = 0): so the complete sum is 0 at d = 0, where no term
    # vanishes, and -chi^m(d) at every other shift, where n = p - d vanishes
    params = SexticParams.create(p)
    exponents = [(m,) for m in range(1, 6)]
    sums = exact_sums(params, exponents, [(d,) for d in range(p)], p)
    assert (sums[0] == 0).all()
    ind = params.index_table[1:p].astype(np.int64)
    for m in range(1, 6):
        assert (sums[1:, m - 1] == -UNITS[m * ind % 6]).all(), m


@given(st.integers(-(2**31) + 1, 2**31 - 1), st.integers(-(2**31) + 1, 2**31 - 1))
def test_packed_sums_round_trip(a, b):
    # a packed sum unpacks to its halves, and two packed halves of it add to
    # it without a carry between a and b
    a1, b1 = a // 2, b // 2
    packed = charsum._pack(np.array([a, a1, a - a1]), np.array([b, b1, b - b1]))
    assert packed.dtype == np.int64
    assert [x.tolist() for x in charsum._unpack(packed)] == [[a, a1, a - a1], [b, b1, b - b1]]
    assert [int(x[0]) for x in charsum._unpack(packed[1:].sum(keepdims=True))] == [a, b]


def test_single_tuple_must_be_a_one_tuple_batch():
    batch = list(product(range(1, 6), repeat=2))
    assert weil_verdicts(P31, batch, [(3, 17)], 20).shape == (1, 25)
    # a bare tuple, and exponent rows given per tuple, are refused
    for exponents, shifts in ((batch, (3, 17)), ([batch], [(3, 17)]),
                              ([batch, batch], [(3, 17), (4, 5)])):
        with pytest.raises(ParameterError):
            weil_verdicts(P31, exponents, shifts, 20)


def test_one_bad_tuple_among_good_ones_is_refused():
    good = [(0, 1), (2, 5), (4, 12)]
    for shifts, windows in (
        (good[:1] + [(3, 3)] + good[1:], 13),  # not strictly increasing
        (good + [(5, 2)], 13),
        (good + [(-1, 2)], 13),
        (good + [(4, 13)], 13),  # not a residue below p
        (good, [13, 0, 13]),  # window outside 1..p
        (good, [13, 14, 13]),
        (good, [13, 13]),  # one window per tuple
    ):
        with pytest.raises(ParameterError):
            weil_verdicts(P13, [(1, 2)], shifts, windows)


def test_phase_counts_shape_mismatch():
    with pytest.raises(ParameterError):
        weil_verdicts(P13, [(1, 2)], [(0,)], 13)


def _reference_bound_ok(params, ms, shifts, window):
    """The Weil verdict from the reference loop's counts and the bound written out."""
    counts, _ = _character_sum_reference(params, ms, shifts, window)
    p, k = params.p, len(shifts)
    if window == p:
        bound = (k - 1) * math.sqrt(p) + k
    else:
        bound = k * math.sqrt(p) * (1.0 + math.log(p))
    return math.sqrt(zeta6_norm_sq(reduce_zeta6(counts))) <= bound + 1e-9


def test_weil_verdicts_match_reference():
    for k in (1, 2):
        batch = list(product(range(1, 6), repeat=k))
        for shifts in ((0, 5)[:k], (3, 12)[:k]):
            for window in (2, 7, 13):
                ok = weil_verdicts(P13, batch, [shifts], window)
                ref = [_reference_bound_ok(P13, ms, shifts, window) for ms in batch]
                assert ok.tolist() == [ref]
    # a principal row (exponent 6) is refused as an exponent outside 1..5
    with pytest.raises(ParameterError):
        weil_verdicts(P13, [(1,), (6,)], [(0,)], 13)


def _exact_complete_ok(value, p, k):
    """A complete sum's verdict by the integer rule: with n the exact norm and
    a = n - (k-1)**2 p - k**2, |sum| <= (k-1) sqrt(p) + k iff a <= 0 or
    a**2 <= 4 k**2 (k-1)**2 p."""
    a = int(zeta6_norm_sq(value)) - (k - 1) ** 2 * p - k * k
    return a <= 0 or a * a <= 4 * k * k * (k - 1) ** 2 * p


@pytest.mark.parametrize("p,kmax", [(7, 4), (13, 3), (19, 3)])
def test_complete_verdicts_are_exact_and_agree_with_floats(p, kmax):
    # every complete sum at p and k <= kmax: the exact verdicts equal both the
    # integer rule and the float comparison they replaced, and the sums of
    # about 20 tuples a k equal the reference loop's
    params = SEXTIC[p]
    for k in range(1, kmax + 1):
        batch = list(product(range(1, 6), repeat=k))
        tuples = list(combinations(range(p), k))
        ok = weil_verdicts(params, batch, tuples, p)
        sums = exact_sums(params, batch, tuples, p)
        exact = [[_exact_complete_ok(v, p, k) for v in rows] for rows in sums.tolist()]
        floats = np.sqrt(zeta6_norm_sq(np.moveaxis(sums, -1, 0)))
        assert ok.tolist() == exact
        for t in range(0, len(tuples), -(-len(tuples) // 20)):
            for b, ms in enumerate(batch):
                assert tuple(sums[t, b].tolist()) == reference_sum(params, ms, tuples[t], p)
        assert (ok == (floats <= (k - 1) * math.sqrt(p) + k + 1e-9)).all()


P11 = PrimeParams.create(11)  # 6 does not divide p - 1 = 10

SEXTIC_READERS = {
    "weil_verdicts": lambda: weil_verdicts(P11, [(1,)], [(0,)], 11),
    "hall_sequence_via_characters": lambda: hall_sequence_via_characters(P11, 11),
    "permutation_map_f": lambda: permutation_map_f(P11, [1, 2, 3, 4]),
    "check_index_representation": lambda: check_index_representation(P11),
    "difference_set_check": lambda: difference_set_check(P11),
}


@pytest.mark.parametrize("name", sorted(SEXTIC_READERS))
def test_sextic_readers_refuse_an_arena_without_order_6(name):
    # each reads ind mod 6 through the arena's cosets, which refuse 6 not dividing p - 1
    # instead of returning a word or a sum of classes that do not exist
    with pytest.raises(ParameterError, match="m=6 does not divide p-1=10"):
        SEXTIC_READERS[name]()


def test_zeta6_arithmetic():
    w = ROOT6[1]
    for a, b in ((1, 0), (0, 1), (2, -3), (-1, 5)):
        for c, d in ((1, 1), (4, 0), (0, -2)):
            prod_exact = zeta6_mul((a, b), (c, d))
            lhs = (a + b * w) * (c + d * w)
            rhs = prod_exact[0] + prod_exact[1] * w
            assert abs(lhs - rhs) < 1e-12
    for a, b in ((3, -2), (0, 4), (-1, -1)):
        assert zeta6_norm_sq((a, b)) == pytest.approx(abs(a + b * w) ** 2)
        conj = zeta6_conj((a, b))
        assert abs((a + b * w).conjugate() - (conj[0] + conj[1] * w)) < 1e-12


def test_query_validation():
    for exponents, shifts, window in (
        ((6,), (0,), 13),  # m = 6 is the principal character
        ((0,), (0,), 13),
        ((1, 1), (1, 1), 13),  # shifts not strictly increasing
        ((1,), (-1,), 13),
        ((1,), (13,), 13),  # shift not a residue below p
        ((1,), (0,), 14),  # window outside 1..p
        ((1,), (0,), 0),
        ((1, 2), (0,), 13),  # k mismatch
        ((), (), 13),
    ):
        with pytest.raises(ParameterError):
            weil_verdicts(P13, [exponents], [shifts], window)


def test_complete_single_character_sums_vanish():
    # orthogonality: sum over 1..p-1 of chi^m is exactly zero
    for params in (P13, P31):
        for m in range(1, 6):
            assert one_sum(params, (m,), (0,), params.p) == (0, 0)


def test_float_matches_exact_representation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        shifts = tuple(sorted(int(d) for d in rng.choice(31, size=k, replace=False)))
        ms = tuple(int(m) for m in rng.integers(1, 6, size=k))
        window = int(rng.integers(1, 32))
        a, b = one_sum(P31, ms, shifts, window)
        counts, skipped = _character_sum_reference(P31, ms, shifts, window)
        assert (a, b) == reduce_zeta6(counts)
        value = sum(c * ROOT6[r] for r, c in enumerate(counts))
        assert abs(value - (a + b * ROOT6[1])) < 1e-9
        # one vanishing argument, n = 31 - d, for each shift d past 31 - window
        assert skipped == sum(d > 31 - window for d in shifts)
        assert sum(counts) + skipped == max(window - 1, 0)


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        shifts = tuple(sorted(int(d) for d in rng.choice(31, size=k, replace=False)))
        ms = tuple(int(m) for m in rng.integers(1, 6, size=k))
        window = int(rng.integers(2, 32))
        a = one_sum(P31, ms, shifts, window)
        b = one_sum(P31, tuple(6 - m for m in ms), shifts, window)
        assert a == reference_sum(P31, ms, shifts, window)
        assert b == reference_sum(P31, tuple(6 - m for m in ms), shifts, window)
        assert b == zeta6_conj(a)
        assert zeta6_norm_sq(a) == zeta6_norm_sq(b)


def test_weil_complete_exhaustive_p13():
    for k in (1, 2):
        batch = list(product(range(1, 6), repeat=k))
        tuples = list(combinations(range(13), k))
        ok = weil_verdicts(P13, batch, tuples, 13)
        assert ok.shape == (len(tuples), len(batch))
        assert ok.all(), [tuples[t] for t in np.flatnonzero(~ok.all(axis=1))]


def test_weil_example_bound():
    value = one_sum(P13, (1, 1), (0, 1), 13)
    assert math.sqrt(zeta6_norm_sq(value)) <= math.sqrt(13) + 2


def test_weil_incomplete_random_p31():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        shifts = tuple(sorted(int(d) for d in rng.choice(31, size=k, replace=False)))
        ms = tuple(int(m) for m in rng.integers(1, 6, size=k))
        window = int(rng.integers(2, 32))
        assert weil_verdicts(P31, [ms], [shifts], window).tolist() == [[True]]


# Hall's coefficients c_1..c_5 of (-1)**h_n = sum_j c_j chi**j(n), once a
# hand-entered table of the expansion: (a, b) is (a + b*w)/3
HALL_COEFFS = {1: (-1, 1), 2: (-2, 1), 3: (1, 0), 4: (-1, -1), 5: (0, -1)}


def test_factor_coefficients_reproduce_sign():
    # the derived coefficients are the hand table, with c_0 = 0 (Hall's set is
    # balanced), and sum_j c_j chi^j(n) == (-1)**h_n at every n != 0
    nums, d = sign_coefficients(*CLASS_SETS["hall"])
    assert (nums[0], d) == ((0, 0), 3)
    assert dict(zip(range(1, 6), nums[1:])) == HALL_COEFFS
    w = ROOT6[1]
    h = hall_sequence(P13, 13).bits
    for n in range(1, 13):
        ind = int(P13.index_table[n])
        total = 0j
        for j, (a, b) in HALL_COEFFS.items():
            total += (a + b * w) / 3 * ROOT6[(j * ind) % 6]
        assert abs(total - (-1) ** int(h[n])) < 1e-9


def direct_signed_sum(params, shifts, window):
    """sum_{n=1}^{window-1} prod_i (-1)**h_{n+d_i}, skipping n with a vanishing argument.

    The independent side of the reconstruction check: computed from coset
    membership alone, no characters involved.
    """
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


def expansion_value(params, shifts, window):
    """(a, b, d): the correlation sum sum_{n=1}^{window-1} prod_i (-1)**h_{n+d_i}
    as (a + b*w)/d, d = 3**k, by the paper's route to Theorem 1.

    Per factor, (-1)**h_n = sum_{j=1}^{5} c_j chi^j(n) with Hall's coefficients
    from `sign_coefficients`, exact over the denominator 3 (c_0 = 0, as Hall's
    class set is balanced).  The product of the k factors is a sum over the
    5**k exponent rows of the rows' coefficient products times their
    character sums, the kernel's exact sums.
    """
    nums, d = sign_coefficients(*CLASS_SETS["hall"])
    rows = list(product(range(1, 6), repeat=len(shifts)))
    coeffs = [reduce(zeta6_mul, (nums[j] for j in ms), (1, 0)) for ms in rows]
    sums = exact_sums(params, rows, [shifts], window)[0]
    a, b = zeta6_mul(np.array(coeffs).T, sums.T)
    return int(a.sum()), int(b.sum()), d ** len(shifts)


def test_reconstruction_exact_seeded():
    rng = np.random.default_rng(6)
    for params in (P13, P31):
        for k in (1, 2):
            for _ in range(25):
                shifts = tuple(sorted(int(d) for d in rng.choice(params.p, size=k, replace=False)))
                window = int(rng.integers(2, params.p + 1))
                a, b, d = expansion_value(params, shifts, window)
                assert b == 0 and d == 3**k
                assert a == d * direct_signed_sum(params, shifts, window)
