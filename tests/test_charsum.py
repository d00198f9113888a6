import cmath
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import charsum
from cycloseq.bounds import difference_set_check
from cycloseq.charsum import (
    direct_signed_sum,
    expand_correlation_to_charsums,
    phase_counts,
    weil_verdicts,
)
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


def zeta6_conj(x):
    """Complex conjugate of a + b*w in Z[w]: conj(w) = 1 - w."""
    a, b = x
    return a + b, -b


def one_sum(params, exponents, shifts, window):
    """(counts, exact a + b*w) of one sum, as a one-row kernel batch."""
    counts = tuple(int(c) for c in phase_counts(params, [exponents], [shifts], window)[0, 0])
    return counts, reduce_zeta6(counts)


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
def test_phase_counts_match_reference(case):
    params, batch, shifts, window = case
    counts = phase_counts(params, batch, [shifts], window)
    assert counts.shape == (1, len(batch), 6)
    for row, ms in zip(counts[0], batch):
        ref_counts, ref_skipped = _character_sum_reference(params, ms, shifts, window)
        assert row.tolist() == ref_counts
        assert window - 1 - row.sum() == ref_skipped


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
        counts = phase_counts(params, exponents, shifts, windows)
        ok = weil_verdicts(params, exponents, shifts, windows)
    T, B = len(shifts), len(exponents)
    assert counts.shape == (T, B, 6) and ok.shape == (T, B)
    for t, (ds, window) in enumerate(zip(shifts, windows)):
        for b, ms in enumerate(exponents):
            ref_counts, ref_skipped = _character_sum_reference(params, ms, ds, window)
            assert counts[t, b].tolist() == ref_counts
            assert window - 1 - counts[t, b].sum() == ref_skipped
            assert ok[t, b] == _reference_bound_ok(params, ms, ds, window)


def test_long_windows_are_summed_in_pieces():
    # windows past _PIECE terms overflow a packed lane unless split; the
    # code-histogram path (k <= 2, and k = 4 at window 200) and the per-term
    # path (k = 4 at window 40, k = 6) are checked against the reference loop
    params = SexticParams.create(2053)
    cases = [((1,), [(0,), (7,)], [2053, 1500]),
             ((2, 5), [(0, 1), (3, 2050)], [2053, 1024]),
             ((1, 2, 3, 4), [(0, 1, 2, 3)], [40]),
             ((1, 2, 3, 4), [(5, 9, 700, 2052)], [200]),
             ((1, 2, 3, 4, 5, 1), [(0, 1, 2, 3, 4, 5), (9, 99, 999, 1999, 2000, 2052)], [1100, 2053])]
    for ms, shifts, windows in cases:
        counts = phase_counts(params, [ms], shifts, windows)
        for t, (ds, window) in enumerate(zip(shifts, windows)):
            ref_counts, ref_skipped = _character_sum_reference(params, ms, ds, window)
            assert counts[t, 0].tolist() == ref_counts
            assert window - 1 - counts[t, 0].sum() == ref_skipped


def test_single_tuple_must_be_a_one_tuple_batch():
    batch = list(product(range(1, 6), repeat=2))
    counts = phase_counts(P31, batch, [(3, 17)], 20)
    assert counts.shape == (1, 25, 6) and counts.dtype == np.int64
    assert weil_verdicts(P31, batch, [(3, 17)], 20).shape == (1, 25)
    # a bare tuple, and exponent rows given per tuple, are refused
    for exponents, shifts in ((batch, (3, 17)), ([batch], [(3, 17)]),
                              ([batch, batch], [(3, 17), (4, 5)])):
        with pytest.raises(ParameterError):
            phase_counts(P31, exponents, shifts, 20)
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
            phase_counts(P13, [(1, 2)], shifts, windows)
        with pytest.raises(ParameterError):
            weil_verdicts(P13, [(1, 2)], shifts, windows)


def test_phase_counts_shape_mismatch():
    with pytest.raises(ParameterError):
        phase_counts(P13, [(1, 2)], [(0,)], 13)


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


def _exact_complete_ok(counts, p, k):
    """A complete sum's verdict by the integer rule: with n the exact norm and
    a = n - (k-1)**2 p - k**2, |sum| <= (k-1) sqrt(p) + k iff a <= 0 or
    a**2 <= 4 k**2 (k-1)**2 p."""
    a = int(zeta6_norm_sq(reduce_zeta6(counts))) - (k - 1) ** 2 * p - k * k
    return a <= 0 or a * a <= 4 * k * k * (k - 1) ** 2 * p


@pytest.mark.parametrize("p,kmax", [(7, 4), (13, 3), (19, 3)])
def test_complete_verdicts_are_exact_and_agree_with_floats(p, kmax):
    # every complete sum at p and k <= kmax: the exact verdicts equal both the
    # integer rule and the float comparison they replaced
    params = SEXTIC[p]
    for k in range(1, kmax + 1):
        batch = list(product(range(1, 6), repeat=k))
        tuples = list(combinations(range(p), k))
        ok = weil_verdicts(params, batch, tuples, p)
        counts = phase_counts(params, batch, tuples, p)
        exact = [[_exact_complete_ok(c, p, k) for c in rows] for rows in counts.tolist()]
        floats = np.sqrt(zeta6_norm_sq(reduce_zeta6(np.moveaxis(counts, -1, 0))))
        assert ok.tolist() == exact
        assert (ok == (floats <= (k - 1) * math.sqrt(p) + k + 1e-9)).all()


P11 = PrimeParams.create(11)  # 6 does not divide p - 1 = 10

SEXTIC_READERS = {
    "phase_counts": lambda: phase_counts(P11, [(1,)], [(0,)], 11),
    "weil_verdicts": lambda: weil_verdicts(P11, [(1,)], [(0,)], 11),
    "expansion": lambda: expand_correlation_to_charsums(P11, (0, 1), 11).evaluate_exact(),
    "direct_signed_sum": lambda: direct_signed_sum(P11, (0, 1), 11),
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
            phase_counts(P13, [exponents], [shifts], window)


def test_complete_single_character_sums_vanish():
    # orthogonality: sum over 1..p-1 of chi^m is exactly zero
    for params in (P13, P31):
        for m in range(1, 6):
            counts, reduced = one_sum(params, (m,), (0,), params.p)
            assert reduced == (0, 0)
            assert abs(sum(c * ROOT6[r] for r, c in enumerate(counts))) < 1e-6 * params.p


def test_float_matches_exact_representation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        shifts = tuple(sorted(int(d) for d in rng.choice(31, size=k, replace=False)))
        ms = tuple(int(m) for m in rng.integers(1, 6, size=k))
        window = int(rng.integers(1, 32))
        counts, (a, b) = one_sum(P31, ms, shifts, window)
        value = sum(c * ROOT6[r] for r, c in enumerate(counts))
        assert abs(value - (a + b * ROOT6[1])) < 1e-9
        # one vanishing argument, n = 31 - d, for each shift d past 31 - window
        skipped = sum(d > 31 - window for d in shifts)
        assert sum(counts) + skipped == max(window - 1, 0)


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        shifts = tuple(sorted(int(d) for d in rng.choice(31, size=k, replace=False)))
        ms = tuple(int(m) for m in rng.integers(1, 6, size=k))
        window = int(rng.integers(2, 32))
        _, a = one_sum(P31, ms, shifts, window)
        _, b = one_sum(P31, tuple(6 - m for m in ms), shifts, window)
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
    _, reduced = one_sum(P13, (1, 1), (0, 1), 13)
    assert math.sqrt(zeta6_norm_sq(reduced)) <= math.sqrt(13) + 2


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


def test_expansion_term_counts():
    for k in (1, 2, 3):
        exp = expand_correlation_to_charsums(P13, tuple(range(k)), 13)
        # every exponent vector over 1..5 exactly once: 5**k merged terms, not 7**k
        assert sorted(exp.exponents) == list(product(range(1, 6), repeat=k))
        assert len(exp.coeffs) == len(exp.exponents) == 5**k
        assert exp.k == k and exp.shifts == tuple(range(k)) and exp.window == 13
        assert exp.denominator == 3**k


def test_expansion_refuses_bad_shifts_and_window():
    for shifts, window in (((), 13), ((2, 1), 13), ((0, 13), 13), ((0,), 14), ((0,), 0)):
        with pytest.raises(ParameterError):
            expand_correlation_to_charsums(P13, shifts, window)


def test_reconstruction_exact_seeded():
    rng = np.random.default_rng(6)
    for params in (P13, P31):
        for k in (1, 2):
            for _ in range(25):
                shifts = tuple(sorted(int(d) for d in rng.choice(params.p, size=k, replace=False)))
                window = int(rng.integers(2, params.p + 1))
                exp = expand_correlation_to_charsums(params, shifts, window)
                a, b = exp.evaluate_exact()
                direct = direct_signed_sum(params, shifts, window)
                assert b == 0
                assert a == exp.denominator * direct
