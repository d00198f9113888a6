import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq.bounds import (
    _class_differences,
    check_bw06,
    check_iw17,
    corollary1_kernel,
    difference_set_check,
    random_baseline,
    theorem1_kernel,
)
from cycloseq.errors import NoSuchRoot, ParameterError
from cycloseq.measures import correlation_measure_exact, periodic_autocorrelations
from cycloseq.ntheory import G_POLICIES, PrimeParams, SexticParams, cyclotomic_numbers, is_prime
from cycloseq.seqgen import BitSequence, cyclotomic_sequence, hall_sequence


def test_theorem1_kernel_values():
    assert theorem1_kernel(1, 13) == pytest.approx((14 / 3) * math.sqrt(13) * math.log(13))
    assert theorem1_kernel(1, 13) == pytest.approx(43.158, abs=5e-3)
    assert theorem1_kernel(2, 31) == pytest.approx(832.77, abs=5e-2)
    assert theorem1_kernel(2, 31) == pytest.approx(
        (14 / 3) ** 2 * 2 * math.sqrt(31) * math.log(31)
    )


def test_theorem1_kernel_monotone():
    for k in (1, 2, 3):
        for p, q in ((13, 31), (31, 127)):
            assert theorem1_kernel(k, p) < theorem1_kernel(k, q)
            assert theorem1_kernel(k, p) < theorem1_kernel(k + 1, p)


def test_corollary1_kernel():
    # min resolves to p when N >= p
    p = 10**6 + 3
    assert corollary1_kernel(2 * p, p) == pytest.approx(
        math.log(p / (math.sqrt(p) * math.log(p) ** 2))
    )
    assert corollary1_kernel(1, 13) < 0  # vacuous
    # at the threshold N = sqrt(p) log^3 p the kernel is log log p
    p = 10**9 + 7
    n = int(math.sqrt(p) * math.log(p) ** 3)
    assert corollary1_kernel(n, p) == pytest.approx(math.log(math.log(p)), rel=1e-6)


def test_kernel_validation():
    with pytest.raises(ParameterError):
        theorem1_kernel(0, 13)
    with pytest.raises(ParameterError):
        corollary1_kernel(0, 13)


def test_iw17_all_zero_trivial():
    seq = BitSequence.create([0] * 12)
    ev = check_iw17(seq, 12)
    assert ev.satisfied is True
    assert ev.inputs["M"] == 1
    # RHS = N - 2**2 * C_1 = 12 - 4*12 < 0
    assert ev.inputs["rhs"] < 0


def test_iw17_hall_examples():
    for p, g in ((13, 2), (31, 3)):
        params = SexticParams.create(p, g=g)
        ev = check_iw17(hall_sequence(params, p), p)
        assert ev.satisfied is True


def test_bw06_all_zero_equality():
    seq = BitSequence.create([0] * 9)
    ev = check_bw06(seq, 9)
    assert ev.satisfied is True
    assert ev.inputs["L"] == 0
    assert ev.inputs["rhs"] == 0
    assert ev.inputs["mode"] == "certified-witness"


def test_bw06_alternating():
    seq = BitSequence.create([0, 1] * 5)
    ev = check_bw06(seq, 10)
    # L = 2 and C(x) = 1 + x^2: D = {0, 2} walks to 8 = N - L, so RHS = 2 <= 2
    assert ev.satisfied is True
    assert ev.inputs["L"] == 2
    assert ev.inputs["D"] == (0, 2) and ev.inputs["v"] == 8
    assert ev.inputs["rhs"] == 2


def test_bw06_hall13():
    params = SexticParams.create(13, g=2)
    ev = check_bw06(hall_sequence(params, 13), 13)
    assert ev.satisfied is True


def test_bw06_witness_beyond_cap():
    # L + 1 = 23 is far beyond exact C_k at N = 254; BM's connection
    # polynomial names 10 shifts whose walk reaches N - L = 232
    params = SexticParams.create(127, g=3)
    seq = hall_sequence(params, 254)
    ev = check_bw06(seq, 254)
    assert ev.satisfied is True
    assert ev.inputs["mode"] == "certified-witness"
    assert ev.inputs["L"] == 22 and ev.inputs["w"] == 10
    assert ev.inputs["v"] >= 232 == 254 - 22
    assert ev.inputs["rhs"] == 254 - ev.inputs["v"] <= 22


def _assert_bw06_witness(bits):
    """The witness against plain Python: each recurrence, then the walk and exact C_w."""
    n = len(bits)
    seq = BitSequence.create(bits)
    ev = check_bw06(seq, n)
    lc, D, w, v = (ev.inputs[key] for key in ("L", "D", "w", "v"))
    assert ev.satisfied is True
    assert w == len(D) <= lc + 1 and D == tuple(sorted(set(D))) and D[0] >= 0 and D[-1] == lc
    for m in range(n - lc):
        assert sum(bits[m + d] for d in D) % 2 == 0, (bits, D, m)
    if lc < n:
        assert v >= n - lc
        assert correlation_measure_exact(seq, w).value >= v
    else:
        assert v == 0  # D reaches past the word; C_1 >= 1 settles it
    assert ev.inputs["mode"] == "certified-witness"
    assert ev.inputs["rhs"] == n - v <= lc
    return ev


@st.composite
def biased_bits(draw, max_size):
    """Words whose density of ones is drawn first, so long runs are common."""
    n = draw(st.integers(1, max_size))
    ones = draw(st.integers(0, 8))
    draws = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    return [int(d < ones) for d in draws]


@settings(max_examples=300, deadline=None)
@given(biased_bits(16))
def test_bw06_witness_oracle(bits):
    _assert_bw06_witness(bits)


@pytest.mark.parametrize(
    "bits, lc",
    [
        ([0], 0),
        ([1], 1),  # N = 1, L = N
        ([0] * 9, 0),
        ([0] * 3 + [1], 4),  # 0...01: L = N
        ([0] * 9 + [1], 10),  # L = N = 10: no walk at all
        ([1, 0], 1),  # L = N - 1, C(x) = 1: D = {1}
        ([1] + [0] * 8, 1),
        ([0, 0, 1, 1], 3),  # L = N - 1
    ],
)
def test_bw06_witness_edge_cases(bits, lc):
    assert _assert_bw06_witness(bits).inputs["L"] == lc


def test_difference_set_hall_primes():
    for p, lam in ((31, 7), (43, 10), (127, 31)):
        params = SexticParams.create(p, "three-in-c1")
        rep = difference_set_check(params)
        assert rep.lambda_value == lam == (p - 3) // 4
        assert rep.two_level_ideal
        assert rep.hall_form_u is not None and 4 * rep.hall_form_u**2 + 27 == p
        assert rep.three_in_c1


def test_difference_set_p13_negative():
    rep = difference_set_check(SexticParams.create(13, g=2))
    assert rep.lambda_value is None
    assert not rep.two_level_ideal
    assert rep.hall_form_u is None  # 13 != 4u^2 + 27


def test_lambda_autocorr_relation():
    # A(t) = p - 4*(|H| - lambda(t)) ties the two verdicts together; lambda(t)
    # is counted pair by pair, A(t) is the library's
    for p in (13, 31):
        params = SexticParams.create(p, "smallest")
        seq = hall_sequence(params, p)
        h = seq.bits.tolist()
        lams = [sum(h[n] * h[(n + t) % p] for n in range(p)) for t in range(1, p)]
        acs = periodic_autocorrelations(seq).tolist()
        for lam, ac in zip(lams, acs):
            assert ac == p - 4 * ((p - 1) // 2 - lam)
        rep = difference_set_check(params)
        assert rep.lambda_value == (lams[0] if len(set(lams)) == 1 else None)
        assert rep.two_level_ideal == (set(acs) == {-1})


def correlate_pair(seq):
    """lambda(t) and A(t) for t = 1..p-1 (entry t - 1) by two O(p^2) correlations:
    the 0/1 indicator against itself doubled, and `periodic_autocorrelations`."""
    h = seq.bits.astype(np.int64)
    lambdas = np.correlate(np.concatenate([h, h[:-1]]), h, "valid")[1:]
    return lambdas, periodic_autocorrelations(seq)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([p for p in range(5, 400) if is_prime(p)]), st.booleans())
def test_class_differences_match_the_correlations(p, largest_root):
    # every t, every nonempty proper class set of each order m in {2, 4, 6}
    # dividing p - 1, under the smallest or the largest primitive root
    params = PrimeParams.create(p)
    if largest_root:
        g = next(g for g in range(p - 1, 1, -1)
                 if math.gcd(int(params.index_table[g]), p - 1) == 1)
        params = PrimeParams.create(p, g=g)
    for m in (m for m in (2, 4, 6) if (p - 1) % m == 0):
        cyc = cyclotomic_numbers(params, m)
        h = params.index_table[1:] % m  # the class of t, entry t - 1
        for size in range(1, m):
            for classes in combinations(range(m), size):
                lam, autocorr = _class_differences(p, cyc, classes)
                lambdas, autocorrs = correlate_pair(cyclotomic_sequence(params, m, classes, p))
                assert np.array_equal(lam[h], lambdas), (p, m, classes)
                assert np.array_equal(autocorr[h], autocorrs), (p, m, classes)


SEXTIC_PRIMES_1500 = [p for p in range(7, 1500, 6) if is_prime(p)]


def test_difference_set_check_matches_the_correlations():
    # Hall's report at every p = 1 (mod 6) below 1500 under both policies,
    # against the correlate pair: constant lambda, A(t) = -1 for every t
    checked = 0
    for p in SEXTIC_PRIMES_1500:
        for policy in G_POLICIES:
            try:
                params = SexticParams.create(p, policy)
            except NoSuchRoot:
                continue
            lambdas, autocorrs = correlate_pair(hall_sequence(params, p))
            rep = difference_set_check(params)
            constant = bool((lambdas == lambdas[0]).all())
            assert rep.lambda_value == (int(lambdas[0]) if constant else None), (p, policy)
            assert rep.two_level_ideal == bool((autocorrs == -1).all()), (p, policy)
            assert rep.three_in_c1 == (params.index_table[3] % 6 == 1)
            checked += 1
    assert checked > len(SEXTIC_PRIMES_1500)


def test_baseline_trivial():
    st = random_baseline(1, 1, trials=5, rng_seed=1)
    assert st.values == (1, 1, 1, 1, 1)


def test_baseline_deterministic():
    a = random_baseline(64, 2, trials=5, rng_seed=11)
    b = random_baseline(64, 2, trials=5, rng_seed=11)
    assert a == b


def test_baseline_band_n256():
    st = random_baseline(256, 2, trials=20, rng_seed=3)
    ratios = [v / math.sqrt(256 * math.log(256)) for v in st.values]
    assert 0.5 <= st.mean_ratio <= 3.0
    assert st.mean_ratio == pytest.approx(sum(ratios) / 20) and st.max_ratio == max(ratios)
    assert min(ratios) <= st.quartiles[0] <= st.quartiles[1] <= st.quartiles[2] <= max(ratios)


def test_corollary1_positive_implies_moc_at_least_one():
    # desk-scale primes make the kernel negative (vacuous); the implication
    # kernel > 0 => M >= 1 is then trivially respected, and M >= 1 anyway
    for p in (13, 31, 127):
        assert corollary1_kernel(p, p) < 0
        params = SexticParams.create(p)
        from cycloseq.measures import max_order_complexity_profile

        assert max_order_complexity_profile(hall_sequence(params, p)).final >= 1
