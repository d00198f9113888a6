import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import bounds
from cycloseq.bounds import (
    _class_differences,
    _witness_value,
    check_bw06,
    check_iw17,
    difference_set_check,
    random_baseline,
    theorem1_kernel,
)
from cycloseq.errors import InvariantViolation, NoSuchRoot, ParameterError
from cycloseq.measures import (
    berlekamp_massey_profile,
    correlation_measure_exact,
    periodic_autocorrelations,
)
from cycloseq.ntheory import G_POLICIES, PrimeParams, SexticParams, cyclotomic_numbers, is_prime
from cycloseq.seqgen import BitSequence, cyclotomic_sequence, hall_sequence
from test_measures import _walk_reference, brute_force_ck, max_order_complexity_naive


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


def test_kernel_validation():
    with pytest.raises(ParameterError):
        theorem1_kernel(0, 13)


def test_iw17_all_zero_trivial():
    seq = BitSequence.create([0] * 12)
    ev = check_iw17(seq)
    assert ev.satisfied is True
    assert ev.inputs["M"] == 1
    # windows 0 and 1 repeat: D = (0, 1) walks to 11, so RHS = 12 - 2**2 * 11 < 0
    assert ev.inputs["D"] == (0, 1) and ev.inputs["v"] == 11
    assert ev.inputs["rhs"] == 12 - 4 * 11


def test_iw17_hall_examples():
    for p, g in ((13, 2), (31, 3)):
        params = SexticParams.create(p, g=g)
        ev = check_iw17(hall_sequence(params, p))
        assert ev.satisfied is True


def test_iw17_needs_two_bits():
    with pytest.raises(ParameterError, match="N >= 2"):
        check_iw17(BitSequence.create([1]))


@pytest.mark.parametrize(
    "period, n, shifts, v",
    [
        ("01", 5000, (0, 2), 4998),
        ("0000111101100101", 20000, (0, 16), 19984),  # every 4-bit window once a period
    ],
)
def test_iw17_settles_low_complexity_words(period, n, shifts, v):
    # long words of short period: one walk of the register's repeat settles them
    seq = BitSequence.create(np.resize([int(b) for b in period], n))
    ev = check_iw17(seq)
    assert ev.satisfied is True
    assert ev.inputs["mode"] == "certified-witness"
    assert (ev.inputs["D"], ev.inputs["v"]) == (shifts, v)


def _assert_iw17_witness(bits):
    """The certificate against plain Python: the repeated windows, the recurrence
    they start, the walk and exact C_2, and the branch taken."""
    n = len(bits)
    seq = BitSequence.create(bits)
    ev = check_iw17(seq)
    m, D, v, rhs = (ev.inputs[key] for key in ("M", "D", "v", "rhs"))
    assert m == max_order_complexity_naive(seq).final
    trivial = 2 ** (m + 1) >= n - m
    assert (D == (0,)) == trivial
    if trivial:
        assert v == 1  # C_1 >= 1
    else:
        i, j = D
        assert i < j <= 2**m and bits[i : i + m] == bits[j : j + m]
        for k in range(n - j):
            assert bits[k + i] == bits[k + j], (bits, D, k)
        assert v >= n - j
        assert correlation_measure_exact(seq, 2).value >= v
    assert ev.inputs["w"] == len(D) and ev.inputs["mode"] == "certified-witness"
    assert rhs == n - 2 ** (m + 1) * v <= m
    assert ev.satisfied is True


def test_bw06_all_zero_equality():
    seq = BitSequence.create([0] * 9)
    ev = check_bw06(seq)
    assert ev.satisfied is True
    assert ev.inputs["L"] == 0
    assert ev.inputs["rhs"] == 0
    assert ev.inputs["mode"] == "certified-witness"


def test_bw06_alternating():
    seq = BitSequence.create([0, 1] * 5)
    ev = check_bw06(seq)
    # L = 2 and C(x) = 1 + x^2: D = {0, 2} walks to 8 = N - L, so RHS = 2 <= 2
    assert ev.satisfied is True
    assert ev.inputs["L"] == 2
    assert ev.inputs["D"] == (0, 2) and ev.inputs["v"] == 8
    assert ev.inputs["rhs"] == 2


def test_bw06_hall13():
    params = SexticParams.create(13, g=2)
    ev = check_bw06(hall_sequence(params, 13))
    assert ev.satisfied is True


def test_bw06_witness_beyond_cap():
    # L + 1 = 23 is far beyond exact C_k at N = 254; BM's connection
    # polynomial names 10 shifts whose walk reaches N - L = 232
    params = SexticParams.create(127, g=3)
    seq = hall_sequence(params, 254)
    ev = check_bw06(seq)
    assert ev.satisfied is True
    assert ev.inputs["mode"] == "certified-witness"
    assert ev.inputs["L"] == 22 and ev.inputs["w"] == 10
    assert ev.inputs["v"] >= 232 == 254 - 22
    assert ev.inputs["rhs"] == 254 - ev.inputs["v"] <= 22


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_bw06_shifts_are_the_scan_of_every_position(data):
    # D off the connection polynomial's binary digits equals the scan of all
    # L + 1 positions it replaced, for any C(x) with c_0 = 1 and degree <= L;
    # the word is L bits long, so no walk reads it
    lc = data.draw(st.integers(1, 300))
    conn = data.draw(st.integers(0, 2**lc - 1)) << 1 | 1
    profile = SimpleNamespace(final=lc, connection=conn)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "berlekamp_massey_profile", lambda seq: profile)
        ev = check_bw06(BitSequence.create(np.zeros(lc, dtype=np.uint8)))
    assert ev.inputs["D"] == tuple(lc - i for i in range(lc, -1, -1) if conn >> i & 1)


def _assert_bw06_witness(bits):
    """The witness against plain Python: each recurrence, then the walk and exact C_w."""
    n = len(bits)
    seq = BitSequence.create(bits)
    ev = check_bw06(seq)
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


@st.composite
def periodic_bits(draw, max_size):
    """A transient, then a period repeated up to a drawn length."""
    transient = draw(st.lists(st.integers(0, 1), max_size=8))
    period = draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    n = draw(st.integers(2, max_size))
    return (transient + period * max_size)[:n]


@settings(max_examples=300, deadline=None)
@given(st.one_of(biased_bits(64), periodic_bits(64)).filter(lambda bits: len(bits) >= 2))
def test_iw17_witness_oracle(bits):
    _assert_iw17_witness(bits)


@settings(max_examples=100, deadline=None)
@given(biased_bits(14).filter(lambda bits: len(bits) >= 2))
def test_iw17_brute_force_oracle(bits):
    # the inequality itself, off the definitions of M and C_k: a maximum over
    # the first k <= M + 1 bounds the full one from below, so the first k
    # whose C_k clears it settles it
    seq = BitSequence.create(bits)
    n, m = len(bits), max_order_complexity_naive(seq).final
    assert any(m >= n - 2 ** (m + 1) * brute_force_ck(seq, k)[0]
               for k in range(1, min(m + 1, n) + 1))


def _assert_witness_value(seq, D):
    """`_witness_value` against the int64 walk of D: N - d_k when every step is
    +1, else InvariantViolation naming the first step that is -1."""
    P = _walk_reference(seq, D)
    steps = np.diff(P, prepend=0)
    if (steps == 1).all():
        assert _witness_value(seq, D, lambda t: f"step {t}") == seq.length - D[-1] == P[-1]
    else:
        with pytest.raises(InvariantViolation, match=f": step {np.argmax(steps < 0)}$"):
            _witness_value(seq, D, lambda t: f"step {t}")


@st.composite
def witness_cases(draw):
    """A biased word of N <= 64 bits (all-zero and all-one at densities 0 and 8)
    with three shift sets: a random sorted one, BM's (when L < N) and the first
    repeat (i, j) of the word's M-bit windows (when one exists)."""
    bits = draw(biased_bits(64))
    n = len(bits)
    w = draw(st.integers(1, n))
    shifts = [tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=w, max_size=w))))]
    seq = BitSequence.create(bits)
    profile = berlekamp_massey_profile(seq)
    lc = profile.final
    if lc < n:
        shifts.append(tuple(lc - i for i in range(lc, -1, -1) if profile.connection >> i & 1))
    if n >= 2:
        m = max_order_complexity_naive(seq).final
        seen = {}
        for j in range(n - m + 1):
            i = seen.setdefault(tuple(bits[j : j + m]), j)
            if i < j:
                shifts.append((i, j))
                break
    return seq, shifts


@settings(max_examples=300, deadline=None)
@given(witness_cases())
def test_witness_value_matches_the_walk_reference(case):
    seq, shifts = case
    for D in shifts:
        _assert_witness_value(seq, D)


def _word_with_broken_steps(head, D, n, broken):
    """The n-bit word that starts with head (d_k bits) and whose sign product
    over D is -1 at exactly the steps in broken: bit n' + d_k is the parity of
    the other shifts' bits, flipped at a broken step n'."""
    bits = list(head)
    for t in range(n - D[-1]):
        bits.append(sum(bits[t + d] for d in D[:-1]) % 2 ^ (t in broken))
    return BitSequence.create(bits)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_witness_value_rejects_a_forged_witness(data):
    # one -1 step at the first, a middle or the last of the N - d_k steps, or
    # every step -1, whose walk still reaches |P| = N - d_k; unbroken, it is accepted
    n = data.draw(st.integers(1, 64))
    w = data.draw(st.integers(1, n))
    D = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=w, max_size=w))))
    steps = n - D[-1]
    head = data.draw(st.lists(st.integers(0, 1), min_size=D[-1], max_size=D[-1]))
    for broken in (set(), {0}, {steps // 2}, {steps - 1}, set(range(steps))):
        seq = _word_with_broken_steps(head, D, n, broken)
        assert set(np.flatnonzero(np.diff(_walk_reference(seq, D), prepend=0) < 0)) == broken
        _assert_witness_value(seq, D)


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
    assert st["values"] == [1, 1, 1, 1, 1]


def test_baseline_deterministic():
    a = random_baseline(64, 2, trials=5, rng_seed=11)
    b = random_baseline(64, 2, trials=5, rng_seed=11)
    assert a == b


def test_baseline_band_n256():
    st = random_baseline(256, 2, trials=20, rng_seed=3)
    ratios = [v / math.sqrt(256 * math.log(256)) for v in st["values"]]
    assert 0.5 <= st["mean_ratio"] <= 3.0
    assert st["mean_ratio"] == pytest.approx(sum(ratios) / 20) and st["max_ratio"] == max(ratios)
    q25, q50, q75 = st["quartiles"]
    assert min(ratios) <= q25 <= q50 <= q75 <= max(ratios)
