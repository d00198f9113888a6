"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the recorded (reported-not-asserted) observations.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cycloseq.bounds import (
    check_bw06,
    check_iw17,
    difference_set_check,
    random_baseline,
    theorem1_kernel,
)
from cycloseq.errors import NoSuchRoot
from cycloseq.measures import (
    berlekamp_massey_profile,
    correlation_measure_exact,
    max_order_complexity_profile,
    periodic_autocorrelation,
    two_adic_complexity,
)
from cycloseq.ntheory import (
    SexticParams,
    find_primitive_root,
    is_prime,
    zeta6_norm_sq,
)
from cycloseq.seqgen import (
    BitSequence,
    check_index_representation,
    dhl_sequence,
    hall_sequence,
    hall_sequence_via_characters,
    legendre_sequence,
)
from test_charsum import direct_signed_sum, exact_sums, expansion_value, reference_sum
from test_measures import max_order_complexity_naive

SEXTIC_PRIMES_499 = [p for p in range(7, 500) if is_prime(p) and p % 6 == 1]
PRIMES_101 = [p for p in range(3, 102) if is_prime(p)]
HEADLINE_PRIMES = (13, 31, 43, 127)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {title}")
        raise
    print(f"[PASS] criterion {num:2d}: {title}")


def hall_params(p):
    """three-in-c1 where satisfiable (the ideal-autocorrelation choice), else smallest."""
    try:
        return SexticParams.create(p, "three-in-c1")
    except NoSuchRoot:
        return SexticParams.create(p, "smallest")


def both_policy_params(p):
    out = [SexticParams.create(p, "smallest")]
    try:
        constrained = SexticParams.create(p, "three-in-c1")
        if constrained.g != out[0].g:
            out.append(constrained)
    except NoSuchRoot:
        pass
    return out


def test_criterion_01_ideal_two_level_autocorrelation():
    with criterion(1, "ideal two-level autocorrelation for p in {31, 43, 127}"):
        for p, lam in ((31, 7), (43, 10), (127, 31)):
            t0 = time.monotonic()
            params = SexticParams.create(p, "three-in-c1")
            seq = hall_sequence(params, p)
            assert all(periodic_autocorrelation(seq, t) == -1 for t in range(1, p))
            rep = difference_set_check(params)
            assert rep.lambda_value == lam == (p - 3) // 4
            assert time.monotonic() - t0 < 1.0


def test_criterion_02_cross_construction_identity():
    with criterion(2, "hall == hall-via-characters, p <= 499, both g policies"):
        checked = skipped = 0
        for p in SEXTIC_PRIMES_499:
            for policy in ("smallest", "three-in-c1"):
                try:
                    params = SexticParams.create(p, policy)
                except NoSuchRoot:
                    skipped += 1  # constraint unsatisfiable for this p
                    continue
                a = hall_sequence(params, p)
                b = hall_sequence_via_characters(params, p)
                assert np.array_equal(a.bits, b.bits), (p, policy)
                checked += 1
        assert checked >= 2 * len(SEXTIC_PRIMES_499) - skipped
        print(f"        ({checked} instances bit-identical, {skipped} NoSuchRoot skips)")


def test_criterion_03_exact_correlation_values():
    with criterion(3, "C_1(Hall 13) = 4 and C_2(Hall 31) = 6 (frozen), within kernel"):
        c1 = correlation_measure_exact(hall_sequence(SexticParams.create(13, g=2), 13), 1)
        assert c1.value == 4 and c1.exhaustive
        c2 = correlation_measure_exact(hall_sequence(SexticParams.create(31, g=3), 31), 2)
        assert c2.value == 6 and c2.exhaustive  # regression constant from first run
        assert c1.value <= theorem1_kernel(1, 13)
        assert c2.value <= theorem1_kernel(2, 31)


def test_criterion_04_theorem1_trend_k2():
    with criterion(4, "C_2(Hall) <= kernel for every sextic prime 13 <= p <= 499"):
        max_ratio, argmax = 0.0, None
        for p in SEXTIC_PRIMES_499:
            if p < 13:
                continue
            params = SexticParams.create(p, "smallest")
            value = correlation_measure_exact(hall_sequence(params, p), 2).value
            assert value <= theorem1_kernel(2, p), (p, value)
            ratio = value / (math.sqrt(p) * math.log(p))
            if ratio > max_ratio:
                max_ratio, argmax = ratio, p
        print(f"        (max ratio C_2/(sqrt(p) ln p) = {max_ratio:.3f} at p={argmax};"
              " reported, constant not asserted)")


def test_criterion_05_inequality_suites_p101():
    with criterion(5, "IW17/BW06 hold and M <= L on Hall/Legendre/DHL, p <= 101"):
        resolved_true = 0
        for p in PRIMES_101:
            seqs = []
            if p % 6 == 1:
                seqs.append(hall_sequence(SexticParams.create(p, "smallest"), p))
            seqs.append(legendre_sequence(p, p))
            if p % 4 == 1:
                seqs.append(dhl_sequence(p, find_primitive_root(p), p))
            for seq in seqs:
                if seq.length < 2:
                    continue
                iw = check_iw17(seq)
                assert iw.satisfied is True, (p, seq.label, iw)
                bw = check_bw06(seq)
                assert bw.satisfied is True, (p, seq.label, bw)
                resolved_true += 1
                # M <= L at every prefix length, one and two periods
                for n in (p, 2 * p):
                    long = BitSequence.create(
                        np.resize(seq.bits, n), period=seq.period, label=seq.label
                    ) if n > seq.length else seq
                    moc = max_order_complexity_profile(long).values
                    lc = berlekamp_massey_profile(long).values
                    assert all(m <= l for m, l in zip(moc[1:], lc[1:])), (p, seq.label, n)
        print(f"        (bw06 resolved on all {resolved_true} instances)")


def test_criterion_06_moc_oracle_equivalence():
    with criterion(6, "suffix-automaton MOC == naive oracle (200 words + Hall 2p)"):
        rng = np.random.default_rng(20260810)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            word = BitSequence.create(rng.integers(0, 2, size=n, dtype=np.uint8))
            assert (
                max_order_complexity_profile(word).values
                == max_order_complexity_naive(word).values
            )
        for p in PRIMES_101:
            if p % 6 != 1:
                continue
            seq = hall_sequence(SexticParams.create(p, "smallest"), 2 * p)
            assert (
                max_order_complexity_profile(seq).values
                == max_order_complexity_naive(seq).values
            )


def test_criterion_07_bm_conventions_and_hall_lc():
    with criterion(7, "BM conventions; L(Hall p, 2p) recorded + BW06-consistent"):
        assert berlekamp_massey_profile(BitSequence.create([0, 0, 0, 0])).values == (0, 0, 0, 0)
        assert berlekamp_massey_profile(BitSequence.create([0, 0, 0, 1])).values[3] == 4
        for p in HEADLINE_PRIMES:
            seq = hall_sequence(hall_params(p), 2 * p)
            lc = berlekamp_massey_profile(seq).final
            print(f"        (L(Hall {p}, {2 * p}) = {lc}; L >= p/2: {lc >= p / 2})")
            ev = check_bw06(seq)
            # BM's own witness certifies the inequality, also at p = 127
            # where exact C_k beyond k = 3 is out of budget at N = 254
            assert ev.satisfied is True, (p, ev)
            assert ev.inputs["mode"] == "certified-witness", (p, ev)


def test_criterion_08_two_adic_maximal():
    with criterion(8, "gcd(S(2), 2^p - 1) = 1 for Hall p in {13, 31, 43, 127}"):
        for p in HEADLINE_PRIMES:
            rep = two_adic_complexity(hall_sequence(hall_params(p), p))
            assert rep.gcd_value == 1 and rep.is_maximal, p
            if p == 13:
                assert rep.numerator == 6438
                assert rep.modulus == 8191


def test_criterion_09_charsum_reconstruction_and_weil():
    with criterion(9, "charsum expansion reconstructs correlation sums exactly"):
        rng = np.random.default_rng(77)
        for p, g in ((13, 2), (31, 3)):
            params = SexticParams.create(p, g=g)
            for k in (1, 2):
                for _ in range(50):
                    shifts = tuple(
                        sorted(int(d) for d in rng.choice(p, size=k, replace=False))
                    )
                    window = int(rng.integers(2, p + 1))
                    a, b, d = expansion_value(params, shifts, window)
                    assert b == 0 and d == 3**k
                    assert a == d * direct_signed_sum(params, shifts, window)
            # complete sums: exact Weil bound, all shift/exponent combos
            from itertools import combinations, product

            for k in (1, 2):
                bound_sq = ((k - 1) * math.sqrt(p) + k) ** 2
                batch = list(product(range(1, 6), repeat=k))
                tuples = list(combinations(range(p), k))
                sums = exact_sums(params, batch, tuples, p)
                assert sums.shape == (len(tuples), len(batch), 2)
                for shifts, rows in zip(tuples, sums):
                    for row, ms in zip(rows, batch):
                        norm_sq = zeta6_norm_sq(row)
                        assert norm_sq <= bound_sq + 1e-9, (p, shifts, ms)
                # the reference loop agrees at the first and the last tuple
                for t in (0, -1):
                    for row, ms in zip(sums[t], batch):
                        assert tuple(row.tolist()) == reference_sum(params, ms, tuples[t], p)


def test_criterion_10_random_baseline():
    with criterion(10, "mean C_2/sqrt(N ln N) over 100 random words in [0.5, 3.0]"):
        stats = random_baseline(256, 2, trials=100, rng_seed=20260810)
        assert 0.5 <= stats["mean_ratio"] <= 3.0
        print(f"        (mean ratio = {stats['mean_ratio']:.3f}, max = {stats['max_ratio']:.3f})")


def test_criterion_11_known_small_sequences():
    with criterion(11, "Legendre p=7 and DHL p=5 match their known forms"):
        leg = legendre_sequence(7, 7)
        assert leg.to01() == "0110100"
        assert all(periodic_autocorrelation(leg, t) == -1 for t in range(1, 7))
        dhl = dhl_sequence(5, 2, 5)
        assert dhl.to01() == "01100"
        out_of_phase = {periodic_autocorrelation(dhl, t) for t in range(1, 5)}
        assert out_of_phase == {1, -3}  # optimum three-level autocorrelation


def test_criterion_12_index_representation_identity():
    with criterion(12, "index representation via f holds, p <= 499, both policies"):
        checked = 0
        for p in SEXTIC_PRIMES_499:
            for params in both_policy_params(p):
                assert check_index_representation(params), (p, params.g)
                checked += 1
        assert checked >= len(SEXTIC_PRIMES_499)
        print(f"        ({checked} (p, g) instances verified)")
