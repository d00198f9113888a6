import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq.charsum import (
    FACTOR_COEFFS,
    ROOT6,
    CharSumQuery,
    CorrelationExpansion,
    character_sum,
    direct_signed_sum,
    expand_correlation_to_charsums,
    phase_counts,
    weil_check,
    weil_verdicts,
    zeta6_conj,
    zeta6_mul,
    zeta6_norm_sq,
)
from cycloseq.errors import DegenerateCharacter, ParameterError
from cycloseq.ntheory import SexticParams
from cycloseq.seqgen import hall_sequence

P13 = SexticParams.create(13, g=2)
P31 = SexticParams.create(31, g=3)


SEXTIC = {p: SexticParams.create(p) for p in (7, 13, 19, 31, 37, 43)}


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
    counts, skipped = phase_counts(params, batch, shifts, window)
    assert counts.shape == (len(batch), 6)
    for row, ms in zip(counts, batch):
        ref_counts, ref_skipped = _character_sum_reference(params, ms, shifts, window)
        assert row.tolist() == ref_counts
        assert skipped == ref_skipped


def test_phase_counts_shape_mismatch():
    with pytest.raises(ParameterError):
        phase_counts(P13, [(1, 2)], (0,), 13)


def test_weil_verdicts_match_weil_check():
    for k in (1, 2):
        batch = list(product(range(1, 6), repeat=k))
        for shifts in ((0, 5)[:k], (3, 12)[:k]):
            for window in (2, 7, 13):
                ok = weil_verdicts(P13, batch, shifts, window)
                ref = [
                    weil_check(
                        CharSumQuery(params=P13, exponents=ms, shifts=shifts, window=window)
                    ).satisfied
                    for ms in batch
                ]
                assert ok.tolist() == ref
    with pytest.raises(DegenerateCharacter):
        weil_verdicts(P13, [(1,), (6,)], (0,), 13)


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
    with pytest.raises(ParameterError):
        CharSumQuery(params=P13, exponents=(6,), shifts=(0,), window=13)  # m=6 invalid
    with pytest.raises(ParameterError):
        CharSumQuery(params=P13, exponents=(0,), shifts=(0,), window=13)
    with pytest.raises(ParameterError):
        CharSumQuery(params=P13, exponents=(1, 1), shifts=(1, 1), window=13)
    with pytest.raises(ParameterError):
        CharSumQuery(params=P13, exponents=(1,), shifts=(0,), window=14)
    with pytest.raises(ParameterError):
        CharSumQuery(params=P13, exponents=(1, 2), shifts=(0,), window=13)


def test_complete_single_character_sums_vanish():
    # orthogonality: sum over 1..p-1 of chi^m is exactly zero
    for params in (P13, P31):
        for m in range(1, 6):
            v = character_sum(
                CharSumQuery(params=params, exponents=(m,), shifts=(0,), window=params.p)
            )
            assert v.reduced == (0, 0)
            assert abs(v.value) < 1e-6 * params.p


def test_float_matches_exact_representation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        shifts = tuple(sorted(int(d) for d in rng.choice(31, size=k, replace=False)))
        ms = tuple(int(m) for m in rng.integers(1, 6, size=k))
        window = int(rng.integers(1, 32))
        v = character_sum(CharSumQuery(params=P31, exponents=ms, shifts=shifts, window=window))
        a, b = v.reduced
        assert abs(v.value - (a + b * ROOT6[1])) < 1e-9
        assert sum(v.counts) + v.skipped == max(window - 1, 0)


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        shifts = tuple(sorted(int(d) for d in rng.choice(31, size=k, replace=False)))
        ms = tuple(int(m) for m in rng.integers(1, 6, size=k))
        window = int(rng.integers(2, 32))
        a = character_sum(CharSumQuery(params=P31, exponents=ms, shifts=shifts, window=window))
        b = character_sum(
            CharSumQuery(
                params=P31, exponents=tuple(6 - m for m in ms), shifts=shifts, window=window
            )
        )
        assert b.reduced == zeta6_conj(a.reduced)
        assert zeta6_norm_sq(a.reduced) == zeta6_norm_sq(b.reduced)


def test_weil_complete_exhaustive_p13():
    for k in (1, 2):
        for shifts in combinations(range(13), k):
            for ms in product(range(1, 6), repeat=k):
                ev = weil_check(
                    CharSumQuery(params=P13, exponents=ms, shifts=shifts, window=13)
                )
                assert ev.satisfied, (shifts, ms)


def test_weil_example_bound():
    q = CharSumQuery(params=P13, exponents=(1, 1), shifts=(0, 1), window=13)
    v = character_sum(q)
    assert v.magnitude <= math.sqrt(13) + 2


def test_weil_incomplete_random_p31():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        shifts = tuple(sorted(int(d) for d in rng.choice(31, size=k, replace=False)))
        ms = tuple(int(m) for m in rng.integers(1, 6, size=k))
        window = int(rng.integers(2, 32))
        ev = weil_check(CharSumQuery(params=P31, exponents=ms, shifts=shifts, window=window))
        assert ev.satisfied


def test_degenerate_character_guard():
    q = CharSumQuery(params=P13, exponents=(1,), shifts=(0,), window=13)
    principal = CharSumQuery.__new__(CharSumQuery)
    object.__setattr__(principal, "params", P13)
    object.__setattr__(principal, "exponents", (6,))
    object.__setattr__(principal, "shifts", (0,))
    object.__setattr__(principal, "window", 13)
    with pytest.raises(DegenerateCharacter):
        weil_check(principal)
    assert weil_check(q).name == "weil"


def test_factor_coefficients_reproduce_sign():
    # per-factor identity: sum_m coeff_m * chi^m(n) == (-1)**h_n, n != 0
    w = ROOT6[1]
    h = hall_sequence(P13, 13).bits
    for n in range(1, 13):
        ind = P13.ind(n)
        total = 0j
        for m, (a, b) in FACTOR_COEFFS.items():
            total += (a + b * w) / 3 * ROOT6[(m * ind) % 6]
        assert abs(total - (-1) ** int(h[n])) < 1e-9


def test_expansion_term_counts():
    for k in (1, 2):
        exp = expand_correlation_to_charsums(P13, tuple(range(k)), 13)
        assert len(exp.terms) == exp.merged_count == 5**k
        assert exp.unmerged_count == 7**k
        assert len(exp.terms) <= 7**k
        assert exp.denominator == 3**k


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


def test_reconstruction_complex_path():
    exp = expand_correlation_to_charsums(P13, (0,), 13)
    direct = direct_signed_sum(P13, (0,), 13)
    assert abs(exp.evaluate_complex() - direct) < 1e-9
