from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycloseq.errors import InvariantViolation, NoSuchRoot, ParameterError
from cycloseq.ntheory import PrimeParams, SexticParams, is_prime, is_primitive_root, reduce_zeta6
from cycloseq.seqgen import (
    CLASS_SETS,
    BitSequence,
    check_index_representation,
    cyclotomic_sequence,
    dhl_sequence,
    hall_sequence,
    hall_sequence_via_characters,
    ignores_root,
    legendre_sequence,
    named_sequence,
    permutation_map_f,
    read_sequence,
    sign_coefficients,
    write_sequence,
)
from cycloseq.seqgen import (
    _PERIOD_RE,
    _core_from_classes,
    _core_via_characters,
    _membership,
    _word,
)

P13 = SexticParams.create(13, g=2)
P31 = SexticParams.create(31, g=3)

SEXTIC_PRIMES_200 = [p for p in range(7, 201) if is_prime(p) and p % 6 == 1]


def _sextic_params_below_1000():
    """SexticParams for every p = 1 (mod 6) below 1000 under both g policies
    (three-in-c1 only where such a root exists)."""
    out = []
    for p in range(7, 1000):
        if is_prime(p) and p % 6 == 1:
            for policy in ("smallest", "three-in-c1"):
                try:
                    out.append(SexticParams.create(p, policy))
                except NoSuchRoot:
                    pass
    return out


SEXTIC_PARAMS_1000 = _sextic_params_below_1000()


# --- per-n references for the batched character identities -----------------


def delta1(params: SexticParams, n: int) -> int:
    """(1 + eta(n) + eta^2(n))/3 for the cubic character eta, evaluated exactly.

    eta = chi**2, so the cubic phase r is the sixth-root phase 2r; the three
    terms are accumulated as phase counts and reduced in Z[w].
    """
    ind = int(params.index_table[n])
    counts = [0] * 6
    for j in range(3):
        counts[2 * (j * ind % 3)] += 1
    return _indicator(counts, 3)


def delta2(params: SexticParams, n: int) -> int:
    """(1 + sum_j omega^-j chi^j(n))/6 for the sextic character chi, exactly.

    omega = chi(g); the j-th term has phase j*(ind(n) - 1) mod 6.
    """
    ind = int(params.index_table[n])
    counts = [0] * 6
    for j in range(6):
        counts[(j * (ind - 1)) % 6] += 1
    return _indicator(counts, 6)


def _indicator(counts, denominator: int) -> int:
    """The phase-count sum over `denominator`, which must be the rational integer 0 or 1."""
    a, b = reduce_zeta6(counts)
    if b != 0 or a not in (0, denominator):
        raise InvariantViolation(
            f"character sum {a} + {b}*w over {denominator} is not an indicator value"
        )
    return a // denominator


def f_reference(params: SexticParams, n: int) -> int:
    """The C2 <-> C3 swap at one residue."""
    n %= params.p
    l = params.index_table[n] % 6
    if l == 2:
        return params.g * n % params.p
    if l == 3:
        return pow(params.g, params.p - 2, params.p) * n % params.p  # Fermat inverse
    return n


def index_representation_reference(params: SexticParams, mapping) -> bool:
    """The index representation checked one n at a time with a scalar mapping."""
    p = params.p
    for n in range(1, p):
        val = (-int(params.index_table[mapping(params, n)])) % (p - 1) % 6
        if (params.index_table[n] % 6 not in {0, 1, 3}) != (1 <= val <= 3):
            return False
    return True


def test_hall_p13():
    assert hall_sequence(P13, 13).to01() == "0110010010011"


def test_hall_periodic_extension():
    seq = hall_sequence(P13, 14)
    assert seq.to01() == "0110010010011" + "0"
    assert seq.period == 13
    long = hall_sequence(P13, 40)
    for n in range(40):
        assert long.bits[n] == long.bits[n % 13]


def test_hall_weight_is_half():
    for p in (13, 31, 43):
        params = SexticParams.create(p)
        assert int(hall_sequence(params, p).bits.sum()) == (p - 1) // 2


def test_delta_examples():
    assert delta1(P13, 5) == 1 and delta2(P13, 5) == 0  # ind 9
    assert delta1(P13, 2) == 0 and delta2(P13, 2) == 1  # ind 1
    assert delta1(P13, 1) == 1 and delta2(P13, 1) == 0  # ind 0
    assert delta1(P31, 1) == 1 and delta2(P31, 1) == 0


def test_delta_indicator_sets():
    # delta1 marks C0 u C3 and delta2 marks C1: the two parts of Hall's C0 u C1 u C3
    for params in (P13, P31):
        ns = range(1, params.p)
        ind = params.index_table
        assert {n for n in ns if delta1(params, n)} == {n for n in ns if ind[n] % 3 == 0}
        assert {n for n in ns if delta2(params, n)} == {n for n in ns if ind[n] % 6 == 1}


@pytest.mark.parametrize("params", SEXTIC_PARAMS_1000, ids=repr)
def test_batched_identities_match_per_n_references(params):
    # the per-n indicator deltas are the oracle of the character route
    p = params.p
    ref1 = [0] + [delta1(params, n) for n in range(1, p)]
    ref2 = [0] + [delta2(params, n) for n in range(1, p)]
    via = hall_sequence_via_characters(params, p).bits
    assert via.tolist() == [a + b for a, b in zip(ref1, ref2)]
    assert np.array_equal(via, hall_sequence(params, p).bits)
    ns = np.arange(1, p)
    assert permutation_map_f(params, ns).tolist() == [f_reference(params, n) for n in range(1, p)]
    assert index_representation_reference(params, f_reference)
    assert check_index_representation(params)
    assert not index_representation_reference(params, lambda prm, n: n)


def test_via_characters_refuses_a_value_off_the_signs():
    # any integer index table gives +-1 at every n; a half-integer index puts
    # the odd characters' phases at n = 5 between the sixth roots, and their
    # truncation to 0..5 leaves the sum there off the identity
    table = P13.index_table.astype(float)
    table[5] = 0.5
    forged = SexticParams(p=13, g=2, index_table=table)
    with pytest.raises(InvariantViolation, match="n=5"):
        hall_sequence_via_characters(forged, 13)


def test_sign_coefficients_of_the_named_sets():
    # Legendre: (-1)**s_n = -chi_2(n); Hall's (over 3) are checked in test_charsum
    assert sign_coefficients(*CLASS_SETS["legendre"]) == (((0, 0), (-1, 0)), 1)
    assert sign_coefficients(1, {0}) == (((-1, 0),), 1)
    assert sign_coefficients(3, set()) == (((1, 0), (0, 0), (0, 0)), 1)
    # DHL's m = 4 needs fourth roots, which Z[w] does not hold
    for m, classes in ((4, {0, 1}), (5, {0}), (0, set()), (-6, {0})):
        with pytest.raises(ParameterError, match=f"m={m} does not divide 6"):
            sign_coefficients(m, classes)
    with pytest.raises(ParameterError, match="classes \\[0, 6\\] not within 0..5"):
        sign_coefficients(6, {0, 6})


PRIMES_500 = [p for p in range(3, 500) if is_prime(p)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_character_route_matches_coset_words(data):
    # every class set of order m | 6 at every prime below 500, either policy:
    # sum_j c_j chi_m**j(n) is the coset word, bit for bit
    p = data.draw(st.sampled_from(PRIMES_500))
    m = data.draw(st.sampled_from([m for m in (1, 2, 3, 6) if (p - 1) % m == 0]))
    policy = data.draw(st.sampled_from(["smallest", "three-in-c1"][: 1 + (p % 6 == 1)]))
    try:
        params = PrimeParams.create(p, policy)
    except NoSuchRoot:
        return
    subset = data.draw(st.frozensets(st.integers(0, m - 1)))
    core = _core_via_characters(params, m, subset)
    assert core.tolist() == cyclotomic_sequence(params, m, subset, p).bits.tolist()


PRIMES_300 = [p for p in range(3, 300) if is_prime(p)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_coset_words_match_per_n_membership(data):
    p = data.draw(st.sampled_from(PRIMES_300))
    g = data.draw(st.sampled_from([g for g in range(2, p) if is_primitive_root(g, p)]))
    params = PrimeParams.create(p, g)
    m = data.draw(st.sampled_from([m for m in range(1, p) if (p - 1) % m == 0]))
    subset = data.draw(st.frozensets(st.integers(0, m - 1)))

    def reference(m, classes):
        # slot 0 is no coset's
        return [0] + [int(params.index_table[n] % m in classes) for n in range(1, p)]

    assert _core_from_classes(params, m, subset).tolist() == reference(m, subset)
    assert cyclotomic_sequence(params, m, subset, p).bits.tolist() == reference(m, subset)
    if p % 6 == 1:
        hall = hall_sequence(SexticParams.create(p, g=g), p).bits
        assert hall.tolist() == reference(6, {0, 1, 3})
    if p % 4 == 1:
        assert dhl_sequence(p, g, p).bits.tolist() == reference(4, {0, 1})


@pytest.mark.parametrize("p", SEXTIC_PRIMES_200)
def test_cross_construction_equality(p):
    params = SexticParams.create(p)
    a = hall_sequence(params, p)
    b = hall_sequence_via_characters(params, p)
    assert np.array_equal(a.bits, b.bits)


def test_hall_shift_structure():
    # cosets are closed under multiplication by g**6
    for params in (P13, P31):
        p = params.p
        h = hall_sequence(params, p).bits
        g6 = pow(params.g, 6, p)
        for n in range(1, p):
            assert h[g6 * n % p] == h[n]


def test_legendre_examples():
    assert legendre_sequence(7, 7).to01() == "0110100"
    assert legendre_sequence(3, 3).to01() == "010"
    for p in (7, 11, 31):
        assert int(legendre_sequence(p, p).bits.sum()) == (p - 1) // 2


def legendre_reference(p: int, length: int) -> np.ndarray:
    """Legendre's word marked from the squares 1**2 .. (p-1)**2 mod p: the loop
    the arena's coset gather replaced."""
    core = np.zeros(p, dtype=np.uint8)
    core[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
    return np.resize(core, length)


PRIMES_2000 = [p for p in range(3, 2000) if is_prime(p)]


@given(st.sampled_from(PRIMES_2000), st.sampled_from([1, 2]))
@example(3, 1)
@example(3, 2)
@settings(max_examples=150, deadline=None)
def test_legendre_matches_the_squares(p, periods):
    seq = legendre_sequence(p, periods * p)
    assert seq.bits.tolist() == legendre_reference(p, periods * p).tolist()
    assert (seq.period, seq.label) == (p, f"legendre(p={p})")


@pytest.mark.parametrize("name", sorted(CLASS_SETS))
def test_ignores_root_exactly_when_every_root_gives_one_word(name):
    m, classes = CLASS_SETS[name]
    words = {cyclotomic_sequence(PrimeParams.create(13, g=g), m, classes, 13).to01()
             for g in range(2, 13) if is_primitive_root(g, 13)}
    assert (len(words) == 1) == ignores_root(name)


def test_legendre_rejects_composite():
    with pytest.raises(ParameterError, match="p=9 is not an odd prime"):
        legendre_sequence(9, 9)


def test_legendre_refuses_primes_past_the_limit():
    # refused before the p-byte core and the int64 squares are allocated
    with pytest.raises(ParameterError, match="2\\*\\*31"):
        legendre_sequence(2147483659, 1)


def test_dhl_examples():
    assert dhl_sequence(5, 2, 5).to01() == "01100"
    d13 = dhl_sequence(13, 2, 13)
    assert [n for n in range(13) if d13.bits[n]] == [1, 2, 3, 5, 6, 9]
    assert int(d13.bits.sum()) == 6


def test_dhl_rejects_bad_prime():
    with pytest.raises(ParameterError, match="p=7 is not a prime = 1 \\(mod 4\\)"):
        dhl_sequence(7, 3, 7)  # 7 % 4 == 3
    with pytest.raises(ParameterError, match="3 is not a primitive root mod 13"):
        dhl_sequence(13, 3, 13)
    for g in (0, 13, 15, -11, -2):  # outside 1..12; 15 and -11 would act as 2 mod 13
        with pytest.raises(ParameterError, match="1\\.\\.12"):
            dhl_sequence(13, g, 13)


CONSTRUCTORS = {
    "hall": lambda n: hall_sequence(P13, n),
    "hall_via_characters": lambda n: hall_sequence_via_characters(P13, n),
    "legendre": lambda n: legendre_sequence(13, n),
    "dhl": lambda n: dhl_sequence(13, 2, n),
    "cyclotomic": lambda n: cyclotomic_sequence(P13, 6, {0, 1, 3}, n),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_every_constructor_refuses_nonpositive_lengths(name):
    for length in (0, -1):
        with pytest.raises(ParameterError, match="length must be >= 1"):
            CONSTRUCTORS[name](length)
    # a length past the period wraps; one inside it truncates
    assert CONSTRUCTORS[name](27).to01() == CONSTRUCTORS[name](13).to01() * 2 + "0"
    assert CONSTRUCTORS[name](3).to01() == CONSTRUCTORS[name](13).to01()[:3]


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40), st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_extend_repeats_the_core(core, n):
    core = np.array(core, dtype=np.uint8)
    word = _word(core, n, "w")
    assert np.array_equal(word.bits, core[np.arange(n) % core.size])
    assert (word.period, word.bits.dtype, word.label) == (core.size, np.uint8, "w")
    with pytest.raises(ValueError):
        word.bits[0] = 1


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_constructed_words_are_what_create_would_build(data):
    # every constructor's word, built through _word without re-validation, is
    # the word that BitSequence.create builds from its tiled core, and create
    # accepts it with period p: the dropped run-time check would have passed
    p = data.draw(st.sampled_from(PRIMES_500))
    root = data.draw(st.sampled_from(["smallest", "three-in-c1", "explicit"]))
    if root == "explicit":
        root = data.draw(st.sampled_from([g for g in range(1, p) if is_primitive_root(g, p)]))
    try:
        params = PrimeParams.create(p, root)
    except (NoSuchRoot, ParameterError):  # three-in-c1 needs p = 1 (mod 6) and such a root
        params = PrimeParams.create(p)
    g, n = params.g, data.draw(st.integers(1, 3 * p))
    m = data.draw(st.sampled_from([m for m in range(1, 13) if (p - 1) % m == 0]))
    subset = data.draw(st.frozensets(st.integers(0, m - 1)))
    s_str = ",".join(map(str, sorted(subset)))
    cases = [(cyclotomic_sequence(params, m, subset, n), _core_from_classes(params, m, subset),
              f"cyclotomic(p={p},g={g},m={m},S={{{s_str}}})")]
    for name, (order, classes) in CLASS_SETS.items():
        if (p - 1) % order == 0:
            label = f"{name}(p={p})" if ignores_root(name) else f"{name}(p={p},g={g})"
            core = _core_from_classes(params, order, classes)
            cases.append((named_sequence(params, name, n), core, label))
    cases.append((legendre_sequence(p, n), _core_from_classes(params, *CLASS_SETS["legendre"]),
                  f"legendre(p={p})"))
    if p % 4 == 1:
        cases.append((dhl_sequence(p, g, n), _core_from_classes(params, *CLASS_SETS["dhl"]),
                      f"dhl(p={p},g={g})"))
    if p % 6 == 1:
        hall = _core_from_classes(params, *CLASS_SETS["hall"])
        cases.append((hall_sequence(params, n), hall, f"hall(p={p},g={g})"))
        cases.append((hall_sequence_via_characters(params, n),
                      _core_via_characters(params, *CLASS_SETS["hall"]),
                      f"hall_via_characters(p={p},g={g})"))
    for word, core, label in cases:
        want = BitSequence.create(np.resize(core, n), period=p, label=label)
        assert np.array_equal(word.bits, want.bits), label
        assert (word.period, word.label, word.bits.dtype) == (p, label, np.uint8)
        assert not word.bits.flags.writeable
        assert BitSequence.create(word.bits, period=p).to01() == word.to01()


@pytest.mark.parametrize("p", [5, 13, 17, 29, 101])
def test_dhl_matches_fourth_power_cosets(p):
    # C0 = the nonzero fourth powers, C1 = g * C0, for every primitive root g
    fourth = {pow(x, 4, p) for x in range(1, p)}
    for g in range(1, p):
        if not is_primitive_root(g, p):
            continue
        ones = fourth | {g * x % p for x in fourth}
        seq = dhl_sequence(p, g, 2 * p)
        assert [n for n in range(p) if seq.bits[n]] == sorted(ones), g
        assert seq.to01() == seq.to01()[:p] * 2 and seq.label == f"dhl(p={p},g={g})"


def test_cyclotomic_specializations():
    hall = cyclotomic_sequence(P13, 6, {0, 1, 3}, 13)
    assert np.array_equal(hall.bits, hall_sequence(P13, 13).bits)
    p7 = PrimeParams.create(7)
    leg = cyclotomic_sequence(p7, 2, {0}, 7)
    assert np.array_equal(leg.bits, legendre_sequence(7, 7).bits)
    p13 = PrimeParams.create(13, g=2)
    dhl = cyclotomic_sequence(p13, 4, {0, 1}, 13)
    assert np.array_equal(dhl.bits, dhl_sequence(13, 2, 13).bits)


def test_cyclotomic_empty_subset():
    assert cyclotomic_sequence(P13, 6, set(), 13).to01() == "0" * 13


def test_membership_table_is_cached_read_only():
    # one table a class set, shared by every word of it: no word can write it
    _membership.cache_clear()
    a = _core_from_classes(P13, 6, frozenset({0, 1, 3}))
    table = _membership(6, frozenset({0, 1, 3}))
    assert _membership.cache_info()[:2] == (1, 1)  # hits, misses
    assert table.tolist() == [1, 1, 0, 1, 0, 0] and not table.flags.writeable
    with pytest.raises(ValueError):
        table[2] = 1
    a[:] = 1  # each core is its own array
    hall = _core_from_classes(P13, 6, frozenset({0, 1, 3}))
    assert hall.tolist() == hall_sequence(P13, 13).bits.tolist()
    assert table.tolist() == [1, 1, 0, 1, 0, 0]


def test_cyclotomic_errors():
    # refused on every call: a refused class set leaves nothing in the cache
    _membership.cache_clear()
    for _ in range(3):
        with pytest.raises(ParameterError, match="classes \\[0, 6\\] not within 0..5"):
            cyclotomic_sequence(P13, 6, {0, 6}, 13)
    assert _membership.cache_info()[1:] == (3, 64, 0)  # misses, maxsize, currsize
    with pytest.raises(ParameterError, match="m=5 does not divide p-1=12"):
        cyclotomic_sequence(P13, 5, {0}, 13)


def test_cyclotomic_complement():
    for m, S in ((6, {0, 1, 3}), (2, {0}), (3, {1, 2})):
        a = cyclotomic_sequence(P13, m, S, 13).bits
        b = cyclotomic_sequence(P13, m, set(range(m)) - S, 13).bits
        assert all(int(a[n]) + int(b[n]) == 1 for n in range(1, 13))
        assert a[0] == 0 and b[0] == 0


def test_permutation_map_examples():
    assert permutation_map_f(P13, 4) == 8  # C2 -> C3
    assert permutation_map_f(P13, 8) == 4  # C3 -> C2
    assert permutation_map_f(P13, 1) == 1  # fixed outside C2 u C3
    with pytest.raises(ParameterError, match="f is undefined at 0"):
        permutation_map_f(P13, 13)


def test_permutation_map_is_bijection_swapping_c2_c3():
    for params in (P13, P31):
        p = params.p
        image = {permutation_map_f(params, n) for n in range(1, p)}
        assert image == set(range(1, p))
        c2 = {n for n in range(1, p) if params.index_table[n] % 6 == 2}
        c3 = {n for n in range(1, p) if params.index_table[n] % 6 == 3}
        assert {permutation_map_f(params, n) for n in c2} == c3
        assert {permutation_map_f(params, n) for n in c3} == c2


def test_index_representation():
    assert check_index_representation(P13)
    assert check_index_representation(P31)
    assert not index_representation_reference(P13, lambda prm, n: n)


def test_index_representation_on_unsigned_coset_tables(monkeypatch):
    # -c mod 6 on a uint8 class wraps mod 256, not mod 6: the check compares
    # the class instead of negating it
    cosets = PrimeParams.cosets
    monkeypatch.setattr(PrimeParams, "cosets", lambda self, m: cosets(self, m).astype(np.uint8))
    checked = 0
    for p in filter(is_prime, range(7, 500, 6)):
        for policy in ("smallest", "three-in-c1"):
            try:
                params = SexticParams.create(p, policy)
            except NoSuchRoot:
                continue
            assert check_index_representation(params), (p, policy)
            checked += 1
    assert checked > 45


def test_building_words_holds_no_coset_table():
    # the arena keeps its index table only: three words at N = 2p hold about
    # 3 * 2p bytes, not a p-long int64 coset table per class order read
    import tracemalloc

    p = 100057
    params = SexticParams.create(p)
    tracemalloc.start()
    try:
        words = [named_sequence(params, name, 2 * p) for name in ("hall", "legendre", "dhl")]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [w.period for w in words] == [p] * 3
    assert held < 1.2e6, held


def test_bitsequence_validation():
    with pytest.raises(ParameterError):
        BitSequence.create([])
    with pytest.raises(ParameterError):
        BitSequence.create([0, 2])
    with pytest.raises(ParameterError):
        BitSequence.create([0, 1, 1], period=2)  # does not wrap
    seq = BitSequence.create([0, 1, 0, 1], period=2)
    assert seq.period == 2


@pytest.mark.parametrize(
    "bits",
    [np.array([0, 256, 1]), np.array([0.5, 1.0]), [0, 256], [0, -1], [0, 2**70],
     np.array([np.nan, 1.0]), ["0", "1"], [1 + 0j, 0], [None, 1]],
    ids=["uint-256", "float-half", "list-256", "list-negative", "list-huge", "nan", "text",
         "complex", "none"],
)
def test_bitsequence_refuses_before_the_cast(bits):
    # checked on the input's own dtype: the uint8 cast would wrap 256 to 0 and
    # truncate 0.5 to 0
    with pytest.raises(ParameterError, match="0/1"):
        BitSequence.create(bits)


@pytest.mark.parametrize(
    "bits", [[True, False, True], [1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=np.int8),
             np.array([1, 0, 1], dtype=np.uint64), np.array([1, 0, 1], dtype=object)],
    ids=["bool", "float", "int8", "uint64", "object"])
def test_bitsequence_accepts_exact_zero_one(bits):
    seq = BitSequence.create(bits)
    assert seq.bits.dtype == np.uint8 and seq.bits.tolist() == [1, 0, 1]
    assert not seq.bits.flags.writeable


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=40), st.integers(1, 45))
def test_bitsequence_period_check_matches_wraparound(bits, period):
    # the declared period holds exactly when bits[n] == bits[n mod period]
    wraps = all(b == bits[n % period] for n, b in enumerate(bits))
    if wraps:
        assert BitSequence.create(bits, period=period).period == period
    else:
        with pytest.raises(ParameterError, match="wrap"):
            BitSequence.create(bits, period=period)


def test_sequence_file_roundtrip(tmp_path):
    seq = hall_sequence(P13, 13)
    path = tmp_path / "hall13.seq"
    write_sequence(seq, path)
    text = path.read_text()
    assert text.splitlines()[0] == "# hall(p=13,g=2) period=13"
    assert text.splitlines()[1] == "0110010010011"
    back = read_sequence(path)
    assert np.array_equal(back.bits, seq.bits)
    assert back.period == 13
    assert back.label == "hall(p=13,g=2)"


def test_sequence_file_headerless(tmp_path):
    path = tmp_path / "raw.seq"
    path.write_text("010011\n")
    seq = read_sequence(path)
    assert seq.to01() == "010011"
    assert seq.period is None


def test_sequence_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.seq"
    path.write_text("01x01\n")
    with pytest.raises(ParameterError):
        read_sequence(path)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
@settings(max_examples=50, deadline=None)
def test_file_roundtrip_random_words(bits):
    import tempfile

    seq = BitSequence.create(bits, label="random word")
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/w.seq"
        write_sequence(seq, path)
        back = read_sequence(path)
    assert np.array_equal(back.bits, seq.bits)
    assert back.label == "random word"


def _to01_oracle(seq):
    return "".join("01"[b] for b in seq.bits)


def _read_sequence_oracle(path):
    """The per-character parse read_sequence replaced: each bit through int(c)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    label = ""
    period = None
    body = []
    for line in lines:
        if line.startswith("#"):
            header = line[1:].strip()
            m = _PERIOD_RE.match(header)
            if m:
                label, period = m.group("label"), int(m.group("t"))
            else:
                label = header
        elif line.strip():
            body.append(line.strip())
    word = "".join(body)
    if not word or set(word) - {"0", "1"}:
        raise ParameterError(f"{path}: not a 0/1 sequence file")
    return BitSequence.create([int(c) for c in word], period=period, label=label)


def _read_or_refusal(read, path):
    try:
        seq = read(path)
    except ParameterError:
        return "refused"
    return seq.bits.tolist(), seq.period, seq.label


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200),
       st.sampled_from(["", "hall(p=13,g=2)", "w\u00e9"]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_file_read_and_to01_match_oracle(tmp_path_factory, bits, label, periodic):
    period = len(bits) if periodic else None
    seq = BitSequence.create(bits, period=period, label=label)
    assert seq.to01() == _to01_oracle(seq)
    path = tmp_path_factory.mktemp("seq") / "w.seq"
    write_sequence(seq, path)
    assert path.read_text().startswith("#") == bool(label or periodic)
    assert _read_or_refusal(read_sequence, path) == _read_or_refusal(_read_sequence_oracle, path)
    assert read_sequence(path).to01() == seq.to01()


_TEXT_PIECES = ["0", "1", "01", "# x", "#period=5", "# a period=3", " ", "\t", "\n", "\r\n",
                "\r", "x", "\uff10", "\uff11", "\u00a0"]


@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=12))
@settings(max_examples=300, deadline=None)
def test_file_read_matches_oracle_on_text(tmp_path_factory, pieces):
    path = tmp_path_factory.mktemp("seq") / "t.seq"
    path.write_bytes("".join(pieces).encode())
    assert _read_or_refusal(read_sequence, path) == _read_or_refusal(_read_sequence_oracle, path)


def _word_or_refusal(read, path):
    try:
        seq = read(path)
    except ParameterError as e:
        return "refused", str(e)
    return seq.bits.tolist(), seq.period, seq.label, seq.bits.flags.writeable


@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=12), st.none() | st.integers(1, 5),
       st.sampled_from(["absent", "wraps", "no-wrap", "zero"]))
@settings(max_examples=300, deadline=None)
@example(["0110"], 2, "wraps")  # the header's period fails under an override that holds
@example(["0101"], 2, "no-wrap")
def test_file_read_with_a_period_matches_reading_then_recreating(tmp_path_factory, pieces,
                                                                  header_period, override):
    """read_sequence(path, period) is the two steps it replaced: the file read
    with its own header, then BitSequence.create with the period in its place."""
    path = tmp_path_factory.mktemp("seq") / "t.seq"
    header = "" if header_period is None else f"# w period={header_period}\n"
    path.write_bytes((header + "".join(pieces)).encode())
    word = "".join(line.strip() for line in "".join(pieces).splitlines()
                   if not line.startswith("#"))
    fails = [t for t in range(1, len(word)) if word[t:] != word[:-t]]
    period = {"absent": None, "zero": 0,
              "wraps": next(t for t in range(1, len(word) + 2) if t not in fails),
              # a constant word wraps with every period
              "no-wrap": fails[0] if fails else len(word) + 1}[override]

    def two_steps(path):
        seq = read_sequence(path)
        if period is None:
            return seq
        return BitSequence.create(seq.bits, period=period, label=seq.label)

    assert (_word_or_refusal(lambda path: read_sequence(path, period), path)
            == _word_or_refusal(two_steps, path))


@pytest.mark.parametrize("raw", [b"\xff\xfe01\n", b"# label\n01\xe9\n", b"\x80"])
def test_sequence_file_refuses_non_utf8(tmp_path, raw):
    path = tmp_path / "bin.seq"
    path.write_bytes(raw)
    with pytest.raises(ParameterError, match="not a UTF-8 text file"):
        read_sequence(path)


def test_sequence_file_refuses_non_ascii_digits_and_reads_crlf(tmp_path):
    path = tmp_path / "w.seq"
    path.write_text("\uff10\uff11\n", encoding="utf-8")  # full-width 0 and 1
    with pytest.raises(ParameterError, match="not a 0/1 sequence file"):
        read_sequence(path)
    path.write_bytes(b"# hall(p=13,g=2) period=13\r\n0110010\r\n010011\r\n")
    seq = read_sequence(path)
    assert (seq.to01(), seq.period, seq.label) == ("0110010010011", 13, "hall(p=13,g=2)")
