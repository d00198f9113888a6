import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq.errors import NoSuchRoot, ParameterError
from cycloseq.ntheory import (
    G_POLICIES,
    THREE_IN_C1,
    PrimeParams,
    SexticParams,
    build_index_table,
    check_prime,
    cyclotomic_numbers,
    find_primitive_root,
    is_prime,
    is_primitive_root,
)
from cycloseq.seqgen import cyclotomic_sequence
from test_charsum import UNITS, exact_sums

SMALL_PRIMES = [3, 5, 7, 11, 13, 31, 61, 97, 101]


def coset(params, m, l):
    """C_l of order m, read off the characteristic sequence of that one coset."""
    bits = cyclotomic_sequence(params, m, {l}, params.p).bits
    return [n for n in range(params.p) if bits[n]]


def chi_phase(params, order, j, n):
    """Phase r of the order-`order` character value w**r at n, w = exp(pi*i/3).

    The character is chi**(j*6/order) with chi(g) = w, evaluated as the
    one-term character sum at argument n, whose exact value is w**r.
    """
    value = exact_sums(params, [(j * 6 // order,)], [(n - 1,)], 2)[0, 0]
    return UNITS.tolist().index(value.tolist())


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division_below_5000():
    # spans the n < 41**2 shortcut and the Miller-Rabin rounds past it
    for n in range(-2, 5000):
        assert is_prime(n) == _is_prime_by_trial_division(n), n
    for n in (41 * 41, 41 * 43, 43 * 43, 37 * 41, 37 * 43):
        assert not is_prime(n), n


def _strong_probable_prime(n, bases):
    """Miller-Rabin rounds to each base, for odd n > max(bases)."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_is_prime_four_bases_agree_with_twelve_below_200000():
    for n in range(-2, 200_000):
        if n < 41:
            expected = n in TWELVE_BASES
        else:
            expected = all(n % q for q in TWELVE_BASES) and _strong_probable_prime(n, TWELVE_BASES)
        assert is_prime(n) == expected, n


def test_is_prime_refuses_the_four_base_pseudoprime():
    # 3 215 031 751 = 151 * 751 * 28351 passes bases 2, 3, 5 and 7: the four
    # decide only below it, so it must take all twelve
    n = 3_215_031_751
    assert n == 151 * 751 * 28351
    assert _strong_probable_prime(n, (2, 3, 5, 7))
    assert not is_prime(n)
    assert is_prime(3_215_031_767)  # prime, by trial division


def test_find_primitive_root_examples():
    assert find_primitive_root(13) == 2
    assert find_primitive_root(7) == 3  # 2 has order 3 mod 7
    assert find_primitive_root(31, THREE_IN_C1) == 3


def test_find_primitive_root_smallest_by_exhaustion():
    # oracle: order check by trial multiplication
    for p in SMALL_PRIMES:
        g = find_primitive_root(p)
        for cand in range(2, g):
            order = 1
            v = cand
            while v != 1:
                v = v * cand % p
                order += 1
            assert order < p - 1  # every smaller candidate fails
        order = 1
        v = g
        while v != 1:
            v = v * g % p
            order += 1
        assert order == p - 1


def test_constrained_root_unsatisfiable():
    with pytest.raises(NoSuchRoot):
        find_primitive_root(13, THREE_IN_C1)


def test_constrained_root_puts_3_in_c1():
    for p in (7, 19, 31, 43, 127):
        g = find_primitive_root(p, THREE_IN_C1)
        params = SexticParams.create(p, g=g)
        assert params.index_table[3] % 6 == 1


def _three_in_c1_root_loop(p):
    """The constrained search one candidate at a time, each primitive root's
    ind_g(3) found by walking its powers: the loop the table-based search
    replaced."""

    def index_of(target, g):
        v = 1
        for e in range(p - 1):
            if v == target:
                return e
            v = v * g % p
        raise ParameterError(f"{g} is not a primitive root mod {p}")

    smallest = next(g for g in range(2, p) if is_primitive_root(g, p))
    e = index_of(3, smallest)
    if e % 6 not in (1, 5):
        raise NoSuchRoot(f"no primitive root mod {p} has 3 in C1")
    for g in range(smallest, p):
        if is_primitive_root(g, p) and index_of(3, g) % 6 == 1:
            return g
    raise NoSuchRoot(f"no primitive root mod {p} has 3 in C1")


SEXTIC_PRIMES_10000 = [p for p in range(7, 10000, 6) if _is_prime_by_trial_division(p)]


def test_constrained_root_matches_power_walk_below_10000():
    assert len(SEXTIC_PRIMES_10000) == 611
    found = 0
    for p in SEXTIC_PRIMES_10000:
        try:
            expected = _three_in_c1_root_loop(p)
        except NoSuchRoot:
            with pytest.raises(NoSuchRoot):
                find_primitive_root(p, THREE_IN_C1)
            continue
        assert find_primitive_root(p, THREE_IN_C1) == expected, p
        found += 1
    assert 0 < found < 611  # both outcomes occur


def test_constraint_needs_sextic_prime():
    with pytest.raises(ParameterError):
        find_primitive_root(11, THREE_IN_C1)
    with pytest.raises(ParameterError, match="mod 6"):
        PrimeParams.create(11).rebased_three_in_c1()


def test_index_table_examples():
    t = build_index_table(13, 2)
    assert t[1] == 0 and t[2] == 1 and t[4] == 2
    assert t[5] == 9  # 2**9 = 512 = 5 (mod 13)
    assert build_index_table(7, 3)[6] == 3  # 3**3 = 27 = 6 (mod 7)


def test_index_table_is_bijection():
    for p, g in ((13, 2), (31, 3), (101, 2)):
        t = build_index_table(p, g)
        assert sorted(int(e) for e in t[1:]) == list(range(p - 1))
        for n in range(1, p):
            assert pow(g, int(t[n]), p) == n


def test_index_table_rejects_non_primitive():
    with pytest.raises(ParameterError, match="2 is not a primitive root mod 7"):
        build_index_table(7, 2)
    with pytest.raises(ParameterError, match="1 is not a primitive root mod 13"):
        build_index_table(13, 1)


def _index_table_loop(p, g):
    """One residue at a time by successive multiplication: the loop the
    outer-product table replaced."""
    table = np.full(p, -1, dtype=np.int64)
    v = 1
    for e in range(p - 1):
        if table[v] != -1:
            raise ParameterError(f"{g} is not a primitive root mod {p}")
        table[v] = e
        v = v * g % p
    if v != 1:
        raise ParameterError(f"{g} is not a primitive root mod {p}")
    return table


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 37, 97, 101, 499])
def test_index_table_matches_loop(p):
    # every g in 0..p-1, and a few outside it, including g = 0 and 1 (mod p)
    for g in range(-2, p + 2):
        try:
            expected = _index_table_loop(p, g)
        except ParameterError as e:
            with pytest.raises(ParameterError, match=f"^{e}$"):
                build_index_table(p, g)
            continue
        table = build_index_table(p, g)
        assert table.dtype == np.int64 and not table.flags.writeable
        assert np.array_equal(table, expected), (p, g)


def test_cyclotomic_cosets_p13():
    params = SexticParams.create(13, g=2)
    assert [coset(params, 6, l) for l in range(6)] == [
        [1, 12], [2, 11], [4, 9], [5, 8], [3, 10], [6, 7]]


def test_cyclotomic_cosets_trivial_and_p5():
    params = SexticParams.create(13, g=2)
    assert coset(params, 1, 0) == list(range(1, 13))
    p5 = PrimeParams.create(5, g=2)
    assert [coset(p5, 4, l) for l in range(4)] == [[1], [2], [4], [3]]


def test_character_phase_examples():
    p13 = SexticParams.create(13, g=2)
    assert chi_phase(p13, 6, 1, 5) == 3  # ind 9
    assert chi_phase(p13, 6, 1, 1) == 0
    assert chi_phase(p13, 3, 1, 12) == 0  # ind 6


def test_character_phase_zero_argument():
    p13 = SexticParams.create(13, g=2)
    # chi(0) = 0: the one term, n = 1, has a vanishing argument and adds nothing
    assert exact_sums(p13, [(1,)], [(12,)], 2).tolist() == [[[0, 0]]]


@pytest.mark.parametrize("p", [7, 13, 31, 61, 97])
@pytest.mark.parametrize("order,j", [(3, 1), (3, 2), (6, 1), (6, 5)])
def test_character_multiplicativity_exhaustive(p, order, j):
    params = SexticParams.create(p)
    phase = [None] + [chi_phase(params, order, j, n) for n in range(1, p)]
    for a in range(1, p):
        for b in range(1, p):
            assert phase[a * b % p] == (phase[a] + phase[b]) % 6


@pytest.mark.parametrize("p", [7, 13, 31, 97])
def test_character_orthogonality(p):
    # each attained value occurs equally often; for gcd(j, order) = 1 that is
    # every order-th root of unity, (p-1)/order times apiece
    params = SexticParams.create(p)
    for order in (3, 6):
        for j in range(1, order):
            phases = [chi_phase(params, order, j, n) for n in range(1, p)]
            g = int(np.gcd(j, order))
            for r in range(order):
                expected = (p - 1) * g // order if r % g == 0 else 0
                assert phases.count(r * 6 // order) == expected


@given(st.sampled_from([7, 13, 19, 31]), st.data())
@settings(max_examples=30, deadline=None)
def test_ind_roundtrip(p, data):
    params = SexticParams.create(p)
    n = data.draw(st.integers(1, p - 1))
    assert pow(params.g, int(params.index_table[n]), p) == n


def test_sextic_params_validation():
    with pytest.raises(ParameterError):
        SexticParams.create(11)  # 11 % 6 == 5
    with pytest.raises(ParameterError):
        SexticParams.create(12)
    SexticParams.create(31)


@pytest.mark.parametrize("create", [PrimeParams.create, SexticParams.create])
@pytest.mark.parametrize("g", [0, 13, 15, -11])  # 0, p, p + 2, -11 at p = 13
def test_g_outside_units_is_refused_by_create(create, g):
    # g = 15 would act as 2 mod 13 and label the arena g=15
    with pytest.raises(ParameterError, match="1\\.\\.12"):
        create(13, g=g)


def test_g_policy_vocabulary():
    assert THREE_IN_C1 == "three-in-c1"
    for policy in (None, "smallest"):
        assert find_primitive_root(31, policy) == 3 == PrimeParams.create(31, policy).g
        assert SexticParams.create(31, policy).g == 3
    assert SexticParams.create(31, THREE_IN_C1).g == 3
    assert PrimeParams.create(43, THREE_IN_C1).g == find_primitive_root(43, THREE_IN_C1)
    # an unknown policy is refused
    for create in (PrimeParams.create, SexticParams.create):
        for bogus in ("3 in C1", "bogus", "largest"):
            with pytest.raises(ParameterError, match="unknown g policy"):
                create(31, bogus)
    with pytest.raises(ParameterError, match="unknown g policy"):
        find_primitive_root(31, "3 in C1")


def test_a_policy_and_its_root_give_one_arena():
    # create's one root argument: a policy name builds the same arena as the
    # integer root that policy picks
    for p in (7, 13, 19, 31, 37, 43, 61, 127, 1987):
        for cls in (PrimeParams, SexticParams):
            for policy in G_POLICIES:
                try:
                    by_policy = cls.create(p, policy)
                except NoSuchRoot:
                    assert policy == THREE_IN_C1
                    continue
                by_root = cls.create(p, by_policy.g)
                assert type(by_policy) is type(by_root) is cls
                assert by_root.g == by_policy.g == find_primitive_root(p, policy)
                assert np.array_equal(by_policy.index_table, by_root.index_table), (p, policy)


@pytest.mark.parametrize("p,m", [(2, 2), (9, 2), (1, 2), (-7, 2), (11, 6), (7, 4), (25, 4)])
def test_check_prime_refuses(p, m):
    why = "an odd prime" if m == 2 else f"a prime = 1 \\(mod {m}\\)"
    with pytest.raises(ParameterError, match=f"^p={p} is not {why}$"):
        check_prime(p, m)


def test_check_prime_accepts_and_limits():
    for p, m in ((3, 2), (13, 4), (13, 6), (31, 6), (2**31 - 1, 2)):
        check_prime(p, m)
    with pytest.raises(ParameterError, match="p=2147483659 exceeds the 2\\*\\*31 limit"):
        check_prime(2147483659)  # prime, past the limit
    # every arena refuses the same p the same way
    for make in (PrimeParams.create, SexticParams.create, find_primitive_root):
        with pytest.raises(ParameterError, match="p=2147483659 exceeds the 2\\*\\*31 limit"):
            make(2147483659)
        # "an odd prime", or for SexticParams "a prime = 1 (mod 6)"
        with pytest.raises(ParameterError, match="p=15 is not a"):
            make(15)
    for make in (SexticParams.create, lambda p: find_primitive_root(p, THREE_IN_C1),
                 lambda p: PrimeParams.create(p, THREE_IN_C1)):
        with pytest.raises(ParameterError, match="p=11 is not a prime = 1 \\(mod 6\\)"):
            make(11)


SEXTIC_PRIMES_2000 = [p for p in SEXTIC_PRIMES_10000 if p < 2000]


def test_three_in_c1_table_matches_its_own_build():
    # the smallest root's table rebased to g against g's table built from scratch
    found = 0
    for p in SEXTIC_PRIMES_2000:
        try:
            params = SexticParams.create(p, THREE_IN_C1)
        except NoSuchRoot:
            continue
        table = params.index_table
        assert table.dtype == np.int64 and not table.flags.writeable, p
        assert np.array_equal(table, build_index_table(p, params.g)), p
        assert params.index_table[3] % 6 == 1
        # derived from any root's arena, not only the smallest root's
        largest = next(g for g in range(p - 1, 1, -1) if is_primitive_root(g, p))
        other = SexticParams.create(p, g=largest).rebased_three_in_c1()
        assert other.g == params.g and np.array_equal(other.index_table, table), p
        found += 1
    assert found > 50


def _count_builds(monkeypatch):
    """The (p, g) of every index table built from here on."""
    import cycloseq.ntheory as ntheory

    calls = []

    def counted(p, g):
        calls.append((p, g))
        return build_index_table(p, g)

    monkeypatch.setattr(ntheory, "build_index_table", counted)
    return calls


def test_an_arena_builds_one_index_table(monkeypatch):
    import cycloseq.ntheory as ntheory

    calls = _count_builds(monkeypatch)
    for policy, p in ((THREE_IN_C1, 31), (THREE_IN_C1, 1987), ("smallest", 1987)):
        monkeypatch.setattr(ntheory, "_MEMO", ntheory._ArenaMemo())
        calls.clear()
        SexticParams.create(p, policy)
        assert len(calls) == 1, (policy, p, calls)
    monkeypatch.setattr(ntheory, "_MEMO", ntheory._ArenaMemo())
    calls.clear()
    PrimeParams.create(13, g=6)
    assert calls == [(13, 6)]
    # three-in-c1 kept the smallest root's arena it was rebased from
    monkeypatch.setattr(ntheory, "_MEMO", ntheory._ArenaMemo())
    SexticParams.create(1987, THREE_IN_C1)
    calls.clear()
    SexticParams.create(1987)
    assert calls == []


PRIMES_3000 = [p for p in range(3, 3000) if is_prime(p)]


@given(st.sampled_from(PRIMES_3000), st.data())
@settings(max_examples=60, deadline=None)
def test_memoized_arena_equals_a_fresh_build(p, data):
    import cycloseq.ntheory as ntheory

    ntheory._MEMO = ntheory._ArenaMemo()  # each example starts cold
    roots = [g for g in range(1, p) if is_primitive_root(g, p)]
    explicit = data.draw(st.sampled_from(roots))
    smallest = build_index_table(p, roots[0])
    tables = {}
    for root in (None, "smallest", THREE_IN_C1, explicit):
        try:
            arena = PrimeParams.create(p, root)
        except (NoSuchRoot, ParameterError):  # no root puts 3 in C1, or 6 does not divide p - 1
            assert root == THREE_IN_C1
            continue
        expected = (PrimeParams(p, roots[0], smallest).rebased_three_in_c1().index_table
                    if root == THREE_IN_C1 else build_index_table(p, arena.g))
        assert np.array_equal(arena.index_table, expected), (p, root)
        assert not arena.index_table.flags.writeable
        again = PrimeParams.create(p, root)
        assert again.g == arena.g and again.index_table is arena.index_table
        tables[root] = arena.index_table
    # None and "smallest" are one key; an explicit root that a policy resolved to
    # shares that policy's table, and every other root has its own
    assert tables["smallest"] is tables[None]
    del tables[None]
    resolved = {PrimeParams.create(p, root).g: tables[root]
                for root in (THREE_IN_C1, "smallest") if root in tables}
    assert tables[explicit] is resolved.get(explicit, tables[explicit])
    assert len({id(t) for t in tables.values()}) == len(tables) - (explicit in resolved)


def test_an_integer_root_shares_a_held_policy_arena(monkeypatch):
    calls = _count_builds(monkeypatch)
    smallest = PrimeParams.create(31)
    assert PrimeParams.create(31, 3) is smallest  # 3 is 31's smallest root
    assert calls == [(31, 3)]
    # 139's smallest root is 2, its three-in-c1 root 3: one table for the
    # smallest, rebased for three-in-c1, and none for the integer root 3
    calls.clear()
    rebased = SexticParams.create(139, THREE_IN_C1)
    assert calls == [(139, 2)] and rebased.g == 3
    explicit = SexticParams.create(139, 3)
    assert explicit.index_table is rebased.index_table
    assert calls == [(139, 2)]


def test_refusals_are_never_stored(monkeypatch):
    import cycloseq.ntheory as ntheory

    calls = _count_builds(monkeypatch)
    for _ in range(3):  # 3 is not primitive mod 13: built, refused, built again
        with pytest.raises(ParameterError, match="3 is not a primitive root mod 13"):
            PrimeParams.create(13, 3)
    assert calls == [(13, 3)] * 3
    calls.clear()
    for _ in range(3):  # ind_2(3) = 4 (mod 6): no root mod 13 puts 3 in C1
        with pytest.raises(NoSuchRoot):
            SexticParams.create(13, THREE_IN_C1)
    assert calls == [(13, 2)]  # the smallest root's arena is kept, and rebased each time
    assert [key for key in ntheory._MEMO.tables] == [(13, "smallest")]
    # refusals before the memo: a cold prime, a root outside 1..p-1, an unknown policy
    for p, g, why in ((15, None, "p=15 is not"), (11, THREE_IN_C1, "mod 6"),
                      (13, 0, "g must be in"), (13, "largest", "unknown g policy")):
        with pytest.raises(ParameterError, match=why):
            PrimeParams.create(p, g)
    assert [key for key in ntheory._MEMO.tables] == [(13, "smallest")]


def test_memo_holds_at_most_its_bound(monkeypatch):
    import cycloseq.ntheory as ntheory

    monkeypatch.setattr(ntheory, "ARENA_MEMO_ENTRIES", 100)
    memo = ntheory._MEMO
    calls = _count_builds(monkeypatch)
    first = PrimeParams.create(31)
    second = PrimeParams.create(37)
    assert list(memo.tables) == [(31, "smallest"), (37, "smallest")] and memo.entries == 68
    assert PrimeParams.create(31).index_table is first.index_table  # 31 is now the most recent
    PrimeParams.create(41)  # past 100 entries: 37, the least recently used, goes
    assert list(memo.tables) == [(31, "smallest"), (41, "smallest")] and memo.entries == 72
    assert calls == [(31, 3), (37, 2), (41, 6)]
    calls.clear()
    rebuilt = PrimeParams.create(37)  # evicted, so built again, equal
    assert calls == [(37, 2)]
    assert rebuilt.index_table is not second.index_table
    assert np.array_equal(rebuilt.index_table, second.index_table)
    assert memo.entries <= 100 and memo.entries == sum(key[0] for key in memo.tables)
    # a p past the bound keeps its arena: its miss evicted every other prime's
    # arenas before it built
    calls.clear()
    big = PrimeParams.create(101)
    big.cosets(4)
    assert list(memo.tables) == [(101, "smallest")]
    again = PrimeParams.create(101)
    assert again.index_table is big.index_table
    assert calls == [(101, 2)] and memo.entries == 101
    # the next such p's miss drops them before that p builds
    seen = []
    build = ntheory.build_index_table
    monkeypatch.setattr(ntheory, "build_index_table",
                        lambda p, g: seen.append(set(memo.tables)) or build(p, g))
    PrimeParams.create(103)
    assert seen == [set()] and list(memo.tables) == [(103, "smallest")]
    assert calls == [(101, 2), (103, 5)]
    # past the bound too, three-in-c1 is rebased from the kept smallest root's
    # arena: one table under both policies, both arenas kept
    calls.clear()
    for policy in ("smallest", THREE_IN_C1, "smallest", THREE_IN_C1):
        SexticParams.create(139, policy).cosets(6)
    assert calls == [(139, 2)]
    assert set(memo.tables) == {(139, "smallest"), (139, THREE_IN_C1)}
    # a three-in-c1 build stores the smallest root's arena first, and room is
    # made again for the rebased one: 59 goes, and the memo stays within the bound
    memo = ntheory._ArenaMemo()
    monkeypatch.setattr(ntheory, "_MEMO", memo)
    PrimeParams.create(59)
    SexticParams.create(31, THREE_IN_C1)
    assert set(memo.tables) == {(31, "smallest"), (31, THREE_IN_C1)} and memo.entries == 62
    # every create under a small bound keeps the memo within it, or holds one
    # prime's arenas alone
    for p in PRIMES_3000[:40]:
        for root in ("smallest", THREE_IN_C1) if p % 6 == 1 else ("smallest",):
            try:
                arena = PrimeParams.create(p, root)
            except NoSuchRoot:
                continue
            for m in (1, 2):
                arena.cosets(m)
                assert memo.entries == sum(key[0] for key in memo.tables)
                assert memo.entries <= 100 or len({key[0] for key in memo.tables}) == 1


def test_a_prime_past_half_the_bound_keeps_its_arena(monkeypatch):
    """79 is in (50, 100]: its two arenas are more than the bound together, yet
    the three-in-c1 miss evicts no arena of 79, so three-in-c1 is rebased from
    the kept arena and 79 builds one index table."""
    import cycloseq.ntheory as ntheory

    monkeypatch.setattr(ntheory, "ARENA_MEMO_ENTRIES", 100)
    calls = _count_builds(monkeypatch)
    SexticParams.create(79).cosets(6)
    SexticParams.create(79, THREE_IN_C1)
    assert calls == [(79, 3)]
    assert set(ntheory._MEMO.tables) == {(79, "smallest"), (79, THREE_IN_C1)}


def test_coset_tables_are_read_only():
    forged = PrimeParams(p=13, g=2, index_table=build_index_table(13, 2))
    for params in (SexticParams.create(13), SexticParams.create(13, 6), forged):
        for m in (1, 2, 3, 4, 6, 12):
            table = params.cosets(m)
            assert np.array_equal(table, params.index_table % m), (params, m)
            with pytest.raises(ValueError, match="read-only"):
                table[1] = 0
    # a hand-built arena keeps nothing in the memo
    assert forged.cosets(6) is not forged.cosets(6)


def cyclotomic_numbers_reference(p, g, m):
    """(a, b) = #{u in C_a : u + 1 in C_b}, counted pair by pair from the powers of g."""
    ind = {pow(g, e, p): e for e in range(p - 1)}
    table = [[0] * m for _ in range(m)]
    for u in range(1, p - 1):
        table[ind[u] % m][ind[u + 1] % m] += 1
    return table


@pytest.mark.parametrize("p", [p for p in range(3, 200) if is_prime(p)])
def test_cyclotomic_numbers_match_pair_count(p):
    roots = [g for g in range(1, p) if is_primitive_root(g, p)]
    for g in (roots[0], roots[-1]):
        params = PrimeParams.create(p, g=g)
        for m in (1, 2, 3, 4, 6):
            if (p - 1) % m:
                with pytest.raises(ParameterError, match="does not divide"):
                    cyclotomic_numbers(params, m)
                continue
            cyc = cyclotomic_numbers(params, m)
            assert cyc.tolist() == cyclotomic_numbers_reference(p, g, m), (p, g, m)
            assert cyc.sum() == p - 2


@pytest.mark.parametrize("m", [0, -6])
def test_cyclotomic_numbers_refuse_nonpositive_order(m):
    with pytest.raises(ParameterError):
        cyclotomic_numbers(PrimeParams.create(13), m)
