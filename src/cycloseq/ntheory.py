"""Prime parameters, primitive roots, index tables, cyclotomic numbers, and
exact Z[w] reduction.

Everything downstream lives in the arena set up here: a prime p, a primitive
root g, and the dense discrete-log table ind_g(n) for n = 1..p-1.  Characters
are handled as integer phases (the character chi**j of order dividing 6 has
phase j*ind_g(n) mod 6 at n), never as floating complex values; sums of
sixth roots of unity are reduced exactly by `reduce_zeta6` (`zeta6_mul`,
`zeta6_norm_sq`: Z[w] products and norms), and only the charsum module
materializes floats.  The cyclotomic numbers of order m,
(a, b) = #{u in C_a : u + 1 in C_b}, are one bincount over the index table
(`cyclotomic_numbers`); the difference-set check reads them.

The arena is decided here and nowhere else.  p is checked by
`check_prime`: an odd prime below 2**31 (so the index table stays a dense
int64 array and a product of two residues fits in 64 bits) with m | p - 1.
`PrimeParams.create(p, g)` takes the root as one argument: an explicit root,
checked once (in 1..p-1 and primitive), or a policy of G_POLICIES, "smallest"
(None means it too) or "three-in-c1".  `find_primitive_root(p, policy)` is
that arena's g, found without an index table for the smallest root.  Each
arena builds one index table; a three-in-c1 arena derives its table from the
smallest root's, which the root search built anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import NoSuchRoot, ParameterError

P_LIMIT = 2**31

# Deterministic Miller-Rabin witness set, valid for all n < 3.3*10**24; is_prime
# also tries these primes as divisors first.  Below 3 215 031 751, the least
# strong pseudoprime to bases 2, 3, 5 and 7 (Pomerance, Selfridge and Wagstaff,
# Math. Comp. 35, 1980), and so for every p below P_LIMIT, those four decide.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_FOUR_BASES_BELOW = 3_215_031_751

THREE_IN_C1 = "three-in-c1"
G_POLICIES = ("smallest", THREE_IN_C1)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid far beyond 2**31).

    Trial division by the bases comes first: they are every prime <= 37, so an
    n < 41**2 that none of them divides is prime without a Miller-Rabin round.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:4] if n < _MR_FOUR_BASES_BELOW else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n < 2**31 keeps this cheap)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(g: int, p: int, factors: list[int] | None = None) -> bool:
    if not 1 <= g <= p - 1:
        return False
    if factors is None:
        factors = _prime_factors(p - 1)
    return all(pow(g, (p - 1) // q, p) != 1 for q in factors)


def check_prime(p: int, m: int = 2) -> None:
    """ParameterError unless p is an odd prime below 2**31 with m | p - 1."""
    if p >= P_LIMIT:
        raise ParameterError(f"p={p} exceeds the 2**31 limit")
    if not is_prime(p) or (p - 1) % m:
        why = "an odd prime" if m == 2 else f"a prime = 1 (mod {m})"
        raise ParameterError(f"p={p} is not {why}")


def _smallest_root(p: int) -> int:
    factors = _prime_factors(p - 1)
    return next(g for g in range(2, p) if is_primitive_root(g, p, factors))


def find_primitive_root(p: int, policy: str | None = None) -> int:
    """PrimeParams.create(p, policy).g: the smallest primitive root, or under
    "three-in-c1" the smallest with ind_g(3) = 1 (mod 6), which needs
    p = 1 (mod 6) and may not exist (NoSuchRoot).  The smallest root needs no
    index table, so none is built for it."""
    if policy in (None, "smallest"):
        check_prime(p)
        return _smallest_root(p)
    return PrimeParams.create(p, policy).g


def build_index_table(p: int, g: int) -> np.ndarray:
    """Dense table t with t[g**e mod p] = e for e = 0..p-2; t[0] = -1.

    The powers are g**(B*q + r) = g**(B*q) * g**r for B = ceil(sqrt(p - 1)), r < B:
    two short loops of powers and one int64 outer product mod p (p < 2**31, so
    a product of two residues fits), scattered into the table.  Raises
    ParameterError if the powers of g repeat before exponent p-1.
    """
    B = math.isqrt(p - 1)
    B += B * B < p - 1
    baby = [1] * B
    for r in range(1, B):
        baby[r] = baby[r - 1] * g % p
    giant = [1] * B
    step = pow(g, B, p)
    for q in range(1, B):
        giant[q] = giant[q - 1] * step % p
    powers = np.array(giant, dtype=np.int64)[:, None] * np.array(baby, dtype=np.int64) % p
    powers = powers.ravel()[: p - 1]
    table = np.full(p, -1, dtype=np.int64)
    table[powers] = np.arange(p - 1)
    # p - 1 distinct powers fill slots 1..p-1 exactly when none is 0
    if table[0] != -1 or (table[1:] == -1).any() or pow(g, p - 1, p) != 1:
        raise ParameterError(f"{g} is not a primitive root mod {p}")
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class PrimeParams:
    """A prime p with a fixed primitive root g and its index (discrete log) table."""

    p: int
    g: int
    index_table: np.ndarray = field(repr=False)

    _order: ClassVar[int] = 2  # create refuses p unless _order | p - 1

    @classmethod
    def create(cls, p: int, g: int | str | None = None) -> "PrimeParams":
        """The arena of p with root g: an integer root, or a policy of G_POLICIES
        (None is "smallest").  An unknown policy and an integer outside 1..p-1
        are refused, and build_index_table refuses one that is not primitive."""
        if isinstance(g, str) and g not in G_POLICIES:
            raise ParameterError(f"unknown g policy {g!r}")
        three_in_c1 = g == THREE_IN_C1
        check_prime(p, 6 if three_in_c1 else cls._order)
        if g is None or isinstance(g, str):
            g = _smallest_root(p)
        elif not 1 <= g <= p - 1:
            raise ParameterError(f"g must be in 1..{p - 1}; got {g}")
        arena = cls(p=p, g=g, index_table=build_index_table(p, g))
        return arena.rebased_three_in_c1() if three_in_c1 else arena

    def rebased_three_in_c1(self) -> "PrimeParams":
        """This arena under the "three-in-c1" policy, with no second index table.

        g = s**t[g] for this root s and table t is primitive exactly when
        gcd(t[g], p - 1) = 1, and then ind_g(n) = t[n] * t[g]**-1 mod p - 1.  As
        6 | p - 1 and t[g] = +-1 (mod 6) is its own inverse mod 6, ind_g(3) = 1
        (mod 6) exactly when t[g] = t[3] (mod 6); NoSuchRoot unless gcd(t[3], 6) = 1.
        """
        p, t = self.p, self.index_table
        if (p - 1) % 6:  # an arena's p is a checked prime
            raise ParameterError(f"p={p} is not a prime = 1 (mod 6)")
        e = int(t[3]) % 6
        if e not in (1, 5):
            raise NoSuchRoot(f"no primitive root mod {p} has 3 in C1 "
                             f"(ind(3) = {t[3]} mod 6 = {e})")
        g = next(g for g in range(2, p) if t[g] % 6 == e and math.gcd(int(t[g]), p - 1) == 1)
        table = t * pow(int(t[g]), -1, p - 1) % (p - 1)
        table[0] = -1
        table.setflags(write=False)
        return replace(self, g=g, index_table=table)

    def cosets(self, m: int) -> np.ndarray:
        """ind_g(n) mod m for n = 0..p-1; ParameterError unless m | p - 1."""
        if m < 1 or (self.p - 1) % m:
            raise ParameterError(f"m={m} does not divide p-1={self.p - 1}")
        return self.index_table % m

    def g_inverse(self) -> int:
        return pow(self.g, self.p - 2, self.p)


def cyclotomic_numbers(params: PrimeParams, m: int) -> np.ndarray:
    """The m x m table of cyclotomic numbers (a, b) = #{u in C_a : u + 1 in C_b}.

    C_a is the order-m class {n : ind_g(n) = a (mod m)}.  Every u = 1..p-2 is
    one pair (u, u + 1), so the table is one bincount of
    m * (ind(u) mod m) + ind(u + 1) mod m, and its entries sum to p - 2.
    ParameterError unless m | p - 1.
    """
    cls = params.cosets(m)[1:]  # the class of u, entry u - 1
    return np.bincount(m * cls[:-1] + cls[1:], minlength=m * m).reshape(m, m)


@dataclass(frozen=True, eq=False)
class SexticParams(PrimeParams):
    """PrimeParams for p = 1 (mod 6), the arena of the sextic residue sequence."""

    _order = 6


def reduce_zeta6(counts) -> tuple[int, int]:
    """sum_r c_r * w**r as a + b*w in Z[w], w a primitive 6th root (w^2 = w - 1, w^3 = -1)."""
    c0, c1, c2, c3, c4, c5 = counts
    return c0 - c2 - c3 + c5, c1 + c2 - c4 - c5


def zeta6_mul(x, y):
    """(a + bw)(c + dw) with w^2 = w - 1, for ints or elementwise for arrays."""
    a, b = x
    c, d = y
    return a * c - b * d, a * d + b * c + b * d


def zeta6_norm_sq(x):
    """|a + bw|^2 = a^2 + ab + b^2, exact."""
    a, b = x
    return a * a + a * b + b * b
