"""Binary sequence constructions: Hall sextic residue, Legendre, DHL, generic cyclotomic.

Every construction is a class set (m, I), its ones the order-m cosets C_i,
i in I; the named ones are the entries of CLASS_SETS, the one place that names
a construction's classes.  Coset membership is one table gather at ind(n) mod
m.  For m | 6 a second, independent route evaluates (-1)**s_n =
sum_j c_j chi_m**j(n), with the c_j of `sign_coefficients` exact in Z[w], at
every n at once and requires +-1 at each; the two Hall routes agreeing bit for
bit is the mechanical check of the identity.  The per-n indicator deltas and
Legendre's squares stay in tests/test_seqgen.py as the oracles.  Each
construction builds its word through `_word`, 0/1 and p-periodic by
construction.  Words from outside are validated through one checked
constructor: `BitSequence.create` for bits in memory, and `read_sequence` for a
`.seq` file, which it decodes and checks once, with a period in place of its
header's checked in the same pass.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, ParameterError
from .ntheory import PrimeParams, check_prime, reduce_zeta6, zeta6_mul

# Each named construction's class set (m, I), in the command line's order.
CLASS_SETS = {
    "hall": (6, frozenset({0, 1, 3})),
    "legendre": (2, frozenset({0})),
    "dhl": (4, frozenset({0, 1})),
}


def sign_coefficients(m: int, classes) -> tuple[tuple[tuple[int, int], ...], int]:
    """(numerators, d) with c_j = (a + b*w)/d, j = 0..m-1, exactly, where
    (-1)**s_n = sum_j c_j chi_m**j(n) on the class set (m, classes).

    c_j = (1/m) sum_r eps_r omega_m**(-jr), eps_r = -1 on the classes and +1 off
    them, omega_m = w**(6/m): each numerator is reduced in Z[w] from its signed
    root counts, then all and m are divided by their gcd.  ParameterError
    unless m | 6 (Z[w] holds only sixth roots) and the classes lie in 0..m-1.
    """
    if m < 1 or 6 % m:
        raise ParameterError(f"m={m} does not divide 6")
    if not set(classes) <= set(range(m)):
        raise ParameterError(f"classes {sorted(classes)} not within 0..{m - 1}")
    nums = []
    for j in range(m):
        counts = [0] * 6
        for r in range(m):
            counts[-(6 // m) * j * r % 6] += -1 if r in classes else 1
        nums.append(reduce_zeta6(counts))
    d = math.gcd(m, *(x for ab in nums for x in ab))
    return tuple((a // d, b // d) for a, b in nums), m // d


@functools.cache
def _character_table(m: int, classes: frozenset[int]) -> tuple[np.ndarray, int]:
    """(table, d): table[:, j, r] is c_j * w**r = (a + b*w)/d as (a, b), r = 0..5."""
    nums, d = sign_coefficients(m, classes)
    c = np.array(nums, dtype=np.int64).T[:, :, None]
    table = np.stack(zeta6_mul(c, reduce_zeta6(np.eye(6, dtype=np.int64))))  # times w**r
    table.setflags(write=False)
    return table, d


@dataclass(frozen=True, eq=False)
class BitSequence:
    """A finite 0/1 word with optional period and a provenance label."""

    bits: np.ndarray
    period: int | None = None
    label: str = ""

    @classmethod
    def create(cls, bits, period: int | None = None, label: str = "") -> "BitSequence":
        """A word from outside the constructions, as a read-only uint8 copy.  Values
        are checked on the input's own dtype before the cast, so 256 or 0.5 is
        refused rather than wrapped or truncated; booleans and exact 0.0/1.0 pass."""
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("bits must be a nonempty 1-d 0/1 word")
        if arr.dtype.kind in "biu":  # an integer word is 0/1 when its range is
            ok = arr.min() >= 0 and arr.max() <= 1
        else:  # floats and objects must equal 0 or 1; complex or text never passes
            ok = arr.dtype.kind in "fO" and np.all((arr == 0) | (arr == 1))
        if not ok:
            raise ParameterError("bits must be 0/1")
        return cls._checked(arr.astype(np.uint8), period, label)

    @classmethod
    def _checked(cls, arr: np.ndarray, period: int | None, label: str) -> "BitSequence":
        """The word of `arr`, a fresh 1-d 0/1 uint8 array no one else holds, made
        read-only; ParameterError unless it wraps with `period` (see _check_period)."""
        _check_period(arr, period)
        arr.setflags(write=False)
        return cls(bits=arr, period=period, label=label)

    @property
    def length(self) -> int:
        return int(self.bits.size)

    def to01(self) -> str:
        return (self.bits + ord("0")).tobytes().decode()

    def __repr__(self) -> str:
        head = self.to01() if self.length <= 32 else self.to01()[:32] + "..."
        return f"BitSequence({head!r}, N={self.length}, period={self.period}, label={self.label!r})"


def _check_period(arr: np.ndarray, period: int | None) -> None:
    """ParameterError unless period is None, or positive with arr[n] == arr[n - period]
    for n >= period."""
    if period is None:
        return
    if period < 1:
        raise ParameterError(f"period must be positive, got {period}")
    if arr.size > period and not np.array_equal(arr[period:], arr[:-period]):
        raise ParameterError("bits do not wrap with the declared period")


def _word(core: np.ndarray, length: int, label: str) -> BitSequence:
    """The p-long 0/1 uint8 core tiled to `length` terms, read-only, of period p:
    whole copies of the core laid end to end, which wrap, so nothing is checked.
    ParameterError unless length >= 1, MemoryError past the address space."""
    if length < 1:
        raise ParameterError("length must be >= 1")
    bits = core
    if length > core.size:
        if length > sys.maxsize - core.size:  # past an intp, numpy would raise a ValueError
            raise MemoryError(f"{length} bits are past the address space")
        bits = np.empty((-(-length // core.size), core.size), dtype=np.uint8)
        bits[:] = core
        bits = bits.ravel()
    bits.setflags(write=False)
    return BitSequence(bits[:length], period=core.size, label=label)


@functools.lru_cache(maxsize=64)
def _membership(m: int, subset: frozenset[int]) -> np.ndarray:
    """The read-only length-m 0/1 table of the classes in subset; ParameterError
    unless they lie in 0..m-1.  Bounded: a library process may pass any number
    of class sets, and a refused one is never cached."""
    if not subset <= frozenset(range(m)):
        raise ParameterError(f"classes {sorted(subset)} not within 0..{m - 1}")
    member = np.zeros(m, dtype=np.uint8)
    member[list(subset)] = 1
    member.setflags(write=False)
    return member


def _core_from_classes(params: PrimeParams, m: int, subset: frozenset[int]) -> np.ndarray:
    """The 0/1 word on 0..p-1 of the order-m cosets C_l, l in subset: one gather
    of the class set's cached membership table at the arena's coset table,
    ind(n) mod m.  Slot 0 is zeroed after, since index_table[0] = -1 wraps to
    class m - 1."""
    cosets = params.cosets(m)
    core = _membership(m, subset)[cosets]
    core[0] = 0
    return core


def ignores_root(name: str) -> bool:
    """Whether every primitive root gives the named construction one word: a
    change of root multiplies each class by a unit mod m, and mod 2 that is 1."""
    return CLASS_SETS[name][0] <= 2


def named_sequence(params: PrimeParams, name: str, length: int) -> BitSequence:
    """The word of CLASS_SETS[name] on the arena params, labelled name(p=..,g=..),
    without g when the word ignores the root."""
    m, subset = CLASS_SETS[name]
    g = "" if ignores_root(name) else f",g={params.g}"
    return _word(_core_from_classes(params, m, subset), length, f"{name}(p={params.p}{g})")


def hall_sequence(params: PrimeParams, length: int) -> BitSequence:
    """Hall's sextic residue sequence, CLASS_SETS["hall"]."""
    return named_sequence(params, "hall", length)


def _core_via_characters(params: PrimeParams, m: int, subset: frozenset[int]) -> np.ndarray:
    """The 0/1 word on 0..p-1 of (m, subset) from sum_j c_j chi_m**j(n) at
    every n = 1..p-1 at once.  chi_m**j(n) = w**((6/m) j ind(n) mod 6), so each
    term c_j chi_m**j(n) is read off row j of `_character_table` at that phase.
    InvariantViolation unless every value is +-1 over the denominator; bit n
    is 1 where it is -1.
    """
    table, den = _character_table(m, subset)
    rows = np.arange(m)[:, None]
    phase = (6 // m) * rows * params.cosets(m)[1:] % 6
    col = phase.astype(np.intp) + 6 * rows  # into the flattened table: row j, column phase
    a, b = (t.ravel()[col].sum(axis=0) for t in table)
    bad = (b != 0) | (np.abs(a) != den)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(f"n={i + 1}: character sum {a[i]} + {b[i]}*w over {den}, not +-1")
    core = np.zeros(params.p, dtype=np.uint8)
    core[1:] = a < 0
    return core


def hall_sequence_via_characters(params: PrimeParams, length: int) -> BitSequence:
    """Hall's word from its character expansion sum_j c_j chi**j(n); h_0 = 0."""
    return _word(_core_via_characters(params, *CLASS_SETS["hall"]), length,
                 f"hall_via_characters(p={params.p},g={params.g})")


def legendre_sequence(p: int, length: int) -> BitSequence:
    """Characteristic sequence of the nonzero quadratic residues mod p."""
    return named_sequence(PrimeParams.create(p), "legendre", length)


def dhl_sequence(p: int, g: int, length: int) -> BitSequence:
    """Ding-Helleseth-Lam sequence: the nonzero fourth powers and g times them."""
    check_prime(p, CLASS_SETS["dhl"][0])
    return named_sequence(PrimeParams.create(p, g), "dhl", length)


def cyclotomic_sequence(params: PrimeParams, m: int, subset, length: int) -> BitSequence:
    """Characteristic sequence of a union of order-m cyclotomic cosets."""
    subset = frozenset(int(s) for s in subset)
    s_str = ",".join(map(str, sorted(subset)))
    return _word(_core_from_classes(params, m, subset), length,
                 f"cyclotomic(p={params.p},g={params.g},m={m},S={{{s_str}}})")


def permutation_map_f(params: PrimeParams, n):
    """The bijection of {1..p-1} interchanging cosets C2 and C3 (identity elsewhere).

    Elementwise on an array of residues (an int gives an int); ParameterError
    if any argument is 0 mod p.
    """
    p = params.p
    n = np.asarray(np.asarray(n) % p, dtype=np.int64)
    if (n == 0).any():
        raise ParameterError("f is undefined at 0")
    l = params.cosets(6)[n]
    out = np.where(l == 2, params.g * n % p, np.where(l == 3, pow(params.g, -1, p) * n % p, n))
    return int(out) if out.ndim == 0 else out


def check_index_representation(params: PrimeParams) -> bool:
    """Verify h_n = 0 exactly when ind_{g^-1}(f(n)) mod 6 lies in {1, 2, 3}.

    ind with respect to g^-1 is (-ind_g) mod (p-1), so -ind_g mod 6 as 6 | p-1,
    and -c mod 6 is in {1, 2, 3} exactly when c = ind_g mod 6 is in {3, 4, 5}:
    a comparison, which no unsigned table can wrap as a negation would.
    f is evaluated once on the array 1..p-1, which it permutes, so no f(n) is 0.
    """
    fn = permutation_map_f(params, np.arange(1, params.p))
    core = _core_from_classes(params, *CLASS_SETS["hall"])
    return bool(np.array_equal(core[1:] == 0, params.cosets(6)[fn] >= 3))


_PERIOD_RE = re.compile(r"^(?P<label>.*?)\s*period=(?P<t>\d+)$")


def write_sequence(seq: BitSequence, path) -> None:
    """ASCII '0'/'1' file with a '#' header line carrying the label."""
    header = seq.label
    if seq.period is not None:
        header = f"{header} period={seq.period}".strip()
    text = (f"# {header}\n" if header else "") + seq.to01() + "\n"
    Path(path).write_text(text)


def read_sequence(path, period: int | None = None) -> BitSequence:
    """Read a file written by write_sequence; headerless files read as unlabelled, aperiodic.

    ParameterError unless the file is UTF-8 text whose non-'#' lines, stripped
    and joined, form a nonempty word of ASCII '0'/'1' that wraps with the
    header's period.  `period`, when given, is the word's period in place of
    the header's, and the word must wrap with it too.  The file is decoded and
    its bits checked once, into the one array the word holds.
    """
    with open(path, "rb") as f:  # a directory is refused here, naming the path
        raw = f.read()
    try:
        lines = raw.decode().splitlines()
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: not a UTF-8 text file")
    label = ""
    header_period = None
    body = []
    for line in lines:
        if line.startswith("#"):
            header = line[1:].strip()
            m = _PERIOD_RE.match(header)
            if m:
                label, header_period = m.group("label"), int(m.group("t"))
            else:
                label = header
        elif line.strip():
            body.append(line.strip())
    word = "".join(body).encode()
    if not word or word.translate(None, b"01"):  # a non-ASCII digit is other bytes
        raise ParameterError(f"{path}: not a 0/1 sequence file")
    bits = np.frombuffer(word, dtype=np.uint8) - ord("0")
    if period is None:
        period = header_period
    else:  # an overridden header period is still checked, first
        _check_period(bits, header_period)
    return BitSequence._checked(bits, period, label)
