"""The benchmark's workloads: inputs made from a seed, the `cli.main` calls of
one pass, and the check of every output.

paper-claims     the seven suites of scripts/verify_paper_claims.py with their
                 exact arguments, then `scan --ck 2 --primes upto:499`.
profiles-2p      per seeded prime in 10^3..3*10^3: `verify moc-le-lc --N 2p`,
                 `verify diffset --g-policy both` (sextic primes) and
                 `measure --two-adic`.
measure-session  a seeded stream of `measure` requests against one cache file
                 that starts empty each pass; every request is sent twice.

Seeds change which inputs are drawn, never how much work a pass holds: each
draw is among interchangeable candidates (same residue class, same root
policy outcome, nearly the same size), so figures from different seeds are
comparable.  paper-claims and profiles-2p outputs are checked against the seed
commit's outputs stored in reference/; measure-session values are checked
against an uncached library recomputation done after the timed passes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
UNRESOLVED = {"n/a", "budget-exceeded", "no-such-root"}
OK_EXIT_CODES = {0, 2, 3, 4}


@dataclass
class Op:
    key: str  # names the operation independently of the seed
    argv: list[str]


@dataclass
class OpResult:
    code: int | None  # None when cli.main raised
    out: str
    seconds: float
    error: str = ""


@dataclass
class Verdict:
    failed: bool
    resolved: int  # checks that reached a definite answer
    units: int  # checks counted for resolved_frac
    known_defect: bool = False  # the seed commit's label-keyed cache collision
    why: str = ""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _three_in_c1_possible(p: int) -> bool:
    """Some primitive root puts 3 in C1 iff ind(3) is prime to 6: 3 neither a square nor a cube."""
    return p % 6 == 1 and pow(3, (p - 1) // 2, p) != 1 and pow(3, (p - 1) // 3, p) != 1


# ---------------------------------------------------------------------------
# output parsing and the reference rule

_VERIFY_LINE = re.compile(r"^\[(PASS|FAIL|N/A|REPORT)\s*\] (.*?)  (.*)$")


def parse_checks(argv: list[str], out: str) -> dict[str, tuple[str, str]]:
    """Check name -> (status, detail) for verify lines, scan rows and measure records."""
    checks = {}
    if argv[0] == "verify":
        for line in out.splitlines():
            m = _VERIFY_LINE.match(line)
            if m:
                checks[m.group(2)] = (m.group(1).lower(), m.group(3))
    elif argv[0] == "scan":
        for line in out.splitlines():
            row = json.loads(line)
            checks[f"scan p={row['p']}"] = (row["status"], _canonical(row))
    else:  # measure --two-adic
        lines = out.splitlines()
        if lines:
            v = json.loads(lines[-1])["value"]
            digest = hashlib.sha256(str(v["S2"]).encode()).hexdigest()
            detail = {"gcd": v["gcd"], "complexity": v["complexity"], "maximal": v["maximal"],
                      "S2_sha256": digest, "modulus_bits": v["modulus"].bit_length()}
            checks["two-adic"] = ("ok", _canonical(detail))
    return checks


def _is_mode_detail(name: str) -> bool:
    # iw17/bw06 details name the mode (exact, certified-partial); the verdict is the status
    return name.startswith(("iw17 ", "bw06 "))


def compare_to_reference(checks, ref: dict, complete: bool) -> list[str]:
    """A check the reference resolved must match it; an unresolved one may resolve but not fail."""
    problems = []
    for name, (status, detail) in checks.items():
        if status == "fail":
            problems.append(f"{name}: fail {detail}")
            continue
        if name not in ref:
            problems.append(f"{name}: not in the reference")
            continue
        rstatus, rdetail = ref[name]
        if rstatus in UNRESOLVED:
            continue
        if status != rstatus or (detail != rdetail and not _is_mode_detail(name)):
            problems.append(f"{name}: got {status} {detail!r}, reference {rstatus} {rdetail!r}")
    if complete:
        problems += [f"{name}: missing" for name in ref if name not in checks]
    return problems


def generic_failure(res: OpResult) -> str:
    if res.code is None:
        return f"raised: {res.error.strip().splitlines()[-1] if res.error else '?'}"
    if res.code not in OK_EXIT_CODES:
        return f"exit code {res.code}"
    if res.code == 4:
        return "verification failure (exit 4)"
    return ""


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.ops: list[Op] = []

    def reset(self) -> None:
        """Runs before each pass, outside its timing."""

    def check(self, op: Op, res: OpResult) -> Verdict:
        raise NotImplementedError


class ReferenceWorkload(Workload):
    """Workloads whose outputs are compared with the stored seed-commit outputs."""

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        path = REFERENCE_DIR / f"{self.name}.json"
        self.reference = json.loads(path.read_text()) if path.exists() else None

    def check(self, op: Op, res: OpResult) -> Verdict:
        why = generic_failure(res)
        checks = parse_checks(op.argv, res.out) if res.code is not None else {}
        units = max(len(checks), 1)
        resolved = sum(status not in UNRESOLVED for status, _ in checks.values())
        if res.code == 3:
            resolved = 0
        if not why:
            if self.reference is None:
                raise FileNotFoundError(f"no reference outputs for {self.name}; run make_reference.py")
            entry = self.reference.get(op.key)
            if entry is None:
                why = "operation not in the reference"
            else:
                ref_checks = {k: tuple(v) for k, v in entry["checks"].items()}
                problems = compare_to_reference(checks, ref_checks, complete=self.size == "full")
                why = "; ".join(problems[:3])
        return Verdict(failed=bool(why), resolved=resolved, units=units, why=why)


# ---------------------------------------------------------------------------
# paper-claims

PAPER_SUITES = [
    ["verify", "--suite", "diffset", "--primes", "31,43,127", "--g-policy", "three-in-c1"],
    ["verify", "--suite", "cross-construction", "--primes", "upto:499"],
    ["verify", "--suite", "index-representation", "--primes", "upto:499"],
    ["verify", "--suite", "moc-le-lc", "--primes", "upto:101", "--N", "2p"],
    ["verify", "--suite", "iw17", "--primes", "upto:101"],
    ["verify", "--suite", "bw06", "--primes", "upto:101"],
    ["verify", "--suite", "weil", "--primes", "13,31", "--kmax", "2", "--queries", "200"],
    ["scan", "--ck", "2", "--primes", "upto:499", "--no-cache"],
]
# At the default budget (10^9 windows) bw06 alone takes 24-34 s, one pass per
# run, and a single pass cannot be told apart from host speed drift.  A
# twentieth of it keeps bw06 on exact C_k at k <= 6 and N <= 101 (k = 6 up to
# N = 31, k = 5 up to N = 43) in about 2 s, and it runs one call per prime so
# that no operation is long next to the host's fast and slow phases.
BW06_BUDGET = 50_000_000
# Toy size keeps each suite's arguments but fewer primes, so its checks are a
# subset of the full reference.
TOY_PRIMES = {"31,43,127": "31,43", "upto:499": "upto:61", "upto:101": "upto:31", "13,31": "13"}


def _odd_primes_upto(n: int) -> list[int]:
    """The primes `--primes upto:n` selects."""
    return [p for p in range(3, n + 1) if _is_prime(p)]


class PaperClaims(ReferenceWorkload):
    name = "paper-claims"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        for argv in PAPER_SUITES:
            key = argv[2] if argv[0] == "verify" else "scan"
            if size == "toy":
                argv = [TOY_PRIMES.get(a, a) for a in argv]
            if key == "weil":  # --seed drives only the weil suite's random queries
                argv = [*argv, "--seed", str(seed)]
            if key == "bw06":
                upto = int(argv[4].removeprefix("upto:"))
                self.ops += [Op(f"bw06 p={p}", ["verify", "--suite", "bw06", "--primes", str(p),
                                                "--budget", str(BW06_BUDGET)])
                             for p in _odd_primes_upto(upto)]
            else:
                self.ops.append(Op(key, argv))


# ---------------------------------------------------------------------------
# profiles-2p

# Each seed draws one prime per row.  The primes of a row cost the same: the
# same residue mod 12 (which fixes the sequences moc-le-lc builds: hall if
# p = 1 mod 6, dhl if p = 1 mod 4, and whether diffset runs), the same
# three-in-c1 outcome, sizes within 4%, and the same linear complexity for each
# sequence built (BM's cost follows it; Legendre's is p or about p/2 depending
# on p mod 8).  Near 10^3 no two primes share size and complexity class, so
# the two small rows hold one prime each.  The primes stay below 3000 so that
# no operation takes much over half a second and a run holds ten passes or
# more: its per-operation minimum then finds the host's fast phases.
PROFILE_POOL = [
    [1033],  # 1 mod 12: hall, legendre, dhl; three-in-c1 impossible
    [1459],  # 7 mod 12: hall, legendre; three-in-c1 possible
    [1433, 1481],  # 5 mod 12, 1 mod 8: legendre and dhl of complexity about p/2
    [2879, 2903, 2927],  # 11 mod 12, 7 mod 8: legendre only, complexity (p+1)/2
]
TOY_PROFILE_POOL = PROFILE_POOL[:1]


def profile_ops(p: int) -> list[Op]:
    ops = [Op(f"moc-le-lc p={p}",
              ["verify", "--suite", "moc-le-lc", "--primes", str(p), "--N", "2p"])]
    if p % 6 == 1:
        ops.append(Op(f"diffset p={p}",
                      ["verify", "--suite", "diffset", "--primes", str(p), "--g-policy", "both"]))
    construction = "hall" if p % 6 == 1 else "legendre"
    ops.append(Op(f"two-adic p={p}", ["measure", "--construction", construction, "--p", str(p),
                                      "--two-adic", "--no-cache"]))
    return ops


class Profiles2p(ReferenceWorkload):
    name = "profiles-2p"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = random.Random(seed)
        pool = TOY_PROFILE_POOL if size == "toy" else PROFILE_POOL
        self.primes = [rng.choice(cands) for cands in pool]
        for p in self.primes:
            self.ops += profile_ops(p)


# ---------------------------------------------------------------------------
# measure-session

# Where the sequence comes from: construction, --g policy, extra arguments, and
# how it reaches `measure` (built directly, a generated .seq file, or that file
# with its header line stripped).
SOURCES = {
    "hall": ("hall", "smallest", [], "direct"),
    "hall-3c1": ("hall", "three-in-c1", [], "direct"),
    "legendre": ("legendre", None, [], "direct"),
    "dhl": ("dhl", "smallest", [], "direct"),
    "cyclo-m3": ("cyclotomic", "smallest", ["--m", "3", "--classes", "0"], "direct"),
    "cyclo-m6-3c1": ("cyclotomic", "three-in-c1", ["--m", "6", "--classes", "0,1,3"], "direct"),
    "file-hall": ("hall", "smallest", [], "file"),
    "file-dhl": ("dhl", "smallest", [], "file"),
    "bare-legendre": ("legendre", None, [], "headerless"),
    "bare-hall": ("hall", "smallest", [], "headerless"),
}
# Measure templates: (name, measure arguments, length as a multiple of p, centre
# of p).  Sizes keep exact C_k within the default budget (k = 3 needs N <= ~180).
TEMPLATES = [
    ("ck1", ["--ck", "1"], 2, 250),
    ("ck2", ["--ck", "2"], 1, 250),
    ("ck2-2p", ["--ck", "2"], 2, 120),
    ("ck3", ["--ck", "3"], 1, 60),
    ("ck3-2p", ["--ck", "3"], 2, 30),
    ("sampled3", ["--ck", "3", "--sampled", "40"], 2, 250),
    ("sampled4", ["--ck", "4", "--sampled", "40"], 1, 250),
    ("autocorr-t", ["--autocorr"], 1, 200),
    ("autocorr-all", ["--autocorr", "all"], 2, 150),
    ("lc", ["--lc-profile"], 1, 250),
    ("lc-2p", ["--lc-profile"], 2, 150),
    ("moc", ["--moc-profile"], 2, 250),
    ("two-adic", ["--two-adic"], 1, 250),
    ("two-adic-2p", ["--two-adic"], 2, 150),
]
# Requests that differ from an earlier one only in --length: (source, template).
LENGTH_TWINS = [("hall", "ck2"), ("legendre", "lc"), ("dhl", "moc")]
TOY_SOURCES = ["hall", "file-dhl", "bare-legendre", "bare-hall"]
# A seed draws among the first few valid primes from a template's centre that
# are within 5% of the first, so that every seed's requests cost about the same.
CANDIDATES = 4
SIZE_SPREAD = 1.05
DEFAULT_BUDGET = 10**9


def _valid(construction: str, g_policy, extra, p: int, margs: list[str], mult: int) -> bool:
    if not _is_prime(p) or p < 5:
        return False
    n = mult * p
    if margs[0] == "--ck" and "--sampled" not in margs and math.comb(n, int(margs[1])) * n > DEFAULT_BUDGET:
        return False
    if g_policy == "three-in-c1" and not _three_in_c1_possible(p):
        return False
    if construction == "hall":
        return p % 6 == 1
    if construction == "dhl":
        return p % 4 == 1
    if construction == "cyclotomic":
        return (p - 1) % int(extra[1]) == 0
    return True


@functools.cache
def _primitive_root(p: int, three_in_c1: bool) -> int:
    """Smallest primitive root (with ind(3) = 1 mod 6 if asked), by brute force."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            if not three_in_c1 or next(e for e in range(p - 1) if pow(g, e, p) == 3) % 6 == 1:
                return g
    raise ValueError(p)


def _label(construction, g_policy, extra, p) -> str:
    if construction == "legendre":
        return f"legendre(p={p})"
    g = _primitive_root(p, g_policy == "three-in-c1")
    if construction == "cyclotomic":
        return f"cyclotomic(p={p},g={g},m={extra[1]},S={{{extra[3]}}})"
    return f"{construction}(p={p},g={g})"


@dataclass
class Request:
    source: str
    template: str
    p: int
    length: int
    measure_args: list[str]
    identity: tuple  # the seed commit's cache key: (label, measure, params)
    argv: list[str] = field(default_factory=list)
    path: Path | None = None  # .seq input, if any


def _identity(label: str, margs: list[str]) -> tuple:
    if margs[0] == "--ck":
        if "--sampled" in margs:
            params = {"k": int(margs[1]), "samples": int(margs[3]), "seed": int(margs[5])}
        else:
            params = {"k": int(margs[1]), "budget": DEFAULT_BUDGET}
        return label, "Ck", _canonical(params)
    if margs[0] == "--autocorr":
        t = margs[1]
        return label, "autocorr", _canonical({"t": t if t == "all" else int(t)})
    name = {"--lc-profile": "lc_profile", "--moc-profile": "moc_profile", "--two-adic": "two_adic"}
    return label, name[margs[0]], _canonical({})


class MeasureSession(Workload):
    name = "measure-session"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.cache = workdir / "cache.jsonl"
        rng = random.Random(seed)
        sources = TOY_SOURCES if size == "toy" else list(SOURCES)
        scale = 4 if size == "toy" else 1
        self.requests: list[Request] = []
        self._expected: dict[int, dict] = {}
        seen: dict[tuple, list[dict]] = {}  # cache key -> values of the requests holding it
        for source in sources:
            construction, g_policy, extra, via = SOURCES[source]
            for tname, margs, mult, centre in TEMPLATES:
                centre = max(centre // scale, 13)
                cands = [p for p in range(centre, 3 * centre)
                         if _valid(construction, g_policy, extra, p, margs, mult)]
                near = sum(p <= SIZE_SPREAD * cands[0] for p in cands)
                start = rng.randrange(min(CANDIDATES, near))
                for i in range(len(cands)):
                    p = cands[(start + i) % len(cands)]
                    margs_p = self._measure_args(margs, p, via, rng)
                    label = "" if via == "headerless" else _label(construction, g_policy, extra, p)
                    ident = _identity(label, margs_p)
                    reqs = [Request(source, tname, p, mult * p, margs_p, ident)]
                    if (source, tname) in LENGTH_TWINS:
                        reqs.append(Request(source, tname + "-twin", p, (3 - mult) * p, margs_p, ident))
                    # Headerless files all share the label "", so their
                    # collisions stay in on purpose, and so do length twins;
                    # other requests never share a cache key by accident.
                    # Requests that share a key must differ in value, so that
                    # every seed's stale hits show as failures.
                    if via != "headerless" and ident in seen:
                        continue
                    values = [_recompute(r) for r in reqs] if via == "headerless" or len(reqs) > 1 else [None]
                    if len(reqs) > 1 and values[0] == values[1]:
                        continue
                    if via == "headerless" and values[0] in seen.get(ident, []):
                        continue
                    break
                else:
                    raise RuntimeError(f"no fitting prime for {source} {tname}")
                seen.setdefault(ident, []).extend(values)
                for req, value in zip(reqs, values):
                    if value is not None:
                        self._expected[len(self.requests)] = value
                    self.requests.append(req)
        for i, req in enumerate(self.requests):
            req.argv = self._argv(i, req)
        order = list(range(len(self.requests))) * 2
        rng.shuffle(order)
        self.ops = [Op(str(i), self.requests[i].argv) for i in order]

    @staticmethod
    def _measure_args(margs, p, via, rng) -> list[str]:
        bare = via == "headerless"
        if margs == ["--autocorr"]:
            return ["--autocorr", "1" if bare else str(rng.randrange(1, p))]
        if "--sampled" in margs:
            return [*margs, "--seed", "0" if bare else str(rng.randrange(1000))]
        return list(margs)

    def _argv(self, i: int, req: Request) -> list[str]:
        construction, g_policy, extra, via = SOURCES[req.source]
        source_args = ["--construction", construction, "--p", str(req.p), *extra,
                       *(["--g", g_policy] if g_policy else []), "--length", str(req.length)]
        if via == "direct":
            src = source_args
        else:
            req.path = self.workdir / f"req{i}.seq"
            src = ["--input", str(req.path)]
            if via == "headerless":
                src += ["--period", str(req.p)]
        return ["measure", *src, *req.measure_args, "--cache", str(self.cache)]

    def write_inputs(self, cli_main) -> None:
        """Generate the .seq inputs with `cycloseq generate`; strip headers where asked."""
        for req in self.requests:
            if req.path is None:
                continue
            construction, g_policy, extra, via = SOURCES[req.source]
            argv = ["generate", "--construction", construction, "--p", str(req.p), *extra,
                    *(["--g", g_policy] if g_policy else []), "--length", str(req.length),
                    "--output", str(req.path)]
            if cli_main(argv) != 0:
                raise RuntimeError(f"generate failed: {argv}")
            if via == "headerless":
                lines = req.path.read_text().splitlines()
                req.path.write_text("".join(line + "\n" for line in lines if not line.startswith("#")))

    def reset(self) -> None:
        self.cache.unlink(missing_ok=True)

    def expected(self, i: int) -> dict:
        """Value (and witness) of request i recomputed with the library, without cache or CLI."""
        if i not in self._expected:
            self._expected[i] = _recompute(self.requests[i])
        return self._expected[i]

    def check(self, op: Op, res: OpResult) -> Verdict:
        why = generic_failure(res)
        if why or res.code != 0:
            return Verdict(failed=bool(why), resolved=0, units=1, why=why or f"exit {res.code}")
        i = int(op.key)
        served = json.loads(res.out.splitlines()[-1])
        got = json.loads(_canonical({"value": served["value"], "witness": served.get("witness")}))
        want = self.expected(i)
        if got == want:
            return Verdict(failed=False, resolved=1, units=1)
        # The seed commit keys its cache on the label only, so a request can
        # be served the value of an earlier request with the same label.
        ident = self.requests[i].identity
        stale = any(self.requests[j].identity == ident and self.expected(j) == got
                    for j in range(len(self.requests)) if j != i)
        return Verdict(failed=True, resolved=1, units=1, known_defect=stale,
                       why=("stale cache hit (label-keyed)" if stale else "wrong value")
                       + f": {' '.join(op.argv[:-2])}")


def _recompute(req: Request) -> dict:
    from cycloseq import measures, ntheory, seqgen

    construction, g_policy, extra, via = SOURCES[req.source]
    p, n = req.p, req.length
    g = None
    if g_policy:
        g = ntheory.find_primitive_root(p, ntheory.THREE_IN_C1 if g_policy == "three-in-c1" else None)
    if construction == "hall":
        seq = seqgen.hall_sequence(ntheory.SexticParams.create(p, g=g), n)
    elif construction == "legendre":
        seq = seqgen.legendre_sequence(p, n)
    elif construction == "dhl":
        seq = seqgen.dhl_sequence(p, g, n)
    else:
        classes = [int(c) for c in extra[3].split(",")]
        seq = seqgen.cyclotomic_sequence(ntheory.PrimeParams.create(p, g=g), int(extra[1]), classes, n)
    if seq.label != req.identity[0] and via != "headerless":
        raise RuntimeError(f"label {seq.label!r} differs from the predicted {req.identity[0]!r}")

    margs = req.measure_args
    witness = None
    if margs[0] == "--ck":
        k = int(margs[1])
        if "--sampled" in margs:
            rep = measures.correlation_measure_sampled(seq, k, int(margs[3]), int(margs[5]))
        else:
            rep = measures.correlation_measure_exact(seq, k, budget=DEFAULT_BUDGET)
        value = rep.value
        witness = {"D": list(rep.witness_D), "M": rep.witness_M, "exhaustive": rep.exhaustive}
    elif margs[0] == "--autocorr":
        if margs[1] == "all":
            value = {str(t): measures.periodic_autocorrelation(seq, t) for t in range(1, p)}
        else:
            value = measures.periodic_autocorrelation(seq, int(margs[1]))
    elif margs[0] == "--lc-profile":
        value = list(measures.berlekamp_massey_profile(seq).values)
    elif margs[0] == "--moc-profile":
        value = list(measures.max_order_complexity_profile(seq).values)
    else:
        rep = measures.two_adic_complexity(seq)
        value = {"S2": rep.numerator, "modulus": rep.modulus, "gcd": rep.gcd_value,
                 "complexity": rep.complexity, "maximal": rep.is_maximal}
    return json.loads(_canonical({"value": value, "witness": witness}))


WORKLOADS = {w.name: w for w in (PaperClaims, Profiles2p, MeasureSession)}
