"""Command-line front end: generate | measure | verify | scan | baseline.

Exit codes: 0 success, 2 parameter error (including a file that cannot be
read or written, and running out of memory), 3 budget exceeded, 4
verification failure (including a broken internal identity).  Records are
emitted as JSON (default) or CSV; `measure` results are served from a JSONL
cache unless --no-cache, keyed by a sha256 of the word's packed bits with its
length and period, the measure, its params and the toolkit version (the label
is provenance only).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from itertools import chain, combinations, islice, product

import numpy as np

from . import bounds, charsum, measures, ntheory, seqgen
from .errors import (
    SHOWN_BITS,
    BudgetExceeded,
    CapExceeded,
    CycloseqError,
    InvariantViolation,
    NoSuchRoot,
    ParameterError,
    check_budget,
)
from .records import MeasureRecord, RecordCache, cache_key

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

# Exit code of each error class; an error takes the entry of its nearest class.
# OSError covers unreadable inputs and unwritable outputs or caches, MemoryError
# an input too large to hold (such as a --length past the memory).
_EXIT_CODES = {
    BudgetExceeded: EXIT_BUDGET,
    CapExceeded: EXIT_BUDGET,
    InvariantViolation: EXIT_VERIFY,
    CycloseqError: EXIT_PARAM,
    OSError: EXIT_PARAM,
    MemoryError: EXIT_PARAM,
}


def _parse_int(tok: str, option: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParameterError(f"{option} takes integers; got {tok!r}")


def _admitted(spec: str, m: int) -> np.ndarray:
    """The primes of a --primes spec with m | p - 1, as one int64 array: 'upto:B',
    the primes from 3 to B, sieved and masked once (upto:30000000's 1 857 858
    primes take 15 MB), or a list '13,31,43', read as ints in the order given:
    numpy's mask costs a list of a few primes more than it saves."""
    if spec.startswith("upto:"):
        bound = _parse_int(spec[len("upto:") :], "--primes upto:")
        # refused before the sieve, as every arena refuses p past the limit
        if bound >= ntheory.P_LIMIT:
            raise ParameterError(f"upto:{bound} is not below the 2**31 limit on p")
        # a sieve over the odd numbers up to bound: entry i stands for 2i + 1
        odd = np.ones(max(0, (bound + 1) // 2), dtype=bool)
        odd[:1] = False
        for i in range(1, (math.isqrt(max(0, bound)) + 1) // 2):
            if odd[i]:  # strike the odd multiples of 2i + 1 from its square on
                odd[2 * i * (i + 1) :: 2 * i + 1] = False
        ps = 2 * np.flatnonzero(odd) + 1
        del odd
        return ps[(ps - 1) % m == 0]
    ps = []
    for tok in spec.split(","):
        if tok := tok.strip():
            p = _parse_int(tok, "--primes")
            if not ntheory.is_prime(p):
                raise ParameterError(f"{p} is not prime")
            # refused here, as upto:B past the limit is, so that every p fits int64
            if p >= ntheory.P_LIMIT:
                raise ParameterError(f"p={p} exceeds the 2**31 limit")
            if (p - 1) % m == 0:
                ps.append(p)
    return np.array(ps, dtype=np.int64)


def _arenas(primes, policies=("smallest",)):
    """(p, policy, arena) for each prime of primes and each root policy, p a plain
    int; arena is None where no root fits the policy.  Arenas come from create's
    memo, which rebases three-in-c1 from the smallest root's arena, so a prime
    builds one index table under both policies."""
    for p in primes:
        p = int(p)
        for policy in policies:
            try:
                arena = ntheory.PrimeParams.create(p, policy)
            except NoSuchRoot:
                arena = None
            yield p, policy, arena


def _parse_g(g_arg: str | None) -> int | str | None:
    """--g as the root an arena's create takes: a policy name, an integer, or
    None (no --g) for the smallest root."""
    if g_arg is None or g_arg in ntheory.G_POLICIES:
        return g_arg
    try:
        return int(g_arg)
    except ValueError:
        raise ParameterError(f"--g must be smallest, three-in-c1, or an integer; got {g_arg!r}")


def _parse_classes(spec: str) -> list[int]:
    return [_parse_int(x, "--classes") for x in spec.split(",") if x.strip() != ""]


def _refuse_unread(args, reader: str, options) -> None:
    """Refuse each of options given with reader, which does not read it: given
    when its dest, read off the option table, holds other than its default."""
    table, defaults = _option_table(args.command)[:2]
    unread = [o for o in options if getattr(args, table[o][0]) != defaults[table[o][0]]]
    if unread:
        raise ParameterError(f"{reader} does not read {', '.join(unread)}")


def _build_sequence(args) -> seqgen.BitSequence:
    length = args.p if args.length is None else args.length
    name = args.construction
    if name in seqgen.CLASS_SETS:  # p is checked for the set's order before the root
        ignored = seqgen.ignores_root(name)
        root = None if ignored else _parse_g(args.g)
        ntheory.check_prime(args.p, seqgen.CLASS_SETS[name][0])
        params = ntheory.PrimeParams.create(args.p, root)
        _refuse_unread(args, f"--construction {name}",
                       ("--g", "--m", "--classes") if ignored else ("--m", "--classes"))
        return seqgen.named_sequence(params, name, length)
    root = _parse_g(args.g)
    # cyclotomic: argparse's choices admit no other construction
    if args.m is None or args.classes is None:
        raise ParameterError("cyclotomic needs --m and --classes")
    params = ntheory.PrimeParams.create(args.p, root)
    return seqgen.cyclotomic_sequence(params, args.m, _parse_classes(args.classes), length)


def _load_sequence(args) -> seqgen.BitSequence:
    if args.input is not None:
        _refuse_unread(args, "--input",
                       ("--construction", "--p", "--g", "--m", "--classes", "--length"))
        return seqgen.read_sequence(args.input, args.period)
    if args.construction is None or args.p is None:  # p = 0 is check_prime's to name
        raise ParameterError("need --input FILE or --construction/--p")
    seq = _build_sequence(args)
    if args.period is not None:
        seq = seqgen.BitSequence.create(seq.bits, period=args.period, label=seq.label)
    return seq


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    if args.construction is None or args.p is None:
        raise ParameterError("generate needs --construction and --p")
    seq = _build_sequence(args)
    out = f"{args.construction}-p{args.p}.seq" if args.output is None else args.output
    seqgen.write_sequence(seq, out)
    print(seq.label)
    return EXIT_OK


def cmd_measure(args) -> int:
    for option, needs in (("sampled", "ck"), ("seed", "sampled"), ("budget", "ck")):
        if getattr(args, option) is not None and getattr(args, needs) is None:
            raise ParameterError(f"--{option} needs --{needs}")
    if args.no_cache:
        _refuse_unread(args, "--no-cache", ("--cache",))
    seq = _load_sequence(args)
    # One pass picks the measure, its params and compute() -> (value, witness).
    # A value does not depend on the budget, so the budget is no part of a key.
    if args.ck is not None:
        measure = "Ck"
        budget = measures.DEFAULT_BUDGET if args.budget is None else args.budget
        if args.sampled is not None:
            seed = 0 if args.seed is None else args.seed
            params = {"k": args.ck, "samples": args.sampled, "seed": seed,
                      "draw": measures.SAMPLED_DRAW}
            run = lambda: measures.correlation_measure_sampled(seq, args.ck, args.sampled, seed,
                                                               budget=budget)
        else:
            params = {"k": args.ck}
            run = lambda: measures.correlation_measure_exact(seq, args.ck, budget=budget)

        def compute():
            rep = run()
            witness = {"D": list(rep.witness_D), "M": rep.witness_M, "exhaustive": rep.exhaustive}
            return rep.value, witness

    elif args.autocorr == "all":
        measure, params = "autocorr", {"t": "all"}

        def compute():
            values = measures.periodic_autocorrelations(seq).tolist()
            return {str(t): a for t, a in enumerate(values, 1)}, None

    elif args.autocorr is not None:
        try:
            t = int(args.autocorr)
        except ValueError:
            raise ParameterError(f"--autocorr must be all or an integer; got {args.autocorr!r}")
        measure, params = "autocorr", {"t": t}
        compute = lambda: (measures.periodic_autocorrelation(seq, t), None)
    elif args.lc_profile:
        measure, params = "lc_profile", {}
        compute = lambda: (list(measures.berlekamp_massey_profile(seq).values), None)
    elif args.moc_profile:
        measure, params = "moc_profile", {}
        compute = lambda: (list(measures.max_order_complexity_profile(seq).values), None)
    elif args.two_adic:
        measure, params = "two_adic", {}

        def compute():
            rep = measures.two_adic_complexity(seq)
            value = {
                "S2": rep.numerator,
                "modulus": rep.modulus,
                "gcd": rep.gcd_value,
                "complexity": rep.complexity,
                "maximal": rep.is_maximal,
            }
            return value, None

    else:
        raise ParameterError(
            "pick one of --ck / --autocorr / --lc-profile / --moc-profile / --two-adic"
        )

    cache_path = "cycloseq-cache.jsonl" if args.cache is None else args.cache
    if args.input is not None and not args.no_cache:
        _refuse_cache_on_input(args.input, cache_path)
    cache = RecordCache(cache_path)
    key = cache_key(seq, measure, params)
    # a hit is the stored line, printed as stored; a miss serializes its record once,
    # for the cache and for the output
    line = None if args.no_cache else cache.get(key)
    if line is None:
        value, witness = compute()
        record = MeasureRecord(sequence_label=seq.label, measure=measure, params=params,
                               value=value, witness=witness, cache_key=key)
        line = record.to_json() if args.no_cache else cache.append(record)
    if args.format == "json":
        print(line)
    else:
        MeasureRecord(**json.loads(line)).write_csv()
    return EXIT_OK


def _refuse_cache_on_input(path, cache_path) -> None:
    """Refuse a cache that is the input file, by any path to it (the same device
    and inode): a record appended to it would leave the word's file unreadable."""
    try:
        same = os.path.samefile(path, cache_path)
    except FileNotFoundError:  # no cache yet: its first append makes a new file
        return
    if same:
        raise ParameterError(f"--cache {cache_path} is the --input file {path}")


def _status(ok) -> str:
    return "pass" if ok else "fail"


def _sextic_suite(args, check):
    """Checks over each prime p = 1 (mod 6) and g policy; check(params) -> (status, detail)."""
    policies = ntheory.G_POLICIES if args.policy == "both" else (args.policy,)
    primes = _admitted(args.primes, seqgen.CLASS_SETS["hall"][0])
    for p, policy, params in _arenas(primes, policies):
        name = f"{args.suite} p={p} policy={policy}"
        yield (name, "n/a", "NoSuchRoot") if params is None else (name, *check(params))


def _cross_construction(params):
    a = seqgen.hall_sequence(params, params.p)
    b = seqgen.hall_sequence_via_characters(params, params.p)
    return _status(np.array_equal(a.bits, b.bits)), f"g={params.g}"


def _index_representation(params):
    return _status(seqgen.check_index_representation(params)), f"g={params.g}"


def _diffset(params):
    rep = bounds.difference_set_check(params)
    if rep.hall_form_u is not None and rep.three_in_c1:
        ok = rep.two_level_ideal and rep.lambda_value == (params.p - 3) // 4
        return _status(ok), f"u={rep.hall_form_u} lambda={rep.lambda_value}"
    return "report", f"two_level={rep.two_level_ideal} (p not 4u^2+27 or 3 not in C1)"


def _word_suite(args, check):
    """check(seq) -> (status, detail) over each named construction whose order
    divides p - 1, on one arena a prime, each word built as it is checked: no
    word waits for another prime's checks."""
    for p, _, params in _arenas(_admitted(args.primes, 2)):
        n = 2 * p if args.N == "2p" else p
        for name, (m, _) in seqgen.CLASS_SETS.items():
            if (p - 1) % m == 0:
                yield (f"{args.suite} {name} p={p}", *check(seqgen.named_sequence(params, name, n)))


def _inequality(ev):
    return _status(ev.satisfied), ev.inputs["mode"]


def _moc_le_lc(seq: seqgen.BitSequence) -> bool:
    """M(n) <= L(n) at every prefix n of seq.  M(N) comes from one sort of the
    word's window codes; BM runs only on prefixes, first 2*M(N) + 2 bits long and
    then twice as long, until L(n) >= M(N) or n = N, and the MOC automaton only on
    the last of them.  Both profiles never fall and both kernels are online, so a
    prefix's profiles are the word's cut at n, and past such an n every later n'
    has M(n') <= M(N) <= L(n) <= L(n'): no later prefix can break M <= L."""
    final = measures.max_order_complexity(seq)
    N = seq.length
    n = min(N, 2 * final + 2)
    while True:
        prefix = seqgen.BitSequence(seq.bits[:n])
        lc = measures.berlekamp_massey_profile(prefix).values
        if lc[-1] >= final or n == N:
            moc = measures.max_order_complexity_profile(prefix).values
            return all(m <= l for m, l in zip(moc, lc))
        n = min(N, 2 * n)


def _weil_suite(args):
    if args.kmax < 1:
        raise ParameterError(f"--kmax must be >= 1; got {args.kmax}")
    if args.queries < 0:
        raise ParameterError(f"--queries must be >= 0; got {args.queries}")
    if args.seed < 0:
        raise ParameterError(f"--seed must be >= 0; got {args.seed}")
    # Python ints: work's comb(p, k) * 5**k would overflow an int64
    primes = _admitted(args.primes, seqgen.CLASS_SETS["hall"][0]).tolist()

    def work(p, kmax):
        """Window evaluations at p, the unit of C_k's comb(N, k) * N: every
        complete sum, and every random query read against at most
        min(queries, 5**kmax) distinct exponent rows, each window at most p.
        The sum stops once it passes 2**SHOWN_BITS, which every budget below it
        refuses, shown by its size; no power of 5 past the queries is built."""
        complete, term = 0, 1
        for k in range(1, kmax + 1):
            term = term * (p - k + 1) * 5 // k  # comb(p, k) * 5**k, exact
            complete += term
            if complete.bit_length() > SHOWN_BITS:
                break
        rows = min(args.queries, 5 ** min(kmax, args.queries.bit_length()))
        return (complete + args.queries * rows) * p

    # each prime's largest k: k > p has no shift tuple
    check_budget(sum(work(p, min(args.kmax, p)) for p in primes), args.budget,
                 "lower --kmax or --queries, or raise --budget")
    if args.queries > sys.maxsize:  # past an intp, numpy would refuse the draw with a ValueError
        raise MemoryError(f"{args.queries} queries are past the address space")
    rng = np.random.default_rng(args.seed)
    for p, _, params in _arenas(primes):
        kmax = min(args.kmax, p)
        bad = 0
        total = 0
        for k in range(1, kmax + 1):
            exponents = np.array(list(product(range(1, 6), repeat=k)))
            tuples = combinations(range(p), k)
            # at most 2**20 verdicts (tuples x exponent rows) per call: 1 MB at any k,
            # not 42 MB for one call per k at p = 127, k = 3
            per_call = max(1, (1 << 20) // len(exponents))
            while (S := np.fromiter(chain.from_iterable(islice(tuples, per_call)),
                                    dtype=np.int64)).size:
                ok = charsum.weil_verdicts(params, exponents, S.reshape(-1, k), p)
                total += ok.size
                bad += ok.size - int(ok.sum())
        yield (f"weil complete p={p} k<={args.kmax}", _status(bad == 0),
               f"{total - bad}/{total} within (k-1)sqrt(p)+k")
        # every query's k, then every window; then for each k in turn its queries'
        # shifts and exponents, one batch over their distinct exponent rows, each
        # query read at its own row
        ks = rng.integers(1, kmax + 1, size=args.queries)
        windows = rng.integers(2, p + 1, size=args.queries)
        sat = 0
        for k in range(1, kmax + 1):
            mine = ks == k
            n = int(mine.sum())
            if not n:
                continue
            shifts = measures._draw_subsets(rng, p, k, n)
            rows, row = np.unique(rng.integers(1, 6, size=(n, k)), axis=0, return_inverse=True)
            ok = charsum.weil_verdicts(params, rows, shifts, windows[mine])
            sat += int(ok[np.arange(n), row].sum())
        yield (f"weil incomplete p={p} ({args.queries} random)", "report",
               f"{sat}/{args.queries} within k*sqrt(p)*(1+ln p)")


# Each suite -> (runner, {option: default}): runner(args) yields (name, status,
# detail), status one of pass/fail/n/a/report; the dict holds the options only
# some suites read, with the default its suite applies.  Library functions are
# looked up at call time, so rebinding one (a monkeypatch, a tracer) reaches them.
_POLICY = {"policy": "both"}
_N = {"N": "p"}
_SUITES = {
    "cross-construction": (lambda args: _sextic_suite(args, _cross_construction), _POLICY),
    "iw17": (lambda args: _word_suite(args, lambda seq: _inequality(bounds.check_iw17(seq))), _N),
    "bw06": (lambda args: _word_suite(args, lambda seq: _inequality(bounds.check_bw06(seq))), _N),
    "moc-le-lc": (lambda args: _word_suite(
        args, lambda seq: (_status(_moc_le_lc(seq)), f"N={seq.length}")), _N),
    "diffset": (lambda args: _sextic_suite(args, _diffset), _POLICY),
    "weil": (_weil_suite, {"seed": 0, "kmax": 6, "queries": 200}),
    "index-representation": (lambda args: _sextic_suite(args, _index_representation), _POLICY),
}
SUITES = tuple(_SUITES)


def cmd_verify(args) -> int:
    run, reads = _SUITES[args.suite]
    if args.policy is not None and "policy" not in reads:
        readers = [suite for suite, (_, options) in _SUITES.items() if "policy" in options]
        raise ParameterError(f"--g-policy is read only by the suites {', '.join(readers)}; "
                             f"{args.suite} checks the smallest root's words")
    for dest in _SUITE_ONLY.values():
        if getattr(args, dest) is None:
            setattr(args, dest, reads.get(dest))
        elif dest not in reads:  # refused, with every other unread one given
            _refuse_unread(args, f"--suite {args.suite}",
                           [o for o, d in _SUITE_ONLY.items() if d not in reads])
    # nothing is printed until the whole suite has run, then everything in one print
    n = {"pass": 0, "fail": 0, "n/a": 0, "report": 0}
    lines = []
    for name, status, detail in run(args):
        n[status] += 1
        lines.append(f"[{status.upper():6s}] {name}  {detail}")
    lines.append(f"suite={args.suite}: {n['pass']} passed, {n['fail']} failed, "
                 f"{n['n/a']} n/a, {n['report']} reported")
    print("\n".join(lines))
    return EXIT_VERIFY if n["fail"] else EXIT_OK


def cmd_scan(args) -> int:
    if args.ck < 1:
        raise ParameterError(f"--ck must be >= 1; got {args.ck}")
    header = ["p", "g", "C_k", "sqrt_p_ln_p", "ratio", "theorem1_kernel", "within_kernel", "status"]
    rows = []
    primes = _admitted(args.primes, seqgen.CLASS_SETS["hall"][0])
    for p, _, params in _arenas(primes, (args.policy,)):
        row = dict.fromkeys(header, "")
        row["p"] = p
        rows.append(row)
        if params is None:
            row["status"] = "no-such-root"
            continue
        row["g"] = params.g
        if args.ck > p:  # C_k of a p-bit word needs k <= p
            row["status"] = "k-above-p"
            continue
        seq = seqgen.hall_sequence(params, p)
        kernel = bounds.theorem1_kernel(args.ck, p)
        norm = math.sqrt(p) * math.log(p)
        row.update(sqrt_p_ln_p=f"{norm:.6g}", theorem1_kernel=f"{kernel:.6g}")
        try:
            rep = measures.correlation_measure_exact(seq, args.ck, budget=args.budget)
        except BudgetExceeded:
            row["status"] = "budget-exceeded"
            continue
        row.update(C_k=rep.value, ratio=f"{rep.value / norm:.6g}",
                   within_kernel=rep.value <= kernel, status="ok")
    if args.format == "csv":
        w = csv.DictWriter(sys.stdout, fieldnames=header)
        w.writeheader()
        w.writerows(rows)
    else:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    return EXIT_OK


def cmd_baseline(args) -> int:
    record = MeasureRecord(
        sequence_label=f"random(N={args.n})",
        measure="Ck",
        params={"mode": "baseline", "k": args.k, "N": args.n, "trials": args.trials,
                "seed": args.seed},
        value=bounds.random_baseline(args.n, args.k, args.trials, args.seed, budget=args.budget),
    )
    if args.format == "json":
        print(record.to_json())
    else:
        record.write_csv()
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


# Each subcommand's options, declared once, as option string -> the keyword
# arguments of its add_argument, in the order its help lists them: the parsers
# and the exact parse's table are both built from _COMMANDS, subcommand -> (help,
# options, the options of its mutually exclusive group).
_FLAG = {"action": "store_true"}
_INT = {"type": int}
# options several subcommands read; each subcommand takes only those it reads
_FORMAT = {"--format": {"choices": ("json", "csv"), "default": "json"}}
_BUDGET = {"--budget": {"type": int, "default": measures.DEFAULT_BUDGET}}
# --g and measure's --seed, --budget and --cache have no default, so that each is
# refused where it is not read; a root is then the smallest, a seed 0, a budget
# DEFAULT_BUDGET and a cache cycloseq-cache.jsonl
_ARENA = {"--construction": {"choices": (*seqgen.CLASS_SETS, "cyclotomic")}, "--p": _INT,
          "--g": {}, "--m": _INT, "--classes": {}, "--length": _INT}
_COMMANDS = {
    "generate": ("construct a sequence file", {**_ARENA, "--output": {}}, {}),
    "measure": ("compute one measure", {**_FORMAT, "--seed": _INT, "--budget": _INT, "--cache": {},
                                        "--no-cache": _FLAG, **_ARENA,
                                        "--input": {}, "--period": _INT, "--sampled": _INT},
                {"--ck": _INT, "--autocorr": {}, "--lc-profile": _FLAG,  # one measure per call
                 "--moc-profile": _FLAG, "--two-adic": _FLAG}),
    "verify": ("run a verification suite", {
        "--seed": _INT, **_BUDGET, "--suite": {"required": True, "choices": SUITES},
        "--primes": {"required": True},
        "--g-policy": {"dest": "policy", "choices": (*ntheory.G_POLICIES, "both")},
        # --seed, --kmax, --queries and --N are read by some suites only, so they
        # have no default here: see _SUITES
        "--kmax": _INT, "--queries": _INT, "--N": {"choices": ("p", "2p")},
    }, {}),
    "scan": ("C_k vs kernel over a prime range", {
        **_FORMAT, **_BUDGET, "--no-cache": _FLAG,  # a no-op kept for the benchmark's scan op
        "--ck": {"type": int, "required": True}, "--primes": {"required": True},
        "--g-policy": {"dest": "policy", "default": "smallest", "choices": ntheory.G_POLICIES},
    }, {}),
    "baseline": ("C_k statistics over random words", {
        **_FORMAT, "--seed": {"type": int, "default": 0}, **_BUDGET, "--n": {"type": int, "required": True},
        "--k": {"type": int, "required": True}, "--trials": {"type": int, "default": 100},
    }, {}),
}

@functools.cache
def _make_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the parser of each subcommand by name."""
    ap = argparse.ArgumentParser(prog="cycloseq", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, options, exclusive) in _COMMANDS.items():
        parser = sub.add_parser(name, help=help_)
        for option, kwargs in options.items():
            parser.add_argument(option, **kwargs)
        if exclusive:  # argparse's usage refuses an empty group
            group = parser.add_mutually_exclusive_group()
            for option, kwargs in exclusive.items():
                group.add_argument(option, **kwargs)
    return ap, sub.choices


@functools.cache
def _option_table(command: str):
    """One subcommand's options as _COMMANDS declares them, read as argparse reads
    them: each option string as its dest, the converter of its value (None for a
    flag) and its choices; the default of every dest, the required dests and the
    dests of the mutually exclusive group."""
    _, options, exclusive = _COMMANDS[command]
    table, defaults, required = {}, {}, []
    for option, kwargs in {**options, **exclusive}.items():
        dest = kwargs.get("dest", option[2:].replace("-", "_"))
        flag = kwargs.get("action") == "store_true"
        table[option] = dest, None if flag else kwargs.get("type", str), kwargs.get("choices")
        defaults[dest] = kwargs.get("default", False if flag else None)
        if kwargs.get("required"):
            required.append(dest)
    return table, defaults, required, [table[option][0] for option in exclusive]


# option string -> dest of the options only some suites read, in verify's order
_SUITE_ONLY = {option: dest for option, (dest, _, _) in _option_table("verify")[0].items()
               if any(dest in reads for _, reads in _SUITES.values())}


def _parse_exact(command: str, argv):
    """The Namespace parse_args builds for argv, the tokens after command, when
    every token is an exact option string of the table followed by its value; None
    for anything else (an abbreviation, --opt=value, -h, --, a positional, a value
    that is missing, starts with '-', is not a choice or fails its converter with
    one of the errors argparse reports, a missing required option, two options of
    the exclusive group), which argparse parses.  Each value is converted and
    checked against its choices here, as argparse would, without building its
    error messages."""
    table, defaults, required, exclusive = _option_table(command)
    seen = {}
    tokens = iter(argv)
    for tok in tokens:
        entry = table.get(tok)
        if entry is None:
            return None
        dest, convert, choices = entry
        if convert is None:  # store_true
            seen[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = convert(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        seen[dest] = value
    if any(d not in seen for d in required) or sum(d in seen for d in exclusive) > 1:
        return None
    ns = argparse.Namespace(command=command)
    vars(ns).update(defaults)  # a third of the time of Namespace(**defaults)
    vars(ns).update(seen)
    return ns


def main(argv=None) -> int:
    # A request is parsed once: from its subcommand's option table when it uses
    # only full-form tokens, else by argparse, built once per process when first
    # needed: the subcommand's parser answers abbreviations, -h and every malformed
    # request, the top-level one what names no subcommand first (no argv, -h, an
    # unknown command).  cmd_* is looked up at call time, so a monkeypatch reaches it.
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args = _parse_exact(argv[0], argv[1:])
        if args is None:
            args = _make_parser()[1][argv[0]].parse_args(argv[1:],
                                                         argparse.Namespace(command=argv[0]))
    else:
        args = _make_parser()[0].parse_args(argv)
    try:
        # measure, verify, scan and baseline take --budget; measure's is None unless given
        if (budget := getattr(args, "budget", None)) is not None and budget < 1:
            raise ParameterError(f"--budget must be >= 1; got {budget}")
        return globals()[f"cmd_{args.command}"](args)
    except tuple(_EXIT_CODES) as e:
        msg = str(e)
        if isinstance(e, MemoryError):  # some allocators raise one with no message
            msg = f"out of memory: {msg}" if msg else "out of memory"
        print(f"error: {msg}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(e).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    raise SystemExit(main())
