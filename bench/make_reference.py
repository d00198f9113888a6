#!/usr/bin/env python3
"""Record the outputs that paper-claims and profiles-2p runs are checked against.

Run it at the commit whose outputs are the reference:

    python3 bench/make_reference.py

paper-claims outputs do not depend on the seed (the seed moves only the weil
suite's random queries, whose report line is the same for every seed), and
profiles-2p draws its primes from a fixed pool, so one file per workload covers
every seed.
"""

import json

from run import ROOT, import_cycloseq, run_op
from workloads import REFERENCE_DIR, PaperClaims, parse_checks, PROFILE_POOL, profile_ops


def record(cli, ops) -> dict:
    out = {}
    for op in ops:
        res = run_op(cli, op)
        if res.code is None:
            raise RuntimeError(f"{op.argv} raised:\n{res.error}")
        out[op.key] = {"exit": res.code, "checks": parse_checks(op.argv, res.out)}
        print(f"{op.key}: exit {res.code}, {len(out[op.key]['checks'])} checks, {res.seconds:.2f} s",
              flush=True)
    return out


def main() -> int:
    cli = import_cycloseq().cli
    REFERENCE_DIR.mkdir(exist_ok=True)
    paper = PaperClaims(0, "full", ROOT / ".bench_work").ops
    profiles = [op for cands in PROFILE_POOL for p in cands for op in profile_ops(p)]
    for name, ops in (("paper-claims", paper), ("profiles-2p", profiles)):
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record(cli, ops), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
