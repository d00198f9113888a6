#!/usr/bin/env python3
"""cycloseq benchmark: run one workload in-process through `cycloseq.cli.main`.

    python3 bench/run.py --workload paper-claims --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs a fixed number of whole passes of the workload, as many as --seconds
holds at the pass time this workload has on a slow phase of a 2-core Xeon
host, checks every output, and prints a report line and then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.  Timings
are in seconds at a reference host speed (see SpeedProbe).  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-module
numbers of half the passes with span wrappers installed (see spans.py), after
the other half untraced, which gives the tracing overhead.  `--workload all`
runs each workload in its own process and prints every metric with its unit.

Single process, single thread; the package is imported from src/ next to this
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("paper-claims", "profiles-2p", "measure-session")
SETUP_PROBES = 5
MIN_OPS_FOR_PERCENTILES = 20  # per pass; fewer and op_p50_s/op_tail_s are the mean
# Seconds of one pass on a slow phase of a 2-core Xeon host (Python 3.11).  A
# run makes --seconds / PASS_S passes, a count fixed by its arguments, so that
# two runs of one seed attempt, and fail, the same operations; on a host so
# slow that they outlast LIMIT times --seconds, it stops there.
PASS_S = {"paper-claims": 4.0, "profiles-2p": 2.9, "measure-session": 2.6}
LIMIT = 1.5
PROBE_ITERATIONS = 20_000
PROBE_REF_S = 0.0015  # the probe's time on a fast phase of that host

# name -> (unit, better); the bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "resolved_frac": ("ratio", "higher"),
    "ok_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def import_cycloseq():
    """Import cycloseq from SRC; exit non-zero when the checkout holds no source tree."""
    if not (SRC / "cycloseq" / "__init__.py").is_file():
        sys.exit(f"error: no cycloseq source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import cycloseq
    import cycloseq.cli

    if not Path(cycloseq.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: cycloseq was imported from {cycloseq.__file__}, not {SRC}")
    return cycloseq


def calibrate(iterations: int = 200_000) -> float:
    """A fixed pure-Python loop, timed to record host speed beside each run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Host speed next to each operation: the calibration loop at 1/10 size.

    The reference host alternates, for seconds to minutes at a time, between a
    fast phase and phases 1.5x to 3x slower, in CPU time as in wall time; the
    workloads slow down by about the same factor as this loop (within ~10%).
    `scales[i]` is PROBE_REF_S over the mean of the probes just before and
    just after operation i: a time multiplied by it is in seconds at the
    reference speed, whatever phase the host was in.
    """

    EVERY_S = 0.025  # a probe after the first operation that ends this long after the last probe

    def __init__(self):
        self.last = calibrate(PROBE_ITERATIONS)
        self.at = time.perf_counter()
        self.pending: list[int] = []
        self.scales: dict[int, float] = {}
        self.samples = [self.last]

    def after(self, i: int, force: bool = False) -> None:
        self.pending.append(i)
        if force or time.perf_counter() - self.at >= self.EVERY_S:
            now = calibrate(PROBE_ITERATIONS)
            self.samples.append(now)
            scale = PROBE_REF_S / ((self.last + now) / 2)
            self.scales.update((j, scale) for j in self.pending)
            self.pending.clear()
            self.last, self.at = now, time.perf_counter()


def machine() -> dict:
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def quantile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_op(cli, op):
    from workloads import OpResult

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        error = ""
    except SystemExit as e:  # argparse rejects an argument
        code, error = e.code if isinstance(e.code, int) else 2, ""
    except Exception:  # noqa: BLE001 - recorded as a failed operation
        code, error = None, traceback.format_exc()
    return OpResult(code=code, out=out.getvalue(), seconds=time.perf_counter() - t0, error=error)


class Tally:
    """Output checks of every operation, made between passes so no output is kept."""

    def __init__(self):
        self.attempted = self.failed = self.known_defect = self.resolved = self.units = 0
        self.problems: list[str] = []

    def add(self, work, results) -> None:
        for op, res in zip(work.ops, results):
            v = work.check(op, res)
            self.attempted += 1
            self.failed += v.failed
            self.known_defect += v.failed and v.known_defect
            self.resolved += v.resolved
            self.units += v.units
            if v.failed and v.why not in self.problems:
                self.problems.append(v.why)


def pass_count(name: str, seconds: float) -> int:
    return max(1, int(seconds / PASS_S[name]))


def run_passes(cli, work, n: int, tally: Tally, tracer=None, probe=None, probes: int = 0,
               speed: bool = False, limit_s: float = math.inf) -> list[dict]:
    """`n` whole passes, fewer if they pass `limit_s`; `probes` calls of `probe`
    spread evenly between them, outside their timing.

    With `speed`, a SpeedProbe runs between operations, outside their timing,
    and each pass records the scale of every operation.
    """
    passes = []
    probe_at = [i * n // probes for i in range(probes)] if probes else []
    start = time.perf_counter()
    for i in range(n):
        if passes and time.perf_counter() - start > limit_s:
            break
        for _ in range(probe_at.count(i)):
            probe()
        work.reset()
        gc.collect()
        root_before = tracer.root_s if tracer else 0.0
        sp = SpeedProbe() if speed else None
        results = []
        for j, op in enumerate(work.ops):
            results.append(run_op(cli, op))
            if sp:
                sp.after(j, force=j == len(work.ops) - 1)
        latencies = [r.seconds for r in results]
        root = (tracer.root_s - root_before) if tracer else 0.0
        tally.add(work, results)
        passes.append({"wall": sum(latencies), "root": root, "latencies": latencies,
                       "scales": [sp.scales[j] for j in range(len(work.ops))] if sp else None,
                       "probe_s": statistics.median(sp.samples) if sp else None})
    return passes


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh process to the moment it would make its first timed call,
    and the SpeedProbe scale around it."""
    before = calibrate(PROBE_ITERATIONS)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--setup-probe"], capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    seconds = float(proc.stdout.strip().splitlines()[-1]) - t0
    return seconds, PROBE_REF_S / ((before + calibrate(PROBE_ITERATIONS)) / 2)


def make_workload(name: str, seed: int, size: str, workdir: Path, cli):
    from workloads import WORKLOADS

    work = WORKLOADS[name](seed, size, workdir)
    if hasattr(work, "write_inputs"):
        work.write_inputs(lambda argv: _quiet(cli.main, argv))
    return work


def _remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):  # still in use by another run
        workdir.parent.rmdir()


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 setup_probes: int = SETUP_PROBES, slowdown=None) -> tuple[dict, dict]:
    """Run one workload; returns (report, result) where result is the contract's last line.

    `slowdown`, if given, is called after the package is imported and before
    tracing is installed (the self-test plants a regression with it).
    """
    cycloseq = import_cycloseq()
    cli = cycloseq.cli
    sys.path.insert(0, str(BENCH_DIR))
    import spans

    n = pass_count(name, seconds)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = make_workload(name, seed, size, workdir, cli)
        if slowdown:
            slowdown()
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "size": size, "ops_per_pass": len(work.ops), "machine": machine(),
                  "loadavg_before": os.getloadavg(),
                  "calibration_s_before": statistics.median(calibrate() for _ in range(3))}
        tally = Tally()
        setup: list[tuple[float, float]] = []
        traced = []
        if trace:
            half = max(1, n // 2)
            passes = run_passes(cli, work, half, tally, limit_s=LIMIT * seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_passes(cli, work, half, tally, tracer, limit_s=LIMIT * seconds / 2)
            finally:
                tracer.uninstall()
        else:
            # Set-up probes run between passes, so that they meet the host's
            # fast and slow phases in the same mix as the passes do.
            passes = run_passes(cli, work, n, tally, probes=setup_probes,
                                probe=lambda: setup.append(setup_probe(name, seed)), speed=True,
                                limit_s=LIMIT * seconds)
        report["calibration_s_after"] = statistics.median(calibrate() for _ in range(3))
        report["loadavg_after"] = os.getloadavg()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        _remove_workdir(workdir)

    report.update(passes=len(passes), traced_passes=len(traced), attempted=tally.attempted,
                  failed=tally.failed, failed_frac=tally.failed / tally.attempted,
                  known_defect_failures=tally.known_defect, problems=tally.problems[:10])
    if trace:
        metrics = per_layer(spans, tracer, passes, traced, report)
        units = {n: u for n, u, _ in spans.PER_LAYER}
    else:
        metrics = end_to_end(passes, work, tally, setup, peak_rss_mb, report)
        units = {n: u for n, (u, _) in END_TO_END.items()}
    result = {"correct": tally.failed == tally.known_defect, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    return report, result


def end_to_end(passes, work, tally, setup, peak_rss_mb, report) -> dict:
    """Timings in seconds at the reference speed (see SpeedProbe).

    Each operation's latency is scaled by the probes around it; an
    operation's time is the median of its scaled latencies over the passes.
    The measured seconds, unscaled, are in the report line.
    """
    n_ops = len(work.ops)
    best = [statistics.median(p["latencies"][i] * p["scales"][i] for p in passes) for i in range(n_ops)]
    raw = [statistics.median(p["latencies"][i] for p in passes) for i in range(n_ops)]
    if n_ops >= MIN_OPS_FOR_PERCENTILES:
        # The tail is the highest percentile with at least ten operations beyond it.
        q = 1 - 10 / n_ops
        p50, tail, how = statistics.median(best), quantile(best, q), f"median, p{100 * q:.2f}"
    else:
        # The median of a few heterogeneous operations is whichever short one
        # lands in the middle, and no tail percentile exists: report the mean.
        p50 = tail = statistics.fmean(best)
        how = f"mean of {n_ops} operations per pass"
    report.update(op_statistics=f"{how}, of each operation's median over {len(passes)} passes",
                  measured_wall_s=sum(raw), measured_setup_s=statistics.median(s for s, _ in setup),
                  pass_walls_s=[p["wall"] for p in passes],
                  probe_s_per_pass=[p["probe_s"] for p in passes], probe_ref_s=PROBE_REF_S,
                  setup_samples_s=[s for s, _ in setup])
    return {
        "setup_s": statistics.median(s * scale for s, scale in setup),
        "wall_s": sum(best),
        "op_p50_s": p50,
        "op_tail_s": tail,
        "resolved_frac": tally.resolved / tally.units,
        "ok_frac": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans, tracer, passes, traced, report) -> dict:
    n = len(traced)
    values = spans.layer_values(tracer.counters, n)
    traced_wall = sum(p["wall"] for p in traced) / n
    values["untraced_s"] = sum(p["wall"] - p["root"] for p in traced) / n
    values["traced_wall_s"] = traced_wall
    values["trace_overhead_s"] = traced_wall - sum(p["wall"] for p in passes) / len(passes)
    self_sum = sum(values[f"{b}.self_s"] for b in spans.SELF_TIME_BUCKETS)
    gap = traced_wall - values["untraced_s"] - self_sum
    report["span_sum_gap_s"] = gap
    if abs(gap) > 1e-6 * max(1.0, traced_wall):
        raise RuntimeError(f"untraced_s plus self times miss the traced wall time by {gap} s")
    return values


def run_all(args) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    results, worst = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            worst = max(worst, proc.returncode)
            continue
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        results[name] = result
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={report['failed_frac']:.4f} passes={report['passes']}")
        for problem in report["problems"]:
            print(f"   ! {problem}")
        for metric, mv in result["metrics"].items():
            print(f"   {metric:44s} {mv['value']:>14.6g} {mv['unit']}")
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        # The setup a real run does before its first timed call, in this fresh process.
        cli = import_cycloseq().cli
        sys.path.insert(0, str(BENCH_DIR))
        import spans  # noqa: F401 - imported by every real run

        workdir = ROOT / ".bench_work" / f"probe-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            make_workload(args.workload, args.seed, "full", workdir, cli)
            print(time.monotonic())
        finally:
            _remove_workdir(workdir)
        return 0

    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
