"""Self-test of the benchmark.

Every workload runs at toy size and must report each metric BENCHMARK.json
names, with its unit.  Then a regression is planted in
berlekamp_massey_profile (inside this test only): it must show in
measures.bm.self_s and in no other module's entry.

    python3 -m pytest -q bench/test_bench.py
"""

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PLANTED_DELAY_S = 0.3


def toy_run(name, trace, slowdown=None):
    return run.run_workload(name, seed=3, seconds=0, trace=trace, size="toy", setup_probes=1,
                            slowdown=slowdown)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_with_its_unit(name, trace):
    report, result = toy_run(name, bool(trace))
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: (v["unit"]) for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1


def test_metric_lists_match_the_code():
    import spans

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == spans.PER_LAYER
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def _rebind(old, new):
    """Point every cycloseq binding of `old` at `new`; returns an undo function."""
    touched = [m for name, m in sys.modules.items()
               if name == "cycloseq" or name.startswith("cycloseq.")]
    undo = []
    for mod in touched:
        for attr, obj in list(vars(mod).items()):
            if obj is old:
                setattr(mod, attr, new)
                undo.append((mod, attr))
    return lambda: [setattr(mod, attr, old) for mod, attr in undo]


def test_planted_bm_regression_shows_only_in_measures_bm():
    _, base = toy_run("profiles-2p", True)
    undo = []

    def plant():
        from cycloseq import measures

        fast = measures.berlekamp_massey_profile

        @functools.wraps(fast)
        def slow(seq):
            time.sleep(PLANTED_DELAY_S)
            return fast(seq)

        undo.append(_rebind(fast, slow))

    try:
        _, slowed = toy_run("profiles-2p", True, slowdown=plant)
    finally:
        for u in undo:
            u()
    before = {k: v["value"] for k, v in base["metrics"].items()}
    after = {k: v["value"] for k, v in slowed["metrics"].items()}
    planted = PLANTED_DELAY_S * before["measures.bm.calls"]
    assert planted > 0
    assert after["measures.bm.self_s"] - before["measures.bm.self_s"] > 0.8 * planted
    for name in before:
        if (name.endswith(".self_s") or name == "untraced_s") and name != "measures.bm.self_s":
            assert abs(after[name] - before[name]) < 0.25 * planted, name


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "paper-claims",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
