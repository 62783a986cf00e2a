"""Self-tests of the campaign benchmark: its declared metrics, its output
format on a fast two-bug subset, and its seed handling.

Run from the repository root::

    python3 -m pytest campaignbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SMOKE_BUGS = "pbzip2-1,curl-965"


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "campaignbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.per_layer_metrics())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    result = _result(_bench("--workload", workload, "--seed", "0",
                            "--seconds", "0", "--trace", str(trace),
                            "--bugs", SMOKE_BUGS))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = run.per_layer_metrics() if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, unit, _ in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_non_default_seed_still_finds_every_root_cause():
    done = _bench("--workload", "diagnose", "--seed", "7", "--seconds", "0",
                  "--trace", "0")
    result = _result(done)
    assert "root causes found: 15/15" in done.stdout
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 15 * run.PASSES["diagnose"][0]


def _op(bug, digest, digest_norm):
    return run.Op(bug, digest=digest, digest_norm=digest_norm)


@pytest.mark.parametrize("first,second", [("plane", "diagnose"),
                                          ("diagnose", "plane"),
                                          ("recover", "socket-journal")])
def test_cross_workload_check_holds_in_either_order(tmp_path, first, second):
    agreeing = [_op("a", f"{first}-a", "norm-a"), _op("b", f"{first}-b",
                                                      "norm-b")]
    run.check_cross_workload(first, 1, agreeing, tmp_path)
    assert not any(op.failed for op in agreeing)
    # Same whole digest where both compare it; plane's may differ in the
    # masked footer only.
    same = "plane" in (first, second)
    later = [_op("a", f"{first}-a" if not same else "other-a", "norm-a"),
             _op("b", f"{first}-b" if not same else "other-b", "forged")]
    run.check_cross_workload(second, 1, later, tmp_path)
    assert [op.failed for op in later] == [False, True]


def test_whole_digest_is_compared_between_exact_stats_workloads(tmp_path):
    run.check_cross_workload("diagnose", 0, [_op("a", "x", "n")], tmp_path)
    forged = [_op("a", "y", "n")]
    run.check_cross_workload("recover", 0, forged, tmp_path)
    assert forged[0].failed
    # A store of other code is not consulted.
    other = [_op("a", "y", "n")]
    run.check_cross_workload("recover", 0, other, tmp_path / "other-code")
    assert not other[0].failed


def test_phase_runs_fixed_passes_whatever_the_seconds():
    calls = []

    class Counting(run.Workload):
        def run_pass(self, offset):
            calls.append(offset)
            return []

    workload = Counting("diagnose", [], seed=2, work=Path("unused"))
    phase = workload.run_phase(2)
    assert calls == [2, 3] and phase.offsets == [2, 3]
    calls.clear()
    workload.run_phase(1, seconds=0.05)
    assert len(calls) > 1  # only recover passes a time budget


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "campaignbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "diagnose", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
