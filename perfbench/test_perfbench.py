"""Tests of the benchmark itself: deterministic counters, gates, tracer.

Run with ``python3 -m pytest perfbench``; the repository's own test
suite does not collect this directory.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bench
import spans

bench.require_source()
ROOT = Path(__file__).resolve().parent.parent


def _small(name: str) -> bench.Workload:
    spec = bench.WORKLOADS[name]
    return dataclasses.replace(spec, queries=min(spec.queries, 40), seeded_paths=0)


def _untraced_counters(workload, seed):
    inputs = bench.set_up(workload, seed)
    return bench.counters(inputs, bench.timed_run(inputs, 0.0)["first"])


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_counters_repeat_across_runs_and_tracing(name):
    workload = _small(name)
    first = _untraced_counters(workload, 3)
    assert _untraced_counters(workload, 3) == first
    traced = [bench.run_traced(workload, 3, 0.0)["counters"] for _ in range(2)]
    assert traced[0] == traced[1]
    assert {k: traced[0][k] for k in first} == first
    assert traced[0]["candidates_admitted"] >= first["solved"]


@pytest.mark.parametrize("name, sweeps, iterations, used", [
    ("ur5-random", 17131, 19602, 974),
    ("kuka-random", 11130, 6068, 508),
])
def test_reference_counters_seed_7(name, sweeps, iterations, used):
    c = _untraced_counters(dataclasses.replace(bench.WORKLOADS[name], queries=1000), 7)
    assert (c["sweeps"], c["optimizer_iterations"], c["optimizer_used"]) == (sweeps, iterations, used)
    assert c["solved"] == c["attempted"] == 1000


def test_layer_self_times_sum_to_traced_time():
    inputs = bench.set_up(_small("kuka-random"), 5)
    tracer = spans.Tracer(inputs.pkg, bench.EPS_TOL)
    total = 0.0
    for fn, args in bench._requests(inputs, calibrate=False):
        with tracer.installed():
            _, dt = tracer.request(fn, *args)
        total += dt
    assert math.isclose(sum(tracer.self_s.values()), total, rel_tol=1e-9)
    assert tracer.calls["kuka.solve_detailed"] == len(inputs.queries)
    # originals are back once the context exits
    assert inputs.pkg.kuka.pose_mismatch is inputs.pkg.robots.pose_mismatch


def test_fabrik_only_runs_no_optimizer_and_fabrik_dominates():
    m = bench.run_traced(_small("ur5-fabrik-only"), 2, 0.0)["metrics"]
    assert m["optimizer.minimize.calls"][0] == 0
    self_ms = {k: v[0] for k, v in m.items() if k.endswith(".self_ms")}
    assert max(self_ms, key=self_ms.get) == "fabrik.solve.self_ms"


def test_missing_hook_is_reported_absent():
    pkg = types.SimpleNamespace(solve_ik=lambda model, query: None)
    tracer = spans.Tracer(pkg, bench.EPS_TOL)
    assert "solve_ik" not in tracer.absent
    assert "ur5.minimize" in tracer.absent and "tracking.track" in tracer.absent


def test_continuity_step_is_wrapped():
    inputs = bench.set_up(_small("ur5-random"), 1)
    thetas = [[math.pi - 0.1, 0.0], [-math.pi + 0.1, 0.05]]
    assert bench.wrapped_steps(inputs.pkg, thetas).max() == pytest.approx(0.2)


def test_fk_audit_rejects_a_wrong_solution():
    inputs = bench.set_up(_small("ur5-random"), 1)
    first = bench.timed_run(inputs, 0.0)["first"]
    (r,) = first[0]
    first[0] = [dataclasses.replace(r, theta=r.theta + 0.1)]
    with pytest.raises(bench.GateError, match="FK audit"):
        bench.audit(inputs, first)


def test_result_line_carries_exactly_the_configured_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ur5-random", "--seed", "4",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in config["per_layer"]]
    assert line["correct"] is True and line["attempted"] == 1000


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ur5-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
