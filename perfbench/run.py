"""Seeded IK benchmark: per-query latency, failure share and tracking time.

One workload:

    python3 perfbench/run.py --workload ur5-random --seed 7 --seconds 10 --trace 0

``--trace 0`` times the untraced closed loop and reports the end-to-end
metrics; ``--trace 1`` runs the paired traced loop and reports the
per-layer metrics. Either way the correctness gates run first, a failed
gate exits with code 1 and prints no numbers, and the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. ``--out DIR`` also writes the full record.

Every workload, traced and untraced, each in a fresh process:

    python3 perfbench/run.py --all --seed 7 --seconds 10 --out perfbench/results

writes DIR/endtoend.json (untraced) and DIR/layers.json (traced)
separately, plus DIR/provenance.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

import bench

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text()) if (
    HERE.parent / "BENCHMARK.json").is_file() else None


def configured_metrics(trace: bool) -> list:
    """Metric names the result line carries, from BENCHMARK.json."""
    if CONFIG is None:
        raise SystemExit("perfbench: BENCHMARK.json not found next to perfbench/")
    return [m["name"] for m in CONFIG["per_layer" if trace else "end_to_end"]]


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench.require_source()
    spec = bench.WORKLOADS[workload]
    run = bench.run_traced if trace else bench.run_untraced
    record = run(spec, seed, seconds)
    record.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    return record


def print_table(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"== {record['workload']} seed={record['seed']} {kind}")
    for name, (value, unit, n) in record["metrics"].items():
        print(f"  {name:40s} {value:>14.6g} {unit:6s} n={n}")
    for name, value in record["counters"].items():
        print(f"  {name:40s} {value:>14} count")
    for site in record.get("absent_hooks", []):
        print(f"  absent layer hook: {site}")


def result_line(record: dict) -> dict:
    metrics = record["metrics"]
    names = configured_metrics(bool(record["trace"]))
    return {
        "correct": True,
        "attempted": record["counters"]["attempted"],
        "failed": record["counters"]["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }


def provenance(seed: int, seconds: float) -> dict:
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((bench.SRC / "fabrik_sqp").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "seconds": seconds,
        "timed_passes": bench.TIMED_PASSES,
        "reference_kernel_s": bench.REFERENCE_S,
        "clients": 1,
        "src_lines": src_lines,
        "workloads": {
            w.name: {
                "why": w.why,
                "robots": list(w.robots),
                "mode": w.mode or "combined (per-robot default n_l)",
                "queries_per_pass": w.queries or None,
                "paths_per_pass": (w.seeded_paths + 1) * len(w.robots) if not w.queries else None,
            }
            for w in bench.WORKLOADS.values()
        },
    }


def run_all(seed: int, seconds: float, out: Path) -> int:
    """Run every workload untraced and traced, each in its own process."""
    out.mkdir(parents=True, exist_ok=True)
    tables = {0: {}, 1: {}}
    for trace in (0, 1):
        for name in bench.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            print(proc.stdout.rsplit("\n", 2)[0] if proc.stdout else "", flush=True)
            if proc.returncode != 0:
                print(f"perfbench: {name} trace={trace} failed with code {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            record = out / f"{name}.trace{trace}.json"
            tables[trace][name] = json.loads(record.read_text())
            record.unlink()
    (out / "endtoend.json").write_text(json.dumps(tables[0], indent=2) + "\n")
    (out / "layers.json").write_text(json.dumps(tables[1], indent=2) + "\n")
    (out / "provenance.json").write_text(json.dumps(provenance(seed, seconds), indent=2) + "\n")
    print(f"wrote {out}/endtoend.json, {out}/layers.json and {out}/provenance.json")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for the full records")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, args.out or HERE / "results")
    if args.workload is None:
        parser.error("give --workload or --all")
    configured_metrics(bool(args.trace))
    try:
        record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.GateError as exc:
        print(f"perfbench: gate failed: {exc}", file=sys.stderr)
        return 1
    print_table(record)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.workload}.trace{int(args.trace)}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
