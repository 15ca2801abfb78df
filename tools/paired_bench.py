"""Alternate perfbench runs of a git revision and of this checkout, and compare them.

    python3 tools/paired_bench.py REV --workload ur5-fabrik-only --pairs 10 \\
        --seeds 7 13 --seconds 10 --out pairs.json

Exports the package source of REV with `git archive`, as
`tools/same_records.py` does, next to a copy of this checkout's
perfbench/ and BENCHMARK.json, so both sides run the same benchmark
code with the same settings. The change side is this checkout (the
working tree, uncommitted edits included). For every seed and workload
it runs `perfbench/run.py` once per side and pair, each in a fresh
process, the parent first in even pairs and the change first in odd
ones.

Per metric of the result line (`end_to_end` in BENCHMARK.json, or
`per_layer` with --trace 1) it prints each side's median and
quartiles, the pairs the change won (ties count for neither), the
change's median relative to the parent's, and whether the gain rule
holds: the change wins at least nine tenths of the pairs and its median
is better by more than the distance between the parent's quartiles.
The deterministic counters of each side (sweeps, optimizer iterations,
optimizer runs, failed solves) must repeat across that side's runs.
--out writes all of it, every run's value included, as JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTERS = ("attempted", "failed", "sweeps", "optimizer_iterations", "optimizer_used")
WIN_SHARE = 0.9  # share of pairs the change must win for a gain


def export(rev: str, into: Path) -> Path:
    """REV's src/ beside this checkout's perfbench/ and BENCHMARK.json."""
    into.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", into)
    return into


def source(tree: Path) -> dict:
    """Line count and SHA-256 of the package source a side runs."""
    texts = [p.read_bytes() for p in sorted((tree / "src" / "fabrik_sqp").glob("*.py"))]
    return {"lines": sum(len(t.splitlines()) for t in texts),
            "sha256": hashlib.sha256(b"".join(texts)).hexdigest()}


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    """One perfbench run in a fresh process; returns its full record."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"paired_bench: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads((out / f"{workload}.trace{trace}.json").read_text())


def quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "values": values}


def compare(parent: list, change: list, better: str) -> dict:
    """Both sides' spread and the gain rule for one metric over the pairs."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0.0 for g in gains)
    a, b = quartiles(parent), quartiles(change)
    gap = sign * (a["median"] - b["median"])
    return {
        "parent": a,
        "change": b,
        "better": better,
        "wins": wins,
        "losses": sum(g < 0.0 for g in gains),
        "change_over_parent": b["median"] / a["median"] if a["median"] else None,
        "gain": wins >= WIN_SHARE * len(gains) and gap > a["q3"] - a["q1"],
    }


def counters_of(records: list, side: str, what: str) -> dict:
    first = {k: records[0]["counters"][k] for k in COUNTERS}
    for record in records[1:]:
        if {k: record["counters"][k] for k in COUNTERS} != first:
            raise SystemExit(f"paired_bench: {side} counters differ between runs of {what}")
    return first


def paired(trees: dict, workload: str, seed: int, args, scratch: Path) -> dict:
    records = {"parent": [], "change": []}
    for k in range(args.pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            out = scratch / f"{side}-{workload}-{seed}-{k}"
            records[side].append(run(trees[side], workload, seed, args.seconds, args.trace, out))
    what = f"{workload} seed {seed}"
    metrics = {
        m["name"]: compare([r["metrics"][m["name"]][0] for r in records["parent"]],
                           [r["metrics"][m["name"]][0] for r in records["change"]], m["better"])
        for m in CONFIG["per_layer" if args.trace else "end_to_end"]
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": args.trace,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "metrics": metrics,
        "counters": {side: counters_of(records[side], side, what) for side in records},
    }


def report(entry: dict) -> None:
    print(f"== {entry['workload']} seed={entry['seed']} trace={entry['trace']} "
          f"pairs={entry['pairs']} seconds={entry['seconds']:g}")
    for name, m in entry["metrics"].items():
        a, b = m["parent"], m["change"]
        ratio = m["change_over_parent"]
        print(f"  {name:32s} parent {a['median']:10.4g} [{a['q1']:.4g}, {a['q3']:.4g}]  "
              f"change {b['median']:10.4g} [{b['q1']:.4g}, {b['q3']:.4g}]  "
              f"won {m['wins']}/{entry['pairs']}  x{ratio if ratio is None else round(ratio, 3)}"
              f"{'  gain' if m['gain'] else ''}")
    for side, c in entry["counters"].items():
        print(f"  counters {side:6s} " + " ".join(f"{k}={v}" for k, v in c.items()))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision of the parent side, e.g. HEAD~1")
    # a repeated flag adds its values to the earlier ones
    parser.add_argument("--workload", nargs="+", action="extend", required=True,
                        help="perfbench workload(s), e.g. ur5-fabrik-only")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", action="extend",
                        help="seeds (default: 7)")
    parser.add_argument("--seconds", type=float, default=CONFIG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="JSON file for the full comparison")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seeds is None:
        args.seeds = [7]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.rev],
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(rev, Path(tmp) / "parent"), "change": ROOT}
        result = {
            "parent_rev": rev,
            "change": "this checkout's working tree",
            "machine": {"arch": platform.machine(), "nproc": os.cpu_count(),
                        "python": platform.python_version(), "numpy": np.__version__},
            "src": {side: source(tree) for side, tree in trees.items()},
            "runs": [],
        }
        for seed in args.seeds:
            for workload in args.workload:
                entry = paired(trees, workload, seed, args, Path(tmp) / "records")
                report(entry)
                result["runs"].append(entry)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
