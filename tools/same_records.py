"""Check that this checkout solves every seeded benchmark input as a git revision does.

    python3 tools/same_records.py REV

Exports the package source of REV with `git archive` into a temporary
directory (`export`, from tools/paired_bench.py), then solves the same
inputs with REV's package and with this checkout's (the working tree,
uncommitted edits included):

- the seed-7 perfbench workloads, whose definitions come from this
  checkout's perfbench/bench.py;
- KUKA fabrik:100 on the kuka-random queries;
- 300 seed-7 queries each on the KUKA under its datasheet limits, the
  KUKA under +-0.5 rad and the UR5 under +-0.5 rad, with the default
  SolverConfig. The default [-pi, pi] limits never reach the FABRIK
  joint-limit clamp; these do;
- kuka-on-axis: 300 seed-0 KUKA queries whose wrist lies on the base
  axis, built by tests/conftest.py's `kuka_on_axis_queries` with this
  checkout's package, solved with the default SolverConfig. Below the
  elbow's straight-arm height the sweeps fold the chain onto the axis,
  and only `fabrik.pre_bend`'s re-bend breaks the fold.

Per solve it compares the status, the sweep count, optimizer use, the
optimizer iterations, the result's error (eps_pos, eps_rot; None for an
unsolved query), the selected theta, every enumerated candidate, in
order and bit for bit (`SolveDetail.candidates`), the branches skipped
unsolved (`SolveDetail.skipped`) and the branches FABRIK ran on
(`SolveDetail.solved`, compared when both sides record it), all read
through the robots' `solve_detailed`. Per workload it prints, apart, how
many solves keep their outcome (status, pick and error, bit for bit)
and how many differ in their work (sweeps, optimizer use, iterations,
skips or branches solved) and candidates, so that a change that skips
work on purpose can show that no pick moved. It exits 1 on any
differing solve, outcome or work.

Per workload it also prints what a change that moves records must
account for: the solves lost and gained, the sweep, optimizer-iteration,
optimizer-run, skipped-branch, solved-branch and enumerated-candidate
totals of each side ("-" where a side does not record it), the picks
that move by more than PICK_MOVE rad (max over the joints) split into
those nearer to and farther from the query's reference in L1, and each
side's median pick-to-reference L1 distance over its solved queries.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from operator import itemgetter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import bench  # noqa: E402
from paired_bench import export  # noqa: E402

SEED = 7
FIELDS = ("status", "sweeps", "opt_used", "opt_iters", "error")
THETA = len(FIELDS)  # index of the selected theta in a record
CANDIDATES = THETA + 1  # index of the enumerated candidates
REFERENCE = CANDIDATES + 1  # index of the query's theta_init
SKIPPED = REFERENCE + 1  # index of the branches skipped unsolved
SOLVED = SKIPPED + 1  # index of the branches FABRIK ran on, None where not recorded
PICK_MOVE = 1e-3  # rad: a pick that moves farther than this is reported
SHOWN = 5  # differing solves printed per workload
TIGHT_QUERIES = 300
ON_AXIS = (300, 0)  # kuka-on-axis queries and seed, as the test solves them


def workloads() -> list:
    kuka = bench.WORKLOADS["kuka-random"]
    fabrik_only = dataclasses.replace(
        kuka, name="kuka-fabrik-only", why="KUKA fabrik:100 on the kuka-random queries",
        mode="fabrik:100",
    )
    return [*bench.WORKLOADS.values(), fabrik_only]


def record(r) -> tuple:
    error = None if r.error is None else (r.error.eps_pos, r.error.eps_rot)
    return (
        r.status.value, r.fabrik_iterations, r.optimizer_used, r.optimizer_iterations, error,
        r.theta,
    )


def with_candidates(pkg, solve) -> list:
    """The records of the results `solve()` returns, each followed by the
    candidates its solve enumerated, the query's reference, the
    branches its solve skipped and those it solved."""
    log = []
    originals = [(module, module.solve_detailed) for module in (pkg.ur5, pkg.kuka)]
    for module, original in originals:
        def logged(query, model, original=original):
            result, detail = original(query, model)
            solved = getattr(detail, "solved", None)
            log.append((detail.candidates, np.array(query.theta_init), detail.skipped, solved))
            return result, detail
        module.solve_detailed = logged
    try:
        results = solve()
    finally:
        for module, original in originals:
            module.solve_detailed = original
    if len(log) != len(results):
        raise SystemExit(f"same_records: {len(log)} detailed solves for {len(results)} results")
    return [(*record(r), *logged) for r, logged in zip(results, log)]


def tight_records(pkg, tight: dict) -> dict:
    out = {}
    for name, (robot, limits) in tight.items():
        model = getattr(pkg, f"{robot}_model")(limits)
        queries = pkg.benchmark.generate_queries(model, TIGHT_QUERIES, SEED)
        out[name] = with_candidates(pkg, lambda: [
            pkg.solve_ik(model, pkg.IKQuery(t_des, theta_init, pkg.SolverConfig()))
            for t_des, theta_init in queries.queries
        ])
    return out


def checkout_inputs() -> tuple[list, dict]:
    """The kuka-on-axis (t_des, theta_init) pairs, built with this
    checkout's package, and the tight-limit sets, {name: (robot, joint
    limits)}, the KUKA's datasheet limits read from tests/conftest.py."""
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.path[:0] = paths
    try:
        pkg = bench.import_package()
        import conftest
        on_axis = [(t, th) for t, th, _ in conftest.kuka_on_axis_queries(pkg.kuka_model(), *ON_AXIS)]
        half = conftest.KUKA_DATASHEET
        return on_axis, {
            "kuka-datasheet": ("kuka", np.column_stack([-half, half])),
            "kuka-0.5rad": ("kuka", np.tile([-0.5, 0.5], (7, 1))),
            "ur5-0.5rad": ("ur5", np.tile([-0.5, 0.5], (6, 1))),
        }
    finally:
        for path in paths:
            sys.path.remove(path)


def records(src: Path, on_axis: list, tight: dict) -> dict:
    """{workload: [(status, sweeps, opt_used, opt_iters, error, theta,
    candidates, reference, skipped, solved), ...]} with the package under src."""
    sys.path.insert(0, str(src))
    try:
        out = {}
        for workload in workloads():
            inputs, _, _ = bench._set_up_once(workload, SEED)
            if not Path(inputs.pkg.__file__).is_relative_to(src):
                raise SystemExit(f"same_records: imported {inputs.pkg.__file__}, not {src}")
            out[workload.name] = with_candidates(inputs.pkg, lambda: [
                r for fn, args in bench._requests(inputs, calibrate=False) for r in fn(*args)[0]
            ])
        pkg = inputs.pkg
        out.update(tight_records(pkg, tight))
        model = pkg.kuka_model()
        out["kuka-on-axis"] = with_candidates(pkg, lambda: [
            pkg.solve_ik(model, pkg.IKQuery(t_des, theta_init)) for t_des, theta_init in on_axis
        ])
        return out
    finally:
        sys.path.remove(str(src))


def same_bits(x, y) -> bool:
    """Equal shape and bits as float arrays, whatever sequence holds them."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def differing_candidates(a: list, b: list) -> int:
    """Positions at which two enumerations differ in any bit, either one missing."""
    return max(len(a), len(b)) - sum(map(same_bits, a, b))


def same_pick(x, y) -> bool:
    """Both unsolved, or the same selected theta bit for bit."""
    return (x is None) == (y is None) and (x is None or same_bits(x, y))


def outcome_differs(a, b) -> tuple[bool, bool, bool]:
    """Whether the status, the pick and the error of two records of one solve differ."""
    return a[0] != b[0], not same_pick(a[THETA], b[THETA]), a[4] != b[4]


def solved_differs(a, b) -> bool:
    """Whether two records of one solve differ in branches solved, where both record them."""
    return None not in (a[SOLVED], b[SOLVED]) and a[SOLVED] != b[SOLVED]


def work_differs(a, b) -> bool:
    """Whether the sweeps, optimizer use, iterations, skips, branches
    solved (where both record them) or candidates of two records differ."""
    return (
        a[1:4] != b[1:4] or a[SKIPPED] != b[SKIPPED]
        or solved_differs(a, b) or differing_candidates(a[CANDIDATES], b[CANDIDATES]) > 0
    )


def differing(theirs: list, ours: list) -> list:
    if len(theirs) != len(ours):
        return list(range(max(len(theirs), len(ours))))
    return [
        i for i, (a, b) in enumerate(zip(theirs, ours))
        if any(outcome_differs(a, b)) or work_differs(a, b)
    ]


def describe(a, b) -> str:
    """What differs between two records of one solve (a: REV's)."""
    if a is None or b is None:
        return "missing at REV" if a is None else "missing here"
    parts = [f"{name} {x!r} -> {y!r}" for name, x, y in zip(FIELDS, a, b) if x != y]
    if not same_pick(a[THETA], b[THETA]):
        if a[THETA] is None or b[THETA] is None:
            parts.append("theta present on one side only")
        else:
            parts.append(f"theta moves by {float(np.max(np.abs(a[THETA] - b[THETA]))):.3g} rad")
    if a[SKIPPED] != b[SKIPPED]:
        parts.append(f"skipped {a[SKIPPED]} -> {b[SKIPPED]}")
    if solved_differs(a, b):
        parts.append(f"branches solved {a[SOLVED]} -> {b[SOLVED]}")
    moved = differing_candidates(a[CANDIDATES], b[CANDIDATES])
    if moved:
        parts.append(
            f"{moved} candidates differ ({len(a[CANDIDATES])} -> {len(b[CANDIDATES])} enumerated)"
        )
    return "; ".join(parts)


def l1_to_reference(rec) -> float:
    return float(np.sum(np.abs(rec[THETA] - rec[REFERENCE])))


def total(side: list, count) -> str:
    """The sum of `count` over one side's records, "-" where one is not recorded."""
    counts = list(map(count, side))
    return "-" if None in counts else str(sum(counts))


def accounting(theirs: list, ours: list) -> list[str]:
    """Lines on what moved between two record lists of one workload (theirs: REV's)."""
    solved = [[r[0] == "solved" for r in side] for side in (theirs, ours)]
    lost = sum(a and not b for a, b in zip(*solved))
    gained = sum(b and not a for a, b in zip(*solved))
    totals = [
        f"{name} {total(theirs, count)} -> {total(ours, count)}"
        for name, count in (
            ("sweeps", itemgetter(1)),
            ("iterations", itemgetter(3)),
            ("optimizer runs", itemgetter(2)),
            ("skipped", itemgetter(SKIPPED)),
            ("branches solved", itemgetter(SOLVED)),
            ("candidates enumerated", lambda r: len(r[CANDIDATES])),
        )
    ]
    nearer = farther = 0
    for a, b, both in zip(theirs, ours, map(all, zip(*solved))):
        if both and float(np.max(np.abs(a[THETA] - b[THETA]))) > PICK_MOVE:
            if l1_to_reference(b) < l1_to_reference(a):
                nearer += 1
            else:
                farther += 1
    medians = [
        f"{np.median([l1_to_reference(r) for r in side if r[0] == 'solved']):.4f}"
        if any(r[0] == "solved" for r in side) else "-"
        for side in (theirs, ours)
    ]
    return [
        f"solves lost {lost}, gained {gained}; " + ", ".join(totals),
        f"picks moved > {PICK_MOVE:g} rad: {nearer + farther} ({nearer} nearer the"
        f" reference in L1, {farther} farther); median pick-to-reference L1"
        f" {medians[0]} -> {medians[1]}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    on_axis, tight = checkout_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        theirs = records(export(args.rev, Path(tmp) / "rev") / "src", on_axis, tight)
    ours = records(ROOT / "src", on_axis, tight)
    total = outcomes = 0
    for name, mine in ours.items():
        diffs = differing(theirs[name], mine)
        total += len(diffs)
        print(f"{name:18s} {len(mine):5d} solves, {len(diffs)} differ")
        if len(theirs[name]) == len(mine):
            pairs = list(zip(theirs[name], mine))
            flags = [outcome_differs(a, b) for a, b in pairs]
            statuses, picks, errors = (sum(column) for column in zip(*flags)) if flags else (0, 0, 0)
            changed = sum(map(any, flags))
            outcomes += changed
            moved = sum(differing_candidates(a[CANDIDATES], b[CANDIDATES]) for a, b in pairs)
            print(
                f"  outcome: {len(mine) - changed} keep status, pick and error;"
                f" {statuses} statuses, {picks} picks, {errors} errors differ"
            )
            print(
                f"  work: {sum(work_differs(a, b) for a, b in pairs)} solves differ in sweeps,"
                f" optimizer use, iterations, skips, branches solved or candidates;"
                f" {moved} candidates differ"
            )
            for line in accounting(theirs[name], mine):
                print(f"  {line}")
        else:
            outcomes += len(diffs)
        for i in diffs[:SHOWN]:
            a = theirs[name][i] if i < len(theirs[name]) else None
            b = mine[i] if i < len(mine) else None
            print(f"  solve {i}: {describe(a, b)}")
    print(
        "same records" if total == 0
        else f"{total} solves differ from {args.rev}, {outcomes} of them in status, pick or error"
    )
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
