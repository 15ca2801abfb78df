"""Command-line interface: single solves, benchmarks, traces, tracking.

Exit codes: 0 solved/ok, 1 usage or input error, 2 unreachable,
3 solve failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import benchmark as bench_mod
from . import fabrik, kuka, solve_ik, tracking
from .geometry import make_transform
from .iktypes import DEFAULT_EPS_TOL, IKQuery, IKStatus, SolverConfig
from .robots import RobotModel, get_model, json_numbers, load_model_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREACHABLE = 2
EXIT_FAILED = 3


class CliError(Exception):
    """Input problem that maps to the usage exit code."""


def load_pose_file(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read pose file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"pose file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("pose file must hold a JSON object with 'position' and 'rotation'")
    position = _pose_field(doc, "position", (3,), "a list of 3 numbers")
    rotation = _pose_field(doc, "rotation", (3, 3), "a 3x3 row-major matrix")
    return make_transform(rotation, position)


def _pose_field(doc: dict, key: str, shape: tuple, what: str) -> np.ndarray:
    if key not in doc:
        raise CliError(f"pose file is missing field {key!r}")
    try:
        value = np.array(json_numbers(doc[key], f"pose field {key!r}"))
    except ValueError as exc:  # not numbers, or ragged lists of them
        raise CliError(f"pose field {key!r} must be {what}") from exc
    if value.shape != shape:
        raise CliError(f"pose field {key!r} must be {what}")
    return value


def _parse_floats(text: str, expected: int | None, what: str) -> np.ndarray:
    bad = CliError(f"{what} must be comma-separated numbers")
    if "_" in text:  # `float` reads Python literals: `1_0` would be 10
        raise bad
    try:
        values = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise bad from exc
    if not np.all(np.isfinite(values)):
        raise CliError(f"{what} must be finite")
    if expected is not None and values.shape != (expected,):
        raise CliError(f"{what} must have {expected} entries")
    return values


def _resolve_model(args) -> RobotModel:
    if not args.model:
        return get_model(args.robot)
    try:
        model = load_model_file(args.model)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load robot model: {exc}") from exc
    if model.name != args.robot:
        raise CliError(f"--model holds a {model.name} model, not --robot {args.robot}")
    return model


def _status_exit(status: IKStatus) -> int:
    if status is IKStatus.SOLVED:
        return EXIT_OK
    if status is IKStatus.UNREACHABLE:
        return EXIT_UNREACHABLE
    return EXIT_FAILED


def cmd_solve(args) -> int:
    model = _resolve_model(args)
    t_des = load_pose_file(args.pose)
    theta_init = (
        np.zeros(model.dof)
        if args.init is None
        else _parse_floats(args.init, model.dof, "--init")
    )
    try:
        config = bench_mod.parse_mode(args.mode).config(args.eps)
        result = solve_ik(model, IKQuery(t_des=t_des, theta_init=theta_init, config=config))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    doc = {
        "status": result.status.value,
        "theta": None if result.theta is None else [float(v) for v in result.theta],
        "eps_pos": None if result.error is None else result.error.eps_pos,
        "eps_rot": None if result.error is None else result.error.eps_rot,
        "fabrik_iters": result.fabrik_iterations,
        "opt_used": result.optimizer_used,
        "opt_iters": result.optimizer_iterations,
        "time_s": result.solve_time,
    }
    print(json.dumps(doc))
    return _status_exit(result.status)


def cmd_bench(args) -> int:
    model = _resolve_model(args)
    try:
        modes = [bench_mod.parse_mode(tok) for tok in args.modes.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not modes:
        raise CliError("at least one mode is required")
    queries = bench_mod.generate_queries(model, args.n, args.seed)
    reports = bench_mod.run_benchmark(
        model, queries, modes, eps_tol=args.eps, workers=args.workers
    )
    print(f"robot={model.name} n={args.n} seed={args.seed} eps={args.eps:g}")
    print(f"{'mode':>14} {'avg_ms':>10} {'succ_%':>8}")
    for report in reports:
        tag = report.mode.label.replace(":", "_")
        try:
            bench_mod.export_report_csv(report, f"{args.out_prefix}_{tag}.csv")
            bench_mod.export_summary_json(report, f"{args.out_prefix}_{tag}_summary.json")
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(
            f"{report.mode.label:>14} {1000.0 * report.avg_time:>10.3f} "
            f"{100.0 * report.success_rate:>8.2f}"
        )
    return EXIT_OK


def cmd_trace(args) -> int:
    target = _parse_floats(args.target, 3, "--target")
    if args.links:
        lengths = _parse_floats(args.links, None, "--links")
        base = _parse_floats(args.base, 3, "--base")
        direction = _parse_floats(args.v_init, 3, "--v-init")
        joints = tuple(fabrik.Ball() for _ in lengths)
        try:
            chain = fabrik.straight_chain(base, direction, lengths, joints)
        except ValueError as exc:
            raise CliError(f"--links: {exc}") from exc
    else:
        model = _resolve_model(args)
        if model.name != "kuka":
            raise CliError("trace needs --links for chains other than the kuka reduction")
        chain = kuka.make_chain(model)
    if not fabrik.within_reach(chain, target, args.eps):
        print("error: target is out of the chain's reach", file=sys.stderr)
        return EXIT_UNREACHABLE
    outcome = fabrik.solve(fabrik.pre_bend(chain), target, args.eps, args.cap)
    bench_mod.write_csv(args.out, ["n", "dist"], outcome.trace)
    print(
        f"converged={outcome.converged} sweeps={outcome.iterations} dist={outcome.dist:.3e}"
    )
    return EXIT_OK


def cmd_track(args) -> int:
    model = _resolve_model(args)
    theta_end = (
        None if args.end_config is None else _parse_floats(args.end_config, model.dof, "--end-config")
    )
    try:
        theta_init, waypoints = tracking.scripted_waypoints(
            model, phase1_n=args.phase1_n, phase2_n=args.phase2_n, theta_end=theta_end
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    config = SolverConfig(eps_tol=args.eps)
    trace = tracking.track(model, waypoints, theta_init, config)
    tracking.write_trace_csv(trace, model.dof, args.out)
    if not trace.completed:
        print(f"error: waypoint {trace.failed_index} failed", file=sys.stderr)
        return EXIT_FAILED
    print(
        f"waypoints={len(trace.records)} max_joint_step={trace.max_joint_step():.4f} "
        f"out={args.out}"
    )
    return EXIT_OK


def _checked(parse, rule):
    """An option type: the text parsed, then held to the library's rule."""
    def convert(text: str):
        try:
            return rule(parse(text), "value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fabrik-sqp",
        description="Hybrid FABRIK + SQP inverse kinematics for UR5 and KUKA iiwa arms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count = _checked(int, fabrik.check_cap)
    tolerance = _checked(float, fabrik.check_tolerance)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--eps", type=tolerance, default=DEFAULT_EPS_TOL)
    shared.add_argument("--model", help="robot model JSON overriding the built-in table")

    p = sub.add_parser("solve", parents=[shared], help="solve a single pose query")
    p.add_argument("--robot", choices=("ur5", "kuka"), required=True)
    p.add_argument("--pose", required=True, help="JSON file with position/rotation")
    p.add_argument("--init", help="comma-separated initial joint angles (default zeros)")
    p.add_argument("--mode", default="combined", help="combined or fabrik, e.g. fabrik:400")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", parents=[shared], help="run a random-query benchmark")
    p.add_argument("--robot", choices=("ur5", "kuka"), required=True)
    p.add_argument("--n", type=count, default=1000)
    p.add_argument("--seed", type=_checked(int, bench_mod.check_seed), default=0)
    p.add_argument("--modes", default="combined", help="e.g. combined,combined:5,fabrik:100")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--workers", type=count, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("trace", parents=[shared], help="record a FABRIK convergence trace")
    p.add_argument("--robot", choices=("ur5", "kuka"), default="kuka")
    p.add_argument("--links", help="comma-separated link lengths for a generic chain")
    p.add_argument("--base", default="0,0,0")
    p.add_argument("--v-init", default="0,0,1")
    p.add_argument("--target", required=True, help="x,y,z iteration target")
    p.add_argument("--cap", type=count, default=10000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("track", parents=[shared], help="run the two-phase tracking scenario")
    p.add_argument("--robot", choices=("ur5", "kuka"), required=True)
    p.add_argument("--phase1-n", type=count, default=80)
    p.add_argument("--phase2-n", type=count, default=100)
    p.add_argument("--end-config", help="comma-separated joint angles for the path end")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
