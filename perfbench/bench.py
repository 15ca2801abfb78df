"""Workloads, timed loops and correctness gates of the IK benchmark.

The benchmark is a closed loop with one client: one solve at a time,
serial, in this process. It drives only the package's public API
(``solve_ik(model, IKQuery(...))``, ``benchmark.generate_queries``,
``tracking.scripted_waypoints`` and ``tracking.track``) and times each
call from outside, so query construction and validation count.
"""
from __future__ import annotations

import importlib
import math
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import LAYERS, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
EPS_TOL = 1e-6
SETUP_REPEATS = 11
# Largest wrapped joint step the scripted paths may take. Their phase 1
# passes the near-straight arm with steps of about 0.22 rad; a branch
# flip moves a joint by 1 rad or more.
CONTINUITY_LIMIT_RAD = 0.5


class GateError(Exception):
    """A correctness gate failed; the run reports no numbers."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    robots: tuple
    mode: str | None  # benchmark mode label; None: per-robot default
    queries: int = 0  # random workloads: distinct queries per pass
    seeded_paths: int = 0  # tracking: seeded paths per robot


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ur5-random",
            "UR5 combined:5 on seeded reachable poses with cold-start references;"
            " the optimizer fallback and angle recovery dominate",
            ("ur5",), "combined:5", queries=1000,
        ),
        Workload(
            "kuka-random",
            "KUKA combined:15 on seeded reachable poses; the 32-way candidate"
            " enumeration and FK mismatch filter dominate",
            ("kuka",), "combined:15", queries=1000,
        ),
        Workload(
            "tracking",
            "warm-started two-phase paths of both robots, scripted and seeded;"
            " shows changes that break continuity or slow warm starts",
            ("ur5", "kuka"), None, seeded_paths=3,
        ),
        Workload(
            "ur5-fabrik-only",
            "UR5 fabrik:100, the paper's FABRIK-only mode: sweeps do most of the"
            " work and the optimizer none",
            ("ur5",), "fabrik:100", queries=1000,
        ),
    )
}


def require_source() -> None:
    """Make the package importable from this checkout's src/ only."""
    if not (SRC / "fabrik_sqp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_package():
    """Import fabrik_sqp afresh, so each set-up pays the package import."""
    for name in [n for n in sys.modules if n == "fabrik_sqp" or n.startswith("fabrik_sqp.")]:
        del sys.modules[name]
    return importlib.import_module("fabrik_sqp")


@dataclass
class TrackPath:
    robot: str
    scripted: bool
    theta_init: np.ndarray
    waypoints: list  # [(phase, pose), ...]


@dataclass
class Inputs:
    pkg: object
    models: dict
    config: object
    mode: object  # benchmark.Mode of a random workload
    queries: object  # benchmark.QuerySet of a random workload
    paths: list  # [TrackPath] of the tracking workload
    setup_s: float  # calibrated median over SETUP_REPEATS set-ups
    setup_wall_s: float  # the same, uncalibrated
    generate_s: float  # median time in the input generator


def _set_up_once(workload: Workload, seed: int):
    start = perf_counter()
    pkg = import_package()
    models = {robot: pkg.get_model(robot) for robot in workload.robots}
    mode = queries = paths = None
    if workload.mode is None:
        config = pkg.SolverConfig(eps_tol=EPS_TOL)
    else:
        mode = pkg.benchmark.parse_mode(workload.mode)
        config = mode.config(EPS_TOL)
    gen_start = perf_counter()
    if workload.queries:
        queries = pkg.benchmark.generate_queries(
            models[workload.robots[0]], workload.queries, seed
        )
    else:
        paths = _tracking_paths(pkg, models, seed, workload.seeded_paths)
    end = perf_counter()
    inputs = Inputs(pkg, models, config, mode, queries, paths, 0.0, 0.0, 0.0)
    return inputs, end - start, end - gen_start


def _tracking_paths(pkg, models, seed: int, seeded: int) -> list:
    """Scripted path per robot, then `seeded` paths per robot whose
    phase-2 endpoints are drawn uniformly within the joint limits."""
    rng = np.random.Generator(np.random.PCG64(seed))
    paths = []
    for k in range(seeded + 1):
        for robot, model in models.items():
            end = None
            if k:
                end = rng.uniform(model.joint_limits[:, 0], model.joint_limits[:, 1])
            theta_init, waypoints = pkg.tracking.scripted_waypoints(model, theta_end=end)
            paths.append(TrackPath(robot, k == 0, theta_init, waypoints))
    return paths


def set_up(workload: Workload, seed: int) -> Inputs:
    setups, walls, generates = [], [], []
    for _ in range(SETUP_REPEATS):
        inputs, setup_s, generate_s = _set_up_once(workload, seed)
        kernel_s = []
        for _ in range(5):
            t0 = perf_counter()
            reference_kernel()
            kernel_s.append(perf_counter() - t0)
        setups.append(setup_s * REFERENCE_S / statistics.median(kernel_s))
        walls.append(setup_s)
        generates.append(generate_s)
    inputs.setup_s = statistics.median(setups)
    inputs.setup_wall_s = statistics.median(walls)
    inputs.generate_s = statistics.median(generates)
    return inputs


# --- calibration ------------------------------------------------------------

# The host's speed drifts by tens of percent over seconds, for all code
# alike. Every timed solve is followed by this fixed kernel, and each
# latency is scaled by REFERENCE_S over the kernel's rolling median
# time, so latencies read as milliseconds at the speed where the kernel
# takes REFERENCE_S.
REFERENCE_S = 0.0004
CAL_WINDOW = 25  # solves on each side of the rolling median


def reference_kernel() -> float:
    """Fixed interpreter and small-numpy work, independent of the package."""
    v = np.array([0.3, -0.2, 0.9])
    w = np.array([0.1, 0.8, -0.4])
    acc = 0.0
    for _ in range(15):
        c = np.cross(v, w)
        n = float(np.linalg.norm(c))
        acc += math.atan2(n, float(np.dot(v, w)))
        v, w = w, c / n
    return acc


def calibrated(solve_s, ref_s) -> np.ndarray:
    ref = np.pad(np.asarray(ref_s), CAL_WINDOW, mode="edge")
    rolling = np.median(np.lib.stride_tricks.sliding_window_view(ref, 2 * CAL_WINDOW + 1), axis=1)
    return np.asarray(solve_s) * (REFERENCE_S / rolling)


# --- one request ------------------------------------------------------------
# A request returns (IKResults, [(solve seconds, kernel seconds), ...]).

def _solve(inputs: Inputs, t_des, theta_init, calibrate: bool):
    pkg = inputs.pkg
    model = inputs.models[inputs.queries.robot]
    t0 = perf_counter()
    result = pkg.solve_ik(model, pkg.IKQuery(t_des=t_des, theta_init=theta_init, config=inputs.config))
    t1 = perf_counter()
    if calibrate:
        reference_kernel()
    return [result], [(t1 - t0, perf_counter() - t1)]


def _track(inputs: Inputs, path: TrackPath, calibrate: bool):
    """Solve one path with tracking.track. A waypoint's latency runs from
    the previous solve's return (or the call) to its own return."""
    pkg = inputs.pkg
    solve_ik = pkg.solve_ik
    results, timings = [], []
    mark = perf_counter()

    def stamped(model, query):
        nonlocal mark
        result = solve_ik(model, query)
        t1 = perf_counter()
        if calibrate:
            reference_kernel()
        t2 = perf_counter()
        results.append(result)
        timings.append((t1 - mark, t2 - t1))
        mark = t2
        return result

    # track() looks solve_ik up on the package at call time
    pkg.solve_ik = stamped
    try:
        pkg.tracking.track(inputs.models[path.robot], path.waypoints, path.theta_init, inputs.config)
    finally:
        pkg.solve_ik = solve_ik
    return results, timings


def _requests(inputs: Inputs, calibrate: bool) -> list:
    if inputs.paths is not None:
        return [(_track, (inputs, p, calibrate)) for p in inputs.paths]
    return [(_solve, (inputs, t, th, calibrate)) for t, th in inputs.queries.queries]


def attempted(inputs: Inputs) -> int:
    if inputs.paths is not None:
        return sum(len(p.waypoints) for p in inputs.paths)
    return len(inputs.queries)


# --- timed run --------------------------------------------------------------

TIMED_PASSES = 2


def timed_run(inputs: Inputs, seconds: float) -> dict:
    """Untraced closed loop over at least TIMED_PASSES passes of the
    inputs and at least `seconds` of wall time.

    A solve's latency is the faster of its two timed passes, after
    calibration, which drops interference that hits one pass only.
    """
    requests = _requests(inputs, calibrate=True)
    n = len(requests)
    outs = []
    start = perf_counter()
    while len(outs) < TIMED_PASSES * n or perf_counter() - start < seconds:
        fn, args = requests[len(outs) % n]
        outs.append(fn(*args))
    check_repeats(outs, n)
    solve_s = [s for _, timings in outs for s, _ in timings]
    ref_s = [r for _, timings in outs for _, r in timings]
    cal = calibrated(solve_s, ref_s)
    per_pass = sum(len(timings) for _, timings in outs[:n])
    request_s, pos = [], 0
    for _, timings in outs:
        request_s.append(float(np.sum(cal[pos:pos + len(timings)])))
        pos += len(timings)
    return {
        "best": np.minimum(cal[:per_pass], cal[per_pass:2 * per_pass]),
        "solve_s": solve_s,
        "ref_s": ref_s,
        "request_s": request_s,
        "first": [results for results, _ in outs[:n]],
    }


def check_repeats(outs: list, n: int) -> None:
    """Repeated requests must return the same status and theta."""
    for i in range(n, len(outs)):
        _same(outs[i - n][0], outs[i][0], f"repeat of request {i % n}")


def _same(a: list, b: list, what: str) -> None:
    if len(a) != len(b):
        raise GateError(f"{what}: {len(b)} results, expected {len(a)}")
    for x, y in zip(a, b):
        if x.status is not y.status or not np.array_equal(x.theta, y.theta):
            raise GateError(f"{what}: result differs ({x.status.value} vs {y.status.value})")


# --- gates ------------------------------------------------------------------

def audit(inputs: Inputs, first: list) -> dict:
    """FK-audit every solved result and check tracking continuity.

    Returns the continuity figures of the tracking workload (empty for
    the random workloads). Raises GateError on any violation.
    """
    pkg = inputs.pkg
    if inputs.paths is None:
        bm = pkg.benchmark
        report = bm.BenchmarkReport(
            robot=inputs.queries.robot, seed=inputs.queries.seed, mode=inputs.mode, eps_tol=EPS_TOL
        )
        for idx, (r,) in enumerate(first):
            err = r.error
            report.records.append(bm.QueryRecord(
                query_id=idx, status=r.status.value,
                eps_pos=err.eps_pos if err is not None else math.nan,
                eps_rot=err.eps_rot if err is not None else math.nan,
                fabrik_iters=r.fabrik_iterations, opt_used=r.optimizer_used,
                time_seconds=r.solve_time, theta=r.theta,
            ))
        try:
            bm.audit_solved(inputs.models[inputs.queries.robot], inputs.queries, report)
        except AssertionError as exc:
            raise GateError(f"FK audit: {exc}") from None
        return {}
    scripted, seeded, jumps = 0.0, 0.0, 0
    for path, results in zip(inputs.paths, first):
        model = inputs.models[path.robot]
        for r, (_, pose) in zip(results, path.waypoints):
            if r.status is not pkg.IKStatus.SOLVED:
                continue
            mismatch = pkg.pose_mismatch(model, r.theta, pose)
            if mismatch > EPS_TOL:
                raise GateError(f"FK audit: {path.robot} waypoint mismatch {mismatch:.3e}")
        thetas = [path.theta_init] + [r.theta for r in results if r.theta is not None]
        steps = wrapped_steps(pkg, thetas)
        step = float(np.max(steps)) if steps.size else 0.0
        if path.scripted:
            if step > CONTINUITY_LIMIT_RAD:
                raise GateError(
                    f"continuity: scripted {path.robot} path steps {step:.3f} rad"
                    f" > {CONTINUITY_LIMIT_RAD} rad"
                )
            scripted = max(scripted, step)
        else:
            seeded = max(seeded, step)
            jumps += int(np.sum(np.max(steps, axis=1) > CONTINUITY_LIMIT_RAD))
    return {"max_joint_step_rad": scripted, "seeded_max_joint_step_rad": seeded,
            "seeded_jumps": jumps}


def wrapped_steps(pkg, thetas) -> np.ndarray:
    """Per-joint steps between consecutive joint vectors, wrapped to
    [-pi, pi) before taking the magnitude, so crossing +-pi is small.

    TrackingTrace.max_joint_step takes raw differences instead and
    reads such a crossing as a 2*pi jump.
    """
    return np.abs(pkg.geometry.wrap_angle(np.diff(np.asarray(thetas, dtype=float), axis=0)))


def counters(inputs: Inputs, first: list) -> dict:
    """Deterministic work record of one pass over the inputs."""
    results = [r for request in first for r in request]
    status = Counter(r.status.value for r in results)
    n = attempted(inputs)
    return {
        "attempted": n,
        "solved": status["solved"],
        "failed": n - status["solved"],
        "status_failed": status["failed"],
        "status_unreachable": status["unreachable"],
        "unsolved_after_abort": n - len(results),
        "sweeps": sum(r.fabrik_iterations for r in results),
        "optimizer_iterations": sum(r.optimizer_iterations for r in results),
        "optimizer_used": sum(int(r.optimizer_used) for r in results),
    }


# --- metrics ----------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(latencies: list, q: float) -> float:
    """Latency percentile; at least ten samples must lie beyond it."""
    if len(latencies) * (1.0 - q) < 10.0:
        raise GateError(f"{len(latencies)} samples are too few for p{q * 100:g}")
    return float(np.quantile(latencies, q)) * 1e3


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    inputs = set_up(workload, seed)
    timed = timed_run(inputs, seconds)
    continuity = audit(inputs, timed["first"])
    work = counters(inputs, timed["first"])
    best = timed["best"]
    metrics = {
        "setup_s": (inputs.setup_s, "s", SETUP_REPEATS),
        "solve_p50_ms": (float(np.median(best)) * 1e3, "ms", len(best)),
        "solve_p99_ms": (percentile_ms(best, 0.99), "ms", len(best)),
        "queries_per_s": (len(best) / float(np.sum(best)), "1/s", len(best)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "failed_frac": (work["failed"] / work["attempted"], "frac", work["attempted"]),
    }
    if inputs.paths is not None:
        paths = timed["request_s"]
        metrics["trajectory_s"] = (statistics.median(paths), "s", len(paths))
        metrics["max_joint_step_rad"] = (continuity["max_joint_step_rad"], "rad", 2)
        metrics["seeded_max_joint_step_rad"] = (
            continuity["seeded_max_joint_step_rad"], "rad", len(inputs.paths) - 2)
        work["seeded_jumps"] = continuity["seeded_jumps"]
    # uncalibrated figures, for reading the calibration
    metrics["setup_wall_s"] = (inputs.setup_wall_s, "s", SETUP_REPEATS)
    metrics["solve_p50_wall_ms"] = (statistics.median(timed["solve_s"]) * 1e3, "ms",
                                    len(timed["solve_s"]))
    metrics["reference_kernel_ms"] = (statistics.median(timed["ref_s"]) * 1e3, "ms",
                                      len(timed["ref_s"]))
    return {"metrics": metrics, "counters": work}


# --- traced run -------------------------------------------------------------

def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Paired loop: each request runs untraced and traced, in alternating
    order, and the traced results must equal the untraced ones. Calls
    and work counters cover the first pass; times cover every pass."""
    inputs = set_up(workload, seed)
    tracer = Tracer(inputs.pkg, EPS_TOL)
    requests = _requests(inputs, calibrate=False)
    plain_s = traced_s = 0.0
    solves = 0
    first = []
    start = perf_counter()
    i = 0
    while i < len(requests) or perf_counter() - start < seconds:
        fn, args = requests[i % len(requests)]
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                with tracer.installed():
                    traced_out, dt = tracer.request(fn, *args, count=i < len(requests))
                traced_s += dt
            else:
                t0 = perf_counter()
                plain_out = fn(*args)
                plain_s += perf_counter() - t0
        _same(plain_out[0], traced_out[0], f"traced request {i % len(requests)}")
        solves += len(traced_out[0])
        if i < len(requests):
            first.append(plain_out[0])
        i += 1
    audit(inputs, first)
    work = counters(inputs, first)
    c = tracer.counts
    for traced_name, plain_name in (("fabrik.sweeps", "sweeps"),
                                    ("optimizer.iterations", "optimizer_iterations"),
                                    ("optimizer.used", "optimizer_used"),
                                    ("status.solved", "solved")):
        if c[traced_name] != work[plain_name]:
            raise GateError(f"traced {traced_name} {c[traced_name]} != untraced {work[plain_name]}")
    return {
        "metrics": layer_metrics(tracer, inputs, solves, traced_s / plain_s - 1.0),
        "counters": work | {"candidates_enumerated": c["filter.enumerated"],
                            "candidates_limit_rejected": _limit_rejected(tracer),
                            "candidates_admitted": c["filter.admitted"]},
        "absent_hooks": tracer.absent,
    }


def _ratio(num: int, den: int) -> float:
    """Share of useful outcomes; 0 when nothing was attempted."""
    return num / den if den else 0.0


def _limit_rejected(tracer: Tracer) -> int:
    # only candidates within the joint limits reach the mismatch filter
    return tracer.counts["filter.enumerated"] - tracer.calls["robots.pose_mismatch"]


def layer_metrics(tracer: Tracer, inputs: Inputs, solves: int, overhead: float) -> dict:
    """Per-layer metrics as {name: (value, unit, samples)}."""
    n = attempted(inputs)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (tracer.self_s[layer] / solves * 1e3, "ms", solves)
        m[f"{layer}.calls"] = (tracer.calls[layer], "count", n)
    c, calls = tracer.counts, tracer.calls
    for name in ("fabrik.sweeps", "optimizer.iterations", "optimizer.used", "optimizer.stalled",
                 "optimizer.iteration_cap", "kuka.seeds_tried", "kuka.candidates",
                 "filter.enumerated", "filter.admitted", "ur5.branches",
                 "ur5.branches_reachable", "status.solved", "status.failed",
                 "status.unreachable"):
        m[name] = (c[name], "count", n)
    m["fabrik.converged_frac"] = (_ratio(c["fabrik.converged"], calls["fabrik.solve"]), "frac",
                                  calls["fabrik.solve"])
    m["optimizer.tolerance_reached_frac"] = (
        _ratio(c["optimizer.tolerance_reached"], calls["optimizer.minimize"]), "frac",
        calls["optimizer.minimize"])
    m["filter.admitted_frac"] = (_ratio(c["filter.admitted"], c["filter.enumerated"]), "frac",
                                 c["filter.enumerated"])
    m["filter.limit_rejected"] = (_limit_rejected(tracer), "count", n)
    random = inputs.paths is None
    m["benchmark.generate_queries.s"] = (inputs.generate_s if random else 0.0, "s", SETUP_REPEATS)
    m["tracking.scripted_waypoints.s"] = (0.0 if random else inputs.generate_s, "s", SETUP_REPEATS)
    m["trace.overhead_frac"] = (overhead, "frac", solves)
    m["trace.solves"] = (solves, "count", solves)
    m["trace.absent_hooks"] = (len(tracer.absent), "count", len(tracer.absent))
    return m
