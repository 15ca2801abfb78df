"""Random-query benchmark: success rates and solve-time distributions.

Queries are generated by forward kinematics from joint vectors drawn
uniformly within the joint limits (reachable by construction), solved
under one or more solver modes, and aggregated into per-mode reports.
Each report exports to a per-query CSV and a JSON summary that holds
the solve-time quartiles.
"""
from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .iktypes import DEFAULT_EPS_TOL, IKQuery, IKResult, IKStatus, SolverConfig
from .robots import RobotModel, forward_kinematics, pose_mismatch

RNG_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class Mode:
    """One solver mode: combined or fabrik, with an optional sweep cap
    (None: the SolverConfig default)."""

    kind: str  # "combined" | "fabrik"
    param: int | None = None

    def __post_init__(self):
        if self.kind not in ("combined", "fabrik"):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.param is not None and self.param < 1:
            raise ValueError("mode parameter must be >= 1")

    @property
    def label(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param}"

    def config(self, eps_tol: float) -> SolverConfig:
        return SolverConfig(eps_tol, self.kind == "combined", self.param)


def parse_mode(text: str) -> Mode:
    """'combined', 'fabrik', or either with a sweep cap: 'combined:5'."""
    kind, colon, param = text.partition(":")
    if colon and not param.strip().isdigit():
        raise ValueError(f"mode {text!r} must look like 'combined', 'combined:5' or 'fabrik:100'")
    return Mode(kind.strip(), int(param) if colon else None)


@dataclass(frozen=True)
class QuerySet:
    robot: str
    seed: int
    queries: tuple  # ((t_des, theta_init), ...)

    def __len__(self) -> int:
        return len(self.queries)


def generate_queries(model: RobotModel, n: int, seed: int) -> QuerySet:
    """n FK-generated poses plus independently drawn initial vectors."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    lo = model.joint_limits[:, 0]
    hi = model.joint_limits[:, 1]
    samples = rng.uniform(lo, hi, size=(n, model.dof))
    inits = rng.uniform(lo, hi, size=(n, model.dof))
    queries = tuple(
        (forward_kinematics(model, samples[i]), inits[i].copy()) for i in range(n)
    )
    return QuerySet(robot=model.name, seed=seed, queries=queries)


@dataclass(frozen=True)
class QueryRecord:
    query_id: int
    status: str
    eps_pos: float
    eps_rot: float
    fabrik_iters: int
    opt_used: bool
    time_seconds: float
    theta: np.ndarray | None


@dataclass
class BenchmarkReport:
    robot: str
    seed: int
    mode: Mode
    eps_tol: float
    records: list[QueryRecord] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.time_seconds for r in self.records])

    @property
    def solved(self) -> int:
        return sum(1 for r in self.records if r.status == IKStatus.SOLVED.value)

    @property
    def success_rate(self) -> float:
        return self.solved / len(self.records)

    @property
    def avg_time(self) -> float:
        return float(np.mean(self.times))

    @property
    def max_time(self) -> float:
        return float(np.max(self.times))


def _record(idx: int, result: IKResult) -> QueryRecord:
    err = result.error
    return QueryRecord(
        query_id=idx,
        status=result.status.value,
        eps_pos=err.eps_pos if err is not None else math.nan,
        eps_rot=err.eps_rot if err is not None else math.nan,
        fabrik_iters=result.fabrik_iterations,
        opt_used=result.optimizer_used,
        time_seconds=result.solve_time,
        theta=result.theta,
    )


def _solve_query(model: RobotModel, config: SolverConfig, item) -> QueryRecord:
    from . import solve_ik  # local import keeps workers picklable

    idx, (t_des, theta_init) = item
    return _record(idx, solve_ik(model, IKQuery(t_des=t_des, theta_init=theta_init, config=config)))


def run_benchmark(
    model: RobotModel,
    queries: QuerySet,
    modes,
    eps_tol: float = DEFAULT_EPS_TOL,
    workers: int = 1,
) -> list[BenchmarkReport]:
    """Solve every query under every mode; per-query failures are data.

    Every solve uses the given model, in this process or in a worker.
    """
    reports = []
    items = list(enumerate(queries.queries))
    for mode in modes:
        report = BenchmarkReport(robot=queries.robot, seed=queries.seed, mode=mode, eps_tol=eps_tol)
        solve = partial(_solve_query, model, mode.config(eps_tol))
        if workers <= 1:
            report.records = list(map(solve, items))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # map keeps the input order; one chunk per worker
                chunk = -(-len(items) // workers)
                report.records = list(pool.map(solve, items, chunksize=chunk))
        reports.append(report)
    return reports


def audit_solved(model: RobotModel, queries: QuerySet, report: BenchmarkReport) -> float:
    """Verify every solved query against forward kinematics.

    Returns the worst pose mismatch over the solved set; raises if any
    solved record violates the acceptance threshold.
    """
    worst = 0.0
    for rec in report.records:
        if rec.status != IKStatus.SOLVED.value:
            continue
        t_des, _ = queries.queries[rec.query_id]
        mismatch = pose_mismatch(model, rec.theta, t_des)
        worst = max(worst, mismatch)
        if mismatch > report.eps_tol:
            raise AssertionError(
                f"query {rec.query_id} marked solved but mismatch {mismatch:.3e} "
                f"exceeds {report.eps_tol:.1e}"
            )
    return worst


# --- exports ----------------------------------------------------------------

def _cell(value):
    if isinstance(value, bool):
        return int(value)
    return f"{value:.17g}" if isinstance(value, float) else value


def write_csv(path, header, rows) -> None:
    """The one CSV format of every export: the header, then the rows,
    with floats as %.17g (they read back bit-exact), bools as 0/1 and
    any other cell as its str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def export_report_csv(report: BenchmarkReport, path) -> None:
    label = report.mode.label
    header = ["query_id", "mode", "status", "eps_pos", "eps_rot", "fabrik_iters", "opt_used",
              "time_seconds"]
    rows = (
        (r.query_id, label, r.status, r.eps_pos, r.eps_rot, r.fabrik_iters, r.opt_used,
         r.time_seconds)
        for r in report.records
    )
    write_csv(path, header, rows)


def export_summary_json(report: BenchmarkReport, path) -> None:
    """Mode, success rate and the solve-time quartiles of one report."""
    quartiles = np.percentile(report.times, [0, 25, 50, 75, 100]).tolist()
    doc = {
        "mode": report.mode.label,
        "robot": report.robot,
        "success_rate": report.success_rate,
        "avg_time_s": report.avg_time,
        "time_s": dict(zip(("min", "q1", "median", "q3", "max"), quartiles)),
        "n": len(report.records),
        "seed": report.seed,
        "rng": RNG_NAME,
        "eps_tol": report.eps_tol,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
