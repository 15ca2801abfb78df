"""Two-phase path-tracking harness.

Phase 1 drives the reduced chain's end point along the straight line of
the initial iteration direction until the arm reaches its zero
configuration, holding the end-effector orientation at its initial
value. Phase 2 interpolates joint space between two configurations and
tracks the forward-kinematics poses of the samples. Every waypoint is
solved with the previous solution as the warm-start reference, which is
what produces continuous joint trajectories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .benchmark import write_csv
from .geometry import dot, make_transform, wrap_angle
from .iktypes import IKQuery, IKResult, IKStatus, SolverConfig, check_joint_vector
from .robots import KUKA, UR5, RobotModel, fk_frames, forward_kinematics

# Scripted scenario constants: start/end configurations for the
# two-phase runs on each robot (radians).
SCRIPTED_THETA_INIT = {
    UR5: np.array([0.0, -0.959, 2.05, -1.091, 0.0, 0.0]),
    KUKA: np.array([0.0, 1.000, 0.0, -2.084, 0.0, 1.084, 0.0]),
}
SCRIPTED_THETA_END = {
    UR5: np.array([-0.179, 0.581, 2.8, -2.308, -1.028, 2.185]),
    KUKA: np.array([1.953, -0.711, -1.608, 1.648, -0.888, 0.782, 0.893]),
}

# Frame index whose origin is the reduced-chain end point.
_REDUCED_END_FRAME = {UR5: 3, KUKA: 5}


def reduced_end_position(model: RobotModel, theta) -> np.ndarray:
    """Position of the reduced chain's end (forearm tip / wrist center)."""
    frame = fk_frames(model, theta[: _REDUCED_END_FRAME[model.name]])[-1]
    return np.array([row[3] for row in frame])


def initial_direction(model: RobotModel, theta_init) -> np.ndarray:
    """Iteration direction of the straightened chain for this query."""
    if model.name == UR5:
        t1 = float(theta_init[0])
        return np.array([-math.cos(t1), -math.sin(t1), 0.0])
    return np.array([0.0, 0.0, 1.0])


def build_phase1_path(model: RobotModel, theta_init, n_points: int = 80) -> np.ndarray:
    """Evenly spaced reduced-chain targets on the v_init line.

    The line runs through the zero-configuration end point along v_init;
    the start is the current end point projected onto that line (the
    scripted initial configurations sit within a fraction of a
    millimeter of it), the end is the zero-configuration point itself.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    theta_init = np.asarray(theta_init, dtype=float)
    v = initial_direction(model, theta_init)
    p_zero = reduced_end_position(model, np.zeros(model.dof))
    p_now = reduced_end_position(model, theta_init)
    start = p_zero + dot(p_now - p_zero, v) * v
    alphas = np.linspace(0.0, 1.0, n_points)
    return start[None, :] + alphas[:, None] * (p_zero - start)[None, :]


def phase1_poses(model: RobotModel, theta_init, points) -> list[np.ndarray]:
    """Full pose targets for phase 1: orientation held, end point slid.

    The end-effector offset from the reduced-chain end is constant while
    the orientation and working plane are held, so each target pose is
    the line point plus the initial offset.
    """
    t0 = forward_kinematics(model, theta_init)
    offset = t0[:3, 3] - reduced_end_position(model, theta_init)
    return [make_transform(t0[:3, :3], np.asarray(p, dtype=float) + offset) for p in points]


def build_phase2_path(model: RobotModel, theta_start, theta_end, n_points: int = 100):
    """FK poses of a joint-space linear interpolation (endpoints included)."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    theta_start = np.asarray(theta_start, dtype=float)
    theta_end = np.asarray(theta_end, dtype=float)
    alphas = np.linspace(0.0, 1.0, n_points)
    return [
        forward_kinematics(model, theta_start + a * (theta_end - theta_start)) for a in alphas
    ]


@dataclass
class TrackingTrace:
    """The solved waypoints of one run, in path order, as (phase,
    IKResult) pairs: a waypoint's index is its position here."""

    records: list[tuple[int, IKResult]] = field(default_factory=list)
    failed_index: int | None = None

    @property
    def completed(self) -> bool:
        return self.failed_index is None

    def max_joint_step(self) -> float:
        """Largest per-joint change between consecutive solved waypoints.

        Changes are wrapped to [-pi, pi], so crossing +-pi is a small step.
        """
        thetas = [r.theta for _, r in self.records]
        if len(thetas) < 2:
            return 0.0
        diffs = np.abs(wrap_angle(np.diff(np.stack(thetas), axis=0)))
        return float(np.max(diffs))


def track(model: RobotModel, waypoints, theta_init, config: SolverConfig) -> TrackingTrace:
    """Solve a list of (phase, pose) waypoints with warm-started queries.

    Each waypoint's theta_init is the previous waypoint's solution. A
    failed waypoint aborts the run with a partial trace and its index.
    """
    from . import solve_ik

    trace = TrackingTrace()
    current = np.asarray(theta_init, dtype=float)
    for index, (phase, pose) in enumerate(waypoints):
        result = solve_ik(model, IKQuery(t_des=pose, theta_init=current, config=config))
        if result.status is not IKStatus.SOLVED:
            trace.failed_index = index
            return trace
        trace.records.append((phase, result))
        current = result.theta
    return trace


def scripted_waypoints(
    model: RobotModel,
    phase1_n: int = 80,
    phase2_n: int = 100,
    theta_end=None,
) -> tuple[np.ndarray, list]:
    """The default two-phase scenario for a robot.

    Returns (theta_init, waypoints) where waypoints are (phase, pose)
    pairs: phase 1 slides the reduced-chain end to the zero position,
    phase 2 tracks a joint-interpolated path from zero to theta_end.
    The scripted start, the zero configuration between the phases and
    theta_end must lie within the joint limits (ValueError otherwise).
    """
    theta_init = check_joint_vector(model, SCRIPTED_THETA_INIT[model.name], "the scripted start")
    theta_zero = check_joint_vector(model, np.zeros(model.dof), "the zero configuration")
    if theta_end is None:
        theta_end = SCRIPTED_THETA_END[model.name]
    theta_end = check_joint_vector(model, theta_end, "theta_end")
    points = build_phase1_path(model, theta_init, phase1_n)
    poses1 = phase1_poses(model, theta_init, points)
    poses2 = build_phase2_path(model, theta_zero, theta_end, phase2_n)
    waypoints = [(1, p) for p in poses1] + [(2, p) for p in poses2]
    return np.array(theta_init), waypoints


def write_trace_csv(trace: TrackingTrace, dof: int, path) -> None:
    header = (["index", "phase"] + [f"theta_{i + 1}" for i in range(dof)]
              + ["eps_pos", "eps_rot", "opt_used", "time_seconds"])
    rows = (
        (index, phase, *r.theta, r.error.eps_pos, r.error.eps_rot, r.optimizer_used, r.solve_time)
        for index, (phase, r) in enumerate(trace.records)
    )
    write_csv(path, header, rows)
