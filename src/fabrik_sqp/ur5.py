"""Combined FABRIK + box-SQP inverse kinematics for the UR5.

The 6-DOF problem is reduced to a two-link planar chain: theta1 fixes a
vertical working plane, the wrist links are peeled off analytically, and
FABRIK (with the optimizer as fallback) places the elbow chain at the
projected wrist target. The remaining angles are recovered from signed
angles between link directions. Since neither the sign of theta1 nor
the wrist-link direction can be determined up front, four branches are
evaluated and filtered by the pose-mismatch metric; the returned vector
is the feasible candidate closest to theta_init in L1 norm.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fabrik, pipeline
from .geometry import (
    dedup_angles,
    rotate_about_axis,
    signed_angle,
    translation_of,
    unit,
    wrap_angle,
)
from .iktypes import IKQuery, IKResult, prepare_query, select_candidate
from .optimizer import OptProblem, OptResult, minimize
from .robots import RobotModel, fk_prefix, pose_mismatch, ur5_model

_DEGENERATE_WRIST_TOL = 1e-8


def wrist_position(t_des: np.ndarray, model: RobotModel) -> np.ndarray:
    """Wrist point in the base frame: EE position minus the flange link."""
    l6 = model.link_lengths[5]
    return translation_of(t_des) - t_des[:3, :3] @ np.array([0.0, 0.0, l6])


def theta1_candidates(p_w: np.ndarray, model: RobotModel) -> list[float]:
    """Both base-rotation solutions placing the wrist on its offset cylinder.

    Empty when the wrist lies inside the lateral-offset cylinder (the
    pose is unreachable). The two values coincide on the cylinder
    boundary.
    """
    l4 = model.link_lengths[3]
    rho = math.hypot(p_w[0], p_w[1])
    if rho < l4:
        return []
    half = math.acos(min(1.0, l4 / rho))
    base = math.pi / 2 + math.atan2(p_w[1], p_w[0])
    return [wrap_angle(half + base), wrap_angle(-half + base)]


@dataclass(frozen=True)
class PlanarFrame:
    """Geometry of the working plane selected by one theta1 value."""

    theta1: float
    z2d: np.ndarray  # plane normal (axis of joints 2-4)
    v_init: np.ndarray  # initial chain direction (zero-pose arm direction)
    l6d: np.ndarray  # desired flange-link direction
    p_w_proj: np.ndarray  # wrist projected into the plane
    l5d_options: tuple  # candidate wrist-riser directions (+, -)
    degenerate: bool  # flange link parallel to the plane normal


def planar_frame(theta1: float, t_des: np.ndarray, p_w: np.ndarray, model: RobotModel) -> PlanarFrame:
    z2d = np.array([math.sin(theta1), -math.cos(theta1), 0.0])
    v_init = np.array([-math.cos(theta1), -math.sin(theta1), 0.0])
    l6d = unit(t_des[:3, 2])
    p_w_proj = p_w - float(np.dot(z2d, p_w)) * z2d
    cross = np.cross(z2d, l6d)
    norm = float(np.linalg.norm(cross))
    if norm < _DEGENERATE_WRIST_TOL:
        # tool axis along the plane normal: theta5/theta6 are forced to
        # zero, which pins the wrist riser to the tool-frame -y direction
        base = -t_des[:3, 1]
        return PlanarFrame(theta1, z2d, v_init, l6d, p_w_proj, (base, -base), True)
    base = cross / norm
    return PlanarFrame(theta1, z2d, v_init, l6d, p_w_proj, (base, -base), False)


def iteration_target(frame: PlanarFrame, l5d: np.ndarray, model: RobotModel) -> np.ndarray:
    return frame.p_w_proj - model.link_lengths[4] * l5d


def make_chain(frame: PlanarFrame, model: RobotModel) -> fabrik.ChainState:
    """Straight two-link elbow chain in the working plane."""
    l1, l2, l3 = model.link_lengths[:3]
    shoulder = np.array([0.0, 0.0, l1])
    joints = (
        fabrik.Hinge(frame.z2d, *model.joint_limits[1]),
        fabrik.Hinge(frame.z2d, *model.joint_limits[2]),
    )
    return fabrik.straight_chain(
        shoulder, frame.v_init, np.array([l2, l3]), joints, anchor_dir=frame.v_init
    )


def elbow_position(model: RobotModel, theta1: float, theta2: float, theta3: float) -> np.ndarray:
    """Closed-form position of the planar chain end (forearm tip)."""
    l1, l2, l3 = model.link_lengths[:3]
    r = l2 * math.cos(theta2) + l3 * math.cos(theta2 + theta3)
    z = l1 - (l2 * math.sin(theta2) + l3 * math.sin(theta2 + theta3))
    return np.array([-math.cos(theta1) * r, -math.sin(theta1) * r, z])


def elbow_objective(model: RobotModel, theta1: float, target: np.ndarray):
    """Squared distance of the planar chain end to the target, with gradient."""
    l1, l2, l3 = model.link_lengths[:3]
    c1, s1 = math.cos(theta1), math.sin(theta1)

    def fg(x):
        th2, th3 = float(x[0]), float(x[1])
        c2, s2 = math.cos(th2), math.sin(th2)
        c23, s23 = math.cos(th2 + th3), math.sin(th2 + th3)
        r = l2 * c2 + l3 * c23
        z = l1 - (l2 * s2 + l3 * s23)
        p = np.array([-c1 * r, -s1 * r, z])
        diff = p - target
        dr2 = -l2 * s2 - l3 * s23
        dz2 = -(l2 * c2 + l3 * c23)
        dp2 = np.array([-c1 * dr2, -s1 * dr2, dz2])
        dr3 = -l3 * s23
        dz3 = -l3 * c23
        dp3 = np.array([-c1 * dr3, -s1 * dr3, dz3])
        return float(np.dot(diff, diff)), 2.0 * np.array(
            [float(np.dot(diff, dp2)), float(np.dot(diff, dp3))]
        )

    return fg


def elbow_optimize(
    theta1: float,
    target: np.ndarray,
    seeds: tuple[float, float],
    model: RobotModel,
    bounds: np.ndarray,
    stop_value: float,
) -> tuple[OptResult, np.ndarray | None, np.ndarray | None]:
    """Optimize (theta2, theta3) and convert them back to link directions."""
    problem = OptProblem(
        objective=elbow_objective(model, theta1, target),
        bounds=bounds,
        x0=np.clip(np.asarray(seeds, dtype=float), bounds[:, 0], bounds[:, 1]),
    )
    result = minimize(problem, stop_value)
    if result.f > stop_value:
        return result, None, None
    z2d = np.array([math.sin(theta1), -math.cos(theta1), 0.0])
    v_init = np.array([-math.cos(theta1), -math.sin(theta1), 0.0])
    th2, th3 = float(result.x[0]), float(result.x[1])
    l2d = rotate_about_axis(z2d, th2, v_init)
    l3d = rotate_about_axis(z2d, th2 + th3, v_init)
    return result, l2d, l3d


def fold_variants(
    l2d: np.ndarray, l3d: np.ndarray, model: RobotModel
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The chain's fold plus its elbow-up/down mirror.

    A planar two-link chain reaching a point admits two folds; the
    iteration produces one, and the mirror (links reflected across the
    base-to-end line) reaches the same point. Enumerating both lets the
    closest-to-reference selection pick either.
    """
    out = [(l2d, l3d)]
    l2, l3 = model.link_lengths[1], model.link_lengths[2]
    span = l2 * l2d + l3 * l3d
    norm = float(np.linalg.norm(span))
    if norm > 1e-9:
        u = span / norm
        m2 = 2.0 * float(np.dot(l2d, u)) * u - l2d
        m3 = 2.0 * float(np.dot(l3d, u)) * u - l3d
        if float(np.max(np.abs(m2 - l2d))) > 1e-9:
            out.append((m2, m3))
    return out


def recover_angles(
    l2d: np.ndarray,
    l3d: np.ndarray,
    l5d: np.ndarray,
    frame: PlanarFrame,
    t_des: np.ndarray,
    model: RobotModel,
) -> np.ndarray:
    """All six joint angles from the link directions of one branch."""
    theta2 = signed_angle(frame.v_init, l2d, frame.z2d)
    theta3 = signed_angle(l2d, l3d, frame.z2d)
    theta4 = wrap_angle(signed_angle(l3d, l5d, frame.z2d) - math.pi / 2)
    if frame.degenerate:
        theta5 = 0.0
        theta6 = 0.0
    else:
        theta5 = signed_angle(frame.z2d, frame.l6d, l5d)
        x5d = fk_prefix(model, [frame.theta1, theta2, theta3, theta4, theta5])[:3, 0]
        theta6 = signed_angle(unit(x5d), unit(t_des[:3, 0]), unit(t_des[:3, 2]))
    return wrap_angle(np.array([frame.theta1, theta2, theta3, theta4, theta5, theta6]))


class Branch:
    """One (theta1, wrist-riser direction) branch of the planar reduction."""

    def __init__(self, frame: PlanarFrame, l5d: np.ndarray, theta_init, model: RobotModel):
        self.frame = frame
        self.l5d = l5d
        self.theta_init = theta_init
        self.model = model
        self.target = iteration_target(frame, l5d, model)

    def chain(self) -> fabrik.ChainState:
        return make_chain(self.frame, self.model)

    def bend_axis(self) -> np.ndarray:
        # bend toward the reference elbow sign so warm starts stay on
        # their fold
        return self.frame.z2d if self.theta_init[2] >= 0.0 else -self.frame.z2d

    def from_chain(self, chain: fabrik.ChainState):
        dirs = chain.link_directions()
        return dirs[0], dirs[1]

    def optimize(self, seed_chain: fabrik.ChainState, stop: float):
        frame = self.frame
        dirs = seed_chain.link_directions()
        seeds = (
            signed_angle(frame.v_init, dirs[0], frame.z2d),
            signed_angle(dirs[0], dirs[1], frame.z2d),
        )
        result, l2d, l3d = elbow_optimize(
            frame.theta1,
            self.target,
            seeds,
            self.model,
            self.model.joint_limits[1:3],
            stop,
        )
        return [result], None if l2d is None else (l2d, l3d)


def branches(t_des: np.ndarray, theta_init, model: RobotModel):
    """The two wrist-riser branches of each distinct theta1 candidate."""
    p_w = wrist_position(t_des, model)
    for theta1 in dedup_angles(theta1_candidates(p_w, model)):
        frame = planar_frame(theta1, t_des, p_w, model)
        for l5d in frame.l5d_options:
            yield Branch(frame, l5d, theta_init, model)


def solve_detailed(query: IKQuery, model: RobotModel | None = None):
    """Run the pipeline over every branch; returns (IKResult, SolveDetail)."""
    model = ur5_model() if model is None else model
    start = time.perf_counter()
    t_des = prepare_query(model, query)
    detail = pipeline.SolveDetail()
    reduced = pipeline.reduced_solutions(
        branches(t_des, query.theta_init, model), model, query.config, detail
    )
    thetas = (
        recover_angles(l2d, l3d, branch.l5d, branch.frame, t_des, model)
        for branch, (chain_l2d, chain_l3d) in reduced
        for l2d, l3d in fold_variants(chain_l2d, chain_l3d, model)
    )
    pipeline.admit(detail, model, thetas, t_des, query.config.eps_tol, pose_mismatch)
    pick = select_candidate(detail.admitted, query.theta_init)
    return pipeline.finish(model, t_des, detail, pick, start)


def solve(query: IKQuery, model: RobotModel | None = None) -> IKResult:
    result, _ = solve_detailed(query, model)
    return result
