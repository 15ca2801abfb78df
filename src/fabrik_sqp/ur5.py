"""Combined FABRIK + box-SQP inverse kinematics for the UR5.

theta1 fixes a vertical working plane, the wrist links are peeled off
analytically, and FABRIK (with the optimizer as fallback) solves the
planar joint pair (theta2, theta3) that places the elbow chain at the
projected wrist target. Since neither the sign of theta1 nor the
wrist-link direction can be determined up front, four branches are
evaluated. Joints 2-4 are parallel, so theta2 + theta3 + theta4, theta5
and theta6 are solved once per branch, and each fold of the elbow chain
sets theta4 to close that sum. Every candidate is exact, the wrist
singularity included; the returned vector is the candidate within the
joint limits closest to theta_init in L1 norm, after one pose check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fabrik, pipeline
from .geometry import (
    cross,
    dedup_angles,
    norm,
    signed_angle,
    translation_of,
    unit,
    wrap_angle,
)
from .iktypes import IKQuery, prepare_query, select_candidate
from .optimizer import OptResult, minimize
from .robots import RobotModel, fk_frames, pose_mismatch

_DEGENERATE_WRIST_TOL = 1e-8


def wrist_position(t_des: np.ndarray, model: RobotModel) -> np.ndarray:
    """Wrist point in the base frame: EE position minus the flange link."""
    l6 = model.link_lengths[5]
    return translation_of(t_des) - l6 * t_des[:3, 2]


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


def planar_frame(theta1: float, t_des: np.ndarray, p_w: np.ndarray, model: RobotModel) -> PlanarFrame:
    z2d = np.array([math.sin(theta1), -math.cos(theta1), 0.0])
    v_init = np.array([-math.cos(theta1), -math.sin(theta1), 0.0])
    l6d = unit(t_des[:3, 2])
    p_w_proj = p_w - float(np.dot(z2d, p_w)) * z2d
    riser = cross(z2d, l6d)
    n = norm(riser)
    # tool axis along the plane normal (the wrist singularity, theta5 = 0
    # or pi): every riser in the plane closes the orientation, theta6
    # taking up the twist; the tool-frame -y direction is one of them
    base = -t_des[:3, 1] if n < _DEGENERATE_WRIST_TOL else riser / n
    return PlanarFrame(theta1, z2d, v_init, l6d, p_w_proj, (base, -base))


def iteration_target(frame: PlanarFrame, l5d: np.ndarray, model: RobotModel) -> np.ndarray:
    return frame.p_w_proj - model.link_lengths[4] * l5d


def make_chain(frame: PlanarFrame, model: RobotModel) -> fabrik.ChainState:
    """Straight two-link elbow chain in the working plane."""
    l2, l3 = model.link_lengths[1:3]
    joints = (
        fabrik.Hinge(frame.z2d, *model.joint_limits[1]),
        fabrik.Hinge(frame.z2d, *model.joint_limits[2]),
    )
    return fabrik.straight_chain(
        model.shoulder, frame.v_init, np.array([l2, l3]), joints, anchor_dir=frame.v_init
    )


def elbow_analytic(x, theta1: float, model: RobotModel) -> tuple[np.ndarray, np.ndarray]:
    """Forearm tip at x = (theta2, theta3) in theta1's plane, and its 3x2 jacobian."""
    l1, l2, l3 = model.link_lengths[:3].tolist()
    c1, s1 = math.cos(theta1), math.sin(theta1)
    th2, th3 = float(x[0]), float(x[1])
    c2, s2 = math.cos(th2), math.sin(th2)
    c23, s23 = math.cos(th2 + th3), math.sin(th2 + th3)
    r = l2 * c2 + l3 * c23
    z = l1 - (l2 * s2 + l3 * s23)
    dr2 = -l2 * s2 - l3 * s23
    dz2 = -(l2 * c2 + l3 * c23)
    dr3 = -l3 * s23
    dz3 = -l3 * c23
    jac = np.array([[-c1 * dr2, -c1 * dr3], [-s1 * dr2, -s1 * dr3], [dz2, dz3]])
    return np.array([-c1 * r, -s1 * r, z]), jac


def elbow_optimize(
    theta1: float,
    target: np.ndarray,
    seeds: tuple[float, float],
    model: RobotModel,
    bounds: np.ndarray,
    stop_value: float,
) -> tuple[OptResult, np.ndarray | None]:
    """Optimize (theta2, theta3); None in place of x above the stop value."""
    position = partial(elbow_analytic, theta1=theta1, model=model)
    result = minimize(position, target, seeds, bounds, stop_value)
    return result, None if result.f > stop_value else result.x


def fold_variants(theta2: float, theta3: float, model: RobotModel) -> list[tuple[float, float]]:
    """The chain's fold plus its elbow-up/down mirror.

    A planar two-link chain reaching a point admits two folds; the
    iteration produces one, and the mirror (links reflected across the
    base-to-end line) reaches the same point. Enumerating both lets the
    closest-to-reference selection pick either. The mirror turns the
    upper arm by twice the angle between it and the base-to-end line.
    """
    l2, l3 = model.link_lengths[1], model.link_lengths[2]
    turn = 2.0 * math.atan2(l3 * math.sin(theta3), l2 + l3 * math.cos(theta3))
    if abs(turn) <= 1e-9:
        return [(theta2, theta3)]
    return [(theta2, theta3), (theta2 + turn, -theta3)]


def wrist_angles(
    frame: PlanarFrame, l5d: np.ndarray, t_des: np.ndarray, model: RobotModel
) -> tuple[float, float, float]:
    """(theta2 + theta3 + theta4, theta5, theta6), shared by every
    (theta2, theta3) of the branch: the wrist rotation depends on joints
    2-4 only through their sum."""
    theta234 = signed_angle(frame.v_init, l5d, frame.z2d) - math.pi / 2
    theta5 = signed_angle(frame.z2d, frame.l6d, l5d)
    x5d = fk_frames(model, [frame.theta1, 0.0, 0.0, theta234, theta5])[-1][:3, 0]
    theta6 = signed_angle(unit(x5d), unit(t_des[:3, 0]), unit(t_des[:3, 2]))
    return theta234, theta5, theta6


def recover_angles(theta1: float, theta2: float, theta3: float, wrist) -> np.ndarray:
    """All six joint angles of one fold, unwrapped; theta4 closes the
    branch's sum."""
    theta234, theta5, theta6 = wrist
    return np.array([theta1, theta2, theta3, theta234 - theta2 - theta3, theta5, theta6])


class Branch:
    """One (theta1, wrist-riser) branch; ``start`` is its plane's pre-bent chain."""

    def __init__(self, frame: PlanarFrame, l5d, start, bend_axis, model: RobotModel):
        self.frame = frame
        self.l5d = l5d
        self.start = start
        self.bend_axis = bend_axis
        self.model = model
        self.target = iteration_target(frame, l5d, model)

    def from_chain(self, chain: fabrik.ChainState) -> tuple[float, float]:
        """(theta2, theta3) of a chain in the working plane."""
        frame = self.frame
        l2d, l3d = chain.link_directions()
        return signed_angle(frame.v_init, l2d, frame.z2d), signed_angle(l2d, l3d, frame.z2d)

    def optimize(self, seed_chain: fabrik.ChainState, stop: float):
        result, pair = elbow_optimize(
            self.frame.theta1,
            self.target,
            self.from_chain(seed_chain),
            self.model,
            self.model.joint_limits[1:3],
            stop,
        )
        return [result], pair

    def candidates(self, reduced, t_des: np.ndarray):
        """Joint vectors of every fold of (theta2, theta3)."""
        wrist = wrist_angles(self.frame, self.l5d, t_des, self.model)
        for fold in fold_variants(*reduced, self.model):
            yield recover_angles(self.frame.theta1, *fold, wrist)


def branches(t_des: np.ndarray, theta_init, model: RobotModel):
    """The two wrist-riser branches of each distinct theta1 candidate; both
    share their plane's chain, pre-bent once toward the reference fold."""
    p_w = wrist_position(t_des, model)
    for theta1 in dedup_angles(theta1_candidates(p_w, model)):
        frame = planar_frame(theta1, t_des, p_w, model)
        axis = frame.z2d if theta_init[2] >= 0.0 else -frame.z2d
        start = fabrik.pre_bend(make_chain(frame, model), axis=axis)
        for l5d in frame.l5d_options:
            yield Branch(frame, l5d, start, axis, model)


def solve_detailed(query: IKQuery, model: RobotModel):
    """Run the pipeline over every branch; returns (IKResult, SolveDetail)."""
    return pipeline.solve(query, model, branches, prepare_query, select_candidate, pose_mismatch)
