"""Combined FABRIK + box-SQP inverse kinematics for the KUKA LBR iiwa 14.

Under a full pose constraint only the shoulder-elbow-wrist portion of
the chain has to be iterated: the wrist target is the EE position minus
the flange link, and the spherical wrist closes the orientation exactly
afterwards. FABRIK runs on a two-link chain in 3-D (ball-joint shoulder,
free elbow); if it misses the sweep budget, a four-variable
box-constrained minimization of the wrist distance takes over, seeded
with the angles implied by the current chain. All seven joint angles are
then recovered in closed form: theta1-theta4 from the elbow and wrist
points, every arm sign branch enumerated, and theta5-theta7 as the exact
Rz Ry Rz split of the wrist rotation, one triple per theta6 sign (Shimizu
et al. 2008). Each FK prefix is built once: frame 2 per (theta1, theta2),
frame 4 per arm. Every candidate is exact, so no sign is guessed; the
pipeline checks the pose of the selected one only.
"""
from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

from . import fabrik, pipeline
from .geometry import (
    cross,
    dedup_angles,
    inverse_transform,
    norm,
    translation_of,
    unit,
    wrap_angle,
)
from .iktypes import IKQuery, prepare_query, select_candidate
from .optimizer import minimize
from .robots import RobotModel, dh_transform, fk_frames, pose_mismatch

_DEDUP_TOL = 1e-9
_SIN_TOL = 1e-9
DEFAULT_V_INIT = np.array([0.0, 0.0, 1.0])


def wrist_target(t_des: np.ndarray, model: RobotModel) -> np.ndarray:
    """Iteration target: EE position minus the flange link."""
    l4 = model.link_lengths[3]
    return translation_of(t_des) - l4 * t_des[:3, 2]


def make_chain(model: RobotModel) -> fabrik.ChainState:
    """Straight shoulder-elbow-wrist chain along DEFAULT_V_INIT."""
    l2, l3 = model.link_lengths[1:3]
    elbow_cone = min(math.pi, max(abs(model.joint_limits[3, 0]), abs(model.joint_limits[3, 1])))
    joints = (fabrik.Ball(), fabrik.Ball(elbow_cone))
    return fabrik.straight_chain(
        model.shoulder, DEFAULT_V_INIT, np.array([l2, l3]), joints, anchor_dir=DEFAULT_V_INIT
    )


# --- closed-form geometry ---------------------------------------------------

def elbow_position(model: RobotModel, theta1: float, theta2: float) -> np.ndarray:
    l1, l2 = model.link_lengths[0], model.link_lengths[1]
    s2 = math.sin(theta2)
    return np.array(
        [l2 * s2 * math.cos(theta1), l2 * s2 * math.sin(theta1), l1 + l2 * math.cos(theta2)]
    )


def wrist_analytic(theta: np.ndarray, model: RobotModel) -> tuple[np.ndarray, np.ndarray]:
    """Wrist position and its 3x4 jacobian w.r.t. joints 1-4.

    Joints 5-7 do not move the wrist, so the closed form only involves
    theta1..theta4.
    """
    l1, l2, l3 = model.link_lengths[:3].tolist()
    t1, t2, t3, t4 = theta[:4].tolist()
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    c4, s4 = math.cos(t4), math.sin(t4)

    # 3-vectors as Python floats, combined entry by entry in numpy's
    # order of operations (zeros included), so the bits are numpy's
    u = (c1 * s2, s1 * s2, c2)  # upper-arm direction
    x3 = (c1 * c2 * c3 - s1 * s3, s1 * c2 * c3 + c1 * s3, -s2 * c3)
    du1 = (-s1 * s2, c1 * s2, 0.0)
    du2 = (c1 * c2, s1 * c2, -s2)
    dx3_1 = (-s1 * c2 * c3 - c1 * s3, c1 * c2 * c3 - s1 * s3, 0.0)
    dx3_2 = (-c1 * s2 * c3, -s1 * s2 * c3, -c2 * c3)
    dx3_3 = (-c1 * c2 * s3 - s1 * c3, -s1 * c2 * s3 + c1 * c3, s2 * s3)

    a, b = l2 + l3 * c4, l3 * s4
    k3, k4 = -l3 * s4, l3 * c4
    p = np.array([o + a * ui + b * xi for o, ui, xi in zip((0.0, 0.0, l1), u, x3)])
    jac = np.array([
        [a * du1[i] + b * dx3_1[i], a * du2[i] + b * dx3_2[i], b * dx3_3[i], k3 * u[i] + k4 * x3[i]]
        for i in range(3)
    ])
    return p, jac


# --- angle recovery ---------------------------------------------------------

def bend_magnitudes(p1, p2, p3) -> tuple[float, float]:
    """|theta2| and |theta4| from the shoulder, elbow and wrist positions.

    The bend at a joint is pi minus the interior angle of the triangle
    spanned by its two links (law of cosines on the outer points),
    evaluated in atan2 form on the link directions so near-straight and
    near-folded joints keep full precision.
    """
    def bend(pa, pj, pb):
        u = pj - pa
        v = pb - pj
        return math.atan2(norm(cross(u, v)), u.dot(v))

    p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p1, p2, p3))
    return bend(np.zeros(3), p1, p2), bend(p1, p2, p3)


def _signed_options(magnitude: float) -> list[float]:
    if magnitude < _DEDUP_TOL:
        return [0.0]
    return [magnitude, -magnitude]


def theta1_roots(theta2: float, p2: np.ndarray) -> list[float]:
    """Solutions of the elbow position equation for theta1.

    The elbow sits at l2*sin(theta2)*(cos(theta1), sin(theta1)) in the
    base xy-plane, so both coordinate rows pin theta1 exactly via atan2.
    When the elbow is on the base axis (theta2 ~ 0) the rotation is
    undetermined; 0 and pi are offered, and theta3 takes up the rotation.
    """
    s2 = math.sin(theta2)
    if abs(s2) < _SIN_TOL:
        return [0.0, math.pi]
    sign = 1.0 if s2 > 0.0 else -1.0
    return [math.atan2(sign * float(p2[1]), sign * float(p2[0]))]


def theta3_root(theta4: float, local: np.ndarray) -> float:
    """theta3 from `local`, the homogeneous wrist point in frame 2.

    In frame 2 the wrist sits at (l3 s4 c3, l3 s4 s3, l2 + l3 c4); the
    two lateral rows give theta3 via atan2. Straight elbow (theta4 ~ 0)
    leaves theta3 free: 0 is used and the spherical wrist absorbs it.
    """
    s4 = math.sin(theta4)
    if abs(s4) < _SIN_TOL:
        return 0.0
    sign = 1.0 if s4 > 0.0 else -1.0
    return math.atan2(sign * float(local[1]), sign * float(local[0]))


def arm_angles(p2, p3, model: RobotModel, azimuths=()):
    """Yield every (theta1..theta4) placing the elbow at p2 and the wrist
    at p3, each with its frame 2.

    Sign branches nest as theta2 sign, theta1 roots (plus `azimuths`),
    theta4 sign, positive branch first. Frame 2 and the wrist point in
    it are computed once per (theta1, theta2) and serve both theta4 signs.
    """
    p3h = np.append(np.asarray(p3, dtype=float), 1.0)
    m2, m4 = bend_magnitudes(model.shoulder, p2, p3)
    for th2 in _signed_options(m2):
        for th1 in dedup_angles(theta1_roots(th2, p2) + list(azimuths)):
            t02 = fk_frames(model, (th1, th2))[-1]
            local = inverse_transform(t02).dot(p3h)
            for th4 in _signed_options(m4):
                yield np.array([th1, th2, theta3_root(th4, local), th4]), t02


def wrist_angles(t04: np.ndarray, r_des: np.ndarray) -> list[tuple[float, float, float]]:
    """(theta5, theta6, theta7) closing the orientation, positive theta6 first.

    With the iiwa DH table the wrist rotation R04^T R_des equals
    Rz(theta5) Ry(theta6) Rz(theta7), one exact triple per sign of
    theta6. When sin(theta6) ~ 0 joints 5 and 7 are coaxial; theta5 is
    set to 0 and theta7 carries the twist.
    """
    r = t04[:3, :3].T.dot(r_des)
    th6 = math.atan2(math.hypot(r[0, 2], r[1, 2]), r[2, 2])
    if abs(math.sin(th6)) < _SIN_TOL:
        return [(0.0, th6, math.atan2(r[1, 0], r[1, 1]))]
    return [
        (math.atan2(r[1, 2], r[0, 2]), th6, math.atan2(r[2, 1], -r[2, 0])),
        (math.atan2(-r[1, 2], -r[0, 2]), -th6, math.atan2(-r[2, 1], r[2, 0])),
    ]


def recover_candidates(
    p2: np.ndarray, p3: np.ndarray, t_des: np.ndarray, model: RobotModel
) -> list[np.ndarray]:
    """Every joint vector with its elbow at p2, its wrist at p3 and the
    orientation of t_des: each arm branch, then each wrist triple,
    unwrapped. Frame 4 extends the arm's frame 2 in `fk_frames`'s
    left-to-right order, so it has the same bits."""
    r_des = t_des[:3, :3]
    row3, row4 = model.dh[2:4]
    out = []
    for arm, t02 in arm_angles(p2, p3, model):
        th3, th4 = arm[2:].tolist()
        t04 = t02.dot(dh_transform(row3, th3)).dot(dh_transform(row4, th4))
        out.extend(np.concatenate([arm, wrist]) for wrist in wrist_angles(t04, r_des))
    return out


def seed_candidates_from_chain(chain: fabrik.ChainState, model: RobotModel) -> list[np.ndarray]:
    """Distinct joint angles 1-4 reproducing the current chain.

    Used to seed the optimizer after a non-converged FABRIK run. The
    bend magnitudes and root equations admit several combinations; all
    are returned, because on symmetric (target-on-axis) geometry one
    seed can sit in a basin where the descent dies out and a sibling
    seed does not. `Branch.optimize` tries them by L1 distance to the
    reference. The elbow/wrist reconstruction error orders them here,
    so it decides only which of two seeds within 1e-4 rad survives the
    twin collapse, and the order of seeds tied in L1 distance.
    """
    p2c, p3c = chain.positions[1], chain.positions[2]

    # also offer the wrist's own lateral azimuth, which aligns the
    # shoulder tilt plane with the chain's actual asymmetry when the
    # elbow sits on the base axis
    azimuths: list[float] = []
    if math.hypot(float(p3c[0]), float(p3c[1])) > 1e-12:
        az = math.atan2(float(p3c[1]), float(p3c[0]))
        azimuths = [az, wrap_angle(az + math.pi)]
    scored: list[tuple[float, np.ndarray]] = []
    for theta, _ in arm_angles(p2c, p3c, model, azimuths=azimuths):
        wrist, _ = wrist_analytic(theta, model)
        score = norm(elbow_position(model, theta[0], theta[1]) - p2c) + norm(wrist - p3c)
        scored.append((score, theta))
    scored.sort(key=lambda pair: pair[0])
    out: list[np.ndarray] = []
    for _, theta in scored:
        # seeds are starting points, not answers: collapse near-twins
        if all(np.max(np.abs(theta - kept)) > 1e-4 for kept in out):
            out.append(theta)
    return out


def _lateral(arms, axis: np.ndarray) -> np.ndarray | None:
    """Unit component normal to `axis` of the first arm not along it."""
    for w in arms:
        lateral = w - float(np.dot(w, axis)) * axis
        n = norm(lateral)
        if n > 1e-9:
            return lateral / n
    return None


def reference_elbow(model: RobotModel, reference_arms, p3: np.ndarray) -> np.ndarray | None:
    """Valid elbow position nearest the reference configuration's elbow.

    The elbow self-motion is a circle around the shoulder-to-wrist axis;
    projecting the reference elbow onto it yields the redundancy
    resolution closest to the warm start. `reference_arms` holds the
    reference elbow and wrist relative to the shoulder. None when the
    projection is undefined (a degenerate circle).
    """
    l2, l3 = model.link_lengths[1:3]
    p1 = model.shoulder
    d = norm(p3 - p1)
    if d < 1e-12:
        return None
    u = (p3 - p1) / d
    cos_a = (l2 * l2 + d * d - l3 * l3) / (2.0 * l2 * d)
    if abs(cos_a) > 1.0 + 1e-9:
        return None
    cos_a = min(1.0, max(-1.0, cos_a))
    radius = l2 * math.sqrt(max(0.0, 1.0 - cos_a * cos_a))
    center = p1 + l2 * cos_a * u
    if radius < 1e-9:
        return None
    # azimuth cue: reference elbow, then reference wrist, then the fixed
    # default azimuth (matches the default pre-bend direction), so a
    # fully on-axis reference still resolves deterministically
    cues = reference_arms + [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    lateral = _lateral(cues, u)
    return None if lateral is None else center + radius * lateral


class Branch:
    """The one shoulder-elbow-wrist chain, aimed at the wrist target.

    ``start`` is the straight chain folded toward theta_init about
    ``bend_axis``, from the reference elbow's lateral direction (then the
    wrist's; None when the reference is on the DEFAULT_V_INIT line): targets
    on that line leave the fold free, and the bias keeps picks continuous
    under warm starts.
    """

    def __init__(self, t_des: np.ndarray, theta_init, model: RobotModel):
        self.theta_init = theta_init
        self.model = model
        self.target = wrist_target(t_des, model)
        lateral = _lateral(self.reference_arms, DEFAULT_V_INIT)
        self.bend_axis = None if lateral is None else unit(cross(DEFAULT_V_INIT, lateral))
        self.start = fabrik.pre_bend(make_chain(model), axis=self.bend_axis)

    @cached_property
    def reference_arms(self) -> list[np.ndarray]:
        """The reference elbow and wrist relative to the shoulder: the
        one FK of theta_init per solve, up to the wrist frame 5."""
        frames = fk_frames(self.model, self.theta_init[:5])
        return [frames[3][:3, 3] - self.model.shoulder, frames[5][:3, 3] - self.model.shoulder]

    def from_chain(self, chain: fabrik.ChainState):
        return chain.positions[1], chain.positions[2]

    def optimize(self, seed_chain: fabrik.ChainState, stop: float):
        model = self.model
        position = partial(wrist_analytic, model=model)
        bounds = model.joint_limits[:4]
        # try the seed closest to the reference configuration first:
        # on degenerate (target-on-axis) geometry several seeds converge
        # to mirror folds, and the warm-start fold keeps tracking
        # trajectories continuous
        seeds = seed_candidates_from_chain(seed_chain, model)
        seeds.sort(key=lambda s: float(np.sum(np.abs(s - self.theta_init[:4]))))
        results = []
        for seed in seeds[:12]:
            results.append(minimize(position, self.target, seed, bounds, stop))
            if results[-1].f <= stop:
                th = results[-1].x
                p3, _ = wrist_analytic(th, model)
                return results, (elbow_position(model, float(th[0]), float(th[1])), p3)
        return results, None

    def candidates(self, reduced, t_des: np.ndarray):
        """Joint vectors for the reduced chain's elbow, then for the
        feasible elbow nearest the reference configuration.

        The arm is redundant; the second elbow keeps warm-started
        trajectories on their fold. The wrist closes the orientation
        exactly at the achieved wrist point.
        """
        p2, p3 = reduced
        elbows = [p2]
        p2_ref = reference_elbow(self.model, self.reference_arms, p3)
        if p2_ref is not None and float(np.max(np.abs(p2_ref - p2))) > 1e-9:
            elbows.append(p2_ref)
        for elbow in elbows:
            yield from recover_candidates(elbow, p3, t_des, self.model)


def branches(t_des: np.ndarray, theta_init, model: RobotModel) -> list[Branch]:
    """The one branch: the wrist chain."""
    return [Branch(t_des, theta_init, model)]


def solve_detailed(query: IKQuery, model: RobotModel):
    """Run the pipeline on the wrist chain; returns (IKResult, SolveDetail)."""
    return pipeline.solve(query, model, branches, prepare_query, select_candidate, pose_mismatch)
