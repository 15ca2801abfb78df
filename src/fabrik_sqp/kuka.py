"""Combined FABRIK + box-SQP inverse kinematics for the KUKA LBR iiwa 14.

Under a full pose constraint only the shoulder-elbow-wrist portion of
the chain has to be iterated: the wrist target is the EE position minus
the flange link, and the spherical wrist closes the orientation exactly
afterwards. FABRIK runs on a two-link chain in 3-D (ball-joint shoulder,
free elbow); if it misses the sweep budget, a four-variable
box-constrained minimization of the wrist distance takes over, seeded
with the angles implied by the current chain. All seven joint angles are
then recovered: bend magnitudes from the law of cosines, the remaining
angles as roots of per-joint trigonometric equations, with every sign
branch enumerated and filtered by the pose-mismatch metric.
"""
from __future__ import annotations

import math
import time

import numpy as np

from . import fabrik, pipeline
from .geometry import (
    dedup_angles,
    inverse_transform,
    translation_of,
    unit,
    wrap_angle,
)
from .iktypes import IKQuery, IKResult, prepare_query, select_candidate
from .optimizer import OptProblem, minimize
from .robots import (
    RobotModel,
    dh_transform,
    fk_frames,
    kuka_model,
    pose_mismatch,
)

_DEDUP_TOL = 1e-9
_SIN_TOL = 1e-9
DEFAULT_V_INIT = np.array([0.0, 0.0, 1.0])


def wrist_target(t_des: np.ndarray, model: RobotModel) -> np.ndarray:
    """Iteration target: EE position minus the flange link."""
    l4 = model.link_lengths[3]
    return translation_of(t_des) - t_des[:3, :3] @ np.array([0.0, 0.0, l4])


def make_chain(model: RobotModel, config, v_init) -> fabrik.ChainState:
    """Straight shoulder-elbow-wrist chain along v_init."""
    l1, l2, l3 = model.link_lengths[:3]
    shoulder = np.array([0.0, 0.0, l1])
    elbow_cone = min(math.pi, max(abs(model.joint_limits[3, 0]), abs(model.joint_limits[3, 1])))
    joints = (fabrik.Ball(config.ball_limit), fabrik.Ball(elbow_cone))
    return fabrik.straight_chain(
        shoulder, v_init, np.array([l2, l3]), joints, anchor_dir=np.array([0.0, 0.0, 1.0])
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
    l1, l2, l3 = model.link_lengths[:3]
    t1, t2, t3, t4 = (float(v) for v in theta[:4])
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    c4, s4 = math.cos(t4), math.sin(t4)

    u = np.array([c1 * s2, s1 * s2, c2])  # upper-arm direction
    x3 = np.array([c1 * c2 * c3 - s1 * s3, s1 * c2 * c3 + c1 * s3, -s2 * c3])
    p = np.array([0.0, 0.0, l1]) + (l2 + l3 * c4) * u + l3 * s4 * x3

    du1 = np.array([-s1 * s2, c1 * s2, 0.0])
    du2 = np.array([c1 * c2, s1 * c2, -s2])
    dx3_1 = np.array([-s1 * c2 * c3 - c1 * s3, c1 * c2 * c3 - s1 * s3, 0.0])
    dx3_2 = np.array([-c1 * s2 * c3, -s1 * s2 * c3, -c2 * c3])
    dx3_3 = np.array([-c1 * c2 * s3 - s1 * c3, -s1 * c2 * s3 + c1 * c3, s2 * s3])

    jac = np.empty((3, 4))
    jac[:, 0] = (l2 + l3 * c4) * du1 + l3 * s4 * dx3_1
    jac[:, 1] = (l2 + l3 * c4) * du2 + l3 * s4 * dx3_2
    jac[:, 2] = l3 * s4 * dx3_3
    jac[:, 3] = -l3 * s4 * u + l3 * c4 * x3
    return p, jac


def wrist_objective(model: RobotModel, target: np.ndarray):
    def fg(x):
        p, jac = wrist_analytic(np.asarray(x, dtype=float), model)
        diff = p - target
        return float(np.dot(diff, diff)), 2.0 * (jac.T @ diff)

    return fg


# --- angle recovery ---------------------------------------------------------

def bend_magnitudes(p1, p2, p3, p4, model: RobotModel) -> tuple[float, float, float]:
    """|theta2|, |theta4|, |theta6| from the joint positions.

    The bend at a joint is pi minus the interior angle of the triangle
    spanned by its two links (law of cosines on the outer points),
    evaluated in atan2 form on the link directions so near-straight and
    near-folded joints keep full precision.
    """
    p0 = np.zeros(3)
    pts = [p0, np.asarray(p1, dtype=float), np.asarray(p2, dtype=float),
           np.asarray(p3, dtype=float), np.asarray(p4, dtype=float)]

    def bend(pa, pj, pb):
        u = pj - pa
        v = pb - pj
        return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))

    return (
        bend(pts[0], pts[1], pts[2]),
        bend(pts[1], pts[2], pts[3]),
        bend(pts[2], pts[3], pts[4]),
    )


def _signed_options(magnitude: float) -> list[float]:
    if magnitude < _DEDUP_TOL:
        return [0.0]
    return [magnitude, -magnitude]


def theta1_roots(
    theta2: float, p2: np.ndarray, model: RobotModel, tol: float = _SIN_TOL
) -> list[float]:
    """Solutions of the elbow position equation for theta1.

    The elbow sits at l2*sin(theta2)*(cos(theta1), sin(theta1)) in the
    base xy-plane, so both coordinate rows pin theta1 exactly via atan2.
    When the elbow is on the base axis (theta2 ~ 0) the rotation is
    undetermined; 0 and pi are offered and the mismatch filter decides.
    """
    s2 = math.sin(theta2)
    if abs(s2) < tol:
        return [0.0, math.pi]
    sign = 1.0 if s2 > 0.0 else -1.0
    return [math.atan2(sign * float(p2[1]), sign * float(p2[0]))]


def theta3_roots(
    theta1: float,
    theta2: float,
    theta4: float,
    p3: np.ndarray,
    model: RobotModel,
    tol: float = _SIN_TOL,
) -> list[float]:
    """Solutions of the wrist position equation (in frame 2) for theta3.

    In frame 2 the wrist sits at (l3 s4 c3, l3 s4 s3, l2 + l3 c4); the
    two lateral rows give theta3 via atan2. Straight elbow (theta4 ~ 0)
    leaves theta3 free: 0 is used and the spherical wrist absorbs it.
    """
    s4 = math.sin(theta4)
    if abs(s4) < tol:
        return [0.0]
    t02 = dh_transform(model.dh[0], theta1) @ dh_transform(model.dh[1], theta2)
    local = inverse_transform(t02) @ np.append(np.asarray(p3, dtype=float), 1.0)
    sign = 1.0 if s4 > 0.0 else -1.0
    return [math.atan2(sign * float(local[1]), sign * float(local[0]))]


def theta5_roots(t04_inv_tdes: np.ndarray, theta6: float, model: RobotModel) -> list[float]:
    """Solutions of the flange position equation for theta5.

    In frame 4 the flange tip sits at (l4 s6 c5, l4 s6 s5, l3 + l4 c6);
    the two lateral rows give theta5 via atan2. theta6 ~ 0 makes joints
    5 and 7 coaxial; theta5 is set to 0 and theta7 carries the twist.
    """
    s6 = math.sin(theta6)
    if abs(s6) < _SIN_TOL:
        return [0.0]
    sign = 1.0 if s6 > 0.0 else -1.0
    return [math.atan2(sign * float(t04_inv_tdes[1, 3]), sign * float(t04_inv_tdes[0, 3]))]


def recover_candidates(
    p2: np.ndarray, p3: np.ndarray, t_des: np.ndarray, model: RobotModel
) -> list[np.ndarray]:
    """Enumerate all joint vectors consistent with the chain geometry.

    Every sign branch of (theta2, theta4, theta6, theta7) and every root
    of the per-joint equations is generated, positive branch first, in
    deterministic order; the caller filters by pose mismatch.
    """
    l1 = model.link_lengths[0]
    p1 = np.array([0.0, 0.0, l1])
    p4 = translation_of(t_des)
    m2, m4, m6 = bend_magnitudes(p1, p2, p3, p4, model)
    x7 = unit(t_des[:3, 0])

    out: list[np.ndarray] = []
    for th2 in _signed_options(m2):
        a2 = dh_transform(model.dh[1], th2)
        for th1 in theta1_roots(th2, p2, model):
            t02 = dh_transform(model.dh[0], th1) @ a2
            for th4 in _signed_options(m4):
                a4 = dh_transform(model.dh[3], th4)
                for th3 in theta3_roots(th1, th2, th4, p3, model):
                    t04 = t02 @ dh_transform(model.dh[2], th3) @ a4
                    rhs = inverse_transform(t04) @ t_des
                    for th6 in _signed_options(m6):
                        a6 = dh_transform(model.dh[5], th6)
                        for th5 in theta5_roots(rhs, th6, model):
                            t06 = t04 @ dh_transform(model.dh[4], th5) @ a6
                            x6 = t06[:3, 0]
                            m7 = math.atan2(
                                float(np.linalg.norm(np.cross(x6, x7))), float(np.dot(x6, x7))
                            )
                            for th7 in _signed_options(m7):
                                out.append(
                                    wrap_angle(
                                        np.array([th1, th2, th3, th4, th5, th6, th7])
                                    )
                                )
    return out


def seed_candidates_from_chain(chain: fabrik.ChainState, model: RobotModel) -> list[np.ndarray]:
    """Joint angles 1-4 reproducing the current chain, best match first.

    Used to seed the optimizer after a non-converged FABRIK run. The
    bend magnitudes and root equations admit several combinations; all
    are returned ordered by elbow/wrist reconstruction error, because on
    symmetric (target-on-axis) geometry the best-matching seed can sit
    in a basin where the descent dies out and a sibling seed does not.
    """
    p1 = np.array([0.0, 0.0, model.link_lengths[0]])
    p2c, p3c = chain.positions[1], chain.positions[2]
    m2, m4, _ = bend_magnitudes(p1, p2c, p3c, p3c, model)

    # near-degenerate axes would make the atan2 roots fp noise and plant
    # the seed in an incoherent slice of the landscape; treat them as
    # degenerate well before that point and also offer the wrist's own
    # lateral azimuth, which aligns the shoulder tilt plane with the
    # chain's actual asymmetry when the elbow sits on the base axis
    seed_tol = 1e-6
    azimuths: list[float] = []
    lat3 = math.hypot(float(p3c[0]), float(p3c[1]))
    if lat3 > 1e-12:
        az = math.atan2(float(p3c[1]), float(p3c[0]))
        azimuths = [az, wrap_angle(az + math.pi)]
    scored: list[tuple[float, np.ndarray]] = []
    for th2 in _signed_options(m2):
        for th1 in dedup_angles(theta1_roots(th2, p2c, model, tol=seed_tol) + azimuths):
            for th4 in _signed_options(m4):
                for th3 in theta3_roots(th1, th2, th4, p3c, model, tol=seed_tol):
                    theta = np.array([th1, th2, th3, th4])
                    wrist, _ = wrist_analytic(theta, model)
                    score = float(
                        np.linalg.norm(elbow_position(model, th1, th2) - p2c)
                        + np.linalg.norm(wrist - p3c)
                    )
                    scored.append((score, theta))
    scored.sort(key=lambda pair: pair[0])
    out: list[np.ndarray] = []
    for _, theta in scored:
        # seeds are starting points, not answers: collapse near-twins
        if all(np.max(np.abs(theta - kept)) > 1e-4 for kept in out):
            out.append(theta)
    if not out:
        out.append(np.zeros(4))
    return out


def reference_elbow(model: RobotModel, theta_init, p3: np.ndarray) -> np.ndarray | None:
    """Valid elbow position nearest the reference configuration's elbow.

    The elbow self-motion is a circle around the shoulder-to-wrist axis;
    projecting the reference elbow onto it yields the redundancy
    resolution closest to the warm start. None when the projection is
    undefined (reference elbow on the axis, or a degenerate circle).
    """
    l1, l2, l3 = model.link_lengths[:3]
    p1 = np.array([0.0, 0.0, l1])
    d = float(np.linalg.norm(p3 - p1))
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
    frames = fk_frames(model, theta_init)
    # azimuth cue: reference elbow, then reference wrist, then the fixed
    # default azimuth (matches the default pre-bend direction), so a
    # fully on-axis reference still resolves deterministically
    candidates = [frames[3][:3, 3] - p1, frames[5][:3, 3] - p1,
                  np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    for w in candidates:
        lateral = w - float(np.dot(w, u)) * u
        norm = float(np.linalg.norm(lateral))
        if norm > 1e-9:
            return center + radius * (lateral / norm)
    return None


def _bend_bias_axis(model: RobotModel, theta_init, v_init) -> np.ndarray | None:
    """Pre-bend axis that folds the straight chain toward theta_init.

    Targets on the v_init line leave the fold azimuth free; biasing the
    initial bend toward the reference configuration makes the recovered
    chain (and hence the selected candidate) continuous under warm
    starts. Uses the reference elbow's lateral direction, then the
    wrist's; None when the reference chain is itself on the axis.
    """
    frames = fk_frames(model, theta_init)
    shoulder = np.array([0.0, 0.0, model.link_lengths[0]])
    for frame_idx in (3, 5):
        arm = frames[frame_idx][:3, 3] - shoulder
        lateral = arm - float(np.dot(arm, v_init)) * v_init
        norm = float(np.linalg.norm(lateral))
        if norm > 1e-9:
            return unit(np.cross(v_init, lateral / norm))
    return None


class Branch:
    """The one shoulder-elbow-wrist chain, aimed at the wrist target."""

    def __init__(self, t_des: np.ndarray, query: IKQuery, model: RobotModel):
        self.query = query
        self.model = model
        self.v_init = DEFAULT_V_INIT if query.v_init is None else unit(query.v_init)
        self.target = wrist_target(t_des, model)

    def chain(self) -> fabrik.ChainState:
        return make_chain(self.model, self.query.config, self.v_init)

    def bend_axis(self) -> np.ndarray | None:
        return _bend_bias_axis(self.model, self.query.theta_init, self.v_init)

    def from_chain(self, chain: fabrik.ChainState):
        return chain.positions[1], chain.positions[2]

    def optimize(self, seed_chain: fabrik.ChainState, config):
        model = self.model
        stop = config.eps_tol * config.eps_tol
        objective = wrist_objective(model, self.target)
        bounds = model.joint_limits[:4]
        # try the seed closest to the reference configuration first:
        # on degenerate (target-on-axis) geometry several seeds converge
        # to mirror folds, and the warm-start fold keeps tracking
        # trajectories continuous
        seeds = seed_candidates_from_chain(seed_chain, model)
        seeds.sort(key=lambda s: float(np.sum(np.abs(s - self.query.theta_init[:4]))))
        results = []
        for seed in seeds[:12]:
            problem = OptProblem(
                objective=objective,
                bounds=bounds,
                x0=np.clip(seed, bounds[:, 0], bounds[:, 1]),
            )
            results.append(minimize(problem, stop, config.opt_max_iters))
            if results[-1].f <= stop:
                th = results[-1].x
                p3, _ = wrist_analytic(th, model)
                return results, (elbow_position(model, float(th[0]), float(th[1])), p3)
        return results, None


def recover_all(p2: np.ndarray, p3: np.ndarray, t_des: np.ndarray, theta_init, model: RobotModel):
    """Joint vectors for the reduced chain's elbow, then for the feasible
    elbow nearest the reference configuration.

    The arm is redundant; the second elbow keeps warm-started
    trajectories on their fold.
    """
    # The wrist equations are solved against the desired orientation
    # anchored at the achieved wrist point. This keeps the angle
    # recovery self-consistent (orientation closes exactly); the
    # remaining end-effector offset equals the wrist residual and is
    # judged by the mismatch filter.
    t_recover = t_des.copy()
    t_recover[:3, 3] = p3 + t_des[:3, :3] @ np.array([0.0, 0.0, model.link_lengths[3]])
    elbows = [p2]
    p2_ref = reference_elbow(model, theta_init, p3)
    if p2_ref is not None and float(np.max(np.abs(p2_ref - p2))) > 1e-9:
        elbows.append(p2_ref)
    for elbow in elbows:
        yield from recover_candidates(elbow, p3, t_recover, model)


def solve_detailed(query: IKQuery, model: RobotModel | None = None):
    """Run the pipeline on the wrist chain; returns (IKResult, SolveDetail)."""
    model = kuka_model() if model is None else model
    start = time.perf_counter()
    t_des = prepare_query(model, query)
    detail = pipeline.SolveDetail()
    branches = [Branch(t_des, query, model)]
    for _, (p2, p3) in pipeline.reduced_solutions(branches, model, query.config, detail):
        thetas = recover_all(p2, p3, t_des, query.theta_init, model)
        pipeline.admit(detail, model, thetas, t_des, query.config.eps_tol, pose_mismatch)
    pick = select_candidate(detail.admitted, query.theta_init)
    return pipeline.finish(model, t_des, detail, pick, start)


def solve(query: IKQuery, model: RobotModel | None = None) -> IKResult:
    result, _ = solve_detailed(query, model)
    return result
