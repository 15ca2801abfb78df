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
et al. 2008). The arm angles are known before the wrist, so each arm is
one candidate group whose theta1-theta4 are its fixed joints: by the
pipeline's one joint rule (`iktypes.admitted`) their terms of the L1
distance to theta_init bound all its candidates from below, so the
pipeline recovers the wrist only of an arm within the joint limits
whose floor can still win. Each FK prefix is built once: frame 2 per
(theta1, theta2), frame 4 per recovered arm. Every candidate is exact,
so no sign is guessed; the pipeline checks the pose of the selected one
only. Points and frames are floats (see the `geometry` docstring).
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial

from . import fabrik, pipeline
from .geometry import cross, dedup_angles, dot, norm, sub, unit, wrap_angle
from .iktypes import IKQuery, l1_distance, prepare_query, select_candidate
from .optimizer import minimize
from .robots import IDENTITY_ROWS, RobotModel, dh_step, fk_frames, pose_mismatch

_DEDUP_TOL = 1e-9
_SIN_TOL = 1e-9
_TWIN_TOL = 1e-4  # rad: seeds closer than this in every joint are one seed
DEFAULT_V_INIT = (0.0, 0.0, 1.0)


def wrist_target(rows, model: RobotModel) -> tuple:
    """Iteration target, 3 floats: the EE position of the pose's rows minus the flange link."""
    l4 = float(model.link_lengths[3])
    return tuple(p - l4 * z for _, _, z, p in rows)


@lru_cache(maxsize=8)
def make_chain(model: RobotModel) -> fabrik.ChainState:
    """Straight shoulder-elbow-wrist chain along DEFAULT_V_INIT, built by
    `fabrik.straight_chain` once per model and shared by every solve: it
    holds only tuples."""
    elbow_cone = min(math.pi, max(map(abs, model.limit_pairs[3])))
    joints = (fabrik.Ball(), fabrik.Ball(elbow_cone))
    return fabrik.straight_chain(model.shoulder, DEFAULT_V_INIT, model.arm_lengths[1:], joints,
                                 anchor_dir=DEFAULT_V_INIT)


# --- closed-form geometry ---------------------------------------------------

def elbow_position(model: RobotModel, theta1: float, theta2: float) -> tuple:
    l1, l2, _ = model.arm_lengths
    s2 = math.sin(theta2)
    return (l2 * s2 * math.cos(theta1), l2 * s2 * math.sin(theta1), l1 + l2 * math.cos(theta2))


def wrist_analytic(model: RobotModel):
    """The wrist's map, built once per run: theta1-theta4, any sequence of
    4 floats, to the wrist position, 3 floats, and its jacobian, 3 rows of
    4 floats. Joints 5-7 do not move the wrist."""
    l1, l2, l3 = model.arm_lengths

    def position(theta):
        t1, t2, t3, t4 = theta
        c1, s1 = math.cos(t1), math.sin(t1)
        c2, s2 = math.cos(t2), math.sin(t2)
        c3, s3 = math.cos(t3), math.sin(t3)
        c4, s4 = math.cos(t4), math.sin(t4)
        # u: the upper-arm direction, x3: the forearm's lateral axis, entry by entry
        u0, u1, u2 = c1 * s2, s1 * s2, c2
        x30, x31, x32 = c1 * c2 * c3 - s1 * s3, s1 * c2 * c3 + c1 * s3, -s2 * c3
        a, b = l2 + l3 * c4, l3 * s4
        k3, k4 = -l3 * s4, l3 * c4
        p = (0.0 + a * u0 + b * x30, 0.0 + a * u1 + b * x31, l1 + a * u2 + b * x32)
        jac = (
            (a * (-s1 * s2) + b * (-s1 * c2 * c3 - c1 * s3), a * (c1 * c2) + b * (-c1 * s2 * c3),
             b * (-c1 * c2 * s3 - s1 * c3), k3 * u0 + k4 * x30),
            (a * (c1 * s2) + b * (c1 * c2 * c3 - s1 * s3), a * (s1 * c2) + b * (-s1 * s2 * c3),
             b * (-s1 * c2 * s3 + c1 * c3), k3 * u1 + k4 * x31),
            (a * 0.0 + b * 0.0, a * -s2 + b * (-c2 * c3), b * (s2 * s3), k3 * u2 + k4 * x32),
        )
        return p, jac

    return position


# --- angle recovery ---------------------------------------------------------

def bend_magnitudes(p1, p2, p3) -> tuple[float, float]:
    """|theta2| and |theta4| from the shoulder, elbow and wrist positions.

    The bend at a joint is pi minus the interior angle of the triangle
    spanned by its two links (law of cosines on the outer points),
    evaluated in atan2 form on the link directions so near-straight and
    near-folded joints keep full precision. The points may be any
    3-sequences; theta2 is measured from the riser, the origin to p1.
    """
    def bend(u, v):
        return math.atan2(norm(cross(u, v)), dot(u, v))

    upper, fore = sub(p2, p1), sub(p3, p2)
    return bend(p1, upper), bend(upper, fore)


def _signed_options(magnitude: float) -> list[float]:
    if magnitude < _DEDUP_TOL:
        return [0.0]
    return [magnitude, -magnitude]


def theta1_roots(theta2: float, p2) -> list[float]:
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
    return [math.atan2(sign * p2[1], sign * p2[0])]


def theta3_root(theta4: float, local) -> float:
    """theta3 from `local`, the wrist point in frame 2 (x and y suffice).

    In frame 2 the wrist sits at (l3 s4 c3, l3 s4 s3, l2 + l3 c4); the
    two lateral rows give theta3 via atan2. Straight elbow (theta4 ~ 0)
    leaves theta3 free: 0 is used and the spherical wrist absorbs it.
    """
    s4 = math.sin(theta4)
    if abs(s4) < _SIN_TOL:
        return 0.0
    sign = 1.0 if s4 > 0.0 else -1.0
    return math.atan2(sign * local[1], sign * local[0])


def arm_angles(p2, p3, model: RobotModel, azimuths=()):
    """Yield every float tuple (theta1..theta4) placing the elbow at p2
    and the wrist at p3, each with its frame 2 (three float rows).

    Sign branches nest as theta2 sign, theta1 roots (plus `azimuths`),
    theta4 sign, positive branch first. Frame 2 and the wrist point in
    it are computed once per (theta1, theta2) and serve both theta4 signs.
    """
    m2, m4 = bend_magnitudes(model.shoulder, p2, p3)
    row1, row2 = model.dh[:2]
    for th2 in _signed_options(m2):
        for th1 in dedup_angles(theta1_roots(th2, p2) + list(azimuths)):
            t02 = dh_step(dh_step(IDENTITY_ROWS, row1, th1), row2, th2)
            # the wrist point in frame 2: R02^T (p3 - o2)
            (r00, r01, _, ox), (r10, r11, _, oy), (r20, r21, _, oz) = t02
            dx, dy, dz = p3[0] - ox, p3[1] - oy, p3[2] - oz
            local = (r00 * dx + r10 * dy + r20 * dz, r01 * dx + r11 * dy + r21 * dz)
            for th4 in _signed_options(m4):
                yield (th1, th2, theta3_root(th4, local), th4), t02


def wrist_angles(t04, r_des) -> list[tuple[float, float, float]]:
    """(theta5, theta6, theta7) closing the orientation, positive theta6 first.

    t04 and r_des are frame 4 and the desired frame as three rows each,
    of which the first three entries (the rotation) are read. With the
    iiwa DH table the wrist rotation r = R04^T R_des equals
    Rz(theta5) Ry(theta6) Rz(theta7), one exact triple per sign of
    theta6. When sin(theta6) ~ 0 joints 5 and 7 are coaxial; theta5 is
    set to 0 and theta7 carries the twist.
    """
    (a00, a01, a02, *_), (a10, a11, a12, *_), (a20, a21, a22, *_) = t04
    (b00, b01, b02, *_), (b10, b11, b12, *_), (b20, b21, b22, *_) = r_des
    # r[i][j] = column i of R04 dot column j of R_des; r[0][0] and r[0][1] are not read
    r02 = a00 * b02 + a10 * b12 + a20 * b22
    r10 = a01 * b00 + a11 * b10 + a21 * b20
    r11 = a01 * b01 + a11 * b11 + a21 * b21
    r12 = a01 * b02 + a11 * b12 + a21 * b22
    r20 = a02 * b00 + a12 * b10 + a22 * b20
    r21 = a02 * b01 + a12 * b11 + a22 * b21
    r22 = a02 * b02 + a12 * b12 + a22 * b22
    th6 = math.atan2(math.hypot(r02, r12), r22)
    if abs(math.sin(th6)) < _SIN_TOL:
        return [(0.0, th6, math.atan2(r10, r11))]
    return [
        (math.atan2(r12, r02), th6, math.atan2(r21, -r20)),
        (math.atan2(-r12, -r02), -th6, math.atan2(-r21, r20)),
    ]


def recover_candidates(arm, t02, rows, model: RobotModel) -> list[tuple]:
    """The joint vectors, 7-tuples of floats, of one arm of `arm_angles`
    and its frame 2 that close the orientation of the desired pose, given
    as its top three float rows: one per wrist triple, unwrapped. Frame 4
    extends the arm's frame 2 by links 3 and 4."""
    row3, row4 = model.dh[2:4]
    t04 = dh_step(dh_step(t02, row3, arm[2]), row4, arm[3])
    return [(*arm, *wrist) for wrist in wrist_angles(t04, rows)]


def seed_candidates_from_chain(chain: fabrik.ChainState, model: RobotModel) -> list[tuple]:
    """Distinct joint angles 1-4, as float 4-tuples, reproducing the current chain.

    Used to seed the optimizer after a non-converged FABRIK run. The
    bend magnitudes and root equations admit several combinations; all
    are returned, in `arm_angles`' order, because on symmetric
    (target-on-axis) geometry one seed can sit in a basin where the
    descent dies out and a sibling seed does not. `Branch.optimize`
    tries them by L1 distance to the reference.
    """
    p2c, p3c = chain.positions[1], chain.positions[2]

    # also offer the wrist's own lateral azimuth, which aligns the
    # shoulder tilt plane with the chain's actual asymmetry when the
    # elbow sits on the base axis
    azimuths: list[float] = []
    if math.hypot(p3c[0], p3c[1]) > 1e-12:
        az = math.atan2(p3c[1], p3c[0])
        azimuths = [az, wrap_angle(az + math.pi)]
    out: list[tuple] = []
    for theta, _ in arm_angles(p2c, p3c, model, azimuths=azimuths):
        # seeds are starting points, not answers: collapse near-twins,
        # within _TWIN_TOL in every angle
        t1, t2, t3, t4 = theta
        for k1, k2, k3, k4 in out:
            if not (abs(t1 - k1) > _TWIN_TOL or abs(t2 - k2) > _TWIN_TOL
                    or abs(t3 - k3) > _TWIN_TOL or abs(t4 - k4) > _TWIN_TOL):
                break
        else:
            out.append(theta)
    return out


def _lateral(arms, axis) -> tuple | None:
    """Unit component normal to the unit `axis` of the first arm not along it."""
    for w in arms:
        k = dot(w, axis)
        lx, ly, lz = (c - k * a for c, a in zip(w, axis))
        n = math.sqrt(lx * lx + ly * ly + lz * lz)
        if n > 1e-9:
            return (lx / n, ly / n, lz / n)
    return None


def reference_elbow(model: RobotModel, reference_arms, p3) -> tuple | None:
    """Valid elbow position nearest the reference configuration's elbow.

    The elbow self-motion is a circle around the shoulder-to-wrist axis;
    projecting the reference elbow onto it yields the redundancy
    resolution closest to the warm start. `reference_arms` holds the
    reference elbow and wrist relative to the shoulder. None when the
    projection is undefined (a degenerate circle).
    """
    _, l2, l3 = model.arm_lengths
    p1 = model.shoulder
    offset = sub(p3, p1)
    d = norm(offset)
    if d < 1e-12:
        return None
    u = tuple(c / d for c in offset)
    cos_a = (l2 * l2 + d * d - l3 * l3) / (2.0 * l2 * d)
    if abs(cos_a) > 1.0 + 1e-9:
        return None
    cos_a = min(1.0, max(-1.0, cos_a))
    radius = l2 * math.sqrt(max(0.0, 1.0 - cos_a * cos_a))
    if radius < 1e-9:
        return None
    # azimuth cue: reference elbow, then reference wrist, then x and y,
    # so a fully on-axis reference still resolves deterministically
    lateral = _lateral([*reference_arms, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], u)
    if lateral is None:
        return None
    along = l2 * cos_a
    return tuple(p + along * a + radius * w for p, a, w in zip(p1, u, lateral))


class Branch:
    """The one shoulder-elbow-wrist chain, aimed at the wrist target;
    ``start`` is the model's straight chain, as `make_chain` lays it out."""

    fixed = ()  # the branch fixes no joint before its sweeps
    rest = 0.0  # nor bounds the other terms of a distance

    def __init__(self, rows, reference, model: RobotModel):
        self.rows = rows
        self.reference = reference
        self.model = model
        self.target = wrist_target(rows, model)
        self.start = make_chain(model)

    def rest_within(self, eps: float) -> float:  # the target bounds no joint either
        return self.rest

    @cached_property
    def bend_axis(self) -> tuple | None:
        """The axis that re-bends the optimizer's seed toward theta_init,
        from the reference elbow's lateral direction (then the wrist's;
        None when the reference is on the DEFAULT_V_INIT line): targets on
        that line leave the fold free, and the bias keeps picks continuous
        under warm starts."""
        lateral = _lateral(self.reference_arms, DEFAULT_V_INIT)
        return None if lateral is None else unit(cross(DEFAULT_V_INIT, lateral))

    @cached_property
    def reference_arms(self) -> list[tuple]:
        """The reference elbow and wrist relative to the shoulder: the
        one FK of the reference per solve, up to the wrist frame 5."""
        frames = fk_frames(self.model, self.reference[:5])
        return [sub([r[3] for r in frames[k]], self.model.shoulder) for k in (3, 5)]

    def from_chain(self, chain: fabrik.ChainState):
        return chain.positions[1], chain.positions[2]

    def optimize(self, seed_chain: fabrik.ChainState, stop: float):
        model = self.model
        position = wrist_analytic(model)
        bounds = model.optimizer_box[:4]
        # try the seed closest to the reference configuration first:
        # on degenerate (target-on-axis) geometry several seeds converge
        # to mirror folds, and the warm-start fold keeps tracking
        # trajectories continuous
        seeds = seed_candidates_from_chain(seed_chain, model)
        seeds.sort(key=partial(l1_distance, b=self.reference[:4]))
        results = []
        for seed in seeds[:12]:
            results.append(minimize(position, self.target, seed, bounds, stop))
            if results[-1].f <= stop:
                th = results[-1].x
                p3, _ = position(th)
                return results, (elbow_position(model, th[0], th[1]), p3)
        return results, None

    def arms(self, reduced):
        """(arm, frame 2) of every arm of `arm_angles`, for the reduced
        chain's elbow, then for the feasible elbow nearest the reference
        configuration.

        The arm is redundant; the second elbow keeps warm-started
        trajectories on their fold.
        """
        p2, p3 = reduced
        elbows = [p2]
        p2_ref = reference_elbow(self.model, self.reference_arms, p3)
        if p2_ref is not None and max(abs(a - b) for a, b in zip(p2_ref, p2)) > 1e-9:
            elbows.append(p2_ref)
        for elbow in elbows:
            yield from arm_angles(elbow, p3, self.model)

    def candidates(self, reduced):
        """One group per arm of `arms`, whose pairs are its theta1-theta4:
        the first terms of each candidate's distance, known before frame 4
        and the wrist triples. The wrist closes the orientation exactly at
        the achieved wrist point."""
        return [
            (enumerate(arm), partial(recover_candidates, arm, t02, self.rows, self.model))
            for arm, t02 in self.arms(reduced)
        ]


def branches(rows, reference, model: RobotModel) -> list[Branch]:
    """The one branch: the wrist chain."""
    return [Branch(rows, reference, model)]


def solve_detailed(query: IKQuery, model: RobotModel):
    """Run the pipeline on the wrist chain; returns (IKResult, SolveDetail)."""
    return pipeline.solve(query, model, branches, prepare_query, select_candidate, pose_mismatch)
