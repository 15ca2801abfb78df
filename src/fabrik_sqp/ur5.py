"""Combined FABRIK + box-SQP inverse kinematics for the UR5.

theta1 fixes a vertical working plane, the wrist links are peeled off
analytically, and FABRIK (with the optimizer as fallback) solves the
planar joint pair (theta2, theta3) that places the elbow chain at the
projected wrist target, once `fabrik.within_reach` puts that target
within eps of the annulus the forearm tip sweeps. Since neither the sign
of theta1 nor the wrist-link direction can be determined up front, four
branches are enumerated. Joints 2-4 are parallel, so theta2 + theta3 +
theta4, theta5 and theta6 are solved once per branch, before any sweep,
and each fold of the elbow chain sets theta4 to close that sum (Hawkins
2013). So theta1, theta5 and theta6, plus the circular distance of that
sum from the reference's, bound each branch's L1 distance to theta_init
from below, and the pipeline solves the branches nearest-first, skipping
those that cannot win. Every candidate is exact, the wrist singularity
included; the returned vector is the candidate within the joint limits
closest to theta_init in L1 norm, after one pose check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import fabrik, pipeline
from .geometry import cross, dedup_angles, dot, signed_angle, unit, wrap_angle
from .iktypes import IKQuery, prepare_query, select_candidate
from .optimizer import OptResult, minimize
from .robots import RobotModel, fk_frames, pose_mismatch

_DEGENERATE_WRIST_TOL = 1e-8
REST_MARGIN = 1e-12  # rad: far above the rounding of a candidate's theta2-theta4 and of its L1 sum


def wrist_position(rows, model: RobotModel) -> tuple:
    """Wrist point, 3 floats: the EE position of the pose's rows minus the flange link."""
    l6 = float(model.link_lengths[5])
    return tuple(p - l6 * z for _, _, z, p in rows)


def theta1_candidates(p_w, model: RobotModel) -> list[float]:
    """Both base-rotation solutions placing the wrist on its offset cylinder.

    Empty when the wrist lies inside the lateral-offset cylinder (the
    pose is unreachable). The two values coincide on the cylinder
    boundary.
    """
    l4 = float(model.link_lengths[3])
    rho = math.hypot(p_w[0], p_w[1])
    if rho < l4:
        return []
    half = math.acos(min(1.0, l4 / rho))
    base = math.pi / 2 + math.atan2(p_w[1], p_w[0])
    return [wrap_angle(half + base), wrap_angle(-half + base)]


@dataclass(eq=False)
class PlanarFrame:
    """Geometry of the working plane selected by one theta1 value, as
    `planar_frame` builds it; every vector a float 3-tuple."""

    theta1: float
    z2d: tuple  # plane normal (axis of joints 2-4)
    v_init: tuple  # initial chain direction (zero-pose arm direction)
    l6d: tuple  # desired flange-link direction
    p_w_proj: tuple  # wrist projected into the plane
    l5d_options: tuple  # candidate wrist-riser directions (+, -)
    t03: tuple  # frame 3 at (theta1, 0, 0), as `fk_frames` gives it
    model: RobotModel = field(repr=False)

    @cached_property
    def start(self) -> fabrik.ChainState:
        """The chain both risers' sweeps start from: laid out straight
        when a branch of the plane is first solved, then shared."""
        return make_chain(self, self.model)


def planar_frame(theta1: float, rows, p_w, model: RobotModel) -> PlanarFrame:
    s1, c1 = math.sin(theta1), math.cos(theta1)
    z2d = (s1, -c1, 0.0)
    v_init = (-c1, -s1, 0.0)
    (_, y0, z0, _), (_, y1, z1, _), (_, y2, z2, _) = rows
    l6d = unit((z0, z1, z2))
    k = dot(z2d, p_w)
    p_w_proj = (p_w[0] - k * s1, p_w[1] + k * c1, p_w[2])
    rx, ry, rz = cross(z2d, l6d)
    n = math.sqrt(rx * rx + ry * ry + rz * rz)
    # tool axis along the plane normal (the wrist singularity, theta5 = 0
    # or pi): every riser in the plane closes the orientation, theta6
    # taking up the twist; the tool-frame -y direction is one of them
    base = (-y0, -y1, -y2) if n < _DEGENERATE_WRIST_TOL else (rx / n, ry / n, rz / n)
    t03 = fk_frames(model, (theta1, 0.0, 0.0))[-1]
    return PlanarFrame(theta1, z2d, v_init, l6d, p_w_proj, (base, _negated(base)), t03, model)


def _negated(v) -> tuple:
    return (-v[0], -v[1], -v[2])


def iteration_target(frame: PlanarFrame, l5d, model: RobotModel) -> tuple:
    l5 = float(model.link_lengths[4])
    return tuple(p - l5 * d for p, d in zip(frame.p_w_proj, l5d))


@lru_cache(maxsize=8)
def _plane_chain(model: RobotModel) -> fabrik.ChainState:
    """What every plane's chain shares, set once per model: its base, links,
    reach and can-clamp flags, laid out along x with both hinges about z."""
    joints = tuple(fabrik.Hinge((0.0, 0.0, 1.0), *model.limit_pairs[k]) for k in (1, 2))
    return fabrik.lay_out_chain(model.shoulder, (1.0, 0.0, 0.0), model.arm_lengths[1:], joints)


def make_chain(frame: PlanarFrame, model: RobotModel) -> fabrik.ChainState:
    """Two-link elbow chain in the working plane, laid out straight along
    v_init from the links the model checked (`robots.LAYOUT_MARGIN`
    covers every plane), as `fabrik.lay_out_chain` lays it out. Both
    hinges turn about the plane normal, normalized once."""
    return fabrik.relaid(_plane_chain(model), unit(frame.v_init), unit(frame.z2d))


def elbow_analytic(theta1: float, model: RobotModel):
    """The forearm tip's map in theta1's plane, built once per run: x =
    (theta2, theta3) to the tip, 3 floats, and its jacobian, 3 rows of 2
    floats."""
    l1, l2, l3 = model.arm_lengths
    c1, s1 = math.cos(theta1), math.sin(theta1)
    nc1, ns1, nl3 = -c1, -s1, -l3

    def position(x):
        th2, th3 = x
        c2, s2 = math.cos(th2), math.sin(th2)
        c23, s23 = math.cos(th2 + th3), math.sin(th2 + th3)
        r = l2 * c2 + l3 * c23
        w = l2 * s2 + l3 * s23
        # d(r, z)/dtheta2 = (-w, -r) for z = l1 - w; -w rounds as -l2 * s2 - l3 * s23 does
        dr3, dz3 = nl3 * s23, nl3 * c23
        jac = ((nc1 * -w, nc1 * dr3), (ns1 * -w, ns1 * dr3), (-r, dz3))
        return (nc1 * r, ns1 * r, l1 - w), jac

    return position


def elbow_optimize(theta1: float, target, seeds: tuple[float, float], model: RobotModel, bounds,
                   stop_value: float) -> tuple[OptResult, tuple | None]:
    """Optimize (theta2, theta3) in `bounds`, two (lo, hi) rows: the run and
    its x as floats, or None in place of x above the stop value. The
    pipeline hands it only targets that `fabrik.within_reach` passes."""
    result = minimize(elbow_analytic(theta1, model), target, seeds, bounds, stop_value)
    return result, None if result.f > stop_value else result.x


def fold_variants(theta2: float, theta3: float, model: RobotModel) -> list[tuple[float, float]]:
    """The chain's fold plus its elbow-up/down mirror.

    A planar two-link chain reaching a point admits two folds; the
    iteration produces one, and the mirror (links reflected across the
    base-to-end line) reaches the same point. Enumerating both lets the
    closest-to-reference selection pick either. The mirror turns the
    upper arm by twice the angle between it and the base-to-end line.
    """
    _, l2, l3 = model.arm_lengths
    turn = 2.0 * math.atan2(l3 * math.sin(theta3), l2 + l3 * math.cos(theta3))
    if abs(turn) <= 1e-9:
        return [(theta2, theta3)]
    return [(theta2, theta3), (theta2 + turn, -theta3)]


def wrist_x_axis(t03, theta234: float, theta5: float, model: RobotModel) -> list:
    """Column 0 of `dh_step(dh_step(t03, row4, theta234), row5, theta5)`,
    frame 5's x axis, from frame 3 t03 by dh_step's own products: it
    reads only frame 4's columns 0 and 1 (u and w ca + r2 sa there)."""
    row4, row5 = model.dh[3:5]
    th4, th5 = theta234 + row4.theta_offset, theta5 + row5.theta_offset
    c4, s4, c5, s5 = math.cos(th4), math.sin(th4), math.cos(th5), math.sin(th5)
    ca, sa = row4.cos_alpha, row4.sin_alpha
    return [(r0 * c4 + r1 * s4) * c5 + ((r1 * c4 - r0 * s4) * ca + r2 * sa) * s5
            for r0, r1, r2, _ in t03]


def wrist_angles(frame: PlanarFrame, l5d, rows, model: RobotModel) -> tuple[float, float, float]:
    """(theta2 + theta3 + theta4, theta5, theta6), shared by every
    (theta2, theta3) of the branch: the wrist rotation depends on joints
    2-4 only through their sum. theta6 turns frame 5's x axis
    (`wrist_x_axis`) onto the pose's about the flange link."""
    theta234 = signed_angle(frame.v_init, l5d, frame.z2d) - math.pi / 2
    theta5 = signed_angle(frame.z2d, frame.l6d, l5d)
    x5 = wrist_x_axis(frame.t03, theta234, theta5, model)
    return theta234, theta5, signed_angle(x5, [r[0] for r in rows], frame.l6d)


def recover_angles(theta1: float, theta2: float, theta3: float, wrist) -> tuple:
    """All six joint angles of one fold as floats, unwrapped; theta4
    closes the branch's sum."""
    theta234, theta5, theta6 = wrist
    return theta1, theta2, theta3, theta234 - theta2 - theta3, theta5, theta6


class Branch:
    """One (theta1, wrist-riser) branch. Its wrist is solved when it is
    built, so theta1, theta5 and theta6 of every candidate are known
    before any sweep: they are its ``fixed`` pairs. So is theta234, to
    which the wrapped theta2, theta3 and theta4 of every candidate, w2,
    w3 and w4, sum modulo 2 pi. For a reference r whose r2 + r3 + r4 is
    `r234`, |w2 - r2| + |w3 - r3| + |w4 - r4| is thus at least the
    circular distance from theta234 to r234, under any limits; that
    distance less REST_MARGIN is its ``rest``. ``start`` is its plane's
    straight chain, and ``bend_axis`` re-bends the optimizer's seed
    toward the reference fold."""

    def __init__(self, frame: PlanarFrame, l5d, rows, bend_axis, model, r234: float = 0.0):
        self.frame = frame
        self.l5d = l5d
        self.bend_axis = bend_axis
        self.model = model
        self.target = iteration_target(frame, l5d, model)
        self.wrist = wrist_angles(frame, l5d, rows, model)
        self.fixed = ((0, frame.theta1), (4, self.wrist[1]), (5, self.wrist[2]))
        self.rest = abs(wrap_angle(self.wrist[0] - r234)) - REST_MARGIN

    @property
    def start(self) -> fabrik.ChainState:
        return self.frame.start

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
            self.model.optimizer_box[1:3],
            stop,
        )
        return [result], pair

    def candidates(self, reduced):
        """One group, with no pairs of its own (``fixed`` has bounded it
        already): the joint vectors of every fold of (theta2, theta3)."""
        return [((), lambda: [
            recover_angles(self.frame.theta1, *fold, self.wrist)
            for fold in fold_variants(*reduced, self.model)
        ])]


def branches(rows, reference, model: RobotModel):
    """The two wrist-riser branches of each distinct theta1 candidate of
    the pose's top three float rows; both share their plane's start chain
    and its re-bend axis, the plane normal signed by the reference's
    theta3."""
    p_w = wrist_position(rows, model)
    r234 = reference[1] + reference[2] + reference[3]
    for theta1 in dedup_angles(theta1_candidates(p_w, model)):
        frame = planar_frame(theta1, rows, p_w, model)
        axis = frame.z2d if reference[2] >= 0.0 else _negated(frame.z2d)
        for l5d in frame.l5d_options:
            yield Branch(frame, l5d, rows, axis, model, r234)


def solve_detailed(query: IKQuery, model: RobotModel):
    """Run the pipeline over every branch; returns (IKResult, SolveDetail)."""
    return pipeline.solve(query, model, branches, prepare_query, select_candidate, pose_mismatch)
