"""Joint-limited FABRIK iteration for serial chains.

A chain is an ordered list of joint positions P_1..P_m with fixed link
lengths. One sweep is a forward phase (re-anchor the end at the target,
pull the chain tip-to-base) followed by a backward phase (re-anchor the
base, push base-to-tip). Both phases are one reach step, `_reach`, run
from opposite ends. Each point update is a convex blend that preserves
the link length; when the angle at the joint next to the point being
placed violates its limit, the retained point is pre-rotated about the
joint axis by the excess before blending.

Joint angles are measured between consecutive link directions in
base-to-tip orientation, so both phases clamp the same physical
interval. Hinges carry a fixed world axis; ball joints use the cross
product of the adjacent link directions as the correction axis and a
cone half-angle as the limit.

A chain's links are checked once, where they come from: `RobotModel`
checks the links of both robots' reduced chains when the model is built,
and `straight_chain` checks every other chain (the CLI's, the demos'),
including a minimum link length well above the sweeps' 1e-12 coincidence
scale, a maximum reach that keeps their squares finite and a lay-out
that keeps every link. The reductions lay their chains out with
`lay_out_chain`, the same arithmetic without the checks; the sweeps,
`pre_bend` and the full-extension shortcut trust the chain and only move
its points, (x, y, z) float rows from lay-out to recovery; the constants
set where it is laid out ride along. `solve` measures every distance on
one scratch 3-vector that it rewrites in place, and builds its
outcome's chain once.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .geometry import (
    clamped_arccos,
    cross,
    norm,
    perpendicular_axis,
    rotate_about_axis,
    signed_angle,
    unit,
)

_FULL = math.pi
PRE_BEND = 1e-3  # bend per joint that pre_bend gives a straight chain (rad)
COLLINEAR_TOL = 1e-6  # largest angle between links that pre_bend treats as straight (rad)
# The sweeps treat points closer than 1e-12 as coincident, and `unit`
# refuses shorter vectors; links must stay well above that scale.
MIN_LINK_LENGTH = 1e-9  # m
# The sweeps square distances of up to twice the reach; keep them finite.
MAX_CHAIN_REACH = 1e150  # m
# The stretched chain's distance to a target beyond its reach is squared too.
MAX_TARGET_GAP = 1e154  # m


@dataclass(frozen=True)
class Hinge:
    """1-DOF joint about a fixed world axis with signed limits."""

    axis: np.ndarray
    lo: float = -math.pi
    hi: float = math.pi

    def __post_init__(self):
        object.__setattr__(self, "axis", unit(self.axis))
        if not self.lo < self.hi:  # NaN fails too
            raise ValueError("hinge limits must satisfy lo < hi")

    @property
    def unconstrained(self) -> bool:
        return self.lo <= -_FULL and self.hi >= _FULL


@dataclass(frozen=True)
class Ball:
    """3-DOF joint limited by a cone half-angle (pi = unconstrained)."""

    max_angle: float = math.pi

    def __post_init__(self):
        if not self.max_angle >= 0.0:  # NaN fails too
            raise ValueError("ball cone half-angle max_angle must be at least 0")

    @property
    def unconstrained(self) -> bool:
        return self.max_angle >= _FULL


@dataclass(frozen=True)
class ChainState:
    """Joint positions P_1..P_m plus link lengths and per-joint limits.

    joints[j] sits at positions[j] (j = 0..m-2); joints[0] is the base
    joint whose reference direction is anchor_dir (the fixed link feeding
    the chain), or unconstrained when anchor_dir is None. Points, base
    and lengths are float tuples; anchor_dir, a BLAS operand, is an
    ndarray. The sweeps trust a chain laid out from checked links, whose
    builder set its reach and can_clamp once (see the module docstring).
    """

    positions: tuple  # m (x, y, z) float rows
    lengths: tuple  # m-1 positive floats
    joints: tuple  # one joint per link
    base: tuple  # (x, y, z) floats, the fixed location of P_1
    reach: float  # the summed lengths, as np.sum adds them
    can_clamp: tuple  # per joint: not `unconstrained`
    anchor_dir: np.ndarray | None = None  # unit

    @property
    def end(self) -> tuple:
        return self.positions[-1]

    def link_directions(self) -> np.ndarray:
        """Unit link directions, as `np.diff` over `np.linalg.norm(axis=1)`
        rounds them (its three-term sum runs left to right)."""
        out = []
        for (ax, ay, az), (bx, by, bz) in zip(self.positions, self.positions[1:]):
            dx, dy, dz = bx - ax, by - ay, bz - az
            n = math.sqrt((dx * dx + dy * dy) + dz * dz)
            out.append((dx / n, dy / n, dz / n))
        return np.array(out)

    def moved(self, rows) -> ChainState:
        """This chain with its points at `rows`, (x, y, z) float rows."""
        return ChainState(tuple(rows), self.lengths, self.joints, self.base,
                          self.reach, self.can_clamp, self.anchor_dir)


def _lay_out(base: tuple, direction, lengths) -> tuple:
    """base + c * direction for c = 0 and each running sum of the lengths,
    as (x, y, z) float rows: `np.outer` of `np.cumsum`, which adds left to
    right, rounds each entry alike."""
    (bx, by, bz), (dx, dy, dz) = base, direction.tolist()
    return tuple((bx + c * dx, by + c * dy, bz + c * dz) for c in accumulate((0.0, *lengths)))


def _laid_out(base, direction, lengths, joints, anchor_dir) -> ChainState:
    """The chain laid straight from the base ndarray along the unit
    direction, its constants set once: the lengths and base as floats,
    their `np.sum` as its reach and each joint's can-clamp flag."""
    base, rows, joints = tuple(base.tolist()), tuple(lengths.tolist()), tuple(joints)
    can_clamp = tuple(not joint.unconstrained for joint in joints)
    return ChainState(_lay_out(base, direction, rows), rows, joints, base,
                      float(np.sum(lengths)), can_clamp, anchor_dir)


def lay_out_chain(base, direction, lengths, joints) -> ChainState:
    """The chain of `straight_chain` without its checks, anchored along its
    own direction, for links checked where they were built
    (`robots.RobotModel`): base and lengths are float ndarrays; the
    direction is normalized here."""
    direction = unit(direction)
    return _laid_out(base, direction, lengths, joints, direction)


def straight_chain(base, direction, lengths, joints, anchor_dir=None) -> ChainState:
    """Chain laid out straight from base along a direction, checked.

    Lengths of at least MIN_LINK_LENGTH summing to at most
    MAX_CHAIN_REACH, one per joint; non-zero, finite 3-vector direction
    and anchor_dir (both normalized); laid-out links that keep their
    lengths to 1e-9 relative, which rejects a link that rounding absorbs
    into the coordinates before it.
    """
    base = np.asarray(base, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or lengths.size < 1:
        raise ValueError("link lengths must be a non-empty list of numbers")
    if not np.all(lengths >= MIN_LINK_LENGTH):
        raise ValueError(f"a link is too short: every length must be at least {MIN_LINK_LENGTH:g}")
    # the maximum first: fsum overflows on links near the float range
    if lengths.max() > MAX_CHAIN_REACH or math.fsum(lengths) > MAX_CHAIN_REACH:
        raise ValueError(f"the chain's reach (its summed links) must be at most {MAX_CHAIN_REACH:g} m")
    if len(joints) != lengths.size:
        raise ValueError("need one joint per link")
    if base.shape != (3,) or np.shape(direction) != (3,):
        raise ValueError("base and direction must be 3-vectors")
    direction = unit(direction)
    anchor = None if anchor_dir is None else unit(anchor_dir)
    chain = _laid_out(base, direction, lengths, joints, anchor)
    laid = np.linalg.norm(np.diff(chain.positions, axis=0), axis=1)
    if not np.all(np.abs(laid - lengths) <= 1e-9 * lengths):
        raise ValueError("a link is too short to lay out at this base")
    return chain


def ball_joint_axis(l_in, l_out) -> np.ndarray:
    """Correction axis of a ball joint: normalized cross of the unit link
    directions entering and leaving it.

    Falls back to a deterministic perpendicular of the incoming link when
    the links are collinear.
    """
    c = cross(l_in, l_out)
    n = norm(c)
    if n < 1e-9:
        return perpendicular_axis(l_in)
    return c / n


def _limit_correction(l_in, l_out, joint):
    """(delta, axis) needed to clamp the joint angle, or None when legal.

    l_in/l_out are the unit link directions entering and leaving the
    joint, in base-to-tip orientation. The sweeps call it only for a
    joint that can clamp (not `unconstrained`).
    """
    if isinstance(joint, Hinge):
        phi = signed_angle(l_in, l_out, joint.axis)
        # the excess that lands phi inside [lo, hi]; the Hinge checked
        # lo < hi when it was built
        delta = min(max(phi, joint.lo), joint.hi) - phi
        if delta == 0.0:
            return None
        return delta, joint.axis
    # ball joint: bend angle is non-negative, only the cone bound applies
    phi = clamped_arccos(float(np.dot(l_in, l_out)))
    if phi <= joint.max_angle:
        return None
    return joint.max_angle - phi, ball_joint_axis(l_in, l_out)


def _reach(chain: ChainState, positions: tuple | list, start: tuple, tip_first: bool, v) -> list:
    """One reaching phase on a sequence of (x, y, z) float rows, never mutated; returns a new list.

    Pins the first point of the traversal (the tip when tip_first, else
    the base) at start, then pulls each next point onto its link from
    the pivot placed just before it. A point that coincides with its
    pivot extends straight past the link placed before the pivot, or
    along the anchor, or along its old link. Joint angles are measured
    base-to-tip, so the tip-first pass hands `_limit_correction` the
    negated link directions and turns the retained point the other way;
    both negations are exact. A point's distance from its pivot is the
    `norm` of its offset, written into the caller's scratch 3-vector `v`
    (the phase's own: nothing keeps it); the coincident and limit-clamp
    cases take each link direction as the `unit` of an `np.subtract`.
    """
    m = len(positions)
    step, first = (-1, m - 1) if tip_first else (1, 0)
    # the direction entering the first pivot: the anchor when the base
    # is pinned; the tip has no joint
    entry = None if tip_first else chain.anchor_dir
    lengths, can_clamp = chain.lengths, chain.can_clamp
    q = list(positions)
    q[first] = start
    for i in range(first + step, first + m * step, step):
        p = i - step  # the pivot
        x, y, z = q[p]
        ox, oy, oz = positions[i]
        vx, vy, vz = ox - x, oy - y, oz - z
        v[0], v[1], v[2] = vx, vy, vz
        d = math.sqrt(v.dot(v))  # `norm(v)`
        length = lengths[i if tip_first else p]
        if d < 1e-12 or ((p != first or entry is not None) and can_clamp[p]):
            back = unit(np.subtract(q[p], q[p - step])) if p != first else entry
            if d < 1e-12:
                # coincident points: extend straight past the pivot
                if back is None:
                    back = unit(np.subtract(positions[i], positions[p]))
                bx, by, bz = back.tolist()
                q[i] = (x + length * bx, y + length * by, z + length * bz)
                continue
            if tip_first:
                corr = _limit_correction(-v / d, -back, chain.joints[p])
            else:
                corr = _limit_correction(back, v / d, chain.joints[p])
            if corr is not None:
                delta, axis = corr
                vx, vy, vz = rotate_about_axis(axis, -delta if tip_first else delta, v).tolist()
        # pivot + (length / d) * v, rounded alike in Python floats
        s = length / d
        q[i] = (x + s * vx, y + s * vy, z + s * vz)
    return q


def forward_phase(chain: ChainState, target) -> ChainState:
    """Anchor the end at the target and pull the chain tip-to-base."""
    tip = tuple(np.asarray(target, dtype=float).tolist())
    return chain.moved(_reach(chain, chain.positions, tip, True, np.empty(3)))


def backward_phase(chain: ChainState) -> ChainState:
    """Anchor the base and push the chain base-to-tip."""
    return chain.moved(_reach(chain, chain.positions, chain.base, False, np.empty(3)))


def pre_bend(chain: ChainState, axis=None) -> ChainState:
    """Break an all-collinear chain with a small fixed bend per joint.

    Straight chains can cycle endlessly under the convex updates (and
    park optimizer seeds on the straight-arm stationary ridge); bending
    each interior joint by PRE_BEND removes the degenerate configuration.
    Links are collinear when every pair is within COLLINEAR_TOL radians.
    The bend axis may be supplied by the caller (it resolves which way a
    degenerate, on-axis problem folds); otherwise the first hinge axis
    is used, so hinge chains stay in their working plane, and ball
    chains fall back to a deterministic perpendicular.
    Non-collinear chains are returned unchanged.
    """
    if len(chain.positions) < 3:
        return chain
    dirs = chain.link_directions()
    n_links = dirs.shape[0]
    for i in range(n_links):
        for j in range(i + 1, n_links):
            if clamped_arccos(float(np.dot(dirs[i], dirs[j]))) >= COLLINEAR_TOL:
                return chain
    if axis is None:
        for joint in chain.joints:
            if isinstance(joint, Hinge):
                axis = joint.axis
                break
    if axis is None:
        axis = perpendicular_axis(dirs[0])
    else:
        axis = unit(axis)
    # q[k + 1] = q[k] + length * direction, on Python floats
    q = list(chain.positions)
    lengths = chain.lengths
    for k in range(1, n_links):
        dx, dy, dz = rotate_about_axis(axis, k * PRE_BEND, dirs[0]).tolist()
        x, y, z = q[k]
        q[k + 1] = (x + lengths[k] * dx, y + lengths[k] * dy, z + lengths[k] * dz)
    return chain.moved(q)


@dataclass(frozen=True)
class FabrikOutcome:
    converged: bool
    iterations: int  # full forward+backward sweeps
    dist: float  # end-to-target distance after the last sweep
    chain: ChainState
    trace: tuple = ()  # ((n, dist), ...), one entry per sweep


def check_tolerance(value, name: str) -> float:
    """A tolerance as a float: a real number (not a bool), positive and finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not a bool")
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


def check_integer(value, name: str, least: int) -> int:
    """value as an int of at least `least`; any integer type (np.int64
    too) but a bool passes, anything else is a ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not a bool")
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if number < least:
        raise ValueError(f"{name} must be at least {least}")
    return number


def check_cap(value, name: str) -> int:
    """A sweep cap: an integer of at least 1 (see `check_integer`)."""
    return check_integer(value, name, 1)


def within_reach(chain: ChainState, target) -> bool:
    """The one reach rule: target within the chain's reach of its base,
    with one ulp of slack, so on-sphere targets do not flip on the rounding
    of the gap (math.dist scales its sum: no overflow); a NaN gap is out."""
    return math.dist(target, chain.base) <= chain.reach * (1.0 + 1e-12)


def solve(chain: ChainState, target, eps_tol: float, iter_cap: int) -> FabrikOutcome:
    """Iterate forward/backward sweeps until dist <= eps_tol or the cap.

    A target on or beyond the reach sphere (within fp noise) gets the
    chain laid straight toward it in one sweep, FABRIK's out-of-reach
    case; callers that refuse such targets ask `within_reach` first. A
    non-finite target, or one more than MAX_TARGET_GAP from the base,
    raises ValueError. The sweeps run on float rows and write every
    distance's offset into one scratch 3-vector; the outcome's chain is
    built once, on return.
    """
    eps_tol = check_tolerance(eps_tol, "eps_tol")
    iter_cap = check_cap(iter_cap, "iter_cap")
    target = np.asarray(target, dtype=float)
    tip, base = tuple(target.tolist()), chain.base
    gap = math.dist(tip, base)
    if not gap <= MAX_TARGET_GAP:  # NaN and inf fail too
        raise ValueError(f"target must be finite and within {MAX_TARGET_GAP:g} m of the base")
    reach = chain.reach
    if reach - gap <= 1e-12 * reach and gap > 0.0:
        # full-extension or out-of-reach target: the straight chain is the
        # unique solution, or the closest the chain gets
        direction = unit((target - base) / gap)
        stretched = chain.moved(_lay_out(base, direction, chain.lengths))
        dist = norm(stretched.end - target)
        return FabrikOutcome(dist <= eps_tol, 1, dist, stretched, ((1, dist),))

    dist = norm(chain.end - target)
    if dist <= eps_tol:
        return FabrikOutcome(True, 0, dist, chain)
    q = chain.positions
    tx, ty, tz = tip
    v = np.empty(3)  # the scratch 3-vector of every norm below
    trace = []
    n = 0
    while n < iter_cap:
        q = _reach(chain, _reach(chain, q, tip, True, v), base, False, v)
        n += 1
        x, y, z = q[-1]
        v[0], v[1], v[2] = x - tx, y - ty, z - tz
        dist = math.sqrt(v.dot(v))  # `norm(q[-1] - target)`
        trace.append((n, dist))
        if dist <= eps_tol:
            break
    return FabrikOutcome(dist <= eps_tol, n, dist, chain.moved(q), tuple(trace))
