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
that keeps every link. The reductions lay their chains out straight
with `lay_out_chain`, the same arithmetic without the checks (the UR5
lays its chain out once per model and `relaid` turns it into each
working plane), and the sweeps start from them as laid out: the forward phase pins the tip at
the target, so only `solve`'s zero-sweep test and `_reach`'s
coincident-point rule read a two-link start's tip. The sweeps,
`pre_bend` and the full-extension shortcut trust the chain and only
move its points, (x, y, z) float rows from lay-out to recovery; the
constants set where it is laid out ride along. Every vector is a float
3-tuple (see the `geometry` docstring). Reach is decided once, before
any sweep: `within_reach` asks for the target within the solve's
tolerance of the shell the chain's end sweeps.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .geometry import (
    clamped_arccos,
    cross,
    dot,
    norm,
    perpendicular_axis,
    rotate_about_axis,
    signed_angle,
    sub,
    unit,
)

_FULL = math.pi
PRE_BEND = 1e-3  # bend per joint that pre_bend gives a degenerate chain (rad)
COLLINEAR_TOL = 1e-6  # largest angle off (anti-)parallel that pre_bend treats as degenerate (rad)
# The sweeps treat points closer than 1e-12 as coincident, and `unit`
# refuses shorter vectors; links must stay well above that scale.
MIN_LINK_LENGTH = 1e-9  # m
# The sweeps square distances of up to twice the reach; keep them finite.
MAX_CHAIN_REACH = 1e150  # m
# The stretched chain's distance to a target beyond its reach is squared too.
MAX_TARGET_GAP = 1e154  # m


class Hinge(NamedTuple("_Hinge", [("axis", tuple), ("lo", float), ("hi", float)])):
    """1-DOF joint about a fixed world axis, a unit float 3-tuple, with signed limits."""

    __slots__ = ()

    def __new__(cls, axis, lo: float = -math.pi, hi: float = math.pi):
        axis = unit(axis)
        if not lo < hi:  # NaN fails too
            raise ValueError("hinge limits must satisfy lo < hi")
        return super().__new__(cls, axis, lo, hi)

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


class ChainState(NamedTuple):
    """Joint positions P_1..P_m plus link lengths and per-joint limits.

    joints[j] sits at positions[j] (j = 0..m-2); joints[0] is the base
    joint whose reference direction is anchor_dir (the fixed link feeding
    the chain), or unconstrained when anchor_dir is None. Points, base,
    lengths and anchor_dir are float tuples. The sweeps trust a chain
    laid out from checked links, whose builder set its reach and
    can_clamp once (see the module docstring). A named tuple, so it is
    immutable and cheap to build: one chain can be shared by every solve.
    """

    positions: tuple  # m (x, y, z) float rows
    lengths: tuple  # m-1 positive floats
    joints: tuple  # one joint per link
    base: tuple  # (x, y, z) floats, the fixed location of P_1
    reach: float  # the summed lengths, correctly rounded
    can_clamp: tuple  # per joint: not `unconstrained`
    anchor_dir: tuple | None = None  # unit

    @property
    def end(self) -> tuple:
        return self.positions[-1]

    def link_directions(self) -> tuple:
        """Unit link directions, as float 3-tuples."""
        return tuple(map(_direction, self.positions, self.positions[1:]))

    def moved(self, rows) -> ChainState:
        """This chain with its points at `rows`, (x, y, z) float rows."""
        return ChainState(tuple(rows), self.lengths, self.joints, self.base,
                          self.reach, self.can_clamp, self.anchor_dir)


def _direction(a, b) -> tuple:
    """The unit direction from point a to point b."""
    dx, dy, dz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    n = math.sqrt(dx * dx + dy * dy + dz * dz)
    return (dx / n, dy / n, dz / n)


def _lay_out(base: tuple, direction: tuple, lengths) -> tuple:
    """base + c * direction for c = 0 and each running sum of the
    lengths, added left to right, as (x, y, z) float rows."""
    (bx, by, bz), (dx, dy, dz) = base, direction
    return tuple((bx + c * dx, by + c * dy, bz + c * dz) for c in accumulate((0.0, *lengths)))


def _laid_out(base, direction, lengths, joints, anchor_dir) -> ChainState:
    """The chain laid straight from base along the unit direction, its
    constants set once: the lengths and base as floats, their `fsum` as
    its reach and each joint's can-clamp flag."""
    base, rows, joints = tuple(map(float, base)), tuple(map(float, lengths)), tuple(joints)
    can_clamp = tuple(not joint.unconstrained for joint in joints)
    return ChainState(_lay_out(base, direction, rows), rows, joints, base, math.fsum(rows),
                      can_clamp, anchor_dir)


def relaid(chain: ChainState, direction: tuple, axis: tuple) -> ChainState:
    """A hinge chain laid out again as `lay_out_chain` lays it, along the unit
    `direction`, its hinges turned about the unit `axis`: its constants carry over."""
    joints = tuple(Hinge._make((axis, joint.lo, joint.hi)) for joint in chain.joints)
    return ChainState(_lay_out(chain.base, direction, chain.lengths), chain.lengths, joints,
                      chain.base, chain.reach, chain.can_clamp, direction)


def lay_out_chain(base, direction, lengths, joints) -> ChainState:
    """The chain of `straight_chain` without its checks, anchored along its
    own direction, for links checked where they were built
    (`robots.RobotModel`): base, direction and lengths are sequences of
    floats; the direction is normalized here."""
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


def ball_joint_axis(l_in, l_out) -> tuple:
    """Correction axis of a ball joint: normalized cross of the unit link
    directions entering and leaving it.

    Falls back to a deterministic perpendicular of the incoming link when
    the links are collinear.
    """
    cx, cy, cz = cross(l_in, l_out)
    n = math.sqrt(cx * cx + cy * cy + cz * cz)
    if n < 1e-9:
        return perpendicular_axis(l_in)
    return (cx / n, cy / n, cz / n)


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
    phi = clamped_arccos(dot(l_in, l_out))
    if phi <= joint.max_angle:
        return None
    return joint.max_angle - phi, ball_joint_axis(l_in, l_out)


def _reach(chain: ChainState, positions: tuple | list, start: tuple, tip_first: bool) -> list:
    """One reaching phase on a sequence of (x, y, z) float rows, never mutated; returns a new list.

    Pins the first point of the traversal (the tip when tip_first, else
    the base) at start, then pulls each next point onto its link from
    the pivot placed just before it. A point that coincides with its
    pivot extends straight past the link placed before the pivot, or
    along the anchor, or along its old link. Joint angles are measured
    base-to-tip, so the tip-first pass hands `_limit_correction` the
    negated link directions and turns the retained point the other way;
    both negations are exact.
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
        d = math.sqrt(vx * vx + vy * vy + vz * vz)
        length = lengths[i if tip_first else p]
        if d < 1e-12 or ((p != first or entry is not None) and can_clamp[p]):
            back = _direction(q[p - step], q[p]) if p != first else entry
            if d < 1e-12:
                # coincident points: extend straight past the pivot
                if back is None:
                    back = _direction(positions[p], positions[i])
                bx, by, bz = back
                q[i] = (x + length * bx, y + length * by, z + length * bz)
                continue
            bx, by, bz = back
            if tip_first:
                corr = _limit_correction((-vx / d, -vy / d, -vz / d), (-bx, -by, -bz), chain.joints[p])
            else:
                corr = _limit_correction(back, (vx / d, vy / d, vz / d), chain.joints[p])
            if corr is not None:
                delta, axis = corr
                vx, vy, vz = rotate_about_axis(axis, -delta if tip_first else delta, (vx, vy, vz))
        s = length / d
        q[i] = (x + s * vx, y + s * vy, z + s * vz)
    return q


def forward_phase(chain: ChainState, target) -> ChainState:
    """Anchor the end at the target and pull the chain tip-to-base."""
    return chain.moved(_reach(chain, chain.positions, tuple(map(float, target)), True))


def backward_phase(chain: ChainState) -> ChainState:
    """Anchor the base and push the chain base-to-tip."""
    return chain.moved(_reach(chain, chain.positions, chain.base, False))


def pre_bend(chain: ChainState, axis=None) -> ChainState:
    """Break a degenerate chain with a small fixed bend per joint.

    A chain is degenerate when every pair of its links is within
    COLLINEAR_TOL radians of parallel or anti-parallel: straight, or
    folded back on itself. Such chains can cycle endlessly under the
    convex updates and park optimizer seeds where the gradient vanishes.
    Link k is turned by k * PRE_BEND about the axis from the first
    link's direction, taken with link k's own sense. The bend axis may
    be supplied by the caller (it resolves which way a degenerate,
    on-axis problem folds); otherwise the first hinge axis is used, so
    hinge chains stay in their working plane, and ball chains fall back
    to a deterministic perpendicular. Other chains are returned unchanged.
    """
    if len(chain.positions) < 3:
        return chain
    dirs = chain.link_directions()
    for i, a in enumerate(dirs):
        for b in dirs[i + 1:]:
            if clamped_arccos(abs(dot(a, b))) >= COLLINEAR_TOL:
                return chain
    if axis is None:
        axis = next((joint.axis for joint in chain.joints if isinstance(joint, Hinge)), None)
        if axis is None:
            axis = perpendicular_axis(dirs[0])
    else:
        axis = unit(axis)
    first, lengths = dirs[0], chain.lengths
    q = list(chain.positions[:2])
    for k in range(1, len(lengths)):
        dx, dy, dz = rotate_about_axis(axis, k * PRE_BEND, first)
        length = lengths[k] if dot(dirs[k], first) > 0.0 else -lengths[k]
        x, y, z = q[k]
        q.append((x + length * dx, y + length * dy, z + length * dz))
    return chain.moved(q)


class FabrikOutcome(NamedTuple):
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


def within_reach(chain: ChainState, target, eps: float) -> bool:
    """The one reach rule: the target's distance d from the base within eps
    of the shell an unlimited chain's end sweeps, hole - eps <= d <= reach
    + eps with hole = max(0, 2 * longest link - reach). Limits only shrink
    the shell, so no solve gets within eps of a target it refuses. False
    for a NaN d or one above MAX_TARGET_GAP, whatever eps is."""
    hole = max(0.0, 2.0 * max(chain.lengths) - chain.reach)
    return hole - eps <= math.dist(target, chain.base) <= min(chain.reach + eps, MAX_TARGET_GAP)


def solve(chain: ChainState, target, eps_tol: float, iter_cap: int) -> FabrikOutcome:
    """Iterate forward/backward sweeps until dist <= eps_tol or the cap.

    A target on or beyond the reach sphere (within fp noise) gets the
    chain laid straight toward it in one sweep, FABRIK's out-of-reach
    case; callers ask `within_reach` first. A non-finite target, or one
    more than MAX_TARGET_GAP from the base, raises ValueError. The
    outcome's chain is built once, on return.
    """
    eps_tol = check_tolerance(eps_tol, "eps_tol")
    iter_cap = check_cap(iter_cap, "iter_cap")
    tip = tx, ty, tz = tuple(map(float, target))
    base = chain.base
    gap = math.dist(tip, base)
    if not gap <= MAX_TARGET_GAP:  # NaN and inf fail too
        raise ValueError(f"target must be finite and within {MAX_TARGET_GAP:g} m of the base")
    reach = chain.reach
    if reach - gap <= 1e-12 * reach and gap > 0.0:
        # full-extension or out-of-reach target: the straight chain is the
        # unique solution, or the closest the chain gets
        direction = unit([(t - b) / gap for t, b in zip(tip, base)])
        stretched = chain.moved(_lay_out(base, direction, chain.lengths))
        dist = norm(sub(stretched.end, tip))
        return FabrikOutcome(dist <= eps_tol, 1, dist, stretched, ((1, dist),))

    dist = norm(sub(chain.end, tip))
    if dist <= eps_tol:
        return FabrikOutcome(True, 0, dist, chain)
    q = chain.positions
    trace = []
    n = 0
    while n < iter_cap:
        q = _reach(chain, _reach(chain, q, tip, True), base, False)
        n += 1
        x, y, z = q[-1]
        dx, dy, dz = x - tx, y - ty, z - tz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        trace.append((n, dist))
        if dist <= eps_tol:
            break
    return FabrikOutcome(dist <= eps_tol, n, dist, chain.moved(q), tuple(trace))
