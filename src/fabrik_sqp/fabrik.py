"""Joint-limited FABRIK iteration for serial chains.

A chain is an ordered list of joint positions P_1..P_m with fixed link
lengths. One sweep is a forward phase (re-anchor the end at the target,
pull the chain tip-to-base) followed by a backward phase (re-anchor the
base, push base-to-tip). Both phases are one reach step, `_reach`, run
from opposite ends. Each point update is a convex blend that preserves
the link length; when the angle at the joint next to the point being
placed violates its limit, the retained point is pre-rotated about the
joint axis by the excess before blending. `solve` sweeps a two-link
chain that cannot clamp (every chain of both robots at the default
limits) in one fused step, `_fused_sweep`, with `_reach`'s floats.

Joint angles are measured between consecutive link directions in
base-to-tip orientation, so both phases clamp the same physical
interval. Every joint is a `Hinge`: signed limits about a fixed world
axis, which a clamp turns about. Both robots' reduced chains are hinge
pairs in a vertical plane through the base axis, which the sweeps never
leave; the UR5's planes are its theta1 branches, the KUKA's the wrist
target's.

A chain's links are checked once, where it is built: `straight_chain`
builds every chain (the CLI's, the demos' and both reductions', which
each robot builds once per model) and checks a minimum link length well
above the sweeps' 1e-12 coincidence scale, a maximum reach that keeps
their squares finite and a lay-out that keeps every link. `relaid`
turns the UR5's model chain into each working plane, whose lay-out
`robots.LAYOUT_MARGIN` covers, and the KUKA's into the wrist target's
plane when its elbow can clamp. The sweeps start from a chain as laid
out: the forward phase pins the tip at the target, so only `solve`'s
zero-sweep test and `_reach`'s coincident-point rule read a two-link
start's tip. The sweeps, `pre_bend` and `solve`'s shortcuts at the
shell's edges trust the chain and only move its points, (x, y, z) float
rows from lay-out to recovery; the constants set where it is laid out
ride along.
Every vector is a float 3-tuple (see the `geometry` docstring). Reach is
decided once, before any sweep: `within_reach` asks for the target
within the solve's tolerance of the shell the chain's end sweeps.
"""
from __future__ import annotations

import math
import numbers
import operator
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .geometry import (
    clamped_arccos,
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


def relaid(chain: ChainState, direction: tuple, axis: tuple) -> ChainState:
    """The chain laid out again along the unit `direction`, its anchor, its
    hinges turned about the unit `axis`: its constants carry over."""
    joints = tuple(Hinge._make((axis, joint.lo, joint.hi)) for joint in chain.joints)
    return ChainState(_lay_out(chain.base, direction, chain.lengths), chain.lengths, joints,
                      chain.base, chain.reach, chain.can_clamp, direction)


def straight_chain(base, direction, lengths, joints, anchor_dir=None) -> ChainState:
    """Every chain: laid out straight from base along a direction, checked,
    its constants set once (the lengths' `fsum` as its reach, can_clamp).

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
    base, rows, joints = tuple(base.tolist()), tuple(lengths.tolist()), tuple(joints)
    can_clamp = tuple(not joint.unconstrained for joint in joints)
    chain = ChainState(_lay_out(base, direction, rows), rows, joints, base, math.fsum(rows),
                       can_clamp, anchor)
    laid = np.linalg.norm(np.diff(chain.positions, axis=0), axis=1)
    if not np.all(np.abs(laid - lengths) <= 1e-9 * lengths):
        raise ValueError("a link is too short to lay out at this base")
    return chain


def _limit_correction(l_in, l_out, joint: Hinge) -> float:
    """The turn about the hinge's axis that lands its angle from l_in to
    l_out, the unit link directions entering and leaving it in base-to-tip
    orientation, inside [lo, hi]: 0.0 when it is inside. The sweeps call
    it only for a joint that can clamp (not `unconstrained`); the Hinge
    checked lo < hi when it was built.
    """
    phi = signed_angle(l_in, l_out, joint.axis)
    return min(max(phi, joint.lo), joint.hi) - phi


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
            joint = chain.joints[p]
            if tip_first:
                delta = -_limit_correction((-vx / d, -vy / d, -vz / d), (-bx, -by, -bz), joint)
            else:
                delta = _limit_correction(back, (vx / d, vy / d, vz / d), joint)
            if delta:
                vx, vy, vz = rotate_about_axis(joint.axis, delta, (vx, vy, vz))
        s = length / d
        q[i] = (x + s * vx, y + s * vy, z + s * vz)
    return q


def _fused_sweep(elbow, tip, base, upper: float, fore: float) -> tuple | None:
    """Both phases of a two-link chain that cannot clamp, `_reach`'s floats in
    its order, as (x, y, z) float rows; None when a distance is below 1e-12.
    The forward phase's base point is skipped: only `_reach`'s coincident rule reads it."""
    (ex, ey, ez), (tx, ty, tz), (bx, by, bz) = elbow, tip, base
    vx, vy, vz = ex - tx, ey - ty, ez - tz
    d = math.sqrt(vx * vx + vy * vy + vz * vz)
    if d < 1e-12:
        return None
    s = fore / d
    vx, vy, vz = tx + s * vx - bx, ty + s * vy - by, tz + s * vz - bz
    d = math.sqrt(vx * vx + vy * vy + vz * vz)
    if d < 1e-12:
        return None
    s = upper / d
    ex, ey, ez = bx + s * vx, by + s * vy, bz + s * vz
    vx, vy, vz = tx - ex, ty - ey, tz - ez
    d = math.sqrt(vx * vx + vy * vy + vz * vz)
    if d < 1e-12:
        return None
    s = fore / d
    return base, (ex, ey, ez), (ex + s * vx, ey + s * vy, ez + s * vz)


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
    on-axis problem folds, and keeps a chain in its working plane);
    otherwise it is the first link's deterministic perpendicular. Other
    chains are returned unchanged.
    """
    if len(chain.positions) < 3:
        return chain
    dirs = chain.link_directions()
    for i, a in enumerate(dirs):
        for b in dirs[i + 1:]:
            if clamped_arccos(abs(dot(a, b))) >= COLLINEAR_TOL:
                return chain
    axis = perpendicular_axis(dirs[0]) if axis is None else unit(axis)
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
    dist: float  # end-to-target distance after the last sweep; see solve
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
    of the shell an unlimited chain's end sweeps, hole - eps <= d and d -
    reach <= eps with hole = max(0, 2 * longest link - reach). Limits only
    shrink the shell, so no solve gets within eps of a target it refuses;
    at the outer edge d - reach is `solve`'s own miss. False for a NaN d
    or one above MAX_TARGET_GAP, whatever eps is."""
    hole = max(0.0, 2.0 * max(chain.lengths) - chain.reach)
    gap = math.dist(target, chain.base)
    return hole - eps <= gap <= MAX_TARGET_GAP and gap - chain.reach <= eps


def solve(chain: ChainState, target, eps_tol: float, iter_cap: int) -> FabrikOutcome:
    """Iterate forward/backward sweeps until dist <= eps_tol or the cap.

    A target on or beyond the reach sphere (within fp noise) gets the
    chain laid straight toward it in one sweep, FABRIK's out-of-reach
    case, with dist the computed |d - reach|, not the measured miss;
    callers ask `within_reach` first. A two-link chain that cannot clamp
    meets a target within eps of its hole's edge folded back, in one
    sweep, with dist the measured miss. A non-finite target, or one more
    than MAX_TARGET_GAP from the base, raises ValueError. The outcome's
    chain is built once, on return.
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
        dist = abs(gap - reach)
        return FabrikOutcome(dist <= eps_tol, 1, dist, stretched, ((1, dist),))

    dist = norm(sub(chain.end, tip))
    if dist <= eps_tol:
        return FabrikOutcome(True, 0, dist, chain)
    q = chain.positions
    upper, fore, hole = chain.lengths[0], chain.lengths[-1], 2.0 * max(chain.lengths) - reach
    fused = len(q) == 3 and not any(chain.can_clamp)
    if fused and hole > 0.0 and abs(gap - hole) <= eps_tol and gap > 0.0:
        # the inner edge of the shell: folded back, the longer link toward the target
        sign, direction = 1.0 if upper > fore else -1.0, unit([(t - b) / gap for t, b in zip(tip, base)])
        folded = chain.moved(_lay_out(base, direction, (sign * upper, -sign * fore)))
        dist = math.dist(folded.end, tip)
        return FabrikOutcome(dist <= eps_tol, 1, dist, folded, ((1, dist),))
    trace = []
    n = 0
    while n < iter_cap:
        q = (fused and _fused_sweep(q[1], tip, base, upper, fore)
             or _reach(chain, _reach(chain, q, tip, True), base, False))
        n += 1
        x, y, z = q[-1]
        dx, dy, dz = x - tx, y - ty, z - tz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        trace.append((n, dist))
        if dist <= eps_tol:
            break
    return FabrikOutcome(dist <= eps_tol, n, dist, chain.moved(q), tuple(trace))
