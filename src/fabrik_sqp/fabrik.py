"""Joint-limited FABRIK iteration for serial chains.

A chain is an ordered list of joint positions P_1..P_m with fixed link
lengths. One sweep is a forward phase (re-anchor the end at the target,
pull the chain tip-to-base) followed by a backward phase (re-anchor the
base, push base-to-tip). Each point update is a convex blend that
preserves the link length; when the angle at the joint next to the point
being placed violates its limit, the retained point is pre-rotated about
the joint axis by the excess before blending.

Joint angles are measured between consecutive link directions in
base-to-tip orientation, so both phases clamp the same physical
interval. Hinges carry a fixed world axis; ball joints use the cross
product of the adjacent link directions as the correction axis and a
cone half-angle as the limit.

`straight_chain` validates a chain once, when it is built; the sweeps,
`pre_bend` and the full-extension shortcut trust it and only move its
positions.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    clamped_arccos,
    perpendicular_axis,
    rotate_about_axis,
    signed_angle,
    unit,
)

_FULL = math.pi
PRE_BEND = 1e-3  # bend per joint that pre_bend gives a straight chain (rad)
COLLINEAR_TOL = 1e-6  # largest angle between links that pre_bend treats as straight (rad)


@dataclass(frozen=True)
class Hinge:
    """1-DOF joint about a fixed world axis with signed limits."""

    axis: np.ndarray
    lo: float = -math.pi
    hi: float = math.pi

    def __post_init__(self):
        object.__setattr__(self, "axis", unit(self.axis))
        if self.lo >= self.hi:
            raise ValueError("hinge limits must satisfy lo < hi")

    @property
    def unconstrained(self) -> bool:
        return self.lo <= -_FULL and self.hi >= _FULL


@dataclass(frozen=True)
class Ball:
    """3-DOF joint limited by a cone half-angle (pi = unconstrained)."""

    max_angle: float = math.pi

    @property
    def unconstrained(self) -> bool:
        return self.max_angle >= _FULL


@dataclass(frozen=True)
class ChainState:
    """Joint positions P_1..P_m plus link lengths and per-joint limits.

    joints[j] sits at positions[j] (j = 0..m-2); joints[0] is the base
    joint whose reference direction is anchor_dir (the fixed link feeding
    the chain), or unconstrained when anchor_dir is None. The sweeps
    trust a chain that `straight_chain` has built and validated.
    """

    positions: np.ndarray  # (m, 3) floats
    lengths: np.ndarray  # (m-1,) positive floats
    joints: tuple  # one joint per link
    base: np.ndarray  # fixed location of P_1
    anchor_dir: np.ndarray | None = None  # unit

    @property
    def end(self) -> np.ndarray:
        return self.positions[-1]

    def link_directions(self) -> np.ndarray:
        diffs = np.diff(self.positions, axis=0)
        return diffs / np.linalg.norm(diffs, axis=1)[:, None]

    def reach(self) -> float:
        return float(np.sum(self.lengths))


def _lay_out(base, direction, lengths) -> np.ndarray:
    return base + np.outer(np.concatenate(([0.0], np.cumsum(lengths))), direction)


def straight_chain(base, direction, lengths, joints, anchor_dir=None) -> ChainState:
    """Chain laid out straight from base along a direction.

    The one place a chain is validated: positive lengths, one per joint;
    non-zero, finite 3-vector direction and anchor_dir (both normalized);
    laid-out links that keep their lengths to 1e-9 relative, which
    rejects a link that rounding absorbs into the coordinates before it.
    """
    base = np.asarray(base, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or lengths.size < 1 or np.any(lengths <= 0.0):
        raise ValueError("link lengths must be a non-empty list of positive numbers")
    if len(joints) != lengths.size:
        raise ValueError("need one joint per link")
    if base.shape != (3,) or np.shape(direction) != (3,):
        raise ValueError("base and direction must be 3-vectors")
    positions = _lay_out(base, unit(direction), lengths)
    laid = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    if not np.all(np.abs(laid - lengths) <= 1e-9 * lengths):
        raise ValueError("a link is too short to lay out at this base")
    anchor = None if anchor_dir is None else unit(anchor_dir)
    return ChainState(positions, lengths, tuple(joints), base, anchor)


def clamp_correction(phi: float, limit) -> float:
    """Excess to add to phi so it lands inside [lo, hi] (0 when inside)."""
    lo, hi = limit
    if lo >= hi:
        raise ValueError("limit must satisfy lo < hi")
    if phi > hi:
        return hi - phi
    if phi < lo:
        return lo - phi
    return 0.0


def ball_joint_axis(l_in, l_out) -> np.ndarray:
    """Correction axis of a ball joint: normalized cross of the unit link
    directions entering and leaving it.

    Falls back to a deterministic perpendicular of the incoming link when
    the links are collinear.
    """
    c = np.cross(l_in, l_out)
    n = float(np.linalg.norm(c))
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
        delta = clamp_correction(phi, (joint.lo, joint.hi))
        if delta == 0.0:
            return None
        return delta, joint.axis
    # ball joint: bend angle is non-negative, only the cone bound applies
    phi = clamped_arccos(float(np.dot(l_in, l_out)))
    if phi <= joint.max_angle:
        return None
    return joint.max_angle - phi, ball_joint_axis(l_in, l_out)


def forward_phase(chain: ChainState, target) -> ChainState:
    """Anchor the end at the target and pull the chain tip-to-base."""
    target = np.asarray(target, dtype=float)
    old = chain.positions
    q = old.copy()
    m = q.shape[0]
    q[m - 1] = target
    for i in range(m - 2, -1, -1):
        pivot = q[i + 1]
        v = old[i] - pivot
        d = float(np.linalg.norm(v))
        length = chain.lengths[i]
        if d < 1e-12:
            # coincident points: extend straight past the pivot
            if i + 2 < m:
                direction = unit(pivot - q[i + 2])
            else:
                direction = unit(old[i] - old[i + 1])
            q[i] = pivot + length * direction
            continue
        if i + 2 < m and not chain.joints[i + 1].unconstrained:
            # clamp the joint at the pivot between the updated outgoing
            # link and the not-yet-moved incoming one
            corr = _limit_correction(-v / d, unit(q[i + 2] - pivot), chain.joints[i + 1])
            if corr is not None:
                delta, axis = corr
                # rotating the retained point by -delta bends the joint
                # angle by +delta (the incoming link moves, not the
                # outgoing one)
                v = rotate_about_axis(axis, -delta, v)
        q[i] = pivot + (length / d) * v
    return replace(chain, positions=q)


def backward_phase(chain: ChainState) -> ChainState:
    """Anchor the base and push the chain base-to-tip."""
    old = chain.positions
    q = old.copy()
    m = q.shape[0]
    q[0] = chain.base
    for i in range(1, m):
        pivot = q[i - 1]
        v = old[i] - pivot
        d = float(np.linalg.norm(v))
        length = chain.lengths[i - 1]
        if d < 1e-12:
            if i >= 2:
                direction = unit(pivot - q[i - 2])
            elif chain.anchor_dir is not None:
                direction = chain.anchor_dir
            else:
                direction = unit(old[i] - old[i - 1])
            q[i] = pivot + length * direction
            continue
        joint = chain.joints[i - 1]
        if not joint.unconstrained and (i > 1 or chain.anchor_dir is not None):
            l_in = chain.anchor_dir if i == 1 else unit(pivot - q[i - 2])
            corr = _limit_correction(l_in, v / d, joint)
            if corr is not None:
                delta, axis = corr
                v = rotate_about_axis(axis, delta, v)
        q[i] = pivot + (length / d) * v
    return replace(chain, positions=q)


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
    if chain.positions.shape[0] < 3:
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
    q = chain.positions.copy()
    for k in range(1, n_links):
        direction = rotate_about_axis(axis, k * PRE_BEND, dirs[0])
        q[k + 1] = q[k] + chain.lengths[k] * direction
    return replace(chain, positions=q)


@dataclass(frozen=True)
class FabrikOutcome:
    converged: bool
    iterations: int  # full forward+backward sweeps
    dist: float  # end-to-target distance after the last sweep
    chain: ChainState
    trace: tuple | None = None  # ((n, dist), ...) when recorded
    unreachable: bool = False


def solve(
    chain: ChainState,
    target,
    eps_tol: float,
    iter_cap: int,
    record_trace: bool = False,
) -> FabrikOutcome:
    """Iterate forward/backward sweeps until dist <= eps_tol or the cap.

    Targets beyond the chain's total reach return immediately with
    unreachable=True. Targets exactly on the reach sphere (within fp
    noise) are solved directly by laying the chain straight toward them,
    counted as one sweep. A non-finite target raises ValueError.
    """
    if eps_tol <= 0.0:
        raise ValueError("eps_tol must be positive")
    if iter_cap < 1:
        raise ValueError("iter_cap must be at least 1")
    target = np.asarray(target, dtype=float)
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    reach = chain.reach()
    # math.dist scales its sum, so huge targets give no overflow
    gap = math.dist(target, chain.base)
    # one-ulp tolerance: on-sphere targets are reachable by contract and
    # must not flip on fp rounding of the gap
    if gap > reach * (1.0 + 1e-12):
        dist = math.dist(chain.end, target)
        return FabrikOutcome(False, 0, dist, chain, () if record_trace else None, True)
    if reach - gap <= 1e-12 * reach and gap > 0.0:
        # full-extension target: the straight chain is the unique solution
        direction = unit((target - chain.base) / gap)
        stretched = replace(chain, positions=_lay_out(chain.base, direction, chain.lengths))
        dist = float(np.linalg.norm(stretched.end - target))
        trace = ((1, dist),) if record_trace else None
        return FabrikOutcome(dist <= eps_tol, 1, dist, stretched, trace)

    cur = chain
    dist = float(np.linalg.norm(cur.end - target))
    if dist <= eps_tol:
        return FabrikOutcome(True, 0, dist, cur, () if record_trace else None)
    trace = [] if record_trace else None
    n = 0
    while n < iter_cap:
        cur = backward_phase(forward_phase(cur, target))
        n += 1
        dist = float(np.linalg.norm(cur.end - target))
        if trace is not None:
            trace.append((n, dist))
        if dist <= eps_tol:
            break
    return FabrikOutcome(
        dist <= eps_tol, n, dist, cur, tuple(trace) if trace is not None else None
    )


def write_trace_csv(path, trace) -> None:
    """Dump a convergence trace as rows of (n, dist)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "dist"])
        for n, dist in trace:
            writer.writerow([n, f"{dist:.17g}"])
