"""The one solve driver, shared by the UR5 and KUKA solvers.

Both robots reduce the arm to two-link chains, which their branches
lay out straight. For each branch `solve` checks that the chain's end
can come within eps of the branch's target (`fabrik.within_reach`; a
branch it refuses is neither solved nor reachable), runs the capped
FABRIK sweeps from the branch's start chain and, when they miss,
re-bends the swept chain if it is straight or folded and hands it to
the robot's optimizer fallback. The branch recovers float tuples from
its reduced solution in closed form, exactly; one joint rule,
`iktypes.admitted`, wraps them to [-pi, pi], limit-tests and scores
them, and bounds branches and groups by the joints they fix, a branch
with its rest added. `solve` selects one among the wrapped float
tuples, checks the pick's pose and turns it into the one IKResult.
The query is read once: its pose into float rows when the IKQuery is
built, theta_init into a float tuple by `prepare_query`. The pick, as
IKResult.theta, is the one ndarray the solve builds. The robots differ
only in their branches.

A branch is any object with:

- ``target``: the point the chain end must reach
- ``start``: the chain the sweeps start from, as laid out
- ``bend_axis``: the axis that re-bends the optimizer's seed (None: fabrik's default)
- ``fixed``: the ``(joint index, raw angle)`` pairs, in index order,
  that every candidate of the branch shares, known before any sweep
- ``rest``: a float, known before any sweep, at or below the sum of
  every candidate's L1 terms of the joints ``fixed`` leaves out
- ``rest_within(eps)``: a float, never below ``rest``, at or below that
  sum for every candidate of any reduced solution whose chain end lies
  within eps of ``target``
- ``from_chain(chain)``: the reduced solution of a converged chain
- ``optimize(seed_chain, stop)``: ``(opt_results, reduced)`` with
  every optimizer run in order and the reduced solution, or None when
  the last run ends above the stop value (the squared tolerance)
- ``candidates(reduced)``: the groups of joint vectors of a reduced
  solution in enumeration order, as ``(fixed, recover)`` pairs:
  ``fixed`` holds the pairs every vector of the group shares, as the
  branch's ``fixed`` does, and ``recover()`` gives the group's joint
  vectors as float tuples, in enumeration order, unwrapped.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import fabrik
from .geometry import frame_error
from .iktypes import SELECT_TIE_TOL, IKQuery, IKResult, IKStatus, admitted
from .optimizer import OptResult
from .robots import RobotModel, fk_frames


@dataclass
class SolveDetail:
    """How one solve went, beside its IKResult. Only the groups that
    were recovered, of the branches that were solved, give candidates: a
    skipped branch or group has no candidate that the selection could
    pick."""

    branches: int = 0  # reduction branches enumerated
    skipped: int = 0  # branches not solved: they could not win, or a fixed joint is out of limits
    solved: int = 0  # branches FABRIK ran on
    reachable: bool = False  # some branch target lies within the chain's reach
    fabrik_iterations: int = 0
    optimizer_iterations: int = 0
    optimizer: OptResult | None = None  # the last optimizer run, in visiting order
    candidates: list = field(default_factory=list)  # wrapped thetas, float tuples, enumeration order
    admitted: list = field(default_factory=list)  # the candidates within the joint limits

    @property
    def optimizer_used(self) -> bool:
        return self.optimizer is not None


def solve(
    query: IKQuery, model: RobotModel, branches, prepare_query, select_candidate, pose_mismatch
):
    """Solve one query; returns (IKResult, SolveDetail).

    ``prepare_query(model, query)`` gives the pose's top three float
    rows and theta_init, the reference, as a float tuple, and
    ``branches(rows, reference, model)`` the robot's branches. The floor
    of a candidate group of a branch's reduced solution is the distance
    `admitted` gives its fixed pairs, inf for None (no candidate of it
    within the limits); a branch's floor is that of its fixed pairs plus
    its rest. Both are visited in (floor, enumeration index) order. One
    whose floor exceeds the nearest admitted distance so far by more
    than SELECT_TIE_TOL is skipped: ``select_candidate(distances)``
    picks the first admitted candidate within that tolerance of the
    nearest, so none of its candidates could be picked. A reachable
    branch or a group with floor inf is skipped too (a rest is finite),
    and, once some candidate is admitted, a reachable branch whose fixed
    pairs' distance plus its ``rest_within(eps)`` exceeds that bound.
    FABRIK runs first on each other reachable branch, capped at the
    config's sweep budget; a branch it leaves unconverged goes to the
    branch's optimizer when the config enables it. Every
    candidate of every recovered group is recorded as `admitted` wraps
    it, in enumeration order, and admitted with its L1 distance when it
    is within the limits. Recovery is exact, so only the pick gets a
    pose check: ``pose_mismatch(model, pick, t_des)`` at most eps. The
    solvers pass the helpers they import, which is where the benchmark's
    layer trace hooks them. A pick that misses, or no pick, is FAILED
    when some branch was reachable, UNREACHABLE otherwise (a skip by
    floor follows an admitted candidate, so some branch was reachable).
    """
    start = time.perf_counter()
    rows, reference = prepare_query(model, query)
    config = query.config
    eps = config.eps_tol
    cap = config.fabrik_cap(model.name)
    detail = SolveDetail()
    enumerated = list(branches(rows, reference, model))
    detail.branches = len(enumerated)
    recovered = {}  # (branch index, group index): [(wrapped theta, distance or None)]
    nearest = math.inf  # the distance of the nearest candidate admitted so far

    def floor_of(pairs) -> float:
        d = admitted(pairs, model.limit_pairs, reference)[1]
        return math.inf if d is None else d

    floors = ((floor_of(b.fixed), i, b) for i, b in enumerate(enumerated))
    for floor, index, fixed, branch in sorted((f + b.rest, i, f, b) for f, i, b in floors):
        if floor > nearest + SELECT_TIE_TOL:
            detail.skipped += 1
            continue
        if not fabrik.within_reach(branch.start, branch.target, eps):
            continue
        detail.reachable = True
        if floor == math.inf or nearest < math.inf and (
                fixed + branch.rest_within(eps) > nearest + SELECT_TIE_TOL):
            detail.skipped += 1
            continue
        detail.solved += 1
        outcome = fabrik.solve(branch.start, branch.target, eps, cap)
        detail.fabrik_iterations += outcome.iterations
        reduced = branch.from_chain(outcome.chain) if outcome.converged else None
        if reduced is None and config.use_optimizer:
            # collinear targets let the sweeps straighten or fold the
            # chain; re-bend so the seed is off the stationary ridge
            seed = fabrik.pre_bend(outcome.chain, axis=branch.bend_axis)
            results, reduced = branch.optimize(seed, eps * eps)
            detail.optimizer_iterations += sum(r.iterations for r in results)
            detail.optimizer = results[-1]
        if reduced is None:
            continue
        groups = enumerate(branch.candidates(reduced))
        for floor, group, recover in sorted((floor_of(f), g, r) for g, (f, r) in groups):
            if floor == math.inf or floor > nearest + SELECT_TIE_TOL:
                continue
            recovered[index, group] = found = []
            for raw in recover():
                wrapped, d = admitted(enumerate(raw), model.limit_pairs, reference)
                found.append((wrapped, d))
                if d is not None and d < nearest:
                    nearest = d
    distances = []  # of detail.admitted, which the selection reads
    for key in sorted(recovered):
        for wrapped, d in recovered[key]:
            detail.candidates.append(wrapped)
            if d is not None:
                detail.admitted.append(wrapped)
                distances.append(d)
    pick = select_candidate(distances)
    status = IKStatus.FAILED if detail.reachable else IKStatus.UNREACHABLE
    theta = error = None
    if pick is not None and pose_mismatch(model, detail.admitted[pick], query.t_des) <= eps:
        pick = detail.admitted[pick]
        status, theta = IKStatus.SOLVED, np.array(pick)
        error = frame_error(fk_frames(model, pick)[-1], rows)
    elapsed = time.perf_counter() - start
    counters = (detail.fabrik_iterations, detail.optimizer_used, detail.optimizer_iterations)
    return IKResult(status, theta, error, *counters, elapsed), detail
