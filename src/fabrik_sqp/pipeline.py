"""The one solve driver, shared by the UR5 and KUKA solvers.

Both robots reduce the arm to two-link chains, which their branches
lay out and pre-bend. For each branch `solve` checks that the chain can
reach the branch's target (`fabrik.within_reach`), runs the capped
FABRIK sweeps from the branch's start chain and, when they miss,
re-bends the swept chain and hands it to the robot's optimizer
fallback. The branch recovers float tuples from its reduced solution in
closed form, exactly; `solve` wraps them to [-pi, pi), filters them by
the joint limits, selects one among the wrapped floats, builds one
ndarray each for the SolveDetail, checks the pick's pose and turns it
into the one IKResult. The robots differ only in their branches.

A branch is any object with:

- ``target``: the point the chain end must reach
- ``start``: the pre-bent chain the sweeps start from
- ``bend_axis``: the axis that re-bends the optimizer's seed (None: fabrik's default)
- ``from_chain(chain)``: the reduced solution of a converged chain
- ``optimize(seed_chain, stop)``: ``(opt_results, reduced)`` with
  every optimizer run in order and the reduced solution, or None when
  the last run ends above the stop value (the squared tolerance)
- ``candidates(reduced, t_des)``: every joint vector recovered from a
  reduced solution, as a float tuple, in enumeration order, unwrapped
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import fabrik
from .geometry import cartesian_error, wrap_angle
from .iktypes import IKQuery, IKResult, IKStatus
from .optimizer import OptResult
from .robots import RobotModel, forward_kinematics


@dataclass
class SolveDetail:
    """How one solve went, beside its IKResult."""

    branches: int = 0  # reduction branches enumerated
    reachable: bool = False  # some branch target lies within the chain's reach
    fabrik_iterations: int = 0
    optimizer_iterations: int = 0
    optimizer: OptResult | None = None  # the last optimizer run
    candidates: list = field(default_factory=list)  # wrapped thetas, ndarrays, enumeration order
    admitted: list = field(default_factory=list)  # the candidates within the joint limits

    @property
    def optimizer_used(self) -> bool:
        return self.optimizer is not None


def solve(
    query: IKQuery, model: RobotModel, branches, prepare_query, select_candidate, pose_mismatch
):
    """Solve one query; returns (IKResult, SolveDetail).

    ``branches(t_des, theta_init, model)`` gives the robot's branches.
    FABRIK runs first on each reachable one, capped at the config's
    sweep budget; a branch it leaves unconverged goes to the branch's
    optimizer when the config enables it. Every candidate of every
    reduced solution is recorded, and those within the joint limits are
    admitted. Recovery is exact, so only the pick gets a pose check:
    ``pose_mismatch(model, theta, t_des)`` at most eps. The solvers pass
    the helpers they import, which is where the benchmark's layer trace
    hooks them. A pick that misses, or no pick, is FAILED when some
    branch was reachable, UNREACHABLE otherwise.
    """
    start = time.perf_counter()
    t_des = prepare_query(model, query)
    config = query.config
    eps = config.eps_tol
    cap = config.fabrik_cap(model.name)
    detail = SolveDetail()
    admitted = []  # the floats of detail.admitted, which the selection reads
    for branch in branches(t_des, query.theta_init, model):
        detail.branches += 1
        if not fabrik.within_reach(branch.start, branch.target):
            continue
        detail.reachable = True
        outcome = fabrik.solve(branch.start, branch.target, eps, cap)
        detail.fabrik_iterations += outcome.iterations
        reduced = branch.from_chain(outcome.chain) if outcome.converged else None
        if reduced is None and config.use_optimizer:
            # collinear targets let the sweeps re-straighten the chain;
            # re-bend so the seed is off the stationary ridge
            seed = fabrik.pre_bend(outcome.chain, axis=branch.bend_axis)
            results, reduced = branch.optimize(seed, eps * eps)
            detail.optimizer_iterations += sum(r.iterations for r in results)
            detail.optimizer = results[-1]
        if reduced is None:
            continue
        for raw in branch.candidates(reduced, t_des):
            wrapped = [wrap_angle(t) for t in raw]
            detail.candidates.append(np.array(wrapped))
            if model.within_limits(wrapped):
                detail.admitted.append(detail.candidates[-1])
                admitted.append(wrapped)
    pick = select_candidate(admitted, query.theta_init)
    theta = error = None
    if pick is not None and pose_mismatch(model, detail.admitted[pick], t_des) <= eps:
        theta = detail.admitted[pick]
    if theta is None:
        status = IKStatus.FAILED if detail.reachable else IKStatus.UNREACHABLE
    else:
        status = IKStatus.SOLVED
        error = cartesian_error(forward_kinematics(model, theta), t_des)
    elapsed = time.perf_counter() - start
    counters = (detail.fabrik_iterations, detail.optimizer_used, detail.optimizer_iterations)
    return IKResult(status, theta, error, *counters, elapsed), detail
