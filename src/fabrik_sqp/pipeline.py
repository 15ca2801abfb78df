"""The one solve driver, shared by the UR5 and KUKA solvers.

Both robots reduce the arm to a two-link chain from the shoulder at
(0, 0, l1), with link lengths l2 and l3. For each branch of the
reduction `solve` checks that the chain can reach the branch's target,
pre-bends the straight chain, runs the capped FABRIK sweeps and, when
they miss, re-bends the chain and hands it to the robot's optimizer
fallback. The branch recovers joint vectors from its reduced solution
in closed form, exactly; the driver filters them by the joint limits,
selects one, checks its pose and turns it into the one IKResult. The
robots differ only in their branches.

A branch is any object with:

- ``target``: the point the chain end must reach
- ``chain()``: the straight chain, before the pre-bend
- ``bend_axis()``: the pre-bend axis (None picks fabrik's default)
- ``from_chain(chain)``: the reduced solution of a converged chain
- ``optimize(seed_chain, stop)``: ``(opt_results, reduced)`` with
  every optimizer run in order and the reduced solution, or None when
  the last run ends above the stop value (the squared tolerance)
- ``candidates(reduced, t_des)``: every joint vector recovered from a
  reduced solution, in enumeration order
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import fabrik
from .geometry import cartesian_error
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
    candidates: list = field(default_factory=list)  # recovered thetas, in enumeration order
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
    l1, l2, l3 = model.link_lengths[:3]
    shoulder = (0.0, 0.0, l1)
    detail = SolveDetail()
    for branch in branches(t_des, query.theta_init, model):
        detail.branches += 1
        # math.dist scales its sum, so huge targets give no overflow
        if math.dist(branch.target, shoulder) > (l2 + l3) * (1.0 + 1e-12):
            continue
        detail.reachable = True
        # targets along the straight chain leave the fold free; the
        # branch's bend axis picks the fold of the reference
        axis = branch.bend_axis()
        chain = fabrik.pre_bend(branch.chain(), axis=axis)
        outcome = fabrik.solve(chain, branch.target, eps, cap)
        detail.fabrik_iterations += outcome.iterations
        reduced = branch.from_chain(outcome.chain) if outcome.converged else None
        if reduced is None and config.use_optimizer:
            # collinear targets let the sweeps re-straighten the chain;
            # re-bend so the seed is off the stationary ridge
            seed = fabrik.pre_bend(outcome.chain, axis=axis)
            results, reduced = branch.optimize(seed, eps * eps)
            detail.optimizer_iterations += sum(r.iterations for r in results)
            detail.optimizer = results[-1]
        if reduced is None:
            continue
        for theta in branch.candidates(reduced, t_des):
            detail.candidates.append(theta)
            if model.within_limits(theta):
                detail.admitted.append(theta)
    pick = select_candidate(detail.admitted, query.theta_init)
    theta = error = None
    if pick is not None and pose_mismatch(model, detail.admitted[pick], t_des) <= eps:
        theta = detail.admitted[pick]
    elapsed = time.perf_counter() - start
    if theta is None:
        status = IKStatus.FAILED if detail.reachable else IKStatus.UNREACHABLE
    else:
        status = IKStatus.SOLVED
        error = cartesian_error(forward_kinematics(model, theta), t_des)
    counters = (detail.fabrik_iterations, detail.optimizer_used, detail.optimizer_iterations)
    return IKResult(status, theta, error, *counters, elapsed), detail
