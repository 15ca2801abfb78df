"""The solver skeleton shared by the UR5 and KUKA pipelines.

Both robots reduce the arm to a two-link chain from the shoulder at
(0, 0, l1), with link lengths l2 and l3. For each branch of the
reduction the driver checks that the chain can reach the branch's
target, pre-bends the straight chain, runs the capped FABRIK sweeps and,
when they miss, re-bends the chain and hands it to the robot's optimizer
fallback. Each robot recovers joint vectors from the reduced solutions;
the driver filters them by joint limits and pose mismatch, and
`finish` turns the selection into the one IKResult.

A branch is any object with:

- ``target``: the point the chain end must reach
- ``chain()``: the straight chain, before the pre-bend
- ``bend_axis()``: the pre-bend axis (None picks fabrik's default)
- ``from_chain(chain)``: the reduced solution of a converged chain
- ``optimize(seed_chain, stop)``: ``(opt_results, reduced)`` with
  every optimizer run in order and the reduced solution, or None when
  the last run ends above the stop value (the squared tolerance)
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import fabrik
from .geometry import cartesian_error
from .iktypes import IKResult, IKStatus, SolverConfig
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
    # (theta, mismatch) per recovered joint vector, in enumeration
    # order; the mismatch is inf for vectors outside the joint limits
    candidates: list = field(default_factory=list)
    admitted: list = field(default_factory=list)  # thetas passing the filter

    @property
    def optimizer_used(self) -> bool:
        return self.optimizer is not None


def reduced_solutions(branches, model: RobotModel, config: SolverConfig, detail: SolveDetail):
    """Yield (branch, reduced solution) for every branch that converges.

    FABRIK runs first, capped at the config's sweep budget; a branch it
    leaves unconverged goes to the branch's optimizer when the config
    enables it. Counters accumulate in ``detail``.
    """
    eps = config.eps_tol
    cap = config.fabrik_cap(model.name)
    l1, l2, l3 = model.link_lengths[:3]
    shoulder = np.array([0.0, 0.0, l1])
    for branch in branches:
        detail.branches += 1
        if float(np.linalg.norm(branch.target - shoulder)) > (l2 + l3) * (1.0 + 1e-12):
            continue
        detail.reachable = True
        # targets along the straight chain leave the fold free; the
        # branch's bend axis picks the fold of the reference
        axis = branch.bend_axis()
        chain = fabrik.pre_bend(branch.chain(), axis=axis)
        outcome = fabrik.solve(chain, branch.target, eps, cap)
        detail.fabrik_iterations += outcome.iterations
        if outcome.converged:
            yield branch, branch.from_chain(outcome.chain)
        elif config.use_optimizer:
            # collinear targets let the sweeps re-straighten the chain;
            # re-bend so the seed is off the stationary ridge
            seed = fabrik.pre_bend(outcome.chain, axis=axis)
            results, reduced = branch.optimize(seed, eps * eps)
            detail.optimizer_iterations += sum(r.iterations for r in results)
            detail.optimizer = results[-1]
            if reduced is not None:
                yield branch, reduced


def admit(detail: SolveDetail, model: RobotModel, thetas, t_des, eps: float, mismatch) -> None:
    """FK mismatch filter: keep the joint vectors within the limits whose
    pose mismatch is at most eps.

    ``mismatch(model, theta, t_des)`` is the pose mismatch. The solvers
    pass the ``pose_mismatch`` name they import, which is where the
    benchmark's layer trace hooks it.
    """
    for theta in thetas:
        if not model.within_limits(theta):
            detail.candidates.append((theta, math.inf))
            continue
        d = mismatch(model, theta, t_des)
        detail.candidates.append((theta, d))
        if d <= eps:
            detail.admitted.append(theta)


def finish(model: RobotModel, t_des, detail: SolveDetail, pick: int | None, start: float):
    """(IKResult, detail) for the admitted candidate at index `pick`.

    No pick is FAILED when some branch was reachable, UNREACHABLE
    otherwise. `start` is the perf_counter reading the solve began at.
    """
    elapsed = time.perf_counter() - start
    if pick is None:
        status = IKStatus.FAILED if detail.reachable else IKStatus.UNREACHABLE
        theta = error = None
    else:
        status = IKStatus.SOLVED
        theta = detail.admitted[pick]
        error = cartesian_error(forward_kinematics(model, theta), t_des)
    counters = (detail.fabrik_iterations, detail.optimizer_used, detail.optimizer_iterations)
    return IKResult(status, theta, error, *counters, elapsed), detail
