"""Box-constrained least-squares minimizer: the paper's SQP stage.

Drives the reduced chain's end onto its target by minimizing the
squared distance over the joint box with a small projected-BFGS engine:
inverse-Hessian updates from gradient differences, Armijo backtracking
on the projected step path (the trial point is clipped to the box, so
steps slide along active bounds and the position map is never evaluated
outside it). `minimize` takes the chain end's position map, the target,
the start and the box; it clips the start into the box and checks
nothing but the values it computes.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import norm

ARMIJO_C = 1e-4
SHRINK = 0.5
STALL_TOL = 1e-12
_MAX_BACKTRACKS = 60
MAX_ITERS = 200  # accepted steps per run


class OptStatus(enum.Enum):
    TOLERANCE_REACHED = "tolerance_reached"
    STALLED = "stalled"
    ITERATION_CAP = "iteration_cap"


class NonFiniteObjectiveError(RuntimeError):
    """The squared distance or its gradient is non-finite."""

    def __init__(self, x):
        self.x = np.array(x, dtype=float)
        super().__init__(f"objective returned a non-finite value at x={self.x.tolist()}")


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    f: float
    iterations: int
    status: OptStatus


def _evaluate(position, target, x):
    p, jac = position(x)
    diff = p - target
    f = float(diff.dot(diff))
    g = 2.0 * (jac.T @ diff)
    if not math.isfinite(f) or not all(map(math.isfinite, g.tolist())):
        raise NonFiniteObjectiveError(x)
    return f, g


def _freeze(d, x, lo, hi):
    """Zero direction components that push out of an active bound."""
    d = d.copy()
    d[(x <= lo) & (d < 0.0)] = 0.0
    d[(x >= hi) & (d > 0.0)] = 0.0
    return d


def minimize(position, target, x0, bounds, stop_value: float) -> OptResult:
    """Drive f = |p - target|^2 to f <= stop_value inside the box.

    position(x) returns the chain end p, an (m,) array, and its (m, n)
    jacobian J; the gradient is 2 J^T (p - target). bounds is an (n, 2)
    array of rows lo <= hi, such as a model's joint limits; x0 is
    clipped into it. Returns the first iterate reaching stop_value (only
    an exact zero reaches 0), or Stalled when no progress is possible
    (projected gradient and step below 1e-12), or IterationCap after
    MAX_ITERS accepted steps.
    """
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    n = lo.shape[0]

    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = _evaluate(position, target, x)
    if f <= stop_value:
        return OptResult(x, f, 0, OptStatus.TOLERANCE_REACHED)

    eye = np.eye(n)  # never mutated: H is only ever rebound
    H = eye
    fresh_h = True
    sd_alpha = 1.0  # step memory for the gradient fallback mode
    prev_active = None
    iterations = 0
    while iterations < MAX_ITERS:
        # curvature gathered under one active set misleads the next:
        # restart the model whenever a bound activates or releases
        active = (((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))).tolist()
        if prev_active is not None and active != prev_active:
            H = eye
            fresh_h = True
        prev_active = active

        d = _freeze(-(H @ g), x, lo, hi)
        descent = float(np.dot(g, d))
        if descent >= 0.0 or not all(map(math.isfinite, d.tolist())):
            # curvature model unusable here: projected steepest descent
            H = eye
            fresh_h = True
            d = _freeze(-g, x, lo, hi)
        if max(map(abs, d.tolist()), default=0.0) <= STALL_TOL:
            return OptResult(x, f, iterations, OptStatus.STALLED)

        # A scaled curvature model wants the unit step; the gradient
        # fallback has no scale, so reuse (and grow) the last working
        # step length. Without this, flat or negative-curvature ridges,
        # where every update pair is rejected, reduce progress to
        # gradient-sized creep.
        alpha = sd_alpha if fresh_h else 1.0

        # Armijo backtracking on the projected path: the trial point is
        # clipped to the box, so the step may bend along newly hit bounds
        accepted = False
        first_try = True
        for _ in range(_MAX_BACKTRACKS):
            x_new = np.clip(x + alpha * d, lo, hi)
            s = x_new - x
            if max(map(abs, s.tolist()), default=0.0) <= 1e-17:
                break
            gs = float(np.dot(g, s))
            f_new, g_new = _evaluate(position, target, x_new)
            if gs < 0.0 and f_new <= f + ARMIJO_C * gs:
                accepted = True
                break
            alpha *= SHRINK
            first_try = False
        if not accepted:
            return OptResult(x, f, iterations, OptStatus.STALLED)
        if fresh_h:
            sd_alpha = min(alpha * 2.0, 1e8) if first_try else max(alpha, 1e-8)
        else:
            sd_alpha = 1.0

        iterations += 1
        y = g_new - g
        x, f, g = x_new, f_new, g_new
        if f <= stop_value:
            return OptResult(x, f, iterations, OptStatus.TOLERANCE_REACHED)

        step = max(map(abs, s.tolist()))
        proj_grad = max(map(abs, (np.clip(x - g, lo, hi) - x).tolist()))
        if step <= STALL_TOL and proj_grad <= STALL_TOL:
            return OptResult(x, f, iterations, OptStatus.STALLED)

        # bound-frozen components did not move; their gradient change is
        # cross-coupling, not curvature along the step, and would corrupt
        # the free-subspace model
        y_eff = np.where(s == 0.0, 0.0, y)
        sy = float(np.dot(s, y_eff))
        if sy > 1e-12 * norm(s) * norm(y_eff):
            if fresh_h:
                # scale the unit model to the observed curvature before
                # the first update after a reset
                H = (sy / float(np.dot(y_eff, y_eff))) * eye
                fresh_h = False
            rho = 1.0 / sy
            V = eye - rho * (s[:, None] * y_eff)
            H = V @ H @ V.T + rho * (s[:, None] * s)
        else:
            # curvature update would lose positive definiteness
            H = eye
            fresh_h = True

    return OptResult(x, f, iterations, OptStatus.ITERATION_CAP)
