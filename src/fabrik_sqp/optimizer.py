"""Box-constrained least-squares minimizer: the paper's SQP stage.

Drives the reduced chain's end onto its target by minimizing the
squared distance over the joint box with a small projected-BFGS engine:
inverse-Hessian updates from gradient differences, Armijo backtracking
on the projected step path (the trial point is clipped to the box, so
steps slide along active bounds and the position map is never evaluated
outside it). `minimize` takes the chain end's position map, the target,
the start and the box; it clips the start into the box and checks
nothing but the values it computes. Its iterates are lists of floats,
which the position maps read as they are; the returned x is the one
ndarray built from them.
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
    """f, g and g's floats at x, a list of floats."""
    p, jac = position(x)
    diff = p - target
    f = float(diff.dot(diff))
    g = 2.0 * jac.T.dot(diff)
    gl = g.tolist()
    if not math.isfinite(f) or not all(map(math.isfinite, gl)):
        raise NonFiniteObjectiveError(x)
    return f, g, gl


def _clip(v, lo, hi):
    """np.clip(v, lo, hi) on floats, signed zeros and NaN alike."""
    out = []
    for a, lo_i, hi_i in zip(v, lo, hi):
        a = lo_i if lo_i >= a else a
        out.append(hi_i if hi_i <= a else a)
    return out


def _freeze(d, x, lo, hi):
    """Zero direction components that push out of an active bound."""
    return [
        0.0 if (xi <= lo_i and di < 0.0) or (xi >= hi_i and di > 0.0) else di
        for di, xi, lo_i, hi_i in zip(d, x, lo, hi)
    ]


def minimize(position, target, x0, bounds, stop_value: float) -> OptResult:
    """Drive f = |p - target|^2 to f <= stop_value inside the box.

    position(x), x a list of n floats, returns the chain end p, an (m,)
    array, and its (m, n) jacobian J; the gradient is 2 J^T (p - target). bounds is an (n, 2)
    array of rows lo <= hi, such as a model's joint limits; x0 is
    clipped into it. Returns the first iterate reaching stop_value (only
    an exact zero reaches 0), or Stalled when no progress is possible
    (projected gradient and step below 1e-12), or IterationCap after
    MAX_ITERS accepted steps.

    An ndarray is built only for an operand of a BLAS reduction (the
    geometry module's rounding rule) and for the returned x.
    """
    lo, hi = np.asarray(bounds, dtype=float).T.tolist()
    n = len(lo)

    xl = _clip(np.asarray(x0, dtype=float).tolist(), lo, hi)
    f, g, gl = _evaluate(position, target, xl)
    if f <= stop_value:
        return OptResult(np.array(xl), f, 0, OptStatus.TOLERANCE_REACHED)

    eye = np.eye(n)  # never mutated: H is only ever rebound
    eye_rows = eye.tolist()
    H = eye
    fresh_h = True
    sd_alpha = 1.0  # step memory for the gradient fallback mode
    prev_active = None
    iterations = 0
    while iterations < MAX_ITERS:
        # curvature gathered under one active set misleads the next:
        # restart the model whenever a bound activates or releases
        active = [
            (xi <= lo_i and gi > 0.0) or (xi >= hi_i and gi < 0.0)
            for xi, gi, lo_i, hi_i in zip(xl, gl, lo, hi)
        ]
        if prev_active is not None and active != prev_active:
            H = eye
            fresh_h = True
        prev_active = active

        dl = _freeze([-v for v in H.dot(g).tolist()], xl, lo, hi)
        d = np.array(dl)
        descent = float(g.dot(d))
        if descent >= 0.0 or not all(map(math.isfinite, dl)):
            # curvature model unusable here: projected steepest descent
            H = eye
            fresh_h = True
            dl = _freeze([-v for v in gl], xl, lo, hi)
        if max(map(abs, dl), default=0.0) <= STALL_TOL:
            return OptResult(np.array(xl), f, iterations, OptStatus.STALLED)

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
            xl_new = _clip([xi + alpha * di for xi, di in zip(xl, dl)], lo, hi)
            sl = [a - b for a, b in zip(xl_new, xl)]
            if max(map(abs, sl), default=0.0) <= 1e-17:
                break
            s = np.array(sl)
            gs = float(g.dot(s))
            f_new, g_new, gl_new = _evaluate(position, target, xl_new)
            if gs < 0.0 and f_new <= f + ARMIJO_C * gs:
                accepted = True
                break
            alpha *= SHRINK
            first_try = False
        if not accepted:
            return OptResult(np.array(xl), f, iterations, OptStatus.STALLED)
        if fresh_h:
            sd_alpha = min(alpha * 2.0, 1e8) if first_try else max(alpha, 1e-8)
        else:
            sd_alpha = 1.0

        iterations += 1
        # bound-frozen components did not move; their gradient change is
        # cross-coupling, not curvature along the step, and would corrupt
        # the free-subspace model
        yl = [0.0 if si == 0.0 else a - b for si, a, b in zip(sl, gl_new, gl)]
        xl, f, g, gl = xl_new, f_new, g_new, gl_new
        if f <= stop_value:
            return OptResult(np.array(xl), f, iterations, OptStatus.TOLERANCE_REACHED)

        step = max(map(abs, sl))
        proj_grad = max(
            abs(a - b) for a, b in zip(_clip([xi - gi for xi, gi in zip(xl, gl)], lo, hi), xl)
        )
        if step <= STALL_TOL and proj_grad <= STALL_TOL:
            return OptResult(np.array(xl), f, iterations, OptStatus.STALLED)

        y_eff = np.array(yl)
        sy = float(s.dot(y_eff))
        if sy > 1e-12 * norm(s) * norm(y_eff):
            if fresh_h:
                # scale the unit model to the observed curvature before
                # the first update after a reset
                H = (sy / float(y_eff.dot(y_eff))) * eye
                fresh_h = False
            rho = 1.0 / sy
            V = np.array([
                [e - rho * (si * yj) for e, yj in zip(row, yl)]
                for row, si in zip(eye_rows, sl)
            ])
            H = np.array([
                [h + rho * (si * sj) for h, sj in zip(row, sl)]
                for row, si in zip(V.dot(H).dot(V.T).tolist(), sl)
            ])
        else:
            # curvature update would lose positive definiteness
            H = eye
            fresh_h = True

    return OptResult(np.array(xl), f, iterations, OptStatus.ITERATION_CAP)
