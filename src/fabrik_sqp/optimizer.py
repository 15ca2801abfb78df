"""Box-constrained least-squares minimizer: the paper's SQP stage.

Drives the reduced chain's end onto its target by minimizing the
squared distance f = |r|^2, r = p - target, over the joint box with
projected Levenberg-Marquardt steps (Sugihara 2011): on the variables
not held at a bound by their gradient, solve the damped normal
equations (J^T J + mu I) d = -J^T r, clip x + d to the box and keep it
if f drops. An accepted step divides the damping mu by 10 and a
rejected one multiplies it by 10, so the step moves between
Gauss-Newton and a short gradient step; on the KUKA's rank-3 J^T J it
is the damped-least-squares step. `minimize` takes the chain end's
position map, the target, the start and the box; it clips the start
into the box and checks nothing but the values it computes. It runs on
Python floats and returns x as a float tuple. Its sums are `math.fsum`s,
which round the exact sum once, so no order of their terms moves a bit.
"""
from __future__ import annotations

import enum
import math
from math import fsum
from operator import add, mul, sub
from typing import NamedTuple

MAX_ITERS = 200  # accepted steps per run
MU_INIT = 1e-3  # the first damping, relative to the largest diagonal entry of J^T J
MU_MIN = 1e-15
MU_MAX = 1e16  # damping beyond this: no step lowers f, the run is STALLED


class OptStatus(enum.Enum):
    TOLERANCE_REACHED = "tolerance_reached"
    STALLED = "stalled"
    ITERATION_CAP = "iteration_cap"


class NonFiniteObjectiveError(RuntimeError):
    """The squared distance or its gradient is non-finite."""

    def __init__(self, x):
        self.x = tuple(x)
        super().__init__(f"objective returned a non-finite value at x={list(self.x)}")


class OptResult(NamedTuple):
    x: tuple
    f: float
    iterations: int
    status: OptStatus


def _clip(v, box) -> None:
    """Clip v's entries in `box`, (index, lo, hi) rows, into [lo, hi] in place, the
    bound kept where it ties (a signed zero takes the bound's sign); a NaN stays NaN."""
    for j, lo, hi in box:
        a = v[j]
        a = lo if lo >= a else a
        v[j] = hi if hi <= a else a


def _damped_step(low, g, mu):
    """d solving (A + mu I) d = -g by Cholesky, A given by its lower
    triangle `low` (row i holds i + 1 entries), or None when A + mu I is
    not numerically positive definite."""
    chol = []  # the rows of L
    for i, row in enumerate(low):
        li = []
        for j, lj in enumerate(chol):
            s = row[j]
            for m in range(j):
                s -= li[m] * lj[m]
            li.append(s / lj[j])
        s = row[i] + mu
        for a in li:
            s -= a * a
        if not s > 0.0:
            return None
        li.append(math.sqrt(s))
        chol.append(li)
    d = []
    for i, li in enumerate(chol):  # L y = -g
        s = -g[i]
        for m in range(i):
            s -= li[m] * d[m]
        d.append(s / li[i])
    for i in reversed(range(len(d))):  # L^T d = y
        s = d[i]
        for m in range(i + 1, len(d)):
            s -= chol[m][i] * d[m]
        d[i] = s / chol[i][i]
    return d


def _residual(position, x, target):
    """f = |r|^2, r = p - target, and the jacobian at x, or the error of a non-finite f."""
    p, jac = position(x)
    r = list(map(sub, p, target))
    f = fsum(map(mul, r, r))
    if not math.isfinite(f):
        raise NonFiniteObjectiveError(x)
    return f, r, jac


def minimize(position, target, x0, bounds, stop_value: float) -> OptResult:
    """Drive f = |p - target|^2 to f <= stop_value inside the box.

    position(x), x a list of n floats, returns the chain end p, m
    floats, and its jacobian J, m rows of n floats. bounds holds n rows
    lo <= hi, infinite for an unbounded variable; x0 is clipped into it.
    The box is read once: a variable whose bounds are both infinite is
    never clipped (that moves no float) nor held at a bound.
    Returns the first iterate reaching stop_value (only an exact zero
    reaches 0), or Stalled when every variable is held at a bound or no
    step damped by at most MU_MAX lowers f, or IterationCap after
    MAX_ITERS accepted steps.
    """
    box = []  # (index, lo, hi) of each variable with a finite bound
    for j, (lo, hi) in enumerate(bounds):
        lo, hi = float(lo), float(hi)
        if lo > -math.inf or hi < math.inf:
            box.append((j, lo, hi))
    tl = [float(t) for t in target]
    x = [float(v) for v, _ in zip(x0, bounds)]
    _clip(x, box)
    f, r, jac = _residual(position, x, tl)
    mu = None
    iterations = 0
    while f > stop_value:
        if iterations == MAX_ITERS:
            return OptResult(tuple(x), f, iterations, OptStatus.ITERATION_CAP)
        cols = list(zip(*jac))
        g = [fsum(map(mul, c, r)) for c in cols]
        if not all(map(math.isfinite, g)):
            raise NonFiniteObjectiveError(x)
        # a variable at a bound whose descent direction -g points out of
        # the box stays there for this step
        held = [j for j, lo, hi in box if (x[j] <= lo and g[j] > 0.0) or (x[j] >= hi and g[j] < 0.0)]
        free = None  # no variable is held
        if held:
            if len(held) == len(x):
                break
            free = [j for j in range(len(x)) if j not in held]
            cols, g = [cols[j] for j in free], [g[j] for j in free]
        a = [[fsum(map(mul, ci, cj)) for cj in cols[:i + 1]] for i, ci in enumerate(cols)]
        if mu is None:
            mu = max(MU_INIT * max(row[-1] for row in a), MU_MIN)
        while True:
            d = _damped_step(a, g, mu)
            if d is not None:
                if free is None:
                    trial = list(map(add, x, d))
                else:
                    trial = list(x)
                    for j, dj in zip(free, d):
                        trial[j] += dj
                _clip(trial, box)
                f_new, r_new, jac_new = _residual(position, trial, tl)
                if f_new < f:
                    break
            mu *= 10.0
            if mu > MU_MAX:
                return OptResult(tuple(x), f, iterations, OptStatus.STALLED)
        x, f, r, jac = trial, f_new, r_new, jac_new
        mu = max(mu / 10.0, MU_MIN)
        iterations += 1
    status = OptStatus.TOLERANCE_REACHED if f <= stop_value else OptStatus.STALLED
    return OptResult(tuple(x), f, iterations, status)
