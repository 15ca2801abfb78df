import math
from functools import partial

import numpy as np
import pytest

from fabrik_sqp import optimizer
from fabrik_sqp.kuka import wrist_analytic
from fabrik_sqp.optimizer import (
    NonFiniteObjectiveError,
    OptResult,
    OptStatus,
    minimize,
)
from fabrik_sqp.ur5 import elbow_analytic


def identity(x):
    """Position map p = x: minimize drives x onto the target."""
    return x, np.eye(len(x))


def rosenbrock_residual(x):
    """r = (1 - x0, 10 (x1 - x0^2)), whose |r|^2 is Rosenbrock's function."""
    r = np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])
    return r, np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])


def rosenbrock(x):
    r, _ = rosenbrock_residual(x)
    return float(r @ r)


ORIGIN = np.zeros(2)
BOX = np.array([[-2.0, 2.0], [-2.0, 2.0]])


class TestMinimize:
    def test_interior_quadratic(self):
        result = minimize(identity, np.array([1.0]), np.array([0.0]), np.array([[0.0, 2.0]]), 1e-12)
        assert result.status is OptStatus.TOLERANCE_REACHED
        assert result.f <= 1e-12
        assert result.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_bound_active_minimum(self):
        # unconstrained minimum at -1 sits outside [0, 2]
        result = minimize(identity, np.array([-1.0]), np.array([1.0]), np.array([[0.0, 2.0]]), 1e-12)
        assert result.status is OptStatus.STALLED
        assert result.x[0] == 0.0
        assert result.f == pytest.approx(1.0, abs=1e-12)

    def test_rosenbrock(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 500)
        result = minimize(rosenbrock_residual, ORIGIN, np.array([-1.2, 1.0]), BOX, 1e-14)
        assert result.status is OptStatus.TOLERANCE_REACHED
        assert np.allclose(result.x, [1.0, 1.0], atol=1e-6)
        # dense grid refinement cross-check: nothing on a local grid beats it
        grid = np.linspace(-0.02, 0.02, 21)
        best_grid = min(
            rosenbrock(result.x + np.array([dx, dy])) for dx in grid for dy in grid
        )
        assert result.f <= best_grid + 1e-14

    def test_already_at_tolerance_returns_zero_iterations(self):
        result = minimize(identity, np.array([0.5]), np.array([0.5]), np.array([[0.0, 2.0]]), 1e-9)
        assert result.iterations == 0
        assert result.status is OptStatus.TOLERANCE_REACHED

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 3)
        result = minimize(rosenbrock_residual, ORIGIN, np.array([-1.2, 1.0]), BOX, 1e-18)
        assert result.status is OptStatus.ITERATION_CAP
        assert result.iterations == 3

    def test_x0_outside_bounds_starts_from_the_clipped_x0(self):
        evals = []

        def position(x):
            evals.append(np.array(x))
            return identity(x)

        result = minimize(position, ORIGIN, np.array([2.0, -3.0]), np.array([[0.0, 1.0], [-1.0, 1.0]]), 1e-12)
        assert np.array_equal(evals[0], [1.0, -1.0])
        assert result.status is OptStatus.TOLERANCE_REACHED
        assert np.all(result.x >= [0.0, -1.0]) and np.all(result.x <= [1.0, 1.0])

    def test_non_finite_objective_reports_x(self):
        def bad(x):
            return np.array([math.nan]), np.eye(1)

        with pytest.raises(NonFiniteObjectiveError) as info:
            minimize(bad, np.zeros(1), np.array([0.5]), np.array([[-1.0, 1.0]]), 1e-9)
        assert info.value.x.shape == (1,)

    def test_results_own_their_x(self):
        # the iterates are float lists; each result builds its own x
        a = minimize(identity, np.array([1.0, -1.0]), ORIGIN, BOX, 1e-12)
        b = minimize(identity, np.array([1.0, -1.0]), ORIGIN, BOX, 1e-12)
        c = minimize(rosenbrock_residual, ORIGIN, np.array([-1.2, 1.0]), BOX, 1e-14)
        assert a.iterations >= 1
        for x, y in ((a.x, b.x), (a.x, c.x), (b.x, c.x)):
            assert not np.shares_memory(x, y)

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 500)
        a = minimize(rosenbrock_residual, ORIGIN, np.array([-1.2, 1.0]), BOX, 1e-14)
        b = minimize(rosenbrock_residual, ORIGIN, np.array([-1.2, 1.0]), BOX, 1e-14)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)


class TestMinimizeProperties:
    """Monotone acceptance and box feasibility over random problems."""

    def random_problem(self, rng):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        h = a @ a.T + n * np.eye(n)  # well-conditioned PSD quadratic
        center = rng.normal(size=n) * 1.5
        lo = center - rng.uniform(0.1, 3.0, n) * rng.choice([0.1, 1.0, 3.0])
        hi = lo + rng.uniform(0.5, 4.0, n)
        x0 = rng.uniform(lo, hi)

        # 0.5 d^T h d = |L^T d|^2 / 2 with h = L L^T: the position map
        # p = L^T x / sqrt(2) aimed at L^T center / sqrt(2)
        root = np.linalg.cholesky(h).T / math.sqrt(2.0)

        def value(x):
            d = x - center
            return float(0.5 * d @ h @ d)

        def position(x):
            return root @ x, root

        return np.column_stack([lo, hi]), x0, value, position, root @ center

    def test_monotone_acceptance_and_feasibility(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 300)
        rng = np.random.default_rng(13)
        for _ in range(100):
            bounds, x0, value, position, target = self.random_problem(rng)
            evals = []
            accepted = []

            def wrapped(x, position=position, evals=evals):
                evals.append(np.array(x))
                return position(x)

            result = minimize(wrapped, target, x0, bounds, 1e-14)
            # every evaluated point inside the box, componentwise
            lo, hi = bounds[:, 0], bounds[:, 1]
            for x in evals:
                assert np.all(x >= lo) and np.all(x <= hi)
            # result inside the box
            assert np.all(result.x >= lo) and np.all(result.x <= hi)
            # accepted objective values are non-increasing: replay the
            # accepted iterates by running again and recording f at
            # strictly improving evaluations
            fs = [value(x) for x in evals]
            best = math.inf
            accepted = []
            for f in fs:
                if f < best:
                    best = f
                    accepted.append(f)
            assert all(b <= a for a, b in zip(accepted, accepted[1:]))
            # PSD quadratic on a box always ends at tolerance or a KKT stall
            assert result.status in (OptStatus.TOLERANCE_REACHED, OptStatus.STALLED)


# --- the ndarray minimizer, kept as the oracle of `minimize` ----------------
# The body as it was written on numpy arrays, before the iterates moved to
# Python floats. Both make the same BLAS calls on the same operands (the
# dots, `jac.T @ diff`, `H @ g` and `V @ H @ V.T`), so `minimize` must give
# the same bits under any BLAS kernel.

def _np_evaluate(position, target, x):
    p, jac = position(x)
    diff = p - target
    f = float(diff.dot(diff))
    g = 2.0 * (jac.T @ diff)
    if not math.isfinite(f) or not all(map(math.isfinite, g.tolist())):
        raise NonFiniteObjectiveError(x)
    return f, g


def _np_freeze(d, x, lo, hi):
    d = d.copy()
    d[(x <= lo) & (d < 0.0)] = 0.0
    d[(x >= hi) & (d > 0.0)] = 0.0
    return d


def _np_minimize(position, target, x0, bounds, stop_value):
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    n = lo.shape[0]
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = _np_evaluate(position, target, x)
    if f <= stop_value:
        return OptResult(x, f, 0, OptStatus.TOLERANCE_REACHED)
    eye = np.eye(n)
    H = eye
    fresh_h = True
    sd_alpha = 1.0
    prev_active = None
    iterations = 0
    while iterations < optimizer.MAX_ITERS:
        active = (((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))).tolist()
        if prev_active is not None and active != prev_active:
            H = eye
            fresh_h = True
        prev_active = active
        d = _np_freeze(-(H @ g), x, lo, hi)
        descent = float(np.dot(g, d))
        if descent >= 0.0 or not all(map(math.isfinite, d.tolist())):
            H = eye
            fresh_h = True
            d = _np_freeze(-g, x, lo, hi)
        if max(map(abs, d.tolist()), default=0.0) <= optimizer.STALL_TOL:
            return OptResult(x, f, iterations, OptStatus.STALLED)
        alpha = sd_alpha if fresh_h else 1.0
        accepted = False
        first_try = True
        for _ in range(optimizer._MAX_BACKTRACKS):
            x_new = np.clip(x + alpha * d, lo, hi)
            s = x_new - x
            if max(map(abs, s.tolist()), default=0.0) <= 1e-17:
                break
            gs = float(np.dot(g, s))
            f_new, g_new = _np_evaluate(position, target, x_new)
            if gs < 0.0 and f_new <= f + optimizer.ARMIJO_C * gs:
                accepted = True
                break
            alpha *= optimizer.SHRINK
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
        if step <= optimizer.STALL_TOL and proj_grad <= optimizer.STALL_TOL:
            return OptResult(x, f, iterations, OptStatus.STALLED)
        y_eff = np.where(s == 0.0, 0.0, y)
        sy = float(np.dot(s, y_eff))
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y_eff)):
            if fresh_h:
                H = (sy / float(np.dot(y_eff, y_eff))) * eye
                fresh_h = False
            rho = 1.0 / sy
            V = eye - rho * (s[:, None] * y_eff)
            H = V @ H @ V.T + rho * (s[:, None] * s)
        else:
            H = eye
            fresh_h = True
    return OptResult(x, f, iterations, OptStatus.ITERATION_CAP)


@pytest.mark.blas_oracle
class TestMinimizeAgainstNumpyBody:
    """`minimize` against the ndarray body: the same x bytes, f,
    iterations and status, and the same evaluated points."""

    @staticmethod
    def assert_same(position, target, x0, bounds, stop_value):
        seen = ([], [])

        def recorder(k):
            def wrapped(x):
                seen[k].append(np.asarray(x, dtype=float).tobytes())
                return position(x)
            return wrapped

        ours = minimize(recorder(0), target, x0, bounds, stop_value)
        oracle = _np_minimize(recorder(1), target, x0, bounds, stop_value)
        # an object jacobian makes the oracle's iterates object arrays
        assert ours.x.tobytes() == np.asarray(oracle.x, dtype=float).tobytes()
        assert np.array(ours.f).tobytes() == np.array(oracle.f).tobytes()
        assert (ours.iterations, ours.status) == (oracle.iterations, oracle.status)
        assert seen[0] == seen[1]
        return ours

    @staticmethod
    def box_problem(rng):
        """A random linear or sine-warped map on a 1-4 dimensional box,
        started up to a box width outside it."""
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, n + 3))
        a = rng.normal(size=(m, n))
        warp = bool(rng.integers(0, 2))

        def position(x):
            if warp:  # p = A sin(x): curvature of both signs
                return a @ np.sin(x), a * np.cos(x)
            return a @ x, a

        lo = rng.normal(size=n) * 2.0
        hi = lo + rng.uniform(0.1, 3.0, n)
        x0 = rng.uniform(lo - (hi - lo), hi + (hi - lo))
        target = a @ rng.normal(size=n) * 2.0
        return position, target, x0, np.column_stack([lo, hi])

    def test_seeded_box_problems(self):
        rng = np.random.default_rng(31)
        statuses = set()
        for k in range(400):
            position, target, x0, bounds = self.box_problem(rng)
            stop = 0.0 if k % 2 else 1e-10
            statuses.add(self.assert_same(position, target, x0, bounds, stop).status)
        # the 200-iteration cap is met here only now and then, depending on
        # the BLAS kernel's rounding; `test_iteration_cap` forces it
        assert {OptStatus.TOLERANCE_REACHED, OptStatus.STALLED} <= statuses

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 4)
        rng = np.random.default_rng(32)
        for _ in range(50):
            position, target, x0, bounds = self.box_problem(rng)
            self.assert_same(position, target, x0, bounds, 0.0)
        result = self.assert_same(rosenbrock_residual, ORIGIN, np.array([-1.2, 1.0]), BOX, 0.0)
        assert result.status is OptStatus.ITERATION_CAP

    def test_ur5_elbow_map(self, ur5_model):
        rng = np.random.default_rng(33)
        bounds = ur5_model.joint_limits[1:3]
        for k in range(60):
            theta1 = float(rng.uniform(-math.pi, math.pi))
            position = partial(elbow_analytic, theta1=theta1, model=ur5_model)
            target, _ = position(rng.uniform(-math.pi, math.pi, 2))
            if k % 3 == 0:  # beyond the reach: ends in a stall
                target = target * 3.0
            seeds = tuple(rng.uniform(-math.pi, math.pi, 2).tolist())
            self.assert_same(position, target, seeds, bounds, 1e-12)

    def test_kuka_wrist_map(self, kuka_model):
        rng = np.random.default_rng(34)
        bounds = kuka_model.joint_limits[:4]
        position = partial(wrist_analytic, model=kuka_model)
        for k in range(40):
            target, _ = position(rng.uniform(-2.0, 2.0, 4))
            if k % 4 == 0:
                target = target * 3.0
            self.assert_same(position, target, rng.uniform(-2.0, 2.0, 4), bounds, 1e-12)

    def test_signed_zero_bounds(self):
        # np.clip keeps the bound when x equals it: +0.0 over a -0.0 start
        # at lo = 0.0, and -0.0 over a +0.0 start at hi = -0.0
        bounds = np.array([[0.0, 1.0], [-1.0, -0.0]])
        result = self.assert_same(identity, np.array([0.5, -0.5]), np.array([-0.0, 0.0]), bounds, 0.0)
        assert result.status is OptStatus.TOLERANCE_REACHED
        for x0 in ([-0.0, 0.0], [-3.0, 2.0], [0.0, -0.0]):
            self.assert_same(identity, np.array([-0.5, 0.5]), np.array(x0), bounds, 0.0)

    def test_negative_zero_gradient_component(self):
        # BLAS sums start from +0.0, so an object jacobian brings the -0.0
        # in: its zero column times the negative offsets sums to -0.0.
        # `H @ g` turns that entry into +0.0 where `g` itself would not,
        # and the step keeps x[0] at -0.0 only through `H @ g`.
        jac = np.array([[0.0, -1.0], [0.0, -1.0]], dtype=object)

        def position(x):
            return np.array([-x[1], -x[1]]), jac

        x0 = np.array([-0.0, 0.5])
        target = np.zeros(2)
        p, _ = position(x0)
        assert math.copysign(1.0, 2.0 * (jac.T @ (p - target))[0]) == -1.0
        result = self.assert_same(position, target, x0, BOX, 0.0)
        assert result.iterations >= 1
        assert math.copysign(1.0, result.x[0]) == -1.0
