import math

import numpy as np
import pytest

from fabrik_sqp import optimizer
from fabrik_sqp.optimizer import (
    NonFiniteObjectiveError,
    OptResult,
    OptStatus,
    minimize,
)


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
