import math

import numpy as np
import pytest

from fabrik_sqp import optimizer
from fabrik_sqp.kuka import wrist_analytic
from fabrik_sqp.optimizer import NonFiniteObjectiveError, OptResult, OptStatus, minimize
from fabrik_sqp.ur5 import elbow_analytic


def identity(x):
    """Position map p = x: minimize drives x onto the target."""
    return list(x), np.eye(len(x)).tolist()


def rosenbrock_residual(x):
    """r = (1 - x0, 10 (x1 - x0^2)), whose |r|^2 is Rosenbrock's function."""
    r = [1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)]
    return r, [[-1.0, 0.0], [-20.0 * x[0], 10.0]]


def rosenbrock(x):
    r, _ = rosenbrock_residual(x)
    return float(np.dot(r, r))


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
        x = np.array(result.x)
        assert np.all(x >= [0.0, -1.0]) and np.all(x <= [1.0, 1.0])

    def test_clip_keeps_the_bound_on_signed_zeros(self):
        # as np.clip: +0.0 over a -0.0 start at lo = 0.0, and -0.0 over a
        # +0.0 start at hi = -0.0
        evals = []

        def position(x):
            evals.append(list(x))
            return identity(x)

        bounds = np.array([[0.0, 1.0], [-1.0, -0.0]])
        result = minimize(position, np.array([0.5, -0.5]), np.array([-0.0, 0.0]), bounds, 0.0)
        assert [math.copysign(1.0, v) for v in evals[0]] == [1.0, -1.0]
        assert np.array_equal(evals[0], np.clip([-0.0, 0.0], bounds[:, 0], bounds[:, 1]))
        assert result.status is OptStatus.TOLERANCE_REACHED

    def test_non_finite_objective_reports_x(self):
        def bad(x):
            return [math.nan], [[1.0]]

        with pytest.raises(NonFiniteObjectiveError) as info:
            minimize(bad, np.zeros(1), np.array([0.5]), np.array([[-1.0, 1.0]]), 1e-9)
        assert np.array(info.value.x).shape == (1,)

    def test_results_own_their_x(self):
        # the iterates are float lists; each result holds its own x, a float tuple
        a = minimize(identity, np.array([1.0, -1.0]), ORIGIN, BOX, 1e-12)
        b = minimize(identity, np.array([1.0, -1.0]), ORIGIN, BOX, 1e-12)
        c = minimize(rosenbrock_residual, ORIGIN, np.array([-1.2, 1.0]), BOX, 1e-14)
        assert a.iterations >= 1
        for x, y in ((a.x, b.x), (a.x, c.x), (b.x, c.x)):
            assert not np.shares_memory(x, y)
        for x in (a.x, b.x, c.x):
            assert type(x) is tuple and all(type(v) is float for v in x)

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
            return (root @ np.asarray(x)).tolist(), root.tolist()

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


class TestDampedStep:
    """One accepted step solves the damped normal equations
    (J^T J + mu I) d = -J^T r on the variables not held at a bound."""

    def test_first_step_solves_the_damped_normal_equations(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
        rng = np.random.default_rng(41)
        for k in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(max(1, n - 1), n + 3))  # the KUKA's 3x4 included
            jac = rng.normal(size=(m, n))
            x0 = rng.normal(size=n)
            target = rng.normal(size=m) * 3.0
            g = jac.T @ (jac @ x0 - target)
            # one variable, when n > 1, at a bound its gradient pushes against
            lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
            held = int(rng.integers(0, n)) if n > 1 and k % 2 else None
            if held is not None:
                (lo if g[held] > 0.0 else hi)[held] = x0[held]
            free = [j for j in range(n) if j != held]
            a = jac[:, free].T @ jac[:, free]
            mu = optimizer.MU_INIT * float(np.max(np.diag(a)))
            want = x0.copy()
            want[free] += np.linalg.solve(a + mu * np.eye(len(free)), -g[free])
            evals = []

            def position(x, jac=jac, evals=evals):
                evals.append(list(x))
                return (jac @ np.asarray(x)).tolist(), jac.tolist()

            result = minimize(position, target, x0, np.column_stack([lo, hi]), 0.0)
            assert len(evals) == 2  # x0, then the first trial, accepted
            assert result.iterations == 1
            step = want - x0
            assert np.linalg.norm(result.x - want) <= 1e-12 * np.linalg.norm(step)
            if held is not None:
                assert result.x[held] == x0[held]


class TestMinimizeOnSeededProblems:
    """Box feasibility, monotone acceptance and the stop on seeded
    problems, the robots' position maps included."""

    @staticmethod
    def run(position, target, x0, bounds, stop_value):
        """The result, with every evaluated point inside the box and the
        accepted values of f strictly falling."""
        evals = []

        def recorded(x):
            p, jac = position(x)
            # f correctly rounded, as the optimizer sums it
            evals.append((list(x), math.fsum(v * v for v in np.subtract(p, target).tolist())))
            return p, jac

        result = minimize(recorded, target, x0, bounds, stop_value)
        lo, hi = np.asarray(bounds, dtype=float).T
        for x, _ in evals:
            assert np.all(x >= lo) and np.all(x <= hi)
        kept = [f for i, (_, f) in enumerate(evals) if f < min((e[1] for e in evals[:i]), default=math.inf)]
        assert len(kept) == result.iterations + 1
        assert result.f == kept[-1]
        return result

    @staticmethod
    def box_problem(rng):
        """A random linear or sine-warped map on a 1-4 dimensional box,
        started up to a box width outside it."""
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, n + 3))
        a = rng.normal(size=(m, n))
        warp = bool(rng.integers(0, 2))

        def position(x):
            x = np.asarray(x)
            if warp:  # p = A sin(x): curvature of both signs
                return (a @ np.sin(x)).tolist(), (a * np.cos(x)).tolist()
            return (a @ x).tolist(), a.tolist()

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
            result = self.run(position, target, x0, bounds, 0.0 if k % 2 else 1e-10)
            statuses.add(result.status)
            if result.status is OptStatus.STALLED:
                # a stall is a stationary point on the box
                p, jac = position(result.x)
                g = np.array(jac).T @ (np.array(p) - target)
                projected = np.clip(result.x - g, bounds[:, 0], bounds[:, 1]) - result.x
                assert np.max(np.abs(projected)) <= 1e-5
        assert {OptStatus.TOLERANCE_REACHED, OptStatus.STALLED} <= statuses

    def test_ur5_elbow_map(self, ur5_model):
        rng = np.random.default_rng(33)
        for k in range(60):
            theta1 = float(rng.uniform(-math.pi, math.pi))
            position = elbow_analytic(theta1, ur5_model)
            target = np.array(position(rng.uniform(-math.pi, math.pi, 2))[0])
            if k % 3 == 0:  # mostly beyond the reach
                target = target * 3.0
            seeds = tuple(rng.uniform(-math.pi, math.pi, 2).tolist())
            result = self.run(position, target, seeds, ur5_model.optimizer_box[1:3], 1e-12)
            if k % 3:
                assert result.status is OptStatus.TOLERANCE_REACHED

    def test_kuka_wrist_map(self, kuka_model):
        rng = np.random.default_rng(34)
        position = wrist_analytic(kuka_model)
        for k in range(40):
            target = np.array(position(rng.uniform(-2.0, 2.0, 4))[0])
            if k % 4 == 0:
                target = target * 3.0
            result = self.run(position, target, rng.uniform(-2.0, 2.0, 4), kuka_model.optimizer_box[:4], 1e-12)
            if k % 4:
                assert result.status is OptStatus.TOLERANCE_REACHED



class TestOpenBox:
    """A variable whose bounds are both infinite is never clipped nor held:
    its run takes the same steps, bit for bit, as under a finite box that
    never binds."""

    @staticmethod
    def bits(result) -> tuple:
        return np.array(result.x).tobytes(), np.float64(result.f).tobytes(), result.iterations, result.status

    def assert_same_under_a_wide_box(self, position, target, x0):
        evals = []

        def recorded(x):
            evals.append(list(x))
            return position(x)

        n = len(x0)
        open_run = minimize(recorded, target, x0, [(-math.inf, math.inf)] * n, 1e-12)
        reached = np.array(evals)
        # every point the open run evaluated lies strictly inside this box
        bounds = np.column_stack([reached.min(axis=0) - 1.0, reached.max(axis=0) + 1.0])
        evals.clear()
        boxed_run = minimize(recorded, target, x0, bounds, 1e-12)
        assert np.array(evals).tobytes() == reached.tobytes()
        assert self.bits(boxed_run) == self.bits(open_run)
        return open_run

    def test_robot_maps(self, ur5_model, kuka_model):
        rng = np.random.default_rng(35)
        statuses = set()
        for k in range(60):
            theta1 = float(rng.uniform(-math.pi, math.pi))
            maps = ((elbow_analytic(theta1, ur5_model), 2), (wrist_analytic(kuka_model), 4))
            for position, n in maps:
                target = np.array(position(rng.uniform(-2.0, 2.0, n).tolist())[0])
                if k % 3 == 0:  # mostly beyond the reach
                    target = target * 3.0
                x0 = rng.uniform(-2.0, 2.0, n).tolist()
                statuses.add(self.assert_same_under_a_wide_box(position, target, x0).status)
        assert {OptStatus.TOLERANCE_REACHED, OptStatus.STALLED} <= statuses

    def test_seeded_linear_and_sine_maps(self):
        rng = np.random.default_rng(36)
        for k in range(100):
            n = 2 if k % 2 else 4
            a = rng.normal(size=(3, n))
            if k % 4 < 2:  # p = A sin(x)
                def position(x, a=a):
                    return (a @ np.sin(x)).tolist(), (a * np.cos(x)).tolist()
            else:
                def position(x, a=a):
                    return (a @ np.asarray(x)).tolist(), a.tolist()
            target = a @ rng.normal(size=n) * 2.0
            self.assert_same_under_a_wide_box(position, target, rng.normal(size=n).tolist())


def _np_minimize(position, target, x0, bounds, stop_value):
    """The damped loop of `minimize` on ndarrays: `np.clip` for the box,
    BLAS products for g and J^T J, `np.linalg` for the damped step.
    Returns the result and the accepted (x, f), the clipped x0 first."""
    lo, hi = bounds[:, 0], bounds[:, 1]

    def evaluate(x):
        p, jac = position(x.tolist())
        r = np.asarray(p, dtype=float) - target
        return float(r @ r), r, np.asarray(jac, dtype=float)

    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, r, jac = evaluate(x)
    path = [(x, f)]
    mu = None
    while f > stop_value:
        if len(path) - 1 == optimizer.MAX_ITERS:
            return OptResult(x, f, len(path) - 1, OptStatus.ITERATION_CAP), path
        g = jac.T @ r
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        if not free.any():
            break
        a = jac[:, free].T @ jac[:, free]
        if mu is None:
            mu = max(optimizer.MU_INIT * float(np.max(np.diag(a))), optimizer.MU_MIN)
        while True:
            damped = a + mu * np.eye(len(a))
            try:
                np.linalg.cholesky(damped)
            except np.linalg.LinAlgError:
                pass
            else:
                trial = x.copy()
                trial[free] += np.linalg.solve(damped, -g[free])
                trial = np.clip(trial, lo, hi)
                f_new, r_new, jac_new = evaluate(trial)
                if f_new < f:
                    break
            mu *= 10.0
            if mu > optimizer.MU_MAX:
                return OptResult(x, f, len(path) - 1, OptStatus.STALLED), path
        x, f, r, jac = trial, f_new, r_new, jac_new
        path.append((x, f))
        mu = max(mu / 10.0, optimizer.MU_MIN)
    status = OptStatus.TOLERANCE_REACHED if f <= stop_value else OptStatus.STALLED
    return OptResult(x, f, len(path) - 1, status), path


class TestMinimizeAgainstNumpyBody:
    """`minimize` against the same damped loop written on ndarrays.

    The two sum f differently, so a step that lowers f by no more than
    its round-off may be kept by one and refused by the other: the runs
    must take the same steps, to round-off in x, down to the round-off
    band of the lower final f, and end inside that band."""

    @staticmethod
    def assert_same(position, target, x0, bounds, stop_value):
        evals = []

        def recorded(x):
            p, jac = position(x)
            # f as the optimizer sums it
            evals.append((np.array(x), math.fsum(v * v for v in np.subtract(p, target).tolist())))
            return p, jac

        ours = minimize(recorded, target, x0, bounds, stop_value)
        path = [e for i, e in enumerate(evals) if e[1] < min((f for _, f in evals[:i]), default=math.inf)]
        assert len(path) == ours.iterations + 1
        oracle, oracle_path = _np_minimize(position, np.asarray(target, dtype=float), x0, bounds, stop_value)
        f_end = min(ours.f, oracle.f)
        band = f_end + 1e-12 * f_end + 1e-20
        assert max(ours.f, oracle.f) <= band
        steps = [(x, f) for x, f in path if f > band]
        oracle_steps = [(x, f) for x, f in oracle_path if f > band]
        assert len(steps) == len(oracle_steps)
        for (x, f), (xo, fo) in zip(steps, oracle_steps):
            assert np.allclose(x, xo, rtol=1e-9, atol=1e-12)
            assert f == pytest.approx(fo, rel=1e-9)
        for result in (ours, oracle):
            capped = result.iterations == optimizer.MAX_ITERS and result.f > stop_value
            assert (result.status is OptStatus.ITERATION_CAP) == capped
        if ours.iterations == oracle.iterations:
            assert ours.status is oracle.status
        return ours

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 4)
        rng = np.random.default_rng(32)
        statuses = set()
        for _ in range(50):
            position, target, x0, bounds = TestMinimizeOnSeededProblems.box_problem(rng)
            statuses.add(self.assert_same(position, target, x0, bounds, 0.0).status)
        assert OptStatus.ITERATION_CAP in statuses
        result = self.assert_same(rosenbrock_residual, ORIGIN, np.array([-1.2, 1.0]), BOX, 0.0)
        assert result.status is OptStatus.ITERATION_CAP
