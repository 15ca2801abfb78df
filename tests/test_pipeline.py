"""The shared solve pipeline: status rule, counters and input boundary."""
import math

import numpy as np
import pytest

from fabrik_sqp import benchmark, kuka, optimizer, solve_ik, ur5
from fabrik_sqp.geometry import make_transform
from fabrik_sqp.iktypes import IKQuery, IKStatus, SolverConfig, select_candidate
from fabrik_sqp.robots import pose_mismatch

SOLVERS = [(ur5, "ur5_model"), (kuka, "kuka_model")]


@pytest.fixture(params=SOLVERS, ids=["ur5", "kuka"])
def solver(request):
    module, fixture = request.param
    return module, request.getfixturevalue(fixture)


def _first_seeded_query(model, config):
    t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
    return IKQuery(t_des=t_des, theta_init=theta_init, config=config)


class TestStatusRule:
    def test_unreachable_runs_no_sweep(self, solver):
        module, model = solver
        t = make_transform(np.eye(3), [5.0, 0.0, 0.0])
        result, detail = module.solve_detailed(
            IKQuery(t_des=t, theta_init=np.zeros(model.dof), config=SolverConfig()), model
        )
        assert result.status is IKStatus.UNREACHABLE
        assert result.theta is None and result.error is None
        assert result.fabrik_iterations == 0
        assert not result.optimizer_used
        assert result.optimizer_iterations == 0
        assert detail.branches >= 1 and not detail.reachable
        assert detail.candidates == [] and detail.admitted == []

    def test_sweep_cap_miss_without_optimizer_fails(self, solver):
        module, model = solver
        query = _first_seeded_query(model, SolverConfig(n_max=1, use_optimizer=False))
        result, detail = module.solve_detailed(query, model)
        assert result.status is IKStatus.FAILED
        assert result.theta is None and result.error is None
        assert 1 <= result.fabrik_iterations <= detail.branches
        assert not result.optimizer_used
        assert result.optimizer_iterations == 0
        assert detail.reachable and detail.optimizer is None
        assert detail.admitted == []

    def test_optimizer_miss_fails(self, solver, monkeypatch):
        module, model = solver
        # a one-iteration cap makes every optimizer run stop short of
        # the tolerance
        monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
        config = SolverConfig(n_l=1)
        result, detail = module.solve_detailed(_first_seeded_query(model, config), model)
        assert result.status is IKStatus.FAILED
        assert result.theta is None and result.error is None
        assert 1 <= result.fabrik_iterations <= detail.branches
        assert result.optimizer_used
        assert result.optimizer_iterations >= 1
        assert detail.optimizer is not None
        assert detail.optimizer.f > config.eps_tol ** 2
        assert detail.admitted == []

    def test_detail_counters_match_result(self, solver):
        module, model = solver
        query = _first_seeded_query(model, SolverConfig())
        result, detail = module.solve_detailed(query, model)
        assert result.status is IKStatus.SOLVED
        assert (result.fabrik_iterations, result.optimizer_used, result.optimizer_iterations) == (
            detail.fabrik_iterations,
            detail.optimizer_used,
            detail.optimizer_iterations,
        )
        assert any(theta is result.theta for theta in detail.admitted)
        in_limits = [theta for theta in detail.candidates if model.within_limits(theta)]
        assert [id(theta) for theta in detail.admitted] == [id(theta) for theta in in_limits]
        assert pose_mismatch(model, result.theta, query.t_des) <= SolverConfig().eps_tol

    def test_solved_checks_only_the_pick(self, solver, monkeypatch):
        module, model = solver
        checked = []

        def counted(robot, theta, t_des):
            checked.append(theta)
            return pose_mismatch(robot, theta, t_des)

        monkeypatch.setattr(module, "pose_mismatch", counted)
        result, detail = module.solve_detailed(_first_seeded_query(model, SolverConfig()), model)
        assert result.status is IKStatus.SOLVED
        assert len(detail.admitted) > 1
        assert len(checked) == 1 and checked[0] is result.theta

    def test_pick_that_misses_fails(self, solver, monkeypatch):
        module, model = solver
        checked = []

        def missing(robot, theta, t_des):
            checked.append(theta)
            return math.inf

        monkeypatch.setattr(module, "pose_mismatch", missing)
        result, detail = module.solve_detailed(_first_seeded_query(model, SolverConfig()), model)
        assert result.status is IKStatus.FAILED
        assert result.theta is None and result.error is None
        # no rescan: the other admitted candidates are never checked
        assert len(detail.admitted) > 1 and len(checked) == 1


class TestHookLookup:
    """The driver calls the helpers a robot module holds at solve time,
    so a wrapper set on the module (as the benchmark's layer trace sets
    one) sees every call."""

    @pytest.mark.parametrize("name", ["prepare_query", "select_candidate"])
    def test_module_helper_called_once_per_solve(self, solver, monkeypatch, name):
        module, model = solver
        original = getattr(module, name)
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        result, _ = module.solve_detailed(_first_seeded_query(model, SolverConfig()), model)
        assert result.status is IKStatus.SOLVED
        assert len(calls) == 1


class TestSelection:
    def test_near_tie_keeps_the_earliest(self):
        # the later candidate is 1e-15 closer: a rounding-level
        # difference that must not pick the winner
        first, later = np.array([0.5, 0.5]), np.array([0.5, 0.5 - 1e-15])
        assert float(np.sum(later)) < float(np.sum(first))
        assert select_candidate([first, later], np.zeros(2)) == 0

    def test_closer_candidate_wins(self):
        candidates = [np.array([0.5, 0.5]), np.array([0.5, 0.5 - 1e-9])]
        assert select_candidate(candidates, np.zeros(2)) == 1


@pytest.mark.filterwarnings("error")
class TestInputBoundary:
    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_huge_target_unreachable(self, solver, scale):
        module, model = solver
        t = make_transform(np.eye(3), [scale, -scale, 0.5 * scale])
        query = IKQuery(t_des=t, theta_init=np.zeros(model.dof), config=SolverConfig())
        result, detail = module.solve_detailed(query, model)
        assert result.status is IKStatus.UNREACHABLE
        assert not detail.reachable

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_position_rejected(self, solver, value):
        _, model = solver
        t = make_transform(np.eye(3), [0.3, value, 0.4])
        query = IKQuery(t_des=t, theta_init=np.zeros(model.dof), config=SolverConfig())
        with pytest.raises(ValueError, match="t_des must be finite"):
            solve_ik(model, query)

    def test_non_finite_theta_init_rejected(self, solver):
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        theta_init = theta_init.copy()
        theta_init[1] = math.nan
        query = IKQuery(t_des=t_des, theta_init=theta_init, config=SolverConfig())
        with pytest.raises(ValueError, match="theta_init must be finite"):
            solve_ik(model, query)

    @pytest.mark.parametrize(
        "case, match",
        [("wrong-length", "theta_init must have"), ("out-of-limit", "within the joint limits")],
    )
    def test_invalid_theta_init_rejected(self, solver, case, match):
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        if case == "wrong-length":
            theta_init = theta_init[:-1]
        else:
            theta_init = theta_init.copy()
            theta_init[0] = model.joint_limits[0, 1] + 0.1
        query = IKQuery(t_des=t_des, theta_init=theta_init, config=SolverConfig())
        with pytest.raises(ValueError, match=match):
            solve_ik(model, query)
