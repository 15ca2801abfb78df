"""The shared solve pipeline: status rule, counters, format and input boundary."""
import ast
import importlib.util
import math
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import fabrik_sqp
from fabrik_sqp import benchmark, kuka, optimizer, pipeline, robots, solve_ik, ur5
from fabrik_sqp.geometry import (
    cartesian_error,
    make_transform,
    polar_rotation,
    rotation_defect,
    wrap_angle,
)
from fabrik_sqp.iktypes import (
    SELECT_TIE_TOL,
    IKQuery,
    IKStatus,
    SolverConfig,
    admitted,
    l1_distance,
    prepare_query,
    select_candidate,
)
from fabrik_sqp.robots import forward_kinematics, pose_mismatch

SOLVERS = [(ur5, "ur5_model"), (kuka, "kuka_model")]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
        assert detail.branches >= 1 and not detail.reachable and detail.solved == 0
        assert detail.candidates == [] and detail.admitted == []

    def test_sweep_cap_miss_without_optimizer_fails(self, solver):
        module, model = solver
        query = _first_seeded_query(model, SolverConfig(use_optimizer=False, sweep_cap=1))
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
        config = SolverConfig(sweep_cap=1)
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
        assert any(np.array(theta).tobytes() == result.theta.tobytes() for theta in detail.admitted)
        in_limits = [theta for theta in detail.candidates if model.within_limits(theta)]
        assert [id(theta) for theta in detail.admitted] == [id(theta) for theta in in_limits]
        assert pose_mismatch(model, result.theta, query.t_des) <= SolverConfig().eps_tol

    def test_solved_counts_the_branches_fabrik_ran_on(self, solver, monkeypatch):
        module, model = solver
        calls = []
        sweeps = pipeline.fabrik.solve
        monkeypatch.setattr(pipeline.fabrik, "solve", lambda *args: calls.append(args) or sweeps(*args))
        solved = skipped = 0
        for t_des, theta_init in benchmark.generate_queries(model, 20, 7).queries:
            calls.clear()
            _, detail = module.solve_detailed(IKQuery(t_des=t_des, theta_init=theta_init), model)
            assert detail.solved == len(calls)
            assert detail.solved + detail.skipped <= detail.branches
            solved += detail.solved
            skipped += detail.skipped
        assert solved >= 20 and (skipped > 0) == (module is ur5)

    def test_every_candidate_is_wrapped(self, solver):
        module, model = solver
        seen = 0
        for t_des, theta_init in benchmark.generate_queries(model, 20, 7).queries:
            _, detail = module.solve_detailed(IKQuery(t_des=t_des, theta_init=theta_init), model)
            for theta in detail.candidates:
                assert all(-math.pi <= t < math.pi for t in theta)
            seen += len(detail.candidates)
        assert seen > 0

    def test_candidates_wrapped_as_wrap_angle(self, solver, monkeypatch):
        module, model = solver
        branches = module.branches
        raw = []

        def logged(*args):
            for index, branch in enumerate(branches(*args)):
                def candidates(*a, groups=branch.candidates, index=index):
                    return [
                        (fixed, partial(log, (index, group), recover))
                        for group, (fixed, recover) in enumerate(groups(*a))
                    ]

                branch.candidates = candidates
                yield branch

        def log(key, recover):
            out = recover()
            solve.extend((key, theta) for theta in out)
            return out

        monkeypatch.setattr(module, "branches", logged)
        wrapped = []
        for t_des, theta_init in benchmark.generate_queries(model, 20, 7).queries:
            solve = []  # ((branch index, group index), theta) in visiting order
            _, detail = module.solve_detailed(IKQuery(t_des=t_des, theta_init=theta_init), model)
            wrapped += detail.candidates
            raw += [theta for _, theta in sorted(solve, key=lambda pair: pair[0])]
        assert len(raw) == len(wrapped) > 0
        for theta, got in zip(raw, wrapped):
            assert np.array(got).tobytes() == wrap_angle(np.asarray(theta)).tobytes()

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
        assert len(checked) == 1 and any(checked[0] is theta for theta in detail.admitted)
        assert np.array(checked[0]).tobytes() == result.theta.tobytes()

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

    def test_solve_time_covers_the_picks_error(self, solver, monkeypatch):
        module, model = solver
        error_of = pipeline.frame_error

        def slow(*args):
            time.sleep(0.005)
            return error_of(*args)

        monkeypatch.setattr(pipeline, "frame_error", slow)
        result, _ = module.solve_detailed(_first_seeded_query(model, SolverConfig()), model)
        assert result.status is IKStatus.SOLVED
        assert result.solve_time >= 0.005


def _kuka_wrist_at(model, distance):
    """A KUKA query whose wrist sits `distance` from the shoulder along x,
    its flange link pointing up."""
    position = np.add(model.shoulder, (distance, 0.0, model.link_lengths[3]))
    return IKQuery(make_transform(np.eye(3), position), np.zeros(model.dof))


class TestReachRule:
    """`fabrik.within_reach` is the one reach rule: a branch target more
    than eps outside the shell its chain's end sweeps gets no sweep and no
    optimizer run, and makes the solve neither solved nor reachable."""

    @pytest.mark.parametrize("distance", [0.0, 0.01, 0.019])
    def test_kuka_wrist_in_the_elbow_hole_is_unreachable(self, kuka_model, distance):
        # the elbow's links are 0.42 and 0.4 m: a hole of 0.02 m
        result, detail = kuka.solve_detailed(_kuka_wrist_at(kuka_model, distance), kuka_model)
        assert result.status is IKStatus.UNREACHABLE
        assert (result.fabrik_iterations, result.optimizer_iterations) == (0, 0)
        assert not detail.reachable and detail.solved == 0

    def test_kuka_wrist_within_eps_of_the_hole_solves(self, kuka_model):
        result, _ = kuka.solve_detailed(_kuka_wrist_at(kuka_model, 0.0199999), kuka_model)
        assert result.status is IKStatus.SOLVED
        assert result.error.eps_pos <= SolverConfig().eps_tol

    @pytest.mark.parametrize("beyond, status", [
        (5e-7, IKStatus.SOLVED), (9e-7, IKStatus.SOLVED), (2e-6, IKStatus.UNREACHABLE),
    ])
    def test_kuka_wrist_beyond_the_reach(self, kuka_model, beyond, status):
        reach = math.fsum(kuka_model.arm_lengths[1:])
        result, _ = kuka.solve_detailed(_kuka_wrist_at(kuka_model, reach + beyond), kuka_model)
        assert result.status is status
        if status is IKStatus.SOLVED:
            assert result.fabrik_iterations == 1
            assert result.error.eps_pos <= SolverConfig().eps_tol
        else:
            assert result.fabrik_iterations == 0

    def test_huge_eps_keeps_a_far_target_unreachable(self, solver):
        module, model = solver
        t = make_transform(np.eye(3), [1e200, 0.0, 0.0])
        query = IKQuery(t, np.zeros(model.dof), SolverConfig(eps_tol=1e300))
        result, detail = module.solve_detailed(query, model)
        assert result.status is IKStatus.UNREACHABLE
        assert not detail.reachable and detail.solved == 0

    def test_ur5_hole_branch_is_not_solved(self, ur5_model, monkeypatch):
        # seed-7 query 135 of the UR5 benchmark: one of its four branch
        # targets lies in the elbow's hole
        t_des, theta_init = benchmark.generate_queries(ur5_model, 1000, 7).queries[135]
        config = benchmark.parse_mode("combined:5").config(SolverConfig().eps_tol)
        query = IKQuery(t_des, theta_init, config)
        rows, reference = prepare_query(ur5_model, query)
        reach = [pipeline.fabrik.within_reach(b.start, b.target, config.eps_tol)
                 for b in ur5.branches(rows, reference, ur5_model)]
        assert reach.count(False) == 1
        result, detail = ur5.solve_detailed(query, ur5_model)
        # the outer sphere alone passes the hole branch, which then only
        # adds work: five sweeps and a failed optimizer run
        monkeypatch.setattr(pipeline.fabrik, "within_reach",
                            lambda chain, target, eps: math.dist(target, chain.base) <= chain.reach)
        sphere, sphere_detail = ur5.solve_detailed(query, ur5_model)
        assert result.status is sphere.status is IKStatus.SOLVED
        assert result.theta.tobytes() == sphere.theta.tobytes()
        assert result.error == sphere.error
        assert detail.candidates == sphere_detail.candidates
        assert sphere_detail.solved == detail.solved + 1
        assert sphere.fabrik_iterations == result.fabrik_iterations + 5
        assert sphere.optimizer_iterations > result.optimizer_iterations


class TestFloatFormat:
    """Floats inside, ndarrays only at the edge: the detail holds float
    tuples, and the pick, as IKResult.theta, is the one ndarray a solve
    builds."""

    @pytest.mark.parametrize("tight", [False, True], ids=["default-limits", "tight-limits"])
    def test_detail_holds_floats_and_the_pick_is_an_ndarray(self, solver, tight):
        module, model = solver
        if tight:
            model = getattr(robots, f"{model.name}_model")(np.tile([-0.5, 0.5], (model.dof, 1)))
        solved = optimized = 0
        for t_des, theta_init in benchmark.generate_queries(model, 30, 7).queries:
            query = IKQuery(t_des=t_des, theta_init=theta_init)
            result, detail = module.solve_detailed(query, model)
            for theta in detail.candidates:
                assert type(theta) is tuple and len(theta) == model.dof
                assert all(type(t) is float for t in theta)
            if detail.optimizer is not None:
                optimized += 1
                assert type(detail.optimizer.x) is tuple
                assert all(type(t) is float for t in detail.optimizer.x)
            if result.status is not IKStatus.SOLVED:
                assert result.theta is None
                continue
            solved += 1
            reference = tuple(theta_init.tolist())
            pick = select_candidate([l1_distance(theta, reference) for theta in detail.admitted])
            assert type(result.theta) is np.ndarray and result.theta.dtype == np.float64
            assert result.theta.tobytes() == np.array(detail.admitted[pick]).tobytes()
            want = cartesian_error(forward_kinematics(model, result.theta), query.t_des)
            got, want = (np.array([e.eps_pos, e.eps_rot]) for e in (result.error, want))
            assert got.tobytes() == want.tobytes()
        assert solved > 0 and optimized > 0

    @pytest.mark.parametrize("name", ["ur5", "kuka", "optimizer"])
    def test_solve_path_module_imports_no_numpy(self, name):
        tree = ast.parse(Path(fabrik_sqp.__file__).with_name(f"{name}.py").read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append(node.module)
        assert imported and not [m for m in imported if m.split(".")[0] == "numpy"]


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


def _spans():
    """perfbench/spans.py, loaded read-only, as the benchmark imports it."""
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestBenchmarkHookSites:
    """Every (module, attribute) site that the benchmark's layer trace
    hooks resolves on the package and is called, so a rename, an inlined
    helper or a call that no longer happens shows here rather than only
    in a full traced benchmark run."""

    def test_every_hook_site_resolves(self):
        spans = _spans()
        assert spans.HOOKS
        missing = []
        for _, module, attr in spans.HOOKS:
            owner = getattr(fabrik_sqp, module, None) if module else fabrik_sqp
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module}.{attr}")
        assert missing == []

    def test_every_layer_is_called_on_the_scripted_paths(self):
        # the benchmark's gate on its tracking workload: no hook absent,
        # and no layer at 0 calls; both robots' scripted paths reach them
        spans = _spans()
        config = SolverConfig()
        tracer = spans.Tracer(fabrik_sqp, config.eps_tol)
        with tracer.installed():
            for model in (robots.ur5_model(), robots.kuka_model()):
                theta_init, waypoints = fabrik_sqp.tracking.scripted_waypoints(model)
                tracer.request(fabrik_sqp.tracking.track, model, waypoints, theta_init, config)
        assert tracer.absent == []
        assert [layer for layer in spans.LAYERS if tracer.calls[layer] == 0] == []


class TestSelection:
    def test_near_tie_keeps_the_earliest(self):
        # the later candidate is 1e-15 closer: a rounding-level
        # difference that must not pick the winner
        assert select_candidate([1.0, 1.0 - 1e-15]) == 0

    def test_closer_candidate_wins(self):
        assert select_candidate([1.0, 1.0 - 1e-9]) == 1

    def test_nothing_admitted_picks_nothing(self):
        assert select_candidate([]) is None

    def test_first_within_the_tie_band_of_the_nearest(self):
        # each distance is within SELECT_TIE_TOL of the next, and the
        # first lies beyond the band of the nearest: the pick is the
        # second candidate, the first in the band, with or without the
        # first (a sequential "replace when closer by more than the
        # tolerance" scan picks the third with it and the second without)
        tol = SELECT_TIE_TOL
        distances = [1.0, 1.0 - 0.75 * tol, 1.0 - 1.5 * tol]
        assert distances[0] - distances[2] > tol
        assert select_candidate(distances) == 1
        assert select_candidate(distances[1:]) == 0

    def test_a_candidate_beyond_the_band_never_moves_the_pick(self):
        rng = np.random.default_rng(31)
        for _ in range(2_000):
            distances = (1.0 + rng.integers(-3, 4, size=rng.integers(1, 6)) * 0.4e-12).tolist()
            pick = select_candidate(distances)
            far = min(distances) + SELECT_TIE_TOL + 1e-15
            for at in range(len(distances) + 1):
                grown = distances[:at] + [far] + distances[at:]
                assert select_candidate(grown) == pick + (at <= pick)

    def test_l1_distance_is_numpy_sum_bits(self):
        """`l1_distance` sums left to right in floats, which is how np.sum
        adds the four entries of a KUKA seed (its old sort key) and the
        six or seven of a pick."""
        rng = np.random.default_rng(29)
        for n in (4, 6, 7):
            for a, b in rng.uniform(-math.pi, math.pi, size=(10_000, 2, n)):
                assert l1_distance(a.tolist(), b.tolist()) == float(np.sum(np.abs(a - b)))

    def test_l1_distance_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            l1_distance((0.0, 1.0), (0.0,))

    def test_admitted_distance_is_the_limit_test_and_l1_distance(self):
        """`admitted` over a whole candidate wraps it as `wrap_angle`, and
        its distance is the limit test and `l1_distance`; over the pairs
        of a prefix, or of the UR5's fixed theta1, theta5 and theta6, it
        is their terms of that sum, in its order."""
        rng = np.random.default_rng(30)
        model = robots.kuka_model(np.tile([-0.5, 0.5], (7, 1)))
        limits = model.limit_pairs

        def want(wrapped, reference, ks):
            inside = all(limits[k][0] <= wrapped[k] <= limits[k][1] for k in ks)
            return l1_distance([wrapped[k] for k in ks], [reference[k] for k in ks]) if inside else None

        counts = {"full": 0, "prefix": 0, "ur5": 0}
        for theta, reference in rng.uniform(-0.6, 0.6, size=(5_000, 2, 7)).tolist():
            # angles on a limit, which the test admits
            theta[rng.integers(7)] = rng.choice([-0.5, 0.5])
            # raw angles, some a turn away, as a recovery gives them
            raw = [t + 2.0 * math.pi * n for t, n in zip(theta, rng.integers(-1, 2, size=7).tolist())]
            wrapped = tuple(map(wrap_angle, raw))
            d = want(wrapped, reference, range(7))
            assert d == (l1_distance(wrapped, reference) if model.within_limits(wrapped) else None)
            assert admitted(enumerate(raw), limits, reference) == (wrapped, d)
            prefix = admitted(enumerate(raw[:4]), limits, reference)
            assert prefix == (wrapped[:4], want(wrapped, reference, range(4)))
            ur5_fixed = admitted([(k, raw[k]) for k in (0, 4, 5)], limits, reference)
            assert ur5_fixed == ((wrapped[0], wrapped[4], wrapped[5]), want(wrapped, reference, (0, 4, 5)))
            for name, result in (("full", d), ("prefix", prefix[1]), ("ur5", ur5_fixed[1])):
                counts[name] += result is not None
        assert all(0 < n < 5_000 for n in counts.values())
        assert counts["full"] < counts["prefix"] and counts["full"] < counts["ur5"]
        # no pairs: the KUKA branch's, and the UR5 group's
        assert admitted((), limits, reference) == ((), 0.0)


class TestSolverConfig:
    @pytest.mark.parametrize("eps_tol", [math.nan, math.inf])
    def test_non_finite_eps_tol_rejected(self, eps_tol):
        with pytest.raises(ValueError, match="eps_tol must be positive and finite"):
            SolverConfig(eps_tol=eps_tol)

    @pytest.mark.parametrize("eps_tol", [True, "1e-6", None])
    def test_non_number_eps_tol_rejected(self, eps_tol):
        # True would otherwise read as a 1.0 tolerance
        with pytest.raises(ValueError, match="eps_tol must be a real number, not a bool"):
            SolverConfig(eps_tol=eps_tol)

    def test_numpy_float_eps_tol_accepted(self):
        assert SolverConfig(eps_tol=np.float64(1e-6)).eps_tol == 1e-6

    @pytest.mark.parametrize("flag", ["no", 0, 1, None, np.bool_(False)])
    def test_non_bool_use_optimizer_rejected(self, flag):
        # a truthy "no" would otherwise turn the optimizer on
        with pytest.raises(ValueError, match="use_optimizer must be a bool"):
            SolverConfig(use_optimizer=flag)

    @pytest.mark.parametrize("use_optimizer", [True, False])
    def test_sweep_cap_below_one_rejected(self, use_optimizer):
        with pytest.raises(ValueError, match="sweep_cap must be at least 1"):
            SolverConfig(use_optimizer=use_optimizer, sweep_cap=0)

    @pytest.mark.parametrize("cap", [1.5, 2.0, True, "3"])
    def test_non_integer_sweep_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="sweep_cap must be an integer"):
            SolverConfig(use_optimizer=False, sweep_cap=cap)

    def test_numpy_integer_sweep_cap_accepted(self):
        config = SolverConfig(use_optimizer=False, sweep_cap=np.int64(7))
        assert config.fabrik_cap("ur5") == 7 and type(config.sweep_cap) is int

    def test_sweep_cap_applies_in_both_modes(self):
        assert SolverConfig(sweep_cap=7).fabrik_cap("kuka") == 7
        assert SolverConfig(use_optimizer=False, sweep_cap=7).fabrik_cap("kuka") == 7
        assert [SolverConfig().fabrik_cap(name) for name in ("ur5", "kuka")] == [5, 15]
        assert SolverConfig(use_optimizer=False).fabrik_cap("ur5") == 900


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
        with pytest.raises(ValueError, match="transform entries must be finite"):
            IKQuery(t_des=t, theta_init=np.zeros(model.dof), config=SolverConfig())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_top_row_entry_rejected_at_construction(self, value):
        t_des = make_transform(np.eye(3), [0.3, 0.2, 0.4])
        for row in range(3):
            for col in range(4):
                t = t_des.copy()
                t[row, col] = value
                with pytest.raises(ValueError, match="transform entries must be finite"):
                    IKQuery(t_des=t, theta_init=np.zeros(6))

    def test_query_keeps_its_own_sanitized_read_only_pose(self, solver):
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        t = t_des.copy()
        t[:3, :3] *= 1.0 + 1e-6  # a defect the sanitizer projects away
        query = IKQuery(t_des=t, theta_init=theta_init)
        assert query.t_des[:3, :3].tobytes() == polar_rotation(t[:3, :3]).tobytes()
        assert query.t_des[:, 3].tobytes() == t[:, 3].tobytes()
        assert not query.t_des.flags.writeable
        t[0, 3] += 1.0
        assert query.t_des[0, 3] == t_des[0, 3]
        rows, reference = prepare_query(model, query)
        assert np.array(rows).tobytes() == query.t_des[:3].tobytes()
        assert np.array(reference).tobytes() == query.theta_init.tobytes()

    @pytest.mark.parametrize("case, match", [
        ("3x4 pose", "transform must be a 4x4 matrix"),
        ("4x4x1 pose", "transform must be a 4x4 matrix"),
        ("defect just above the repair tolerance", "too far from orthonormal"),
        ("theta_init 2e-12 above a limit", "within the joint limits"),
        ("theta_init 2e-12 below a limit", "within the joint limits"),
    ])
    def test_malformed_input_keeps_its_message(self, solver, case, match):
        # the cases the checks on either side of the query's one float pass
        # do not meet elsewhere in this class
        module, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        t, theta = t_des.copy(), theta_init.copy()
        if case == "3x4 pose":
            t = t[:3]
        elif case == "4x4x1 pose":
            t = t[:, :, None]
        elif case.startswith("defect"):
            # each column 1 + 1.0001e-3 / 2 long: the defect, (1 + e)^2 - 1, just above 1e-3
            t[:3, :3] *= math.sqrt(1.0 + 1.0001e-3)
            assert 1e-3 < rotation_defect(t[:3, :3]) < 1.001e-3
        else:
            lo, hi = model.joint_limits[2]
            theta[2] = hi + 2e-12 if "above" in case else lo - 2e-12
            within = theta.copy()
            within[2] = hi + 1e-12 if "above" in case else lo - 1e-12
            assert prepare_query(model, IKQuery(t_des=t, theta_init=within))[1][2] == within[2]
        with pytest.raises(ValueError, match=match):
            module.solve_detailed(IKQuery(t_des=t, theta_init=theta), model)

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9, 1.0 + 4e-4])
    def test_pose_keeps_its_bits_or_becomes_its_polar_rotation(self, solver, scale):
        # an exact pose (defect <= 1e-9) keeps its bits; one with a defect
        # in (1e-9, 1e-3] becomes polar_rotation of it, bit for bit
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        t = t_des.copy()
        t[:3, :3] *= scale
        defect = rotation_defect(t[:3, :3])
        query = IKQuery(t_des=t, theta_init=theta_init)
        if scale == 1.0:
            assert defect <= 1e-9 and query.t_des.tobytes() == t.tobytes()
        else:
            assert 1e-9 < defect <= 1e-3
            assert query.t_des[:3, :3].tobytes() == polar_rotation(t[:3, :3]).tobytes()
            assert query.t_des[:, 3].tobytes() == t[:, 3].tobytes()
        assert np.array(query.pose_rows).tobytes() == query.t_des[:3].tobytes()

    def test_query_keeps_its_own_read_only_reference(self, solver):
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        th = np.array(theta_init, dtype=float)
        query = IKQuery(t_des=t_des, theta_init=th)
        before = solve_ik(model, query)
        th[2] = 2.5
        assert query.theta_init.tobytes() == np.asarray(theta_init, dtype=float).tobytes()
        assert not np.shares_memory(query.theta_init, th)
        with pytest.raises(ValueError, match="read-only"):
            query.theta_init[2] = 2.5
        after = solve_ik(model, query)
        assert np.array_equal(after.theta, before.theta)

    @pytest.mark.parametrize("noise", [0.0, 1e-6])
    def test_reflected_pose_rejected(self, solver, noise):
        # an exact reflection passes the orthonormality check untouched,
        # a near one would be projected onto a far-away rotation
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        t = t_des.copy()
        t[:3, 0] = -t[:3, 0]
        t[:3, :3] += np.random.default_rng(1).uniform(-noise, noise, size=(3, 3))
        with pytest.raises(ValueError, match="reflection"):
            IKQuery(t_des=t, theta_init=theta_init, config=SolverConfig())

    @pytest.mark.parametrize("entry, value", [(3, 1.0 + 9e-6), (0, 2e-9), (2, math.nan)])
    def test_bottom_row_checked_entry_by_entry(self, solver, entry, value):
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        t = t_des.copy()
        t[3, entry] = value
        with pytest.raises(ValueError, match="bottom row must be"):
            IKQuery(t_des=t, theta_init=theta_init, config=SolverConfig())
        # within 1e-9 absolute of (0, 0, 0, 1) passes
        t[3] = [1e-9, -1e-9, 0.0, 1.0 - 1e-9]
        assert solve_ik(model, IKQuery(t_des=t, theta_init=theta_init)).status is IKStatus.SOLVED

    @pytest.mark.parametrize("config", ["x", None, {"eps_tol": 1e-6}])
    def test_config_must_be_a_solver_config(self, solver, config):
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        with pytest.raises(ValueError, match="config must be a SolverConfig"):
            IKQuery(t_des=t_des, theta_init=theta_init, config=config)

    @pytest.mark.parametrize("field", ["t_des", "theta_init"])
    def test_complex_input_rejected(self, solver, field):
        # the cast to float would drop the imaginary part
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        inputs = {"t_des": t_des, "theta_init": theta_init}
        inputs[field] = inputs[field] + 1e-3j
        with pytest.raises(ValueError, match="t_des and theta_init must be real"):
            IKQuery(**inputs, config=SolverConfig())

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
        [
            ("wrong-length", "theta_init must have"),
            ("0-d", "theta_init must have"),
            ("out-of-limit", "within the joint limits"),
        ],
    )
    def test_invalid_theta_init_rejected(self, solver, case, match):
        _, model = solver
        t_des, theta_init = benchmark.generate_queries(model, 1, 7).queries[0]
        if case == "wrong-length":
            theta_init = theta_init[:-1]
        elif case == "0-d":
            theta_init = np.float64(theta_init[0])
        else:
            theta_init = theta_init.copy()
            theta_init[0] = model.joint_limits[0, 1] + 0.1
        query = IKQuery(t_des=t_des, theta_init=theta_init, config=SolverConfig())
        with pytest.raises(ValueError, match=match):
            solve_ik(model, query)
