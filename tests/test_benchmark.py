import csv
import json
import math
from collections import Counter

import numpy as np
import pytest

from fabrik_sqp import benchmark as bm
from fabrik_sqp import robots, solve_ik, tracking
from fabrik_sqp.geometry import CartesianError
from fabrik_sqp.iktypes import IKQuery, IKResult, IKStatus, SolverConfig
from fabrik_sqp.robots import forward_kinematics, get_model, model_from_json, model_to_json

from conftest import KUKA_DATASHEET


@pytest.fixture(scope="module")
def small_run(kuka_model):
    queries = bm.generate_queries(kuka_model, 25, seed=42)
    modes = [bm.parse_mode("combined:15"), bm.parse_mode("fabrik:50")]
    reports = bm.run_benchmark(kuka_model, queries, modes)
    return queries, {r.mode.label: r for r in reports}


class TestGenerateQueries:
    def test_deterministic(self, ur5_model):
        a = bm.generate_queries(ur5_model, 5, seed=42)
        b = bm.generate_queries(ur5_model, 5, seed=42)
        for (ta, ia), (tb, ib) in zip(a.queries, b.queries):
            assert np.array_equal(ta, tb)
            assert np.array_equal(ia, ib)

    def test_seed_changes_set(self, ur5_model):
        a = bm.generate_queries(ur5_model, 5, seed=1)
        b = bm.generate_queries(ur5_model, 5, seed=2)
        assert not np.array_equal(a.queries[0][0], b.queries[0][0])

    def test_within_limits_and_reachable(self, kuka_model):
        from fabrik_sqp import kuka as kuka_mod

        qs = bm.generate_queries(kuka_model, 50, seed=3)
        shoulder = np.array([0.0, 0.0, kuka_model.link_lengths[0]])
        reach = float(np.sum(kuka_model.link_lengths[1:3]))
        for t_des, theta_init in qs.queries:
            assert kuka_model.within_limits(theta_init)
            target = kuka_mod.wrist_target(t_des[:3].tolist(), kuka_model)
            assert np.linalg.norm(target - shoulder) <= reach * (1 + 1e-12)

    def test_requested_count(self, ur5_model):
        assert len(bm.generate_queries(ur5_model, 137, seed=0)) == 137

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_count_rejected(self, ur5_model, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            bm.generate_queries(ur5_model, n, seed=0)

    @pytest.mark.parametrize(
        "seed, match",
        [(-1, "at least 0"), (True, "an integer, not a bool"), (1.5, "an integer"), ("7", "an integer")],
        ids=["negative", "bool", "float", "text"],
    )
    def test_bad_seed_rejected(self, ur5_model, seed, match):
        with pytest.raises(ValueError, match=f"seed must be {match}"):
            bm.generate_queries(ur5_model, 1, seed=seed)

    def test_numpy_integer_seed_accepted(self, ur5_model):
        a = bm.generate_queries(ur5_model, 2, seed=np.int64(0))
        b = bm.generate_queries(ur5_model, 2, seed=0)
        assert type(a.seed) is int and a.seed == 0
        assert all(np.array_equal(ta, tb) for (ta, _), (tb, _) in zip(a.queries, b.queries))


class TestRunBenchmark:
    def test_trivial_query_set_succeeds(self, ur5_model):
        theta = np.array([0.3, -0.9, 1.2, -0.3, 0.8, 0.1])
        qs = bm.QuerySet(
            robot="ur5", seed=0, queries=((forward_kinematics(ur5_model, theta), theta),)
        )
        report = bm.run_benchmark(ur5_model, qs, [bm.parse_mode("combined:5")])[0]
        assert report.success_rate == 1.0
        assert report.records[0].time_seconds > 0.0

    def test_success_rate_exact_ratio(self, small_run):
        _, reports = small_run
        report = reports["fabrik:50"]
        assert report.success_rate == report.solved / len(report.records)

    def test_audit_validates_all_solved(self, kuka_model, small_run):
        queries, reports = small_run
        worst = bm.audit_solved(kuka_model, queries, reports["combined:15"])
        assert worst <= 1e-6

    def test_worker_pool_matches_serial(self, kuka_model):
        queries = bm.generate_queries(kuka_model, 12, seed=5)
        serial = bm.run_benchmark(kuka_model, queries, [bm.parse_mode("combined:15")])[0]
        parallel = bm.run_benchmark(
            kuka_model, queries, [bm.parse_mode("combined:15")], workers=2
        )[0]
        for a, b in zip(serial.records, parallel.records):
            assert a.query_id == b.query_id
            assert a.status == b.status
            if a.theta is None:
                assert b.theta is None
            else:
                assert np.array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("n, workers, pool", [(1, 8, None), (3, 8, 3), (5, 2, 2), (4, 1, None)])
    def test_workers_capped_by_the_queries(self, kuka_model, monkeypatch, n, workers, pool):
        # under fork, ProcessPoolExecutor starts all max_workers processes at
        # the first submit; a stand-in pool records the size it is asked for
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(bm, "ProcessPoolExecutor", Pool)
        queries = bm.generate_queries(kuka_model, n, seed=5)
        report = bm.run_benchmark(kuka_model, queries, [bm.parse_mode("fabrik:50")], workers=workers)[0]
        assert asked == ([] if pool is None else [pool])
        assert [r.query_id for r in report.records] == list(range(n))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solves_with_the_given_model(self, ur5_model, workers):
        # a shorter upper arm and tighter limits than the built-in UR5
        doc = json.loads(model_to_json(ur5_model))
        doc["dh"][1]["a"] = -0.30
        doc["limits"] = [[-1.5, 1.5]] * 6
        custom = model_from_json(json.dumps(doc))
        queries = bm.generate_queries(custom, 30, seed=7)
        report = bm.run_benchmark(custom, queries, [bm.parse_mode("combined:5")], workers=workers)[0]
        assert [r.query_id for r in report.records] == list(range(30))
        assert report.solved > 0
        bm.audit_solved(custom, queries, report)
        for r in report.records:
            if r.theta is not None:
                assert custom.within_limits(r.theta)

    @pytest.mark.parametrize(
        "robot, sweeps, solved, failed",
        [("ur5", 73_963, 959, 41), ("kuka", 35_699, 799, 201)],
    )
    def test_seed_7_fabrik_only_totals(self, robot, sweeps, solved, failed):
        # pins the sweep arithmetic end to end: any change to a reach
        # step moves these seed-7 totals
        model = get_model(robot)
        queries = bm.generate_queries(model, 1000, 7)
        report = bm.run_benchmark(model, queries, [bm.parse_mode("fabrik:100")])[0]
        assert sum(r.fabrik_iters for r in report.records) == sweeps
        assert Counter(r.status for r in report.records) == {"solved": solved, "failed": failed}

    @pytest.mark.parametrize(
        "robot, half, statuses, sweeps, runs, iterations",
        [
            # the KUKA LBR iiwa 14 datasheet limits
            ("kuka", KUKA_DATASHEET,
             {"solved": 283, "failed": 17}, 2_791, 100, 573),
            ("kuka", np.full(7, 0.5), {"solved": 196, "failed": 104}, 4_500, 300, 1_330),
            ("ur5", np.full(6, 0.5), {"solved": 300}, 1_500, 300, 1_123),
        ],
        ids=["kuka-datasheet", "kuka-0.5rad", "ur5-0.5rad"],
    )
    def test_seed_7_tight_limit_totals(self, robot, half, statuses, sweeps, runs, iterations):
        # the default [-pi, pi] limits never clamp a FABRIK joint; these
        # limits do, so the totals pin the clamp path end to end
        model = getattr(robots, f"{robot}_model")(np.column_stack([-half, half]))
        queries = bm.generate_queries(model, 300, 7)
        results = [solve_ik(model, IKQuery(t, th)) for t, th in queries.queries]
        assert Counter(r.status.value for r in results) == statuses
        assert sum(r.fabrik_iterations for r in results) == sweeps
        assert sum(r.optimizer_used for r in results) == runs
        assert sum(r.optimizer_iterations for r in results) == iterations

    def test_rerun_bit_identical(self, kuka_model):
        queries = bm.generate_queries(kuka_model, 15, seed=9)
        mode = [bm.parse_mode("combined:15")]
        a = bm.run_benchmark(kuka_model, queries, mode)[0]
        b = bm.run_benchmark(kuka_model, queries, mode)[0]
        for ra, rb in zip(a.records, b.records):
            assert ra.status == rb.status
            if ra.theta is not None:
                assert np.array_equal(ra.theta, rb.theta)


class TestExports:
    def test_report_csv_shape(self, small_run, tmp_path):
        _, reports = small_run
        path = tmp_path / "report.csv"
        bm.export_report_csv(reports["combined:15"], path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == [
            "query_id",
            "mode",
            "status",
            "eps_pos",
            "eps_rot",
            "fabrik_iters",
            "opt_used",
            "time_seconds",
            "opt_iters",
        ]
        assert len(rows) == 1 + 25
        assert rows[1][1] == "combined:15"

    def test_report_csv_text(self, tmp_path):
        records = [
            bm.QueryRecord(0, "solved", 2.5e-07, 0.1, 3, True, 0.00125, np.array([0.1, -2.5, 3.0]), 7),
            bm.QueryRecord(1, "failed", math.nan, math.nan, 40, False, 0.5, None),
        ]
        report = bm.BenchmarkReport("ur5", 7, bm.parse_mode("combined:5"), 1e-6, records)
        path = tmp_path / "report.csv"
        bm.export_report_csv(report, path)
        assert path.read_bytes() == (
            b"query_id,mode,status,eps_pos,eps_rot,fabrik_iters,opt_used,time_seconds,opt_iters\r\n"
            b"0,combined:5,solved,2.4999999999999999e-07,0.10000000000000001,3,1,0.00125,7\r\n"
            b"1,combined:5,failed,nan,nan,40,0,0.5,0\r\n"
        )

    def test_tracking_csv_text(self, tmp_path):
        trace = tracking.TrackingTrace()
        for phase, theta, error, used, seconds in (
            (1, [0.5, -0.25], CartesianError(0.0, 1e-10), False, 0.002),
            (2, [0.75, -math.pi], CartesianError(3e-9, 0.0), True, 0.25),
        ):
            result = IKResult(IKStatus.SOLVED, np.array(theta), error, 4, used, 2, seconds)
            trace.records.append((phase, result))
        path = tmp_path / "track.csv"
        tracking.write_trace_csv(trace, 2, path)
        assert path.read_bytes() == (
            b"index,phase,theta_1,theta_2,eps_pos,eps_rot,opt_used,time_seconds\r\n"
            b"0,1,0.5,-0.25,0,1e-10,0,0.002\r\n"
            b"1,2,0.75,-3.1415926535897931,3e-09,0,1,0.25\r\n"
        )

    def test_fabrik_trace_csv_text(self, tmp_path):
        path = tmp_path / "trace.csv"
        bm.write_csv(path, ["n", "dist"], ((1, 0.5), (2, 0.1)))
        assert path.read_bytes() == b"n,dist\r\n1,0.5\r\n2,0.10000000000000001\r\n"

    def test_summary_json(self, small_run, tmp_path):
        _, reports = small_run
        path = tmp_path / "summary.json"
        bm.export_summary_json(reports["combined:15"], path)
        doc = json.loads(path.read_text())
        assert doc["mode"] == "combined:15"
        assert doc["n"] == 25
        assert doc["seed"] == 42
        assert doc["rng"] == bm.RNG_NAME
        assert 0.0 <= doc["success_rate"] <= 1.0

    def test_summary_time_quartiles(self, ur5_model, tmp_path):
        theta = np.array([0.3, -0.9, 1.2, -0.3, 0.8, 0.1])
        queries = tuple(
            (forward_kinematics(ur5_model, theta + 0.01 * k), theta) for k in range(4)
        )
        qs = bm.QuerySet(robot="ur5", seed=0, queries=queries)
        report = bm.run_benchmark(ur5_model, qs, [bm.parse_mode("combined:5")])[0]
        path = tmp_path / "summary.json"
        bm.export_summary_json(report, path)
        time_s = json.loads(path.read_text())["time_s"]
        assert list(time_s) == ["min", "q1", "median", "q3", "max"]
        assert list(time_s.values()) == np.percentile(report.times, [0, 25, 50, 75, 100]).tolist()

    def test_median_interpolates(self):
        assert float(np.median([1.0, 2.0, 3.0, 4.0])) == 2.5


class TestMonotonicity:
    def test_fabrik_success_nondecreasing_in_cap(self, kuka_model):
        queries = bm.generate_queries(kuka_model, 40, seed=77)
        modes = [bm.parse_mode(f"fabrik:{n}") for n in (20, 60, 150)]
        reports = bm.run_benchmark(kuka_model, queries, modes)
        rates = [r.success_rate for r in reports]
        assert rates[0] <= rates[1] <= rates[2]

    def test_mode_parsing(self):
        mode = bm.parse_mode("fabrik:250")
        assert mode.kind == "fabrik" and mode.param == 250
        assert mode.config(1e-6) == SolverConfig(1e-6, use_optimizer=False, sweep_cap=250)
        bare = bm.parse_mode("combined")
        assert bare.param is None and bare.label == "combined"
        assert bare.config(1e-6) == SolverConfig(1e-6)
        for text in ("annealing:3", "combined:", "fabrik:x", "combined:0"):
            with pytest.raises(ValueError):
                bm.parse_mode(text)

    @pytest.mark.parametrize(
        "param, match",
        [(True, "must be an integer, not a bool"), (2.5, "must be an integer"), (0, "must be at least 1")],
    )
    def test_mode_param_checked_at_construction(self, param, match):
        # a bool or a float would otherwise be labelled fabrik:True or fabrik:2.5
        with pytest.raises(ValueError, match=f"mode parameter {match}"):
            bm.Mode("fabrik", param)

    def test_numpy_integer_mode_param_labelled_as_int(self):
        mode = bm.Mode("fabrik", np.int64(5))
        assert mode.label == "fabrik:5" and type(mode.param) is int
