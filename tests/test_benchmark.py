import csv
import json

import numpy as np
import pytest

from fabrik_sqp import benchmark as bm
from fabrik_sqp.robots import forward_kinematics


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
            target = kuka_mod.wrist_target(t_des, kuka_model)
            assert np.linalg.norm(target - shoulder) <= reach * (1 + 1e-12)

    def test_requested_count(self, ur5_model):
        assert len(bm.generate_queries(ur5_model, 137, seed=0)) == 137


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
        ]
        assert len(rows) == 1 + 25
        assert rows[1][1] == "combined:15"

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

    def test_time_distribution_rows(self, ur5_model, tmp_path):
        theta = np.array([0.3, -0.9, 1.2, -0.3, 0.8, 0.1])
        queries = tuple(
            (forward_kinematics(ur5_model, theta + 0.01 * k), theta) for k in range(4)
        )
        qs = bm.QuerySet(robot="ur5", seed=0, queries=queries)
        report = bm.run_benchmark(ur5_model, qs, [bm.parse_mode("combined:5")])[0]
        path = tmp_path / "times.csv"
        bm.export_time_distribution(report, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert len(rows) == 1 + 4 + 5  # header + data + summary set
        labels = [r[0] for r in rows[5:]]
        assert labels == ["min", "q1", "median", "q3", "max"]

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
        with pytest.raises(ValueError):
            bm.parse_mode("fabrik")
        with pytest.raises(ValueError):
            bm.parse_mode("annealing:3")
