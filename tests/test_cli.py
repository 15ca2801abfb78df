import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fabrik_sqp import benchmark as bm
from fabrik_sqp import cli, solve_ik
from fabrik_sqp.geometry import make_transform
from fabrik_sqp.iktypes import IKQuery, IKStatus, SolverConfig
from fabrik_sqp.robots import forward_kinematics, get_model, model_to_json


def write_pose(path, t):
    doc = {"position": t[:3, 3].tolist(), "rotation": t[:3, :3].tolist()}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def solvable_pose(tmp_path, ur5_model):
    theta = np.array([0.4, -1.0, 1.3, -0.5, 0.7, 0.2])
    return write_pose(tmp_path / "pose.json", forward_kinematics(ur5_model, theta))


class TestSolveCommand:
    def test_solved_exit_zero_and_json(self, solvable_pose, capsys):
        code = cli.main(["solve", "--robot", "ur5", "--pose", solvable_pose])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "solved"
        assert len(doc["theta"]) == 6
        assert doc["eps_pos"] <= 1e-6
        assert isinstance(doc["opt_used"], bool)

    def test_unreachable_exit_two(self, tmp_path, ur5_model, capsys):
        t = forward_kinematics(ur5_model, np.zeros(6)).copy()
        t[:3, 3] = [4.0, 0.0, 0.0]
        pose = write_pose(tmp_path / "far.json", t)
        code = cli.main(["solve", "--robot", "ur5", "--pose", pose])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["status"] == "unreachable"

    def test_kuka_wrist_at_the_shoulder_exit_two(self, tmp_path, kuka_model, capsys):
        # the elbow's links differ by 0.02 m: the wrist never gets nearer
        # the shoulder than that
        # the flange link points up from a wrist at the shoulder
        position = np.add(kuka_model.shoulder, (0.0, 0.0, kuka_model.link_lengths[3]))
        pose = write_pose(tmp_path / "hole.json", make_transform(np.eye(3), position))
        code = cli.main(["solve", "--robot", "kuka", "--pose", pose])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["status"] == "unreachable"

    def test_malformed_pose_names_field(self, tmp_path, capsys):
        identity = np.eye(3).tolist()
        for doc, field in [
            ({"position": [0, 0, 0]}, "rotation"),
            (5, "position"),
            ("position rotation", "position"),
            ({"position": ["a", 0, 0], "rotation": identity}, "position"),
            ({"position": [0, 0, 0], "rotation": [[1, 0, 0], [0, "b", 0], [0, 0, 1]]}, "rotation"),
            ({"position": [0, 0, 0], "rotation": [[1, 0], [0, 1, 0], [0, 0, 1]]}, "rotation"),
        ]:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            code = cli.main(["solve", "--robot", "ur5", "--pose", str(path)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert field in err

    @pytest.mark.parametrize(
        "text, match",
        [
            (None, "cannot read pose file"),
            ("{not json", "pose file is not valid JSON"),
            ('{"position": [0, 0], "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}', "'position' must be a list of 3"),
            ('{"position": [0, 0, 0], "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1]}', "'rotation' must be a 3x3"),
            ('{"position": ["0.3", 0, 0.2], "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
             "'position' must be a list of 3"),
            ('{"position": [0.3, true, 0.2], "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
             "'position' must be a list of 3"),
            ('{"position": [0, 0, 0], "rotation": [[true, 0, 0], [0, 1, 0], [0, 0, 1]]}', "'rotation' must be a 3x3"),
            ('{"position": [0, 0, 0], "rotation": [[1, 0, 0], [0, 1, 0], [0, 0]]}', "'rotation' must be a 3x3"),
            ('{"position": [1%s, 0, 0], "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}' % ("0" * 400),
             "'position' must be a list of 3"),
        ],
        ids=[
            "missing-file", "not-json", "short-position", "flat-rotation", "string-position",
            "bool-position", "bool-rotation", "ragged-rotation", "huge-integer-position",
        ],
    )
    def test_bad_pose_file_exit_one(self, tmp_path, capsys, text, match):
        path = tmp_path / "pose.json"
        if text is not None:
            path.write_text(text)
        assert cli.main(["solve", "--robot", "ur5", "--pose", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert match in captured.err

    def test_non_numeric_init_exit_one(self, solvable_pose, capsys):
        code = cli.main(["solve", "--robot", "ur5", "--pose", solvable_pose, "--init", "0,0,a,0,0,0"])
        assert code == 1
        assert "--init must be comma-separated numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["trace", "--links", "1_0,1", "--v-init", "1,0,0", "--target", "10.5,0.1,0"], "--links"),
            (["solve", "--robot", "ur5", "--init", "0,0,1_0,0,0,0"], "--init"),
        ],
        ids=["links", "init"],
    )
    def test_digit_separator_exit_one(self, solvable_pose, tmp_path, capsys, argv, what):
        # Python's float() would read 1_0 as 10
        argv += ["--out", str(tmp_path / "t.csv")] if argv[0] == "trace" else ["--pose", solvable_pose]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {what} must be comma-separated numbers")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("eps", ["0", "-1e-6", "nan"])
    def test_non_positive_eps_exit_one(self, solvable_pose, capsys, eps):
        assert cli.main(["solve", "--robot", "ur5", "--pose", solvable_pose, f"--eps={eps}"]) == 1
        assert "must be positive and finite" in capsys.readouterr().err

    def test_default_eps_is_the_library_default(self):
        parser = cli.build_parser()
        for argv in (
            ["solve", "--robot", "ur5", "--pose", "p.json"],
            ["bench", "--robot", "ur5", "--out-prefix", "b"],
            ["trace", "--target", "1,0,0", "--out", "t.csv"],
            ["track", "--robot", "ur5", "--out", "t.csv"],
        ):
            assert parser.parse_args(argv).eps == SolverConfig().eps_tol
            assert parser.parse_args(argv + ["--model", "m.json"]).model == "m.json"

    def test_reflected_pose_exit_one(self, tmp_path, ur5_model, capsys):
        t = forward_kinematics(ur5_model, np.array([0.4, -1.0, 1.3, -0.5, 0.7, 0.2])).copy()
        t[:3, 0] = -t[:3, 0]
        pose = write_pose(tmp_path / "mirror.json", t)
        assert cli.main(["solve", "--robot", "ur5", "--pose", pose]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "reflection" in captured.err

    def test_init_length_validated(self, solvable_pose, capsys):
        code = cli.main(["solve", "--robot", "ur5", "--pose", solvable_pose, "--init", "0,0"])
        assert code == 1

    def test_fabrik_mode_flag(self, solvable_pose, capsys):
        code = cli.main(
            ["solve", "--robot", "ur5", "--pose", solvable_pose, "--mode", "fabrik:400"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 3)
        assert doc["opt_used"] is False

    @pytest.mark.parametrize(
        "mode, config",
        [
            ("fabrik:400", SolverConfig(use_optimizer=False, sweep_cap=400)),
            ("combined", SolverConfig()),
        ],
    )
    def test_mode_matches_library_config(self, solvable_pose, capsys, ur5_model, mode, config):
        init = np.array([0.1, -0.8, 1.0, -0.3, 0.5, 0.0])
        argv = ["solve", "--robot", "ur5", "--pose", solvable_pose, "--mode", mode]
        code = cli.main(argv + ["--init", ",".join(repr(float(v)) for v in init)])
        doc = json.loads(capsys.readouterr().out)
        pose = cli.load_pose_file(solvable_pose)
        result = solve_ik(ur5_model, IKQuery(t_des=pose, theta_init=init, config=config))
        assert code == 0 and result.status is IKStatus.SOLVED
        assert doc["status"] == result.status.value
        assert doc["theta"] == [float(v) for v in result.theta]
        assert doc["fabrik_iters"] == result.fabrik_iterations
        assert doc["opt_used"] == result.optimizer_used
        assert doc["opt_iters"] == result.optimizer_iterations

    @pytest.mark.parametrize("mode", ["combined:0", "sqp:5", "fabrik:x", "combined:"])
    def test_malformed_mode_exit_one(self, solvable_pose, capsys, mode):
        code = cli.main(["solve", "--robot", "ur5", "--pose", solvable_pose, "--mode", mode])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "dh",
        [[{"a": 0.0, "alpha": 0.0, "d": 0.1}], "abc"],
        ids=["one-row", "dh-string"],
    )
    def test_malformed_model_exit_one(self, tmp_path, solvable_pose, capsys, dh):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"name": "ur5", "dh": dh, "limits": [[-1.0, 1.0]]}))
        code = cli.main(
            ["solve", "--robot", "ur5", "--model", str(model_file), "--pose", solvable_pose]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load robot model") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "robot, row, field, value, message",
        [
            ("ur5", 1, "a", 0.0, "l2 and l3 must be positive"),
            ("kuka", 2, "d", -0.42, "l2 and l3 must be positive"),
            ("ur5", 2, "a", 0.39225, "l2 and l3 must be positive (the UR sign convention"),
            ("kuka", 0, "d", 0.0, "base riser l1 (dh[0].d) must be positive"),
            ("ur5", 2, "a", -1e-8, "l2 and l3 must each be at least 1e-06 of their lay-out's"),
        ],
        ids=["ur5-l2-zero", "kuka-l2-negative", "ur5-a3-positive", "kuka-l1-zero", "ur5-a3-tiny"],
    )
    def test_non_positive_chain_link_exit_one(
        self, tmp_path, solvable_pose, capsys, robot, row, field, value, message
    ):
        doc = json.loads(model_to_json(get_model(robot)))
        doc["dh"][row][field] = value
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc))
        code = cli.main(
            ["solve", "--robot", robot, "--model", str(model_file), "--pose", solvable_pose]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load robot model") and err.count("\n") == 1
        assert message in err

    def test_model_of_another_robot_exit_one(self, tmp_path, kuka_model, solvable_pose, capsys):
        model_file = tmp_path / "kuka.json"
        model_file.write_text(model_to_json(kuka_model))
        code = cli.main(
            ["solve", "--robot", "ur5", "--model", str(model_file), "--pose", solvable_pose]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --model holds a kuka model, not --robot ur5\n"

    def test_model_override(self, tmp_path, ur5_model, solvable_pose, capsys):
        model_file = tmp_path / "model.json"
        model_file.write_text(model_to_json(ur5_model))
        code = cli.main(
            ["solve", "--robot", "ur5", "--pose", solvable_pose, "--model", str(model_file)]
        )
        assert code == 0


class TestBenchCommand:
    def test_creates_two_files_per_mode(self, tmp_path, capsys):
        prefix = str(tmp_path / "bench")
        code = cli.main(
            [
                "bench", "--robot", "ur5", "--n", "10", "--seed", "1",
                "--modes", "combined:5", "--out-prefix", prefix, "--workers", "1",
            ]
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bench_combined_5.csv", "bench_combined_5_summary.json",
        ]
        rows = list(csv.reader(Path(prefix + "_combined_5.csv").read_text().splitlines()))
        assert len(rows) == 11
        summary = json.loads(Path(prefix + "_combined_5_summary.json").read_text())
        assert summary["n"] == 10
        times = [float(r[7]) for r in rows[1:]]
        quartiles = np.percentile(times, [0, 25, 50, 75, 100]).tolist()
        assert summary["time_s"] == dict(zip(["min", "q1", "median", "q3", "max"], quartiles))

    @pytest.mark.parametrize(
        "limit", [[-1.0, math.nan], [-math.inf, 1.0]], ids=["nan-limit", "inf-limit"]
    )
    def test_non_finite_model_limit_exit_one(self, tmp_path, capsys, limit):
        doc = json.loads(model_to_json(get_model("ur5")))
        doc["limits"][1] = limit
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc))
        prefix = str(tmp_path / "bench")
        code = cli.main(
            [
                "bench", "--robot", "ur5", "--model", str(model_file), "--n", "4",
                "--out-prefix", prefix, "--workers", "1",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load robot model") and err.count("\n") == 1
        assert "finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("limit", [[False, True], ["-1", "1"]], ids=["bool-limit", "string-limit"])
    def test_non_number_model_limit_exit_one(self, tmp_path, capsys, limit):
        doc = json.loads(model_to_json(get_model("ur5")))
        doc["limits"][1] = limit
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc))
        code = cli.main(
            [
                "bench", "--robot", "ur5", "--model", str(model_file), "--n", "4",
                "--out-prefix", str(tmp_path / "bench"), "--workers", "1",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load robot model") and err.count("\n") == 1
        assert "must be a number" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_same_seed_same_counts(self, tmp_path, capsys):
        args = [
            "bench", "--robot", "kuka", "--n", "8", "--seed", "5",
            "--modes", "fabrik:40", "--workers", "1",
        ]
        assert cli.main(args + ["--out-prefix", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out-prefix", str(tmp_path / "b")]) == 0
        a = json.loads((tmp_path / "a_fabrik_40_summary.json").read_text())
        b = json.loads((tmp_path / "b_fabrik_40_summary.json").read_text())
        assert a["success_rate"] == b["success_rate"]

    def test_default_mode_uses_each_robots_switch_index(self, tmp_path, capsys):
        prefix = str(tmp_path / "bench")
        # seed 0: both queries run more than 5 sweeps under the KUKA's cap of 15
        argv = ["bench", "--robot", "kuka", "--n", "2", "--seed", "0", "--workers", "1"]
        assert cli.main(argv + ["--out-prefix", prefix]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bench_combined.csv", "bench_combined_summary.json",
        ]
        rows = list(csv.DictReader(Path(prefix + "_combined.csv").read_text().splitlines()))
        model = get_model("kuka")
        queries = bm.generate_queries(model, 2, 0)
        kuka_default, ur5_default = bm.run_benchmark(
            model, queries, [bm.parse_mode("combined:15"), bm.parse_mode("combined:5")]
        )
        sweeps = [int(row["fabrik_iters"]) for row in rows]
        assert [row["mode"] for row in rows] == ["combined", "combined"]
        assert sweeps == [r.fabrik_iters for r in kuka_default.records]
        assert sweeps != [r.fabrik_iters for r in ur5_default.records]
        iterations = [int(row["opt_iters"]) for row in rows]
        assert iterations == [r.opt_iters for r in kuka_default.records]
        assert sum(iterations) > 0

    def test_one_query_starts_no_worker_pool(self, tmp_path, capsys, monkeypatch):
        # the default --workers is one per CPU; a single query runs in-process
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(bm, "ProcessPoolExecutor", no_pool)
        argv = ["bench", "--robot", "kuka", "--n", "1", "--workers", "64"]
        assert cli.main(argv + ["--out-prefix", str(tmp_path / "b")]) == 0
        assert cli.main(["bench", "--robot", "kuka", "--n", "1", "--out-prefix", str(tmp_path / "c")]) == 0

    @pytest.mark.parametrize("modes", [",", " , "])
    def test_empty_mode_list_exit_one(self, tmp_path, capsys, modes):
        code = cli.main(
            ["bench", "--robot", "ur5", "--n", "2", "--modes", modes, "--out-prefix", str(tmp_path / "b")]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: at least one mode is required\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", ["-1", "1.5"], ids=["negative", "float"])
    def test_bad_seed_exit_one(self, tmp_path, capsys, seed):
        prefix = tmp_path / "b"
        argv = ["bench", "--robot", "ur5", "--n", "1", "--seed", seed, "--out-prefix", str(prefix)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "argument --seed:" in err and err.count("error:") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output(self, tmp_path, capsys):
        code = cli.main(
            [
                "bench", "--robot", "ur5", "--n", "2", "--seed", "1",
                "--modes", "combined:5", "--out-prefix", "/nonexistent-dir/x", "--workers", "1",
            ]
        )
        assert code == 1


class TestTraceCommand:
    def test_target_at_end_short_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = cli.main(
            [
                "trace", "--links", "1,1", "--base", "0,0,0", "--v-init", "1,0,0",
                "--target", "1.9999995,0.001,0", "--cap", "9000", "--out", str(out),
            ]
        )
        assert code in (0,)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["n", "dist"]

    def test_slight_bend_long_plateau(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = cli.main(
            [
                "trace", "--links", "1,1", "--base", "0,0,0", "--v-init", "1,0,0",
                "--target", "1.99,0.001,0", "--cap", "9000", "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert len(rows) > 100
        dists = [float(r[1]) for r in rows]
        assert all(d > 0.0 for d in dists)
        assert dists[-1] <= 1e-6

    def test_unreachable_exit_two(self, tmp_path, capsys):
        code = cli.main(
            [
                "trace", "--links", "1,1", "--base", "0,0,0", "--v-init", "1,0,0",
                "--target", "5,0,0", "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2

    def test_target_in_the_hole_exit_two(self, tmp_path, capsys):
        # links 2 and 1 never bring the end within 1 of the base
        code = cli.main(
            ["trace", "--links", "2,1", "--target", "0.5,0,0", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: target is out of the chain's reach\n"
        assert not (tmp_path / "t.csv").exists()

    def test_target_within_eps_beyond_the_reach_converges(self, tmp_path, capsys):
        code = cli.main(
            ["trace", "--links", "1,1", "--target", "2.0000005,0,0", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("converged=True sweeps=1 ")

    def test_kuka_reduced_chain_trace(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code = cli.main(["trace", "--robot", "kuka", "--target", "0.3,0.2,0.9", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_ur5_robot_trace_needs_links(self, tmp_path, capsys):
        code = cli.main(["trace", "--robot", "ur5", "--target", "0.3,0.2,0.9", "--out", str(tmp_path / "u.csv")])
        assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--target", "nan,0,0"],
        ["trace", "--target", "inf,0,0"],
        ["trace", "--links", "1,nan", "--target", "1,0,0"],
        ["trace", "--links", "1,1", "--v-init", "0,0,0", "--target", "1,0,0"],
        ["track", "--robot", "ur5", "--end-config", "nan,0,0,0,0,0"],
        ["trace", "--links", "1e-200,1e-200", "--target", "1e-200,0,0"],
        # rounding absorbs a link into the coordinates before it
        ["trace", "--links", "1,1e-20", "--target", "1,0.5,0"],
        ["trace", "--links", "1,1", "--base", "1e17,0,0", "--v-init", "1,0,0", "--target", "1e17,1,0"],
        # links below the sweeps' 1e-12 coincidence scale
        [
            "trace", "--links", "1e-13,1e-13", "--target", "1e-13,5e-14,0", "--v-init", "1,0,0",
            "--eps", "1e-20",
        ],
        # a reach whose squared distances would overflow
        ["trace", "--links", "1e200,1e200", "--target", "1,0,0"],
        ["trace", "--links", "1e308,1e308", "--target", "1,0,0"],
    ],
    ids=[
        "nan-target", "inf-target", "nan-link", "zero-v-init", "nan-end-config", "tiny-links",
        "absorbed-link", "far-base", "sub-sweep-scale-links", "huge-links", "overflowing-links",
    ],
)
def test_bad_numbers_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    code = cli.main(argv + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_huge_target_is_unreachable_without_warnings(tmp_path, capsys):
    code = cli.main(["trace", "--target", "1e300,0,0", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: target is out of the chain's reach\n"


@pytest.mark.filterwarnings("error")
def test_huge_links_rejected(tmp_path, capsys):
    code = cli.main(
        ["trace", "--links", "1e200,1e200", "--target", "1,0,0", "--out", str(tmp_path / "t.csv")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --links") and err.count("\n") == 1


@pytest.mark.parametrize("robot", ["ur5", "kuka"])
@pytest.mark.parametrize("eps", [1e-150, 1e-200], ids=["tiny", "square-underflows"])
def test_eps_below_the_float_noise_fails(tmp_path, capsys, robot, eps):
    # no solve gets within 1e-150 m; at 1e-200 the optimizer's stop
    # value eps * eps underflows to 0, which only an exact zero reaches
    model = get_model(robot)
    t = forward_kinematics(model, np.full(model.dof, 0.3))
    query = IKQuery(t, np.zeros(model.dof), SolverConfig(eps_tol=eps))
    assert solve_ik(model, query).status is IKStatus.FAILED
    pose = write_pose(tmp_path / "pose.json", t)
    code = cli.main(["solve", "--robot", robot, "--pose", pose, "--eps", repr(eps)])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "failed"


class TestTrackCommand:
    def test_small_run_row_count(self, tmp_path, capsys):
        out = tmp_path / "track.csv"
        code = cli.main(
            ["track", "--robot", "kuka", "--phase1-n", "2", "--phase2-n", "2", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 1 + 4

    def test_usage_error_exit_one(self, capsys):
        assert cli.main(["track", "--robot", "kuka", "--phase1-n", "0", "--out", "x.csv"]) == 1

    def test_end_config_outside_limits_exit_one(self, tmp_path, capsys):
        argv = [
            "track", "--robot", "ur5", "--phase1-n", "2", "--phase2-n", "3",
            "--end-config", "10,0,0,0,0,0", "--out", str(tmp_path / "t.csv"),
        ]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: theta_end must lie within the joint limits\n"
        assert not (tmp_path / "t.csv").exists()

    def test_limits_excluding_scripted_start_exit_one(self, tmp_path, ur5_model, capsys):
        doc = json.loads(model_to_json(ur5_model))
        doc["limits"] = [[-0.5, 0.5]] * 6
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc))
        argv = [
            "track", "--robot", "ur5", "--model", str(model_file), "--end-config", "0,0,0,0,0,0",
            "--out", str(tmp_path / "t.csv"),
        ]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: the scripted start must lie within the joint limits\n"
        )
        assert not (tmp_path / "t.csv").exists()

    def test_limits_excluding_zero_configuration_exit_one(self, tmp_path, ur5_model, capsys):
        # joint 3 admits the scripted start (2.05) and end (2.8) but not
        # the zero configuration where phase 1 ends and phase 2 starts
        doc = json.loads(model_to_json(ur5_model))
        doc["limits"][2] = [0.5, 3.1]
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc))
        argv = ["track", "--robot", "ur5", "--model", str(model_file)]
        assert cli.main(argv + ["--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: the zero configuration must lie within the joint limits\n"
        )
        assert not (tmp_path / "t.csv").exists()
