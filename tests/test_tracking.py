import csv
import dataclasses

import numpy as np
import pytest

from fabrik_sqp import tracking
from fabrik_sqp.geometry import CartesianError
from fabrik_sqp.iktypes import IKResult, IKStatus, SolverConfig
from fabrik_sqp.robots import forward_kinematics


class TestPhase1Path:
    def test_two_points_are_endpoints(self, ur5_model):
        theta_init = tracking.SCRIPTED_THETA_INIT["ur5"]
        pts = tracking.build_phase1_path(ur5_model, theta_init, 2)
        assert pts.shape == (2, 3)
        p_zero = tracking.reduced_end_position(ur5_model, np.zeros(6))
        assert np.allclose(pts[1], p_zero, atol=1e-12)
        # start point: the current reduced-chain end projected onto the
        # line (the scripted configuration sits ~30 um off it)
        p_now = tracking.reduced_end_position(ur5_model, theta_init)
        assert np.linalg.norm(pts[0] - p_now) <= 1e-3

    def test_points_collinear_with_v_init(self, kuka_model):
        theta_init = tracking.SCRIPTED_THETA_INIT["kuka"]
        pts = tracking.build_phase1_path(kuka_model, theta_init, 80)
        v = tracking.initial_direction(kuka_model, theta_init)
        rel = pts - pts[0]
        lateral = rel - np.outer(rel @ v, v)
        assert np.max(np.linalg.norm(lateral, axis=1)) <= 1e-9

    def test_even_spacing(self, ur5_model):
        pts = tracking.build_phase1_path(ur5_model, tracking.SCRIPTED_THETA_INIT["ur5"], 10)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.allclose(steps, steps[0], atol=1e-12)

    def test_single_point_rejected(self, ur5_model):
        with pytest.raises(ValueError, match="n_points must be at least 2"):
            tracking.build_phase1_path(ur5_model, tracking.SCRIPTED_THETA_INIT["ur5"], 1)

    def test_phase1_pose_targets_recover_line_points(self, kuka_model):
        from fabrik_sqp import kuka as kuka_mod

        theta_init = tracking.SCRIPTED_THETA_INIT["kuka"]
        pts = tracking.build_phase1_path(kuka_model, theta_init, 7)
        poses = tracking.phase1_poses(kuka_model, theta_init, pts)
        for p, pose in zip(pts, poses):
            assert np.allclose(kuka_mod.wrist_target(pose[:3].tolist(), kuka_model), p, atol=1e-9)


class TestPhase2Path:
    def test_endpoints(self, ur5_model):
        start = np.zeros(6)
        end = tracking.SCRIPTED_THETA_END["ur5"]
        poses = tracking.build_phase2_path(ur5_model, start, end, 2)
        assert np.allclose(poses[0], forward_kinematics(ur5_model, start), atol=1e-15)
        assert np.allclose(poses[1], forward_kinematics(ur5_model, end), atol=1e-15)

    def test_midpoint_sample(self, kuka_model):
        start = np.zeros(7)
        end = tracking.SCRIPTED_THETA_END["kuka"]
        poses = tracking.build_phase2_path(kuka_model, start, end, 3)
        assert np.allclose(
            poses[1], forward_kinematics(kuka_model, (start + end) / 2), atol=1e-12
        )

    def test_single_point_rejected(self, kuka_model):
        with pytest.raises(ValueError, match="n_points must be at least 2"):
            tracking.build_phase2_path(kuka_model, np.zeros(7), tracking.SCRIPTED_THETA_END["kuka"], 1)

    def test_default_count(self, kuka_model):
        poses = tracking.build_phase2_path(
            kuka_model, np.zeros(7), tracking.SCRIPTED_THETA_END["kuka"], 100
        )
        assert len(poses) == 100


class TestTrack:
    def test_stationary_path(self, ur5_model):
        theta = np.array([0.2, -0.9, 1.3, -0.4, 0.6, -0.2])
        pose = forward_kinematics(ur5_model, theta)
        waypoints = [(1, pose)] * 5
        trace = tracking.track(ur5_model, waypoints, theta, SolverConfig())
        assert trace.completed
        assert all(r.error.eps_pos <= 1e-6 for _, r in trace.records)
        assert trace.max_joint_step() <= 1e-3

    def test_max_joint_step_needs_two_records(self):
        trace = tracking.TrackingTrace()
        assert trace.max_joint_step() == 0.0
        result = IKResult(IKStatus.SOLVED, np.array([3.1, 0.5]), CartesianError(0.0, 0.0), 0, False, 0, 0.0)
        trace.records.append((1, result))
        assert trace.max_joint_step() == 0.0

    def test_max_joint_step_wraps_across_pi(self):
        trace = tracking.TrackingTrace()
        error = CartesianError(0.0, 0.0)
        for theta in ([3.1, 0.5], [-3.1, 0.47]):
            result = IKResult(IKStatus.SOLVED, np.array(theta), error, 0, False, 0, 0.0)
            trace.records.append((2, result))
        # 3.1 -> -3.1 crosses +-pi: a step of 2*pi - 6.2, not 6.2
        assert abs(trace.max_joint_step() - (2 * np.pi - 6.2)) <= 1e-12

    def test_warm_start_is_previous_solution(self, ur5_model, monkeypatch):
        import fabrik_sqp

        theta = np.array([0.2, -0.9, 1.3, -0.4, 0.6, -0.2])
        waypoints = [(1, forward_kinematics(ur5_model, theta + 0.01 * k)) for k in range(4)]
        seen = []
        original = fabrik_sqp.solve_ik

        def spy(model, query):
            seen.append(np.array(query.theta_init))
            return original(model, query)

        monkeypatch.setattr(tracking, "track", tracking.track)
        monkeypatch.setattr("fabrik_sqp.solve_ik", spy)
        trace = tracking.track(ur5_model, waypoints, theta, SolverConfig())
        assert trace.completed
        for (_, result), init in zip(trace.records[:-1], seen[1:]):
            assert np.array_equal(result.theta, init)

    def test_failure_gives_partial_trace(self, ur5_model):
        theta = np.array([0.2, -0.9, 1.3, -0.4, 0.6, -0.2])
        good = forward_kinematics(ur5_model, theta)
        bad = good.copy()
        bad[:3, 3] = [3.0, 0.0, 0.0]
        trace = tracking.track(ur5_model, [(1, good), (1, bad), (1, good)], theta, SolverConfig())
        assert not trace.completed
        assert trace.failed_index == 1
        assert len(trace.records) == 1

    def test_csv_export(self, kuka_model, tmp_path):
        theta_init, waypoints = tracking.scripted_waypoints(kuka_model, 3, 3)
        trace = tracking.track(kuka_model, waypoints, theta_init, SolverConfig())
        assert trace.completed
        path = tmp_path / "trace.csv"
        tracking.write_trace_csv(trace, kuka_model.dof, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == (
            ["index", "phase"]
            + [f"theta_{i}" for i in range(1, 8)]
            + ["eps_pos", "eps_rot", "opt_used", "time_seconds"]
        )
        assert len(rows) == 1 + 6


class TestScriptedScenario:
    def test_waypoint_counts(self, ur5_model):
        _, waypoints = tracking.scripted_waypoints(ur5_model, 80, 100)
        assert len(waypoints) == 180
        assert sum(1 for p, _ in waypoints if p == 1) == 80

    def test_phase1_end_is_zero_pose(self, kuka_model):
        theta_init, waypoints = tracking.scripted_waypoints(kuka_model)
        last_phase1 = [pose for phase, pose in waypoints if phase == 1][-1]
        zero_pose = forward_kinematics(kuka_model, np.zeros(7))
        # orientation held at the scripted initial value equals the zero
        # configuration's orientation for these start configurations
        assert np.allclose(last_phase1, zero_pose, atol=1e-9)

    @pytest.mark.parametrize(
        "theta_end, match",
        [
            (np.array([10.0, 0, 0, 0, 0, 0]), "theta_end must lie within the joint limits"),
            (np.zeros(5), "theta_end must have 6 entries for ur5"),
            (np.array([np.nan, 0, 0, 0, 0, 0]), "theta_end must be finite"),
        ],
        ids=["out-of-limit", "wrong-length", "nan"],
    )
    def test_bad_end_configuration_rejected(self, ur5_model, theta_end, match):
        with pytest.raises(ValueError, match=match):
            tracking.scripted_waypoints(ur5_model, 2, 3, theta_end=theta_end)

    def test_scripted_start_outside_limits_rejected(self, ur5_model):
        model = dataclasses.replace(ur5_model, joint_limits=np.tile([-0.5, 0.5], (6, 1)))
        with pytest.raises(ValueError, match="scripted start must lie within the joint limits"):
            tracking.scripted_waypoints(model, 2, 3, theta_end=np.zeros(6))

    def test_zero_configuration_outside_limits_rejected(self, ur5_model):
        limits = ur5_model.joint_limits.copy()
        limits[2] = [0.5, 3.1]  # holds the scripted start and end, not zero
        model = dataclasses.replace(ur5_model, joint_limits=limits)
        with pytest.raises(ValueError, match="zero configuration must lie within the joint limits"):
            tracking.scripted_waypoints(model, 2, 3)
