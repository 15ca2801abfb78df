import math
from dataclasses import replace

import numpy as np
import pytest

from fabrik_sqp import benchmark, fabrik, ur5
from fabrik_sqp.geometry import make_transform, wrap_angle
from fabrik_sqp.iktypes import IKQuery, IKStatus, SolverConfig
from fabrik_sqp.robots import fk_frames, forward_kinematics, pose_mismatch

from conftest import UR5_REF_THETA


class TestWristPosition:
    def test_identity_pose_at_flange_height(self, ur5_model):
        l6 = ur5_model.link_lengths[5]
        t = make_transform(np.eye(3), [0.0, 0.0, l6])
        assert np.allclose(ur5.wrist_position(t, ur5_model), [0.0, 0.0, 0.0], atol=1e-15)

    def test_flipped_tool_axis(self, ur5_model):
        l6 = ur5_model.link_lengths[5]
        r = np.diag([1.0, -1.0, -1.0])  # pi about x
        t = make_transform(r, [0.0, 0.0, 0.0])
        assert np.allclose(ur5.wrist_position(t, ur5_model), [0.0, 0.0, l6], atol=1e-15)

    def test_matches_independent_matrix_script(self, ur5_model, golden_ur5_pose):
        t = golden_ur5_pose
        want = t[:3, 3] - t[:3, :3] @ np.array([0.0, 0.0, ur5_model.link_lengths[5]])
        assert np.allclose(ur5.wrist_position(t, ur5_model), want, atol=1e-15)


class TestTheta1Candidates:
    def test_double_root_on_offset_cylinder(self, ur5_model):
        l4 = ur5_model.link_lengths[3]
        p_w = np.array([l4, 0.0, 0.3])
        a, b = ur5.theta1_candidates(p_w, ur5_model)
        assert a == pytest.approx(b, abs=1e-12)

    def test_far_wrist_approaches_half_pi_split(self, ur5_model):
        from fabrik_sqp.geometry import wrap_angle

        l4 = ur5_model.link_lengths[3]
        rho = 100.0
        p_w = np.array([rho, 0.0, 0.1])
        cands = ur5.theta1_candidates(p_w, ur5_model)
        # oracle: +-acos(l4/rho) + pi/2 + atan2(0, rho), reduced to [-pi, pi)
        half = math.acos(l4 / rho)
        want = sorted([wrap_angle(math.pi / 2 + half), wrap_angle(math.pi / 2 - half)])
        for got, expect in zip(sorted(cands), want):
            assert got == pytest.approx(expect, abs=1e-12)

    def test_inside_cylinder_is_unreachable(self, ur5_model):
        p_w = np.array([0.01, 0.0, 0.3])
        assert ur5.theta1_candidates(p_w, ur5_model) == []

    def test_golden_pose_contains_reference_theta1(self, ur5_model, golden_ur5_pose):
        p_w = ur5.wrist_position(golden_ur5_pose, ur5_model)
        cands = ur5.theta1_candidates(p_w, ur5_model)
        assert min(abs(c - UR5_REF_THETA[0]) for c in cands) <= 5e-3


class TestPlanarFrame:
    def test_zero_theta1_axes(self, ur5_model, golden_ur5_pose):
        frame = ur5.planar_frame(0.0, golden_ur5_pose, ur5.wrist_position(golden_ur5_pose, ur5_model), ur5_model)
        assert np.allclose(frame.z2d, [0.0, -1.0, 0.0], atol=1e-15)
        assert np.allclose(frame.v_init, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_degenerate_wrist_flagged(self, ur5_model):
        # tool z-axis along the joint-2 axis for theta1 = 0: (0,-1,0)
        r = np.column_stack([np.array([1.0, 0, 0]), np.array([0, 0, 1.0]), np.array([0, -1.0, 0])])
        t = make_transform(r, [0.4, -0.2, 0.3])
        frame = ur5.planar_frame(0.0, t, ur5.wrist_position(t, ur5_model), ur5_model)
        assert np.array_equal(frame.l5d_options[0], -t[:3, 1])

    def test_wrist_projection_removes_lateral_offset(self, ur5_model):
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rng.uniform(-math.pi, math.pi, 6)
            t = forward_kinematics(ur5_model, theta)
            p_w = ur5.wrist_position(t, ur5_model)
            frame = ur5.planar_frame(float(theta[0]), t, p_w, ur5_model)
            # offset along the plane normal equals the wrist lateral link
            assert float(np.dot(frame.z2d, p_w)) == pytest.approx(
                ur5_model.link_lengths[3], abs=1e-9
            )
            assert abs(float(np.dot(frame.z2d, frame.p_w_proj))) <= 1e-9


def chain_angles(model, frame, theta):
    """(theta2, theta3) of the planar chain that FK places for theta."""
    frames = fk_frames(model, theta)
    chain = ur5.make_chain(frame, model)
    chain = replace(chain, positions=np.array([frames[i][:3, 3] for i in (1, 2, 3)]))
    return ur5.Branch(frame, frame.l5d_options[0], theta, model).from_chain(chain)


class TestRecoverAngles:
    def test_fk_roundtrip_over_random_configurations(self, ur5_model):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 6)
            t_des = forward_kinematics(ur5_model, theta)
            p_w = ur5.wrist_position(t_des, ur5_model)
            best = math.inf
            for theta1 in ur5.theta1_candidates(p_w, ur5_model):
                frame = ur5.planar_frame(theta1, t_des, p_w, ur5_model)
                theta2, theta3 = chain_angles(ur5_model, frame, theta)
                for l5d in frame.l5d_options:
                    wrist = ur5.wrist_angles(frame, l5d, t_des, ur5_model)
                    rec = ur5.recover_angles(theta1, theta2, theta3, wrist)
                    best = min(best, pose_mismatch(ur5_model, rec, t_des))
            if best <= 1e-9:
                hits += 1
        assert hits == 100

    def test_chain_angles_are_the_fk_joint_angles(self, ur5_model):
        rng = np.random.default_rng(6)
        for _ in range(50):
            theta = rng.uniform(-math.pi, math.pi, 6)
            t_des = forward_kinematics(ur5_model, theta)
            p_w = ur5.wrist_position(t_des, ur5_model)
            frame = ur5.planar_frame(float(theta[0]), t_des, p_w, ur5_model)
            got = chain_angles(ur5_model, frame, theta)
            assert np.allclose(wrap_angle(np.subtract(got, theta[1:3])), 0.0, atol=1e-9)

    def test_degenerate_wrist_zeroes_last_joints(self, ur5_model):
        theta = np.array([0.4, -0.8, 1.1, -0.3, 0.0, 0.0])
        t_des = forward_kinematics(ur5_model, theta)
        p_w = ur5.wrist_position(t_des, ur5_model)
        frame = ur5.planar_frame(float(theta[0]), t_des, p_w, ur5_model)
        assert np.array_equal(frame.l5d_options[0], -t_des[:3, 1])
        wrist = ur5.wrist_angles(frame, frame.l5d_options[0], t_des, ur5_model)
        rec = ur5.recover_angles(frame.theta1, *chain_angles(ur5_model, frame, theta), wrist)
        assert abs(rec[4]) <= 1e-12 and abs(rec[5]) <= 1e-12
        assert pose_mismatch(ur5_model, rec, t_des) <= 1e-9
        # joint 6 turns about the joint 2-4 axis, so the other riser, and
        # both risers of a theta5 = pi frame, give exact (theta5, theta6) too
        flipped = forward_kinematics(ur5_model, [0.4, -0.8, 1.1, -0.3, math.pi, 0.7])
        for t in (t_des, flipped):
            frame = ur5.planar_frame(frame.theta1, t, ur5.wrist_position(t, ur5_model), ur5_model)
            assert np.array_equal(frame.l5d_options[0], -t[:3, 1])
            for l5d in frame.l5d_options:
                # a planar two-link solve at the riser's own elbow target
                branch = ur5.Branch(frame, l5d, theta, ur5_model)
                outcome = fabrik.solve(fabrik.pre_bend(branch.chain()), branch.target, 1e-12, 1000)
                wrist = ur5.wrist_angles(frame, l5d, t, ur5_model)
                rec = ur5.recover_angles(frame.theta1, *branch.from_chain(outcome.chain), wrist)
                assert outcome.converged and pose_mismatch(ur5_model, rec, t) <= 1e-9

    def test_fourth_joint_closes_the_branch_sum(self, ur5_model):
        rec = ur5.recover_angles(0.2, 1.0, 2.5, (-3.0, 0.4, -0.5))
        # -3.0 - 1.0 - 2.5 = -6.5 wraps to 2*pi - 6.5
        assert rec == pytest.approx([0.2, 1.0, 2.5, 2 * math.pi - 6.5, 0.4, -0.5], abs=1e-15)


class TestFoldVariants:
    def test_mirror_reaches_the_same_point(self, ur5_model):
        rng = np.random.default_rng(7)
        for _ in range(100):
            theta1, theta2, theta3 = rng.uniform(-math.pi, math.pi, 3)
            folds = ur5.fold_variants(theta2, theta3, ur5_model)
            assert folds[0] == (theta2, theta3)
            (m2, m3) = folds[1]
            assert m3 == -theta3
            want = ur5.elbow_position(ur5_model, theta1, theta2, theta3)
            got = ur5.elbow_position(ur5_model, theta1, m2, m3)
            assert np.allclose(got, want, atol=1e-12)

    def test_straight_chain_has_one_fold(self, ur5_model):
        assert ur5.fold_variants(0.7, 0.0, ur5_model) == [(0.7, 0.0)]
        assert len(ur5.fold_variants(0.7, 1e-8, ur5_model)) == 2


class TestElbowOptimize:
    def test_seeds_already_solving_return_immediately(self, ur5_model):
        theta = np.array([0.3, -0.7, 1.2, 0.0, 0.0, 0.0])
        target = ur5.elbow_position(ur5_model, 0.3, -0.7, 1.2)
        result, x = ur5.elbow_optimize(
            0.3, target, (-0.7, 1.2), ur5_model, ur5_model.joint_limits[1:3], 1e-12
        )
        assert result.iterations == 0
        assert result.f <= 1e-12
        assert np.array_equal(x, [-0.7, 1.2])

    def test_reach_boundary_gives_full_extension(self, ur5_model):
        l2, l3 = ur5_model.link_lengths[1], ur5_model.link_lengths[2]
        theta1 = 0.5
        target = ur5.elbow_position(ur5_model, theta1, 0.4, 0.0)  # straight elbow
        result, x = ur5.elbow_optimize(
            theta1, target, (0.2, 0.9), ur5_model, ur5_model.joint_limits[1:3], 1e-12
        )
        assert result.f <= 1e-12
        # full extension: both links parallel (theta3 = 0) within the
        # boundary sensitivity (a 1e-6 position residual maps to ~3e-3
        # rad here)
        assert abs(x[1]) <= 5e-3

    def test_gradient_matches_central_differences(self, ur5_model):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(100):
            theta1 = rng.uniform(-math.pi, math.pi)
            target = rng.normal(size=3) * 0.4
            fg = ur5.elbow_objective(ur5_model, theta1, target)
            x = rng.uniform(-math.pi, math.pi, 2)
            _, g = fg(x)
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (fg(xp)[0] - fg(xm)[0]) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestSolve:
    def test_fixed_point_query(self, ur5_model):
        theta = np.array([0.5, -1.1, 1.4, -0.4, 0.9, -0.6])
        t_des = forward_kinematics(ur5_model, theta)
        result = ur5.solve(IKQuery(t_des=t_des, theta_init=theta, config=SolverConfig()), ur5_model)
        assert result.status is IKStatus.SOLVED
        assert result.error.total <= 1e-6
        # cold-start iteration still lands on the branch nearest the
        # warm reference
        assert np.max(np.abs(result.theta - theta)) <= 5e-4

    def test_out_of_reach_pose_unreachable(self, ur5_model):
        t = make_transform(np.eye(3), [5.0, 0.0, 0.0])
        result = ur5.solve(IKQuery(t_des=t, theta_init=np.zeros(6), config=SolverConfig()), ur5_model)
        assert result.status is IKStatus.UNREACHABLE

    def test_branch_completeness(self, ur5_model):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.uniform(-math.pi, math.pi, 6)
            t_des = forward_kinematics(ur5_model, theta)
            result, detail = ur5.solve_detailed(
                IKQuery(t_des=t_des, theta_init=np.zeros(6), config=SolverConfig()), ur5_model
            )
            assert detail.branches == 4 or (
                detail.branches == 2
                and len(ur5.theta1_candidates(ur5.wrist_position(t_des, ur5_model), ur5_model)) == 1
            )

    def test_wrist_solved_once_per_branch(self, ur5_model, monkeypatch):
        calls = {"fk_prefix": 0, "fold_variants": 0}
        for name in calls:

            def counted(*args, _original=getattr(ur5, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(ur5, name, counted)
        t_des, theta_init = benchmark.generate_queries(ur5_model, 1, 7).queries[0]
        result, detail = ur5.solve_detailed(
            IKQuery(t_des=t_des, theta_init=theta_init), ur5_model
        )
        assert result.status is IKStatus.SOLVED
        # one FK prefix per branch that yields (theta2, theta3), not one
        # per candidate: each such branch gives a fold and its mirror
        assert calls["fk_prefix"] == calls["fold_variants"] == 4
        assert len(detail.candidates) == 8

    def test_selection_rule_minimizes_l1(self, ur5_model):
        rng = np.random.default_rng(4)
        for _ in range(30):
            theta = rng.uniform(-math.pi, math.pi, 6)
            init = rng.uniform(-math.pi, math.pi, 6)
            t_des = forward_kinematics(ur5_model, theta)
            result, detail = ur5.solve_detailed(
                IKQuery(t_des=t_des, theta_init=init, config=SolverConfig()), ur5_model
            )
            if result.status is not IKStatus.SOLVED:
                continue
            best = min(float(np.sum(np.abs(c - init))) for c in detail.admitted)
            assert float(np.sum(np.abs(result.theta - init))) == pytest.approx(best, abs=1e-12)

    def test_solved_results_are_sound_and_within_limits(self, ur5_model):
        rng = np.random.default_rng(5)
        solved = 0
        for _ in range(200):
            theta = rng.uniform(-math.pi, math.pi, 6)
            init = rng.uniform(-math.pi, math.pi, 6)
            t_des = forward_kinematics(ur5_model, theta)
            result = ur5.solve(IKQuery(t_des=t_des, theta_init=init, config=SolverConfig()), ur5_model)
            if result.status is IKStatus.SOLVED:
                solved += 1
                assert pose_mismatch(ur5_model, result.theta, t_des) <= 1e-6
                assert ur5_model.within_limits(result.theta)
        assert solved / 200 >= 0.995

    @pytest.mark.parametrize("theta5", [0.0, math.pi - 1e-13, 1e-12])
    def test_every_candidate_reproduces_a_singular_wrist_pose(self, ur5_model, theta5):
        rng = np.random.default_rng(8)
        risers = set()
        for _ in range(20):
            theta = rng.uniform(-math.pi, math.pi, 6)
            theta[4] = theta5
            t_des = forward_kinematics(ur5_model, theta)
            init = rng.uniform(-math.pi, math.pi, 6)
            # a tight tolerance, so the reduced chain ends on its target
            query = IKQuery(t_des=t_des, theta_init=init, config=SolverConfig(eps_tol=1e-11))
            _, detail = ur5.solve_detailed(query, ur5_model)
            for c in detail.candidates:
                assert pose_mismatch(ur5_model, c, t_des) <= 1e-9
                if abs(wrap_angle(c[0] - theta[0])) <= 1e-9:
                    # the singular frame: which of its risers (the joint 4
                    # to 5 link) the candidate uses
                    frames = fk_frames(ur5_model, c)
                    riser = frames[5][:3, 3] - frames[4][:3, 3]
                    risers.add(float(np.dot(riser, -t_des[:3, 1])) > 0.0)
        assert risers == {True, False}

    def test_fabrik_only_mode_can_fail_where_combined_succeeds(self, ur5_model, golden_ur5_pose):
        combined = ur5.solve(
            IKQuery(t_des=golden_ur5_pose, theta_init=np.zeros(6), config=SolverConfig(n_l=15)),
            ur5_model,
        )
        fabrik_only = ur5.solve(
            IKQuery(
                t_des=golden_ur5_pose,
                theta_init=np.zeros(6),
                config=SolverConfig(n_max=30, use_optimizer=False),
            ),
            ur5_model,
        )
        assert combined.status is IKStatus.SOLVED
        assert fabrik_only.status is IKStatus.FAILED

    def test_theta_init_must_be_in_limits(self, ur5_model, golden_ur5_pose):
        with pytest.raises(ValueError):
            ur5.solve(
                IKQuery(t_des=golden_ur5_pose, theta_init=np.full(6, 4.0), config=SolverConfig()),
                ur5_model,
            )
