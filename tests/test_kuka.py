import math

import numpy as np
import pytest

from fabrik_sqp import benchmark, kuka, solve_ik
from fabrik_sqp.geometry import inverse_transform, make_transform, wrap_angle
from fabrik_sqp.iktypes import IKQuery, IKStatus, SolverConfig
from fabrik_sqp.robots import fk_frames, forward_kinematics, pose_mismatch



class TestWristTarget:
    def test_zero_configuration(self, kuka_model):
        lengths = kuka_model.link_lengths
        t = make_transform(np.eye(3), [0.0, 0.0, float(np.sum(lengths))])
        want = [0.0, 0.0, float(np.sum(lengths[:3]))]
        assert np.allclose(kuka.wrist_target(t, kuka_model), want, atol=1e-12)

    def test_flipped_tool(self, kuka_model):
        l4 = kuka_model.link_lengths[3]
        t = make_transform(np.diag([1.0, -1.0, -1.0]), [0.0, 0.0, 0.0])
        assert np.allclose(kuka.wrist_target(t, kuka_model), [0.0, 0.0, l4], atol=1e-15)

    def test_matches_independent_script(self, kuka_model, golden_kuka_pose):
        t = golden_kuka_pose
        want = t[:3, 3] - t[:3, :3] @ np.array([0.0, 0.0, kuka_model.link_lengths[3]])
        assert np.allclose(kuka.wrist_target(t, kuka_model), want, atol=1e-15)


class TestBendMagnitudes:
    def test_fully_extended_chain_is_straight(self, kuka_model):
        l = kuka_model.link_lengths
        pts = np.cumsum([0.0] + list(l))
        p1, p2, p3 = ([0.0, 0.0, z] for z in pts[1:4])
        m2, m4 = kuka.bend_magnitudes(p1, p2, p3)
        assert m2 == pytest.approx(0.0, abs=1e-12)
        assert m4 == pytest.approx(0.0, abs=1e-12)

    def test_right_angle_elbow(self, kuka_model):
        l1, l2, l3, _ = kuka_model.link_lengths
        p1 = np.array([0.0, 0.0, l1])
        p2 = p1 + [0.0, 0.0, l2]
        p3 = p2 + [l3, 0.0, 0.0]
        _, m4 = kuka.bend_magnitudes(p1, p2, p3)
        assert m4 == pytest.approx(math.pi / 2, abs=1e-12)

    def test_matches_generating_configuration(self, kuka_model):
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta = rng.uniform(-math.pi, math.pi, 7)
            frames = fk_frames(kuka_model, theta)
            p1, p2, p3 = (frames[i][:3, 3] for i in (1, 3, 5))
            m2, m4 = kuka.bend_magnitudes(p1, p2, p3)
            assert m2 == pytest.approx(abs(theta[1]), abs=1e-9)
            assert m4 == pytest.approx(abs(theta[3]), abs=1e-9)


def _wrist_triples(model, theta):
    frames = fk_frames(model, theta)
    return kuka.wrist_angles(frames[4], frames[7][:3, :3])


class TestWristAngles:
    def test_generator_among_exact_triples(self, kuka_model):
        rng = np.random.default_rng(8)
        for _ in range(200):
            theta = rng.uniform(-math.pi, math.pi, 7)
            r_des = forward_kinematics(kuka_model, theta)[:3, :3]
            triples = _wrist_triples(kuka_model, theta)
            dev = [float(np.max(np.abs(wrap_angle(np.array(w) - theta[4:])))) for w in triples]
            assert min(dev) <= 1e-9
            for w in triples:
                t = forward_kinematics(kuka_model, np.concatenate([theta[:4], w]))
                assert float(np.max(np.abs(t[:3, :3] - r_des))) <= 1e-12

    def test_positive_theta6_first_with_the_flange_bend(self, kuka_model):
        rng = np.random.default_rng(9)
        for _ in range(200):
            theta = rng.uniform(-math.pi, math.pi, 7)
            triples = _wrist_triples(kuka_model, theta)
            assert [w[1] for w in triples] == [triples[0][1], -triples[0][1]]
            assert triples[0][1] == pytest.approx(abs(theta[5]), abs=1e-9)

    @pytest.mark.parametrize(
        "arm", [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, math.pi / 2], [0.3, 0.7, -0.4, 1.1]]
    )
    def test_coaxial_joints_give_one_triple(self, kuka_model, arm):
        # fully extended, right-angle elbow, general arm: theta6 = 0
        theta = np.array(arm + [0.5, 0.0, -0.9])
        triples = _wrist_triples(kuka_model, theta)
        assert len(triples) == 1
        th5, th6, th7 = triples[0]
        assert th5 == 0.0
        assert abs(th6) <= 1e-12
        assert th7 == pytest.approx(wrap_angle(theta[4] + theta[6]), abs=1e-12)


class TestAngleRecovery:
    def test_theta1_zero_configuration_symmetry(self, kuka_model):
        # elbow on the base axis: rotation undetermined, both 0 and pi offered
        p2 = np.array([0.0, 0.0, 0.78])
        roots = kuka.theta1_roots(0.0, p2)
        assert roots == [0.0, math.pi]

    def test_theta1_recovers_generator(self, kuka_model):
        rng = np.random.default_rng(1)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 7)
            if abs(math.sin(theta[1])) < 1e-3:
                continue
            p2 = kuka.elbow_position(kuka_model, theta[0], theta[1])
            roots = kuka.theta1_roots(float(theta[1]), p2)
            assert min(abs(r - theta[0]) for r in roots) <= 1e-9

    def test_theta3_recovers_generator(self, kuka_model):
        rng = np.random.default_rng(2)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 7)
            if abs(math.sin(theta[3])) < 1e-3:
                continue
            p3, _ = kuka.wrist_analytic(theta[:4], kuka_model)
            local = inverse_transform(fk_frames(kuka_model, theta[:2])[-1]) @ np.append(p3, 1.0)
            assert abs(kuka.theta3_root(theta[3], local) - theta[2]) <= 1e-9

    def test_full_candidate_roundtrip(self, kuka_model):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 7)
            t_des = forward_kinematics(kuka_model, theta)
            frames = fk_frames(kuka_model, theta)
            cands = kuka.recover_candidates(frames[3][:3, 3], frames[5][:3, 3], t_des, kuka_model)
            best = min(pose_mismatch(kuka_model, c, t_des) for c in cands)
            if best <= 1e-9:
                hits += 1
            # the generating vector itself appears among the candidates
            gen_dev = min(float(np.max(np.abs(c - theta))) for c in cands)
            assert gen_dev <= 1e-6
        assert hits == 100

    def test_flange_alignment_zeroes_theta7(self, kuka_model):
        theta = np.array([0.3, 0.7, -0.4, 1.1, 0.5, -0.8, 0.0])
        t_des = forward_kinematics(kuka_model, theta)
        frames = fk_frames(kuka_model, theta)
        cands = kuka.recover_candidates(frames[3][:3, 3], frames[5][:3, 3], t_des, kuka_model)
        match = min(cands, key=lambda c: float(np.max(np.abs(c - theta))))
        assert match[6] == pytest.approx(0.0, abs=1e-9)

    def test_every_candidate_passes_the_filter(self, kuka_model):
        rng = np.random.default_rng(10)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 7)
            t_des = forward_kinematics(kuka_model, theta)
            frames = fk_frames(kuka_model, theta)
            cands = kuka.recover_candidates(frames[3][:3, 3], frames[5][:3, 3], t_des, kuka_model)
            for c in cands:
                assert pose_mismatch(kuka_model, c, t_des) <= 1e-9
            assert len(cands) == 8


class TestWristAnalytic:
    def test_zero_configuration(self, kuka_model):
        p, _ = kuka.wrist_analytic(np.zeros(4), kuka_model)
        want = [0.0, 0.0, float(np.sum(kuka_model.link_lengths[:3]))]
        assert np.allclose(p, want, atol=1e-12)

    def test_matches_frame_product(self, kuka_model):
        rng = np.random.default_rng(4)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 7)
            p, _ = kuka.wrist_analytic(theta[:4], kuka_model)
            frames = fk_frames(kuka_model, theta)
            assert np.allclose(p, frames[5][:3, 3], atol=1e-10)

    def test_jacobian_matches_central_differences(self, kuka_model):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 4)
            _, jac = kuka.wrist_analytic(theta, kuka_model)
            for i in range(4):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd = (kuka.wrist_analytic(tp, kuka_model)[0] - kuka.wrist_analytic(tm, kuka_model)[0]) / (2 * h)
                assert np.allclose(jac[:, i], fd, rtol=1e-4, atol=1e-8)


class TestSolve:
    def test_fixed_point_query(self, kuka_model):
        theta = np.array([0.4, 0.9, -0.5, -1.2, 0.7, 0.8, -0.3])
        t_des = forward_kinematics(kuka_model, theta)
        result = solve_ik(kuka_model, IKQuery(t_des=t_des, theta_init=theta, config=SolverConfig()))
        assert result.status is IKStatus.SOLVED
        assert result.error.total <= 1e-6
        assert result.error.eps_rot <= 1e-9

    def test_unreachable_pose(self, kuka_model):
        t = make_transform(np.eye(3), [2.0, 0.0, 0.5])
        result = solve_ik(kuka_model, IKQuery(t_des=t, theta_init=np.zeros(7), config=SolverConfig()))
        assert result.status is IKStatus.UNREACHABLE

    def test_solved_results_sound_in_limits_exact_orientation(self, kuka_model):
        rng = np.random.default_rng(6)
        solved = 0
        for _ in range(200):
            theta = rng.uniform(-math.pi, math.pi, 7)
            init = rng.uniform(-math.pi, math.pi, 7)
            t_des = forward_kinematics(kuka_model, theta)
            result = solve_ik(kuka_model, IKQuery(t_des=t_des, theta_init=init, config=SolverConfig()))
            if result.status is IKStatus.SOLVED:
                solved += 1
                assert pose_mismatch(kuka_model, result.theta, t_des) <= 1e-6
                assert kuka_model.within_limits(result.theta)
                assert result.error.eps_rot <= 1e-9
        assert solved / 200 >= 0.99

    def test_selection_rule_minimizes_l1(self, kuka_model):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.uniform(-math.pi, math.pi, 7)
            init = rng.uniform(-math.pi, math.pi, 7)
            t_des = forward_kinematics(kuka_model, theta)
            result, detail = kuka.solve_detailed(
                IKQuery(t_des=t_des, theta_init=init, config=SolverConfig()), kuka_model
            )
            if result.status is not IKStatus.SOLVED:
                continue
            best = min(float(np.sum(np.abs(c - init))) for c in detail.admitted)
            assert float(np.sum(np.abs(result.theta - init))) == pytest.approx(best, abs=1e-12)

    def test_post_optimizer_angles_recomputed(self, kuka_model, golden_kuka_pose):
        # the optimizer result never leaves the solver raw: returned
        # angles come from the full recovery and reproduce the pose
        result, detail = kuka.solve_detailed(
            IKQuery(t_des=golden_kuka_pose, theta_init=np.zeros(7), config=SolverConfig(sweep_cap=15)),
            kuka_model,
        )
        assert result.status is IKStatus.SOLVED
        assert result.optimizer_used
        assert detail.optimizer is not None
        opt_vec = np.concatenate([detail.optimizer.x, result.theta[4:]])
        # seven returned angles satisfy the pose; the four optimized
        # angles alone do not constitute the answer
        assert pose_mismatch(kuka_model, result.theta, golden_kuka_pose) <= 1e-6
        assert result.theta.shape == (7,)

    def test_one_reference_fk_per_solve(self, kuka_model, monkeypatch):
        calls = []

        def counted(model, theta):
            calls.append(theta)
            return fk_frames(model, theta)

        monkeypatch.setattr(kuka, "fk_frames", counted)
        t_des, theta_init = benchmark.generate_queries(kuka_model, 1, 7).queries[0]
        result, detail = kuka.solve_detailed(
            IKQuery(t_des=t_des, theta_init=theta_init, config=SolverConfig()), kuka_model
        )
        assert result.status is IKStatus.SOLVED
        assert len(detail.candidates) == 16
        # the recovery reads its own (theta1, theta2) and arm prefixes
        assert sum(np.array_equal(theta, theta_init[: len(theta)]) for theta in calls) == 1


class TestReferenceElbow:
    def test_on_the_self_motion_circle(self, kuka_model):
        l2, l3 = kuka_model.link_lengths[1:3]
        p3 = kuka_model.shoulder + np.array([0.3, 0.2, 0.4])
        elbow = kuka.reference_elbow(kuka_model, [np.array([0.0, 1.0, 0.0])], p3)
        assert np.linalg.norm(elbow - kuka_model.shoulder) == pytest.approx(l2, abs=1e-12)
        assert np.linalg.norm(p3 - elbow) == pytest.approx(l3, abs=1e-12)

    def test_wrist_at_the_shoulder_has_none(self, kuka_model):
        reference = [np.array([0.1, 0.0, 0.3])]
        assert kuka.reference_elbow(kuka_model, reference, kuka_model.shoulder.copy()) is None

    @pytest.mark.parametrize("stretch", [1.01, 3.0])
    def test_wrist_beyond_reach_has_none(self, kuka_model, stretch):
        reach = float(np.sum(kuka_model.link_lengths[1:3]))
        p3 = kuka_model.shoulder + stretch * reach * np.array([0.6, 0.0, 0.8])
        assert kuka.reference_elbow(kuka_model, [np.array([0.1, 0.0, 0.3])], p3) is None
