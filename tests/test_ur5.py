import math
from itertools import islice

import numpy as np
import pytest

from fabrik_sqp import benchmark, fabrik, robots, solve_ik, tracking, ur5
from fabrik_sqp.geometry import make_transform, signed_angle, wrap_angle
from fabrik_sqp.iktypes import IKQuery, IKStatus, SolverConfig, admitted, l1_distance
from fabrik_sqp.optimizer import OptStatus
from fabrik_sqp.robots import dh_step, fk_frames, forward_kinematics, pose_mismatch

from conftest import UR5_REF_THETA, U, exact_frame, outcome_bits, rows, within


class TestWristPosition:
    def test_identity_pose_at_flange_height(self, ur5_model):
        l6 = ur5_model.link_lengths[5]
        t = make_transform(np.eye(3), [0.0, 0.0, l6])
        assert np.allclose(ur5.wrist_position(t[:3].tolist(), ur5_model), [0.0, 0.0, 0.0], atol=1e-15)

    def test_flipped_tool_axis(self, ur5_model):
        l6 = ur5_model.link_lengths[5]
        r = np.diag([1.0, -1.0, -1.0])  # pi about x
        t = make_transform(r, [0.0, 0.0, 0.0])
        assert np.allclose(ur5.wrist_position(t[:3].tolist(), ur5_model), [0.0, 0.0, l6], atol=1e-15)

    def test_matches_independent_matrix_script(self, ur5_model, golden_ur5_pose):
        t = golden_ur5_pose
        want = t[:3, 3] - t[:3, :3] @ np.array([0.0, 0.0, ur5_model.link_lengths[5]])
        assert np.allclose(ur5.wrist_position(t[:3].tolist(), ur5_model), want, atol=1e-15)


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
        p_w = ur5.wrist_position(golden_ur5_pose[:3].tolist(), ur5_model)
        cands = ur5.theta1_candidates(p_w, ur5_model)
        assert min(abs(c - UR5_REF_THETA[0]) for c in cands) <= 5e-3


class TestPlanarFrame:
    def test_zero_theta1_axes(self, ur5_model, golden_ur5_pose):
        t = golden_ur5_pose[:3].tolist()
        frame = ur5.planar_frame(0.0, t, ur5.wrist_position(t, ur5_model), ur5_model)
        assert np.allclose(frame.z2d, [0.0, -1.0, 0.0], atol=1e-15)
        assert np.allclose(frame.v_init, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_degenerate_wrist_flagged(self, ur5_model):
        # tool z-axis along the joint-2 axis for theta1 = 0: (0,-1,0)
        r = np.column_stack([np.array([1.0, 0, 0]), np.array([0, 0, 1.0]), np.array([0, -1.0, 0])])
        t = make_transform(r, [0.4, -0.2, 0.3])
        t_rows = t[:3].tolist()
        frame = ur5.planar_frame(0.0, t_rows, ur5.wrist_position(t_rows, ur5_model), ur5_model)
        assert np.array_equal(frame.l5d_options[0], -t[:3, 1])

    def test_wrist_projection_removes_lateral_offset(self, ur5_model):
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rng.uniform(-math.pi, math.pi, 6)
            t = forward_kinematics(ur5_model, theta)
            p_w = ur5.wrist_position(t[:3].tolist(), ur5_model)
            frame = ur5.planar_frame(float(theta[0]), t[:3].tolist(), p_w, ur5_model)
            # offset along the plane normal equals the wrist lateral link
            assert float(np.dot(frame.z2d, p_w)) == pytest.approx(
                ur5_model.link_lengths[3], abs=1e-9
            )
            assert abs(float(np.dot(frame.z2d, frame.p_w_proj))) <= 1e-9


def chain_angles(model, frame, theta):
    """(theta2, theta3) of the planar chain that FK places for theta."""
    frames = fk_frames(model, theta)
    chain = ur5.make_chain(frame, model)
    chain = chain.moved(rows([[r[3] for r in frames[i]] for i in (1, 2, 3)]))
    t_des = forward_kinematics(model, theta)
    branch = ur5.Branch(frame, frame.l5d_options[0], t_des[:3].tolist(), frame.z2d, model)
    return branch.from_chain(chain)


class TestRecoverAngles:
    def test_fk_roundtrip_over_random_configurations(self, ur5_model):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 6)
            t_des = forward_kinematics(ur5_model, theta)
            p_w = ur5.wrist_position(t_des[:3].tolist(), ur5_model)
            best = math.inf
            for theta1 in ur5.theta1_candidates(p_w, ur5_model):
                frame = ur5.planar_frame(theta1, t_des[:3].tolist(), p_w, ur5_model)
                theta2, theta3 = chain_angles(ur5_model, frame, theta)
                for l5d in frame.l5d_options:
                    wrist = ur5.wrist_angles(frame, l5d, t_des[:3].tolist(), ur5_model)
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
            p_w = ur5.wrist_position(t_des[:3].tolist(), ur5_model)
            frame = ur5.planar_frame(float(theta[0]), t_des[:3].tolist(), p_w, ur5_model)
            got = chain_angles(ur5_model, frame, theta)
            assert np.allclose(wrap_angle(np.subtract(got, theta[1:3])), 0.0, atol=1e-9)

    def test_degenerate_wrist_zeroes_last_joints(self, ur5_model):
        theta = np.array([0.4, -0.8, 1.1, -0.3, 0.0, 0.0])
        t_des = forward_kinematics(ur5_model, theta)
        p_w = ur5.wrist_position(t_des[:3].tolist(), ur5_model)
        frame = ur5.planar_frame(float(theta[0]), t_des[:3].tolist(), p_w, ur5_model)
        assert np.array_equal(frame.l5d_options[0], -t_des[:3, 1])
        wrist = ur5.wrist_angles(frame, frame.l5d_options[0], t_des[:3].tolist(), ur5_model)
        rec = ur5.recover_angles(frame.theta1, *chain_angles(ur5_model, frame, theta), wrist)
        assert abs(rec[4]) <= 1e-12 and abs(rec[5]) <= 1e-12
        assert pose_mismatch(ur5_model, rec, t_des) <= 1e-9
        # joint 6 turns about the joint 2-4 axis, so the other riser, and
        # both risers of a theta5 = pi frame, give exact (theta5, theta6) too
        flipped = forward_kinematics(ur5_model, [0.4, -0.8, 1.1, -0.3, math.pi, 0.7])
        for t in (t_des, flipped):
            t_rows = t[:3].tolist()
            frame = ur5.planar_frame(frame.theta1, t_rows, ur5.wrist_position(t_rows, ur5_model), ur5_model)
            assert np.array_equal(frame.l5d_options[0], -t[:3, 1])
            for l5d in frame.l5d_options:
                # a planar two-link solve at the riser's own elbow target
                branch = ur5.Branch(frame, l5d, t_rows, frame.z2d, ur5_model)
                outcome = fabrik.solve(branch.start, branch.target, 1e-12, 1000)
                rec = ur5.recover_angles(frame.theta1, *branch.from_chain(outcome.chain), branch.wrist)
                assert outcome.converged and pose_mismatch(ur5_model, rec, t) <= 1e-9

    def test_fourth_joint_closes_the_branch_sum(self, ur5_model):
        rec = ur5.recover_angles(0.2, 1.0, 2.5, (-3.0, 0.4, -0.5))
        # -3.0 - 1.0 - 2.5 = -6.5, left unwrapped (pipeline.solve wraps)
        assert rec == pytest.approx([0.2, 1.0, 2.5, -6.5, 0.4, -0.5], abs=1e-15)


class TestWristAnglesAgainstFkFrames:
    """`wrist_angles` extends its plane's frame 3 with links 4 and 5; frame
    3 and the angle theta6 it reads off frame 5 are checked against the
    exact product of the link matrices for (theta1, 0, 0, theta234,
    theta5). theta6 is the angle between two unit vectors about a third,
    which rounding moves by a few U. The x axis of frame 5 that it reads
    (`wrist_x_axis`) is the one two `dh_step`s give, bit for bit."""

    def test_seeded_frames(self, ur5_model):
        rng = np.random.default_rng(41)
        reach = math.fsum(abs(row.a) + abs(row.d) for row in ur5_model.dh)
        risers = 0
        for k in range(300):
            theta = rng.uniform(-math.pi, math.pi, 6)
            if k % 10 == 0:  # the singular frames, with their -y riser
                theta[4] = (0.0, math.pi)[k % 20 // 10]
            t_des = forward_kinematics(ur5_model, theta)
            p_w = ur5.wrist_position(t_des[:3].tolist(), ur5_model)
            for theta1 in ur5.theta1_candidates(p_w, ur5_model):
                frame = ur5.planar_frame(theta1, t_des[:3].tolist(), p_w, ur5_model)
                assert within(np.ravel(frame.t03), np.ravel(exact_frame(ur5_model, [theta1, 0.0, 0.0])[:3]),
                              32 * U * (1.0 + reach))
                for l5d in frame.l5d_options:
                    theta234, theta5, theta6 = ur5.wrist_angles(frame, l5d, t_des[:3].tolist(), ur5_model)
                    # the column wrist_angles reads is dh_step's column 0 of frame 5, bit for bit
                    row4, row5 = ur5_model.dh[3:5]
                    frame5 = dh_step(dh_step(frame.t03, row4, theta234), row5, theta5)
                    column = ur5.wrist_x_axis(frame.t03, theta234, theta5, ur5_model)
                    assert np.array(column).tobytes() == np.array([r[0] for r in frame5]).tobytes()
                    x5 = [float(row[0]) for row in exact_frame(ur5_model, [theta1, 0.0, 0.0, theta234, theta5])[:3]]
                    want = signed_angle(x5, t_des[:3, 0], frame.l6d)
                    assert abs(wrap_angle(theta6 - want)) <= 64 * U, (k, theta6, want)
                    risers += 1
        assert risers >= 1000


class TestFoldVariants:
    def test_mirror_reaches_the_same_point(self, ur5_model):
        rng = np.random.default_rng(7)
        for _ in range(100):
            theta1, theta2, theta3 = rng.uniform(-math.pi, math.pi, 3)
            folds = ur5.fold_variants(theta2, theta3, ur5_model)
            assert folds[0] == (theta2, theta3)
            (m2, m3) = folds[1]
            assert m3 == -theta3
            want = ur5.elbow_analytic(theta1, ur5_model)((theta2, theta3))[0]
            got = ur5.elbow_analytic(theta1, ur5_model)((m2, m3))[0]
            assert np.allclose(got, want, atol=1e-12)

    def test_straight_chain_has_one_fold(self, ur5_model):
        assert ur5.fold_variants(0.7, 0.0, ur5_model) == [(0.7, 0.0)]
        assert len(ur5.fold_variants(0.7, 1e-8, ur5_model)) == 2


def _plane_chain(theta1, model):
    """The elbow chain of theta1's working plane, as the branches lay it out."""
    return ur5.planar_frame(theta1, np.eye(4)[:3].tolist(), (0.0, 0.0, 0.0), model).start


class TestElbowOptimize:
    def test_seeds_already_solving_return_immediately(self, ur5_model):
        theta = np.array([0.3, -0.7, 1.2, 0.0, 0.0, 0.0])
        target = ur5.elbow_analytic(0.3, ur5_model)((-0.7, 1.2))[0]
        result, x = ur5.elbow_optimize(
            0.3, target, (-0.7, 1.2), ur5_model, ur5_model.joint_limits[1:3], 1e-12
        )
        assert result.iterations == 0
        assert result.f <= 1e-12
        assert np.array_equal(x, [-0.7, 1.2])

    def test_reach_boundary_gives_full_extension(self, ur5_model):
        l2, l3 = ur5_model.link_lengths[1], ur5_model.link_lengths[2]
        theta1 = 0.5
        target = ur5.elbow_analytic(theta1, ur5_model)((0.4, 0.0))[0]  # straight elbow
        result, x = ur5.elbow_optimize(
            theta1, target, (0.2, 0.9), ur5_model, ur5_model.joint_limits[1:3], 1e-12
        )
        assert result.f <= 1e-12
        # full extension: both links parallel (theta3 = 0) within the
        # boundary sensitivity (a 1e-6 position residual maps to ~3e-3
        # rad here)
        assert abs(x[1]) <= 5e-3

    # (theta1, target, (theta2, theta3) seed) of the seed-7 `ur5-random`
    # optimizer branches whose seeds lie within 0.17 rad of theta3 = +-pi,
    # with the elbow folded: a box wall at +-pi stalls each of them there
    NEAR_THE_THETA3_WRAP = [
        (-2.1402685694327346, (-0.1013436030448359, -0.1582939220080834, 0.11488353727393161),
         (-0.4087534986757822, -2.9757202207917093)),
        (-2.803921073141745, (-0.209900682927401, -0.0737001714412683, 0.09600622718973986),
         (-0.21296484050251935, -3.0579924413894037)),
        (-2.4691345262234803, (-0.15345983117456813, -0.12219438583331832, 0.09396098476927309),
         (-0.09281578947302668, -3.104565874440228)),
        (0.31128055857049564, (0.20693280410328938, 0.0665785689974044, 0.08100283008561686),
         (0.22863761310528014, 3.051718043393201)),
        (-1.565939924791058, (0.001054306917061273, -0.21709459549100332, 0.09260541424438509),
         (-0.09742801899554229, -3.103299021184942)),
        (-0.06248207997893829, (0.2063747518120079, -0.012911530372322007, 0.09937352072335248),
         (-0.23412857856561728, -3.049022915762234)),
        (-2.113058830370539, (-0.10143291758351827, -0.16835080216503157, 0.07614486010049581),
         (0.24845519729222962, 3.04238389255731)),
        (1.5244999299417268, (0.008220148959673669, 0.17742795931867467, 0.0878927383038565),
         (0.01822656271200792, 3.1341193457652716)),
        (-1.3091507268173652, (0.019391993305077893, -0.07241644951142615, 0.10126318197584622),
         (-0.0454574148788955, -3.110564966556778)),
    ]

    @pytest.mark.parametrize("theta1, target, seeds", NEAR_THE_THETA3_WRAP)
    def test_seeds_near_the_theta3_wrap_reach_the_stop(self, ur5_model, theta1, target, seeds):
        # the default limits span a full turn, so the optimizer's box is
        # open there and the elbow turns through +-pi to its solution
        assert math.pi - abs(seeds[1]) < 0.17
        result, x = ur5.elbow_optimize(
            theta1, np.array(target), seeds, ur5_model, ur5_model.optimizer_box[1:3], 1e-12
        )
        assert result.status is OptStatus.TOLERANCE_REACHED
        assert x is not None

    def test_within_reach_is_the_forearm_annulus(self, ur5_model):
        # the plane chain's shell is the annulus of radii l2 - l3 and
        # l2 + l3 about the shoulder that the forearm tip sweeps
        l1, l2, l3 = ur5_model.arm_lengths
        eps = 1e-6
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta1, theta2, theta3 = rng.uniform(-math.pi, math.pi, 3)
            chain = _plane_chain(theta1, ur5_model)
            tip = ur5.elbow_analytic(theta1, ur5_model)((theta2, theta3))[0]
            assert fabrik.within_reach(chain, tip, 1e-15)
            # along the ray from the shoulder through the tip
            ray = np.subtract(tip, chain.base)
            ray /= np.linalg.norm(ray)
            for radius, inside in ((0.0, False), (0.5 * (l2 - l3), False),
                                   (l2 - l3 - 2.0 * eps, False), (l2 - l3 - 0.5 * eps, True),
                                   (l2 + l3 + 0.5 * eps, True), (l2 + l3 + 2.0 * eps, False)):
                target = chain.base + radius * ray
                assert fabrik.within_reach(chain, target, eps) is inside

    def test_targets_in_the_hole_are_refused_before_a_step(self, ur5_model):
        # near-shoulder targets, put into theta1's plane as every branch
        # target is: the reach rule refuses exactly those that no run
        # reaches, and no run gets nearer to them than the hole, so
        # refusing them before a sweep loses nothing
        l1, l2, l3 = ur5_model.arm_lengths
        rng = np.random.default_rng(6)
        box = ur5_model.optimizer_box[1:3]
        refused = 0
        for _ in range(50):
            theta1 = rng.uniform(-math.pi, math.pi)
            target = np.array([0.0, 0.0, l1]) + rng.uniform(-0.03, 0.03, 3)  # near the shoulder
            seeds = tuple(rng.uniform(-math.pi, math.pi, 2).tolist())
            normal = np.array([math.sin(theta1), -math.cos(theta1), 0.0])
            target -= (normal @ target) * normal
            chain = _plane_chain(theta1, ur5_model)
            result, x = ur5.elbow_optimize(theta1, target, seeds, ur5_model, box, 1e-12)
            if fabrik.within_reach(chain, target, 1e-6):
                assert result.status is OptStatus.TOLERANCE_REACHED and x is not None
                continue
            refused += 1
            assert result.status is not OptStatus.TOLERANCE_REACHED and x is None
            assert math.sqrt(result.f) >= (l2 - l3) - math.dist(target, chain.base) - 1e-15
        assert refused == 42

    def test_jacobian_matches_central_differences(self, ur5_model):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(100):
            theta1 = rng.uniform(-math.pi, math.pi)
            x = rng.uniform(-math.pi, math.pi, 2)
            jac = np.array(ur5.elbow_analytic(theta1, ur5_model)(x)[1])
            assert jac.shape == (3, 2)
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (
                    np.array(ur5.elbow_analytic(theta1, ur5_model)(xp)[0])
                    - np.array(ur5.elbow_analytic(theta1, ur5_model)(xm)[0])
                ) / (2 * h)
                assert jac[:, i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestSolve:
    def test_fixed_point_query(self, ur5_model):
        theta = np.array([0.5, -1.1, 1.4, -0.4, 0.9, -0.6])
        t_des = forward_kinematics(ur5_model, theta)
        result = solve_ik(ur5_model, IKQuery(t_des=t_des, theta_init=theta, config=SolverConfig()))
        assert result.status is IKStatus.SOLVED
        assert result.error.total <= 1e-6
        # cold-start iteration still lands on the branch nearest the
        # warm reference
        assert np.max(np.abs(result.theta - theta)) <= 5e-4

    def test_out_of_reach_pose_unreachable(self, ur5_model):
        t = make_transform(np.eye(3), [5.0, 0.0, 0.0])
        result = solve_ik(ur5_model, IKQuery(t_des=t, theta_init=np.zeros(6), config=SolverConfig()))
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
                and len(ur5.theta1_candidates(ur5.wrist_position(t_des[:3].tolist(), ur5_model), ur5_model)) == 1
            )

    def test_wrist_solved_once_per_branch(self, ur5_model, monkeypatch):
        events = []  # "wrist_angles", "fold_variants" and "sweeps" (fabrik.solve), in call order
        for owner, name in ((ur5, "wrist_angles"), (ur5, "fold_variants"), (fabrik, "solve")):

            def counted(*args, _original=getattr(owner, name), _name=name):
                events.append("sweeps" if _name == "solve" else _name)
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        prefixes, axes = [], []  # frame prefixes the planes build; the frames 3 of the wrists

        def counted_frames(model, theta, _original=ur5.fk_frames):
            prefixes.append(len(theta))
            return _original(model, theta)

        def counted_axis(t03, theta234, theta5, model, _original=ur5.wrist_x_axis):
            axes.append(t03)
            return _original(t03, theta234, theta5, model)

        monkeypatch.setattr(ur5, "fk_frames", counted_frames)
        monkeypatch.setattr(ur5, "wrist_x_axis", counted_axis)
        t_des, theta_init = benchmark.generate_queries(ur5_model, 1, 7).queries[0]
        result, detail = ur5.solve_detailed(
            IKQuery(t_des=t_des, theta_init=theta_init), ur5_model
        )
        assert result.status is IKStatus.SOLVED
        # one frame-3 prefix per plane, shared by its two risers, and one
        # wrist solve per branch, when the branch is built: before any
        # sweep, since the floors that order the branches read it. Only
        # the solved branches recover candidates, a fold and its mirror
        # each, all sharing their branch's wrist.
        assert detail.branches == 4
        assert prefixes == [3, 3]
        assert len(axes) == 4 and len({id(t03) for t03 in axes}) == 2
        assert events[:4] == ["wrist_angles"] * 4 and events.count("wrist_angles") == 4
        folds = events.count("fold_variants")
        assert 1 <= folds <= events.count("sweeps") <= detail.branches - detail.skipped
        assert len(detail.candidates) == 2 * folds

    def test_start_chain_made_once_per_plane(self, ur5_model, monkeypatch):
        # counted at the module attributes, where the benchmark's layer
        # trace hooks them: the sweeps start from the straight chain as
        # laid out, so `pre_bend` never sees it
        made, bent = [], []
        make_chain, pre_bend = ur5.make_chain, fabrik.pre_bend

        def counted_make_chain(frame, model):
            made.append((frame, make_chain(frame, model)))
            return made[-1][1]

        def counted_pre_bend(chain, axis=None):
            if any(chain is m for _, m in made):
                bent.append(chain)
            return pre_bend(chain, axis=axis)

        monkeypatch.setattr(ur5, "make_chain", counted_make_chain)
        monkeypatch.setattr(fabrik, "pre_bend", counted_pre_bend)
        lazy = 0  # solves that laid out fewer chains than they have planes
        for t_des, theta_init in benchmark.generate_queries(ur5_model, 20, 7).queries:
            made.clear()
            result, detail = ur5.solve_detailed(IKQuery(t_des, theta_init), ur5_model)
            assert result.status is IKStatus.SOLVED
            planes = detail.branches // 2
            assert 1 <= planes <= 2
            # at most once per plane, and only for a plane whose branch is solved
            assert 1 <= len(made) <= planes
            lazy += len(made) < planes
            for frame, chain in made:
                # straight along the plane's zero-pose arm direction
                assert frame.start is chain
                laid = fabrik.straight_chain(ur5_model.shoulder, frame.v_init,
                                             ur5_model.arm_lengths[1:], chain.joints,
                                             anchor_dir=frame.v_init)
                assert chain.positions == laid.positions
                upper, fore = chain.link_directions()
                assert signed_angle(upper, fore, chain.joints[1].axis) == pytest.approx(0.0, abs=1e-12)
        assert not bent and lazy > 0

    def test_riser_branches_share_the_plane_start(self, ur5_model):
        t_des, theta_init = benchmark.generate_queries(ur5_model, 1, 7).queries[0]
        for sign in (1.0, -1.0):
            theta_init = theta_init.copy()
            theta_init[2] = sign * abs(theta_init[2])
            found = list(ur5.branches(t_des[:3].tolist(), tuple(theta_init.tolist()), ur5_model))
            assert len(found) == 4
            for a, b in (found[:2], found[2:]):
                assert a.frame is b.frame and a.start is b.start and a.bend_axis is b.bend_axis
                assert np.array_equal(a.bend_axis, sign * np.array(a.frame.z2d))
                assert not np.array_equal(a.target, b.target)
            assert found[0].start is not found[2].start

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
            result = solve_ik(ur5_model, IKQuery(t_des=t_des, theta_init=init, config=SolverConfig()))
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
                    riser = np.subtract([r[3] for r in frames[5]], [r[3] for r in frames[4]])
                    risers.add(float(np.dot(riser, -t_des[:3, 1])) > 0.0)
        assert risers == {True, False}

    def test_fabrik_only_mode_can_fail_where_combined_succeeds(self, ur5_model, golden_ur5_pose):
        combined = solve_ik(
            ur5_model,
            IKQuery(t_des=golden_ur5_pose, theta_init=np.zeros(6), config=SolverConfig(sweep_cap=15)),
        )
        fabrik_only = solve_ik(
            ur5_model,
            IKQuery(
                t_des=golden_ur5_pose,
                theta_init=np.zeros(6),
                config=SolverConfig(use_optimizer=False, sweep_cap=30),
            ),
        )
        assert combined.status is IKStatus.SOLVED
        assert fabrik_only.status is IKStatus.FAILED

    def test_theta_init_must_be_in_limits(self, ur5_model, golden_ur5_pose):
        with pytest.raises(ValueError):
            solve_ik(
                ur5_model,
                IKQuery(t_des=golden_ur5_pose, theta_init=np.full(6, 4.0), config=SolverConfig()),
            )


class TestBranchSkip:
    """The pipeline solves the branches nearest-first by floor and skips
    those that cannot win; both skips are exact."""

    def test_floor_never_exceeds_a_candidate_distance(self):
        """`admitted` over a branch's fixed pairs, theta1, theta5 and
        theta6, and over its one group's pairs, none, is never above a
        candidate's distance, and is None exactly when those joints of
        the candidates lie out of limits, so that none is admitted. With
        the branch's rest added, the circular distance of theta2 +
        theta3 + theta4 from the reference's, it is not above it either,
        at any limits and for references in any 2 pi form."""
        rng = np.random.default_rng(32)
        checked = dropped = 0
        for half in (math.pi, 0.5, 2 * math.pi):
            model = robots.ur5_model(np.tile([-half, half], (6, 1)))
            pairs = model.limit_pairs
            for t_des, theta_init in benchmark.generate_queries(model, 50, 7).queries:
                top = t_des[:3].tolist()
                for index, branch in enumerate(ur5.branches(top, tuple(theta_init.tolist()), model)):
                    for reduced in rng.uniform(-math.pi, math.pi, size=(10, 2)).tolist():
                        (group, recover), = branch.candidates(reduced)
                        assert group == ()
                        for raw in recover():
                            wrapped = [wrap_angle(t) for t in raw]
                            fixed_inside = all(pairs[k][0] <= wrapped[k] <= pairs[k][1] for k in (0, 4, 5))
                            # far references, within [-pi, pi] and within
                            # the limits, and near ones, where every term is
                            # a few ulps and the rounding of the sums
                            # decides, also whole turns away on some joints
                            near = np.add(wrapped, rng.normal(size=6) * 1e-15)
                            turns = 2 * math.pi * rng.integers(-1, 2, size=6)
                            far = rng.uniform(-math.pi, math.pi, 6), rng.uniform(-half, half, 6)
                            for reference in (*far, near, near + turns):
                                reference = reference.tolist()
                                # the branch as the solve builds it for this reference
                                bound = next(islice(ur5.branches(top, reference, model), index, None))
                                assert bound.fixed == branch.fixed
                                floor = admitted(bound.fixed, pairs, reference)[1]
                                assert admitted(group, pairs, reference) == ((), 0.0)
                                d = admitted(enumerate(raw), pairs, reference)[1]
                                assert (floor is None) == (not fixed_inside)
                                if floor is None:
                                    assert d is None
                                    dropped += 1
                                else:
                                    assert floor <= l1_distance(wrapped, reference)
                                    assert floor + bound.rest <= l1_distance(wrapped, reference)
                                    checked += 1
        assert checked > 5_000 and dropped > 0

    def test_elbow_rest_never_exceeds_a_candidate_distance(self):
        """`admitted` over a branch's fixed pairs plus its
        `rest_within(eps)` is never above the distance of a candidate whose
        chain end lies within eps of the branch target. The ends lie on the
        eps circle about the target (radially out and in, at the tangents
        from the shoulder and at random) and inside it, each solved by
        `_two_link_ik` in both folds, with the mirror `fold_variants` adds;
        the targets are the branch's own and ones within eps of full
        extension, of the hole edge and of psi's peak, at two tolerances;
        the references lie far away, near, and whole turns away.

        The bound: a chain end within eps of a target at distance d and
        angle phi from the shoulder in the plane has |theta3| in [acos
        c(d + eps), acos c(d - eps)], c(r) = (r^2 - l2^2 - l3^2) / (2 l2
        l3), by the law of cosines, and theta2 = phi' - s psi(|theta3|)
        for the fold's sign s, with |phi' - phi| <= asin(eps / d) and psi(t)
        = atan2(l3 sin t, l2 + l3 cos t), which peaks at asin(l3 / l2);
        theta4 closes theta234. Each term is at least its interval centre's
        circular distance from the reference less the half-width."""
        rng = np.random.default_rng(38)
        checked = tightened = 0
        for half in (math.pi, 0.5, 2 * math.pi):
            model = robots.ur5_model(np.tile([-half, half], (6, 1)))
            pairs = model.limit_pairs
            _, l2, l3 = model.arm_lengths
            for t_des, theta_init in benchmark.generate_queries(model, 3, 7).queries:
                top = t_des[:3].tolist()
                for branch in ur5.branches(top, tuple(theta_init.tolist()), model):
                    # the plane's axes about the shoulder: v_init, and z2d x v_init = -z
                    axes = np.array([branch.frame.v_init, (0.0, 0.0, -1.0)])
                    own = axes @ np.subtract(branch.target, model.shoulder)
                    phi = math.atan2(own[1], own[0])
                    for eps in (1e-6, 1e-3):
                        edges = (l2 + l3 - eps, l2 + l3, l2 + l3 + eps, l2 - l3 - eps, l2 - l3,
                                 l2 - l3 + eps, math.sqrt(l2 * l2 - l3 * l3))
                        for target in (own, *(d * np.array([math.cos(phi), math.sin(phi)]) for d in edges)):
                            out = math.atan2(target[1], target[0])
                            tangent = math.pi / 2 + math.asin(min(1.0, eps / np.hypot(*target)))
                            # the target itself, then radially out and in, the tangents and
                            # random turns on the eps circle, and two random points inside it
                            turns = (0.0, 0.0, math.pi, tangent, -tangent, *rng.uniform(-math.pi, math.pi, 4))
                            radii = (0.0, *[eps] * 6, *eps * rng.uniform(size=2))
                            target3 = tuple((model.shoulder + target @ axes).tolist())
                            for turn, radius in zip(turns, radii):
                                end = target + radius * np.array([math.cos(out + turn), math.sin(out + turn)])
                                for reduced in _two_link_ik(end, l2, l3):
                                    (_, recover), = branch.candidates(reduced)
                                    for raw in recover():
                                        wrapped = [wrap_angle(t) for t in raw]
                                        near = np.add(wrapped, rng.normal(size=6) * 1e-15)
                                        far = rng.uniform(-math.pi, math.pi, 6), rng.uniform(-half, half, 6)
                                        steps = 2 * math.pi * rng.integers(-1, 2, size=6)
                                        for reference in (*far, near, near + steps):
                                            reference = tuple(reference.tolist())
                                            bound = ur5.Branch(branch.frame, branch.l5d, top,
                                                               branch.bend_axis, model, reference)
                                            bound.target = target3
                                            floor = admitted(bound.fixed, pairs, reference)[1]
                                            if floor is None:
                                                continue
                                            rest = bound.rest_within(eps)
                                            assert rest >= bound.rest
                                            assert floor + rest <= l1_distance(wrapped, reference)
                                            checked += 1
                                            tightened += rest > bound.rest
        assert checked > 10_000 and tightened > checked // 4

    @pytest.mark.filterwarnings("error")
    def test_huge_eps_admits_and_bounds_without_overflow(self, ur5_model):
        # at eps 1e300 every branch target is in reach and the first branch
        # admits a candidate at once, so the later ones ask rest_within,
        # whose (d + eps) squared is inf: its intervals span every angle,
        # so it returns the rest, and no OverflowError escapes the solve
        config = SolverConfig(eps_tol=1e300)
        asked = 0
        for t_des, theta_init in benchmark.generate_queries(ur5_model, 5, 7).queries:
            result, detail = ur5.solve_detailed(IKQuery(t_des, theta_init, config), ur5_model)
            assert result.status is IKStatus.SOLVED and detail.reachable
            rows, reference = t_des[:3].tolist(), tuple(theta_init.tolist())
            for branch in ur5.branches(rows, reference, ur5_model):
                assert branch.rest_within(1e300) == branch.rest
                asked += 1
        assert asked == 20

    @pytest.mark.parametrize(
        "limits, config",
        [
            (None, SolverConfig()),
            (None, SolverConfig(use_optimizer=False, sweep_cap=100)),
            (np.tile([-0.5, 0.5], (6, 1)), SolverConfig()),
        ],
        ids=["default", "fabrik-100", "0.5rad"],
    )
    def test_seeded_records_as_without_skipping(self, limits, config, monkeypatch):
        model = robots.ur5_model(limits)
        queries = benchmark.generate_queries(model, 400, 7).queries

        def solved():
            out = [ur5.solve_detailed(IKQuery(t, th, config), model) for t, th in queries]
            # whether theta1, theta5 and theta6 of every candidate are within limits
            fixed_inside = all(
                model.limit_pairs[k][0] <= c[k] <= model.limit_pairs[k][1]
                for _, d in out for c in d.candidates for k in (0, 4, 5)
            )
            return [outcome_bits(r) for r, _ in out], sum(d.skipped for _, d in out), fixed_inside

        shipped, skipped, inside = solved()
        _skip_nothing(monkeypatch)
        everything, none, inside_unfixed = solved()
        assert skipped > 0 and none == 0
        assert shipped == everything
        # a branch whose fixed joints are out of limits is never solved
        assert inside and inside_unfixed == (limits is None)

    def test_branch_with_a_fixed_joint_out_of_limits_is_not_solved(self):
        # poses of the full-turn arm under +-0.5 rad limits: many of their
        # branches fix a joint out of limits, and none of those is solved,
        # even when no other branch admits a candidate
        model = robots.ur5_model(np.tile([-0.5, 0.5], (6, 1)))
        skipped = unanswered = 0
        for t_des, _ in benchmark.generate_queries(robots.ur5_model(), 100, 7).queries:
            result, detail = ur5.solve_detailed(IKQuery(t_des, np.zeros(6)), model)
            for c in detail.candidates:
                assert all(-0.5 <= c[k] <= 0.5 for k in (0, 4, 5))
            skipped += detail.skipped
            unanswered += detail.reachable and not detail.admitted
        assert skipped > 0 and unanswered > 0

    def test_scripted_path_as_without_skipping(self, ur5_model, monkeypatch):
        theta_init, waypoints = tracking.scripted_waypoints(ur5_model)

        def tracked():
            trace = tracking.track(ur5_model, waypoints, theta_init, SolverConfig())
            assert trace.failed_index is None
            return [outcome_bits(r) for _, r in trace.records]

        shipped = tracked()
        _skip_nothing(monkeypatch)
        assert tracked() == shipped


def _two_link_ik(point, l2, l3):
    """Both folds (theta2, theta3) that put the end of links l2 and l3,
    hinged at the origin, at a plane point (angles from the x axis), or
    none for a point off their annulus. theta3 comes from its half-angle
    tangent, which keeps full precision at both edges of the annulus."""
    d = math.hypot(*point)
    outside, inside = (l2 + l3 - d) * (l2 + l3 + d), (d - l2 + l3) * (d + l2 - l3)
    if outside < 0.0 or inside < 0.0:
        return []
    half = math.atan2(math.sqrt(outside), math.sqrt(inside))
    folds = []
    for theta3 in (2.0 * half, -2.0 * half):
        psi = math.atan2(l3 * math.sin(theta3), l2 + l3 * math.cos(theta3))
        theta2 = math.atan2(point[1], point[0]) - psi
        tip = l2 * np.array([math.cos(theta2), math.sin(theta2)])
        tip += l3 * np.array([math.cos(theta2 + theta3), math.sin(theta2 + theta3)])
        assert np.allclose(tip, point, rtol=0.0, atol=1e-12)
        folds.append((theta2, theta3))
    return folds


def _skip_nothing(monkeypatch):
    """No branch fixes a joint or bounds the rest, by the wrist or by the
    elbow, so no floor exceeds any distance or is out of limits."""
    branches = ur5.branches

    def unfixed(*args):
        for branch in branches(*args):
            branch.fixed, branch.rest = (), 0.0
            branch.rest_within = lambda eps: 0.0
            yield branch

    monkeypatch.setattr(ur5, "branches", unfixed)
