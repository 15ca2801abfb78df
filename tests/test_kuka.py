import math

import numpy as np
import pytest

from fabrik_sqp import benchmark, fabrik, kuka, robots, solve_ik, tracking, ur5
from fractions import Fraction

from fabrik_sqp.geometry import make_transform, wrap_angle
from fabrik_sqp.iktypes import IKQuery, IKStatus, SolverConfig, admitted, l1_distance
from fabrik_sqp.optimizer import minimize
from fabrik_sqp.robots import fk_frames, forward_kinematics, pose_mismatch, transform_of

from conftest import KUKA_DATASHEET, U, exact_sqrt, kuka_on_axis_queries, outcome_bits


def fk_arrays(model, theta) -> list:
    """`fk_frames` as 4x4 ndarrays."""
    return [transform_of(frame) for frame in fk_frames(model, theta)]


LIMITS = {
    "default": None,
    "datasheet": np.column_stack([-KUKA_DATASHEET, KUKA_DATASHEET]),
    "0.5rad": np.tile([-0.5, 0.5], (7, 1)),
}


def every_candidate(model, theta, t_des) -> list:
    """`recover_candidates` of every arm placing theta's elbow and wrist, in order."""
    frames = fk_arrays(model, theta)
    rows = t_des[:3].tolist()
    return [
        candidate
        for arm, t02 in kuka.arm_angles(frames[3][:3, 3], frames[5][:3, 3], model)
        for candidate in kuka.recover_candidates(arm, t02, rows, model)
    ]


class TestWristTarget:
    def test_zero_configuration(self, kuka_model):
        lengths = kuka_model.link_lengths
        t = make_transform(np.eye(3), [0.0, 0.0, float(np.sum(lengths))])
        want = [0.0, 0.0, float(np.sum(lengths[:3]))]
        assert np.allclose(kuka.wrist_target(t[:3].tolist(), kuka_model), want, atol=1e-12)

    def test_flipped_tool(self, kuka_model):
        l4 = kuka_model.link_lengths[3]
        t = make_transform(np.diag([1.0, -1.0, -1.0]), [0.0, 0.0, 0.0])
        assert np.allclose(kuka.wrist_target(t[:3].tolist(), kuka_model), [0.0, 0.0, l4], atol=1e-15)

    def test_matches_independent_script(self, kuka_model, golden_kuka_pose):
        t = golden_kuka_pose
        want = t[:3, 3] - t[:3, :3] @ np.array([0.0, 0.0, kuka_model.link_lengths[3]])
        assert np.allclose(kuka.wrist_target(t[:3].tolist(), kuka_model), want, atol=1e-15)


class TestCachedChain:
    """`make_chain` lays out one chain per model, shared by every solve."""

    def test_arrays_are_read_only(self, kuka_model):
        chain = kuka.make_chain(kuka_model)
        # points, lengths, base and anchor are tuples: immutable by type
        for field in ("positions", "lengths", "base", "anchor_dir"):
            with pytest.raises(TypeError, match="does not support item assignment"):
                getattr(chain, field)[0] = 1.0

    def test_chain_cannot_be_assigned_to(self, kuka_model):
        chain = kuka.make_chain(kuka_model)
        for field in chain._fields:
            with pytest.raises(AttributeError):
                setattr(chain, field, None)
        with pytest.raises(AttributeError):
            chain.joints[1].hi = 0.0

    def test_equal_models_share_one_chain(self):
        tight = np.tile([-0.5, 0.5], (7, 1))
        default = kuka.make_chain(robots.kuka_model())
        assert kuka.make_chain(robots.kuka_model()) is default
        narrow = kuka.make_chain(robots.kuka_model(tight))
        assert kuka.make_chain(robots.kuka_model(tight.copy())) is narrow
        # the limits are part of the key: they set the elbow's limits
        assert narrow is not default and narrow.joints[1][1:] == (-0.5, 0.5)

    def test_solves_leave_the_chain_unchanged(self, kuka_model):
        chain = kuka.make_chain(kuka_model)
        before = [np.array(chain.positions).tobytes(), chain.anchor_dir, chain.joints]
        for config in (SolverConfig(), SolverConfig(use_optimizer=False)):
            for t_des, theta_init in benchmark.generate_queries(kuka_model, 20, 7).queries:
                solve_ik(kuka_model, IKQuery(t_des, theta_init, config))
        assert kuka.make_chain(kuka_model) is chain
        assert [np.array(chain.positions).tobytes(), chain.anchor_dir, chain.joints] == before


class TestPlaneChain:
    """Where its elbow can clamp, a branch starts from `plane_chain`: its
    hinges turn about the unit normal of the wrist target's vertical
    plane. The sweeps keep the chain in that plane, where the elbow's
    hinge bends as a cone of the same half-angle about the chain would."""

    @pytest.mark.parametrize("limits", ["datasheet", "0.5rad"])
    def test_sweeps_keep_the_plane_and_the_elbow_cone(self, limits):
        model = robots.kuka_model(LIMITS[limits])
        config = SolverConfig()
        eps, cap = config.eps_tol, config.fabrik_cap("kuka")
        cone = max(map(abs, model.limit_pairs[3]))
        off_plane = over_cone = 0.0
        chains = at_cone = 0
        for t_des, theta_init in benchmark.generate_queries(model, 300, 7).queries:
            branch = kuka.Branch(t_des[:3].tolist(), tuple(theta_init.tolist()), model)
            if not fabrik.within_reach(branch.start, branch.target, eps):
                continue
            tx, ty, _ = branch.target
            normal = (-ty / math.hypot(tx, ty), tx / math.hypot(tx, ty), 0.0)
            assert [joint.axis for joint in branch.start.joints] == [normal] * 2
            outcome = fabrik.solve(branch.start, branch.target, eps, cap)
            # the chains solve sweeps, each phase of each sweep
            q = branch.start
            for _ in range(outcome.iterations):
                forward = fabrik.forward_phase(q, branch.target)
                q = fabrik.backward_phase(forward)
                for chain in (forward, q):
                    off_plane = max(off_plane, *(abs(np.dot(normal, p)) for p in chain.positions))
                    upper, fore = chain.link_directions()
                    bend = math.atan2(np.linalg.norm(np.cross(upper, fore)), np.dot(upper, fore))
                    over_cone = max(over_cone, bend - cone)
                    at_cone += bend >= cone - 1e-12
                    chains += 1
            assert q.positions == outcome.chain.positions
        print(f"\n{limits}: {chains} chains, {at_cone} at the cone, off the plane <= "
              f"{off_plane:.1e} m, over the cone <= {over_cone:.1e} rad")
        assert chains > 1000 and at_cone > 0  # the elbow clamped
        assert off_plane <= 1e-12 and over_cone <= 1e-12


class TestSeedCandidates:
    def test_near_twins_collapse_in_enumeration_order(self, kuka_model, monkeypatch):
        # an arm is kept unless each of its angles lies within _TWIN_TOL of
        # a kept seed's; a NaN difference is not apart
        tol = kuka._TWIN_TOL
        arms = [
            (0.1, -0.2, 0.3, 0.4),
            (0.1 + 0.5 * tol, -0.2, 0.3 - 0.9 * tol, 0.4),  # twin of the first
            (0.1, -0.2, 0.3, 0.4 + 2.0 * tol),  # apart in theta4 alone
            (0.1 + 2.0 * tol, -0.2, 0.3, 0.4),  # apart in theta1 alone
            (0.1, -0.2, 0.3, 0.4 + 1.5 * tol),  # twin of the third only
            (math.nan, -0.2, 0.3, 0.4),
        ]
        monkeypatch.setattr(kuka, "arm_angles", lambda *args, **kwargs: ((a, None) for a in arms))
        seeds = kuka.seed_candidates_from_chain(kuka.make_chain(kuka_model), kuka_model)
        assert seeds == [arms[0], arms[2], arms[3]]


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
            frames = fk_arrays(kuka_model, theta)
            p1, p2, p3 = (frames[i][:3, 3] for i in (1, 3, 5))
            m2, m4 = kuka.bend_magnitudes(p1, p2, p3)
            assert m2 == pytest.approx(abs(theta[1]), abs=1e-9)
            assert m4 == pytest.approx(abs(theta[3]), abs=1e-9)

    def test_matches_exact_bend_angles(self, kuka_model):
        # atan2(|u x v|, u . v) of the links with the cross and dot
        # products exact: u x v and u . v err by a few U of |u| |v|, and
        # so the angle by a few U
        def bend(u, v):
            c = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
            return math.atan2(exact_sqrt(sum(x * x for x in c)), sum(x * y for x, y in zip(u, v)))

        rng = np.random.default_rng(9)
        for k in range(500):
            theta = rng.uniform(-math.pi, math.pi, 7)
            if k % 5 == 0:
                theta[1::2] = 0.0  # straight: exact zeros in the points
            frames = fk_frames(kuka_model, theta)
            p1, p2, p3 = ([Fraction(row[3]) for row in frames[i]] for i in (1, 3, 5))
            upper = [b - a for a, b in zip(p1, p2)]
            want = (bend(p1, upper), bend(upper, [b - a for a, b in zip(p2, p3)]))
            got = kuka.bend_magnitudes(*([float(c) for c in p] for p in (p1, p2, p3)))
            assert max(abs(g - w) for g, w in zip(got, want)) <= 16 * U, (k, got, want)


def _wrist_triples(model, theta):
    frames = fk_frames(model, theta)
    return kuka.wrist_angles(frames[4], frames[7])


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
            p3, _ = kuka.wrist_analytic(kuka_model)(theta[:4])
            local = np.linalg.inv(fk_arrays(kuka_model, theta[:2])[-1]) @ np.append(p3, 1.0)
            assert abs(kuka.theta3_root(theta[3], local) - theta[2]) <= 1e-9

    def test_full_candidate_roundtrip(self, kuka_model):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 7)
            t_des = forward_kinematics(kuka_model, theta)
            cands = every_candidate(kuka_model, theta, t_des)
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
        cands = every_candidate(kuka_model, theta, t_des)
        match = min(cands, key=lambda c: float(np.max(np.abs(c - theta))))
        assert match[6] == pytest.approx(0.0, abs=1e-9)

    def test_every_candidate_passes_the_filter(self, kuka_model):
        rng = np.random.default_rng(10)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 7)
            t_des = forward_kinematics(kuka_model, theta)
            cands = every_candidate(kuka_model, theta, t_des)
            for c in cands:
                assert pose_mismatch(kuka_model, c, t_des) <= 1e-9
            assert len(cands) == 8


class TestWristAnalytic:
    def test_zero_configuration(self, kuka_model):
        p, _ = kuka.wrist_analytic(kuka_model)(np.zeros(4))
        want = [0.0, 0.0, float(np.sum(kuka_model.link_lengths[:3]))]
        assert np.allclose(p, want, atol=1e-12)

    def test_matches_frame_product(self, kuka_model):
        rng = np.random.default_rng(4)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 7)
            p, _ = kuka.wrist_analytic(kuka_model)(theta[:4])
            frames = fk_arrays(kuka_model, theta)
            assert np.allclose(p, frames[5][:3, 3], atol=1e-10)

    def test_jacobian_matches_central_differences(self, kuka_model):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, 4)
            jac = np.array(kuka.wrist_analytic(kuka_model)(theta)[1])
            for i in range(4):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd = (
                    np.array(kuka.wrist_analytic(kuka_model)(tp)[0])
                    - np.array(kuka.wrist_analytic(kuka_model)(tm)[0])
                ) / (2 * h)
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

    def test_wrist_on_the_base_axis_solves(self, kuka_model):
        # below the elbow's straight-arm height the sweeps fold the chain
        # back onto the axis, where the optimizer's gradient vanishes
        # until `fabrik.pre_bend` breaks the fold
        l2 = kuka_model.arm_lengths[1]
        queries = kuka_on_axis_queries(kuka_model, 300, 0)
        heights = [h for *_, h in queries]
        assert min(heights) < 0.0 and any(0.0 < h < l2 for h in heights) and max(heights) > l2
        for t_des, theta_init, h in queries:
            result = solve_ik(kuka_model, IKQuery(t_des, theta_init))
            assert result.status is IKStatus.SOLVED, h
            assert pose_mismatch(kuka_model, result.theta, t_des) <= 1e-6

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
        # 5 of the 8 arms are recovered, 2 wrist triples each; the rest cannot win
        assert len(detail.candidates) == 10
        # the recovery reads its own (theta1, theta2) and arm prefixes
        assert sum(np.array_equal(theta, theta_init[: len(theta)]) for theta in calls) == 1


class TestReferenceElbow:
    def test_on_the_self_motion_circle(self, kuka_model):
        l2, l3 = kuka_model.link_lengths[1:3]
        p3 = kuka_model.shoulder + np.array([0.3, 0.2, 0.4])
        elbow = kuka.reference_elbow(kuka_model, [np.array([0.0, 1.0, 0.0])], p3)
        assert np.linalg.norm(np.subtract(elbow, kuka_model.shoulder)) == pytest.approx(l2, abs=1e-12)
        assert np.linalg.norm(p3 - elbow) == pytest.approx(l3, abs=1e-12)

    def test_wrist_at_the_shoulder_has_none(self, kuka_model):
        reference = [np.array([0.1, 0.0, 0.3])]
        assert kuka.reference_elbow(kuka_model, reference, kuka_model.shoulder) is None

    @pytest.mark.parametrize("stretch", [1.01, 3.0])
    def test_wrist_beyond_reach_has_none(self, kuka_model, stretch):
        reach = float(np.sum(kuka_model.link_lengths[1:3]))
        p3 = kuka_model.shoulder + stretch * reach * np.array([0.6, 0.0, 0.8])
        assert kuka.reference_elbow(kuka_model, [np.array([0.1, 0.0, 0.3])], p3) is None


class TestArmSkip:
    """The pipeline recovers the arms nearest-first by floor and skips
    those that cannot win or lie out of limits; both skips are exact."""

    @pytest.mark.parametrize("limits", LIMITS.values(), ids=LIMITS.keys())
    def test_floor_never_exceeds_a_candidate_distance(self, limits):
        """`admitted` over an arm's pairs, its theta1-theta4, is never
        above a candidate's distance, and is None exactly when those
        joints lie out of limits, so that none of the arm's candidates
        is admitted."""
        model = robots.kuka_model(limits)
        pairs = model.limit_pairs
        rng = np.random.default_rng(33)
        checked = dropped = 0
        for t_des, theta_init in benchmark.generate_queries(model, 20, 7).queries:
            branch = kuka.Branch(t_des[:3].tolist(), tuple(theta_init.tolist()), model)
            assert branch.fixed == () and branch.rest == 0.0
            # arms through a configuration in limits, and their sign mirrors
            for theta in rng.uniform(*np.transpose(model.limit_pairs), size=(3, 7)):
                frames = fk_arrays(model, theta)
                reduced = (tuple(frames[3][:3, 3].tolist()), tuple(frames[5][:3, 3].tolist()))
                arms = [
                    (arm, kuka.recover_candidates(arm, t02, branch.rows, model))
                    for arm, t02 in branch.arms(reduced)
                ]
                # far references, and one a few ulps from a candidate,
                # where the rounding of the sums decides
                near = np.add([wrap_angle(t) for t in arms[0][1][0]], rng.normal(size=7) * 1e-15)
                for reference in (theta_init, rng.uniform(-math.pi, math.pi, 7), near):
                    reference = reference.tolist()
                    groups = branch.candidates(reduced)
                    assert [recover() for _, recover in groups] == [raws for _, raws in arms]
                    for (group, _), (arm, raws) in zip(groups, arms):
                        floor = admitted(group, pairs, reference)[1]
                        inside = all(lo <= wrap_angle(t) <= hi for t, (lo, hi) in zip(arm, pairs))
                        assert (floor is None) == (not inside)
                        for raw in raws:
                            assert raw[:4] == arm
                            wrapped, d = admitted(enumerate(raw), pairs, reference)
                            if floor is None:
                                assert d is None
                                dropped += 1
                            else:
                                assert floor <= l1_distance(wrapped, reference)
                                checked += 1
        assert checked > 500
        assert (dropped > 0) == (limits is not None)

    @pytest.mark.parametrize("limits", LIMITS.values(), ids=LIMITS.keys())
    def test_seeded_records_as_with_every_arm(self, limits, monkeypatch):
        # the seed-7 kuka-random queries, and 300 under each tight limit
        model = robots.kuka_model(limits)
        queries = benchmark.generate_queries(model, 1000 if limits is None else 300, 7).queries

        def solved():
            out = [kuka.solve_detailed(IKQuery(t, th, SolverConfig()), model) for t, th in queries]
            candidates = [c for _, d in out for c in d.candidates]
            # whether theta1-theta4 of every candidate are within limits
            arms_inside = all(
                lo <= t <= hi for c in candidates for t, (lo, hi) in zip(c[:4], model.limit_pairs)
            )
            return [outcome_bits(r) for r, _ in out], len(candidates), arms_inside

        shipped, recovered, inside = solved()
        _recover_every_arm(monkeypatch)
        everything, enumerated, inside_every_arm = solved()
        assert recovered < enumerated
        assert shipped == everything
        # an arm out of limits is never recovered
        assert inside and inside_every_arm == (limits is None)

    def test_scripted_path_as_with_every_arm(self, kuka_model, monkeypatch):
        theta_init, waypoints = tracking.scripted_waypoints(kuka_model)

        def tracked():
            trace = tracking.track(kuka_model, waypoints, theta_init, SolverConfig())
            assert trace.failed_index is None
            return [outcome_bits(r) for _, r in trace.records]

        shipped = tracked()
        _recover_every_arm(monkeypatch)
        assert tracked() == shipped


def _recover_every_arm(monkeypatch):
    """Every arm a group with no pairs, whatever its limits: the full enumeration."""
    candidates = kuka.Branch.candidates

    def every_arm(self, reduced):
        return [((), recover) for _, recover in candidates(self, reduced)]

    monkeypatch.setattr(kuka.Branch, "candidates", every_arm)


class TestPlaneRun:
    """At an open box `Branch.optimize` runs each seed on the two angles
    of `plane_angles` through `ur5.elbow_analytic`; any other box runs
    `wrist_analytic`'s four."""

    def test_two_angle_run_reaches_the_target_as_the_four_variable_one(self, kuka_model):
        # the seeds the pipeline hands the optimizer on 300 seed-7 queries,
        # each run both ways from the same seed
        eps = 1e-6
        cap, stop = SolverConfig().fabrik_cap("kuka"), eps * eps
        wrist = kuka.wrist_analytic(kuka_model)
        runs, iterations = 0, [0, 0]
        for t_des, theta_init in benchmark.generate_queries(kuka_model, 300, 7).queries:
            branch = kuka.Branch(t_des[:3].tolist(), tuple(theta_init.tolist()), kuka_model)
            out = fabrik.solve(branch.start, branch.target, eps, cap)
            if out.converged:
                continue
            tx, ty, _ = branch.target
            azimuth = math.atan2(ty, tx)
            chain = fabrik.pre_bend(out.chain, axis=branch.bend_axis)
            for seed in kuka.seed_candidates_from_chain(chain, kuka_model):
                four = minimize(wrist, branch.target, seed, kuka_model.optimizer_box[:4], stop)
                x0 = kuka.plane_angles(azimuth, kuka.elbow_position(kuka_model, *seed[:2]),
                                       wrist(seed)[0], kuka_model)
                plane = ur5.elbow_analytic(azimuth, kuka_model)
                two = minimize(plane, branch.target, x0, ((-math.inf, math.inf),) * 2, stop)
                assert four.f <= stop and two.f <= stop
                assert math.dist(plane(two.x)[0], branch.target) <= eps
                runs += 1
                iterations[0] += two.iterations
                iterations[1] += four.iterations
        assert runs > 100
        print(f"\n{runs} runs: two-angle {iterations[0]} iterations, four-variable {iterations[1]}")

    @pytest.mark.parametrize("limits, variables", [(None, 2), (LIMITS["datasheet"], 4)],
                             ids=["default", "datasheet"])
    def test_box_decides_the_map(self, limits, variables, monkeypatch):
        model = robots.kuka_model(limits)
        sizes = []

        def recorded(position, target, x0, bounds, stop):
            sizes.append((len(x0), len(bounds)))
            return minimize(position, target, x0, bounds, stop)

        monkeypatch.setattr(kuka, "minimize", recorded)
        for t_des, theta_init in benchmark.generate_queries(model, 40, 7).queries:
            kuka.solve_detailed(IKQuery(t_des, theta_init, SolverConfig()), model)
        assert sizes and set(sizes) == {(variables, variables)}
