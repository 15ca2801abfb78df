import math
from dataclasses import replace

import numpy as np
import pytest

from fabrik_sqp import fabrik
from fabrik_sqp.fabrik import (
    Ball,
    ChainState,
    Hinge,
    backward_phase,
    _limit_correction,
    ball_joint_axis,
    forward_phase,
    pre_bend,
    solve,
    straight_chain,
)
from fabrik_sqp.geometry import rotate_about_axis, signed_angle, unit

Z = np.array([0.0, 0.0, 1.0])


def two_link_chain(lo=-math.pi, hi=math.pi, axis=Z):
    joints = (Hinge(axis, lo, hi), Hinge(axis, lo, hi))
    return straight_chain(
        np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0]), joints,
        anchor_dir=np.array([1.0, 0.0, 0.0]),
    )


def link_lengths(chain):
    return np.linalg.norm(np.diff(chain.positions, axis=0), axis=1)


def ball_chain(positions, base=(0.0, 0.0, 0.0), anchor_dir=None):
    """Unconstrained chain at the given positions, unit links."""
    positions = np.array(positions, dtype=float)
    n = positions.shape[0] - 1
    anchor = None if anchor_dir is None else np.array(anchor_dir, dtype=float)
    return ChainState(positions, np.ones(n), (Ball(),) * n, np.array(base, dtype=float), anchor)


class TestHinge:
    @pytest.mark.parametrize(
        "lo, hi",
        [(1.0, -1.0), (0.5, 0.5), (math.nan, 1.0), (0.0, math.nan)],
        ids=["reversed", "empty", "nan-lo", "nan-hi"],
    )
    def test_limits_must_satisfy_lo_below_hi(self, lo, hi):
        # the only check of a hinge's limits: _limit_correction trusts them
        with pytest.raises(ValueError, match="lo < hi"):
            Hinge(Z, lo, hi)

    def test_axis_normalized(self):
        assert np.array_equal(Hinge([0.0, 0.0, 2.0]).axis, Z)


class TestBall:
    @pytest.mark.parametrize("max_angle", [math.nan, -0.5])
    def test_cone_half_angle_must_be_non_negative(self, max_angle):
        # the only check of a cone: _limit_correction trusts it
        with pytest.raises(ValueError, match="max_angle must be at least 0"):
            Ball(max_angle)

    def test_rigid_cone_builds(self):
        assert not Ball(0.0).unconstrained


class TestClampCorrection:
    """The hinge clamp of `_limit_correction`: the excess that lands the
    joint angle from the +x link to l_out inside [-1, 1]."""

    @staticmethod
    def correction(l_out):
        return _limit_correction(np.array([1.0, 0.0, 0.0]), np.array(l_out), Hinge(Z, -1.0, 1.0))

    def test_inside(self):
        assert self.correction([math.cos(0.5), math.sin(0.5), 0.0]) is None

    def test_above(self):
        # the angle to +y is atan2(1, 0) = pi/2 exactly
        delta, axis = self.correction([0.0, 1.0, 0.0])
        assert delta == 1.0 - math.pi / 2
        assert np.array_equal(axis, Z)

    def test_below(self):
        delta, axis = self.correction([0.0, -1.0, 0.0])
        assert delta == -1.0 + math.pi / 2
        assert np.array_equal(axis, Z)


def corner_axis(p0, p1, p2):
    """ball_joint_axis at p1 of the links p0 -> p1 -> p2."""
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in (p0, p1, p2))
    return ball_joint_axis(unit(p1 - p0), unit(p2 - p1))


class TestBallJointAxis:
    def test_planar_corner(self):
        axis = corner_axis([0, 0, 0], [1, 0, 0], [1, 1, 0])
        assert np.allclose(axis, [0, 0, 1], atol=1e-12)

    def test_vertical_corner(self):
        axis = corner_axis([0, 0, 0], [0, 0, 1], [0, 1, 1])
        assert np.allclose(axis, [-1, 0, 0], atol=1e-12)

    def test_orthogonal_to_both_links(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p0, p1 = rng.normal(size=3), rng.normal(size=3)
            p2 = rng.normal(size=3)
            axis = corner_axis(p0, p1, p2)
            assert abs(np.dot(axis, unit(p1 - p0))) <= 1e-12 or np.allclose(
                np.cross(unit(p1 - p0), unit(p2 - p1)), 0, atol=1e-9
            )
            if not np.allclose(np.cross(unit(p1 - p0), unit(p2 - p1)), 0, atol=1e-9):
                assert abs(np.dot(axis, unit(p2 - p1))) <= 1e-12

    def test_collinear_fallback_deterministic(self):
        a1 = corner_axis([0, 0, 0], [1, 0, 0], [2, 0, 0])
        a2 = corner_axis([0, 0, 0], [1, 0, 0], [2, 0, 0])
        assert np.array_equal(a1, a2)
        assert abs(np.dot(a1, [1, 0, 0])) <= 1e-12
        assert abs(np.linalg.norm(a1) - 1.0) <= 1e-12

    def test_cone_clamp_turns_about_the_axis(self):
        # a 90-degree bend at a 30-degree cone: the clamp turns the
        # outgoing link back by 60 degrees about the corner axis
        l_in, l_out = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        delta, axis = fabrik._limit_correction(l_in, l_out, Ball(math.pi / 6))
        assert delta == pytest.approx(-math.pi / 3, abs=1e-15)
        assert np.array_equal(axis, ball_joint_axis(l_in, l_out))
        clamped = rotate_about_axis(axis, delta, l_out)
        assert math.acos(float(np.dot(l_in, clamped))) == pytest.approx(math.pi / 6, abs=1e-12)
        assert fabrik._limit_correction(l_in, l_out, Ball(math.pi / 2 + 1e-9)) is None


class TestForwardPhase:
    def test_fixed_point_when_target_is_end(self):
        chain = two_link_chain()
        out = forward_phase(chain, np.array([2.0, 0.0, 0.0]))
        assert np.allclose(out.positions, chain.positions, atol=1e-12)

    def test_target_anchoring_and_length_preservation(self):
        chain = two_link_chain()
        target = np.array([0.0, 2.0, 0.0])
        out = forward_phase(chain, target)
        assert np.array_equal(out.positions[-1], target)
        assert np.allclose(link_lengths(out), [1.0, 1.0], atol=1e-9)

    def test_limit_clamp_matches_scripted_update(self):
        # interior joint limited to [-pi/4, pi/4]; target bends it to pi/2.
        # Scripted evaluation of the clamped update: P1 <- P2 + a2 R(dphi) (P1 - P2)
        lo, hi = -math.pi / 4, math.pi / 4
        chain = two_link_chain(lo, hi)
        target = np.array([1.0, 1.0, 0.0])

        p = chain.positions
        q2 = target.copy()  # end lands on target
        d3 = np.linalg.norm(p[1] - q2)
        q1 = q2 + (1.0 / d3) * (p[1] - q2)  # unclamped blend of the middle point
        # joint angle at the middle point: incoming link (old P0 -> q1 not yet
        # known) checked while placing P0: between (q1 - old P0) and (q2 - q1)
        l_in = (q1 - p[0]) / np.linalg.norm(q1 - p[0])
        l_out = (q2 - q1) / np.linalg.norm(q2 - q1)
        phi = signed_angle(l_in, l_out, Z)
        dphi = np.clip(phi, lo, hi) - phi
        v = p[0] - q1
        v = rotate_about_axis(Z, -dphi, v)
        q0 = q1 + v / np.linalg.norm(v)

        out = forward_phase(chain, target)
        assert np.allclose(out.positions, [q0, q1, q2], atol=1e-12)
        # reconstructed joint angle sits at the limit
        got = signed_angle(
            unit(out.positions[1] - out.positions[0]),
            unit(out.positions[2] - out.positions[1]),
            Z,
        )
        assert got == pytest.approx(hi, abs=1e-9)


    def test_coincident_point_extends_past_the_placed_link(self):
        # the middle point lands on the old base, which then extends
        # straight past the link just placed
        chain = ball_chain([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        out = forward_phase(chain, np.array([-1.0, 0.0, 0.0]))
        assert np.array_equal(out.positions, [[1, 0, 0], [0, 0, 0], [-1, 0, 0]])

    def test_coincident_point_at_the_target_keeps_its_old_direction(self):
        # the target sits on the point next to the end: no link is placed
        # yet, so the first link keeps its old direction
        chain = ball_chain([[0, 0, 0], [1, 0, 0]])
        out = forward_phase(chain, np.zeros(3))
        assert np.array_equal(out.positions, [[-1, 0, 0], [0, 0, 0]])


class TestStraightChain:
    """straight_chain is the one place a chain is validated."""

    X = np.array([1.0, 0.0, 0.0])

    def test_link_directions_are_numpy_norm_bits(self):
        rng = np.random.default_rng(23)
        for _ in range(3000):
            points = rng.normal(size=(int(rng.integers(2, 6)), 3)) * 10.0 ** rng.uniform(-6, 3)
            chain = ball_chain(points)
            diffs = np.diff(points, axis=0)
            want = diffs / np.linalg.norm(diffs, axis=1)[:, None]
            assert chain.link_directions().tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "lengths",
        [[], [1.0, 0.0], [1.0, -0.5], [1.0, math.nan], [[1.0, 1.0]]],
        ids=["empty", "zero", "negative", "nan", "2-d"],
    )
    def test_bad_lengths_rejected(self, lengths):
        joints = tuple(Hinge(Z) for _ in range(np.size(lengths)))
        with pytest.raises(ValueError):
            straight_chain(np.zeros(3), self.X, lengths, joints)

    def test_joint_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one joint per link"):
            straight_chain(np.zeros(3), self.X, [1.0, 1.0], (Hinge(Z),))

    def test_bad_shapes_rejected(self):
        joints = (Hinge(Z), Hinge(Z))
        with pytest.raises(ValueError, match="3-vectors"):
            straight_chain(np.zeros(2), self.X[:2], [1.0, 1.0], joints)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
    def test_bad_direction_rejected(self, bad):
        with pytest.raises(ValueError, match="near-zero or non-finite"):
            straight_chain(np.zeros(3), [bad, 0.0, 0.0], [1.0, 1.0], (Hinge(Z), Hinge(Z)))

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
    def test_bad_anchor_rejected(self, bad):
        with pytest.raises(ValueError, match="near-zero or non-finite"):
            straight_chain(
                np.zeros(3), self.X, [1.0, 1.0], (Hinge(Z), Hinge(Z)), anchor_dir=[bad, 0.0, 0.0]
            )

    @pytest.mark.parametrize(
        "base, lengths",
        [((0.0, 0.0, 0.0), [1.0, 1e-20]), ((1e17, 0.0, 0.0), [1.0, 1.0])],
        ids=["tiny-link", "far-base"],
    )
    def test_link_absorbed_by_rounding_rejected(self, base, lengths):
        with pytest.raises(ValueError, match="too short"):
            straight_chain(np.array(base), self.X, lengths, (Ball(), Ball()))

    def test_link_below_the_minimum_rejected(self):
        short = 0.5 * fabrik.MIN_LINK_LENGTH
        with pytest.raises(ValueError, match="too short"):
            straight_chain(np.zeros(3), self.X, [short, short], (Ball(), Ball()))
        chain = straight_chain(
            np.zeros(3), self.X, [fabrik.MIN_LINK_LENGTH] * 2, (Ball(), Ball())
        )
        assert np.array_equal(chain.lengths, [fabrik.MIN_LINK_LENGTH] * 2)

    @pytest.mark.parametrize(
        "lengths",
        [[1e200, 1e200], [0.6e150, 0.6e150], [1e308, 1e308], [1.0, math.inf]],
        ids=["huge", "just-over", "near-float-max", "inf"],
    )
    def test_reach_above_the_maximum_rejected(self, lengths):
        # pytest turns numpy's overflow warning into an error
        with pytest.raises(ValueError, match="reach .* at most 1e\\+150"):
            straight_chain(np.zeros(3), self.X, lengths, (Ball(), Ball()))

    def test_reach_at_the_maximum_accepted(self):
        half = 0.5 * fabrik.MAX_CHAIN_REACH
        chain = straight_chain(np.zeros(3), self.X, [half, half], (Ball(), Ball()))
        assert chain.reach() == fabrik.MAX_CHAIN_REACH

    def test_direction_and_anchor_normalized(self):
        chain = straight_chain(
            [0, 0, 0], [3, 0, 0], [1, 2], [Hinge(Z), Hinge(Z)], anchor_dir=[0, 0, 2]
        )
        assert np.array_equal(chain.positions, [[0, 0, 0], [1, 0, 0], [3, 0, 0]])
        assert np.array_equal(chain.anchor_dir, Z)
        assert isinstance(chain.joints, tuple) and len(chain.joints) == 2
        assert chain.positions.dtype == chain.lengths.dtype == chain.base.dtype == float


class TestBackwardPhase:
    def test_base_reanchoring_exact(self):
        chain = two_link_chain()
        drifted = ChainState(
            positions=chain.positions + np.array([0.1, 0.0, 0.0]),
            lengths=chain.lengths,
            joints=chain.joints,
            base=chain.base,
            anchor_dir=chain.anchor_dir,
        )
        out = backward_phase(drifted)
        assert np.array_equal(out.positions[0], chain.base)
        assert np.allclose(link_lengths(out), [1.0, 1.0], atol=1e-9)

    def test_collinear_fixed_point(self):
        chain = two_link_chain()
        out = backward_phase(chain)
        assert np.allclose(out.positions, chain.positions, atol=1e-12)

    def test_limit_clamp_matches_scripted_update(self):
        # base joint limited against the anchor direction; the drifted
        # middle point violates it and must be pre-rotated before blending
        lo, hi = -0.3, 0.3
        joints = (Hinge(Z, lo, hi), Hinge(Z, -math.pi, math.pi))
        positions = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
        chain = ChainState(
            positions=positions,
            lengths=np.array([1.0, 1.0]),
            joints=joints,
            base=np.zeros(3),
            anchor_dir=np.array([1.0, 0.0, 0.0]),
        )
        out = backward_phase(chain)

        phi = signed_angle(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), Z)
        dphi = np.clip(phi, lo, hi) - phi  # = hi - pi/2
        v = rotate_about_axis(Z, dphi, positions[1] - np.zeros(3))
        q1 = np.zeros(3) + v / np.linalg.norm(v)
        assert np.allclose(out.positions[1], q1, atol=1e-12)
        got = signed_angle(unit(out.positions[1] - out.positions[0]), unit(out.positions[1] - out.positions[0]), Z)
        # base angle after the sweep obeys the limit
        base_angle = signed_angle(np.array([1.0, 0.0, 0.0]), unit(out.positions[1]), Z)
        assert base_angle == pytest.approx(hi, abs=1e-9)


    def test_coincident_point_extends_past_the_placed_link(self):
        chain = ball_chain([[0, 0, 0], [1, 0, 0], [1, 0, 0]])
        out = backward_phase(chain)
        assert np.array_equal(out.positions, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])

    def test_coincident_point_at_the_base_follows_the_anchor(self):
        chain = ball_chain([[0, 0, 0], [0, 0, 0], [1, 0, 0]], anchor_dir=[0, 1, 0])
        out = backward_phase(chain)
        assert np.array_equal(out.positions[:2], [[0, 0, 0], [0, 1, 0]])
        assert np.allclose(link_lengths(out), [1.0, 1.0], atol=1e-15)

    def test_coincident_point_at_the_base_keeps_its_old_direction(self):
        # no anchor: the first link keeps its old direction, and the next
        # point, now on the new pivot, extends past it
        chain = ball_chain([[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
        out = backward_phase(chain)
        assert np.array_equal(out.positions, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])


class TestPreBend:
    def test_straight_chain_gets_exact_bend(self):
        chain = two_link_chain()
        bent = pre_bend(chain)
        d = bent.link_directions()
        angle = math.acos(min(1.0, float(np.dot(d[0], d[1]))))
        assert angle == pytest.approx(fabrik.PRE_BEND, abs=1e-12)
        assert np.allclose(link_lengths(bent), [1.0, 1.0], atol=1e-12)

    def test_bent_chain_unchanged(self):
        chain = two_link_chain()
        bent = pre_bend(chain)
        again = pre_bend(bent)
        assert np.array_equal(bent.positions, again.positions)

    def test_hinge_chain_stays_in_plane(self):
        chain = two_link_chain(axis=Z)
        bent = pre_bend(chain)
        assert np.allclose(bent.positions[:, 2], 0.0, atol=1e-15)

    def test_unbent_chain_oscillates_where_bent_converges(self):
        # target on the chain's own line: the straight chain cycles
        # endlessly, the pre-bent one converges (three links give the
        # asymmetry room to grow; the two-link case stays degenerate and
        # is what the optimizer fallback exists for)
        joints = tuple(Hinge(Z) for _ in range(3))
        chain = straight_chain(
            np.zeros(3), np.array([1.0, 0.0, 0.0]), np.ones(3), joints,
            anchor_dir=np.array([1.0, 0.0, 0.0]),
        )
        target = np.array([2.7, 0.0, 0.0])
        raw = solve(chain, target, 1e-6, 400)
        bent = solve(pre_bend(chain), target, 1e-6, 400)
        assert not raw.converged
        assert bent.converged


class TestSolve:
    @pytest.mark.parametrize("cap", [1.5, True, None])
    def test_non_integer_iter_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="iter_cap must be an integer"):
            solve(pre_bend(two_link_chain()), np.array([0.6, 1.1, 0.0]), 1e-6, cap)

    def test_numpy_integer_iter_cap_accepted(self):
        out = solve(pre_bend(two_link_chain()), np.array([0.6, 1.1, 0.0]), 1e-30, np.int64(2))
        assert out.iterations == 2

    @pytest.mark.parametrize("eps_tol", [math.nan, math.inf])
    def test_non_finite_eps_tol_rejected(self, eps_tol):
        with pytest.raises(ValueError, match="eps_tol must be positive and finite"):
            solve(pre_bend(two_link_chain()), np.array([0.6, 1.1, 0.0]), eps_tol, 50)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected_before_the_first_sweep(self, bad, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept toward a non-finite target")

        monkeypatch.setattr(fabrik, "_reach", no_sweep)
        with pytest.raises(ValueError, match="target must be finite"):
            solve(pre_bend(two_link_chain()), np.array([bad, 0.5, 0.0]), 1e-6, 50)

    def test_target_at_end_converges_immediately(self):
        chain = pre_bend(two_link_chain())
        target = chain.positions[-1].copy()
        out = solve(chain, target, 1e-6, 50)
        assert out.converged
        assert out.iterations <= 1

    def test_full_extension_target_single_sweep(self):
        # anywhere on the reach sphere: the straight chain is the unique
        # geometric solution
        chain = two_link_chain()
        for beta in (0.3, 1.2, 2.5, -2.0):
            target = np.array([2.0 * math.cos(beta), 2.0 * math.sin(beta), 0.0])
            out = solve(chain, target, 1e-6, 50)
            assert out.converged
            assert out.iterations == 1
            assert np.allclose(out.chain.positions[-1], target, atol=1e-9)
            assert np.allclose(link_lengths(out.chain), [1.0, 1.0], atol=1e-9)

    def test_within_reach_up_to_one_ulp_band_beyond_the_sphere(self):
        chain = two_link_chain()  # base at the origin, reach 2
        edge = chain.reach() * (1.0 + 1e-12)
        for gap in (chain.reach(), edge):
            assert fabrik.within_reach(chain, (gap, 0.0, 0.0))
        assert not fabrik.within_reach(chain, (np.nextafter(edge, math.inf), 0.0, 0.0))
        assert not fabrik.within_reach(chain, (math.nan, 0.0, 0.0))
        # solve lays the chain straight toward a target on either side of
        # the band's edge, in one sweep, and lands within eps of both
        for gap in (edge, np.nextafter(edge, math.inf)):
            out = solve(chain, np.array([gap, 0.0, 0.0]), 1e-6, 50)
            assert out.converged
            assert out.iterations == 1
            assert out.trace == ((1, out.dist),)
            assert np.array_equal(out.chain.positions, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
            assert out.dist == pytest.approx(gap - 2.0, abs=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_target_beyond_the_largest_gap_rejected(self):
        chain = two_link_chain()
        out = solve(chain, np.array([0.0, fabrik.MAX_TARGET_GAP, 0.0]), 1e-6, 50)
        assert out.iterations == 1 and np.allclose(out.chain.end, [0.0, 2.0, 0.0])
        for target in ([1e155, 0.0, 0.0], [1.7e308, 1.7e308, 0.0]):
            with pytest.raises(ValueError, match="within 1e\\+154 m of the base"):
                solve(chain, np.array(target), 1e-6, 50)

    def test_out_of_reach_target_stretches_chain_in_one_sweep(self):
        # FABRIK's out-of-reach case: the chain laid straight toward the
        # target, its end as close as the chain gets
        chain = two_link_chain()
        target = np.array([1.8, 2.4, 0.0])  # 3 from the base, along (0.6, 0.8, 0)
        out = solve(chain, target, 1e-6, 50)
        assert not out.converged
        assert out.iterations == 1
        assert out.trace == ((1, out.dist),)
        assert np.allclose(out.chain.positions, [[0.0, 0.0, 0.0], [0.6, 0.8, 0.0], [1.2, 1.6, 0.0]], atol=1e-15)
        assert out.dist == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(link_lengths(out.chain), [1.0, 1.0], atol=1e-15)

    def test_slight_bend_target_needs_many_sweeps(self):
        # near-full-extension target barely off the chain's own line:
        # the long plateau regime; far more sweeps than the combined
        # switch index
        chain = pre_bend(two_link_chain())
        target = np.array([1.99, 0.001, 0.0])
        out = solve(chain, target, 1e-6, 20000)
        assert out.converged
        assert out.iterations > 15
        assert len(out.trace) == out.iterations
        dists = np.array([d for _, d in out.trace])
        assert np.all(np.isfinite(dists))

    def test_trace_length_matches_iterations(self):
        chain = pre_bend(two_link_chain())
        out = solve(chain, np.array([0.6, 1.1, 0.0]), 1e-6, 500)
        assert out.converged
        assert len(out.trace) == out.iterations
        assert all(d > 0.0 for _, d in out.trace[:-1])

    def test_deterministic(self):
        chain = pre_bend(two_link_chain())
        target = np.array([0.3, 1.4, 0.0])
        a = solve(chain, target, 1e-6, 500)
        b = solve(chain, target, 1e-6, 500)
        assert a.iterations == b.iterations
        assert np.array_equal(a.chain.positions, b.chain.positions)
        assert a.trace == b.trace


class TestPhaseProperties:
    """Randomized sweeps: length preservation, anchoring, limit respect."""

    def random_chain(self, rng, hinge=True):
        """Scattered chain; hinge chains are planar (links perp. the axis),
        which is the geometry the solvers build and the regime where the
        clamp corrections are exact."""
        m = int(rng.integers(3, 6))
        lengths = rng.uniform(0.2, 1.5, m - 1)
        base = rng.normal(size=3)
        if hinge:
            axis = unit(rng.normal(size=3))
            u = unit(np.cross(axis, unit(rng.normal(size=3)) if abs(axis[0]) < 0.9 else np.array([1.0, 0.0, 0.0])))
            v = np.cross(axis, u)
            lo = rng.uniform(-math.pi, -0.1)
            hi = rng.uniform(0.1, math.pi)
            joints = tuple(Hinge(axis, lo, hi) for _ in range(m - 1))
            angles = rng.uniform(-math.pi, math.pi, m - 1)
            positions = [base]
            heading = rng.uniform(-math.pi, math.pi)
            for k in range(m - 1):
                heading = angles[k]
                step = lengths[k] * (math.cos(heading) * u + math.sin(heading) * v)
                positions.append(positions[-1] + step)
            direction = unit(positions[1] - positions[0])
            return ChainState(
                positions=np.array(positions),
                lengths=lengths,
                joints=joints,
                base=base,
                anchor_dir=u,
            )
        joints = tuple(Ball(rng.uniform(0.5, math.pi)) for _ in range(m - 1))
        direction = unit(rng.normal(size=3))
        chain = straight_chain(base, direction, lengths, joints, anchor_dir=direction)
        scattered = chain.positions + rng.normal(scale=0.2, size=chain.positions.shape)
        scattered[0] = base
        return ChainState(
            positions=scattered,
            lengths=lengths,
            joints=joints,
            base=base,
            anchor_dir=direction,
        )

    def _planar_target(self, rng, chain):
        # keep hinge-chain targets in the working plane
        axis = chain.joints[0].axis if isinstance(chain.joints[0], Hinge) else None
        offset = rng.normal(size=3) * 0.8
        if axis is not None:
            offset = offset - float(np.dot(offset, axis)) * axis
        return chain.base + offset

    def test_lengths_and_anchors_over_random_phases(self):
        rng = np.random.default_rng(11)
        for trial in range(2000):
            chain = self.random_chain(rng, hinge=bool(trial % 2))
            target = self._planar_target(rng, chain)
            fwd = forward_phase(chain, target)
            assert np.array_equal(fwd.positions[-1], target)
            assert np.max(np.abs(np.linalg.norm(np.diff(fwd.positions, axis=0), axis=1) - chain.lengths)) <= 1e-9
            bwd = backward_phase(fwd)
            assert np.array_equal(bwd.positions[0], chain.base)
            assert np.max(np.abs(np.linalg.norm(np.diff(bwd.positions, axis=0), axis=1) - chain.lengths)) <= 1e-9

    def test_hinge_limits_respected_after_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            chain = self.random_chain(rng, hinge=True)
            target = self._planar_target(rng, chain)
            out = backward_phase(forward_phase(chain, target))
            dirs = out.link_directions()
            joints = out.joints
            # base joint versus the anchor, then the interior joints
            angles = [signed_angle(out.anchor_dir, dirs[0], joints[0].axis)]
            for j in range(1, len(dirs)):
                angles.append(signed_angle(dirs[j - 1], dirs[j], joints[j].axis))
            for angle, joint in zip(angles, joints):
                assert joint.lo - 1e-6 <= angle <= joint.hi + 1e-6


# --- the numpy reach step, kept as the oracle of `_reach` -------------------
# The sweep body and the helpers it reaches as they were written on numpy
# arrays (np.cross, np.linalg.norm, np.dot), before the per-point
# arithmetic moved to Python floats. `_reach` must give the same bits.

def _np_unit(v):
    return v / float(np.linalg.norm(v))


def _np_signed_angle(a, b, ref_axis):
    c = np.cross(a, b)
    ang = math.atan2(float(np.linalg.norm(c)), float(np.dot(a, b)))
    return ang if float(np.dot(ref_axis, c)) >= 0.0 else -ang


def _np_rotate(axis, theta, v):
    c, s = math.cos(theta), math.sin(theta)
    return v * c + np.cross(axis, v) * s + axis * (float(np.dot(axis, v)) * (1.0 - c))


def _np_limit_correction(l_in, l_out, joint):
    if isinstance(joint, Hinge):
        phi = _np_signed_angle(l_in, l_out, joint.axis)
        delta = min(max(phi, joint.lo), joint.hi) - phi
        return None if delta == 0.0 else (delta, joint.axis)
    phi = math.acos(min(1.0, max(-1.0, float(np.dot(l_in, l_out)))))
    if phi <= joint.max_angle:
        return None
    c = np.cross(l_in, l_out)
    n = float(np.linalg.norm(c))
    if n < 1e-9:
        k = int(np.argmin(np.abs(l_in)))
        axis = _np_unit(np.cross(l_in, np.eye(3)[k]))
    else:
        axis = c / n
    return joint.max_angle - phi, axis


def _np_reach(chain, positions, start, tip_first):
    m = positions.shape[0]
    step, first = (-1, m - 1) if tip_first else (1, 0)
    entry = None if tip_first else chain.anchor_dir
    q = positions.copy()
    q[first] = start
    for i in range(first + step, first + m * step, step):
        p = i - step
        pivot = q[p]
        v = positions[i] - pivot
        d = float(np.linalg.norm(v))
        length = chain.lengths[min(i, p)]
        if d < 1e-12:
            direction = _np_unit(pivot - q[p - step]) if p != first else entry
            if direction is None:
                direction = _np_unit(positions[i] - positions[p])
            q[i] = pivot + length * direction
            continue
        if (p != first or entry is not None) and not chain.joints[p].unconstrained:
            back = _np_unit(pivot - q[p - step]) if p != first else entry
            if tip_first:
                corr = _np_limit_correction(-v / d, -back, chain.joints[p])
            else:
                corr = _np_limit_correction(back, v / d, chain.joints[p])
            if corr is not None:
                delta, axis = corr
                v = _np_rotate(axis, -delta if tip_first else delta, v)
        q[i] = pivot + (length / d) * v
    return q


def _np_sweeps(chain, target, eps_tol, iter_cap):
    """(positions, sweeps, dist, trace) of `solve`'s sweep loop."""
    q = chain.positions
    dist = float(np.linalg.norm(q[-1] - target))
    n, trace = 0, []
    while dist > eps_tol and n < iter_cap:
        q = _np_reach(chain, _np_reach(chain, q, target, True), chain.base, False)
        n += 1
        dist = float(np.linalg.norm(q[-1] - target))
        trace.append((n, dist))
    return q, n, dist, tuple(trace)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestReachAgainstNumpyBody:
    """`forward_phase`, `backward_phase` and `solve` against the numpy
    reach step, bit for bit, on seeded chains of 2 to 6 links: hinges
    with narrow limits, ball cones, anchored and free bases, and points
    that coincide with their pivot. The seeded benchmark solves only
    3-point chains; the `trace` command takes any."""

    @staticmethod
    def random_chain(rng):
        n = int(rng.integers(2, 7))
        lengths = rng.uniform(0.2, 1.5, n)
        base = rng.normal(size=3)
        joints = []
        for _ in range(n):
            kind = rng.integers(0, 3)
            if kind == 0:
                lo = rng.uniform(-1.5, 0.3)
                joints.append(Hinge(rng.normal(size=3), lo, lo + rng.uniform(0.05, 1.5)))
            elif kind == 1:
                joints.append(Ball(rng.uniform(0.1, 1.5)))
            else:
                joints.append(Hinge(rng.normal(size=3)) if rng.integers(0, 2) else Ball())
        anchor = unit(rng.normal(size=3)) if rng.integers(0, 2) else None
        steps = np.array([unit(rng.normal(size=3)) * length for length in lengths])
        positions = base + np.concatenate([np.zeros((1, 3)), np.cumsum(steps, axis=0)])
        return ChainState(positions, lengths, tuple(joints), base, anchor)

    def test_phases_on_random_chains(self):
        rng = np.random.default_rng(21)
        for _ in range(1500):
            chain = self.random_chain(rng)
            target = chain.base + rng.normal(size=3) * chain.reach() / 2.0
            fwd = forward_phase(chain, target)
            assert _same_bits(fwd.positions, _np_reach(chain, chain.positions, target, True))
            bwd = backward_phase(fwd)
            assert _same_bits(bwd.positions, _np_reach(fwd, fwd.positions, chain.base, False))

    def test_coincident_points(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            chain = self.random_chain(rng)
            # the tip pass pins the tip onto the point before it; the base
            # pass meets a point that the pass itself placed on its pivot
            placed = _np_reach(chain, chain.positions, chain.base, False)
            moved = chain.positions.copy()
            moved[2] = placed[1]
            bent = replace(chain, positions=moved)
            tip = chain.positions[-2].copy()
            assert _same_bits(forward_phase(chain, tip).positions,
                              _np_reach(chain, chain.positions, tip, True))
            assert _same_bits(backward_phase(bent).positions,
                              _np_reach(bent, moved, chain.base, False))

    def test_solve_on_random_chains(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            chain = self.random_chain(rng)
            target = chain.base + unit(rng.normal(size=3)) * rng.uniform(0.1, 0.9) * chain.reach()
            out = solve(chain, target, 1e-6, 30)
            q, n, dist, trace = _np_sweeps(chain, target, 1e-6, 30)
            assert (out.iterations, out.converged) == (n, dist <= 1e-6)
            assert _same_bits(out.chain.positions, q)
            assert _same_bits(out.dist, dist)
            assert _same_bits(out.trace, trace)
