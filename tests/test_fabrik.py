import math
from fractions import Fraction

import numpy as np
import pytest

from fabrik_sqp import fabrik, geometry, kuka, robots, ur5
from fabrik_sqp.fabrik import (
    Hinge,
    backward_phase,
    _limit_correction,
    forward_phase,
    pre_bend,
    solve,
    straight_chain,
)
from fabrik_sqp.geometry import perpendicular_axis, rotate_about_axis, signed_angle

from conftest import KUKA_DATASHEET, U, chain_state, exact_rotate, exact_sqrt, exact_unit, rows, within
from conftest import unit_array as unit

Z = np.array([0.0, 0.0, 1.0])


def two_link_chain(lo=-math.pi, hi=math.pi, axis=Z):
    joints = (Hinge(axis, lo, hi), Hinge(axis, lo, hi))
    return straight_chain(
        np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0]), joints,
        anchor_dir=np.array([1.0, 0.0, 0.0]),
    )


def link_lengths(chain):
    return np.linalg.norm(np.diff(chain.positions, axis=0), axis=1)


def free_chain(positions, base=(0.0, 0.0, 0.0), anchor_dir=None):
    """Chain of unconstrained hinges at the given positions, unit links."""
    n = len(positions) - 1
    return chain_state(positions, np.ones(n), (Hinge(Z),) * n, base, anchor_dir)


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

    def test_unconstrained_only_at_the_full_range(self):
        # the sweeps skip the clamp of an unconstrained hinge; any
        # narrower one, however little, can clamp
        assert Hinge(Z).unconstrained and Hinge(Z, -4.0, 4.0).unconstrained
        for lo, hi in ((-math.pi, 3.0), (-3.0, math.pi), (-1e-9, 1e-9)):
            assert not Hinge(Z, lo, hi).unconstrained


class TestClampCorrection:
    """The clamp of `_limit_correction`: the excess that lands the
    joint angle from the +x link to l_out inside [-1, 1]."""

    @staticmethod
    def correction(l_out):
        return _limit_correction(np.array([1.0, 0.0, 0.0]), np.array(l_out), Hinge(Z, -1.0, 1.0))

    def test_inside(self):
        assert self.correction([math.cos(0.5), math.sin(0.5), 0.0]) == 0.0

    def test_above(self):
        # the angle to +y is atan2(1, 0) = pi/2 exactly
        assert self.correction([0.0, 1.0, 0.0]) == 1.0 - math.pi / 2

    def test_below(self):
        assert self.correction([0.0, -1.0, 0.0]) == -1.0 + math.pi / 2

    def test_clamp_turns_about_the_axis(self):
        # a 90-degree bend at a +-30-degree hinge: the clamp turns the
        # outgoing link back by 60 degrees about the hinge's axis, either way
        l_in = np.array([1.0, 0.0, 0.0])
        for sign in (1.0, -1.0):
            l_out = np.array([0.0, sign, 0.0])
            delta = _limit_correction(l_in, l_out, Hinge(Z, -math.pi / 6, math.pi / 6))
            assert delta == pytest.approx(-sign * math.pi / 3, abs=1e-15)
            clamped = rotate_about_axis(tuple(Z), delta, l_out)
            assert math.acos(float(np.dot(l_in, clamped))) == pytest.approx(math.pi / 6, abs=1e-12)
        assert _limit_correction(l_in, np.array([0.0, 1.0, 0.0]), Hinge(Z, -1.0, math.pi / 2 + 1e-9)) == 0.0


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

        p = np.asarray(chain.positions)
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
        v = np.array(rotate_about_axis(Z, -dphi, v))
        q0 = q1 + v / np.linalg.norm(v)

        out = forward_phase(chain, target)
        assert np.allclose(out.positions, [q0, q1, q2], atol=1e-12)
        # reconstructed joint angle sits at the limit
        got_p = np.asarray(out.positions)
        got = signed_angle(unit(got_p[1] - got_p[0]), unit(got_p[2] - got_p[1]), Z)
        assert got == pytest.approx(hi, abs=1e-9)


    def test_coincident_point_extends_past_the_placed_link(self):
        # the middle point lands on the old base, which then extends
        # straight past the link just placed
        chain = free_chain([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        out = forward_phase(chain, np.array([-1.0, 0.0, 0.0]))
        assert np.array_equal(out.positions, [[1, 0, 0], [0, 0, 0], [-1, 0, 0]])

    def test_coincident_point_at_the_target_keeps_its_old_direction(self):
        # the target sits on the point next to the end: no link is placed
        # yet, so the first link keeps its old direction
        chain = free_chain([[0, 0, 0], [1, 0, 0]])
        out = forward_phase(chain, np.zeros(3))
        assert np.array_equal(out.positions, [[-1, 0, 0], [0, 0, 0]])


class TestStraightChain:
    """straight_chain is the one place a chain is validated."""

    X = np.array([1.0, 0.0, 0.0])

    def test_link_directions_are_numpy_norm_bits(self):
        rng = np.random.default_rng(23)
        for _ in range(3000):
            points = rng.normal(size=(int(rng.integers(2, 6)), 3)) * 10.0 ** rng.uniform(-6, 3)
            chain = free_chain(points)
            diffs = np.diff(points, axis=0)
            want = diffs / np.linalg.norm(diffs, axis=1)[:, None]
            assert np.array(chain.link_directions()).tobytes() == want.tobytes()

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
            straight_chain(np.array(base), self.X, lengths, (Hinge(Z), Hinge(Z)))

    def test_link_below_the_minimum_rejected(self):
        short = 0.5 * fabrik.MIN_LINK_LENGTH
        with pytest.raises(ValueError, match="too short"):
            straight_chain(np.zeros(3), self.X, [short, short], (Hinge(Z), Hinge(Z)))
        chain = straight_chain(
            np.zeros(3), self.X, [fabrik.MIN_LINK_LENGTH] * 2, (Hinge(Z), Hinge(Z))
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
            straight_chain(np.zeros(3), self.X, lengths, (Hinge(Z), Hinge(Z)))

    def test_reach_at_the_maximum_accepted(self):
        half = 0.5 * fabrik.MAX_CHAIN_REACH
        chain = straight_chain(np.zeros(3), self.X, [half, half], (Hinge(Z), Hinge(Z)))
        assert chain.reach == fabrik.MAX_CHAIN_REACH

    def test_direction_and_anchor_normalized(self):
        chain = straight_chain(
            [0, 0, 0], [3, 0, 0], [1, 2], [Hinge(Z), Hinge(Z)], anchor_dir=[0, 0, 2]
        )
        assert np.array_equal(chain.positions, [[0, 0, 0], [1, 0, 0], [3, 0, 0]])
        assert np.array_equal(chain.anchor_dir, Z)
        assert isinstance(chain.joints, tuple) and len(chain.joints) == 2
        for field in (chain.positions, chain.lengths, chain.base):
            assert np.asarray(field).dtype == float


class TestBackwardPhase:
    def test_base_reanchoring_exact(self):
        chain = two_link_chain()
        drifted = chain.moved(rows(np.asarray(chain.positions) + np.array([0.1, 0.0, 0.0])))
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
        chain = chain_state(positions, [1.0, 1.0], joints, np.zeros(3), anchor_dir=[1.0, 0.0, 0.0])
        out = backward_phase(chain)

        phi = signed_angle(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), Z)
        dphi = np.clip(phi, lo, hi) - phi  # = hi - pi/2
        v = np.array(rotate_about_axis(Z, dphi, positions[1] - np.zeros(3)))
        q1 = np.zeros(3) + v / np.linalg.norm(v)
        assert np.allclose(out.positions[1], q1, atol=1e-12)
        got_p = np.asarray(out.positions)
        got = signed_angle(unit(got_p[1] - got_p[0]), unit(got_p[1] - got_p[0]), Z)
        # base angle after the sweep obeys the limit
        base_angle = signed_angle(np.array([1.0, 0.0, 0.0]), unit(got_p[1]), Z)
        assert base_angle == pytest.approx(hi, abs=1e-9)


    def test_coincident_point_extends_past_the_placed_link(self):
        chain = free_chain([[0, 0, 0], [1, 0, 0], [1, 0, 0]])
        out = backward_phase(chain)
        assert np.array_equal(out.positions, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])

    def test_coincident_point_at_the_base_follows_the_anchor(self):
        chain = free_chain([[0, 0, 0], [0, 0, 0], [1, 0, 0]], anchor_dir=[0, 1, 0])
        out = backward_phase(chain)
        assert np.array_equal(out.positions[:2], [[0, 0, 0], [0, 1, 0]])
        assert np.allclose(link_lengths(out), [1.0, 1.0], atol=1e-15)

    def test_coincident_point_at_the_base_keeps_its_old_direction(self):
        # no anchor: the first link keeps its old direction, and the next
        # point, now on the new pivot, extends past it
        chain = free_chain([[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
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

    def test_folded_chain_unfolds_by_the_bend(self):
        # folded back on itself, the chain would park the optimizer where
        # its gradient vanishes; the bend opens the fold by PRE_BEND
        chain = two_link_chain()
        folded = chain.moved(rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
        bent = pre_bend(folded)
        d = bent.link_directions()
        assert bent.positions[:2] == folded.positions[:2]
        assert math.acos(float(np.dot(d[0], d[1]))) == pytest.approx(math.pi - fabrik.PRE_BEND, abs=1e-9)
        assert np.allclose(link_lengths(bent), [1.0, 1.0], atol=1e-12)
        assert pre_bend(bent) is bent

    def test_hinge_chain_stays_in_plane(self):
        # about the given axis: the chain's hinges are not read
        y = np.array([0.0, 1.0, 0.0])
        chain = two_link_chain(axis=y)
        bent = pre_bend(chain, axis=y)
        assert np.allclose(np.asarray(bent.positions)[:, 1], 0.0, atol=1e-15)
        assert not np.allclose(np.asarray(bent.positions)[:, 2], 0.0, atol=1e-6)

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


class TestStartBend:
    def test_a_bent_two_link_start_changes_no_outcome(self):
        # the forward phase pins the tip at the target before reading it,
        # so a start bend, which moves only the tip, reaches the outcome
        # only through the zero-sweep test and the coincident-point rule
        rng = np.random.default_rng(36)
        compared = 0
        for _ in range(3000):
            lengths = rng.uniform(0.2, 1.5, 2)
            axis = unit(rng.normal(size=3))
            joints = [
                Hinge(axis if rng.integers(0, 2) else rng.normal(size=3),
                      *np.sort(rng.uniform(-math.pi, math.pi, 2))) for _ in range(2)
            ]
            base, direction = rng.normal(size=3), rng.normal(size=3)
            straight = straight_chain(base, direction, lengths, joints, anchor_dir=direction)
            bent = pre_bend(straight, axis=rng.normal(size=3))
            target = base + unit(rng.normal(size=3)) * straight.reach * rng.uniform() ** (1 / 3)
            if (min(math.dist(target, c.end) for c in (straight, bent)) <= 1e-6
                    or math.dist(target, straight.positions[1]) <= 1e-12):
                continue
            cap = int(rng.integers(1, 60))
            assert repr(solve(straight, target, 1e-6, cap)) == repr(solve(bent, target, 1e-6, cap))
            compared += 1
        assert compared > 2900


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

    @pytest.mark.parametrize("eps_tol", [True, "1e-6", None])
    def test_non_number_eps_tol_rejected(self, eps_tol):
        # True would otherwise run with eps = 1
        with pytest.raises(ValueError, match="eps_tol must be a real number, not a bool"):
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
        target = np.array(chain.positions[-1])
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

    def test_within_reach_is_the_eps_band_about_the_shell(self):
        # links 2 and 1 from the origin: reach 3, and a hole of radius
        # 2 * 2 - 3 = 1 that the end never enters
        chain = straight_chain(np.zeros(3), (1.0, 0.0, 0.0), (2.0, 1.0), (Hinge(Z), Hinge(Z)))
        eps = 1e-6
        # the outer edge is the last float whose gap - reach is at most
        # eps; 3.0 + eps rounds 1.4e-16 past it
        inner, outer = 1.0 - eps, np.nextafter(3.0 + eps, 0.0)
        assert outer - 3.0 <= eps < np.nextafter(outer, math.inf) - 3.0
        for gap in (inner, 1.0, 2.0, 3.0, outer):
            assert fabrik.within_reach(chain, (0.0, gap, 0.0), eps)
        for gap in (0.0, 0.5, np.nextafter(inner, 0.0), np.nextafter(outer, math.inf)):
            assert not fabrik.within_reach(chain, (0.0, gap, 0.0), eps)
        assert not fabrik.within_reach(chain, (math.nan, 0.0, 0.0), eps)
        # equal links leave no hole: the end reaches the base itself
        assert fabrik.within_reach(two_link_chain(), (0.0, 0.0, 0.0), eps)
        # solve lays the chain straight toward a target in the outer band,
        # in one sweep, and lands within eps of it
        for gap in (3.0 + 0.5 * eps, outer):
            out = solve(chain, np.array([gap, 0.0, 0.0]), eps, 50)
            assert out.iterations == 1
            assert out.trace == ((1, out.dist),)
            assert np.array_equal(out.chain.positions, [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
            assert out.dist == pytest.approx(gap - 3.0, abs=1e-15)

    def test_within_reach_refuses_a_target_solve_rejects(self):
        # whatever eps is, a target more than MAX_TARGET_GAP from the base
        # is out, so no caller hands solve a target it raises on
        chain = two_link_chain()
        for gap in (fabrik.MAX_TARGET_GAP * 1.01, 1e200):
            assert not fabrik.within_reach(chain, (gap, 0.0, 0.0), 1e300)
            with pytest.raises(ValueError, match="target must be finite"):
                solve(chain, np.array([gap, 0.0, 0.0]), 1e300, 50)
        assert fabrik.within_reach(chain, (fabrik.MAX_TARGET_GAP, 0.0, 0.0), 1e300)

    def test_outer_edge_decided_on_one_float(self):
        # within_reach and the straight chain both read gap - reach, so
        # the chain lands within eps of every target the rule passes at
        # the outer edge and of none it refuses; 2.000001 lies 1.4e-16
        # past the edge of links 1 and 1 at eps 1e-6
        chain = two_link_chain()
        eps = 1e-6
        assert not fabrik.within_reach(chain, (2.000001, 0.0, 0.0), eps)
        passed = 0
        for direction in ((1.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.0, -0.6, 0.8)):
            gap = 2.0 + eps - 4 * math.ulp(2.0)  # four floats below the edge
            for _ in range(8):
                target = tuple(gap * u for u in direction)
                reach = fabrik.within_reach(chain, target, eps)
                out = solve(chain, np.array(target), eps, 50)
                assert out.iterations == 1 and out.converged == reach
                passed += reach
                gap = math.nextafter(gap, math.inf)
        assert 0 < passed < 24

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

    @pytest.mark.parametrize("lengths", [(2.0, 1.0), (1.0, 2.0)])
    def test_hole_edge_target_meets_the_folded_chain_in_one_sweep(self, lengths):
        # unequal links leave a hole of radius 1 about the base; a target
        # within eps of its edge, on either side, is met by the chain
        # folded back, its longer link toward the target, where 10,000
        # sweeps stopped 1e-4 short of 1.0000001
        eps = 1e-6
        chain = pre_bend(straight_chain(np.zeros(3), (1.0, 0.0, 0.0), lengths, (Hinge(Z), Hinge(Z))))
        elbow = 2.0 if lengths[0] > lengths[1] else -1.0
        for gap in (1.0000001, 0.9999995, 1.0 + 0.99 * eps, 1.0 - 0.99 * eps):
            for u in ((1.0, 0.0, 0.0), (0.0, 0.6, -0.8)):
                target = np.multiply(gap, u)
                assert fabrik.within_reach(chain, target, eps)
                out = solve(chain, target, eps, 10_000)
                assert out.converged and out.iterations == 1 and out.trace == ((1, out.dist),)
                assert out.dist == math.dist(out.chain.end, target) <= eps
                assert np.allclose(out.chain.positions, [np.zeros(3), np.multiply(elbow, u), u],
                                   rtol=0.0, atol=1e-15)
        # beyond the band the sweeps run; an elbow that cannot fold never folds
        assert solve(chain, np.array([1.0 + 3 * eps, 0.0, 0.0]), eps, 10_000).iterations > 1
        stiff = straight_chain(np.zeros(3), (1.0, 0.0, 0.0), lengths, (Hinge(Z), Hinge(Z, -3.0, 3.0)))
        assert not solve(pre_bend(stiff), np.array([1.0000001, 0.0, 0.0]), eps, 50).converged


def _bits(rows) -> list:
    return [c.hex() for row in rows for c in row]


class TestFusedSweep:
    """`solve` steps a two-link chain that cannot clamp with `_fused_sweep`:
    its chain, dist, sweep count and trace are those of a loop of
    `backward_phase(forward_phase(...))`, bit for bit, on seeded chains
    with and without an anchor, targets inside the shell, at its edges
    and past them, and starts with coincident points."""

    @staticmethod
    def phases(chain, target, eps, cap):
        """`solve`'s sweep loop run as whole phases: its chain, dist and trace."""
        tx, ty, tz = target = tuple(map(float, target))
        q, trace = chain, []
        while len(trace) < cap:
            q = backward_phase(forward_phase(q, target))
            x, y, z = q.end
            dx, dy, dz = x - tx, y - ty, z - tz
            trace.append((len(trace) + 1, math.sqrt(dx * dx + dy * dy + dz * dz)))
            if trace[-1][1] <= eps:
                break
        return q, trace[-1][1], tuple(trace)

    def check(self, chain, target, eps=1e-9, cap=40):
        out = solve(chain, np.array(target), eps, cap)
        assert out.iterations >= 1  # solve swept
        want, dist, trace = self.phases(chain, target, eps, cap)
        assert _bits(out.chain.positions) == _bits(want.positions)
        assert out.dist.hex() == dist.hex() and out.trace == trace
        assert out.iterations == len(trace) and out.converged == (dist <= eps)

    @staticmethod
    def random_two_link(rng, anchor):
        lengths = rng.uniform(0.2, 1.5, 2)
        base = rng.normal(size=3)
        joints = tuple(Hinge(Z) if rng.integers(0, 2) else Hinge(rng.normal(size=3)) for _ in lengths)
        positions = base + np.cumsum([np.zeros(3), *(unit(rng.normal(size=3)) * l for l in lengths)], axis=0)
        return chain_state(positions, lengths, joints, base, unit(rng.normal(size=3)) if anchor else None)

    @pytest.mark.parametrize("anchor", [True, False], ids=["anchored", "free"])
    def test_solve_is_the_phases_bits(self, anchor):
        rng = np.random.default_rng(41 + anchor)
        for _ in range(150):
            chain = self.random_two_link(rng, anchor)
            assert not any(chain.can_clamp)
            hole = abs(chain.lengths[0] - chain.lengths[1])
            # inside the shell, at its edges (outside the fold band) and inside the hole
            gaps = (rng.uniform(hole, chain.reach), chain.reach * (1.0 - 1e-9), hole * (1.0 + 1e-6),
                    hole * (1.0 - 1e-6), hole * rng.uniform(0.0, 1.0))
            for gap in gaps:
                self.check(chain, chain.base + gap * unit(rng.normal(size=3)))

    def test_each_step_is_the_phases_bits(self):
        # past the reach solve lays the chain straight; the step itself
        # agrees with the phases there too, from any points
        rng = np.random.default_rng(43)
        for _ in range(300):
            chain = self.random_two_link(rng, rng.integers(0, 2))
            gap = rng.uniform(0.0, 3.0) * chain.reach
            target = tuple((chain.base + gap * unit(rng.normal(size=3))).tolist())
            step = fabrik._fused_sweep(chain.positions[1], target, chain.base, *chain.lengths)
            assert _bits(step) == _bits(backward_phase(forward_phase(chain, target)).positions)

    @pytest.mark.parametrize("anchor", [None, (0.0, 0.6, 0.8)], ids=["free", "anchored"])
    @pytest.mark.parametrize("elbow", [-1.0, 3.0], ids=["second", "third"])
    def test_coincident_points_take_the_phases(self, anchor, elbow):
        # links 1 and 1, target (1, 0, 0): from an elbow at (-1, 0, 0) the
        # forward phase puts it on the base, the sweep's second distance 0;
        # from (3, 0, 0) the backward phase puts it on the target, its third
        chain = chain_state([(0.0, 0.0, 0.0), (elbow, 0.0, 0.0), (0.3, 0.2, 0.1)], (1.0, 1.0),
                            (Hinge(Z), Hinge(Z)), (0.0, 0.0, 0.0), anchor)
        target = (1.0, 0.0, 0.0)
        assert fabrik._fused_sweep(chain.positions[1], target, chain.base, 1.0, 1.0) is None
        self.check(chain, target)
        rng = np.random.default_rng(44)
        for _ in range(100):
            # the first distance is 0: the start's elbow sits on the target
            chain = self.random_two_link(rng, rng.integers(0, 2))
            target = chain.positions[1]
            assert fabrik._fused_sweep(target, target, chain.base, *chain.lengths) is None
            self.check(chain, target)


class TestChainFormat:
    """Every chain the package builds is made of hinges and holds its
    points as a tuple of (x, y, z) Python floats, its base, anchor and
    hinge axes as float 3-tuples and its lengths as a float tuple; a
    moved chain carries the reach and can-clamp flags its builder set,
    the same objects."""

    @staticmethod
    def assert_format(chain, built):
        assert type(chain.positions) is tuple
        assert all(type(joint) is Hinge for joint in chain.joints)
        axes = [joint.axis for joint in chain.joints]
        anchor = [] if chain.anchor_dir is None else [chain.anchor_dir]
        for row in (*chain.positions, chain.base, *axes, *anchor):
            assert type(row) is tuple and len(row) == 3
            assert all(type(x) is float for x in row)
        assert type(chain.lengths) is tuple and all(type(x) is float for x in chain.lengths)
        assert chain.reach is built.reach and chain.can_clamp is built.can_clamp

    def test_every_built_chain_holds_float_rows(self, ur5_model, kuka_model):
        frame = ur5.planar_frame(0.3, np.eye(4)[:3].tolist(), np.zeros(3), ur5_model)
        built = [
            two_link_chain(),
            straight_chain(np.zeros(3), np.array([0.0, 2.0, 0.0]), np.array([1.0, 0.5]),
                           (Hinge(Z), Hinge(Z, -2.0, 2.0)), anchor_dir=np.array([0.0, 2.0, 0.0])),
            ur5.make_chain(frame, ur5_model),
            kuka.make_chain(kuka_model),
            kuka.plane_chain(robots.kuka_model(np.column_stack([-KUKA_DATASHEET, KUKA_DATASHEET])),
                             (0.3, 0.4, 0.5)),
        ]
        for chain in built:
            assert type(chain.reach) is float
            self.assert_format(chain, chain)
            bent = pre_bend(chain)
            # along the bent chain's own chord, so hinge chains keep their plane
            chord = np.subtract(bent.end, chain.base)
            inside = chain.base + 0.8 * chord
            fwd = forward_phase(bent, inside)
            outcomes = {
                "converged": solve(bent, inside, 1e-6, 500),
                "capped": solve(bent, inside, 1e-6, 1),
                "stretched": solve(bent, chain.base + 3.0 * chord, 1e-6, 50),
                "at the target": solve(bent, np.array(bent.end), 1e-6, 50),
            }
            assert outcomes["converged"].converged
            assert not outcomes["capped"].converged and outcomes["capped"].iterations == 1
            assert not outcomes["stretched"].converged and outcomes["stretched"].iterations == 1
            assert outcomes["at the target"].iterations == 0
            for moved in (bent, fwd, backward_phase(fwd), *(o.chain for o in outcomes.values())):
                self.assert_format(moved, chain)


class TestPhaseProperties:
    """Randomized sweeps: length preservation, anchoring, limit respect."""

    def random_chain(self, rng, planar=True):
        """Scattered chain; planar chains share one hinge axis and have
        their links perpendicular to it, which is the geometry the solvers
        build and the regime where the clamp corrections are exact. The
        others turn each joint about its own axis, within its own limits."""
        m = int(rng.integers(3, 6))
        lengths = rng.uniform(0.2, 1.5, m - 1)
        base = rng.normal(size=3)
        if planar:
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
            return chain_state(positions, lengths, joints, base, anchor_dir=u)
        joints = tuple(Hinge(rng.normal(size=3), rng.uniform(-math.pi, -0.5), rng.uniform(0.5, math.pi))
                       for _ in range(m - 1))
        direction = unit(rng.normal(size=3))
        chain = straight_chain(base, direction, lengths, joints, anchor_dir=direction)
        scattered = np.asarray(chain.positions) + rng.normal(scale=0.2, size=(m, 3))
        scattered[0] = base
        return chain_state(scattered, lengths, joints, base, anchor_dir=direction)

    def _target(self, rng, chain, planar=True):
        # keep planar chains' targets in their working plane
        offset = rng.normal(size=3) * 0.8
        if planar:
            axis = np.array(chain.joints[0].axis)
            offset = offset - float(np.dot(offset, axis)) * axis
        return chain.base + offset

    def test_lengths_and_anchors_over_random_phases(self):
        rng = np.random.default_rng(11)
        for trial in range(2000):
            planar = bool(trial % 2)
            chain = self.random_chain(rng, planar)
            target = self._target(rng, chain, planar)
            fwd = forward_phase(chain, target)
            assert np.array_equal(fwd.positions[-1], target)
            assert np.max(np.abs(np.linalg.norm(np.diff(fwd.positions, axis=0), axis=1) - chain.lengths)) <= 1e-9
            bwd = backward_phase(fwd)
            assert np.array_equal(bwd.positions[0], chain.base)
            assert np.max(np.abs(np.linalg.norm(np.diff(bwd.positions, axis=0), axis=1) - chain.lengths)) <= 1e-9

    def test_hinge_limits_respected_after_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            chain = self.random_chain(rng)
            target = self._target(rng, chain)
            out = backward_phase(forward_phase(chain, target))
            dirs = out.link_directions()
            joints = out.joints
            # base joint versus the anchor, then the interior joints
            angles = [signed_angle(out.anchor_dir, dirs[0], joints[0].axis)]
            for j in range(1, len(dirs)):
                angles.append(signed_angle(dirs[j - 1], dirs[j], joints[j].axis))
            for angle, joint in zip(angles, joints):
                assert joint.lo - 1e-6 <= angle <= joint.hi + 1e-6


# --- exact-arithmetic oracles -----------------------------------------------
# Each float path is checked against the same formula evaluated on its
# float inputs in exact rational arithmetic (square roots to 2**-300),
# within a stated error bound: a few units of roundoff U of the
# magnitudes involved.

def random_chain(rng):
    """A chain of 2 to 6 links at scattered points: hinges about scattered
    axes with narrow limits, symmetric limits or none, anchored and free
    bases."""
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
            bend = rng.uniform(0.1, 1.5)
            joints.append(Hinge(rng.normal(size=3), -bend, bend))
        else:
            joints.append(Hinge(rng.normal(size=3)))
    anchor = unit(rng.normal(size=3)) if rng.integers(0, 2) else None
    steps = np.array([unit(rng.normal(size=3)) * length for length in lengths])
    positions = base + np.concatenate([np.zeros((1, 3)), np.cumsum(steps, axis=0)])
    return chain_state(positions, lengths, joints, base, anchor)


def exact_distance(a, b) -> Fraction:
    return exact_sqrt(sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a, b)))


def check_phase(chain, positions, start, tip_first, q):
    """Each point a reach phase placed, against the exact step from the
    float pivot it was placed from: the old point pulled onto its link
    (or, for a point on its pivot, the link extended straight past the
    previous one, the anchor or its old link), to 16 U of the pivot's
    magnitude plus the link. A joint that clamped turned the point, so
    there only the link's length is checked, to the same bound.
    Returns the number of clamped points."""
    m = len(positions)
    step, first = (-1, m - 1) if tip_first else (1, 0)
    assert q[first] == tuple(start)
    clamped = 0
    for i in range(first + step, first + m * step, step):
        p = i - step
        length = chain.lengths[min(i, p)]
        bound = 16 * U * (max(map(abs, q[p])) + length)
        v = [Fraction(a) - Fraction(b) for a, b in zip(positions[i], q[p])]
        if exact_distance(positions[i], q[p]) < Fraction(1e-12):
            if p != first:
                back = exact_unit([Fraction(a) - Fraction(b) for a, b in zip(q[p], q[p - step])])
            elif not tip_first and chain.anchor_dir is not None:
                back = [Fraction(c) for c in chain.anchor_dir]
            else:
                back = exact_unit([Fraction(a) - Fraction(b) for a, b in zip(positions[i], positions[p])])
            want = [Fraction(x) + Fraction(length) * b for x, b in zip(q[p], back)]
            assert within(q[i], want, bound), (i, q[i])
            continue
        d = exact_sqrt(sum(c * c for c in v))
        want = [Fraction(x) + Fraction(length) * c / d for x, c in zip(q[p], v)]
        if not within(q[i], want, bound):
            assert chain.can_clamp[p], (i, q[i])
            assert abs(exact_distance(q[i], q[p]) - Fraction(length)) <= Fraction(bound)
            clamped += 1
    return clamped


class TestReachAgainstExactArithmetic:
    """`forward_phase` and `backward_phase` point by point against the
    exact reach step (`check_phase`), and `solve` as its phases, on
    seeded chains of 2 to 6 links. The seeded benchmark solves only
    3-point chains; the `trace` command takes any."""

    def test_phases_on_random_chains(self):
        rng = np.random.default_rng(21)
        clamped = 0
        for _ in range(400):
            chain = random_chain(rng)
            target = chain.base + rng.normal(size=3) * chain.reach / 2.0
            fwd = forward_phase(chain, target)
            clamped += check_phase(chain, chain.positions, target, True, fwd.positions)
            bwd = backward_phase(fwd)
            clamped += check_phase(fwd, fwd.positions, chain.base, False, bwd.positions)
        assert clamped > 100  # the clamp path ran

    def test_coincident_points(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            chain = random_chain(rng)
            # the tip pass pins the tip onto the point before it; the base
            # pass meets a point that the pass itself placed on its pivot
            placed = backward_phase(chain).positions
            bent = chain.moved((*chain.positions[:2], placed[1], *chain.positions[3:]))
            tip = chain.positions[-2]
            check_phase(chain, chain.positions, tip, True, forward_phase(chain, tip).positions)
            check_phase(bent, bent.positions, chain.base, False, backward_phase(bent).positions)

    def test_solve_on_random_chains(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            chain = random_chain(rng)
            target = chain.base + unit(rng.normal(size=3)) * rng.uniform(0.1, 0.9) * chain.reach
            out = solve(chain, target, 1e-6, 30)
            q = chain
            for n, dist in out.trace:
                q = backward_phase(forward_phase(q, target))
                want = exact_distance(q.end, target)
                assert abs(Fraction(dist) - want) <= 4 * U * want
            assert out.chain.positions == q.positions
            dists = [dist for _, dist in out.trace]
            assert [n for n, _ in out.trace] == list(range(1, out.iterations + 1))
            assert out.iterations >= 1 and all(dist > 1e-6 for dist in dists[:-1])
            assert out.dist == dists[-1] and out.converged == (out.dist <= 1e-6)
            assert out.converged or out.iterations == 30


def _signed_zero_vectors(rng, count):
    """Normal 3-vectors with about a fifth of their components 0.0 and a
    fifth -0.0; a vector that draws all zeros gets a -1.0."""
    v = rng.normal(size=(count, 3))
    pick = rng.random(size=(count, 3))
    v[pick < 0.2] = 0.0
    v[(pick >= 0.2) & (pick < 0.4)] = -0.0
    v[~v.any(axis=1), 0] = -1.0
    return v


class TestFloatPathsAgainstExactArithmetic:
    """`_lay_out` (and so `straight_chain` and `relaid`), `pre_bend`
    and `rotate_about_axis` against their formulas in exact arithmetic,
    on seeded draws with negative, 0.0 and -0.0 components."""

    def test_lay_out(self):
        rng = np.random.default_rng(31)
        for base, direction in zip(_signed_zero_vectors(rng, 1500), _signed_zero_vectors(rng, 1500)):
            base = base * 10.0 ** rng.uniform(-3, 3)
            lengths = rng.uniform(0.01, 2.0, int(rng.integers(1, 7))) * 10.0 ** rng.uniform(-3, 3)
            direction = geometry.unit(direction)
            got = fabrik._lay_out(tuple(base.tolist()), direction, lengths.tolist())
            # the running sums err by up to n U of the reach
            bound = 8 * U * (lengths.size + 2) * (max(map(abs, base)) + math.fsum(lengths))
            reach = Fraction(0)
            for k, point in enumerate(got):
                want = [Fraction(b) + reach * Fraction(d) for b, d in zip(base.tolist(), direction)]
                assert within(point, want, bound), (k, point)
                reach += Fraction(lengths[k]) if k < lengths.size else 0

    def test_pre_bend(self):
        rng = np.random.default_rng(33)
        for base, direction, axis in zip(*(_signed_zero_vectors(rng, 800) for _ in range(3))):
            lengths = rng.uniform(0.2, 1.5, int(rng.integers(2, 7)))
            joints = (Hinge(axis),) * lengths.size
            chain = straight_chain(base, direction, lengths, joints, anchor_dir=direction)
            # straight, or folded: each later link along or against the first
            senses = np.where(rng.integers(0, 2, lengths.size), 1.0, -1.0)
            senses[0] = 1.0
            chain = chain.moved(fabrik._lay_out(chain.base, chain.anchor_dir, (senses * lengths).tolist()))
            given = axis * rng.uniform(0.5, 2.0) if rng.integers(0, 2) else None
            bent = pre_bend(chain, axis=given).positions
            # the bend axis: the given one normalized, else the
            # perpendicular of the first link, whatever the hinges' axis
            first = exact_unit([Fraction(b) - Fraction(a) for a, b in zip(*chain.positions[:2])])
            if given is not None:
                used = [float(c) for c in exact_unit(given)]
            else:
                used = perpendicular_axis(chain.link_directions()[0])
            assert bent[:2] == chain.positions[:2]
            for k in range(1, lengths.size):
                turned = exact_rotate(used, k * fabrik.PRE_BEND, [float(c) for c in first])
                want = [Fraction(x) + Fraction(senses[k] * lengths[k]) * t for x, t in zip(bent[k], turned)]
                bound = 32 * U * (max(map(abs, bent[k])) + lengths[k])
                assert within(bent[k + 1], want, bound), (k, bent[k + 1])

    def test_rotate_about_axis(self):
        rng = np.random.default_rng(34)
        vectors = _signed_zero_vectors(rng, 3000) * 10.0 ** rng.uniform(-9, 3, size=(3000, 1))
        axes = [geometry.unit(a) for a in _signed_zero_vectors(rng, 3000)]
        thetas = np.concatenate([[0.0, -0.0, math.pi, -math.pi], rng.uniform(-4.0, 4.0, 2996)])
        for axis, theta, v in zip(axes, thetas.tolist(), vectors.tolist()):
            bound = 16 * U * max(map(abs, v))
            assert within(rotate_about_axis(axis, theta, v), exact_rotate(axis, theta, v), bound)


class TestNoScratchEscapes:
    """The sweeps measure every distance on a scratch 3-vector that they
    rewrite in place; none reaches a result, and no solve sees another's."""

    @staticmethod
    def chains_and_targets(rng, count):
        out = []
        for _ in range(count):
            chain = random_chain(rng)
            targets = [chain.base + unit(rng.normal(size=3)) * rng.uniform(0.1, 0.9) * chain.reach
                       for _ in range(4)]
            out.append((chain, targets))
        return out

    def test_results_own_their_memory(self):
        # a chain's points are a tuple of float tuples, which share no
        # buffer by type: no result can alias another's
        rng = np.random.default_rng(51)
        for chain, (t1, t2, *_) in self.chains_and_targets(rng, 50):
            a, b = solve(chain, t1, 1e-6, 30), solve(chain, t2, 1e-6, 30)
            assert a.iterations and b.iterations
            f1, f2 = forward_phase(chain, t1), forward_phase(chain, t2)
            b1, b2 = backward_phase(f1), backward_phase(f2)
            for out in (a.chain, b.chain, f1, f2, b1, b2):
                assert type(out.positions) is tuple
                assert all(type(row) is tuple for row in out.positions)

    def test_interleaved_solves_match_solves_in_turn(self):
        rng = np.random.default_rng(52)
        pairs = [self.chains_and_targets(rng, 2) for _ in range(30)]

        def record(outcome):
            return (np.array(outcome.chain.positions).tobytes(), np.array(outcome.dist).tobytes(),
                    outcome.iterations, outcome.trace)

        for (a, targets_a), (b, targets_b) in pairs:
            in_turn = [record(solve(a, t, 1e-6, 30)) for t in targets_a]
            in_turn += [record(solve(b, t, 1e-6, 30)) for t in targets_b]
            interleaved = [record(solve(chain, t, 1e-6, 30))
                           for ta, tb in zip(targets_a, targets_b) for chain, t in ((a, ta), (b, tb))]
            assert interleaved[0::2] + interleaved[1::2] == in_turn
