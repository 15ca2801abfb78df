import math

import numpy as np
import pytest

from fabrik_sqp import fabrik
from fabrik_sqp.fabrik import (
    Ball,
    ChainState,
    Hinge,
    backward_phase,
    ball_joint_axis,
    clamp_correction,
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


class TestClampCorrection:
    def test_inside(self):
        assert clamp_correction(0.5, (-1.0, 1.0)) == 0.0

    def test_above(self):
        assert clamp_correction(1.5, (-1.0, 1.0)) == -0.5

    def test_below(self):
        assert clamp_correction(-2.0, (-1.0, 1.0)) == 1.0

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            clamp_correction(0.0, (1.0, -1.0))


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
        dphi = clamp_correction(phi, (lo, hi))
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


class TestStraightChain:
    """straight_chain is the one place a chain is validated."""

    X = np.array([1.0, 0.0, 0.0])

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
        dphi = clamp_correction(phi, (lo, hi))  # = hi - pi/2
        v = rotate_about_axis(Z, dphi, positions[1] - np.zeros(3))
        q1 = np.zeros(3) + v / np.linalg.norm(v)
        assert np.allclose(out.positions[1], q1, atol=1e-12)
        got = signed_angle(unit(out.positions[1] - out.positions[0]), unit(out.positions[1] - out.positions[0]), Z)
        # base angle after the sweep obeys the limit
        base_angle = signed_angle(np.array([1.0, 0.0, 0.0]), unit(out.positions[1]), Z)
        assert base_angle == pytest.approx(hi, abs=1e-9)


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
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected_before_the_first_sweep(self, bad, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept toward a non-finite target")

        monkeypatch.setattr(fabrik, "forward_phase", no_sweep)
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

    def test_unreachable_returns_without_iterating(self):
        chain = two_link_chain()
        out = solve(chain, np.array([3.0, 0.0, 0.0]), 1e-6, 50)
        assert out.unreachable
        assert not out.converged
        assert out.iterations == 0

    def test_slight_bend_target_needs_many_sweeps(self):
        # near-full-extension target barely off the chain's own line:
        # the long plateau regime; far more sweeps than the combined
        # switch index
        chain = pre_bend(two_link_chain())
        target = np.array([1.99, 0.001, 0.0])
        out = solve(chain, target, 1e-6, 20000, record_trace=True)
        assert out.converged
        assert out.iterations > 15
        assert len(out.trace) == out.iterations
        dists = np.array([d for _, d in out.trace])
        assert np.all(np.isfinite(dists))

    def test_trace_length_matches_iterations(self):
        chain = pre_bend(two_link_chain())
        out = solve(chain, np.array([0.6, 1.1, 0.0]), 1e-6, 500, record_trace=True)
        assert out.converged
        assert len(out.trace) == out.iterations
        assert all(d > 0.0 for _, d in out.trace[:-1])

    def test_deterministic(self):
        chain = pre_bend(two_link_chain())
        target = np.array([0.3, 1.4, 0.0])
        a = solve(chain, target, 1e-6, 500, record_trace=True)
        b = solve(chain, target, 1e-6, 500, record_trace=True)
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
