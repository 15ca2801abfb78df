import math
from fractions import Fraction

import numpy as np
import pytest

from fabrik_sqp.geometry import (
    ROTATION_EXACT_TOL,
    ROTATION_REPAIR_TOL,
    cartesian_error,
    check_rotation,
    clamped_arccos,
    cross,
    dot,
    make_transform,
    norm,
    perpendicular_axis,
    polar_rotation,
    require_transform,
    rotate_about_axis,
    rotation_defect,
    signed_angle,
    wrap_angle,
)
from fabrik_sqp.iktypes import IKQuery

from conftest import U, exact_sqrt, within
from conftest import unit_array as unit

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


# --- quaternion oracle (independent of the library's Rodrigues path) ---

def quat_from_axis_angle(axis, theta):
    axis = np.asarray(axis, float) / np.linalg.norm(axis)
    half = 0.5 * theta
    return np.concatenate(([math.cos(half)], math.sin(half) * axis))


def quat_rotate(q, v):
    w, x, y, z = q
    qv = np.array([x, y, z])
    return v + 2.0 * np.cross(qv, np.cross(qv, v) + w * v)


def quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def rotation_matrix_to_quat(r):
    w = 0.5 * math.sqrt(max(0.0, 1.0 + r[0, 0] + r[1, 1] + r[2, 2]))
    if w > 1e-8:
        x = (r[2, 1] - r[1, 2]) / (4 * w)
        y = (r[0, 2] - r[2, 0]) / (4 * w)
        z = (r[1, 0] - r[0, 1]) / (4 * w)
        return np.array([w, x, y, z])
    # fall back for near-pi rotations
    k = int(np.argmax(np.diag(r)))
    i, j = (k + 1) % 3, (k + 2) % 3
    s = math.sqrt(max(0.0, 1.0 + r[k, k] - r[i, i] - r[j, j]))
    q = np.zeros(4)
    q[k + 1] = 0.5 * s
    q[0] = (r[j, i] - r[i, j]) / (2 * s)
    q[i + 1] = (r[i, k] + r[k, i]) / (2 * s)
    q[j + 1] = (r[j, k] + r[k, j]) / (2 * s)
    return q


class TestRotateAboutAxis:
    def test_quarter_turn_about_z(self):
        assert np.allclose(rotate_about_axis(Z, math.pi / 2, X), Y, atol=1e-12)

    def test_zero_angle_is_identity(self):
        v = np.array([0.3, -0.2, 0.9])
        assert np.array_equal(rotate_about_axis(unit(np.array([2.0, 1.0, -1.0])), 0.0, v), v)

    def test_body_diagonal_three_cycle(self):
        # 2pi/3 about (1,1,1)/sqrt(3) permutes the basis axes
        axis = unit(np.array([1.0, 1.0, 1.0]))
        got = rotate_about_axis(axis, 2 * math.pi / 3, X)
        assert np.allclose(got, Y, atol=1e-12)
        # cross-check against the quaternion oracle
        q = quat_from_axis_angle(axis, 2 * math.pi / 3)
        assert np.allclose(got, quat_rotate(q, X), atol=1e-12)

    def test_matches_quaternion_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            axis = unit(rng.normal(size=3))
            theta = rng.uniform(-2 * math.pi, 2 * math.pi)
            v = rng.normal(size=3) * rng.uniform(0.1, 5.0)
            got = rotate_about_axis(axis, theta, v)
            want = quat_rotate(quat_from_axis_angle(axis, theta), v)
            assert np.allclose(got, want, atol=1e-10)

    def test_norm_preservation(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            axis = unit(rng.normal(size=3))
            theta = rng.uniform(-math.pi, math.pi)
            v = rng.normal(size=3)
            got = rotate_about_axis(axis, theta, v)
            assert abs(np.linalg.norm(got) - np.linalg.norm(v)) <= 1e-12

    def test_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            axis = unit(rng.normal(size=3))
            a, b = rng.uniform(-math.pi, math.pi, 2)
            v = rng.normal(size=3)
            once = rotate_about_axis(axis, a, rotate_about_axis(axis, b, v))
            combined = rotate_about_axis(axis, a + b, v)
            assert np.allclose(once, combined, atol=1e-10)


class TestSignedAngle:
    def test_right_angles(self):
        assert signed_angle(X, Y, Z) == pytest.approx(math.pi / 2, abs=1e-15)
        assert signed_angle(X, Y, -Z) == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_coincident_vectors(self):
        a = unit(np.array([0.3, 0.4, -0.2]))
        assert signed_angle(a, a, Z) == 0.0

    def test_matches_clamped_arccos_form(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = unit(rng.normal(size=3))
            b = unit(rng.normal(size=3))
            ref = unit(rng.normal(size=3))
            got = signed_angle(a, b, ref)
            want = clamped_arccos(float(np.dot(a, b)))
            if float(np.dot(ref, np.cross(a, b))) < 0:
                want = -want
            assert got == pytest.approx(want, abs=1e-9)

    def test_positive_scaling_leaves_the_angle_unchanged(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = unit(rng.normal(size=3))
            b = unit(rng.normal(size=3))
            ref = unit(rng.normal(size=3))
            want = signed_angle(a, b, ref)
            for k in (1e-6, 0.5, 3.0, 1e6):
                assert signed_angle(k * a, b, ref) == pytest.approx(want, abs=1e-12)
                assert signed_angle(a, k * b, ref) == pytest.approx(want, abs=1e-12)
                assert signed_angle(a, b, k * ref) == want


class TestWrapAngle:
    def test_principal_interval(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(-3 * math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(0.5) == 0.5
        arr = wrap_angle(np.array([2 * math.pi, -2 * math.pi, math.pi / 4]))
        assert np.allclose(arr, [0.0, 0.0, math.pi / 4])

    def test_range(self):
        rng = np.random.default_rng(5)
        vals = wrap_angle(rng.uniform(-50, 50, 1000))
        assert np.all(vals >= -math.pi) and np.all(vals < math.pi)

    def test_just_below_minus_pi_wraps_to_plus_pi(self):
        # the range is closed: the remainder of the tiny negative sum
        # -pi - 4e-16 + pi rounds up to 2*pi, on either path
        below = -math.pi - 4e-16
        assert below < -math.pi
        assert wrap_angle(below) == math.pi
        assert wrap_angle(np.array([below])).tolist() == [math.pi]
        assert wrap_angle(-math.pi) == -math.pi

    def test_float_path_matches_array_path_bit_for_bit(self):
        rng = np.random.default_rng(23)
        edges = [math.pi, -math.pi, 0.0, -0.0, 1e300, -1e300]
        edges += [k * 2.0 * math.pi for k in (-3, -2, -1, 1, 2, 3)]
        values = np.concatenate([rng.uniform(-50.0, 50.0, 100_000), rng.uniform(-1e6, 1e6, 100_000), edges])
        floats = [wrap_angle(v) for v in values.tolist()]
        assert all(type(v) is float for v in floats)
        assert np.array(floats).tobytes() == wrap_angle(values).tobytes()
        # numpy scalars and ints take the float's value
        scalars = [wrap_angle(v) for v in values[:1_000]] + [wrap_angle(k) for k in range(-9, 10)]
        assert all(type(v) is float for v in scalars)
        assert scalars == floats[:1_000] + [wrap_angle(float(k)) for k in range(-9, 10)]


class TestCartesianError:
    def test_identical_poses(self):
        t = make_transform(np.eye(3), [0.1, 0.2, 0.3])
        err = cartesian_error(t, t)
        assert err.eps_pos == 0.0
        assert err.eps_rot <= 1e-12

    def test_antipodal_rotation(self):
        r = rotate_matrix = np.array([[-1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0]])
        err = cartesian_error(make_transform(np.eye(3), [0, 0, 0]), make_transform(r, [0, 0, 0]))
        assert err.eps_pos == 0.0
        assert err.eps_rot == pytest.approx(math.pi, abs=1e-12)

    def test_matches_quaternion_angle_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            r1 = polar_rotation(rng.normal(size=(3, 3)))
            r2 = polar_rotation(rng.normal(size=(3, 3)))
            p1, p2 = rng.normal(size=3), rng.normal(size=3)
            err = cartesian_error(make_transform(r1, p1), make_transform(r2, p2))
            q1 = rotation_matrix_to_quat(r1)
            q2 = rotation_matrix_to_quat(r2)
            # the relative rotation's angle in atan2 form; 2 arccos|q1.q2|
            # loses precision where its argument nears 1
            rel = quat_mul(q1 * [1.0, -1.0, -1.0, -1.0], q2)
            want = 2.0 * math.atan2(float(np.linalg.norm(rel[1:])), abs(float(rel[0])))
            assert err.eps_rot == pytest.approx(want, abs=1e-10)
            assert err.eps_pos == pytest.approx(float(np.linalg.norm(p1 - p2)), abs=1e-12)

    def test_rotation_error_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t1 = make_transform(polar_rotation(rng.normal(size=(3, 3))), rng.normal(size=3))
            t2 = make_transform(polar_rotation(rng.normal(size=(3, 3))), rng.normal(size=3))
            assert cartesian_error(t1, t2).eps_rot == pytest.approx(
                cartesian_error(t2, t1).eps_rot, abs=1e-12
            )


def _kept_rotation(r):
    """The rotation an IKQuery keeps of a pose whose rotation block is r:
    r itself if its defect is at most ROTATION_EXACT_TOL, else its
    `polar_rotation`, once `check_rotation` accepts it."""
    return IKQuery(make_transform(r, np.zeros(3)), np.zeros(6)).t_des[:3, :3]


class TestRotationHygiene:
    def test_polar_projection_restores_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            r = polar_rotation(rng.normal(size=(3, 3)))
            noisy = r + rng.uniform(-2e-4, 2e-4, size=(3, 3))  # print-rounding scale
            assert rotation_defect(noisy) <= 1e-3
            fixed = _kept_rotation(noisy)
            assert fixed.tobytes() == polar_rotation(noisy).tobytes()
            assert rotation_defect(fixed) <= 1e-12
            assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)

    def test_exact_rotation_untouched(self):
        r = np.column_stack([rotate_about_axis(Z, 0.4, e) for e in np.eye(3)])
        assert rotation_defect(r) <= ROTATION_EXACT_TOL
        assert _kept_rotation(r).tobytes() == r.tobytes()

    def test_garbage_rejected(self):
        for scale in (1.5, -1.5):  # a far reflection keeps the defect message
            with pytest.raises(ValueError, match="too far from orthonormal"):
                _kept_rotation(np.eye(3) * scale)

    def test_reflections_rejected(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mirror = polar_rotation(rng.normal(size=(3, 3)))
            mirror[:, 0] = -mirror[:, 0]
            noisy = mirror + rng.uniform(-1e-6, 1e-6, size=(3, 3))
            assert rotation_defect(mirror) <= 1e-9 < rotation_defect(noisy) <= 1e-3
            for r in (mirror, noisy):
                with pytest.raises(ValueError, match="reflection"):
                    _kept_rotation(r)


def _np_defect(r):
    """`rotation_defect` as it was written on numpy arrays."""
    return float(np.max(np.abs(r.T @ r - np.eye(3))))


class TestRotationDefectOnFloats:
    """`rotation_defect` forms R^T R - I on Python floats; it only decides
    against the two tolerances, so it must fall on the same side of each
    as numpy's R^T R - I, and a non-finite entry must never pass."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", range(9))
    def test_non_finite_entry_rejected(self, entry, value):
        for r in (np.eye(3), polar_rotation(np.random.default_rng(entry).normal(size=(3, 3)))):
            r = r.copy()
            r.flat[entry] = value
            assert not rotation_defect(r) <= ROTATION_REPAIR_TOL
            with pytest.raises(ValueError, match="too far from orthonormal"):
                check_rotation(r.tolist())
            # an IKQuery refuses the pose before it measures the rotation
            with pytest.raises(ValueError, match="transform entries must be finite"):
                _kept_rotation(r)

    @pytest.mark.parametrize("entry", range(9))
    def test_nan_entry_gives_nan(self, entry):
        r = np.eye(3)
        r.flat[entry] = math.nan
        assert math.isnan(rotation_defect(r))

    @staticmethod
    def _scaled_to(r, noise, target):
        """r + s * noise with numpy's defect nearest `target` from bisection on s."""
        lo, hi = 0.0, 1.0
        while _np_defect(r + hi * noise) < target:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _np_defect(r + mid * noise) < target else (lo, mid)
        return r + hi * noise

    @pytest.mark.parametrize(
        "tol, margin", [(ROTATION_EXACT_TOL, 1e-14), (ROTATION_REPAIR_TOL, 1e-13)], ids=["exact", "repair"]
    )
    def test_same_side_of_each_tolerance_as_numpy(self, tol, margin):
        # the two sums differ by a few ulps of the unit entries, so the
        # draws straddle each tolerance at least `margin` away from it
        rng = np.random.default_rng(41)
        sides = set()
        for _ in range(300):
            r = polar_rotation(rng.normal(size=(3, 3)))
            noise = rng.uniform(-1.0, 1.0, size=(3, 3)) * 1e-6
            offset = margin * 10.0 ** rng.uniform(0.0, 4.0) * (1.0 if rng.integers(0, 2) else -1.0)
            for m in (r, self._scaled_to(r, noise, tol + offset)):
                want = _np_defect(m)
                got = rotation_defect(m)
                assert abs(got - want) <= 8 * 2.0 ** -52
                if abs(want - tol) >= margin:
                    assert (got <= tol) == (want <= tol)
                    sides.add(want <= tol)
        assert sides == {True, False}


@pytest.mark.parametrize(
    "t", [np.eye(3), np.eye(4)[:3], np.zeros(16), np.eye(5)], ids=["3x3", "3x4", "flat", "5x5"]
)
def test_require_transform_rejects_non_4x4(t):
    with pytest.raises(ValueError, match="transform must be a 4x4 matrix"):
        require_transform(t)


def test_perpendicular_axis_is_unit_and_orthogonal():
    rng = np.random.default_rng(10)
    for _ in range(100):
        d = unit(rng.normal(size=3))
        p = perpendicular_axis(d)
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-12
        assert abs(np.dot(p, d)) <= 1e-12


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _bit_test_vectors() -> list:
    """10,000 seeded 3-vectors, magnitudes 1e-9 to 1e3 (whole vectors and
    single components), columns of 4x4 transforms as strided views, and
    every vector with components from {+-0.0, +-1.0, 3e-9}."""
    rng = np.random.default_rng(11)
    scaled = rng.normal(size=(4000, 3)) * 10.0 ** rng.uniform(-9, 3, size=(4000, 1))
    mixed = rng.normal(size=(4000, 3)) * 10.0 ** rng.uniform(-9, 3, size=(4000, 3))
    transforms = rng.normal(size=(500, 4, 4)) * 10.0 ** rng.uniform(-9, 3, size=(500, 1, 1))
    columns = [t[:3, k] for t in transforms for k in range(4)]
    levels = (0.0, -0.0, 1.0, -1.0, 3e-9)
    special = [np.array([a, b, c]) for a in levels for b in levels for c in levels]
    return [*scaled, *mixed, *columns, *special]


class TestNumpyBits:
    """`cross` rounds each entry as np.cross does, one product each and
    their difference (no BLAS call in either), signed zeros included."""

    def test_cross_is_numpy_cross(self):
        vectors = _bit_test_vectors()
        rng = np.random.default_rng(12)
        partners = [vectors[i] for i in rng.permutation(len(vectors))]
        for a, b in zip(vectors, partners):
            assert _bits(cross(a, b)) == _bits(np.cross(a, b)), (a, b)

    def test_cross_signed_zeros_and_axes(self):
        levels = (0.0, -0.0, 1.0, -1.0)
        vectors = [np.array([a, b, c]) for a in levels for b in levels for c in levels]
        for a in vectors:
            for b in vectors:
                assert _bits(cross(a, b)) == _bits(np.cross(a, b)), (a, b)


class TestAgainstExactArithmetic:
    """The float helpers of the solve path against their formulas in exact
    rational arithmetic (square roots to 2**-300), within a few units of
    roundoff U of the magnitudes involved."""

    def test_norm(self):
        vectors = _bit_test_vectors()
        assert len(vectors) > 10_000
        for v in vectors:
            want = exact_sqrt(sum(Fraction(c) ** 2 for c in v.tolist()))
            assert abs(Fraction(norm(v)) - want) <= 3 * U * want, v

    def test_dot(self):
        vectors = _bit_test_vectors()
        rng = np.random.default_rng(14)
        partners = [vectors[i] for i in rng.permutation(len(vectors))]
        for a, b in zip(vectors, partners):
            terms = [Fraction(x) * Fraction(y) for x, y in zip(a.tolist(), b.tolist())]
            bound = 3 * U * sum(map(abs, terms))
            assert abs(Fraction(dot(a, b)) - sum(terms)) <= bound, (a, b)

    def test_cartesian_error(self):
        rng = np.random.default_rng(16)
        for k in range(300):
            ra = polar_rotation(rng.normal(size=(3, 3)))
            # near-equal rotations too, where the angle is small
            rb = ra if k % 3 else polar_rotation(rng.normal(size=(3, 3)))
            rb = polar_rotation(rb + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-12, 0))
            pa, pb = rng.normal(size=3), rng.normal(size=3)
            err = cartesian_error(make_transform(ra, pa), make_transform(rb, pb))
            a = [[Fraction(x) for x in row] for row in ra.tolist()]
            b = [[Fraction(x) for x in row] for row in rb.tolist()]
            m = [[sum(a[k][i] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
            cos_term = (m[0][0] + m[1][1] + m[2][2] - 1) / 2
            sin_term = exact_sqrt((m[2][1] - m[1][2]) ** 2 + (m[0][2] - m[2][0]) ** 2
                                  + (m[1][0] - m[0][1]) ** 2) / 2
            # sin_term^2 + cos_term^2 is 1 up to the rotations' own defect,
            # so rounding the terms by a few U moves the angle by a few U
            assert abs(err.eps_rot - math.atan2(sin_term, cos_term)) <= 32 * U
            want_pos = exact_sqrt(sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(pa, pb)))
            assert abs(Fraction(err.eps_pos) - want_pos) <= 4 * U * want_pos
