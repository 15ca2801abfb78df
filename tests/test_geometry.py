import math
from fractions import Fraction

import numpy as np
import pytest

from fabrik_sqp.geometry import (
    cartesian_error,
    clamped_arccos,
    cross,
    inverse_transform,
    make_transform,
    norm,
    perpendicular_axis,
    polar_rotation,
    require_transform,
    rotate_about_axis,
    rotation_defect,
    sanitize_rotation,
    signed_angle,
    unit,
    wrap_angle,
)

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


class TestRotationHygiene:
    def test_polar_projection_restores_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            r = polar_rotation(rng.normal(size=(3, 3)))
            noisy = r + rng.uniform(-2e-4, 2e-4, size=(3, 3))  # print-rounding scale
            assert rotation_defect(noisy) <= 1e-3
            fixed = sanitize_rotation(noisy)
            assert rotation_defect(fixed) <= 1e-12
            assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)

    def test_exact_rotation_untouched(self):
        r = np.column_stack([rotate_about_axis(Z, 0.4, e) for e in np.eye(3)])
        assert sanitize_rotation(r) is r

    def test_garbage_rejected(self):
        for scale in (1.5, -1.5):  # a far reflection keeps the defect message
            with pytest.raises(ValueError, match="too far from orthonormal"):
                sanitize_rotation(np.eye(3) * scale)

    def test_reflections_rejected(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mirror = polar_rotation(rng.normal(size=(3, 3)))
            mirror[:, 0] = -mirror[:, 0]
            noisy = mirror + rng.uniform(-1e-6, 1e-6, size=(3, 3))
            assert rotation_defect(mirror) <= 1e-9 < rotation_defect(noisy) <= 1e-3
            for r in (mirror, noisy):
                with pytest.raises(ValueError, match="reflection"):
                    sanitize_rotation(r)


def test_inverse_transform_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = make_transform(polar_rotation(rng.normal(size=(3, 3))), rng.normal(size=3))
        assert np.allclose(inverse_transform(t) @ t, np.eye(4), atol=1e-12)


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
    """`cross` and `norm` replace np.cross and np.linalg.norm on the solve
    path; every seeded record depends on their bits, so they are compared
    bit for bit, signed zeros included."""

    def test_norm_is_numpy_norm(self):
        vectors = _bit_test_vectors()
        assert len(vectors) > 10_000
        assert any(not v.flags.c_contiguous for v in vectors)
        for v in vectors:
            assert _bits(norm(v)) == _bits(np.linalg.norm(v)), v

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


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c computed exactly and rounded once."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def test_blas_dot_rounds_as_an_fma_chain():
    """The pinned seed-7 counters hold where a 3-vector `ndarray.dot`
    rounds as fma(z, w, fma(y, v, x * u)), as numpy's bundled OpenBLAS
    does on FMA hardware. A BLAS that sums the products in another way
    fails here, by name, before the counter pins move."""
    rng = np.random.default_rng(13)
    pairs = rng.normal(size=(2000, 2, 3))
    chain_misses = plain_misses = 0
    for a, b in pairs:
        x, y, z = map(float, a)
        u, v, w = map(float, b)
        got = a.dot(b)
        chain_misses += got != _fma(z, w, _fma(y, v, x * u))
        plain_misses += got != x * u + y * v + z * w
    assert plain_misses > 0  # the chain is distinguishable from a plain sum
    assert chain_misses == 0


def test_matvec_rounds_as_column_dots():
    """The optimizer's gradient 2 J^T (p - target) is `jac.T.dot(diff)`,
    which rounds as `jac.T @ diff` (the test below). For the UR5's
    C-ordered 3x2 jacobian the pinned seed-7 counters hold where that
    product rounds as one `ndarray.dot` per contiguous column, the form
    whose rounding the fma test above pins."""
    rng = np.random.default_rng(17)
    draws = rng.normal(size=(4000, 3, 3))
    misses = plain_misses = 0
    for c0, c1, diff in draws:
        jac = np.array([c0, c1]).T.copy()  # C-ordered 3x2
        assert jac.flags.c_contiguous and jac.shape == (3, 2)
        got = 2.0 * (jac.T @ diff)
        misses += not np.array_equal(got, 2.0 * np.array([diff.dot(c0), diff.dot(c1)]))
        plain = [sum(d * c for d, c in zip(diff.tolist(), col.tolist())) for col in (c0, c1)]
        plain_misses += not np.array_equal(got, 2.0 * np.array(plain))
    assert plain_misses > 0  # the column dots are distinguishable from plain sums
    assert misses == 0


def test_dot_matches_matmul_at_solve_sites():
    """Each operand layout the solve path multiplies with `ndarray.dot`
    gives `@`'s bits: both reach the same BLAS routine. The exception is
    `inverse_transform`'s `-R.T @ p`, whose p is a strided column of a
    4x4: there `@` runs numpy's own loop, so it keeps `@`. That loop
    differs from BLAS under the FMA kernels (SkylakeX, Haswell) and
    agrees with the Sandybridge and Nehalem ones, where the last
    assertion fails."""
    rng = np.random.default_rng(19)

    def transform():
        t = np.eye(4)
        t[:3] = rng.normal(size=(3, 4))
        return t

    def same(a, b):
        return _bits(a) == _bits(b)

    strided_misses = 0
    for _ in range(2000):
        t1, t2 = transform(), transform()
        assert same(t1.dot(t2), t1 @ t2)  # fk_frames' accumulation
        assert same(t1[:3, :3].T.dot(t2[:3, :3]), t1[:3, :3].T @ t2[:3, :3])  # rotation errors
        diff = rng.normal(size=3)
        for n in (2, 4):  # the UR5 and KUKA jacobians
            jac = rng.normal(size=(3, n))
            assert same(jac.T.dot(diff), jac.T @ diff)
            h, v, g = rng.normal(size=(n, n)), rng.normal(size=(n, n)), rng.normal(size=n)
            assert same(h.dot(g), h @ g)
            assert same(v.dot(h).dot(v.T), v @ h @ v.T)
        p3h = np.append(rng.normal(size=3), 1.0)
        assert same(inverse_transform(t1).dot(p3h), inverse_transform(t1) @ p3h)
        r, p = t1[:3, :3], t1[:3, 3]
        strided_misses += not same(r.T.dot(p), r.T @ p)
    assert strided_misses > 0
