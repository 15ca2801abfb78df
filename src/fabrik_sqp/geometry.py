"""Shared geometric primitives.

Conventions: vectors are plain (3,) float ndarrays, rotations are 3x3
row-major matrices, rigid transforms are 4x4 homogeneous matrices with
bottom row (0, 0, 0, 1). All angles are radians.
The per-joint helpers trust values validated where they were built
(`unit`, `fabrik.Hinge`) and check nothing per call.

Rounding rule: the solve path works on short vectors and small
matrices, where numpy's per-call dispatch costs more than the
arithmetic, so elementwise work leaves numpy for Python floats, which
round each operation alike: `cross`, the entries of
`rotate_about_axis`, the KUKA wrist jacobian, the FABRIK sweeps
(`fabrik._reach` and the loop of `fabrik.solve`), the chain lay-out
(`fabrik._lay_out`, whose running sum is `np.cumsum`'s) and the bent
links of `fabrik.pre_bend` (a chain holds its points as float rows
from lay-out to recovery: a BLAS dot reads only their differences,
each written into a scratch vector or built by `np.subtract`), and the
optimizer loop, whose sums are `math.fsum`s (correctly rounded in every
Python version) and which makes no BLAS call. So do the link norms of
`ChainState.link_directions` and `iktypes.l1_distance`, which orders
the pick and the KUKA seeds, sums numpy adds left to right, and the
float path of `wrap_angle`, whose `%` rounds as numpy's remainder.
`rotation_defect` forms the entries of R^T R - I on floats too, their
dots included: it only decides against ROTATION_EXACT_TOL and
ROTATION_REPAIR_TOL, so its last bits need not be BLAS's. Every other
dot product stays on BLAS: the kernel may round a short dot as a chain
of fused multiply-adds, which a Python sum does not reproduce, and
every seeded solve keeps its bits only that way. The dot products
of the sweep loop are the 3-vector `ndarray.dot`s of the reach step's
`v.dot(v)` and the sweep's end-to-target distance; both write their
offset into one scratch 3-vector per phase (per solve in
`fabrik.solve`) before each dot, the same operand in the same memory
layout as a fresh array.

Outside that loop the dots of `norm`, `signed_angle` and
`rotate_about_axis`, `cartesian_error`'s `r_temp.T.dot(r_des)`, the 4x4
products of `robots.fk_frames`, which accumulates with `ndarray.dot`,
and those of `inverse_transform` stay on BLAS too.

A product whose operands each have a unit stride along one axis
(C-ordered arrays, their transposes, `[:3, :3]` blocks of a 4x4) is
written `ndarray.dot`: it reaches the same BLAS routine as `@`, with
less dispatch, so it keeps `@`'s bits. `inverse_transform` keeps
`-R.T @ p`: its `p` is a strided column of a 4x4, for which `@` runs
numpy's own loop and `.dot` calls BLAS, whose bits differ under the
FMA kernels (`tests/test_geometry.py::test_dot_matches_matmul_at_solve_sites`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
ROTATION_EXACT_TOL = 1e-9  # orthonormality defect passed through untouched
ROTATION_REPAIR_TOL = 1e-3  # largest defect projected back onto SO(3)


def wrap_angle(theta):
    """Reduce an angle to [-pi, pi): an ndarray elementwise, any other
    value as a Python float, whose `%` rounds as numpy's remainder."""
    if isinstance(theta, np.ndarray):
        return (theta + np.pi) % TWO_PI - np.pi
    return (float(theta) + math.pi) % TWO_PI - math.pi


def dedup_angles(values) -> list[float]:
    """The values in order, dropping any within 1e-9 of an earlier one."""
    out: list[float] = []
    for v in values:
        if all(abs(v - u) > 1e-9 for u in out):
            out.append(v)
    return out


def clamped_arccos(x: float) -> float:
    """arccos with the argument clamped to [-1, 1] against fp drift."""
    return math.acos(min(1.0, max(-1.0, float(x))))


def cross(a, b) -> np.ndarray:
    """np.cross of two 3-vector ndarrays, bit for bit, without its dispatch."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def norm(v) -> float:
    """np.linalg.norm of a 1-D ndarray, bit for bit: the same dot of the
    same contiguous copy, without its dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if not 1e-12 <= n < math.inf:
        raise ValueError("cannot normalize a near-zero or non-finite vector")
    return v / n


def perpendicular_axis(d) -> np.ndarray:
    """Deterministic unit vector orthogonal to d.

    Crosses d with whichever basis vector is least parallel to it, so the
    result is always well conditioned.
    """
    d = np.asarray(d, dtype=float)
    k = int(np.argmin(np.abs(d)))
    e = np.zeros(3)
    e[k] = 1.0
    return unit(cross(d, e))


def rotate_about_axis(axis, theta: float, v) -> np.ndarray:
    """Rotate v by theta around a unit axis (Rodrigues form): a `Hinge`'s,
    or the normalized one of `fabrik.ball_joint_axis` or `fabrik.pre_bend`."""
    c = math.cos(theta)
    s = math.sin(theta)
    k = axis.dot(v) * (1.0 - c)
    ax, ay, az = axis.tolist()
    vx, vy, vz = v.tolist()
    # v * c + cross(axis, v) * s + axis * k, entry by entry
    return np.array((
        vx * c + (ay * vz - az * vy) * s + ax * k,
        vy * c + (az * vx - ax * vz) * s + ay * k,
        vz * c + (ax * vy - ay * vx) * s + az * k,
    ))


def signed_angle(a, b, ref_axis) -> float:
    """Angle from a to b in [-pi, pi], signed by the ref_axis orientation.

    Sign is +1 when <ref_axis, a x b> >= 0, else -1. The magnitude is
    atan2(|a x b|, <a, b>): full precision for nearly parallel and nearly
    opposite vectors, and independent of the lengths, so a and b may be
    any non-zero vectors.
    """
    c = cross(a, b)
    ang = math.atan2(norm(c), a.dot(b))
    if ref_axis.dot(c) >= 0.0:
        return ang
    return -ang


# --- rigid transforms -------------------------------------------------------

def make_transform(rotation, translation) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = np.asarray(rotation, dtype=float)
    T[:3, 3] = np.asarray(translation, dtype=float)
    return T


def rotation_of(T) -> np.ndarray:
    return np.asarray(T, dtype=float)[:3, :3]


def translation_of(T) -> np.ndarray:
    return np.asarray(T, dtype=float)[:3, 3]


def inverse_transform(T) -> np.ndarray:
    R = rotation_of(T)
    p = translation_of(T)
    return make_transform(R.T, -R.T @ p)


def rotation_defect(R) -> float:
    """Max absolute entry of R^T R - I (entrywise orthonormality defect),
    on Python floats; NaN when any entry is NaN."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(R, dtype=float).tolist()
    # entry (j, k) is column j dot column k; the products commute, so the
    # six entries on and above the diagonal give all nine
    defects = [abs(x) for x in (
        r00 * r00 + r10 * r10 + r20 * r20 - 1.0,
        r01 * r01 + r11 * r11 + r21 * r21 - 1.0,
        r02 * r02 + r12 * r12 + r22 * r22 - 1.0,
        r00 * r01 + r10 * r11 + r20 * r21,
        r00 * r02 + r10 * r12 + r20 * r22,
        r01 * r02 + r11 * r12 + r21 * r22,
    )]
    # `max` alone could pass a NaN over: it keeps whichever side of a
    # NaN comparison comes first
    return math.nan if any(map(math.isnan, defects)) else max(defects)


def polar_rotation(R) -> np.ndarray:
    """Nearest rotation matrix to R (polar projection via SVD)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    D = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(U @ Vt)))])
    return U @ D @ Vt


def sanitize_rotation(R) -> np.ndarray:
    """Accept, repair, or reject a nearly-orthonormal matrix.

    Defects up to ROTATION_EXACT_TOL pass through untouched; defects up
    to ROTATION_REPAIR_TOL are projected back onto SO(3); anything worse
    is rejected, and so is a reflection (determinant <= 0), which no
    small repair turns into the rotation that was meant.
    """
    R = np.asarray(R, dtype=float)
    defect = rotation_defect(R)
    if not defect <= ROTATION_REPAIR_TOL:
        raise ValueError(f"matrix is too far from orthonormal (defect {defect:.3e})")
    if R[0].dot(cross(R[1], R[2])) <= 0.0:
        raise ValueError("matrix is a reflection (determinant <= 0), not a rotation")
    return R if defect <= ROTATION_EXACT_TOL else polar_rotation(R)


def require_transform(T) -> np.ndarray:
    """T as a float 4x4 of finite entries, its bottom row (0, 0, 0, 1) to 1e-9 absolute."""
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4):
        raise ValueError("transform must be a 4x4 matrix")
    if not all(abs(a - b) <= 1e-9 for a, b in zip(T[3].tolist(), (0.0, 0.0, 0.0, 1.0))):
        raise ValueError("transform bottom row must be (0, 0, 0, 1)")
    if not all(map(math.isfinite, T[:3].ravel().tolist())):
        raise ValueError("transform entries must be finite")
    return T


@dataclass(frozen=True)
class CartesianError:
    """Position (m) and rotation (rad) error between two poses."""

    eps_pos: float
    eps_rot: float

    @property
    def total(self) -> float:
        # Mixed-unit sum used as the candidate acceptance metric.
        return self.eps_pos + self.eps_rot


def cartesian_error(t_temp, t_des) -> CartesianError:
    """Geodesic rotation angle plus Euclidean position distance.

    The angle is arccos((tr(R_temp^-1 R_des) - 1) / 2) with the argument
    clamped, evaluated in atan2 form: the plain arccos loses half the
    machine precision near zero (and pi), which would put a ~1e-8 floor
    under the rotation error of exactly matching poses.
    """
    r_temp = rotation_of(t_temp)
    r_des = rotation_of(t_des)
    m = r_temp.T.dot(r_des)
    cos_term = (float(np.trace(m)) - 1.0) / 2.0
    sin_term = 0.5 * math.sqrt(
        (m[2, 1] - m[1, 2]) ** 2 + (m[0, 2] - m[2, 0]) ** 2 + (m[1, 0] - m[0, 1]) ** 2
    )
    eps_rot = math.atan2(sin_term, cos_term)
    eps_pos = norm(translation_of(t_temp) - translation_of(t_des))
    return CartesianError(eps_pos=eps_pos, eps_rot=eps_rot)
