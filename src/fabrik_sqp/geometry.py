"""Shared geometric primitives.

Conventions: on the solve path a vector is a 3-tuple of Python floats
and a rigid transform is held as its top three rows, three 4-tuples of
floats (the bottom row is (0, 0, 0, 1)). Poses at the API edge are 4x4
float ndarrays whose bottom row is (0, 0, 0, 1). All angles are radians.
The per-joint helpers trust values validated where they were built
(`unit`, `fabrik.Hinge`) and check nothing per call; they take any
3-sequences.

Rounding: the solve path runs on Python floats, which round every
operation alike on every machine, so no record depends on the BLAS
kernel numpy loads. numpy only copies poses at the API edge (they are
checked on their floats) and makes the SVD repair of `polar_rotation`;
no float is summed with the builtin `sum`, whose rounding changed in
Python 3.12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
ROTATION_EXACT_TOL = 1e-9  # orthonormality defect passed through untouched
ROTATION_REPAIR_TOL = 1e-3  # largest defect projected back onto SO(3)


def wrap_angle(theta):
    """Reduce an angle to [-pi, pi]: an ndarray elementwise, any other
    value as a Python float, whose `%` rounds as numpy's remainder. The
    range is closed: just below -pi, the remainder of a tiny negative
    sum rounds up to 2*pi, so `wrap_angle(-math.pi - 4e-16)` is +pi. A
    float, the solve path's case, is tested for first."""
    if type(theta) is not float:
        if isinstance(theta, np.ndarray):
            return (theta + np.pi) % TWO_PI - np.pi
        theta = float(theta)
    return (theta + math.pi) % TWO_PI - math.pi


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


def dot(a, b) -> float:
    (ax, ay, az), (bx, by, bz) = a, b
    return ax * bx + ay * by + az * bz


def cross(a, b) -> tuple:
    (ax, ay, az), (bx, by, bz) = a, b
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def sub(a, b) -> tuple:
    """a - b."""
    (ax, ay, az), (bx, by, bz) = a, b
    return (ax - bx, ay - by, az - bz)


def norm(v) -> float:
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def unit(v) -> tuple:
    """v normalized, as floats; ValueError for a near-zero or non-finite v."""
    x, y, z = map(float, v)
    n = math.sqrt(x * x + y * y + z * z)
    if not 1e-12 <= n < math.inf:
        raise ValueError("cannot normalize a near-zero or non-finite vector")
    return (x / n, y / n, z / n)


def perpendicular_axis(d) -> tuple:
    """Deterministic unit vector orthogonal to d.

    Crosses d with whichever basis vector is least parallel to it (the
    first of equals), so the result is always well conditioned.
    """
    mags = [abs(c) for c in d]
    e = [0.0, 0.0, 0.0]
    e[mags.index(min(mags))] = 1.0
    return unit(cross(d, e))


def rotate_about_axis(axis, theta: float, v) -> tuple:
    """Rotate v by theta around a unit axis (Rodrigues form): a `Hinge`'s,
    or the normalized one of `fabrik.pre_bend`."""
    c = math.cos(theta)
    s = math.sin(theta)
    (ax, ay, az), (vx, vy, vz) = axis, v
    k = (ax * vx + ay * vy + az * vz) * (1.0 - c)
    # v * c + cross(axis, v) * s + axis * k, entry by entry
    return (
        vx * c + (ay * vz - az * vy) * s + ax * k,
        vy * c + (az * vx - ax * vz) * s + ay * k,
        vz * c + (ax * vy - ay * vx) * s + az * k,
    )


def signed_angle(a, b, ref_axis) -> float:
    """Angle from a to b in [-pi, pi], signed by the ref_axis orientation.

    Sign is +1 when <ref_axis, a x b> >= 0, else -1. The magnitude is
    atan2(|a x b|, <a, b>): full precision for nearly parallel and nearly
    opposite vectors, and independent of the lengths, so a and b may be
    any non-zero vectors.
    """
    c = cross(a, b)
    ang = math.atan2(norm(c), dot(a, b))
    if dot(ref_axis, c) >= 0.0:
        return ang
    return -ang


# --- rigid transforms -------------------------------------------------------

def make_transform(rotation, translation) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = np.asarray(rotation, dtype=float)
    T[:3, 3] = np.asarray(translation, dtype=float)
    return T


def rotation_defect(R) -> float:
    """Max absolute entry of R^T R - I (entrywise orthonormality defect)
    of three rows of three floats, or of a 3x3 array-like read as floats;
    NaN when any entry is NaN."""
    rows = R if type(R) is list else np.asarray(R, dtype=float).tolist()
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
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


def check_rotation(R) -> float:
    """The defect of R, three rows of three floats, unless it is above
    ROTATION_REPAIR_TOL or R is a reflection (determinant <= 0), which no
    small repair turns into the rotation that was meant: ValueError."""
    defect = rotation_defect(R)
    if not defect <= ROTATION_REPAIR_TOL:
        raise ValueError(f"matrix is too far from orthonormal (defect {defect:.3e})")
    if dot(R[0], cross(R[1], R[2])) <= 0.0:
        raise ValueError("matrix is a reflection (determinant <= 0), not a rotation")
    return defect


def require_transform(T) -> list:
    """The rows of T, four lists of 4 floats, once T is a float 4x4 of
    finite entries, its bottom row (0, 0, 0, 1) to 1e-9 absolute."""
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4):
        raise ValueError("transform must be a 4x4 matrix")
    rows = T.tolist()
    b0, b1, b2, b3 = rows[3]
    if not (abs(b0) <= 1e-9 and abs(b1) <= 1e-9 and abs(b2) <= 1e-9 and abs(b3 - 1.0) <= 1e-9):
        raise ValueError("transform bottom row must be (0, 0, 0, 1)")
    if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
        raise ValueError("transform entries must be finite")
    return rows


@dataclass(frozen=True, slots=True)
class CartesianError:
    """Position (m) and rotation (rad) error between two poses."""

    eps_pos: float
    eps_rot: float

    @property
    def total(self) -> float:
        # Mixed-unit sum used as the candidate acceptance metric.
        return self.eps_pos + self.eps_rot


def cartesian_error(t_temp, t_des) -> CartesianError:
    """Geodesic rotation angle plus Euclidean position distance between
    two 4x4 poses (see `frame_error`)."""
    return frame_error(*(np.asarray(t, dtype=float)[:3].tolist() for t in (t_temp, t_des)))


def frame_error(a, b) -> CartesianError:
    """The error between two frames, each held as its top three rows.

    The angle is arccos((tr(R_a^T R_b) - 1) / 2) with the argument
    clamped, evaluated in atan2 form: the plain arccos loses half the
    machine precision near zero (and pi), which would put a ~1e-8 floor
    under the rotation error of exactly matching poses.
    """
    (a00, a01, a02, ax), (a10, a11, a12, ay), (a20, a21, a22, az) = a
    (b00, b01, b02, bx), (b10, b11, b12, by), (b20, b21, b22, bz) = b
    # m = R_a^T R_b: m[i][j] is column i of R_a dot column j of R_b
    m00 = a00 * b00 + a10 * b10 + a20 * b20
    m01 = a00 * b01 + a10 * b11 + a20 * b21
    m02 = a00 * b02 + a10 * b12 + a20 * b22
    m10 = a01 * b00 + a11 * b10 + a21 * b20
    m11 = a01 * b01 + a11 * b11 + a21 * b21
    m12 = a01 * b02 + a11 * b12 + a21 * b22
    m20 = a02 * b00 + a12 * b10 + a22 * b20
    m21 = a02 * b01 + a12 * b11 + a22 * b21
    m22 = a02 * b02 + a12 * b12 + a22 * b22
    cos_term = (m00 + m11 + m22 - 1.0) / 2.0
    sin_term = 0.5 * norm((m21 - m12, m02 - m20, m10 - m01))
    eps_rot = math.atan2(sin_term, cos_term)
    eps_pos = norm((ax - bx, ay - by, az - bz))
    return CartesianError(eps_pos=eps_pos, eps_rot=eps_rot)
