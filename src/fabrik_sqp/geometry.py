"""Shared geometric primitives.

Conventions: vectors are plain (3,) float ndarrays, rotations are 3x3
row-major matrices, rigid transforms are 4x4 homogeneous matrices with
bottom row (0, 0, 0, 1). All angles are radians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Reduce an angle (scalar or array) to [-pi, pi)."""
    wrapped = (np.asarray(theta, dtype=float) + np.pi) % TWO_PI - np.pi
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


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


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if not 1e-12 <= n < math.inf:
        raise ValueError("cannot normalize a near-zero or non-finite vector")
    return v / n


def is_unit(v, tol: float = 1e-9) -> bool:
    return abs(float(np.linalg.norm(v)) - 1.0) <= tol


def perpendicular_axis(d) -> np.ndarray:
    """Deterministic unit vector orthogonal to d.

    Crosses d with whichever basis vector is least parallel to it, so the
    result is always well conditioned.
    """
    d = np.asarray(d, dtype=float)
    k = int(np.argmin(np.abs(d)))
    e = np.zeros(3)
    e[k] = 1.0
    return unit(np.cross(d, e))


def rotate_about_axis(axis, theta: float, v) -> np.ndarray:
    """Rotate v by theta around the unit axis (Rodrigues form)."""
    axis = np.asarray(axis, dtype=float)
    v = np.asarray(v, dtype=float)
    if abs(float(np.linalg.norm(axis)) - 1.0) > 1e-12:
        raise ValueError("rotation axis must be a unit vector")
    c = math.cos(theta)
    s = math.sin(theta)
    return v * c + np.cross(axis, v) * s + axis * (float(np.dot(axis, v)) * (1.0 - c))


def signed_angle(a, b, ref_axis) -> float:
    """Angle from a to b in [-pi, pi], signed by the ref_axis orientation.

    Sign is +1 when <ref_axis, a x b> >= 0, else -1. The magnitude is
    arccos(<a, b>) evaluated as atan2(|a x b|, <a, b>), which keeps full
    precision for nearly parallel and nearly opposite vectors.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ref_axis = np.asarray(ref_axis, dtype=float)
    for v in (a, b, ref_axis):
        if not is_unit(v):
            raise ValueError("signed_angle expects unit vectors")
    cross = np.cross(a, b)
    ang = math.atan2(float(np.linalg.norm(cross)), float(np.dot(a, b)))
    if float(np.dot(ref_axis, cross)) >= 0.0:
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
    """Max absolute entry of R^T R - I (entrywise orthonormality defect)."""
    R = np.asarray(R, dtype=float)
    return float(np.max(np.abs(R.T @ R - np.eye(3))))


def polar_rotation(R) -> np.ndarray:
    """Nearest rotation matrix to R (polar projection via SVD)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    D = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(U @ Vt)))])
    return U @ D @ Vt


def sanitize_rotation(R, exact_tol: float = 1e-9, repair_tol: float = 1e-3) -> np.ndarray:
    """Accept, repair, or reject a nearly-orthonormal matrix.

    Defects up to exact_tol pass through untouched; defects up to
    repair_tol are projected back onto SO(3); anything worse is rejected.
    """
    R = np.asarray(R, dtype=float)
    defect = rotation_defect(R)
    if defect <= exact_tol:
        return R
    if defect <= repair_tol:
        return polar_rotation(R)
    raise ValueError(f"matrix is too far from orthonormal (defect {defect:.3e})")


def require_transform(T) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4):
        raise ValueError("transform must be a 4x4 matrix")
    if not np.allclose(T[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9):
        raise ValueError("transform bottom row must be (0, 0, 0, 1)")
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
    m = r_temp.T @ r_des
    cos_term = (float(np.trace(m)) - 1.0) / 2.0
    sin_term = 0.5 * math.sqrt(
        (m[2, 1] - m[1, 2]) ** 2 + (m[0, 2] - m[2, 0]) ** 2 + (m[1, 0] - m[0, 1]) ** 2
    )
    eps_rot = math.atan2(sin_term, cos_term)
    eps_pos = float(np.linalg.norm(translation_of(t_temp) - translation_of(t_des)))
    return CartesianError(eps_pos=eps_pos, eps_rot=eps_rot)
