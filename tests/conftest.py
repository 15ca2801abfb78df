import math
from fractions import Fraction

import numpy as np
import pytest

from fabrik_sqp import fabrik, geometry, kuka, robots
from fabrik_sqp.geometry import make_transform, polar_rotation

# Reference IK pair for the UR5: a desired pose and the joint vector
# known to reach it. Both carry 3-decimal rounding; the homogeneous
# bottom row was corrected and the rotation block is re-orthonormalized
# before use.
UR5_REF_ROTATION = np.array(
    [
        [-0.770, 0.618, 0.156],
        [-0.638, -0.740, -0.214],
        [-0.017, -0.265, 0.964],
    ]
)
UR5_REF_POSITION = np.array([-0.296, -0.869, 0.288])
UR5_REF_THETA = np.array([1.103, -0.107, -0.114, -1.226, 1.333, -1.995])

# Same for the KUKA. The printed elbow bend is also recorded: the
# 3-decimal position rounds the wrist target ~1.2e-4 m outside the
# 0.82 m reach, so the fixture restores the wrist radius implied by the
# printed elbow angle (see golden_kuka_pose).
KUKA_REF_ROTATION = np.array(
    [
        [0.537, 0.838, 0.094],
        [-0.654, 0.344, 0.674],
        [0.532, -0.423, 0.733],
    ]
)
KUKA_REF_POSITION = np.array([0.618, -0.463, 0.382])
KUKA_REF_THETA = np.array([-0.745, 1.655, -1.686, -0.019, 1.003, -2.025, -0.505])
KUKA_REF_ELBOW_BEND = 0.019


U = 2.0 ** -53  # unit roundoff of a float

# the KUKA LBR iiwa 14 datasheet limits, +-these per joint (rad)
KUKA_DATASHEET = np.radians([170, 120, 170, 120, 170, 120, 175])


def exact_sqrt(x: Fraction) -> Fraction:
    """The square root of a non-negative rational, within 2**-300."""
    return Fraction(math.isqrt((x.numerator << 600) // x.denominator), 1 << 300)


def exact_unit(v) -> list:
    """The unit vector along v, its entries taken as exact rationals."""
    v = [Fraction(c) for c in v]
    n = exact_sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def exact_rotate(axis, theta: float, v) -> list:
    """Rodrigues' v c + (axis x v) s + axis (axis . v)(1 - c) in exact
    arithmetic on the floats axis, v, c = cos(theta) and s = sin(theta)."""
    (ax, ay, az), (vx, vy, vz) = ([Fraction(c) for c in w] for w in (axis, v))
    c, s = Fraction(math.cos(theta)), Fraction(math.sin(theta))
    k = (ax * vx + ay * vy + az * vz) * (1 - c)
    return [vx * c + (ay * vz - az * vy) * s + ax * k,
            vy * c + (az * vx - ax * vz) * s + ay * k,
            vz * c + (ax * vy - ay * vx) * s + az * k]


def exact_frame(model, theta) -> list:
    """The link matrices of `robots.dh_transform` for theta multiplied left
    to right in exact arithmetic: 4 rows of 4 rationals."""
    product = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for row, th in zip(model.dh, theta):
        link = [[Fraction(x) for x in r] for r in robots.dh_transform(row, th).tolist()]
        product = [[sum(a[k] * link[k][j] for k in range(4)) for j in range(4)] for a in product]
    return product


def within(got, want, bound) -> bool:
    """Every float of got within bound of the exact rational it stands for."""
    return all(abs(Fraction(g) - w) <= Fraction(bound) for g, w in zip(got, want, strict=True))


def outcome_bits(result) -> tuple:
    """Status, pick and error of a result, to the bit."""
    theta = None if result.theta is None else result.theta.tobytes()
    error = None if result.error is None else (result.error.eps_pos, result.error.eps_rot)
    return result.status, theta, error


def kuka_on_axis_queries(model, n: int, seed: int) -> list:
    """n KUKA queries (t_des, theta_init, h), seeded, whose wrist centre
    lies on the base axis (to rounding) at height h above the shoulder:
    up or down, at any reachable distance, and last the two edge cases up
    the axis, the elbow's straight-arm height l2 and 1e-7 m short of full
    extension. theta3 = 0, theta2 tilts the upper arm so the forearm
    brings the wrist back onto the axis, and the other joints and
    theta_init are drawn within the limits. `tools/same_records.py`
    solves the same set."""
    _, l2, l3 = model.arm_lengths
    rng = np.random.default_rng(seed)
    lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
    heights = [*(rng.uniform(abs(l2 - l3), l2 + l3, n - 2) * rng.choice([-1.0, 1.0], n - 2)),
               l2, l2 + l3 - 1e-7]
    queries = []
    for h in heights:
        c4 = (h * h - l2 * l2 - l3 * l3) / (2.0 * l2 * l3)
        th4 = math.acos(min(1.0, max(-1.0, c4))) * rng.choice([-1.0, 1.0])
        # the wrist in the (upper arm, frame-2 x) plane is (a, b); turn it onto +-z
        a, b = l2 + l3 * math.cos(th4), l3 * math.sin(th4)
        th2 = math.atan2(-b, a) if h > 0.0 else math.atan2(b, -a)
        theta = rng.uniform(lo, hi)
        theta[1:4] = th2, 0.0, th4
        queries.append((robots.forward_kinematics(model, theta), rng.uniform(lo, hi), h))
    return queries


def unit_array(v) -> np.ndarray:
    """`geometry.unit` as an ndarray, for test arithmetic."""
    return np.array(geometry.unit(v))


def rows(points) -> tuple:
    """Points as a chain holds them: a tuple of (x, y, z) float rows."""
    return tuple(map(tuple, np.asarray(points, dtype=float).tolist()))


def chain_state(positions, lengths, joints, base, anchor_dir=None) -> fabrik.ChainState:
    """A chain at arbitrary points, in the format and with the constants
    that `fabrik`'s builders give a laid-out chain."""
    lengths = np.asarray(lengths, dtype=float)
    joints = tuple(joints)
    return fabrik.ChainState(
        rows(positions),
        tuple(lengths.tolist()),
        joints,
        tuple(np.asarray(base, dtype=float).tolist()),
        math.fsum(lengths),
        tuple(not joint.unconstrained for joint in joints),
        None if anchor_dir is None else tuple(np.asarray(anchor_dir, dtype=float).tolist()),
    )


@pytest.fixture(scope="session")
def ur5_model():
    return robots.ur5_model()


@pytest.fixture(scope="session")
def kuka_model():
    return robots.kuka_model()


@pytest.fixture(scope="session")
def golden_ur5_pose():
    return make_transform(polar_rotation(UR5_REF_ROTATION), UR5_REF_POSITION)


@pytest.fixture(scope="session")
def golden_kuka_pose_raw():
    """The printed pose as-is (wrist target just beyond reach)."""
    return make_transform(polar_rotation(KUKA_REF_ROTATION), KUKA_REF_POSITION)


@pytest.fixture(scope="session")
def golden_kuka_pose(golden_kuka_pose_raw, kuka_model):
    """Printed pose with the wrist radius print-rounding undone.

    The end-effector is pulled toward the shoulder along the wrist ray
    until the wrist sits at the radius implied by the printed elbow
    bend (|theta4| = 0.019, ~40 um inside the reach sphere).
    """
    model = kuka_model
    t = golden_kuka_pose_raw.copy()
    l2, l3 = model.link_lengths[1], model.link_lengths[2]
    r_ref = np.sqrt(l2 * l2 + l3 * l3 + 2 * l2 * l3 * np.cos(KUKA_REF_ELBOW_BEND))
    shoulder = np.array([0.0, 0.0, model.link_lengths[0]])
    d = kuka.wrist_target(t[:3].tolist(), model) - shoulder
    shift = (float(np.linalg.norm(d)) - r_ref) * d / float(np.linalg.norm(d))
    t[:3, 3] = t[:3, 3] - shift
    return t
