"""Query, configuration, and result types shared by the two solvers.

An IKQuery checks its pose in one pass over the pose's floats and keeps
the three rows the solve reads; `prepare_query` checks theta_init, as a
float tuple, against the model."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .fabrik import check_cap, check_tolerance
from .geometry import ROTATION_EXACT_TOL, CartesianError, check_rotation, polar_rotation
from .geometry import require_transform, wrap_angle
from .robots import KUKA, UR5, RobotModel, joint_vector

DEFAULT_EPS_TOL = 1e-6
DEFAULT_SWITCH_INDEX = {UR5: 5, KUKA: 15}
DEFAULT_FABRIK_ONLY_CAP = 900
SELECT_TIE_TOL = 1e-12  # L1 distances closer than this tie (radians)


class IKStatus(enum.Enum):
    SOLVED = "solved"
    UNREACHABLE = "unreachable"
    FAILED = "failed"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and switching parameters for the combined pipeline.

    eps_tol is a positive, finite real number (not a bool);
    use_optimizer is a bool. sweep_cap, an integer of at least 1 (not a bool), caps the FABRIK
    sweeps per branch: the switch index n_l after which the optimizer
    takes over, or the plain-FABRIK cap n_max when the optimizer is
    disabled (use_optimizer=False). None picks the default: the
    per-robot switch index (5 for the UR5, 15 for the KUKA), or 900
    sweeps without the optimizer. The re-bend of the optimizer's seed,
    the KUKA chain's initial direction and the optimizer's iteration cap
    are fixed in the modules that use them; the KUKA chain's shoulder is
    an unconstrained ball, and its elbow cone comes from the theta4
    limits.
    """

    eps_tol: float = DEFAULT_EPS_TOL
    use_optimizer: bool = True
    sweep_cap: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "eps_tol", check_tolerance(self.eps_tol, "eps_tol"))
        if not isinstance(self.use_optimizer, bool):
            raise ValueError("use_optimizer must be a bool")
        if self.sweep_cap is not None:
            object.__setattr__(self, "sweep_cap", check_cap(self.sweep_cap, "sweep_cap"))

    def fabrik_cap(self, robot_name: str) -> int:
        if self.sweep_cap is not None:
            return self.sweep_cap
        return DEFAULT_SWITCH_INDEX[robot_name] if self.use_optimizer else DEFAULT_FABRIK_ONLY_CAP


@dataclass(frozen=True)
class IKQuery:
    """Desired end-effector pose plus the reference joint vector, as read-only float copies,
    the rotation kept if `check_rotation` gives it a defect of at most ROTATION_EXACT_TOL,
    else replaced by its `polar_rotation`; `pose_rows`: the pose's top three rows."""

    t_des: np.ndarray
    theta_init: np.ndarray
    config: SolverConfig = field(default_factory=SolverConfig)
    pose_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.config, SolverConfig):
            raise ValueError("config must be a SolverConfig")
        if np.iscomplexobj(self.t_des) or np.iscomplexobj(self.theta_init):
            raise ValueError("t_des and theta_init must be real")
        t = np.array(self.t_des, dtype=float)
        rows = require_transform(t)[:3]
        if check_rotation([r[:3] for r in rows]) > ROTATION_EXACT_TOL:
            t[:3, :3] = polar_rotation(t[:3, :3])
            rows = t[:3].tolist()
        t.flags.writeable = False
        object.__setattr__(self, "t_des", t)
        object.__setattr__(self, "pose_rows", tuple(map(tuple, rows)))
        theta_init = np.array(self.theta_init, dtype=float)
        theta_init.flags.writeable = False
        object.__setattr__(self, "theta_init", theta_init)


@dataclass(frozen=True, slots=True)
class IKResult:
    status: IKStatus
    theta: np.ndarray | None
    error: CartesianError | None
    fabrik_iterations: int
    optimizer_used: bool
    optimizer_iterations: int
    solve_time: float


def check_joint_vector(model: RobotModel, theta, name: str) -> tuple:
    """theta as a float tuple; ValueError, naming it `name`, unless it has
    one finite entry per joint (`robots.joint_vector`) within the model's
    limits, to 1e-12."""
    values = tuple(joint_vector(model, theta, name))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    if not model.within_limits(values, tol=1e-12):
        raise ValueError(f"{name} must lie within the joint limits")
    return values


def prepare_query(model: RobotModel, query: IKQuery) -> tuple[tuple, tuple]:
    """The query as the solve reads it, once theta_init fits the model:
    the pose's top three rows (checked when the query was built) and
    theta_init, each as float tuples."""
    return query.pose_rows, check_joint_vector(model, query.theta_init, "theta_init")


def l1_distance(a, b) -> float:
    """sum |a_i - b_i| over equal-length float sequences, added left to right
    (the builtin `sum` compensates from Python 3.12 on, so it is not used)."""
    d = 0.0
    for x, y in zip(a, b, strict=True):
        d += abs(x - y)
    return d


def admitted(pairs, limits, reference) -> tuple[tuple, float | None]:
    """The angles of `pairs`, (joint index, raw angle) in index order,
    wrapped by `wrap_angle` to [-pi, pi], and their distance: the sum of
    |wrapped - reference[k]| in pair order, or None once a wrapped angle
    lies outside its (lo, hi) of `limits` (`RobotModel.within_limits`).
    Over a candidate that is the limit filter and `l1_distance`; over
    the joints a branch or group fixes, their first terms of that sum,
    which no candidate of theirs undercuts in floats either (rounding is
    monotone, and a non-negative term never lowers a float sum)."""
    wrapped = []
    d = 0.0
    for k, theta in pairs:
        t = wrap_angle(theta)
        wrapped.append(t)
        if d is not None:
            lo, hi = limits[k]
            d = d + abs(t - reference[k]) if lo <= t <= hi else None
    return tuple(wrapped), d


def select_candidate(distances) -> int | None:
    """Index of the pick among the admitted candidates, given their L1
    distances to the reference in enumeration order: the first candidate
    within SELECT_TIE_TOL of the nearest; None when there is none.

    Distances that are equal in real arithmetic (a UR5 fold and its
    mirror often are) can differ in the last bits of the float sum, and
    those bits must not pick the winner, so the enumeration order of the
    sign branches breaks the tie. The rule reads the distances, not the
    order they were found in: leaving out a candidate farther than the
    nearest plus SELECT_TIE_TOL cannot move the pick.
    """
    if not distances:
        return None
    band = min(distances) + SELECT_TIE_TOL
    return next(i for i, d in enumerate(distances) if d <= band)
