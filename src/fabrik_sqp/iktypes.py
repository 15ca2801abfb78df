"""Query, configuration, and result types shared by the two solvers."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CartesianError, require_transform, sanitize_rotation
from .robots import KUKA, UR5, RobotModel

DEFAULT_EPS_TOL = 1e-6
DEFAULT_SWITCH_INDEX = {UR5: 5, KUKA: 15}


class IKStatus(enum.Enum):
    SOLVED = "solved"
    UNREACHABLE = "unreachable"
    FAILED = "failed"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and switching parameters for the combined pipeline.

    n_l caps the FABRIK sweeps before the optimizer takes over; n_max is
    the sweep cap when the optimizer is disabled (use_optimizer=False).
    A value of None for n_l picks the per-robot default (5 for the UR5,
    15 for the KUKA).
    """

    eps_tol: float = DEFAULT_EPS_TOL
    n_l: int | None = None
    n_max: int = 900
    opt_max_iters: int = 200
    use_optimizer: bool = True
    ball_limit: float = math.pi  # shoulder cone half-angle (KUKA chain)
    pre_bend: float = 1e-3
    collinear_tol: float = 1e-6

    def __post_init__(self):
        if self.eps_tol <= 0.0:
            raise ValueError("eps_tol must be positive")
        if self.n_l is not None and self.n_l < 1:
            raise ValueError("n_l must be at least 1")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    def switch_index(self, robot_name: str) -> int:
        if self.n_l is not None:
            return self.n_l
        return DEFAULT_SWITCH_INDEX[robot_name]

    def fabrik_cap(self, robot_name: str) -> int:
        return self.switch_index(robot_name) if self.use_optimizer else self.n_max


@dataclass(frozen=True)
class IKQuery:
    """Desired end-effector pose plus the reference joint vector.

    v_init overrides the initial iteration direction for the KUKA chain
    (ignored by the UR5 solver, which derives its own from theta1).
    """

    t_des: np.ndarray
    theta_init: np.ndarray
    config: SolverConfig = field(default_factory=SolverConfig)
    v_init: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "t_des", require_transform(self.t_des))
        object.__setattr__(self, "theta_init", np.asarray(self.theta_init, dtype=float))
        if self.v_init is not None:
            object.__setattr__(self, "v_init", np.asarray(self.v_init, dtype=float))


@dataclass(frozen=True)
class IKResult:
    status: IKStatus
    theta: np.ndarray | None
    error: CartesianError | None
    fabrik_iterations: int
    optimizer_used: bool
    optimizer_iterations: int
    solve_time: float

    @property
    def solved(self) -> bool:
        return self.status is IKStatus.SOLVED


def prepare_query(model: RobotModel, query: IKQuery) -> np.ndarray:
    """Validate the query against the model and sanitize the input pose."""
    if not np.all(np.isfinite(query.t_des)):
        raise ValueError("t_des must be finite")
    if query.theta_init.shape != (model.dof,):
        raise ValueError(
            f"theta_init must have {model.dof} entries for {model.name}, "
            f"got {query.theta_init.shape}"
        )
    if not np.all(np.isfinite(query.theta_init)):
        raise ValueError("theta_init must be finite")
    if not model.within_limits(query.theta_init, tol=1e-12):
        raise ValueError("theta_init must lie within the joint limits")
    t = query.t_des.copy()
    t[:3, :3] = sanitize_rotation(t[:3, :3])
    return t


def select_candidate(candidates, theta_init) -> int | None:
    """Index of the admitted candidate closest to theta_init in L1 norm.

    Ties keep the earliest candidate, so the enumeration order of the
    sign branches is the tie-break.
    """
    best = None
    best_d = math.inf
    for idx, theta in enumerate(candidates):
        d = float(np.sum(np.abs(np.asarray(theta) - theta_init)))
        if d < best_d:
            best = idx
            best_d = d
    return best
