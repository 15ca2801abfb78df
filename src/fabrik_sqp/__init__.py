"""Hybrid FABRIK + box-SQP inverse kinematics for UR5 and KUKA iiwa arms."""
from __future__ import annotations

from . import benchmark, fabrik, geometry, kuka, optimizer, pipeline, robots, tracking, ur5
from .geometry import CartesianError, cartesian_error
from .iktypes import IKQuery, IKResult, IKStatus, SolverConfig
from .robots import (
    RobotModel,
    forward_kinematics,
    get_model,
    kuka_model,
    model_from_json,
    model_to_json,
    pose_mismatch,
    ur5_model,
)

__all__ = [
    "CartesianError",
    "IKQuery",
    "IKResult",
    "IKStatus",
    "RobotModel",
    "SolverConfig",
    "benchmark",
    "cartesian_error",
    "fabrik",
    "forward_kinematics",
    "geometry",
    "get_model",
    "kuka",
    "kuka_model",
    "model_from_json",
    "model_to_json",
    "optimizer",
    "pipeline",
    "pose_mismatch",
    "robots",
    "solve_ik",
    "tracking",
    "ur5",
    "ur5_model",
]

__version__ = "0.1.0"


def solve_ik(model: RobotModel, query: IKQuery) -> IKResult:
    """Dispatch a query to the solver matching the model ("ur5" or "kuka")."""
    solver = ur5 if model.name == robots.UR5 else kuka
    return solver.solve_detailed(query, model)[0]
