"""Robot models: DH tables, forward kinematics, and pose mismatch.

Ships the two supported manipulators (UR5 and KUKA LBR iiwa 14 R820)
with manufacturer kinematic constants. Joint limits default to
[-pi, pi] per joint; tighter limits can be configured or loaded from
JSON.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CartesianError,
    cartesian_error,
    make_transform,
    require_transform,
    wrap_angle,
)

UR5 = "ur5"
KUKA = "kuka"


@dataclass(frozen=True)
class DHRow:
    """One standard Denavit-Hartenberg row (a, alpha, d, theta_offset)."""

    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0

    def __post_init__(self):
        for name in ("a", "alpha", "d", "theta_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"DH parameter {name} must be finite")
        # keep alpha in (-pi, pi]
        alpha = wrap_angle(self.alpha)
        if alpha == -math.pi:
            alpha = math.pi
        object.__setattr__(self, "alpha", alpha)


def dh_transform(row: DHRow, theta: float) -> np.ndarray:
    """Link transform Rz(theta + offset) Tz(d) Tx(a) Rx(alpha)."""
    th = theta + row.theta_offset
    ct, st = math.cos(th), math.sin(th)
    ca, sa = math.cos(row.alpha), math.sin(row.alpha)
    return np.array(
        [
            [ct, -st * ca, st * sa, row.a * ct],
            [st, ct * ca, -ct * sa, row.a * st],
            [0.0, sa, ca, row.d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


@dataclass(frozen=True)
class RobotModel:
    name: str
    dh: tuple[DHRow, ...]
    link_lengths: np.ndarray
    joint_limits: np.ndarray  # (dof, 2) [lo, hi] radians

    def __post_init__(self):
        object.__setattr__(self, "dh", tuple(self.dh))
        object.__setattr__(self, "link_lengths", np.asarray(self.link_lengths, dtype=float))
        limits = np.asarray(self.joint_limits, dtype=float)
        if limits.shape != (len(self.dh), 2):
            raise ValueError("joint_limits must have one [lo, hi] pair per DH row")
        if np.any(limits[:, 0] >= limits[:, 1]):
            raise ValueError("each joint must satisfy lo < hi")
        object.__setattr__(self, "joint_limits", limits)

    @property
    def dof(self) -> int:
        return len(self.dh)

    def within_limits(self, theta, tol: float = 0.0) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(
            np.all(theta >= self.joint_limits[:, 0] - tol)
            and np.all(theta <= self.joint_limits[:, 1] + tol)
        )


def _build_model(name: str, dh, joint_limits=None) -> RobotModel:
    """Model of the named robot with its link lengths read off the DH table.

    Joint limits default to [-pi, pi] per joint.
    """
    rows = {UR5: 6, KUKA: 7}.get(name)
    if rows is None:
        raise ValueError(f"unknown robot name {name!r}")
    if len(dh) != rows:
        raise ValueError(f"{name} needs {rows} DH rows, got {len(dh)}")
    if name == UR5:
        # UR tables give the upper arm and forearm as negative a2 and a3
        lengths = [dh[0].d, -dh[1].a, -dh[2].a, dh[3].d, dh[4].d, dh[5].d]
        convention = " (the UR sign convention: a2 and a3 negative)"
    else:
        lengths = [dh[0].d, dh[2].d, dh[4].d, dh[6].d]
        convention = ""
        # kuka.bend_magnitudes measures theta2 from the base-to-shoulder riser
        if not lengths[0] > 0.0:
            raise ValueError("kuka base riser l1 (dh[0].d) must be positive")
    if not (lengths[1] > 0.0 and lengths[2] > 0.0):
        raise ValueError(f"{name} reduced-chain links l2 and l3 must be positive{convention}")
    if joint_limits is None:
        joint_limits = np.tile([-math.pi, math.pi], (len(dh), 1))
    return RobotModel(name=name, dh=dh, link_lengths=lengths, joint_limits=joint_limits)


def ur5_model(joint_limits=None) -> RobotModel:
    """UR5 with the manufacturer standard DH table.

    Link lengths l1..l6 follow the geometric labelling used by the
    solvers: base riser, upper arm, forearm, wrist lateral offset, wrist
    riser, flange.
    """
    dh = (
        DHRow(a=0.0, alpha=math.pi / 2, d=0.089159),
        DHRow(a=-0.425, alpha=0.0, d=0.0),
        DHRow(a=-0.39225, alpha=0.0, d=0.0),
        DHRow(a=0.0, alpha=math.pi / 2, d=0.10915),
        DHRow(a=0.0, alpha=-math.pi / 2, d=0.09465),
        DHRow(a=0.0, alpha=0.0, d=0.0823),
    )
    return _build_model(UR5, dh, joint_limits)


def kuka_model(joint_limits=None) -> RobotModel:
    """KUKA LBR iiwa 14 R820 with the manufacturer standard DH table.

    Link lengths l1..l4: base-to-shoulder, shoulder-to-elbow,
    elbow-to-wrist, wrist-to-flange.
    """
    dh = (
        DHRow(a=0.0, alpha=-math.pi / 2, d=0.36),
        DHRow(a=0.0, alpha=math.pi / 2, d=0.0),
        DHRow(a=0.0, alpha=-math.pi / 2, d=0.42),
        DHRow(a=0.0, alpha=math.pi / 2, d=0.0),
        DHRow(a=0.0, alpha=-math.pi / 2, d=0.40),
        DHRow(a=0.0, alpha=math.pi / 2, d=0.0),
        DHRow(a=0.0, alpha=0.0, d=0.126),
    )
    return _build_model(KUKA, dh, joint_limits)


def get_model(name: str) -> RobotModel:
    key = name.strip().lower()
    if key == UR5:
        return ur5_model()
    if key == KUKA:
        return kuka_model()
    raise ValueError(f"unknown robot {name!r} (expected 'ur5' or 'kuka')")


def _dh_row(row) -> DHRow:
    """One DH row from its JSON object; theta_offset is optional."""
    if not isinstance(row, dict):
        raise ValueError("robot JSON field 'dh' must be a list of objects")
    values = {}
    for key in ("a", "alpha", "d", "theta_offset"):
        value = row.get(key, 0.0 if key == "theta_offset" else None)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"DH field {key!r} must be a number, got {value!r}")
        values[key] = float(value)
    return DHRow(**values)


def model_from_json(text: str) -> RobotModel:
    """Load a robot from the JSON schema {"name", "dh", "limits"} (SI units)."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("robot JSON must be an object")
    for key in ("name", "dh", "limits"):
        if key not in doc:
            raise ValueError(f"robot JSON is missing field {key!r}")
    name = str(doc["name"]).lower()
    if not isinstance(doc["dh"], list):
        raise ValueError("robot JSON field 'dh' must be a list of objects")
    dh = tuple(_dh_row(row) for row in doc["dh"])
    try:
        limits = np.asarray(doc["limits"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"robot JSON field 'limits' must hold numbers: {exc}") from exc
    return _build_model(name, dh, limits)


def model_to_json(model: RobotModel) -> str:
    doc = {
        "name": model.name,
        "dh": [
            {"a": r.a, "alpha": r.alpha, "d": r.d, "theta_offset": r.theta_offset}
            for r in model.dh
        ],
        "limits": model.joint_limits.tolist(),
    }
    return json.dumps(doc, indent=2)


def load_model_file(path: str) -> RobotModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())


# --- forward kinematics -----------------------------------------------------

def _check_theta(model: RobotModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dof,):
        raise ValueError(f"{model.name} expects {model.dof} joint angles, got shape {theta.shape}")
    return theta


def forward_kinematics(model: RobotModel, theta) -> np.ndarray:
    """End-effector pose as the product of the link transforms."""
    return fk_prefix(model, _check_theta(model, theta))


def fk_frames(model: RobotModel, theta) -> list[np.ndarray]:
    """Cumulative transforms [I, A1, A1 A2, ...] for each frame."""
    theta = _check_theta(model, theta)
    frames = [np.eye(4)]
    for row, th in zip(model.dh, theta):
        frames.append(frames[-1] @ dh_transform(row, th))
    return frames


def fk_prefix(model: RobotModel, theta_prefix) -> np.ndarray:
    """Product of the first len(theta_prefix) link transforms."""
    T = np.eye(4)
    for row, th in zip(model.dh, np.asarray(theta_prefix, dtype=float)):
        T = T @ dh_transform(row, th)
    return T


def pose_mismatch(model: RobotModel, theta, t_des) -> float:
    """Acceptance metric D = eps_rot + eps_pos for a candidate joint vector."""
    t_des = require_transform(t_des)
    return cartesian_error(forward_kinematics(model, theta), t_des).total
