"""Robot models: DH tables, forward kinematics, and pose mismatch.

Ships the two supported manipulators (UR5 and KUKA LBR iiwa 14 R820)
with manufacturer kinematic constants. Joint limits default to
[-pi, pi] per joint; tighter limits can be configured or loaded from
JSON. Each DH row holds the cosine and sine of its alpha; `fk_frames`,
the one product of link transforms, stops at any prefix of the joints.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .fabrik import MAX_CHAIN_REACH, MIN_LINK_LENGTH
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
    cos_alpha: float = field(init=False, repr=False, compare=False)
    sin_alpha: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "alpha", "d", "theta_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"DH parameter {name} must be finite")
        # keep alpha in (-pi, pi]
        alpha = wrap_angle(self.alpha)
        if alpha == -math.pi:
            alpha = math.pi
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "cos_alpha", math.cos(alpha))
        object.__setattr__(self, "sin_alpha", math.sin(alpha))


def dh_transform(row: DHRow, theta: float) -> np.ndarray:
    """Link transform Rz(theta + offset) Tz(d) Tx(a) Rx(alpha)."""
    th = theta + row.theta_offset
    ct, st = math.cos(th), math.sin(th)
    ca, sa = row.cos_alpha, row.sin_alpha
    # numpy builds a flat tuple faster than nested lists
    return np.array((
        ct, -st * ca, st * sa, row.a * ct,
        st, ct * ca, -ct * sa, row.a * st,
        0.0, sa, ca, row.d,
        0.0, 0.0, 0.0, 1.0,
    )).reshape(4, 4)


@dataclass(frozen=True)
class RobotModel:
    """A "ur5" or "kuka" arm, checked once here; limits default to [-pi, pi].

    `link_lengths` and `shoulder` (0, 0, l1), the base of both reduced
    chains, are read off the DH table; the arrays are read-only copies.
    Models compare and hash by name, table and limits.
    """

    name: str
    dh: tuple[DHRow, ...]
    joint_limits: np.ndarray | None = field(default=None, compare=False)  # (dof, 2) [lo, hi] radians
    link_lengths: np.ndarray = field(init=False, repr=False, compare=False)
    shoulder: np.ndarray = field(init=False, repr=False, compare=False)
    limit_pairs: tuple[tuple[float, float], ...] = field(init=False, repr=False)

    def __post_init__(self):
        dh = tuple(self.dh)
        if not all(isinstance(row, DHRow) for row in dh):
            raise ValueError("dh must be a sequence of DHRow")
        lengths = _link_lengths(self.name, dh)
        limits = _frozen_copy(
            [(-math.pi, math.pi)] * len(dh) if self.joint_limits is None else self.joint_limits
        )
        if limits.shape != (len(dh), 2):
            raise ValueError("joint_limits must have one [lo, hi] pair per DH row")
        # NaN fails every comparison, so check finiteness first
        if not np.all(np.isfinite(limits)):
            raise ValueError("joint limits must be finite")
        if np.any(limits[:, 0] >= limits[:, 1]):
            raise ValueError("each joint must satisfy lo < hi")
        object.__setattr__(self, "dh", dh)
        object.__setattr__(self, "joint_limits", limits)
        object.__setattr__(self, "link_lengths", _frozen_copy(lengths))
        object.__setattr__(self, "shoulder", _frozen_copy((0.0, 0.0, lengths[0])))
        object.__setattr__(self, "limit_pairs", tuple(map(tuple, limits.tolist())))

    def __reduce__(self):
        # rebuild through __init__, so an unpickled model is checked and frozen too
        return type(self), (self.name, self.dh, self.joint_limits)

    @property
    def dof(self) -> int:
        return len(self.dh)

    def within_limits(self, theta, tol: float = 0.0) -> bool:
        pairs = zip(np.asarray(theta, dtype=float).tolist(), self.limit_pairs, strict=True)
        return all(lo - tol <= t <= hi + tol for t, (lo, hi) in pairs)


def _frozen_copy(values) -> np.ndarray:
    """A read-only float copy: the caller's array stays its own."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _link_lengths(name, dh: tuple[DHRow, ...]) -> list[float]:
    """The named robot's link lengths read off its DH table: UR5 l1..l6,
    KUKA l1..l4."""
    if name not in (UR5, KUKA):
        raise ValueError(f"unknown robot name {name!r} (expected 'ur5' or 'kuka')")
    rows = 6 if name == UR5 else 7
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
    if not (lengths[1] >= MIN_LINK_LENGTH and lengths[2] >= MIN_LINK_LENGTH):
        raise ValueError(
            f"{name} reduced-chain links l2 and l3 must be positive{convention},"
            f" at least {MIN_LINK_LENGTH:g} m"
        )
    if lengths[1] + lengths[2] > MAX_CHAIN_REACH:
        raise ValueError(f"{name} reduced-chain reach l2 + l3 must be at most {MAX_CHAIN_REACH:g} m")
    return lengths


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
    return RobotModel(UR5, dh, joint_limits)


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
    return RobotModel(KUKA, dh, joint_limits)


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
    return RobotModel(name, dh, limits)


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

def forward_kinematics(model: RobotModel, theta) -> np.ndarray:
    """End-effector pose as the product of the link transforms."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dof,):
        raise ValueError(f"{model.name} expects {model.dof} joint angles, got shape {theta.shape}")
    return fk_frames(model, theta)[-1]


_IDENTITY = np.eye(4)
_IDENTITY.flags.writeable = False


def fk_frames(model: RobotModel, theta) -> list[np.ndarray]:
    """Cumulative transforms [I, A1, A1 A2, ...] of the first len(theta)
    links; a prefix of the joint vector stops at its last frame. Frame 0
    is one shared, read-only identity."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size > model.dof:
        raise ValueError(f"{model.name} has {model.dof} joints, got angles of shape {theta.shape}")
    links = (dh_transform(row, th) for row, th in zip(model.dh, theta.tolist()))
    return [_IDENTITY, *accumulate(links, np.ndarray.dot)]


def pose_mismatch(model: RobotModel, theta, t_des) -> float:
    """Acceptance metric D = eps_rot + eps_pos for a candidate joint vector."""
    t_des = require_transform(t_des)
    return cartesian_error(forward_kinematics(model, theta), t_des).total
