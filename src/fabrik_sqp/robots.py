"""Robot models: DH tables, forward kinematics, and pose mismatch.

Ships the two supported manipulators (UR5 and KUKA LBR iiwa 14 R820)
with manufacturer kinematic constants. Joint limits default to
[-pi, pi] per joint; tighter limits can be configured or loaded from
JSON. Each DH row holds the cosine and sine of its alpha. `dh_step`
extends a frame, held as its top three float rows, by one link;
`fk_frames`, the one product of link transforms, applies it joint by
joint and stops at any prefix of the joints.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fabrik import MAX_CHAIN_REACH, MIN_LINK_LENGTH
from .geometry import frame_error, require_transform, wrap_angle

UR5 = "ur5"
KUKA = "kuka"
LAYOUT_MARGIN = 1e-6  # smallest reduced link, relative to its lay-out's largest coordinate


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


IDENTITY_ROWS = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))


def dh_step(rows, row: DHRow, theta: float) -> tuple:
    """rows times the link transform Rz(theta + offset) Tz(d) Tx(a) Rx(alpha).

    rows are the top three rows of a rigid transform, each 4 floats, and
    so is the product. The link's zeros and ones are not multiplied out:
    with u and w the entries of a row turned by theta, each row costs
    ten products.
    """
    th = theta + row.theta_offset
    ct, st = math.cos(th), math.sin(th)
    ca, sa, a, d = row.cos_alpha, row.sin_alpha, row.a, row.d
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23) = rows
    u0, w0 = r00 * ct + r01 * st, r01 * ct - r00 * st
    u1, w1 = r10 * ct + r11 * st, r11 * ct - r10 * st
    u2, w2 = r20 * ct + r21 * st, r21 * ct - r20 * st
    return (
        (u0, w0 * ca + r02 * sa, r02 * ca - w0 * sa, a * u0 + d * r02 + r03),
        (u1, w1 * ca + r12 * sa, r12 * ca - w1 * sa, a * u1 + d * r12 + r13),
        (u2, w2 * ca + r22 * sa, r22 * ca - w2 * sa, a * u2 + d * r22 + r23),
    )


def transform_of(rows) -> np.ndarray:
    """The 4x4 ndarray of a transform held as its top three rows."""
    r0, r1, r2 = rows
    return np.array((*r0, *r1, *r2, 0.0, 0.0, 0.0, 1.0)).reshape(4, 4)


def dh_transform(row: DHRow, theta: float) -> np.ndarray:
    """Link transform Rz(theta + offset) Tz(d) Tx(a) Rx(alpha), as a 4x4 ndarray."""
    return transform_of(dh_step(IDENTITY_ROWS, row, theta))


@dataclass(frozen=True)
class RobotModel:
    """A "ur5" or "kuka" arm, checked once here; limits default to [-pi, pi].

    `link_lengths`, a read-only array copy, and `shoulder` (0, 0, l1), the
    base of both reduced chains as a float 3-tuple, are read off the DH
    table. `arm_lengths` holds l1, l2 and l3 as floats, for the
    optimizer's position maps, and `optimizer_box` the optimizer's joint
    box: the limit pairs, with (-inf, inf) for a joint whose limits span a full
    turn (recovery wraps every angle, so there the box would only wall
    off solutions across +-pi). Models compare and hash by name, table
    and limits (hashed once).
    """

    name: str
    dh: tuple[DHRow, ...]
    joint_limits: np.ndarray | None = field(default=None, compare=False)  # (dof, 2) [lo, hi] radians
    link_lengths: np.ndarray = field(init=False, repr=False, compare=False)
    arm_lengths: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    shoulder: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    limit_pairs: tuple[tuple[float, float], ...] = field(init=False, repr=False)
    optimizer_box: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "arm_lengths", tuple(self.link_lengths[:3].tolist()))
        object.__setattr__(self, "shoulder", (0.0, 0.0, self.arm_lengths[0]))
        object.__setattr__(self, "limit_pairs", tuple(map(tuple, limits.tolist())))
        object.__setattr__(self, "optimizer_box", tuple(
            (-math.inf, math.inf) if hi - lo >= 2.0 * math.pi else (lo, hi)
            for lo, hi in self.limit_pairs
        ))
        object.__setattr__(self, "_hash", hash((self.name, dh, self.limit_pairs)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__, so an unpickled model is checked and frozen too
        return type(self), (self.name, self.dh, self.joint_limits)

    @property
    def dof(self) -> int:
        return len(self.dh)

    def within_limits(self, theta, tol: float = 0.0) -> bool:
        """theta, any sequence of one float per joint, within the limits +- tol."""
        pairs = zip(theta, self.limit_pairs, strict=True)
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
    # The reductions lay their chains out unchecked (`fabrik.lay_out_chain`), so this
    # is `fabrik.straight_chain`'s rule, checked once: every laid link within 1e-9 of
    # its length. Its links err by <= 3u M (u = 2**-53), M the largest coordinate:
    # l2 + l3 in any UR5 plane (the height is exact), l1 + l2 + l3 up the KUKA's z.
    # So L >= LAYOUT_MARGIN * M errs by <= 3.3e-10 L (UR5, measured: fails < ~2e-7 M).
    top = lengths[1] + lengths[2] + (lengths[0] if name == KUKA else 0.0)
    if min(lengths[1], lengths[2]) < LAYOUT_MARGIN * top:
        raise ValueError(f"{name} reduced-chain links l2 and l3 must each be at least"
                         f" {LAYOUT_MARGIN:g} of their lay-out's largest coordinate, {top:g} m")
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


def json_number(value, what: str) -> float:
    """A number read from JSON, as a float; ValueError for an integer beyond the float
    range and for any other value, a bool or a string too (float() reads "1" as 1.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a number within the float range") from None


def json_numbers(value, what: str):
    """A JSON number, or nested lists of them, read by `json_number`."""
    if isinstance(value, list):
        return [json_numbers(v, what) for v in value]
    return json_number(value, what)


def _dh_row(row) -> DHRow:
    """One DH row from its JSON object; theta_offset is optional."""
    if not isinstance(row, dict):
        raise ValueError("robot JSON field 'dh' must be a list of objects")
    values = {
        key: json_number(row.get(key, 0.0 if key == "theta_offset" else None), f"DH field {key!r}")
        for key in ("a", "alpha", "d", "theta_offset")
    }
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
    return RobotModel(name, dh, json_numbers(doc["limits"], "robot JSON 'limits' entry"))


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

def _joint_angles(model: RobotModel, theta) -> list[float]:
    """theta as floats, one per joint; ValueError for any other shape."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dof,):
        raise ValueError(f"{model.name} expects {model.dof} joint angles, got shape {theta.shape}")
    return theta.tolist()


def forward_kinematics(model: RobotModel, theta) -> np.ndarray:
    """End-effector pose as the product of the link transforms, a 4x4 ndarray."""
    return transform_of(fk_frames(model, _joint_angles(model, theta))[-1])


def fk_frames(model: RobotModel, theta) -> list[tuple]:
    """Cumulative frames [I, A1, A1 A2, ...] of the first len(theta)
    links of a sequence of floats, each frame as its top three rows (see
    `dh_step`); a prefix of the joint vector stops at its last frame.
    Frame 0 is IDENTITY_ROWS."""
    if len(theta) > model.dof:
        raise ValueError(f"{model.name} has {model.dof} joints, got {len(theta)} angles")
    frames = [IDENTITY_ROWS]
    for row, th in zip(model.dh, theta):
        frames.append(dh_step(frames[-1], row, th))
    return frames


def pose_mismatch(model: RobotModel, theta, t_des) -> float:
    """Acceptance metric D = eps_rot + eps_pos for a candidate joint vector."""
    rows = require_transform(t_des)
    frame = fk_frames(model, _joint_angles(model, theta))[-1]
    return frame_error(frame, rows[:3]).total
