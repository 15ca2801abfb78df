"""End-to-end solves of two hard reference poses, one per robot.

Both poses put the reduced chain within a millimetre of full extension,
the regime where plain FABRIK needs hundreds to thousands of sweeps.
The combined pipeline hands over to the box-constrained optimizer after
its sweep cap (the paper's n_l, here 15) and finishes in a few dozen
total steps; FABRIK-only runs with a cap (the paper's n_max) of 900
sweeps on the UR5 and 12000 on the KUKA.
"""
import numpy as np

from fabrik_sqp import kuka, robots, solve_ik
from fabrik_sqp.benchmark import parse_mode
from fabrik_sqp.geometry import make_transform, polar_rotation
from fabrik_sqp.iktypes import DEFAULT_EPS_TOL, IKQuery

UR5_POSE_ROTATION = [
    [-0.770, 0.618, 0.156],
    [-0.638, -0.740, -0.214],
    [-0.017, -0.265, 0.964],
]
UR5_POSE_POSITION = [-0.296, -0.869, 0.288]

KUKA_POSE_ROTATION = [
    [0.537, 0.838, 0.094],
    [-0.654, 0.344, 0.674],
    [0.532, -0.423, 0.733],
]
KUKA_POSE_POSITION = [0.618, -0.463, 0.382]


def kuka_pose():
    model = robots.kuka_model()
    t = make_transform(polar_rotation(np.array(KUKA_POSE_ROTATION)), KUKA_POSE_POSITION)
    # the 3-decimal position rounds the wrist ~0.1 mm outside the reach
    # sphere; pull it back to the radius of a 0.019 rad elbow bend
    l2, l3 = model.link_lengths[1], model.link_lengths[2]
    r = np.sqrt(l2 * l2 + l3 * l3 + 2 * l2 * l3 * np.cos(0.019))
    d = np.subtract(kuka.wrist_target(t[:3].tolist(), model), model.shoulder)
    t[:3, 3] -= (np.linalg.norm(d) - r) * d / np.linalg.norm(d)
    return model, t


def show(name, result):
    total = result.fabrik_iterations + result.optimizer_iterations
    print(f"  {name:13s} status={result.status.value:12s} sweeps={result.fabrik_iterations:6d} "
          f"optimizer={result.optimizer_iterations:4d} total={total:6d} "
          f"eps_pos={result.error.eps_pos if result.error else float('nan'):.2e}")


def solve_modes(model, pose, modes):
    """Solve pose from the zero configuration in each mode; print each
    result and the combined mode's joint vector."""
    results = []
    for text in modes:
        config = parse_mode(text).config(DEFAULT_EPS_TOL)
        result = solve_ik(model, IKQuery(t_des=pose, theta_init=np.zeros(model.dof), config=config))
        show(text, result)
        results.append(result)
    print("  joint vector:", np.round(results[0].theta, 4))


def main():
    model = robots.ur5_model()
    pose = make_transform(polar_rotation(np.array(UR5_POSE_ROTATION)), UR5_POSE_POSITION)
    print("ur5 reference pose")
    solve_modes(model, pose, ("combined:15", "fabrik:900"))

    model, pose = kuka_pose()
    print("\nkuka reference pose")
    solve_modes(model, pose, ("combined:15", "fabrik:12000"))


if __name__ == "__main__":
    main()
