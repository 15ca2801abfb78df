"""Convergence behaviour of plain FABRIK sweeps on two-link chains.

Runs the iteration on a unit chain for targets that need a slight bend,
a big swing, and a near-full-extension reach, plus the KUKA reduced
chain aiming at a point near its reach sphere. Writes one (n, dist)
trace CSV per case: the slight-bend and near-extension cases show the
fast initial approach followed by the long plateau that motivates
switching to the optimizer.
"""
import os

import numpy as np

from fabrik_sqp import benchmark, fabrik, kuka, robots

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def unit_chain():
    joints = (fabrik.Hinge([0.0, 0.0, 1.0]), fabrik.Hinge([0.0, 0.0, 1.0]))
    return fabrik.straight_chain(
        np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0]), joints,
        anchor_dir=np.array([1.0, 0.0, 0.0]),
    )


def run_case(name, chain, target, cap=20000):
    outcome = fabrik.solve(fabrik.pre_bend(chain), np.asarray(target, float), 1e-6, cap)
    path = os.path.join(OUT_DIR, f"trace_{name}.csv")
    benchmark.write_csv(path, ["n", "dist"], outcome.trace)
    print(
        f"{name:24s} converged={outcome.converged!s:5s} sweeps={outcome.iterations:6d} "
        f"final dist={outcome.dist:.3e}  -> {path}"
    )


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    print("two-link unit chain, eps_tol = 1e-6")
    run_case("big_swing", unit_chain(), [0.0, 1.5, 0.0])
    run_case("slight_bend", unit_chain(), [1.99, 0.001, 0.0])
    run_case("near_extension", unit_chain(), [1.9995, 0.005, 0.0])

    model = robots.kuka_model()
    chain = kuka.make_chain(model)
    # a wrist target a fraction of a millimetre inside the reach sphere,
    # well off the chain axis: the pathological slow-straightening regime
    direction = np.array([0.6061158, -0.5479071, -0.0703400])
    target = model.shoulder + 0.81996 * direction / np.linalg.norm(direction)
    print("\nkuka shoulder-elbow-wrist chain, eps_tol = 1e-6")
    run_case("kuka_near_extension", chain, target)


if __name__ == "__main__":
    main()
