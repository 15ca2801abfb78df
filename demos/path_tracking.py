"""Two-phase path tracking with warm-started solves.

Phase 1 slides the reduced chain's end point along its initial direction
line until the arm reaches the zero configuration; phase 2 follows the
forward-kinematics poses of a joint-space interpolation. Every waypoint
is solved from the previous solution, which is what yields continuous
joint trajectories. Writes one trace CSV per robot and prints where the
optimizer kicked in (expect a cluster around the phase boundary, where
the chain passes through full extension).
"""
import os

import numpy as np

from fabrik_sqp import robots, tracking
from fabrik_sqp.iktypes import SolverConfig

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in ("ur5", "kuka"):
        model = robots.get_model(name)
        theta_init, waypoints = tracking.scripted_waypoints(model)
        trace = tracking.track(model, waypoints, theta_init, SolverConfig())
        path = os.path.join(OUT_DIR, f"tracking_{name}.csv")
        tracking.write_trace_csv(trace, model.dof, path)
        if not trace.completed:
            print(f"{name}: FAILED at waypoint {trace.failed_index}")
            continue
        eps_pos = max(r.error.eps_pos for _, r in trace.records)
        eps_rot = max(r.error.eps_rot for _, r in trace.records)
        activations = [i for i, (_, r) in enumerate(trace.records) if r.optimizer_used]
        boundary = [i for i in activations if 70 <= i <= 90]
        print(
            f"{name}: {len(trace.records)} waypoints solved, max eps_pos={eps_pos:.2e}, "
            f"max eps_rot={eps_rot:.2e}, max joint step={trace.max_joint_step():.3f} rad"
        )
        print(
            f"      optimizer used at {len(activations)} waypoints "
            f"({len(boundary)} in the phase-boundary window), trace -> {path}"
        )


if __name__ == "__main__":
    main()
