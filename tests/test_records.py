"""Properties of the seeded records as a whole: they are the same bytes
under every BLAS kernel the CPU supports, and a 1e-12 m nudge of the
target moves no more picks than the pinned ceilings."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fabrik_sqp
from fabrik_sqp import IKQuery, SolverConfig, benchmark, kuka_model, solve_ik, ur5_model

from conftest import KUKA_DATASHEET

SRC = Path(fabrik_sqp.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent

# A seeded subset of both robots: the default combined modes, the UR5's
# FABRIK-only mode, and one tight-limit model per robot, so the hinge and
# cone clamps of the sweeps run. Prints the SHA-256 of every record's
# status, counters, error, pick and enumerated candidates.
RECORDS_SCRIPT = """
import hashlib

import numpy as np
import fabrik_sqp as pkg
from fabrik_sqp import benchmark

from conftest import KUKA_DATASHEET as half

sets = [
    (pkg.ur5_model(), 40, pkg.SolverConfig()),
    (pkg.ur5_model(), 30, pkg.SolverConfig(use_optimizer=False, sweep_cap=100)),
    (pkg.ur5_model(np.tile([-0.5, 0.5], (6, 1))), 30, pkg.SolverConfig()),
    (pkg.kuka_model(), 40, pkg.SolverConfig()),
    (pkg.kuka_model(np.column_stack([-half, half])), 30, pkg.SolverConfig()),
]
digest = hashlib.sha256()
for model, n, config in sets:
    solver = pkg.ur5 if model.name == "ur5" else pkg.kuka
    for t_des, theta_init in benchmark.generate_queries(model, n, 7).queries:
        result, detail = solver.solve_detailed(pkg.IKQuery(t_des, theta_init, config), model)
        error = None if result.error is None else (result.error.eps_pos, result.error.eps_rot)
        digest.update(repr((result.status.value, result.fabrik_iterations, result.optimizer_used,
                            result.optimizer_iterations, error)).encode())
        for theta in ([] if result.theta is None else [result.theta]) + detail.candidates:
            digest.update(np.asarray(theta, dtype=float).tobytes())
print(digest.hexdigest())
"""


def cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def supported_kernels() -> list:
    """The OpenBLAS core types this CPU can run, oldest first: a kernel
    the CPU lacks is never forced."""
    flags = cpu_flags()
    needs = (("Nehalem", "sse4_2"), ("Sandybridge", "avx"), ("Haswell", "avx2"), ("SkylakeX", "avx512f"))
    return [kernel for kernel, flag in needs if flag in flags]


class TestRecordsIndependentOfBlasKernel:
    def test_same_bytes_under_every_supported_kernel(self):
        kernels = supported_kernels()
        if len(kernels) < 2:
            pytest.skip("fewer than two OpenBLAS kernels run on this CPU")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS), env.get("PYTHONPATH", "")])
        runs = {
            kernel: subprocess.Popen(
                [sys.executable, "-c", RECORDS_SCRIPT], env={**env, "OPENBLAS_CORETYPE": kernel},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for kernel in kernels
        }
        digests = {}
        for kernel, run in runs.items():
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            digests[kernel] = out.strip()
        assert len(set(digests.values())) == 1, digests


def nudge_counts(model, queries, config=None) -> dict:
    """Solve each query, then again with its target moved by 1e-12 m
    along x and along y: per axis, the picks that move by more than
    1e-3 rad (any joint) while the status stays, and the status flips
    by query index."""
    config = config or SolverConfig()
    base = [solve_ik(model, IKQuery(t, th, config)) for t, th in queries]
    counts = {}
    for axis in (0, 1):
        moved, flips = 0, []
        for i, ((t_des, theta_init), before) in enumerate(zip(queries, base)):
            t_des = t_des.copy()
            t_des[axis, 3] += 1e-12
            after = solve_ik(model, IKQuery(t_des, theta_init, config))
            if after.status is not before.status:
                flips.append(i)
            elif before.theta is not None and float(np.max(np.abs(after.theta - before.theta))) > 1e-3:
                moved += 1
        counts["xy"[axis]] = (moved, flips)
    return counts


class TestNudgeStability:
    """On a few percent of KUKA queries a 1e-12 m nudge of the target
    moves the pick, by up to several radians, while the status stays;
    the ceilings keep a change from raising that share unnoticed. The
    UR5 picks are stable."""

    @pytest.mark.parametrize(
        "robot, limits, n, ceilings",
        [
            ("kuka", None, 1000, {"x": 41, "y": 51}),
            ("kuka", np.column_stack([-KUKA_DATASHEET, KUKA_DATASHEET]), 300, {"x": 18, "y": 16}),
            ("ur5", None, 1000, {"x": 0, "y": 0}),
        ],
        ids=["kuka-random", "kuka-datasheet", "ur5-random"],
    )
    def test_seed_7_picks_moved_by_a_nudge(self, robot, limits, n, ceilings):
        model = (kuka_model if robot == "kuka" else ur5_model)(limits)
        counts = nudge_counts(model, benchmark.generate_queries(model, n, 7).queries)
        assert {axis: flips for axis, (_, flips) in counts.items()} == {"x": [], "y": []}
        for axis, (moved, _) in counts.items():
            assert moved <= ceilings[axis], (axis, moved)
