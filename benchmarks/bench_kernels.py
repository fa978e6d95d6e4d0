"""Time the queue-recursion paths: slot loop, vectorised solver and numba JIT.

Usage:
    python benchmarks/bench_kernels.py [--horizon 200000] [--repeat 5]

Every path consumes identical pre-drawn arrivals and success events and
produces a bit-identical trajectory (checked here); this script measures
only the recursion itself (drawing, the success events and the statistics
are shared by all paths in normal use). The configs cover coupled queues
inside the region and at 0.98x the analytic frontier, where the vectorised
solver needs the most Picard passes, and both dominant modes. The JIT column
is printed only when numba is installed and ``BCSTAB_NO_NUMBA`` is unset.
"""

import argparse
import math
import time

import numpy as np

from bcstab import (
    RatePoint,
    SimConfig,
    SuccessProfile,
    SystemParams,
    boundary_scale,
    region_for_params,
)
from bcstab import _kernels
from bcstab.sim import _kernel_inputs


def time_kernel(fn, kernel_args, repeat):
    """Best wall time of ``repeat`` runs, the last trajectory and fn's return value."""
    best = float("inf")
    for _ in range(repeat):
        qtraj = np.zeros((kernel_args[0].shape[0] + 1, 2), dtype=np.int64)
        t0 = time.perf_counter()
        out = fn(*kernel_args, qtraj)
        best = min(best, time.perf_counter() - t0)
    return best, qtraj, out


PARAMS = SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "fixed")
NEAR_FRONTIER = [
    ("ian", 45.0, SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed")),
    ("generic", 60.0, SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "generic", "fixed",
                                   generic_profile=SuccessProfile(0.9, 0.8, 0.3, 0.5))),
]


def configs(horizon):
    inside = RatePoint(0.3, 0.6)
    yield "sc coupled (0.3, 0.6)", SimConfig(inside, PARAMS, horizon=horizon, seed=1234)
    for name, angle, params in NEAR_FRONTIER:
        scale = 0.98 * boundary_scale(region_for_params(params), angle)
        near = RatePoint(scale * math.cos(math.radians(angle)), scale * math.sin(math.radians(angle)))
        yield f"{name} coupled 0.98x", SimConfig(near, params, horizon=horizon, seed=1234)
    for mode in ("queue1", "queue2"):
        yield f"sc dominant {mode}", SimConfig(inside, PARAMS, horizon=horizon, seed=1234,
                                              dominant_mode=mode)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=200_000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    jit = _kernels.simulate_slots_jit
    if jit is not None:
        # compile outside the timed region
        warm = _kernel_inputs(SimConfig(RatePoint(0.1, 0.1), PARAMS, horizon=1000))
        time_kernel(jit, warm, 1)
    print(f"{args.horizon} slots, best of {args.repeat}; dispatched path: "
          f"{'jit' if _kernels.USING_NUMBA else 'vectorised'}")
    header = f"{'config':<24}{'loop ms':>10}{'vec ms':>10}{'passes':>8}{'jit ms':>10}  identical"
    print(header)
    for name, cfg in configs(args.horizon):
        kernel_args = _kernel_inputs(cfg)
        t_py, traj_py, _ = time_kernel(_kernels.simulate_slots_py, kernel_args, args.repeat)
        t_vec, traj_vec, passes = time_kernel(_kernels.simulate_slots_vec, kernel_args, args.repeat)
        same = np.array_equal(traj_py, traj_vec)
        jit_ms = "n/a"
        if jit is not None:
            t_jit, traj_jit, _ = time_kernel(jit, kernel_args, args.repeat)
            jit_ms = f"{t_jit * 1e3:.2f}"
            same = same and np.array_equal(traj_py, traj_jit)
        passes = "loop" if passes is None else passes
        print(f"{name:<24}{t_py * 1e3:>10.2f}{t_vec * 1e3:>10.2f}{passes:>8}{jit_ms:>10}  {same}")
    if jit is None:
        print("numba unavailable (not installed or BCSTAB_NO_NUMBA set): no jit column")


if __name__ == "__main__":
    main()
