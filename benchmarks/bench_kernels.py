"""Time the compiled vs pure-Python simulation kernel on one workload.

Usage:
    python benchmarks/bench_kernels.py [--horizon 200000] [--repeat 5]

Both paths consume identical pre-drawn arrivals and success events and
produce bit-identical trajectories; this script only measures the slot loop
itself (drawing, the success events and the statistics are shared by both
paths in normal use).
"""

import argparse
import time

import numpy as np

from bcstab import RatePoint, SimConfig, SystemParams
from bcstab import _kernels
from bcstab.sim import _kernel_inputs


def time_kernel(fn, kernel_args, repeat):
    best = float("inf")
    for _ in range(repeat):
        qtraj = np.zeros((kernel_args[0].shape[0] + 1, 2), dtype=np.int64)
        t0 = time.perf_counter()
        fn(*kernel_args, qtraj)
        best = min(best, time.perf_counter() - t0)
    return best, qtraj


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=200_000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    params = SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "fixed")
    cfg = SimConfig(RatePoint(0.3, 0.6), params, horizon=args.horizon, seed=1234)
    kernel_args = _kernel_inputs(cfg)

    t_py, traj_py = time_kernel(_kernels.simulate_slots_py, kernel_args, args.repeat)
    print(f"pure python : {t_py * 1e3:9.2f} ms / run  ({args.horizon} slots)")

    if _kernels.simulate_slots_jit is None:
        print("numba       : unavailable (not installed or BCSTAB_NO_NUMBA set)")
        return

    # compile outside the timed region
    n_warm = min(args.horizon, 1000)
    warm_args = (*(col[:n_warm] for col in kernel_args[:5]), *kernel_args[5:])
    time_kernel(_kernels.simulate_slots_jit, warm_args, 1)
    t_jit, traj_jit = time_kernel(_kernels.simulate_slots_jit, kernel_args, args.repeat)
    print(f"numba njit  : {t_jit * 1e3:9.2f} ms / run")
    print(f"speedup     : {t_py / t_jit:9.1f}x")
    print(f"bit-identical trajectories: {np.array_equal(traj_py, traj_jit)}")


if __name__ == "__main__":
    main()
