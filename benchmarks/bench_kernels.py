"""Time the queue recursion (slot loop and solver) and split one run() into its layers.

Usage:
    python benchmarks/bench_kernels.py [--horizon 200000] [--repeat 5]

Runs from a checkout without installing: the checkout's ``src/`` is put
first on the import path.

Both recursion paths consume identical pre-drawn arrivals and success
events and produce a bit-identical trajectory (checked here). Each config
also splits one whole ``run()`` into four parts: the draw and the success
events (``sim._kernel_inputs``), the recursion (the solver), the two drift
slope fits (``sim._fit_slope`` on each queue's post-warmup trajectory), and
the rest of the statistics (verdicts, counts), taken as the run's median
less the other three medians. The configs cover coupled queues inside the
region and at 0.98x the analytic frontier, where the solver needs the most
Picard passes, and both dominant modes.
"""

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bcstab import (
    RatePoint,
    SimConfig,
    SuccessProfile,
    SystemParams,
    boundary_scale,
    region_for_params,
    run,
)
from bcstab import _kernels
from bcstab.sim import _fit_slope, _kernel_inputs


def median_time(fn, args, repeat):
    """Median wall time of ``repeat`` calls of fn(*args) and the last call's result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


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

    print(f"{args.horizon} slots, median of {args.repeat}, milliseconds")
    print(f"{'config':<24}{'loop':>9}{'solver':>9}{'passes':>8}"
          f"{'run':>9}{'inputs':>9}{'fit':>9}{'rest':>9}  identical")
    for name, cfg in configs(args.horizon):
        t_inputs, kernel_args = median_time(_kernel_inputs, (cfg,), args.repeat)
        t_loop, (q_loop, _) = median_time(_kernels.simulate_slots_py, kernel_args, args.repeat)
        t_solve, (q, passes) = median_time(_kernels.simulate_slots, kernel_args, args.repeat)
        post = q[:, cfg.warmup:cfg.horizon]
        t_fit, _ = median_time(lambda: (_fit_slope(post[0]), _fit_slope(post[1])), (),
                               args.repeat)
        t_run, _ = median_time(run, (cfg,), args.repeat)
        t_rest = t_run - t_inputs - t_solve - t_fit
        passes = "loop" if passes is None else passes
        print(f"{name:<24}{t_loop * 1e3:>9.2f}{t_solve * 1e3:>9.2f}{passes:>8}"
              f"{t_run * 1e3:>9.2f}{t_inputs * 1e3:>9.2f}{t_fit * 1e3:>9.2f}{t_rest * 1e3:>9.2f}"
              f"  {np.array_equal(q, q_loop)}")


if __name__ == "__main__":
    main()
