"""Time the reference slot loop and split one run() into its layers.

Usage:
    python benchmarks/bench_kernels.py [--horizon 200000] [--repeat 5]

Runs from a checkout without installing: the checkout's ``src/`` is put
first on the import path.

The slot loop and the solver consume identical pre-drawn arrivals and
success events and produce a bit-identical trajectory (checked here, with
the solver's Picard pass count). Each config also splits one whole
``run()`` into four parts, each timed directly, one after the other in the
same iteration, so none can read negative: the draw and the success events
(``sim._kernel_inputs``), the recursion (the solver), the two drift slope
fits (``sim._fit_slope`` on each queue's post-warmup trajectory), and the
rest of the statistics (``sim._summarise``: counts, rates, verdicts).
``run`` is the median of the per-iteration sums of the four. ``verdicts``
times what a boundary-search probe does after the solve in place of the
fits and the rest: ``classify_stability`` on both queues. The configs cover
coupled queues inside the region and at 0.98x the analytic frontier, where
the solver needs the most Picard passes, and both dominant modes.
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
    classify_stability,
    region_for_params,
)
from bcstab import _kernels
from bcstab.sim import _fit_slope, _kernel_inputs, _summarise


def median_time(fn, args, repeat):
    """Median wall time of ``repeat`` calls of fn(*args) and the last call's result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def split_run(cfg):
    """One run() made phase by phase, each phase timed; returns the times in seconds."""
    t_inputs, inputs = timed(_kernel_inputs, cfg)
    t_solve, (q, _) = timed(_kernels.simulate_slots, *inputs)
    t_fit, slopes = timed(lambda: [_fit_slope(row[cfg.warmup:cfg.horizon]) for row in q])
    t_rest, _ = timed(_summarise, cfg, inputs, q, slopes)
    t_verdicts, _ = timed(lambda: [classify_stability(row, cfg.warmup) for row in q])
    return t_inputs, t_solve, t_fit, t_rest, t_verdicts


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
    print(f"{'config':<24}{'loop':>9}{'passes':>8}{'run':>9}{'inputs':>9}{'solve':>9}"
          f"{'fit':>9}{'rest':>9}{'verdicts':>10}  identical")
    for name, cfg in configs(args.horizon):
        kernel_args = _kernel_inputs(cfg)
        t_loop, (q_loop, _) = median_time(_kernels.simulate_slots_py, kernel_args, args.repeat)
        q, passes = _kernels.simulate_slots(*kernel_args)
        splits = [split_run(cfg) for _ in range(args.repeat)]
        t_run = statistics.median(sum(split[:4]) for split in splits)
        parts = [statistics.median(column) for column in zip(*splits)]
        passes = "loop" if passes is None else passes
        print(f"{name:<24}{t_loop * 1e3:>9.2f}{passes:>8}{t_run * 1e3:>9.2f}"
              + "".join(f"{t * 1e3:>9.2f}" for t in parts[:4]) + f"{parts[4] * 1e3:>10.2f}"
              + f"  {np.array_equal(q, q_loop)}")


if __name__ == "__main__":
    main()
