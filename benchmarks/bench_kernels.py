"""Time the reference slot loop, split one run() into its layers, split the
fading Monte Carlo into its draws and its events, and time boundary-search
rays with their work counted.

Usage:
    python benchmarks/bench_kernels.py [--horizon 200000 ...] [--repeat 5]
                                       [--json BENCH_label.json]

Runs from a checkout without installing: the checkout's ``src/`` is put
first on the import path, and ``tests/`` after it for the reference draw
(which needs the test dependencies, pytest and hypothesis).

The slot loop and the solver consume identical pre-drawn arrivals and
success events and produce a bit-identical trajectory (checked here, with
the solver's Picard pass count). Each config also splits one whole
``run()`` into five parts, each timed directly, one after the other in the
same iteration, so none can read negative: the draw and the success events
(``sim._kernel_inputs``, block by block), the recursion (the solver), the
two exact drift slopes (``fit``: ``sim._drift_slope`` on each queue's
post-warmup trajectory), the two verdicts given those slopes
(``verdicts``: ``sim._verdict`` on each queue), and the rest of the
statistics (``rest``: ``sim._summarise``, counts and rates). ``run`` is
taken over the per-iteration sums of the five. A boundary-search probe is
``sim._solve``: every part but ``rest``. ``draw_whole`` times the
reference whole-array draw of the same randomness (``whole_array_draw`` in
``tests/test_sim.py``: two ``(horizon, 2)`` float64 arrays), which the
blocked ``inputs`` replaced, so the draw's share stays visible.
``events_raw`` and ``events`` time the four success-event columns of those
draws, each user's in a contiguous row as a run has them, from the raw
inequalities (``channel._raw_events``) and from the per-parameter
thresholds that ``success_events`` compares with (thresholds cached, as in
any run after the first). The configs cover coupled queues inside the
region and at 0.98x the analytic frontier, where the solver needs the most
Picard passes, and both dominant modes; each horizon given is timed.

The ``mc`` rows split ``mc_estimate_profile`` at 1e7 draws on the fixed
IAN and SC configs: ``draws`` is the exponential draws alone, ``events``
the threshold events and their counts, ``events_raw`` the four raw events
and their counts on as many draws (user 1's blocks stand for both users),
and ``call`` one whole call. The split replays the call's loop through its
private names, so each ``mc`` row's ``identical`` says whether the split's
threshold-event counts equal ``round(p * MC_DRAWS)`` of the call's
estimates ``p``: false means the split timed a different loop.

The ``estimate_boundary`` rows time one 45 degree ray per configuration
(the three named ones of the acceptance suite and the generic profile) at
40k slots and 8 steps, as ``compare-boundary`` runs it, in ``ray``. One
more call with counting wrappers gives the ray's ``probes`` (solver
calls, retries included), ``channel_draws`` (kernel inputs drawn in full,
not from the ray's shared success events) and ``lindley`` (single-queue
Lindley solves). The wrappers take any arguments, so the layer also runs
against code whose probes draw everything.

Every column is timed ``--repeat`` times and reported as the median, with
the best (fastest) time beside it as ``<column>_best``. Every config and
Monte Carlo call uses the seed ``SEED``. ``--json`` writes every median and
best, in milliseconds, with the Python and numpy versions, the CPU count,
the horizons, the seed and the backend.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bcstab import (
    RatePoint,
    SimConfig,
    SuccessProfile,
    SystemParams,
    boundary_scale,
    estimate_boundary,
    region_for_params,
)
from bcstab import _kernels, channel, sim
from bcstab.sim import SLOPE_THRESHOLD, _drift_slope, _kernel_inputs, _summarise, _verdict
from test_sim import whole_array_draw


def repeat_times(fn, args, repeat):
    """Wall times of ``repeat`` calls of fn(*args) and the last call's result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return times, out


def summary(columns, samples):
    """Median and best of each column's times, in milliseconds."""
    row = {}
    for column, times in zip(columns, samples):
        row[column] = round(statistics.median(times) * 1e3, 4)
        row[f"{column}_best"] = round(min(times) * 1e3, 4)
    return row


def print_row(name, prefix, columns, row, suffix=""):
    print(f"{name:<24}{prefix}" + "".join(f"{row[c]:>11.2f}" for c in columns) + suffix)
    print(f"{'  best':<24}{'':>{len(prefix)}}" + "".join(f"{row[c + '_best']:>11.2f}" for c in columns))


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def split_run(cfg):
    """One run() made phase by phase, each phase timed; returns the times in seconds."""
    t_inputs, inputs = timed(_kernel_inputs, cfg)
    t_solve, (q, _) = timed(_kernels.simulate_slots, *inputs)
    t_fit, slopes = timed(lambda: [_drift_slope(row[cfg.warmup:cfg.horizon]) for row in q])
    t_verdicts, verdicts = timed(lambda: [_verdict(row, cfg.warmup, slope, SLOPE_THRESHOLD)
                                          for row, slope in zip(q, slopes)])
    t_rest, _ = timed(_summarise, cfg, inputs, q, slopes, verdicts)
    return t_inputs, t_solve, t_fit, t_rest, t_verdicts


SEED = 1234
PARAMS = SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "fixed")
NEAR_FRONTIER = [
    ("ian", 45.0, SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed")),
    ("generic", 60.0, SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "generic", "fixed",
                                   generic_profile=SuccessProfile(0.9, 0.8, 0.3, 0.5))),
]


def configs(horizon):
    inside = RatePoint(0.3, 0.6)
    yield "sc coupled (0.3, 0.6)", SimConfig(inside, PARAMS, horizon=horizon, seed=SEED)
    for name, angle, params in NEAR_FRONTIER:
        scale = 0.98 * boundary_scale(region_for_params(params), angle)
        near = RatePoint(scale * math.cos(math.radians(angle)), scale * math.sin(math.radians(angle)))
        yield f"{name} coupled 0.98x", SimConfig(near, params, horizon=horizon, seed=SEED)
    for mode in ("queue1", "queue2"):
        yield f"sc dominant {mode}", SimConfig(inside, PARAMS, horizon=horizon, seed=SEED,
                                              dominant_mode=mode)


def draw_and_event_times(cfg, repeat):
    """Times of the whole-array draw, and of the raw and the threshold
    success events on its channel draws."""
    t_draw, (_, chan) = repeat_times(whole_array_draw, (cfg,), repeat)
    # each user's draws in a contiguous row, as a run compares them
    columns = (cfg.params, *np.ascontiguousarray(chan.T))
    channel.success_events(*columns)  # the thresholds are found once per parameter set
    t_raw, _ = repeat_times(channel._raw_events, columns, repeat)
    t_threshold, _ = repeat_times(channel.success_events, columns, repeat)
    return t_draw, t_raw, t_threshold


MC_DRAWS = 10_000_000
MC_PARAMS = {
    "ian fixed": SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed"),
    "sc fixed": PARAMS,
}


def split_mc(params):
    """mc_estimate_profile's loop with its draws and its events timed apart,
    and the raw events on the same blocks; returns the three times in
    seconds and the four threshold-event counts."""
    rng = np.random.default_rng(SEED)
    thresholds = channel._thresholds(params)
    buf = np.empty(channel._MC_BLOCK)
    t_draws = t_events = t_raw = 0.0
    counts = [0, 0, 0, 0]
    for start in range(0, MC_DRAWS, channel._MC_CHUNK):
        n = min(MC_DRAWS - start, channel._MC_CHUNK)
        for user in (1, 2):
            for lo in range(0, n, channel._MC_BLOCK):
                t0 = time.perf_counter()
                gains = rng.standard_exponential(out=buf[:min(channel._MC_BLOCK, n - lo)])
                t1 = time.perf_counter()
                for event, success in channel._user_events(thresholds, user, gains):
                    counts[event] += int(np.count_nonzero(success))
                t2 = time.perf_counter()
                if user == 1:  # all four raw events, each read from one draw
                    for success in channel._raw_events(params, gains, gains):
                        np.count_nonzero(success)
                t_draws += t1 - t0
                t_events += t2 - t1
                t_raw += time.perf_counter() - t2
    return t_draws, t_events, t_raw, counts


BOUNDARY = dict(angle=45.0, horizon=40_000, steps=8)
BOUNDARY_PARAMS = {
    "ian fixed": MC_PARAMS["ian fixed"],
    "sc fixed": PARAMS,
    "sc adaptive": SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "adaptive"),
    "generic": NEAR_FRONTIER[1][2],
}


def ray(params):
    return estimate_boundary(params, BOUNDARY["angle"], steps=BOUNDARY["steps"],
                             horizon=BOUNDARY["horizon"], seed=SEED)


def ray_work(params):
    """One ray's probes, full kernel-input draws and Lindley solves."""
    with mock.patch.object(_kernels, "simulate_slots", wraps=_kernels.simulate_slots) as solves, \
            mock.patch.object(sim, "_kernel_inputs", wraps=sim._kernel_inputs) as inputs, \
            mock.patch.object(_kernels, "_lindley", wraps=_kernels._lindley) as lindley:
        ray(params)
    draws = sum(len(call.args) < 2 or call.args[1] is None for call in inputs.call_args_list)
    return dict(probes=solves.call_count, channel_draws=draws, lindley=lindley.call_count)


def environment(args):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "horizons": args.horizon,
        "seed": SEED,
        "repeat": args.repeat,
        "backend": "numpy",
        "mc_draws": MC_DRAWS,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--horizon", type=int, nargs="+", default=[200_000])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", help="write the medians, the bests and the environment to this file")
    args = ap.parse_args()

    columns = ("loop", "run", "inputs", "solve", "fit", "rest", "verdicts", "draw_whole",
               "events_raw", "events")
    results = {"environment": environment(args), "unit": "ms", "runs": {}, "mc": {},
               "estimate_boundary": {}}
    for horizon in args.horizon:
        print(f"{horizon} slots, median and best of {args.repeat}, milliseconds")
        print(f"{'config':<24}{'passes':>8}" + "".join(f"{c:>11}" for c in columns) + "  identical")
        for name, cfg in configs(horizon):
            kernel_args = _kernel_inputs(cfg)
            t_loop, (q_loop, _) = repeat_times(_kernels.simulate_slots_py, kernel_args, args.repeat)
            q, passes = _kernels.simulate_slots(*kernel_args)
            splits = [split_run(cfg) for _ in range(args.repeat)]
            t_run = [sum(split) for split in splits]
            row = summary(columns, [t_loop, t_run, *zip(*splits),
                                     *draw_and_event_times(cfg, args.repeat)])
            passes = "loop" if passes is None else passes
            row.update(passes=passes, identical=bool(np.array_equal(q, q_loop)))
            results["runs"].setdefault(str(horizon), {})[name] = row
            print_row(name, f"{passes:>8}", columns, row, f"  {row['identical']}")

    mc_columns = ("call", "draws", "events", "events_raw")
    print(f"\nmc_estimate_profile, {MC_DRAWS} draws, median and best of {args.repeat}, milliseconds")
    print(f"{'config':<24}" + "".join(f"{c:>11}" for c in mc_columns) + "  identical")
    for name, params in MC_PARAMS.items():
        t_call, est = repeat_times(channel.mc_estimate_profile, (params, MC_DRAWS, SEED),
                                   args.repeat)
        splits = [split_mc(params) for _ in range(args.repeat)]
        row = summary(mc_columns, [t_call, *zip(*(split[:3] for split in splits))])
        counts = [round(p * MC_DRAWS) for p in est.as_tuple()]
        row["identical"] = all(split[3] == counts for split in splits)
        results["mc"][name] = row
        print_row(name, "", mc_columns, row, f"  {row['identical']}")

    print(f"\nestimate_boundary, {BOUNDARY['angle']} degrees, {BOUNDARY['horizon']} slots, "
          f"{BOUNDARY['steps']} steps, median and best of {args.repeat}, milliseconds")
    print(f"{'config':<24}{'ray':>11}{'probes':>8}{'draws':>8}{'lindley':>8}")
    for name, params in BOUNDARY_PARAMS.items():
        row = summary(("ray",), [repeat_times(ray, (params,), args.repeat)[0]])
        row.update(ray_work(params))
        results["estimate_boundary"][name] = row
        print(f"{name:<24}{row['ray']:>11.2f}{row['probes']:>8}{row['channel_draws']:>8}"
              f"{row['lindley']:>8}")
        print(f"{'  best':<24}{row['ray_best']:>11.2f}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
