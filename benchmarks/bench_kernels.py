"""Time the reference slot loop, split one run() into its layers, split the
fading Monte Carlo into its draws and its events, and time boundary-search
rays and simulated sweeps with their work counted.

Usage:
    python benchmarks/bench_kernels.py [--horizon 200000 ...] [--repeat 5]
                                       [--json BENCH_label.json]

Runs from a checkout without installing: the checkout's ``src/`` is put
first on the import path, and ``tests/`` after it for the reference draw
(which needs the test dependencies, pytest and hypothesis).

The slot loop and the solver consume identical pre-drawn arrivals and
success events, as a batch of one run, and produce a bit-identical
trajectory (checked here, with the solver's Picard pass count). Each
config also splits one whole ``run()`` into five parts, each timed
directly, one after the other in the same iteration, so none can read
negative: the draw and the success events (``sim._kernel_inputs``: the
path's draw, ``sim._path``, and the arrival flags), the recursion (the
solver), the two exact drift slopes (``fit``: ``sim._drift_slopes`` on both
queues' post-warmup trajectories), the two verdicts given those slopes
(``verdicts``: ``sim._verdicts``), and the rest of the statistics
(``rest``: ``sim._summarise``, counts and rates). ``run`` is taken over the
per-iteration sums of the five. A boundary-search probe is ``sim._solve``:
every part but ``rest``. ``lindley`` times one Lindley row-solve
(``_kernels._lindley`` on one row) of queue 1's service column at the
solved trajectory, the column the solver's last pass solves, so it is the
queue-recursion layer on its own; a row is ``identical`` when that solve
also reproduces queue 1's trajectory.
``draw_whole`` times the reference whole-array draw of the same randomness
(``whole_array_draw`` in ``tests/test_sim.py``: two ``(horizon, 2)``
float64 arrays), which the blocked draw replaced, so the draw's
share stays visible.
``events_raw`` and ``events`` time the four success-event columns of those
draws, each user's in a contiguous row as a run has them, from the raw
inequalities (``channel._raw_events``) and from the per-parameter
thresholds that ``success_events`` compares with (thresholds cached, as in
any run after the first). The configs cover coupled queues inside the
region and at 0.98x the analytic frontier, where the solver needs the most
Picard passes, and both dominant modes; each horizon given is timed. The
``sc coupled (0.3, 0.6)`` row keeps its name so BENCH files stay
comparable, but fixed SC is a decoupled profile: queue 1's shared-slot
events equal its solo ones (an empty flip column), so the solver takes
two Lindley solves and one pass there, as in a dominant mode.

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
more call with counting wrappers gives the ray's ``probes`` (solver calls:
``1 + steps``, so 9), ``channel_draws`` (calls of ``sim._channel_events``:
1, the ray's held path), ``arrival_draws`` (draws of a path's arrival
uniforms, ``sim._arrival_uniforms``: 1, the ray's held draw) and
``lindley`` (Lindley row-solves, one per queue solved; ``2 * probes`` on the
decoupled ``sc fixed`` ray).

The ``sweep`` rows time one in-process ``bcstab sweep --simulate --grid 7
--horizon 20000 --workers 2`` per configuration of the ``estimate_boundary``
rows, output discarded, in ``ms``. As many more calls, with timing
wrappers, split the time its runs spend into ``inputs``
(``sim._kernel_inputs``), ``solve`` (the queue solver,
``_kernels.simulate_slots``) and ``stats`` (the slopes and verdicts in
``sim._solve``, and ``sim._summarise``). One more call, with the counting
wrappers, gives its ``channel_draws`` and ``arrival_draws``: every cell is
the run at the sweep's seed, so its path's events and arrival uniforms are
each drawn once, before the workers start. It also gives the sweep's
``batches`` (solver calls) and ``lindley`` (Lindley row-solves), next to
``lindley_cold``, the row-solves of the same cells made one by one by
``run()``, each starting its Picard passes from the all-busy column: a
sweep solves its cells in batches of a strip's columns, each cell starting
from the cell above it (``sim.run_batch``), so it makes fewer row-solves
wherever the queues are coupled. Its 20k-slot runs are shorter than
``sim._POOL_HORIZON``, so they run in the calling thread; the flag stays
so that the rows compare with earlier BENCH files.

Every column is timed ``--repeat`` times and reported as the median, with
the best (fastest) time beside it as ``<column>_best``. Every config and
Monte Carlo call uses the seed ``SEED``. ``--json`` writes every median and
best, in milliseconds, with the Python and numpy versions, the CPU count,
the horizons, the seed and the backend.
"""

import argparse
import contextlib
import io
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
from bcstab import _kernels, channel, cli, sim
from bcstab.sim import SLOPE_THRESHOLD, _drift_slopes, _kernel_inputs, _summarise, _verdicts
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


def queue1_service(kernel_args, q):
    """Queue 1's service column given queue 2's solved busy column."""
    _, solo1, _, both1, _ = kernel_args
    return solo1 ^ ((q[:, 1, :-1] > 0) & (solo1 ^ both1))


def split_run(cfg):
    """One run() made phase by phase, each phase timed; returns the times in
    seconds."""
    t_inputs, inputs = timed(_kernel_inputs, [cfg])
    t_solve, (q, _) = timed(_kernels.simulate_slots, *inputs)
    lines = q.reshape(2, -1)
    t_fit, (slopes, sums) = timed(_drift_slopes, lines[:, cfg.warmup:cfg.horizon])
    t_verdicts, verdicts = timed(_verdicts, lines, cfg.warmup, slopes, SLOPE_THRESHOLD)
    t_rest, _ = timed(_summarise, [cfg], inputs, q, [tuple(slopes)], [tuple(verdicts)],
                      [tuple(sums)])
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
        for user in (0, 1):
            for lo in range(0, n, channel._MC_BLOCK):
                t0 = time.perf_counter()
                gains = rng.standard_exponential(out=buf[:min(channel._MC_BLOCK, n - lo)])
                t1 = time.perf_counter()
                for event in (user, user + 2):
                    counts[event] += int(np.count_nonzero(gains >= thresholds[event]))
                t2 = time.perf_counter()
                if user == 0:  # all four raw events, each read from one draw
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
    """One ray, as ``compare-boundary`` makes it."""
    return estimate_boundary(params, BOUNDARY["angle"], steps=BOUNDARY["steps"],
                             horizon=BOUNDARY["horizon"], seed=SEED)


@contextlib.contextmanager
def counted_draws():
    """Yield two lists, appended to per draw made inside: the first per draw
    of a path's success events (``sim._channel_events``), the second per
    draw of its arrival uniforms (``sim._arrival_uniforms``). The helper and
    worker threads may draw; a list append is atomic."""
    channel_draws, arrival_draws = [], []
    events, uniforms = sim._channel_events, sim._arrival_uniforms

    def counted_events(params, horizon, seed):
        channel_draws.append(seed)
        return events(params, horizon, seed)

    def counted_uniforms(horizon, seed):
        arrival_draws.append(seed)
        return uniforms(horizon, seed)

    with mock.patch.object(sim, "_channel_events", counted_events), \
            mock.patch.object(sim, "_arrival_uniforms", counted_uniforms):
        yield channel_draws, arrival_draws


@contextlib.contextmanager
def counted_solves():
    """Yield a dict counting the solver's ``batches`` (calls of
    ``_kernels.simulate_slots``) made inside and its Lindley row-solves
    (``lindley``: one per run and queue solved, the rows of each
    ``_kernels._lindley`` call)."""
    counts = dict(batches=0, lindley=0)
    solve, lindley = _kernels.simulate_slots, _kernels._lindley

    def counted_solve(*args, **kwargs):
        counts["batches"] += 1
        return solve(*args, **kwargs)

    def counted_lindley(arrivals, service, q):
        counts["lindley"] += arrivals.size // arrivals.shape[-1]  # rows, of any leading shape
        return lindley(arrivals, service, q)

    with mock.patch.object(_kernels, "simulate_slots", counted_solve), \
            mock.patch.object(_kernels, "_lindley", counted_lindley):
        yield counts


def ray_work(params):
    """One ray's probes, channel and arrival draws and Lindley solves."""
    with counted_solves() as counts, counted_draws() as (channel_draws, arrival_draws):
        ray(params)
    return dict(probes=counts["batches"], channel_draws=len(channel_draws),
                arrival_draws=len(arrival_draws), lindley=counts["lindley"])


SWEEP = ["sweep", "--simulate", "--grid", "7", "--horizon", "20000", "--workers", "2",
         "--seed", str(SEED)]


def cli_flags(params):
    """The ``bcstab`` flags that select ``params``."""
    if params.decoding is channel.Decoding.GENERIC:
        return ["--scheme", "generic",
                "--profile", ",".join(map(repr, params.generic_profile.as_tuple()))]
    flags = ["--scheme", params.decoding.value, "--power", params.power_scheme.value,
             "--gamma1-db", repr(10 * math.log10(params.gamma1)),
             "--gamma2-db", repr(10 * math.log10(params.gamma2))]
    for name in ("d1", "d2", "alpha", "p_total", "p1", "p2"):
        flags += ["--" + name.replace("_", "-"), repr(getattr(params, name))]
    return flags


def sweep(argv):
    """One in-process CLI sweep, output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"bcstab {' '.join(argv)} exited {status}")


def sweep_work(argv):
    """One sweep's channel and arrival draws, its batches and Lindley
    row-solves, and the row-solves of its cells made one by one as
    ``run()`` makes them, each from the all-busy column (``lindley_cold``)."""
    with counted_draws() as (channel_draws, arrival_draws), counted_solves() as counts, \
            mock.patch.object(cli, "run_batch", wraps=cli.run_batch) as batch:
        sweep(argv)
    with counted_solves() as cold:
        for config in batch.call_args.args[0]:
            sim.run(config)
    return dict(channel_draws=len(channel_draws), arrival_draws=len(arrival_draws), **counts,
                lindley_cold=cold["lindley"])


def sweep_layers(argv):
    """The time one sweep's runs spent in three layers, in seconds:
    ``inputs`` (``sim._kernel_inputs``), ``solve`` (the queue solver,
    ``_kernels.simulate_slots``) and ``stats`` (the rest of ``sim._solve``,
    the slopes and verdicts, and ``sim._summarise``)."""
    spent = dict(inputs=0.0, solve=0.0, stats=0.0)

    def timer(fn, *layers):
        def timed_call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            for layer, sign in layers:
                spent[layer] += sign * (time.perf_counter() - t0)
            return out
        return timed_call

    with mock.patch.object(sim, "_kernel_inputs",
                           timer(sim._kernel_inputs, ("inputs", 1), ("stats", -1))), \
            mock.patch.object(_kernels, "simulate_slots",
                              timer(_kernels.simulate_slots, ("solve", 1), ("stats", -1))), \
            mock.patch.object(sim, "_solve", timer(sim._solve, ("stats", 1))), \
            mock.patch.object(sim, "_summarise", timer(sim._summarise, ("stats", 1))):
        sweep(argv)
    return spent["inputs"], spent["solve"], spent["stats"]


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

    columns = ("loop", "run", "inputs", "solve", "fit", "rest", "verdicts", "lindley",
               "draw_whole", "events_raw", "events")
    results = {"environment": environment(args), "unit": "ms", "runs": {}, "mc": {},
               "estimate_boundary": {}, "sweep": {}}
    for horizon in args.horizon:
        print(f"{horizon} slots, median and best of {args.repeat}, milliseconds")
        print(f"{'config':<24}{'passes':>8}" + "".join(f"{c:>11}" for c in columns) + "  identical")
        for name, cfg in configs(horizon):
            kernel_args = _kernel_inputs([cfg])
            t_loop, (q_loop, _) = repeat_times(_kernels.simulate_slots_py, kernel_args, args.repeat)
            q, [passes] = _kernels.simulate_slots(*kernel_args)
            splits = [split_run(cfg) for _ in range(args.repeat)]
            t_run = [sum(split) for split in splits]
            q1 = np.zeros((1, horizon + 1), dtype=np.int32)
            t_lindley, _ = repeat_times(
                _kernels._lindley, (kernel_args[0][:, 0], queue1_service(kernel_args, q), q1),
                args.repeat)
            row = summary(columns, [t_loop, t_run, *zip(*splits), t_lindley,
                                     *draw_and_event_times(cfg, args.repeat)])
            passes = "loop" if passes is None else passes
            row.update(passes=passes, identical=bool(np.array_equal(q, q_loop)
                                                     and np.array_equal(q1, q[:, 0])))
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
    print(f"{'config':<24}{'ray':>11}{'probes':>8}{'channel':>8}{'arrival':>8}{'lindley':>8}")
    for name, params in BOUNDARY_PARAMS.items():
        row = summary(("ray",), [repeat_times(ray, (params,), args.repeat)[0]])
        row.update(ray_work(params))
        results["estimate_boundary"][name] = row
        print(f"{name:<24}{row['ray']:>11.2f}{row['probes']:>8}{row['channel_draws']:>8}"
              f"{row['arrival_draws']:>8}{row['lindley']:>8}")
        print(f"{'  best':<24}{row['ray_best']:>11.2f}")

    sweep_columns = ("ms", "inputs", "solve", "stats")
    counts = ("channel_draws", "arrival_draws", "batches", "lindley", "lindley_cold")
    print(f"\nbcstab {' '.join(SWEEP)}, median and best of {args.repeat}, milliseconds")
    print(f"{'config':<24}" + "".join(f"{c:>11}" for c in sweep_columns)
          + "".join(f"{c.split('_')[0]:>9}" for c in counts[:2])
          + "".join(f"{c:>13}" for c in counts[2:]))
    for name, params in BOUNDARY_PARAMS.items():
        argv = [*SWEEP, *cli_flags(params)]
        t_sweep = repeat_times(sweep, (argv,), args.repeat)[0]
        layers = [sweep_layers(argv) for _ in range(args.repeat)]
        row = summary(sweep_columns, [t_sweep, *zip(*layers)])
        row.update(sweep_work(argv))
        results["sweep"][name] = row
        print_row(name, "", sweep_columns, row, "".join(f"{row[c]:>9}" for c in counts[:2])
                  + "".join(f"{row[c]:>13}" for c in counts[2:]))

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
