"""Time the reference slot loop, split one run() into its layers, split the
fading Monte Carlo into its draws and its events, and time boundary-search
rays and simulated sweeps with their work counted.

Usage:
    python benchmarks/bench_kernels.py [--horizon 200000 ...] [--repeat 5]
                                       [--json BENCH_label.json]

Runs from a checkout without installing (the checkout's ``src/`` is put
first on the import path) and needs only numpy.

Every split and count is taken on the library's own calls: ``watched``
wraps named library functions for the length of a block and sums, per
function, the seconds spent in its calls, the calls made (rows, for
``_kernels._lindley``) and the minor page faults taken during them
(``ru_minflt`` of the whole process, so a call also counts the faults of
threads that run beside it, such as the helper thread's draw of the path's
events inside ``sim._kernel_inputs``). ``run()`` calls the four layers of
``LAYERS`` one after another, never one inside another:

    inputs    sim._kernel_inputs       the path's draw (sim._path), arrival flags
    solve     _kernels.simulate_slots  the queue recursion (the solver)
    judge     sim._judge               both queues' exact drift slopes and verdicts
    rest      sim._summarise           counts and rates

``judge`` is one call that fits the slopes and gives the verdicts, so the
``fit`` and ``verdicts`` columns of earlier BENCH files are its one column.

The slot loop and the solver consume identical pre-drawn arrivals and
success events, as a batch of one run, the loop slot-major and the solver
in its block-major layout (``_kernels.slot_major`` converts), and produce
bit-identical queue lengths (checked here, in the solver's layout, with the
solver's Picard pass count). Each config's ``runs`` row holds the four
layers of a watched ``run()``, with ``run`` taken over the per-call sums of
the four and
``faults`` the minor page faults of each layer per call. ``lindley`` times
one Lindley row-solve (``_kernels._lindley`` on one row, in the solver's
layout, as a Picard pass makes it: the scan and the busy column it hands
on, without a trajectory) of queue 1's service column at the solved busy
columns, the column the solver's last pass solves, so it is the
queue-recursion layer on its own; a row is ``identical`` when that solve's
lengths, ``r8 + a - excess`` as at a fixed point, also reproduce queue 1's.
``draw_whole`` times the
reference whole-array draw of the same randomness (two ``(horizon, 2)``
float64 arrays from one generator), which the blocked draw replaced, so the
draw's share stays visible. ``events_raw`` and ``events`` time the four
success-event columns of those draws, each user's in a contiguous row as a
run has them, from the raw inequalities (``channel._raw_events``) and from
the per-parameter thresholds that ``success_events`` compares with
(thresholds cached, as in any run after the first). The configs cover
coupled queues inside the region and at 0.98x the analytic frontier, where
the solver needs the most Picard passes, and both dominant modes; each
horizon given is timed. The ``sc coupled (0.3, 0.6)`` row keeps its name so
BENCH files stay comparable, but fixed SC is a decoupled profile: queue 1's
shared-slot events equal its solo ones (an empty flip column), so the
solver takes two Lindley solves and one pass there, as in a dominant mode.

The ``mc`` rows split ``mc_estimate_profile`` at 1e7 draws on the fixed
IAN and SC configs: ``draws`` is the exponential draws alone, ``events``
the threshold events and their counts, ``events_raw`` the four raw events
and their counts on as many draws (user 1's blocks stand for both users),
and ``call`` one whole call, with the minor page faults per call of each
in ``faults``. The call has no seams to watch, so the split replays its
loop through its private names, and each ``mc`` row's ``identical`` says
whether the split's threshold-event counts equal ``round(p * MC_DRAWS)``
of the call's estimates ``p``: false means the split timed a different
loop. The ``mc`` section starts by pinning glibc's heap as ``cli.main``
does (``cli._pin_heap``), since ``bcstab mc-verify`` runs on the pinned
heap: on glibc's dynamic heap ``events_raw``'s 256 KiB temporaries may be
mapped and unmapped per block, about 48 000 minor faults per call, or
not, depending on what the process ran before.

The ``estimate_boundary`` rows time one 45 degree ray per configuration
(the three named ones of the acceptance suite and the generic profile) at
40k slots and 8 steps, as ``compare-boundary`` runs it, in ``ray``, with
the minor page faults per call in ``faults``. One more call, watched over
``COUNTED``, gives the ray's ``probes`` (solver calls: ``1 + steps``, so
9), ``channel_draws`` (calls of ``sim._channel_events``: 1, the ray's held
path), ``arrival_draws`` (calls of ``sim._arrival_uniforms``: 1, the ray's
held draw), ``lindley`` (Lindley row-solves, one per queue solved;
``2 * probes`` on the decoupled ``sc fixed`` ray) and ``summaries`` (calls
of ``sim._summarise``: 0, since a probe builds no ``SimResult``).

The ``sweep`` rows time one in-process ``bcstab sweep --simulate --grid 7
--horizon 20000 --workers 2`` (``cli.main``) per configuration of the
``estimate_boundary`` rows, output discarded, in ``ms``, with the minor page
faults per call in ``faults``. As many more calls, watched over
``LAYERS``, split the time its runs spend into ``inputs``, ``solve`` and
``stats`` (judge and rest). A sweep judges its cells without the rest of
their statistics (``cli`` calls ``sim.batch_verdicts``), so its ``rest``
reads 0 and ``stats`` is the judge layer. One more call,
watched over ``COUNTED``, gives its ``channel_draws`` and
``arrival_draws``: every cell is the run at the sweep's seed, so its
path's events and arrival uniforms are each drawn once, before the workers
start. It also gives the sweep's ``batches`` (solver calls: 7, one per
rank of a grid-7 sweep's one strip), ``lindley`` (Lindley row-solves) and
``summaries`` (0), next to ``lindley_cold``, the row-solves of the same
cells made one by one by ``run()``, each starting its Picard passes from
the all-busy column: a sweep solves its cells in batches of a strip's
columns, each cell starting from the cell above it
(``sim.batch_verdicts``), so it makes fewer row-solves wherever the queues
are coupled. Its 20k-slot runs are shorter than ``sim._POOL_HORIZON``, so
they run in the calling thread; the flag stays so that the rows compare
with earlier BENCH files. The heap is pinned from the ``mc`` section on
(``cli._pin_heap``, which every ``cli.main`` call repeats), so only the
runs rows run on glibc's dynamic heap.

Every time is taken ``--repeat`` times and reported as the median, with
the best (fastest) time beside it as ``<column>_best``; fault counts are
the median call's (``statistics.median_low``). Every config and Monte Carlo
call uses the seed ``SEED``. ``--json`` writes every median and best, in
milliseconds, with the Python and numpy versions, the CPU count, the
horizons, the seed, the backend and the heap each section ran on.
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
import threading
import time
from collections import Counter
from pathlib import Path
from resource import RUSAGE_SELF, getrusage
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bcstab import (RatePoint, SimConfig, SuccessProfile, SystemParams, _kernels, boundary_scale,
                    channel, cli, region_for_params, sim)

LAYERS = {"inputs": (sim, "_kernel_inputs"), "solve": (_kernels, "simulate_slots"),
          "judge": (sim, "_judge"), "rest": (sim, "_summarise")}
COUNTED = {"channel_draws": (sim, "_channel_events"), "arrival_draws": (sim, "_arrival_uniforms"),
           "batches": (_kernels, "simulate_slots"), "lindley": (_kernels, "_lindley"),
           "summaries": (sim, "_summarise")}


@contextlib.contextmanager
def watched(targets):
    """Wrap each ``(module, name)`` of the dict ``targets`` for the block and
    yield, under the same keys, a ``Counter`` of each one's ``seconds``,
    ``calls`` and minor page ``faults``. A call of ``_kernels._lindley``
    counts its rows. The helper thread draws too, so the sums are taken
    under a lock."""
    lock = threading.Lock()
    spent = {key: Counter() for key in targets}

    def wrap(key, name, fn):
        def watched_call(*args, **kwargs):
            f0, t0 = getrusage(RUSAGE_SELF).ru_minflt, time.perf_counter()
            out = fn(*args, **kwargs)
            t, f = time.perf_counter() - t0, getrusage(RUSAGE_SELF).ru_minflt - f0
            calls = args[0].shape[0] if name == "_lindley" else 1
            with lock:
                spent[key].update(seconds=t, calls=calls, faults=f)
            return out
        return watched_call

    with contextlib.ExitStack() as stack:
        for key, (module, name) in targets.items():
            stack.enter_context(mock.patch.object(module, name, wrap(key, name, getattr(module, name))))
        yield spent


def watch(targets, fn, args, repeat):
    """``repeat`` calls of fn(*args), each watched over ``targets``: one
    ``watched`` dict per call."""
    calls = []
    for _ in range(repeat):
        with watched(targets) as spent:
            fn(*args)
        calls.append(spent)
    return calls


def seconds(calls, *keys):
    """Per watched call, the seconds spent in the ``keys`` together."""
    return [sum(spent[key]["seconds"] for key in keys) for spent in calls]


def faults(calls, key):
    """The median call's minor page faults in ``key``."""
    return statistics.median_low(spent[key]["faults"] for spent in calls)


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


def lindley_args(kernel_args, busy, horizon):
    """The arguments of the Lindley solve of queue 1 given queue 2's solved
    busy column, in the solver's layout, as a Picard pass makes it."""
    arrivals, solo1, _, both1, _ = kernel_args
    return (_kernels._shifted(arrivals[:, 0]), solo1 ^ (busy[:, 1] & (solo1 ^ both1)),
            _kernels.last_block_slots(horizon))


def lengths(kernel_args, solved):
    """Queue 1's lengths after each slot from its Lindley solve, ``r8 + a -
    excess``, in the solver's layout, as the solver writes them at a fixed
    point."""
    r8, excess, _ = solved
    return r8 + kernel_args[0][:, 0].astype(np.int64) - excess[:, None]


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


def whole_array_draw(cfg):
    """The reference draw of a run's randomness: ``(horizon, 2)`` arrival
    uniforms, then as many channel draws, from one generator of the seed."""
    rng = np.random.default_rng(cfg.seed)
    draw = rng.random if cfg.params.decoding is channel.Decoding.GENERIC else rng.standard_exponential
    return rng.random((cfg.horizon, 2)), draw((cfg.horizon, 2))


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


def mc_call(params):
    """One whole Monte Carlo call, as ``mc-verify`` makes it."""
    return channel.mc_estimate_profile(params, MC_DRAWS, SEED)


def split_mc(params):
    """mc_estimate_profile's loop with its draws and its events timed apart,
    and the raw events on the same blocks; returns each of the three's
    seconds and minor page faults, ``{column: [seconds, faults]}``, and the
    four threshold-event counts."""
    rng = np.random.default_rng(SEED)
    thresholds = channel._thresholds(params)
    buf = np.empty(channel._MC_BLOCK)
    spent = {column: [0.0, 0] for column in ("draws", "events", "events_raw")}
    counts = [0, 0, 0, 0]

    def mark(column, since):
        """Add the time and faults since ``since`` to ``column``; return now."""
        now = time.perf_counter(), getrusage(RUSAGE_SELF).ru_minflt
        spent[column][0] += now[0] - since[0]
        spent[column][1] += now[1] - since[1]
        return now

    for start in range(0, MC_DRAWS, channel._MC_CHUNK):
        n = min(MC_DRAWS - start, channel._MC_CHUNK)
        for user in (0, 1):
            for lo in range(0, n, channel._MC_BLOCK):
                t = time.perf_counter(), getrusage(RUSAGE_SELF).ru_minflt
                gains = rng.standard_exponential(out=buf[:min(channel._MC_BLOCK, n - lo)])
                t = mark("draws", t)
                for event in (user, user + 2):
                    counts[event] += int(np.count_nonzero(gains >= thresholds[event]))
                t = mark("events", t)
                if user == 0:  # all four raw events, each read from one draw
                    for success in channel._raw_events(params, gains, gains):
                        np.count_nonzero(success)
                    mark("events_raw", t)
    return spent, counts


BOUNDARY = dict(angle=45.0, horizon=40_000, steps=8)
BOUNDARY_PARAMS = {
    "ian fixed": MC_PARAMS["ian fixed"],
    "sc fixed": PARAMS,
    "sc adaptive": SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "adaptive"),
    "generic": NEAR_FRONTIER[1][2],
}


def ray(params):
    """One ray, as ``compare-boundary`` makes it."""
    return sim.estimate_boundary(params, BOUNDARY["angle"], steps=BOUNDARY["steps"],
                                 horizon=BOUNDARY["horizon"], seed=SEED)


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
    """One sweep's ``COUNTED`` calls, and the Lindley row-solves of its cells
    made one by one as ``run()`` makes them, each from the all-busy column
    (``lindley_cold``)."""
    with watched(COUNTED) as work, \
            mock.patch.object(cli, "batch_verdicts", wraps=cli.batch_verdicts) as batch:
        sweep(argv)
    with watched(COUNTED) as cold:
        for config in batch.call_args.args[0]:
            sim.run(config)
    return dict({key: spent["calls"] for key, spent in work.items()},
                lindley_cold=cold["lindley"]["calls"])


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
        "heap": "runs on glibc's dynamic heap; mc, estimate_boundary and sweep on the heap "
                "that cli._pin_heap pins before the mc section, as cli.main does",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--horizon", type=int, nargs="+", default=[200_000])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", help="write the medians, the bests and the environment to this file")
    args = ap.parse_args()

    columns = ("loop", "run", "inputs", "solve", "judge", "rest", "lindley",
               "draw_whole", "events_raw", "events")
    layers = columns[2:6]
    results = {"environment": environment(args), "unit": "ms", "runs": {}, "mc": {},
               "estimate_boundary": {}, "sweep": {}}
    for horizon in args.horizon:
        print(f"{horizon} slots, median and best of {args.repeat}, milliseconds, and faults per call")
        print(f"{'config':<24}{'passes':>8}" + "".join(f"{c:>11}" for c in columns) + "  identical")
        for name, cfg in configs(horizon):
            kernel_args = sim._kernel_inputs([cfg])
            loop_args = [_kernels.slot_major(lines, horizon) for lines in kernel_args]
            t_loop, q_loop = repeat_times(_kernels.simulate_slots_py, loop_args, args.repeat)
            q, [passes], busy = _kernels.simulate_slots(*kernel_args, horizon=horizon)
            splits = watch(LAYERS, sim.run, (cfg,), args.repeat)
            t_lindley, solved = repeat_times(_kernels._lindley,
                                             lindley_args(kernel_args, busy, horizon), args.repeat)
            row = summary(columns, [t_loop, seconds(splits, *LAYERS),
                                    *(seconds(splits, layer) for layer in layers), t_lindley,
                                    *draw_and_event_times(cfg, args.repeat)])
            loop = _kernels.block_major(q_loop[..., 1:], q_loop[..., -1:])
            row.update(passes=passes, identical=bool(np.array_equal(q, loop) and np.array_equal(
                           lengths(kernel_args, solved), q[:, 0])),
                       faults={layer: faults(splits, layer) for layer in layers})
            results["runs"].setdefault(str(horizon), {})[name] = row
            print_row(name, f"{passes:>8}", columns, row, f"  {row['identical']}")
            print(f"{'  faults':<24}{'':>30}" + "".join(f"{row['faults'][c]:>11}" for c in layers))

    cli._pin_heap()  # bcstab mc-verify, like every command, runs on the pinned heap
    mc_columns = ("call", "draws", "events", "events_raw")
    print(f"\nmc_estimate_profile, {MC_DRAWS} draws, median and best of {args.repeat}, milliseconds, "
          "and faults per call")
    print(f"{'config':<24}" + "".join(f"{c:>11}" for c in mc_columns) + "  identical")
    for name, params in MC_PARAMS.items():
        calls = watch({"call": (channel, "mc_estimate_profile")}, mc_call, (params,), args.repeat)
        splits = [split_mc(params) for _ in range(args.repeat)]
        row = summary(mc_columns, [seconds(calls, "call"),
                                   *([spent[c][0] for spent, _ in splits] for c in mc_columns[1:])])
        counts = [round(p * MC_DRAWS) for p in mc_call(params).as_tuple()]
        row["identical"] = all(split_counts == counts for _, split_counts in splits)
        row["faults"] = dict(call=faults(calls, "call"),
                             **{c: statistics.median_low(spent[c][1] for spent, _ in splits)
                                for c in mc_columns[1:]})
        results["mc"][name] = row
        print_row(name, "", mc_columns, row, f"  {row['identical']}")
        print(f"{'  faults':<24}" + "".join(f"{row['faults'][c]:>11}" for c in mc_columns))

    print(f"\nestimate_boundary, {BOUNDARY['angle']} degrees, {BOUNDARY['horizon']} slots, "
          f"{BOUNDARY['steps']} steps, median and best of {args.repeat}, milliseconds")
    ray_columns = ("probes", "channel_draws", "arrival_draws", "lindley", "summaries", "faults")
    print(f"{'config':<24}{'ray':>11}" + "".join(f"{c.split('_')[0]:>10}" for c in ray_columns))
    for name, params in BOUNDARY_PARAMS.items():
        calls = watch({"ray": (sim, "estimate_boundary")}, ray, (params,), args.repeat)
        row = summary(("ray",), [seconds(calls, "ray")])
        with watched(COUNTED) as work:
            ray(params)
        row.update(probes=work.pop("batches")["calls"],
                   **{key: spent["calls"] for key, spent in work.items()}, faults=faults(calls, "ray"))
        results["estimate_boundary"][name] = row
        print(f"{name:<24}{row['ray']:>11.2f}" + "".join(f"{row[c]:>10}" for c in ray_columns))
        print(f"{'  best':<24}{row['ray_best']:>11.2f}")

    sweep_columns = ("ms", "inputs", "solve", "stats")
    counts = ("channel_draws", "arrival_draws", "batches", "lindley", "lindley_cold", "summaries")
    print(f"\nbcstab {' '.join(SWEEP)}, median and best of {args.repeat}, milliseconds")
    print(f"{'config':<24}" + "".join(f"{c:>11}" for c in sweep_columns)
          + "".join(f"{c.split('_')[0]:>9}" for c in counts[:2])
          + "".join(f"{c:>13}" for c in counts[2:]) + f"{'faults':>8}")
    for name, params in BOUNDARY_PARAMS.items():
        argv = [*SWEEP, *cli_flags(params)]
        calls = watch({"ms": (cli, "main")}, sweep, (argv,), args.repeat)
        split = watch(LAYERS, sweep, (argv,), args.repeat)
        row = summary(sweep_columns, [seconds(calls, "ms"), seconds(split, "inputs"),
                                      seconds(split, "solve"),
                                      seconds(split, "judge", "rest")])
        row.update(sweep_work(argv), faults=faults(calls, "ms"))
        results["sweep"][name] = row
        print_row(name, "", sweep_columns, row, "".join(f"{row[c]:>9}" for c in counts[:2])
                  + "".join(f"{row[c]:>13}" for c in counts[2:]) + f"{row['faults']:>8}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
