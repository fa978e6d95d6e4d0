"""Slot-level Monte Carlo simulator of the coupled two-queue downlink.

This is the independent oracle for everything the closed forms claim:
service rates, empty-queue probabilities, and stability verdicts. Dominant
modes make one queue transmit dummy packets whenever it is empty, which
decouples the other queue exactly as in the saturated-queue analysis: that
queue's solo event is its shared-slot one (``_kernel_inputs``).

Slot ordering convention: transmissions are decided and resolved on the
slot-start state, then arrivals join, so a packet arriving in slot t can
depart in slot t+1 at the earliest. All randomness comes from one seeded
stream (arrival uniforms first, then channel draws), so runs are
reproducible bit-for-bit, and all runs of one seed share one sample path
(common random numbers). A lone run draws its path's success events and
its arrival flags block by block and keeps nothing after it returns; runs
that share a path (a boundary-search ray's probes, a batch's cells) hold
one draw of its events and arrival uniforms. A path's two halves are drawn
at once (``_beside``), one on a helper thread and one in the calling thread:
the channel half from a generator of the seed advanced past the arrival
uniforms, the arrival half from its own. Neither generator reads the
other's state, so the bits are those of one sequential draw.

Runs are solved and judged in batches that share a path, params, dominant
mode and warmup: one call of the queue solver, the slopes, the verdicts and
the statistics (``_solve``, ``_summarise``) covers every run of a batch,
one row each, and a lone run or a probe is a batch of one. ``run_batch``
makes a sweep's cells in strips: each ``lambda2`` is a column sorted by
``lambda1`` descending, a strip of ``_BATCH_SLOTS // horizon`` columns is
solved top-down, one batch per rank, and each cell starts its Picard
passes from queue 2's busy column at the cell above it, which bounds its
own on one path.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import _kernels
from .channel import (Decoding, InvalidParameterError, SystemParams, _as_count, _raw_events,
                      success_events)
from .region import RatePoint

__all__ = [
    "DominantMode",
    "Verdict",
    "SimConfig",
    "SlotEvents",
    "SimResult",
    "EstimationFailureError",
    "step",
    "run",
    "run_batch",
    "classify_stability",
    "system_verdict",
    "estimate_boundary",
]

# Growth below one packet per thousand slots is treated as flat.
SLOPE_THRESHOLD = 1e-3

# Largest accepted horizon. A run keeps about 6 bytes per slot of arrival
# flags and success events and 8 of trajectory, and peaks at about 24 while
# the solver's temporaries are alive, so this caps one run near 250 MB (a
# 10M-slot dominant IAN run peaked at 241 MB); longer runs are rejected
# before any allocation. A path's two streams are drawn at once (_beside),
# so while it is drawn both streams' block buffers, four of 512 KiB, are
# alive. Runs that share a path hold its success events (_channel_events, 4
# bytes per slot) and arrival uniforms (_arrival_uniforms, 16 bytes per
# slot) while they are made, and nothing of it after; a W-thread sweep holds
# one path, not W. Its batches (run_batch) hold up to 32 bytes per slot and
# run, at most _BATCH_SLOTS slot-rows of runs or one run, per thread. A
# boundary-search ray holds its path and one busy column of queue 2 (1 byte
# per slot) between probes, and its probes peak near 40 bytes per slot (44
# at 1M slots with the drift slope's 4 MiB index; near 400 MB at this cap).
# Of the solver's temporaries, 4 bytes per slot are the Lindley scan's int8
# buffers (_kernels._lindley); its int32 carries and trajectory need this
# < 2**31.
MAX_HORIZON = 10_000_000

# Slots per block of a run's draws (_blocks): the block's two float64
# buffers, slot-major and transposed, 512 KiB each, stay in a core's L2 cache
# while they become flags.
_DRAW_BLOCK = 1 << 15

# Shortest run that run_batch hands to its thread pool. A run's numpy calls
# hold the GIL between their passes, so two threads on short runs take turns
# with it: on 2 vCPUs a grid-7 sweep's 49 runs took 50 ms in one thread and
# 83 ms in two at 20k slots, were even at 70k, and two threads were 1.3x
# faster at 100k and 1.5x at 200k.
_POOL_HORIZON = 100_000

# Slot-rows per batch of run_batch's solves: a strip of runs on one path is
# max(1, _BATCH_SLOTS // horizon) columns wide, 3 at 20k slots. A batch peaks
# under 32 bytes per slot-row, so near 2 MB, and a strip holds one busy
# column per column between its ranks, at most this many bytes unless one
# run is longer. On 2 vCPUs a grid-7 sweep at 20k slots took 13.4 ms at this
# width, 12.3 at 1 << 17 and 11.9 at 1 << 18 (7 columns), against 15.6 cell by
# cell, while the peak resident memory of a process running such sweeps
# rose by 0.4-1.4 MB here and by 3.9 MB at 1 << 17.
_BATCH_SLOTS = 1 << 16

# Verdicts need enough slots for the drift fit to mean anything.
_MIN_CLASSIFY_HORIZON = 10_000


class EstimationFailureError(RuntimeError):
    """The empirical boundary search could not bracket the frontier."""


class DominantMode(str, Enum):
    NONE = "none"
    QUEUE1_DUMMY = "queue1"
    QUEUE2_DUMMY = "queue2"


class Verdict(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation run.

    ``warmup`` slots are discarded from all statistics (defaults to a tenth
    of the horizon) and must leave at least two slots for the drift fit;
    ``horizon`` lies in ``[10, MAX_HORIZON]``. Arrivals are independent
    Bernoulli per queue per slot, so rates must not exceed 1. ``seed`` is
    non-negative, as numpy's generators require. The counts may be of any
    integer type and are stored as Python ints.
    """

    arrivals: RatePoint
    params: SystemParams
    horizon: int = 200_000
    warmup: int | None = None
    seed: int = 0
    dominant_mode: DominantMode = DominantMode.NONE

    def __post_init__(self):
        object.__setattr__(self, "dominant_mode", DominantMode(self.dominant_mode))
        if self.arrivals.lambda1 > 1.0 or self.arrivals.lambda2 > 1.0:
            raise InvalidParameterError("Bernoulli arrival rates cannot exceed 1")
        for name in ("horizon", "warmup", "seed"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_count(name, getattr(self, name)))
        if not 10 <= self.horizon <= MAX_HORIZON:
            raise InvalidParameterError(f"horizon must lie in [10, {MAX_HORIZON}] slots")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed!r}")
        if self.warmup is None:
            object.__setattr__(self, "warmup", self.horizon // 10)
        _check_fit_window(self.warmup, self.horizon)


@dataclass(frozen=True)
class SlotEvents:
    """What happened to each queue within a single slot."""

    attempt1: bool
    attempt2: bool
    real1: bool
    real2: bool
    success1: bool
    success2: bool
    arrival1: bool
    arrival2: bool
    departure1: bool
    departure2: bool


@dataclass(frozen=True)
class SimResult:
    """Post-warmup statistics of one run plus whole-horizon packet counts.

    ``success_rate`` is successes per transmission attempt (dummy attempts
    included, which is what makes it the offered service rate in a dominant
    mode); ``departure_rate`` counts only real packets leaving per slot.
    """

    config: SimConfig = field(compare=False)
    mean_queue: tuple[float, float]
    final_queue: tuple[int, int]
    success_rate: tuple[float, float]
    departure_rate: tuple[float, float]
    empty_fraction: tuple[float, float]
    drift_slope: tuple[float, float]
    verdict: tuple[Verdict, Verdict]
    arrivals_total: tuple[int, int]
    departures_total: tuple[int, int]
    trajectory: np.ndarray | None = field(default=None, compare=False, repr=False)


def _forced(config: SimConfig) -> tuple[bool, bool]:
    """Which queues transmit even when empty (dummy packets) in this mode."""
    return (config.dominant_mode is DominantMode.QUEUE1_DUMMY,
            config.dominant_mode is DominantMode.QUEUE2_DUMMY)


def step(
    queues: tuple[int, int],
    config: SimConfig,
    arrival_u: tuple[float, float],
    channel: tuple[float, float],
) -> tuple[tuple[int, int], SlotEvents]:
    """Reference single-slot transition; the kernel must match it exactly.

    ``arrival_u`` are the slot's arrival uniforms and ``channel`` its channel
    draws (uniforms for the generic scheme, exponential gains otherwise).
    Returns the end-of-slot queue state and the slot's event record.
    """
    q1, q2 = queues
    if q1 < 0 or q2 < 0:
        raise InvalidParameterError("queue lengths must be nonnegative")
    force1, force2 = _forced(config)
    solo1, solo2, both1, both2 = _raw_events(config.params, *channel)
    t1 = q1 > 0 or force1
    t2 = q2 > 0 or force2
    s1 = t1 and (both1 if t2 else solo1)
    s2 = t2 and (both2 if t1 else solo2)
    dep1 = bool(s1) and q1 > 0
    dep2 = bool(s2) and q2 > 0
    a1 = bool(arrival_u[0] < config.arrivals.lambda1)
    a2 = bool(arrival_u[1] < config.arrivals.lambda2)
    events = SlotEvents(
        attempt1=bool(t1), attempt2=bool(t2),
        real1=q1 > 0, real2=q2 > 0,
        success1=bool(s1), success2=bool(s2),
        arrival1=a1, arrival2=a2,
        departure1=dep1, departure2=dep2,
    )
    new_q1 = q1 - dep1 + a1
    new_q2 = q2 - dep2 + a2
    return (new_q1, new_q2), events


def _blocks(draw, horizon: int):
    """Yield ``(lo, hi, rows)`` per ``_DRAW_BLOCK`` slots of ``draw``'s
    slot-major output, one transposing copy putting each user's draws in a
    contiguous row, which compares several times faster than a column."""
    drawn = np.empty((min(horizon, _DRAW_BLOCK), 2))
    rows = np.empty((2, drawn.shape[0]))
    for lo in range(0, horizon, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, horizon)
        np.copyto(rows[:, :hi - lo], draw(out=drawn[:hi - lo]).T)
        yield lo, hi, rows[:, :hi - lo]


def _channel_events(params: SystemParams, horizon: int, seed: int) -> np.ndarray:
    """The read-only ``(4, horizon)`` success-event columns of every run at
    ``seed``, whatever its rates or dominant mode. A run's stream is
    ``np.random.default_rng(seed)``: ``2*horizon`` arrival uniforms, then as
    many channel draws (uniforms for the generic scheme, unit-mean
    exponential gains otherwise), both slot-major; each uniform takes one
    64-bit output, so a generator advanced by ``2*horizon`` draws the channel."""
    rng = np.random.Generator(np.random.PCG64(seed).advance(2 * horizon))
    # the same bits as rng.exponential(1.0, ...), without the scaling pass
    draw = rng.random if params.decoding is Decoding.GENERIC else rng.standard_exponential
    events = np.empty((4, horizon), dtype=bool)
    for lo, hi, u in _blocks(draw, horizon):
        events[:, lo:hi] = success_events(params, u[0], u[1])
    events.flags.writeable = False
    return events


def _arrival_uniforms(horizon: int, seed: int) -> np.ndarray:
    """The read-only ``(2, horizon)`` arrival uniforms of every run at
    ``seed``, one row per queue: the first ``2*horizon`` draws of
    ``np.random.default_rng(seed)``, filled block by block (``_blocks``), so
    they are the bits a lone run compares. Runs that share the path hold
    them only while they are being made; they take 16 bytes per slot."""
    uniforms = np.empty((2, horizon))
    for lo, hi, u in _blocks(np.random.default_rng(seed).random, horizon):
        uniforms[:, lo:hi] = u
    uniforms.flags.writeable = False
    return uniforms


def _start_helper() -> None:
    """(Re)make the helper thread that draws one half of a path
    (``_beside``); it starts on demand and stays. Concurrent callers, such
    as run_batch's workers, do not queue behind it, since a caller takes
    back a draw the helper has not started; a second thread only added its
    own malloc arena, about 2 MB, to a process's peak resident memory."""
    global _helper
    _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bcstab-draw")


_start_helper()
if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's threads, yet an executor copied
    # from the parent counts the idle one and starts no new thread: no call
    # given to it would ever run.
    os.register_at_fork(after_in_child=_start_helper)


@contextmanager
def _beside(fn, *args):
    """Start ``fn(*args)`` on a helper thread while the ``with`` block runs
    in the caller, and yield a function that returns its result, raising
    what ``fn`` raised. A call the helper has not started by then is taken
    back and made by the caller, which is free: after a 25 ms sweep batch
    an idle helper took 0.2-0.5 ms to start on 2 vCPUs, longer than a
    20k-slot draw. The block's exit waits for a started ``fn``, whether
    the block returns or raises, so no draw outlives the call that started
    it."""
    future = _helper.submit(fn, *args)
    try:
        yield lambda: fn(*args) if future.cancel() else future.result()
    finally:
        # a call taken back, or not needed once the block has raised, is
        # cancelled and never runs; a started one is waited for
        if not future.cancel():
            wait([future])


def _kernel_inputs(configs, path: tuple | None = None) -> tuple:
    """Arrival flags of a batch of runs that share a sample path, params and
    dominant mode, and the four success-event columns (views of the events);
    a dummy queue always transmits, so its partner gets ``both`` as ``solo``.

    ``path`` is the runs' held sample path ``(events, uniforms)``, its
    ``_channel_events`` and ``_arrival_uniforms``; the uniforms are compared
    with every run's rates in one pass. Without it the runs draw both at
    once, keeping 2 bytes per slot and run of flags and 4 per slot of
    events: a helper thread draws the events (``_beside``) while this thread
    makes the flags block by block. The two draws read two generators of
    the seed, the channel's advanced past the arrival uniforms, so the bits
    are those of one sequential draw."""
    config = configs[0]
    lam = np.array([[[c.arrivals.lambda1], [c.arrivals.lambda2]] for c in configs])
    arrivals = np.empty((len(configs), 2, config.horizon), dtype=bool)
    if path is None:
        with _beside(_channel_events, config.params, config.horizon, config.seed) as drawn:
            for lo, hi, u in _blocks(np.random.default_rng(config.seed).random, config.horizon):
                np.less(u, lam, out=arrivals[:, :, lo:hi])
            events = drawn()
    else:
        events, uniforms = path
        np.less(uniforms, lam, out=arrivals)
    force1, force2 = _forced(config)
    return arrivals, events[2 if force2 else 0], events[3 if force1 else 1], *events[2:]


def _check_fit_window(warmup: int, horizon: int) -> None:
    if not 0 <= warmup <= horizon - 2:
        raise InvalidParameterError(
            "warmup must satisfy 0 <= warmup <= horizon - 2 (the drift fit needs two slots)"
        )


def _build_index(n: int) -> np.ndarray:
    index = np.arange(n, dtype=np.int64)
    index.flags.writeable = False
    return index


_cached_index = lru_cache(maxsize=2)(_build_index)

# Points per block of the drift slope's int64 sums. Indices count from the
# block's start, so each partial is exact while block**2 * max|y| < 2**63:
# every value in [0, MAX_HORIZON] qualifies, since MAX_HORIZON < 2**25.
_SLOPE_BLOCK = 2**19


def _drift_slopes(lines: np.ndarray) -> tuple[list[float], list[int]]:
    """Exact least-squares slope of each row of an integer ``(rows, n)``
    array over its index, rounded once, and the row's exact sum; needs at
    least two points, each in ``[0, MAX_HORIZON]``.

    A slope is ``num / den`` with ``num = n*sum(t*y) - sum(t)*sum(y)`` and
    ``den = n*sum(t*t) - sum(t)**2`` formed as Python ints. ``sum(y)`` and
    ``sum(t*y)`` are taken in int64, ``_SLOPE_BLOCK`` points at a time, by
    ``einsum``, which casts the rows in buffers rather than copying them.
    """
    rows, n = lines.shape
    block = min(n, _SLOPE_BLOCK)
    index = _cached_index(block)
    sum_y, sum_ty = [0] * rows, [0] * rows
    for start in range(0, n, block):
        part = lines[:, start:start + block]
        part_sums = np.einsum("ij->i", part, dtype=np.int64, casting="unsafe").tolist()
        dots = np.einsum("ij,j->i", part, index[:part.shape[1]], dtype=np.int64,
                         casting="unsafe").tolist()
        for row, (part_sum, dot) in enumerate(zip(part_sums, dots)):
            sum_ty[row] += dot + start * part_sum
            sum_y[row] += part_sum
    sum_t = n * (n - 1) // 2
    sum_tt = (n - 1) * n * (2 * n - 1) // 6
    den = n * sum_tt - sum_t * sum_t
    return [(n * ty - sum_t * y) / den for y, ty in zip(sum_y, sum_ty)], sum_y


def _drift_slope(series: np.ndarray) -> float:
    """The exact drift slope (``_drift_slopes``) of one 1-D ``series``."""
    return _drift_slopes(series[None])[0][0]


def classify_stability(
    trajectory: np.ndarray, warmup: int, slope_threshold: float = SLOPE_THRESHOLD
) -> Verdict:
    """Judge one queue's trajectory (slot-start lengths plus final state).

    Unstable needs sustained growth: a drift slope above the threshold and a
    final backlog above the first post-warmup decile's mean. Stable needs a
    flat slope and at least one return to empty during the final half of the
    run. Everything else is inconclusive.

    The trajectory counts packets: it is 1-D, of an integer dtype, with
    every value in ``[0, MAX_HORIZON]``, as a column of ``run()``'s
    trajectory is. Its slope is the exact one ``run()`` reports as
    ``drift_slope`` (``_drift_slope``).
    """
    traj = np.asarray(trajectory)
    if traj.ndim != 1:
        raise InvalidParameterError(
            f"classification takes one queue's trajectory, got shape {traj.shape}: "
            "pass one column, e.g. trajectory[:, 0]"
        )
    horizon = traj.shape[0] - 1
    if horizon < _MIN_CLASSIFY_HORIZON:
        raise InvalidParameterError(
            f"classification needs a horizon of at least {_MIN_CLASSIFY_HORIZON} slots"
        )
    warmup = _as_count("warmup", warmup)
    _check_fit_window(warmup, horizon)
    if traj.dtype.kind not in "iu" or traj.min() < 0 or traj.max() > MAX_HORIZON:
        raise InvalidParameterError(f"queue lengths are integers in [0, {MAX_HORIZON}]")
    return _verdict(traj, warmup, _drift_slope(traj[warmup:horizon]), slope_threshold)


def _verdicts(lines: np.ndarray, warmup: int, slopes, slope_threshold: float) -> list[Verdict]:
    """classify_stability's rule for each row of a ``(rows, horizon + 1)``
    array of trajectories, given the drift slope of each row's
    ``[warmup, horizon)`` slice."""
    horizon = lines.shape[1] - 1
    post = lines[:, warmup:horizon]
    finals = lines[:, horizon].tolist()
    early_means = post[:, : max(1, post.shape[1] // 10)].mean(axis=1).tolist()
    # a queue is never negative, so it returned to empty where its minimum is 0
    returned = (lines[:, horizon // 2 :].min(axis=1) == 0).tolist()
    verdicts = []
    for slope, final, early_mean, returned_to_zero in zip(slopes, finals, early_means, returned):
        if slope > slope_threshold and float(final) > early_mean:
            verdicts.append(Verdict.UNSTABLE)
        elif slope < slope_threshold and returned_to_zero:
            verdicts.append(Verdict.STABLE)
        else:
            verdicts.append(Verdict.INCONCLUSIVE)
    return verdicts


def _verdict(traj: np.ndarray, warmup: int, slope: float, slope_threshold: float) -> Verdict:
    """classify_stability's rule (``_verdicts``) for one 1-D trajectory."""
    return _verdicts(traj[None], warmup, [slope], slope_threshold)[0]


def system_verdict(verdicts: tuple[Verdict, Verdict]) -> Verdict:
    """Collapse per-queue verdicts: any unstable queue sinks the system."""
    if Verdict.UNSTABLE in verdicts:
        return Verdict.UNSTABLE
    if Verdict.INCONCLUSIVE in verdicts:
        return Verdict.INCONCLUSIVE
    return Verdict.STABLE


def _solve(configs, start=None, path=None) -> tuple:
    """Draw a batch's randomness, solve its queues and judge each queue.

    ``configs`` share their horizon, seed, params, dominant mode and warmup.
    ``start`` is passed to ``_kernels.simulate_slots`` and ``path``, a held
    sample path, to ``_kernel_inputs``. Returns the kernel inputs, the
    ``(runs, 2, horizon + 1)`` slot-start lengths, and per run three pairs,
    one entry per queue: its exact drift slope over ``[warmup, horizon)``,
    its verdict (``classify_stability``'s rule; inconclusive below 10000
    slots) and its exact sum over that window, which the slope also needs.
    """
    inputs = _kernel_inputs(configs, path)
    q, _ = _kernels.simulate_slots(*inputs, start=start)
    warmup, horizon = configs[0].warmup, configs[0].horizon
    lines = q.reshape(-1, horizon + 1)  # each run's queue 1, then its queue 2
    slopes, sums = _drift_slopes(lines[:, warmup:horizon])
    if horizon < _MIN_CLASSIFY_HORIZON:
        verdicts = [Verdict.INCONCLUSIVE] * len(slopes)
    else:
        verdicts = _verdicts(lines, warmup, slopes, SLOPE_THRESHOLD)
    return inputs, q, _pairs(slopes), _pairs(verdicts), _pairs(sums)


def _pairs(values: list) -> list[tuple]:
    """Per-queue values of a batch, queue 1 then queue 2 of each run, as one
    ``(queue 1, queue 2)`` pair per run."""
    return list(zip(values[::2], values[1::2]))


def run(config: SimConfig, return_trajectory: bool = False) -> SimResult:
    """Simulate one configuration; deterministic for a given config."""
    return _summarise([config], *_solve([config]), return_trajectory)[0]


def _counts(flags: np.ndarray) -> list[int]:
    """The nonzero count of each line along the last axis of ``flags``, in
    order; one ``count_nonzero`` per line, which is several times faster
    than ``count_nonzero`` along an axis, a sum through a cast."""
    return [int(np.count_nonzero(line)) for line in flags.reshape(-1, flags.shape[-1])]


def _summarise(configs, inputs: tuple, q: np.ndarray, slopes, verdicts, sums,
               return_trajectory: bool = False) -> list[SimResult]:
    """run()'s statistics of each solved run of a batch, given each queue's
    drift slope, verdict and post-warmup sum (``_solve``)."""
    horizon, warmup = configs[0].horizon, configs[0].warmup
    arrivals, solo1, solo2, both1, both2 = inputs

    n = horizon - warmup
    real = q[:, :, :horizon] > 0
    forced = np.array(_forced(configs[0]))
    attempt = real | forced[:, None] if forced.any() else real  # a dummy queue attempts every slot
    service = np.empty_like(real)
    for k, solo, both in ((0, solo1, both1), (1, solo2, both2)):
        # np.where(other queue transmits, both, solo) as in the solver
        np.bitwise_xor(solo, attempt[:, 1 - k] & (solo ^ both), out=service[:, k])
    departed = real & service
    post = np.s_[..., warmup:]
    attempts = _counts(attempt[post])
    successes = _counts(attempt[post] & service[post])
    departed_post = _counts(departed[post])
    busy_post = _counts(real[post])
    arrivals_total = _counts(arrivals)
    departures_total = _counts(departed)
    finals = q[:, :, horizon].ravel().tolist()
    results = []
    for run_index, config in enumerate(configs):
        pair = (2 * run_index, 2 * run_index + 1)
        results.append(SimResult(
            config=config,
            mean_queue=tuple(total / n for total in sums[run_index]),
            final_queue=tuple(finals[line] for line in pair),
            success_rate=tuple(successes[line] / attempts[line] if attempts[line] else 0.0
                               for line in pair),
            departure_rate=tuple(departed_post[line] / n for line in pair),
            empty_fraction=tuple((n - busy_post[line]) / n for line in pair),
            drift_slope=slopes[run_index],
            verdict=verdicts[run_index],
            arrivals_total=tuple(arrivals_total[line] for line in pair),
            departures_total=tuple(departures_total[line] for line in pair),
            trajectory=(np.ascontiguousarray(q[run_index].T, dtype=np.int64)
                        if return_trajectory else None),
        ))
    return results


def _strips(configs: list[SimConfig], members: list[int]) -> list[list[list[int]]]:
    """run_batch's strips of the runs ``members`` (indices into ``configs``)
    on one sample path and parameter set.

    Runs of one dominant mode and warmup with one ``lambda2`` form a column,
    sorted by ``lambda1`` descending; a group's columns, longest first, are
    cut into strips of ``max(1, _BATCH_SLOTS // horizon)`` columns.
    """
    columns: dict[tuple, list[int]] = {}
    for i in members:
        config = configs[i]
        key = (config.dominant_mode, config.warmup, config.arrivals.lambda2)
        columns.setdefault(key, []).append(i)
    groups: dict[tuple, list[list[int]]] = {}
    for (mode, warmup, _), column in columns.items():
        column.sort(key=lambda i: configs[i].arrivals.lambda1, reverse=True)
        groups.setdefault((mode, warmup), []).append(column)
    width = max(1, _BATCH_SLOTS // configs[members[0]].horizon)
    strips = []
    for group in groups.values():
        group.sort(key=len, reverse=True)
        strips += [group[lo:lo + width] for lo in range(0, len(group), width)]
    return strips


def _solve_strip(configs: list[SimConfig], strip: list[list[int]], path=None) -> list[tuple]:
    """Solve a strip top-down, one batch per rank in ``lambda1``, and return
    ``(index, result)`` per run. Every run but a column's first starts its
    Picard passes from queue 2's busy column at the run above it: the same
    ``lambda2`` and a higher ``lambda1``, so an upper bound on its own."""
    made = []
    start = None
    for rank in range(len(strip[0])):
        batch = [column[rank] for column in strip if rank < len(column)]
        runs = [configs[i] for i in batch]
        if start is not None:
            start = start[:len(batch)]  # the strip's columns are longest first
        solved = _solve(runs, start, path)
        made += zip(batch, _summarise(runs, *solved))
        start = solved[1][:, 1, :-1] > 0
        del solved  # the next batch is solved without this one's trajectories
    return made


def run_batch(configs, workers: int | None = None) -> list[SimResult]:
    """Run independent configs; results follow input order regardless of scheduling.

    Configs that share a sample path ``(horizon, seed)``, such as a sweep's
    cells, share its randomness, drawn before their runs are solved and held
    only while they are made, one path at a time, every worker reading the
    same read-only arrays: its arrival uniforms (``_arrival_uniforms``) are
    drawn once, on a helper thread while the first parameter set's success
    events are drawn (``_beside``), and its success events
    (``_channel_events``) once per parameter set. They are solved in strips
    (``_strips``): the runs of one parameter set, dominant mode and warmup
    form a column per ``lambda2``, and each strip of up to ``_BATCH_SLOTS
    // horizon`` columns is solved top-down, one batch of runs per rank in
    ``lambda1`` (``_solve_strip``).
    On one path a higher ``lambda1`` leaves both queues at least as long in
    every slot, so each run starts its Picard passes from queue 2's busy
    column at the run above it in its column; the start changes only the
    pass count, and every result is the one ``run()`` gives. A config alone
    on its path is a lone run, as ``run()`` makes it.

    With ``workers`` above 1, and some run of at least ``_POOL_HORIZON``
    slots, the strips, which are independent of each other, are dispatched
    to a thread pool of that many threads. A run spends most of its time in
    numpy calls, which release the GIL, so the workers run in parallel;
    shorter batches run in the calling thread, where the threads would only
    take turns with the GIL.
    """
    configs = list(configs)
    by_path: dict[tuple[int, int], list[int]] = {}
    for i, config in enumerate(configs):
        by_path.setdefault((config.horizon, config.seed), []).append(i)
    results: list[SimResult | None] = [None] * len(configs)
    parallel = (workers is not None and workers > 1
                and any(config.horizon >= _POOL_HORIZON for config in configs))
    with ThreadPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:

        def make(strips, path=None):
            solved = (pool.map if pool else map)(
                lambda strip: _solve_strip(configs, strip, path), strips)
            for made in solved:
                for i, result in made:
                    results[i] = result

        make([[[members[0]]] for members in by_path.values() if len(members) == 1])
        for (horizon, seed), members in by_path.items():
            if len(members) == 1:
                continue
            param_sets = list(dict.fromkeys(configs[i].params for i in members))
            # The uniforms go to the helper: this way round perfbench
            # sweep-coupled read 9-13% more grid points per second than
            # drawing in turn on 2 vCPUs, and 5% fewer with the events there.
            # Where the path's arrays land in the allocator decides it; the
            # draw's own time moved by under 0.4 ms of 15 per sweep.
            with _beside(_arrival_uniforms, horizon, seed) as drawn:
                events = _channel_events(param_sets[0], horizon, seed)
                uniforms = drawn()
            for params in param_sets:
                if events is None:
                    events = _channel_events(params, horizon, seed)
                make(_strips(configs, [i for i in members if configs[i].params == params]),
                     (events, uniforms))
                events = None  # before the next parameter set's are drawn
            del uniforms  # before the next path's are drawn
    return results


def estimate_boundary(
    params: SystemParams,
    angle_deg: float,
    steps: int = 12,
    *,
    horizon: int = 200_000,
    seed: int = 0,
) -> RatePoint:
    """Locate the empirical stability frontier along one ray by bisection.

    The scale factor along ``(cos a, sin a)`` is bisected, using simulated
    verdicts, between the origin, stable by definition, and the ray's end
    in the unit square of Bernoulli rates, which must be unstable (else
    ``EstimationFailureError``). ``horizon`` must be at least the 10000
    slots a verdict needs, and is checked before any run.

    Every probe is the run at the ray's own ``seed``: one sample path per
    ray (common random numbers). After its checks and before its first
    probe, the ray draws the path's four success-event columns
    (``_channel_events``, on a helper thread, ``_beside``) and, at the same
    time, its arrival uniforms (``_arrival_uniforms``) once, and holds them
    until it returns; every probe at its seed compares the uniforms with
    its own rates. A probe is ``run()`` without its statistics,
    ``_solve``, so its verdict is exactly
    ``system_verdict(run(SimConfig(point, params, horizon=horizon,
    seed=seed)).verdict)``. An inconclusive probe counts as non-stable, so
    a ray makes ``1 + steps`` solves and its end must be judged unstable.

    On one sample path, a higher scale means more arrivals in every slot,
    and a longer queue only takes service from the other (a shared-slot
    success implies the solo one), so both queues grow pathwise with the
    scale and a verdict is monotone along the ray. Queue 2's busy column at
    the nearest non-stable probe above is thus an upper bound for every
    lower probe's, and each coupled solve starts its Picard passes there;
    the start changes only the pass count (``_kernels.simulate_slots``).
    """
    if not 0.0 <= angle_deg <= 90.0:
        raise InvalidParameterError("angle must lie in [0, 90] degrees")
    steps = _as_count("steps", steps)
    if steps < 8:
        raise InvalidParameterError("at least 8 bisection steps are required")
    if horizon < _MIN_CLASSIFY_HORIZON:
        # every probe would be inconclusive, and no bracket could be found
        raise InvalidParameterError(
            f"boundary search needs a horizon of at least {_MIN_CLASSIFY_HORIZON} slots"
        )
    # SimConfig checks the horizon and seed before the path is drawn
    origin = SimConfig(RatePoint(0.0, 0.0), params, horizon=horizon, seed=seed)
    with _beside(_channel_events, params, origin.horizon, origin.seed) as drawn:
        uniforms = _arrival_uniforms(origin.horizon, origin.seed)
        path = (drawn(), uniforms)
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    cap = min(1.0 / c if c > 0.0 else math.inf, 1.0 / s if s > 0.0 else math.inf)
    start = None

    def probe(scale: float) -> Verdict:
        nonlocal start
        point = RatePoint(scale * c, scale * s)
        _, q, _, verdicts, _ = _solve([SimConfig(point, params, horizon=horizon, seed=seed)],
                                      start, path)
        v = system_verdict(verdicts[0])
        if v is not Verdict.STABLE:
            start = q[:, 1, :-1] > 0  # it bounds queue 2's busy column at every lower scale
        return v

    lo, hi = 0.0, cap
    v = probe(hi)
    if v is not Verdict.UNSTABLE:
        raise EstimationFailureError(
            f"no unstable bracket along {angle_deg} deg (tried scale {hi:.4g}: {v.value})"
        )
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if probe(mid) is Verdict.STABLE:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return RatePoint(mid * c, mid * s)
