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
(common random numbers). Every run's path is drawn by ``_path``: a helper
thread draws its success events from a generator of the seed advanced past
the arrival uniforms, while the calling thread draws the uniforms from its
own. Neither generator reads the other's state, so the bits are those of
one sequential draw. A path is drawn in the queue solver's block-major
layout (``_kernels``), so the solver's inputs are made once per draw, and
no solve lays them out again. A lone run drops its uniforms once it has its
arrival flags, before it is solved; runs that share a path (a
boundary-search ray's probes, a batch's cells) hold one draw of it while
they are made.

Runs are solved and judged in batches that share a path, params, dominant
mode and warmup: one call of the queue solver, of the slopes and verdicts
and of the statistics (``_solve``, ``_judge``, ``_summarise``) covers every
run of a batch, one row each, and a lone run or a probe is a batch of one.
Everything is read in the solver's layout: each run's lengths after each
slot, as the solver's int8 lines and int32 per-block excess, from which
``_judge`` takes the slopes, verdicts and final lengths and
``_summarise`` the warmup length, and its busy columns, from which
``_summarise`` counts and the next probe or cell starts. Only ``run(...,
return_trajectory=True)`` forms int32 lengths, and a slot-major
trajectory from them.
``run_batch`` makes a sweep's cells in strips, and ``batch_verdicts`` makes
them the same way but stops at their verdicts, which is all ``sweep
--simulate`` reports: each ``lambda2`` is a column sorted by ``lambda1``
descending, a strip of ``_BATCH_SLOTS // horizon`` columns (13 at 20k
slots, so a grid-7 sweep is one strip) is solved top-down, one batch per
rank, and each cell starts its Picard passes from queue 2's busy column at
the cell above it, which bounds its own on one path.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum

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
    "batch_verdicts",
    "classify_stability",
    "system_verdict",
    "estimate_boundary",
]

# Growth below one packet per thousand slots is treated as flat.
SLOPE_THRESHOLD = 1e-3

# Largest accepted horizon. A run's path (_path) takes 16 bytes per slot of
# arrival uniforms (_arrival_uniforms) and 4 of success events
# (_channel_events), both in the solver's block-major layout, and while it is
# drawn three 512 KiB block buffers: each stream's draws and the events'
# contiguous copy of them. A run keeps 6 bytes per slot of arrival flags and
# success events and 1 of the all-busy start; its Picard passes add 2 of
# shifted arrival flags, 2 of flip columns, 3.25 of the last solves (one
# queue's int8 length, busy column and quarter byte of int32 excess, and the
# other queue's busy column) and 4.5 of the next solve's service column, scan
# buffers, busy column and int32 carries; the fixed point holds both queues'
# last solves (4.5) and adds 2.5 of int8 lines and int32 excess in the
# solver's layout and 2 of busy columns; the statistics (_judge) add under 2
# of per-block sums. A lone run drops its uniforms before it is solved and
# peaks at 22 bytes per slot while it draws, its solve at 18.75, so this caps
# one run near 220 MB (a 10M-slot dominant IAN run peaked at 249 MB resident
# under the command line's pinned heap, where int32 lengths, made last, took
# it to 324); longer runs are rejected before any allocation. Runs that share
# a path hold it while they are made, and nothing of it after; a W-thread
# sweep holds one path, not W. Its batches (run_batch, batch_verdicts) hold up
# to 26.5 bytes per slot and run, at most _BATCH_SLOTS slot-rows of runs (7
# MB) or one run, per thread; a grid-7 sweep at 20k slots measured about 17.5
# bytes per slot-row of its 7-run batches, and from 131 073 slots on a batch
# is one run. A boundary-search ray holds its path and queue 2's busy column
# (1 byte per slot) between probes, and its probes peak near 34.75 bytes per
# slot (near 350 MB at this cap). The solver's int32 carries and excess need
# this < 2**31.
MAX_HORIZON = 10_000_000

# Slots per block of a path's draws (_blocks), a multiple of the solver's
# 16-slot scan block: the block's float64 draws, 512 KiB, and for the events
# their contiguous copy in the solver's layout, stay in a core's L2 cache
# while they become success events or uniforms.
_DRAW_BLOCK = 1 << 15

# Shortest run that run_batch and batch_verdicts hand to their thread pool. A
# run's numpy calls hold the GIL between their passes, so two threads on
# short runs take turns with it: on 2 vCPUs a grid-7 sweep's 49 runs took 50
# ms in one thread and 83 ms in two at 20k slots, were even at 70k, and two
# threads were 1.3x faster at 100k and 1.5x at 200k.
_POOL_HORIZON = 100_000

# Slot-rows per batch of run_batch's and batch_verdicts' solves: a strip of
# runs on one path is max(1, _BATCH_SLOTS // horizon) columns wide, 13 at 20k
# slots, 2 at 100k, and 1 from 131 073 slots on (the default 200k included).
# A batch peaks under 32 bytes per slot-row, so near 8 MB, and a strip holds
# one busy column per column between its ranks, at most this many bytes
# unless one run is longer. On 2 vCPUs (Python 3.11, numpy 2.4) a grid-7
# sweep --simulate at 20k slots, through batch_verdicts, took a median of
# 18.5-19.0 ms in process at 1 << 16 (3 columns, 21 batches), 17.1-17.4 at
# 1 << 17 and 15.8-16.2 at this width (one strip, 7 batches), against
# 21.6-22.0 through run_batch at 1 << 16; the peak resident memory of a
# process running such sweeps was 40.0-40.4 MB at 1 << 16 and 41.0-41.4 here.
_BATCH_SLOTS = 1 << 18

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
    """Yield ``(lo, hi, drawn)`` per ``_DRAW_BLOCK`` slots of ``draw``'s
    slot-major output: ``drawn`` is a ``(2, 16, hi - lo)`` view of the
    block's draws in the solver's layout (``_kernels``), one ``(16, hi -
    lo)`` array per user, for blocks ``lo:hi`` of that layout; the pads past
    the horizon are drawn as 1.0."""
    size = _kernels.blocks_of(min(horizon, _DRAW_BLOCK)) * _kernels._SCAN_BLOCK
    drawn = np.empty((size, 2))
    for lo in range(0, horizon, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, horizon)
        width = _kernels.blocks_of(hi - lo)
        draw(out=drawn[:hi - lo])
        drawn[hi - lo:width * _kernels._SCAN_BLOCK] = 1.0
        first = lo // _kernels._SCAN_BLOCK
        yield first, first + width, drawn[:width * _kernels._SCAN_BLOCK].reshape(width, -1, 2).T


def _channel_events(params: SystemParams, horizon: int, seed: int) -> np.ndarray:
    """The read-only ``(4, 16, blocks)`` success-event columns of every run
    at ``seed``, whatever its rates or dominant mode, in the solver's layout
    (``_kernels``), with no event in a pad. A run's stream is
    ``np.random.default_rng(seed)``: ``2*horizon`` arrival uniforms, then as
    many channel draws (uniforms for the generic scheme, unit-mean
    exponential gains otherwise), both slot-major; each uniform takes one
    64-bit output, so a generator advanced by ``2*horizon`` draws the
    channel. Each block's draws are copied into one contiguous array per
    user (``rows``), which compares several times faster than a strided
    view."""
    rng = np.random.Generator(np.random.PCG64(seed).advance(2 * horizon))
    # the same bits as rng.exponential(1.0, ...), without the scaling pass
    draw = rng.random if params.decoding is Decoding.GENERIC else rng.standard_exponential
    blocks = _kernels.blocks_of(horizon)
    events = np.empty((4, _kernels._SCAN_BLOCK, blocks), dtype=bool)
    rows = np.empty((2, _kernels._SCAN_BLOCK, min(blocks, _DRAW_BLOCK // _kernels._SCAN_BLOCK)))
    for lo, hi, drawn in _blocks(draw, horizon):
        u = rows[:, :, :hi - lo]
        np.copyto(u, drawn)
        events[:, :, lo:hi] = success_events(params, u[0], u[1])
    events[:, _kernels.last_block_slots(horizon):, -1] = False
    events.flags.writeable = False
    return events


def _arrival_uniforms(horizon: int, seed: int) -> np.ndarray:
    """The read-only ``(2, 16, blocks)`` arrival uniforms of every run at
    ``seed``, one line per queue in the solver's layout (``_kernels``), the
    pads 1.0, which no rate exceeds: the first ``2*horizon`` draws of
    ``np.random.default_rng(seed)``, filled block by block (``_blocks``).
    They take 16 bytes per slot."""
    uniforms = np.empty((2, _kernels._SCAN_BLOCK, _kernels.blocks_of(horizon)))
    for lo, hi, drawn in _blocks(np.random.default_rng(seed).random, horizon):
        uniforms[:, :, lo:hi] = drawn
    uniforms.flags.writeable = False
    return uniforms


def _start_helper() -> None:
    """(Re)make the helper thread that draws a path's success events
    (``_path``); it starts on demand and stays. Concurrent callers, such as
    run_batch's workers, do not queue behind it, since a caller takes back a
    draw the helper has not started; a second thread only added its own
    malloc arena, about 2 MB, to a process's peak resident memory."""
    global _helper
    _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bcstab-draw")


_start_helper()
if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's threads, yet an executor copied
    # from the parent counts the idle one and starts no new thread: no call
    # given to it would ever run.
    os.register_at_fork(after_in_child=_start_helper)


def _path(params: SystemParams, horizon: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The sample path ``(events, uniforms)`` of every run at ``seed``, its
    ``_channel_events`` and ``_arrival_uniforms``: the one place a run's
    randomness is drawn. The helper thread draws the events while this
    thread draws the uniforms. An event draw the helper has not started by
    then is taken back and made here, which is free: after a 25 ms sweep
    batch an idle helper took 0.2-0.5 ms to start on 2 vCPUs, longer than a
    20k-slot draw. A started one is waited for, also when the uniforms'
    draw raises, so no draw outlives the call that started it."""
    future = _helper.submit(_channel_events, params, horizon, seed)
    try:
        uniforms = _arrival_uniforms(horizon, seed)
    finally:
        # a draw taken back is cancelled, and made below only if the
        # uniforms were drawn; a started one is waited for
        taken_back = future.cancel()
        if not taken_back:
            wait([future])
    events = _channel_events(params, horizon, seed) if taken_back else future.result()
    return events, uniforms


def _kernel_inputs(configs, path: tuple | None = None) -> tuple:
    """Arrival flags of a batch of runs that share a sample path, params and
    dominant mode, and the four success-event columns (views of the events);
    a dummy queue always transmits, so its partner gets ``both`` as ``solo``.

    ``path`` is the runs' held sample path ``(events, uniforms)``; without
    it they draw their own (``_path``) and drop its uniforms when this
    returns, so a lone run keeps 2 bytes per slot of flags and 4 of events
    while it is solved. The uniforms are compared with every run's rates in
    one pass, in the solver's layout, which the flags keep: ``(runs, 2, 16,
    blocks)``, with no arrival in a pad."""
    config = configs[0]
    events, uniforms = path or _path(config.params, config.horizon, config.seed)
    lam = np.array([[c.arrivals.lambda1, c.arrivals.lambda2] for c in configs])
    arrivals = np.less(uniforms, lam[:, :, None, None])
    force1, force2 = _forced(config)
    return arrivals, events[2 if force2 else 0], events[3 if force1 else 1], *events[2:]


def _check_fit_window(warmup: int, horizon: int) -> None:
    if not 0 <= warmup <= horizon - 2:
        raise InvalidParameterError(
            "warmup must satisfy 0 <= warmup <= horizon - 2 (the drift fit needs two slots)"
        )


# Blocks per chunk of _judge's int64 sums of block sums weighted by their index
# from the chunk's start, each below 8 * _SUM_BLOCKS**2 * max|y|: exact for
# |y| < 2**30.
_SUM_BLOCKS = 1 << 15


def _judge(lines: np.ndarray, excess: np.ndarray, warmup: int, horizon: int,
           first: int = 0) -> tuple[list, list, list, list]:
    """Each line's exact drift slope, verdict, window sum and final length.

    A line's queue lengths are ``lines - excess``, as ``simulate_slots``
    returns them: ``lines`` is ``(lines, 16, blocks)`` in the solver's
    layout, int8 ``r8 + a`` from a solve or a whole trajectory of a wider
    integer dtype, and ``excess`` the ``(lines, blocks)`` per-block excess,
    0 for a whole trajectory. Slot ``s`` holds the length after slot ``s``,
    each pad the final one, every length in ``[0, MAX_HORIZON]``; an excess
    is never above 0, and a block whose excess is nonzero (negative) holds
    lines of at least 1; ``first`` is
    the length at slot 0, 0 in a run. So slot ``t`` of the window
    ``[warmup, horizon)`` is a line's slot ``t - 1``. The slope is ``num /
    den`` in Python ints (README, Kernel paths), its ``sum(y)``,
    ``sum(t*y)`` and the first decile's sum each a whole prefix less a
    shorter one, as ``_counts`` takes its windows. A block's sums are those
    of its lines less ``16 * excess`` and ``120 * excess`` (``sum(j)`` over
    its 16 slots); the lengths themselves are formed only at the edges of
    the sums and at the final slot. The verdict is ``classify_stability``'s
    rule, inconclusive below ``_MIN_CLASSIFY_HORIZON`` slots.
    """
    n = horizon - warmup
    # int8 lines hold r8 + a <= 34 (_kernels), so a block's sums, at most
    # 120 * 34, are exact in int16; a whole trajectory's, of lengths below
    # 2**30, in int64, which also holds every uint64 one
    wide = np.int16 if lines.dtype == np.int8 else np.int64
    index = np.arange(_kernels._SCAN_BLOCK, dtype=wide)
    sums = np.multiply(excess, -_kernels._SCAN_BLOCK, dtype=np.int64)
    sums += np.add.reduce(lines, axis=1, dtype=wide)
    weighted = np.multiply(excess, -(_kernels._SCAN_BLOCK * (_kernels._SCAN_BLOCK - 1) // 2),
                           dtype=np.int64)
    weighted += np.einsum("ljb,j->lb", lines, index, dtype=wide, casting="unsafe")

    def prefix(m: int, dotted: bool = True) -> tuple[list[int], list[int] | None]:
        """Each line's sums of ``y[s]`` and, if ``dotted``, of ``s * y[s]``
        over slots ``s < m``."""
        full, part = divmod(m, _kernels._SCAN_BLOCK)
        edge = lines[:, :part, full].astype(np.int64) - excess[:, full, None]
        totals = (sums[:, :full].sum(axis=1) + edge.sum(axis=1)).tolist()
        if not dotted:
            return totals, None
        dots = (weighted[:, :full].sum(axis=1)
                + edge @ np.arange(_kernels._SCAN_BLOCK * full, m)).tolist()
        for lo in range(0, full, _SUM_BLOCKS):
            chunk = sums[:, lo:min(full, lo + _SUM_BLOCKS)]
            ranks = (chunk @ np.arange(chunk.shape[1])).tolist()
            for line, (rank, total) in enumerate(zip(ranks, chunk.sum(axis=1).tolist())):
                dots[line] += _kernels._SCAN_BLOCK * (rank + lo * total)
        return totals, dots

    start, lead = (0, first) if warmup == 0 else (warmup - 1, 0)
    early = max(1, n // 10)
    start_sums, start_dots = prefix(start)
    end_sums, end_dots = prefix(horizon - 1)
    early_ends, _ = prefix(warmup + early - 1, dotted=False)
    early_sums = [end - before + lead for end, before in zip(early_ends, start_sums)]
    sum_t = n * (n - 1) // 2
    den = n * ((n - 1) * n * (2 * n - 1) // 6) - sum_t * sum_t
    slopes, window_sums = [], []
    for line in range(len(lines)):
        total = end_sums[line] - start_sums[line]
        # t * y over the window, t counted from its first slot
        dot = end_dots[line] - start_dots[line] - (warmup - 1) * total
        slopes.append((n * dot - sum_t * (total + lead)) / den)
        window_sums.append(total + lead)
    last, pad = divmod(horizon - 1, _kernels._SCAN_BLOCK)
    finals = [line - below
              for line, below in zip(lines[:, pad, last].tolist(), excess[:, last].tolist())]
    if horizon < _MIN_CLASSIFY_HORIZON:
        return slopes, [Verdict.INCONCLUSIVE] * len(lines), window_sums, finals
    # a queue is never negative: it returned to empty where its least length
    # from the final half's first slot on, the final one included, is 0. A
    # length is at least its line and equals it where the excess is 0, and a
    # block with (negative) excess holds lines of at least 1, so the least
    # line is 0 exactly where the least length is
    full, part = divmod(horizon // 2 - 1, _kernels._SCAN_BLOCK)
    lows = np.minimum(lines[:, part:, full].min(axis=1),
                      lines[:, :, full + 1:].min(axis=2).min(axis=1)).tolist()
    verdicts = [Verdict.UNSTABLE if slope > SLOPE_THRESHOLD and final > early_sum / early
                else Verdict.STABLE if slope < SLOPE_THRESHOLD and low == 0
                else Verdict.INCONCLUSIVE
                for slope, final, early_sum, low in zip(slopes, finals, early_sums, lows)]
    return slopes, verdicts, window_sums, finals


def classify_stability(trajectory: np.ndarray, warmup: int) -> Verdict:
    """Judge one queue's trajectory (slot-start lengths plus final state).

    Unstable needs sustained growth: a drift slope above ``SLOPE_THRESHOLD``
    and a final backlog above the first post-warmup decile's mean. Stable
    needs a flat slope and at least one return to empty during the final
    half of the run. Everything else is inconclusive.

    The trajectory counts packets: it is 1-D, of an integer dtype, with
    every value in ``[0, MAX_HORIZON]``, as a column of ``run()``'s
    trajectory is. It is judged in the solver's layout, with no excess, by
    the function that judges every run (``_judge``), so its slope is the
    exact one ``run()`` reports as ``drift_slope``.
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
    traj = traj.astype(np.int64)
    lines = _kernels.block_major(traj[None, 1:], traj[-1])
    excess = np.zeros((1, lines.shape[-1]), dtype=np.int64)
    return _judge(lines, excess, warmup, horizon, int(traj[0]))[1][0]


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
    solver's lengths as it returns them, the pair ``(lines, excess)``, and
    its busy columns in its layout, and per run four pairs, one entry per
    queue (``_judge``): its exact drift slope over ``[warmup, horizon)``,
    its verdict, its exact sum over that window and its final length.
    """
    inputs = _kernel_inputs(configs, path)
    warmup, horizon = configs[0].warmup, configs[0].horizon
    (lines, excess), _, busy = _kernels.simulate_slots(*inputs, start=start, horizon=horizon)
    # each run's queue 1, then 2
    judged = _judge(lines.reshape(-1, *lines.shape[2:]), excess.reshape(-1, excess.shape[-1]),
                    warmup, horizon)
    return inputs, (lines, excess), busy, *map(_pairs, judged)


def _pairs(values: list) -> list[tuple]:
    """Per-queue values of a batch, queue 1 then queue 2 of each run, as one
    ``(queue 1, queue 2)`` pair per run."""
    return list(zip(values[::2], values[1::2]))


def run(config: SimConfig, return_trajectory: bool = False) -> SimResult:
    """Simulate one configuration; deterministic for a given config."""
    return _summarise([config], *_solve([config]), return_trajectory)[0]


def _counts(flags: np.ndarray, warmup: int = 0) -> tuple[list[int], list[int]]:
    """Each block-major line's nonzero count along the last two axes of
    ``flags``, in order, and its count from slot ``warmup`` on: the total
    less the count over the first ``warmup`` slots, ``warmup // 16`` full
    blocks and part of the next. One ``count_nonzero`` per line and part,
    which is several times faster than ``count_nonzero`` along an axis, a
    sum through a cast."""
    full, part = divmod(warmup, _kernels._SCAN_BLOCK)
    totals, windows = [], []
    for line in flags.reshape(-1, *flags.shape[-2:]):
        total = int(np.count_nonzero(line))
        totals.append(total)
        if warmup:
            total -= int(np.count_nonzero(line[:, :full]))
            total -= int(np.count_nonzero(line[:part, full]))
        windows.append(total)
    return totals, windows


def _summarise(configs, inputs: tuple, lengths: tuple, busy: np.ndarray, slopes, verdicts, sums,
               finals, return_trajectory: bool = False) -> list[SimResult]:
    """run()'s statistics of each solved run of a batch, from ``_solve``'s
    output. The counts are taken in the solver's layout, where no pad holds
    an arrival, an event or a busy slot, and packets are conserved: a
    queue's departures from a slot on are its length then and its arrivals
    since, less its final length. Only a trajectory asked for is formed
    from all of the solver's ``lines - excess``, as int32 lengths."""
    horizon, warmup = configs[0].horizon, configs[0].warmup
    arrivals, solo1, solo2, both1, both2 = inputs

    n = horizon - warmup
    forced = _forced(configs[0])
    _, busy_post = _counts(busy, warmup)
    arrivals_total, arrived_post = _counts(arrivals, warmup)
    finals = [final for pair in finals for final in pair]
    block, slot = divmod(warmup - 1, _kernels._SCAN_BLOCK)
    lines, excess = lengths
    at_warmup = ((lines[:, :, slot, block] - excess[:, :, block]).ravel().tolist() if warmup
                 else [0] * len(finals))
    departed_post = [length + arrived - final
                     for length, arrived, final in zip(at_warmup, arrived_post, finals)]
    # a queue attempts where it is busy, so its successes are its departures
    attempts, successes = list(busy_post), list(departed_post)
    for k, solo, both in ((0, solo1, both1), (1, solo2, both2)):
        if forced[k]:
            # a dummy queue attempts in every slot, so its successes are its
            # service: np.where(the other queue transmits, both, solo)
            served = np.bitwise_xor(solo, busy[:, 1 - k] & (solo ^ both))
            attempts[k::2] = [n] * len(configs)
            successes[k::2] = _counts(served, warmup)[1]
    results = []
    for run_index, config in enumerate(configs):
        pair = (2 * run_index, 2 * run_index + 1)
        if return_trajectory:
            trajectory = np.zeros((horizon + 1, 2), dtype=np.int64)
            trajectory[1:] = _kernels.slot_major(
                lines[run_index] - excess[run_index, :, None], horizon).T
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
            departures_total=tuple(arrivals_total[line] - finals[line] for line in pair),
            trajectory=trajectory if return_trajectory else None,
        ))
    return results


def _strips(configs: list[SimConfig], members: list[int]) -> list[list[list[int]]]:
    """The strips of the runs ``members`` (indices into ``configs``) of one
    batch key: the runs with one ``lambda2`` form a column, sorted by
    ``lambda1`` descending, and the columns, longest first, are cut into
    strips of ``max(1, _BATCH_SLOTS // horizon)`` columns."""
    columns: dict[float, list[int]] = {}
    for i in members:
        columns.setdefault(configs[i].arrivals.lambda2, []).append(i)
    for column in columns.values():
        column.sort(key=lambda i: configs[i].arrivals.lambda1, reverse=True)
    ordered = sorted(columns.values(), key=len, reverse=True)
    width = max(1, _BATCH_SLOTS // configs[members[0]].horizon)
    return [ordered[lo:lo + width] for lo in range(0, len(ordered), width)]


def _solve_strip(configs: list[SimConfig], strip: list[list[int]], judge, path=None) -> list[tuple]:
    """Solve a strip top-down, one batch per rank in ``lambda1``, and return
    ``(index, result)`` per run, where ``judge(runs, solved)`` makes one
    result per run of a rank from its ``_solve`` output. Every run but a
    column's first starts its Picard passes from queue 2's busy column at
    the run above it: the same ``lambda2`` and a higher ``lambda1``, so an
    upper bound on its own."""
    made = []
    start = None
    for rank in range(len(strip[0])):
        batch = [column[rank] for column in strip if rank < len(column)]
        runs = [configs[i] for i in batch]
        if start is not None:
            start = start[:len(batch)]  # the strip's columns are longest first
        solved = _solve(runs, start, path)
        made += zip(batch, judge(runs, solved))
        start = solved[2][:, 1].copy()  # queue 2's alone, 1 byte per slot and run
        del solved  # the next batch is solved without this one's lengths
    return made


def _batched(configs, workers: int | None, judge) -> list:
    """``judge``'s result for each config, in input order: run_batch's
    grouping by batch key, strips and pool (see there), with
    ``judge(runs, solved)`` making each run's result from its ``_solve``
    output."""
    configs = list(configs)
    batches: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        key = (config.horizon, config.seed, config.params, config.dominant_mode, config.warmup)
        batches.setdefault(key, []).append(i)
    results: list = [None] * len(configs)
    parallel = (workers is not None and workers > 1
                and any(config.horizon >= _POOL_HORIZON for config in configs))
    with ThreadPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:

        def make(strips, path=None):
            solved = (pool.map if pool else map)(
                lambda strip: _solve_strip(configs, strip, judge, path), strips)
            for made in solved:
                for i, result in made:
                    results[i] = result

        make([[members] for members in batches.values() if len(members) == 1])
        for (horizon, seed, params, _, _), members in batches.items():
            if len(members) > 1:
                make(_strips(configs, members), _path(params, horizon, seed))
    return results


def run_batch(configs, workers: int | None = None) -> list[SimResult]:
    """Run independent configs; results follow input order regardless of scheduling.

    Configs that share a batch key, their horizon, seed, params, dominant
    mode and warmup, such as a sweep's cells, share one draw of their sample
    path (``_path``), made before their runs are solved and held only while
    they are made, one path at a time, every worker reading the same
    read-only arrays. They are solved in strips (``_strips``): the runs with
    one ``lambda2`` form a column, and each strip of up to ``_BATCH_SLOTS //
    horizon`` columns is solved top-down, one batch of runs per rank in
    ``lambda1`` (``_solve_strip``).
    On one path a higher ``lambda1`` leaves both queues at least as long in
    every slot, so each run starts its Picard passes from queue 2's busy
    column at the run above it in its column; the start changes only the
    pass count, and every result is the one ``run()`` gives. A config alone
    on its batch key is a lone run, as ``run()`` makes it.

    With ``workers`` above 1, and some run of at least ``_POOL_HORIZON``
    slots, the strips, which are independent of each other, are dispatched
    to a thread pool of that many threads. A run spends most of its time in
    numpy calls, which release the GIL, so the workers run in parallel;
    shorter batches run in the calling thread, where the threads would only
    take turns with the GIL.
    """
    return _batched(configs, workers, lambda runs, solved: _summarise(runs, *solved))


def batch_verdicts(configs, workers: int | None = None) -> list[tuple[Verdict, Verdict]]:
    """Each config's ``(verdict1, verdict2)``, in input order: the
    ``verdict`` of ``run_batch(configs, workers)``, made as it is made but
    without the rest of each run's statistics (``_summarise``)."""
    return _batched(configs, workers, lambda runs, solved: solved[4])


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
    probe, the ray draws the path (``_path``), its four success-event
    columns and its arrival uniforms, once, and holds it until it returns;
    every probe at its seed compares the uniforms with its own rates. A
    probe is ``run()`` without its statistics, ``_solve``, so its verdict
    is exactly ``system_verdict(run(SimConfig(point, params,
    horizon=horizon, seed=seed)).verdict)``. An inconclusive probe counts
    as non-stable, so a ray makes ``1 + steps`` solves and its end must be
    judged unstable.

    On one sample path, a higher scale means more arrivals in every slot,
    and a longer queue only takes service from the other (a shared-slot
    success implies the solo one), so both queues grow pathwise with the
    scale. Every later probe lies below the last non-stable one, so queue
    2's busy column there is an upper bound for theirs, and each coupled
    solve starts its Picard passes from it; the start changes only the pass
    count (``_kernels.simulate_slots``). The verdict rule is not monotone in
    the trajectory, so verdicts need not be monotone along the ray, and the
    point returned is one crossing from a stable probe to a non-stable one.
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
    path = _path(params, origin.horizon, origin.seed)
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    cap = min(1.0 / c if c > 0.0 else math.inf, 1.0 / s if s > 0.0 else math.inf)
    start = None

    def probe(scale: float) -> Verdict:
        nonlocal start
        point = RatePoint(scale * c, scale * s)
        _, _, busy, _, verdicts, *_ = _solve(
            [SimConfig(point, params, horizon=horizon, seed=seed)], start, path)
        v = system_verdict(verdicts[0])
        if v is not Verdict.STABLE:
            # it bounds queue 2's busy column at every lower scale; a copy
            # holds 1 byte per slot, not both queues' 2
            start = busy[:, 1].copy()
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
