"""Slot-level Monte Carlo simulator of the coupled two-queue downlink.

This is the independent oracle for everything the closed forms claim:
service rates, empty-queue probabilities, and stability verdicts. Dominant
modes make one queue transmit dummy packets whenever it is empty, which
decouples the other queue exactly as in the saturated-queue analysis.

Slot ordering convention: transmissions are decided and resolved on the
slot-start state, then arrivals join, so a packet arriving in slot t can
depart in slot t+1 at the earliest. All randomness comes from one seeded
stream (arrival uniforms first, then channel draws), turned into flags
block by block before the queues are solved, so runs are reproducible
bit-for-bit and different dominant modes of the same seed share identical
randomness (common random numbers).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import _kernels
from .channel import Decoding, InvalidParameterError, SystemParams, _raw_events, success_events
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
# before any allocation. A boundary-search ray also keeps its shared success
# events (4 bytes per slot) and one busy column of queue 2 (1 byte) between
# probes, so its probes peak at most about 5 bytes per slot above one run.
# The vectorised queue solver's int32 walk needs it below 2**31.
MAX_HORIZON = 10_000_000

# Slots per block of a run's draws (_kernel_inputs): the block's two float64
# buffers, slot-major and transposed, 512 KiB each, stay in a core's L2 cache
# while they become flags.
_DRAW_BLOCK = 1 << 15

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
    non-negative, as numpy's generators require.
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


def _kernel_inputs(config: SimConfig, events=None) -> tuple:
    """Arrival flags, the four success-event columns and the dummy-mode flags.

    The run's stream is ``np.random.default_rng(seed)``: ``2*horizon``
    arrival uniforms, one per queue and slot, then as many channel draws
    (uniforms for the generic scheme, unit-mean exponential gains
    otherwise), both slot-major. Every uniform takes exactly one 64-bit
    output, so the channel draws start at position ``2*horizon`` of the bit
    generator, and a second generator advanced there draws them. Both
    generators fill a ``_DRAW_BLOCK``-slot buffer at a time, and each block
    becomes flags while it is in cache; only the flags, 6 bytes per slot,
    outlive it. ``arrivals`` is the ``(horizon, 2)`` transpose of a
    ``(2, horizon)`` array, so each queue's column is contiguous.

    ``events``, the four success-event columns of an earlier call with the
    same seed, horizon and parameters, are returned as they are, and the
    channel draws are skipped: they do not depend on the arrival rates.
    """
    horizon, params = config.horizon, config.params
    lam = (config.arrivals.lambda1, config.arrivals.lambda2)
    arrivals = np.empty((2, horizon), dtype=bool)
    arrival_rng = np.random.default_rng(config.seed)
    shared = events is not None
    if not shared:
        events = np.empty((4, horizon), dtype=bool)
        channel_bits = np.random.PCG64(config.seed)
        channel_bits.advance(2 * horizon)
        channel_rng = np.random.Generator(channel_bits)
        # the same bits as rng.exponential(1.0, ...), without the scaling pass
        draw = (channel_rng.random if params.decoding is Decoding.GENERIC
                else channel_rng.standard_exponential)
    # a generator fills slot-major blocks; one transposing copy puts each
    # user's draws in a contiguous row, which compares several times faster
    # than a strided column
    drawn = np.empty((min(horizon, _DRAW_BLOCK), 2))
    rows = np.empty((2, drawn.shape[0]))
    for lo in range(0, horizon, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, horizon)
        u = rows[:, :hi - lo]
        np.copyto(u, arrival_rng.random(out=drawn[:hi - lo]).T)
        for k in (0, 1):
            np.less(u[k], lam[k], out=arrivals[k, lo:hi])
        if not shared:
            np.copyto(u, draw(out=drawn[:hi - lo]).T)
            for row, success in zip(events, success_events(params, u[0], u[1])):
                row[lo:hi] = success
    return (arrivals.T, *events, *_forced(config))


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


def _drift_slope(series: np.ndarray) -> float:
    """Exact least-squares slope of an integer ``series`` over its index,
    rounded once; needs at least two points, each in ``[0, MAX_HORIZON]``.

    The slope is ``num / den`` with ``num = n*sum(t*y) - sum(t)*sum(y)`` and
    ``den = n*sum(t*t) - sum(t)**2`` formed as Python ints. ``sum(y)`` and
    ``sum(t*y)`` are taken in int64, ``_SLOPE_BLOCK`` points at a time.
    """
    n = series.shape[0]
    block = min(n, _SLOPE_BLOCK)
    index = _cached_index(block)
    sum_y = sum_ty = 0
    for start in range(0, n, block):
        part = series[start:start + block].astype(np.int64, copy=False)
        part_sum = int(part.sum())
        sum_ty += int(np.dot(part, index[:part.shape[0]])) + start * part_sum
        sum_y += part_sum
    sum_t = n * (n - 1) // 2
    sum_tt = (n - 1) * n * (2 * n - 1) // 6
    return (n * sum_ty - sum_t * sum_y) / (n * sum_tt - sum_t * sum_t)


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
    _check_fit_window(warmup, horizon)
    if traj.dtype.kind not in "iu" or traj.min() < 0 or traj.max() > MAX_HORIZON:
        raise InvalidParameterError(f"queue lengths are integers in [0, {MAX_HORIZON}]")
    return _verdict(traj, warmup, _drift_slope(traj[warmup:horizon]), slope_threshold)


def _verdict(traj: np.ndarray, warmup: int, slope: float, slope_threshold: float) -> Verdict:
    """classify_stability's rule, given the drift slope of ``traj[warmup:-1]``."""
    horizon = traj.shape[0] - 1
    post = traj[warmup:horizon]
    final = float(traj[horizon])
    early_mean = float(post[: max(1, post.shape[0] // 10)].mean())
    returned_to_zero = bool(np.any(traj[horizon // 2 :] == 0))
    if slope > slope_threshold and final > early_mean:
        return Verdict.UNSTABLE
    if slope < slope_threshold and returned_to_zero:
        return Verdict.STABLE
    return Verdict.INCONCLUSIVE


def system_verdict(verdicts: tuple[Verdict, Verdict]) -> Verdict:
    """Collapse per-queue verdicts: any unstable queue sinks the system."""
    if Verdict.UNSTABLE in verdicts:
        return Verdict.UNSTABLE
    if Verdict.INCONCLUSIVE in verdicts:
        return Verdict.INCONCLUSIVE
    return Verdict.STABLE


def _solve(config: SimConfig, events=None, start=None) -> tuple:
    """Draw a run's randomness, solve its queues and judge each queue.

    ``events`` are passed to ``_kernel_inputs`` and ``start`` to
    ``_kernels.simulate_slots``. Returns the kernel inputs, the
    ``(2, horizon + 1)`` slot-start lengths, each queue's exact drift slope
    over ``[warmup, horizon)`` and its verdict (``classify_stability``'s
    rule; inconclusive below 10000 slots).
    """
    inputs = _kernel_inputs(config, events)
    q, _ = _kernels.simulate_slots(*inputs, start=start)
    warmup, horizon = config.warmup, config.horizon
    slopes = tuple(_drift_slope(row[warmup:horizon]) for row in q)
    if horizon < _MIN_CLASSIFY_HORIZON:
        verdicts = (Verdict.INCONCLUSIVE, Verdict.INCONCLUSIVE)
    else:
        verdicts = tuple(_verdict(row, warmup, slope, SLOPE_THRESHOLD)
                         for row, slope in zip(q, slopes))
    return inputs, q, slopes, verdicts


def run(config: SimConfig, return_trajectory: bool = False) -> SimResult:
    """Simulate one configuration; deterministic for a given config."""
    return _summarise(config, *_solve(config), return_trajectory)


def _summarise(config: SimConfig, inputs: tuple, q: np.ndarray, slopes, verdicts,
               return_trajectory: bool = False) -> SimResult:
    """run()'s statistics of a solved run, given each queue's drift slope and verdict."""
    horizon, warmup = config.horizon, config.warmup
    arrivals, solo1, solo2, both1, both2, force1, force2 = inputs

    n = horizon - warmup
    real = q[:, :horizon] > 0
    attempt = (real[0] | force1, real[1] | force2)
    stats = []
    for k, solo, both in ((0, solo1, both1), (1, solo2, both2)):
        # np.where(other queue transmits, both, solo) as in the solver
        service = solo ^ (attempt[1 - k] & (solo ^ both))
        departed = real[k] & service
        attempts = int(np.count_nonzero(attempt[k][warmup:]))
        successes = int(np.count_nonzero(attempt[k][warmup:] & service[warmup:]))
        departed_post = int(np.count_nonzero(departed[warmup:]))
        stats.append((
            int(q[k, warmup:horizon].sum()) / n,
            int(q[k, horizon]),
            successes / attempts if attempts else 0.0,
            departed_post / n,
            (n - int(np.count_nonzero(real[k, warmup:]))) / n,
            int(np.count_nonzero(arrivals[:, k])),
            int(np.count_nonzero(departed)),
        ))
    (mean_queue, final_queue, success_rate, departure_rate, empty_fraction,
     arrivals_total, departures_total) = zip(*stats)
    return SimResult(
        config=config,
        mean_queue=mean_queue,
        final_queue=final_queue,
        success_rate=success_rate,
        departure_rate=departure_rate,
        empty_fraction=empty_fraction,
        drift_slope=slopes,
        verdict=verdicts,
        arrivals_total=arrivals_total,
        departures_total=departures_total,
        trajectory=np.ascontiguousarray(q.T, dtype=np.int64) if return_trajectory else None,
    )


def run_batch(configs, workers: int | None = None) -> list[SimResult]:
    """Run independent configs; results follow input order regardless of scheduling.

    With ``workers`` the runs are dispatched to a thread pool. A run spends
    most of its time in numpy calls, which release the GIL, so the workers
    run in parallel.
    """
    configs = list(configs)
    if workers is None or workers <= 1:
        return [run(c) for c in configs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, configs))


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
    ray (common random numbers). The first probe draws the channel and its
    four success-event columns; later probes reuse them and draw only the
    arrival uniforms, the same for every probe, which they compare with
    their own rates. A probe is ``run()`` without its statistics: it is
    ``_solve``, which fits and judges each queue as ``run()`` does, so its
    verdict is exactly ``system_verdict(run(SimConfig(point, params,
    horizon=horizon, seed=seed)).verdict)``. An inconclusive probe is retried
    once on fresh randomness, the run at seed ``seed + 7919*k + 13`` for
    probe ``k`` (0 at the ray's end, 4 onwards in the bisection), and is
    then treated as non-stable (it can only sit next to the frontier, so
    either assignment keeps the bracket valid to within the probe noise).

    On one sample path, a higher scale means more arrivals in every slot,
    and a longer queue only takes service from the other (a shared-slot
    success implies the solo one), so both queues grow pathwise with the
    scale. Queue 2's busy column at the nearest non-stable probe above is
    thus an upper bound for every lower probe's, and each coupled solve
    starts its Picard passes there; the start changes only the pass count
    (``_kernels.simulate_slots``). A retry's busy column lies on another
    path and is never a start.
    """
    if not 0.0 <= angle_deg <= 90.0:
        raise InvalidParameterError("angle must lie in [0, 90] degrees")
    if steps < 8:
        raise InvalidParameterError("at least 8 bisection steps are required")
    if horizon < _MIN_CLASSIFY_HORIZON:
        # every probe would be inconclusive, and no bracket could be found
        raise InvalidParameterError(
            f"boundary search needs a horizon of at least {_MIN_CLASSIFY_HORIZON} slots"
        )
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    cap = min(1.0 / c if c > 0.0 else math.inf, 1.0 / s if s > 0.0 else math.inf)
    events = start = None

    def probe(scale: float, k: int) -> Verdict:
        nonlocal events, start
        point = RatePoint(scale * c, scale * s)
        inputs, q, _, verdicts = _solve(SimConfig(point, params, horizon=horizon, seed=seed),
                                        events, start)
        events, busy2 = inputs[1:5], q[1, :-1] > 0
        del inputs, q
        v = system_verdict(verdicts)
        if v is Verdict.INCONCLUSIVE:
            retry = SimConfig(point, params, horizon=horizon, seed=seed + 7919 * k + 13)
            v = system_verdict(_solve(retry)[3])
        if v is not Verdict.STABLE:
            start = busy2  # it bounds queue 2's busy column at every lower scale
        return v

    lo, hi = 0.0, cap
    if probe(hi, 0) is not Verdict.UNSTABLE:
        raise EstimationFailureError(
            f"no unstable bracket along {angle_deg} deg (tried scale {hi})"
        )
    # the bisection's probes are numbered from 4, which fixes their retry seeds
    for i in range(steps):
        mid = 0.5 * (lo + hi)
        if probe(mid, 4 + i) is Verdict.STABLE:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return RatePoint(mid * c, mid * s)
