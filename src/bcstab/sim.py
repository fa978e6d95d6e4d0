"""Slot-level Monte Carlo simulator of the coupled two-queue downlink.

This is the independent oracle for everything the closed forms claim:
service rates, empty-queue probabilities, and stability verdicts. Dominant
modes make one queue transmit dummy packets whenever it is empty, which
decouples the other queue exactly as in the saturated-queue analysis.

Slot ordering convention: transmissions are decided and resolved on the
slot-start state, then arrivals join, so a packet arriving in slot t can
depart in slot t+1 at the earliest. All randomness is pre-drawn from a
seeded generator (arrival uniforms first, then channel draws), so runs are
reproducible bit-for-bit and different dominant modes of the same seed
share identical randomness (common random numbers).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from .channel import Decoding, InvalidParameterError, SystemParams, success_events
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
    of the horizon). Arrivals are independent Bernoulli per queue per slot,
    so rates must not exceed 1.
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
        if self.horizon < 10:
            raise InvalidParameterError("horizon must be at least 10 slots")
        if self.warmup is None:
            object.__setattr__(self, "warmup", self.horizon // 10)
        if not 0 <= self.warmup < self.horizon:
            raise InvalidParameterError("warmup must satisfy 0 <= warmup < horizon")


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
    solo1, solo2, both1, both2 = success_events(config.params, *channel)
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


def _draw_randomness(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(config.seed)
    arr_u = rng.random((config.horizon, 2))
    if config.params.decoding is Decoding.GENERIC:
        chan = rng.random((config.horizon, 2))
    else:
        chan = rng.exponential(1.0, (config.horizon, 2))
    return arr_u, chan


def _kernel_inputs(config: SimConfig) -> tuple:
    """Arrival flags, the four success-event columns and the dummy-mode flags."""
    arr_u, chan = _draw_randomness(config)
    arrivals = arr_u < np.array([config.arrivals.lambda1, config.arrivals.lambda2])
    return (arrivals, *success_events(config.params, chan[:, 0], chan[:, 1]), *_forced(config))


def _fit_slope(series: np.ndarray) -> float:
    x = np.arange(series.shape[0], dtype=np.float64)
    return float(np.polyfit(x, series.astype(np.float64), 1)[0])


def classify_stability(
    trajectory: np.ndarray, warmup: int, slope_threshold: float = SLOPE_THRESHOLD
) -> Verdict:
    """Judge one queue's trajectory (slot-start lengths plus final state).

    Unstable needs sustained growth: a drift slope above the threshold and a
    final backlog above the first post-warmup decile's mean. Stable needs a
    flat slope and at least one return to empty during the final half of the
    run. Everything else is inconclusive.
    """
    traj = np.asarray(trajectory)
    horizon = traj.shape[0] - 1
    if horizon < _MIN_CLASSIFY_HORIZON:
        raise InvalidParameterError(
            f"classification needs a horizon of at least {_MIN_CLASSIFY_HORIZON} slots"
        )
    if not 0 <= warmup < horizon:
        raise InvalidParameterError("warmup must satisfy 0 <= warmup < horizon")
    post = traj[warmup:horizon]
    slope = _fit_slope(post)
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


def run(config: SimConfig, return_trajectory: bool = False) -> SimResult:
    """Simulate one configuration; deterministic for a given config."""
    horizon, warmup = config.horizon, config.warmup
    inputs = _kernel_inputs(config)
    arrivals, solo1, solo2, both1, both2, force1, force2 = inputs
    qtraj = np.zeros((horizon + 1, 2), dtype=np.int64)
    _kernels.simulate_slots(*inputs, qtraj)

    starts = qtraj[:horizon]
    real = starts > 0
    t1 = real[:, 0] | force1
    t2 = real[:, 1] | force2
    attempts = np.stack([t1, t2], axis=1)
    succ = np.stack([t1 & np.where(t2, both1, solo1), t2 & np.where(t1, both2, solo2)], axis=1)
    departures = succ & real

    post = slice(warmup, horizon)
    att_counts = attempts[post].sum(axis=0)
    suc_counts = succ[post].sum(axis=0)
    success_rate = np.divide(
        suc_counts, att_counts, out=np.zeros(2), where=att_counts > 0
    )
    if horizon >= _MIN_CLASSIFY_HORIZON:
        verdicts = (
            classify_stability(qtraj[:, 0], warmup),
            classify_stability(qtraj[:, 1], warmup),
        )
    else:
        verdicts = (Verdict.INCONCLUSIVE, Verdict.INCONCLUSIVE)

    return SimResult(
        config=config,
        mean_queue=tuple(starts[post].mean(axis=0).tolist()),
        final_queue=tuple(qtraj[horizon].tolist()),
        success_rate=tuple(success_rate.tolist()),
        departure_rate=tuple(departures[post].mean(axis=0).tolist()),
        empty_fraction=tuple((starts[post] == 0).mean(axis=0).tolist()),
        drift_slope=(
            _fit_slope(qtraj[warmup:horizon, 0]),
            _fit_slope(qtraj[warmup:horizon, 1]),
        ),
        verdict=verdicts,
        arrivals_total=tuple(arrivals.sum(axis=0).tolist()),
        departures_total=tuple(departures.sum(axis=0).tolist()),
        trajectory=qtraj if return_trajectory else None,
    )


def run_batch(configs, workers: int | None = None) -> list[SimResult]:
    """Run independent configs; results follow input order regardless of scheduling.

    With ``workers`` the runs are dispatched to a thread pool (the compiled
    kernel releases the GIL, so this is real parallelism when numba is on).
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
    hi_scale: float | None = None,
    lo_scale: float = 0.0,
) -> RatePoint:
    """Locate the empirical stability frontier along one ray by bisection.

    The scale factor along ``(cos a, sin a)`` is bisected between a stable
    and an unstable bracket using simulated verdicts; the origin is stable
    by definition. Each probe gets its own deterministic seed; an
    inconclusive probe is retried once with a fresh seed and then treated
    as non-stable (it can only sit next to the frontier, so either
    assignment keeps the bracket valid to within the probe noise).
    """
    if not 0.0 <= angle_deg <= 90.0:
        raise InvalidParameterError("angle must lie in [0, 90] degrees")
    if steps < 8:
        raise InvalidParameterError("at least 8 bisection steps are required")
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    cap = min(1.0 / c if c > 0.0 else math.inf, 1.0 / s if s > 0.0 else math.inf)

    def probe(scale: float, k: int) -> Verdict:
        if scale <= 0.0:
            return Verdict.STABLE
        point = RatePoint(scale * c, scale * s)
        v = system_verdict(
            run(SimConfig(point, params, horizon=horizon, seed=seed + 7919 * k)).verdict
        )
        if v is Verdict.INCONCLUSIVE:
            v = system_verdict(
                run(
                    SimConfig(point, params, horizon=horizon, seed=seed + 7919 * k + 13)
                ).verdict
            )
        return v

    hi = min(hi_scale, cap) if hi_scale is not None else cap
    lo = max(0.0, lo_scale)
    if probe(hi, 0) is not Verdict.UNSTABLE:
        wider = min(1.5 * hi, cap)
        if wider <= hi or probe(wider, 1) is not Verdict.UNSTABLE:
            raise EstimationFailureError(
                f"no unstable bracket along {angle_deg} deg (tried scale {hi})"
            )
        hi = wider
    if lo > 0.0 and probe(lo, 2) is not Verdict.STABLE:
        narrower = 0.5 * lo
        if probe(narrower, 3) is not Verdict.STABLE:
            raise EstimationFailureError(
                f"no stable bracket along {angle_deg} deg (tried scale {lo})"
            )
        lo = narrower

    for i in range(steps):
        mid = 0.5 * (lo + hi)
        if probe(mid, 4 + i) is Verdict.STABLE:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return RatePoint(mid * c, mid * s)
