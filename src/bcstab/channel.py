"""Physical-layer model: decoding-success probabilities for two downlink users.

Everything is linear scale (no dB). Channel power gains are unit-mean
exponential (Rayleigh envelope squared), constant within a slot and drawn
independently across slots. The four probabilities that matter downstream
are collected in :class:`SuccessProfile`: per user, the success probability
when its packet is sent alone and when both users' packets share the slot.

The same four events are decided per fading draw by :func:`_raw_events`,
the only place the decoding inequalities are written. Each is in margin
form: the SINR test ``p_own*u / (1 + p_other*u) >= gamma`` becomes
``(p_own - gamma*p_other)*u >= gamma`` (Tse & Viswanath, *Fundamentals of
Wireless Communication*, ch. 6), so every test compares a correctly rounded
product of a constant and the draw with a positive constant, and successive
decoding's joint event is the conjunction of two such tests. Rounding is
monotone, so every event is monotone in its user's draw: it fails below one
threshold and succeeds from it on. The simulator takes the events from
:func:`success_events`, and the Monte Carlo oracle (:func:`mc_estimate_profile`)
makes its comparisons: the same bits, one comparison per event and draw. Once per
parameter set a k-ary search over the bit patterns of the draws in
``[0, _MAX_GAIN]`` (non-negative doubles order like their int64 patterns)
finds each threshold exactly (:func:`_thresholds`). The thresholds are
found by evaluating the raw inequalities themselves, never from the closed
forms, so the oracle stays independent of the probabilities it checks.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from warnings import warn

import numpy as np

__all__ = [
    "Decoding",
    "PowerScheme",
    "SuccessProfile",
    "SystemParams",
    "InvalidParameterError",
    "InvalidProfileError",
    "snr_success",
    "sinr_success",
    "layered_decode_success",
    "build_profile",
    "success_events",
    "mc_estimate_profile",
]


class InvalidParameterError(ValueError):
    """A physical or protocol parameter is outside its valid domain."""


class InvalidProfileError(ValueError):
    """A success-probability profile violates its consistency constraints."""


class Decoding(str, Enum):
    """How a receiver handles the other user's layer when both transmit."""

    GENERIC = "generic"
    INTERFERENCE_AS_NOISE = "ian"
    SUCCESSIVE_DECODING = "sc"


class PowerScheme(str, Enum):
    """Fixed per-queue powers, or full power to the only busy queue."""

    FIXED = "fixed"
    QUEUE_ADAPTIVE = "adaptive"


# Cross-field slack for validating p_both <= p_solo on supplied profiles.
_PROFILE_TOL = 1e-12

# Upper bound on any float64 unit-mean exponential draw: -ln of the smallest
# positive double is about 744.4.
_MAX_GAIN = 745.0


@dataclass(frozen=True)
class SuccessProfile:
    """The four decoding-success probabilities that determine the region.

    ``p1_solo``/``p2_solo`` apply when only that user's packet occupies the
    slot; ``p1_both``/``p2_both`` when both packets are superposed. Sharing
    the slot can only hurt, so ``p_both <= p_solo`` per user. An entry
    below the smallest normal double is stored as 0, so every entry is 0 or
    normal and the region's arithmetic needs no subnormal case.
    """

    p1_solo: float
    p2_solo: float
    p1_both: float
    p2_both: float

    def __post_init__(self):
        for name in ("p1_solo", "p2_solo", "p1_both", "p2_both"):
            v = float(getattr(self, name))
            if math.isnan(v) or not (0.0 <= v <= 1.0):
                raise InvalidProfileError(f"{name}={v!r} is not a probability")
            object.__setattr__(self, name, v if v >= sys.float_info.min else 0.0)
        for k in (1, 2):
            both, solo = getattr(self, f"p{k}_both"), getattr(self, f"p{k}_solo")
            if both > solo + _PROFILE_TOL:
                raise InvalidProfileError(f"p{k}_both={both} exceeds p{k}_solo={solo}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1_solo, self.p2_solo, self.p1_both, self.p2_both)


@dataclass(frozen=True)
class SystemParams:
    """All physical and protocol constants for one operating point.

    ``gamma1``/``gamma2`` are the SNR/SINR decoding thresholds (linear),
    ``d1``/``d2`` the link distances, ``alpha`` the pathloss exponent.
    ``p1 + p2`` must equal the total budget ``p_total``; under the
    queue-adaptive scheme the split only applies while both queues are
    busy and a lone busy queue gets the full budget.
    """

    gamma1: float
    gamma2: float
    d1: float
    d2: float
    alpha: float
    p_total: float
    p1: float
    p2: float
    decoding: Decoding = Decoding.INTERFERENCE_AS_NOISE
    power_scheme: PowerScheme = PowerScheme.FIXED
    generic_profile: SuccessProfile | None = None

    def __post_init__(self):
        object.__setattr__(self, "decoding", Decoding(self.decoding))
        object.__setattr__(self, "power_scheme", PowerScheme(self.power_scheme))
        for name in ("gamma1", "gamma2", "d1", "d2", "alpha", "p_total", "p1", "p2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")
        for name in ("gamma1", "gamma2", "d1", "d2", "alpha", "p_total"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(f"{name} must be strictly positive")
        for name in ("d1", "d2"):
            try:
                getattr(self, name) ** self.alpha
                getattr(self, name) ** -self.alpha
            except OverflowError:
                raise InvalidParameterError(
                    f"pathloss {name}**alpha or its inverse is out of floating-point range"
                ) from None
        if self.p1 < 0.0 or self.p2 < 0.0:
            raise InvalidParameterError("per-queue powers must be >= 0")
        if abs(self.p1 + self.p2 - self.p_total) > 1e-12 * self.p_total:
            raise InvalidParameterError(
                f"p1 + p2 = {self.p1 + self.p2!r} does not match p_total={self.p_total!r}"
            )
        # Every product _raw_events forms, at the largest possible gain,
        # must be finite: an overflow to inf would make inf >= inf succeed.
        power = max(self.p1, self.p2, self.p_total, 1.0)
        gamma = max(self.gamma1, self.gamma2)
        for name in ("d1", "d2"):
            gain = _MAX_GAIN * getattr(self, name) ** -self.alpha
            if not math.isfinite(gamma * (1.0 + power * gain)):
                raise InvalidParameterError(
                    f"threshold times received power over {name} overflows at the largest gain"
                )
        if self.decoding is Decoding.GENERIC:
            if self.generic_profile is None:
                raise InvalidParameterError("generic decoding requires generic_profile")
        elif self.generic_profile is not None:
            raise InvalidParameterError(
                "generic_profile is only meaningful with generic decoding"
            )
        if self.decoding is Decoding.SUCCESSIVE_DECODING and self.d1 > self.d2:
            # Successive decoding assumes receiver 1 has the better channel;
            # the formulas stay valid, so this is advisory only.
            warn(
                "successive decoding models user 1 as the stronger receiver, "
                f"but d1={self.d1} > d2={self.d2}",
                stacklevel=3,
            )

    def solo_power(self, user: int) -> float:
        """Transmit power used when only queue ``user`` is busy.

        Under the adaptive scheme this is the budget, or the queue's shared
        power where the split's tolerance lets that exceed the budget, so a
        lone queue never transmits with less power than when it shares.
        """
        shared = self.p1 if _check_user(user) == 1 else self.p2
        if self.power_scheme is PowerScheme.QUEUE_ADAPTIVE:
            return max(self.p_total, shared)
        return shared


def _check_user(user: int) -> int:
    if user not in (1, 2):
        raise InvalidParameterError(f"user must be 1 or 2, got {user!r}")
    return user


def _as_count(name: str, value) -> int:
    """``value``, a count or seed of any integer type, as a Python int."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None


def _exp_term(exponent: float) -> float:
    # exponent is >= 0 here. math.exp stays positive up to about 745, but
    # past 700 this returns an exact 0.0, so every nonzero closed form is a
    # normal double, at least e**-700.
    if exponent > 700.0:
        return 0.0
    return math.exp(-exponent)


def snr_success(gamma: float, dist: float, alpha: float, power: float) -> float:
    """P[power * g * dist**-alpha >= gamma] with g ~ Exp(1).

    This is the interference-free outage complement of a Rayleigh link. A
    zero power sends nothing, so nothing is decoded: probability 0.0.
    """
    if power < 0.0:
        raise InvalidParameterError(f"transmit power must be >= 0, got {power!r}")
    if power == 0.0:
        return 0.0
    return _exp_term(gamma * dist**alpha / power)


def sinr_success(gamma: float, dist: float, alpha: float, p_own: float, p_other: float) -> float:
    """Success probability of one layer with the other treated as noise.

    The SINR ``p_own*g*d^-a / (1 + p_other*g*d^-a)`` saturates at
    ``p_own/p_other`` as the gain grows, so the event is infeasible and the
    probability exactly 0.0 whenever ``p_own <= gamma * p_other``.
    """
    margin = p_own - gamma * p_other
    if margin <= 0.0:
        return 0.0
    return _exp_term(gamma * dist**alpha / margin)


def layered_decode_success(
    gamma_own: float,
    gamma_peer: float,
    dist: float,
    alpha: float,
    p_own: float,
    p_peer: float,
) -> float:
    """Joint success of peel-then-decode at the stronger receiver.

    The receiver first decodes the peer layer treating its own as noise,
    removes it, then decodes its own layer interference-free. Both decodes
    succeed when the fading draw reaches both sub-events' thresholds, so the
    joint probability is the smaller of the two closed forms,
    ``min(sinr_success(peer layer), snr_success(own layer))``: 0 when
    ``p_peer <= gamma_peer * p_own``, where the peer layer is never
    decodable; otherwise the peer-layer SINR event binds at moderate
    ``p_peer``, the own-layer SNR event above
    ``p_own * gamma_peer * (1 + gamma_own) / gamma_own``, and the two agree
    at that crossover.
    """
    if gamma_own <= 0.0:
        raise InvalidParameterError("gamma_own must be positive")
    return min(sinr_success(gamma_peer, dist, alpha, p_peer, p_own),
               snr_success(gamma_own, dist, alpha, p_own))


def build_profile(params: SystemParams) -> SuccessProfile:
    """The four success probabilities of the configured scheme, in closed form,
    one per event of :func:`_raw_events` and in its order."""
    if params.decoding is Decoding.GENERIC:
        return params.generic_profile
    gamma1, gamma2, alpha = params.gamma1, params.gamma2, params.alpha
    d1, d2, p1, p2 = params.d1, params.d2, params.p1, params.p2
    if params.decoding is Decoding.SUCCESSIVE_DECODING:
        p1_both = layered_decode_success(gamma1, gamma2, d1, alpha, p1, p2)
    else:
        p1_both = sinr_success(gamma1, d1, alpha, p1, p2)
    return SuccessProfile(snr_success(gamma1, d1, alpha, params.solo_power(1)),
                          snr_success(gamma2, d2, alpha, params.solo_power(2)),
                          p1_both, sinr_success(gamma2, d2, alpha, p2, p1))


def _raw_events(params: SystemParams, c1, c2):
    """Decoding outcome of each user on given channel draws, alone and shared.

    The only place the decoding inequalities are written. ``c1``/``c2`` are
    the draws of users 1 and 2, scalars or equal-shape arrays: uniforms for
    the generic scheme, which succeed below the profile's probability, and
    unit-mean exponential gains otherwise, which are tested against the raw
    SNR/SINR inequalities in margin form, so that each draw meets one
    multiplication by a constant and one comparison. Returns ``(solo1,
    solo2, both1, both2)``: success when only that user's packet is sent,
    and when both packets share the slot.
    """
    if params.decoding is Decoding.GENERIC:
        prof = params.generic_profile
        # min(): a profile may put p_both up to _PROFILE_TOL above p_solo, and
        # a shared-slot success must still imply the solo one
        return (c1 < prof.p1_solo, c2 < prof.p2_solo,
                c1 < min(prof.p1_both, prof.p1_solo), c2 < min(prof.p2_both, prof.p2_solo))
    u1 = c1 * params.d1 ** -params.alpha
    u2 = c2 * params.d2 ** -params.alpha
    gamma1, gamma2, p1, p2 = params.gamma1, params.gamma2, params.p1, params.p2
    solo1 = params.solo_power(1) * u1 >= gamma1
    solo2 = params.solo_power(2) * u2 >= gamma2
    # A margin at or below zero never succeeds, as gamma > 0; clipping it at
    # zero keeps an overflowed gamma*p_other (-inf) from meeting a zero draw.
    margin2 = max(p2 - gamma2 * p1, 0.0)
    if params.decoding is Decoding.SUCCESSIVE_DECODING:
        # peel user 2's layer (its SINR), then decode user 1's interference-free
        both1 = (margin2 * u1 >= gamma2) & (p1 * u1 >= gamma1)
    else:
        both1 = max(p1 - gamma1 * p2, 0.0) * u1 >= gamma1
    both2 = margin2 * u2 >= gamma2
    return solo1, solo2, both1, both2


# Points per round of the k-ary search for the thresholds: eight rounds span
# the 2**62 bit patterns of [0, _MAX_GAIN].
_SEARCH_POINTS = 255


@lru_cache(maxsize=16)
def _thresholds(params: SystemParams) -> tuple[float, ...]:
    """Per event of _raw_events, the draw in ``[0, _MAX_GAIN]`` of its user
    (events 0 and 2 are user 1's, 1 and 3 user 2's) from which on it
    succeeds, or ``inf`` if it fails there: every event is monotone in that
    draw, so the draw at which it first succeeds after a failure one bit
    pattern below is exact.

    Non-negative doubles order like their int64 bit patterns, so this is a
    bisection over integers: a k-ary search that keeps, per event, a
    failing pattern ``lo`` and a succeeding pattern ``hi`` (virtual ones
    just outside the range to start) and ends when they are adjacent. All
    four events are evaluated in one call per round; each depends only on
    its user's draw, so the same candidate array is passed for both users.
    """
    top = int(np.float64(_MAX_GAIN).view(np.int64))
    lo = np.full(4, -1, dtype=np.int64)
    hi = np.full(4, top + 1, dtype=np.int64)
    rows = np.arange(4)
    steps = np.arange(1, _SEARCH_POINTS + 1)
    while np.any(active := hi - lo > 1):
        stride = np.maximum((hi - lo) // (_SEARCH_POINTS + 1), 1)
        points = np.minimum(lo[:, None] + stride[:, None] * steps, (hi - 1)[:, None])
        points[~active] = 0
        draws = points.view(np.float64)
        success = np.stack(_raw_events(params, draws, draws))[rows, rows]
        found = success.any(axis=1)
        first = success.argmax(axis=1)
        below = np.where(first > 0, points[rows, first - 1], lo)
        lo = np.where(active, np.where(found, below, points[:, -1]), lo)
        hi = np.where(active & found, points[rows, first], hi)
    return tuple(math.inf if h > top else float(np.int64(h).view(np.float64)) for h in hi)


def success_events(params: SystemParams, c1, c2):
    """Decoding outcome of each user on given channel draws, alone and shared.

    ``c1``/``c2`` are the draws of users 1 and 2, scalars or equal-shape
    arrays: uniforms for the generic scheme, which succeed below the
    profile's probability, and unit-mean exponential gains otherwise.
    Returns ``(solo1, solo2, both1, both2)``: success when only that user's
    packet is sent, and when both packets share the slot.

    The result is that of the raw inequalities (``_raw_events``) on every
    draw in ``[0, _MAX_GAIN]``, the range of any float64 exponential draw.
    For arrays of exponential gains each event is decided by one comparison
    of its user's draw with its exact threshold (``_thresholds``), bisected
    once per parameter set from the raw inequality, never from the closed
    forms, so the Monte Carlo oracle stays independent of what it checks.
    """
    if params.decoding is Decoding.GENERIC or not _draw_arrays(c1, c2):
        return _raw_events(params, c1, c2)
    return tuple(c >= t for c, t in zip((c1, c2, c1, c2), _thresholds(params)))


def _draw_arrays(c1, c2) -> bool:
    """Whether the draws are equal-shape float64 arrays, the inputs the thresholds decide."""
    return all(isinstance(c, np.ndarray) and c.dtype == np.float64 and c.ndim > 0
               for c in (c1, c2)) and c1.shape == c2.shape


# A chunk's draws are user 1's gains followed by user 2's, so the chunk size
# fixes which draws pair up in a slot and is part of every estimate.
_MC_CHUNK = 1_000_000
# Each user's draws of a chunk are made a block at a time into one reused
# buffer, and that user's events are counted on the block while it is in
# cache: the same stream as one draw per user and chunk, since a generator
# makes its exponential draws one after another whatever the call sizes.
# With the threshold events, a 1e7-draw estimate (fixed IAN, seed 3, 2 vCPUs,
# 8 alternating calls) took a median of 230 ms drawing whole chunks into two
# 8 MB buffers and counting afterwards, and 201 ms block by block.
_MC_BLOCK = 1 << 15


def mc_estimate_profile(params: SystemParams, draws: int, seed: int) -> SuccessProfile:
    """Estimate the success profile by sampling fading and testing raw events.

    This is the independent cross-check of the closed forms: per draw it
    decides the SNR/SINR/joint inequalities of :func:`_raw_events` on
    exponential gains, never through a closed form. Each user's block of
    draws is compared with that user's exact thresholds from
    :func:`_thresholds`, looked up once per call: the ones
    :func:`success_events` uses, bisected from those inequalities
    themselves, since every event is monotone in its user's draw. Returns
    the event frequencies, a valid :class:`SuccessProfile` since on one draw
    a shared-slot success implies the solo one. Deterministic for a given
    seed; draws are consumed in fixed-size chunks.
    """
    draws, seed = _as_count("draws", draws), _as_count("seed", seed)
    if draws < 1:
        raise InvalidParameterError("draws must be >= 1")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed!r}")
    if params.decoding is Decoding.GENERIC:
        raise InvalidParameterError("generic profiles have no channel model to sample")

    rng = np.random.default_rng(seed)
    thresholds = _thresholds(params)
    counts = [0, 0, 0, 0]
    buf = np.empty(min(draws, _MC_BLOCK))
    for start in range(0, draws, _MC_CHUNK):
        n = min(draws - start, _MC_CHUNK)
        for user in (0, 1):
            for lo in range(0, n, _MC_BLOCK):
                gains = rng.standard_exponential(out=buf[:min(_MC_BLOCK, n - lo)])
                for event in (user, user + 2):
                    counts[event] += int(np.count_nonzero(gains >= thresholds[event]))
    return SuccessProfile(*(count / draws for count in counts))
