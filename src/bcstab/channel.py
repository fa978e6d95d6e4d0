"""Physical-layer model: decoding-success probabilities for two downlink users.

Everything is linear scale (no dB). Channel power gains are unit-mean
exponential (Rayleigh envelope squared), constant within a slot and drawn
independently across slots. The four probabilities that matter downstream
are collected in :class:`SuccessProfile`: per user, the success probability
when its packet is sent alone and when both users' packets share the slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from warnings import warn

import numpy as np

__all__ = [
    "Decoding",
    "PowerScheme",
    "SuccessProfile",
    "SystemParams",
    "MonteCarloProfile",
    "InvalidParameterError",
    "InvalidProfileError",
    "snr_success",
    "sinr_success",
    "layered_decode_success",
    "solo_success",
    "ian_both_success",
    "sc_both_success_user1",
    "adaptive_solo_success",
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
    the slot can only hurt, so ``p_both <= p_solo`` per user.
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
            object.__setattr__(self, name, v)
        if self.p1_both > self.p1_solo + _PROFILE_TOL:
            raise InvalidProfileError(
                f"p1_both={self.p1_both} exceeds p1_solo={self.p1_solo}"
            )
        if self.p2_both > self.p2_solo + _PROFILE_TOL:
            raise InvalidProfileError(
                f"p2_both={self.p2_both} exceeds p2_solo={self.p2_solo}"
            )

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
        # Every product success_events forms, at the largest possible gain,
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
                stacklevel=2,
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


def _exp_term(exponent: float) -> float:
    # exponent is >= 0 here; past ~700 the result underflows anyway, so
    # short-circuit to an exact 0.0 instead of relying on libm behaviour.
    if exponent > 700.0:
        return 0.0
    return math.exp(-exponent)


def snr_success(gamma: float, dist: float, alpha: float, power: float) -> float:
    """P[power * g * dist**-alpha >= gamma] with g ~ Exp(1).

    This is the interference-free outage complement of a Rayleigh link.
    """
    if power <= 0.0:
        raise InvalidParameterError(f"transmit power must be positive, got {power!r}")
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
    removes it, then decodes its own layer interference-free. Which of the
    two sub-events binds depends on the power split:

    * ``p_own == 0``: the own layer carries nothing decodable, probability 0
      (a zero per-queue power is legal, as for the solo links).
    * ``p_peer <= gamma_peer * p_own``: the peer layer is never decodable,
      probability 0.
    * moderate ``p_peer``: the peer-layer SINR event binds.
    * large ``p_peer`` (above ``p_own * gamma_peer * (1 + gamma_own) / gamma_own``):
      the own-layer SNR event binds.

    The two closed-form branches agree at the crossover.
    """
    if gamma_own <= 0.0:
        raise InvalidParameterError("gamma_own must be positive (regime split undefined at 0)")
    if p_own <= 0.0 or p_peer <= gamma_peer * p_own:
        return 0.0
    if p_peer * gamma_own <= p_own * gamma_peer * (1.0 + gamma_own):
        return sinr_success(gamma_peer, dist, alpha, p_peer, p_own)
    return snr_success(gamma_own, dist, alpha, p_own)


def solo_success(params: SystemParams, user: int, power: float) -> float:
    """Success probability when only queue ``user`` transmits, at ``power``."""
    if _check_user(user) == 1:
        return snr_success(params.gamma1, params.d1, params.alpha, power)
    return snr_success(params.gamma2, params.d2, params.alpha, power)


def ian_both_success(params: SystemParams, user: int) -> float:
    """Both-queues success for ``user`` when interference is treated as noise."""
    if _check_user(user) == 1:
        return sinr_success(params.gamma1, params.d1, params.alpha, params.p1, params.p2)
    return sinr_success(params.gamma2, params.d2, params.alpha, params.p2, params.p1)


def sc_both_success_user1(params: SystemParams) -> float:
    """Both-queues success for user 1 under superposition + successive decoding."""
    return layered_decode_success(
        params.gamma1, params.gamma2, params.d1, params.alpha, params.p1, params.p2
    )


def adaptive_solo_success(params: SystemParams, user: int) -> float:
    """Solo success under the queue-adaptive scheme: the full budget is used."""
    if params.power_scheme is not PowerScheme.QUEUE_ADAPTIVE:
        raise InvalidParameterError("adaptive_solo_success requires the adaptive power scheme")
    return solo_success(params, user, params.solo_power(user))


def _solo_or_zero(params: SystemParams, user: int) -> float:
    # A zero per-queue power is a degenerate but legal configuration; the
    # link then never succeeds rather than being a parameter error.
    power = params.solo_power(user)
    if power <= 0.0:
        return 0.0
    return solo_success(params, user, power)


def build_profile(params: SystemParams) -> SuccessProfile:
    """Assemble the four success probabilities for the configured scheme."""
    if params.decoding is Decoding.GENERIC:
        return params.generic_profile

    p1_solo = _solo_or_zero(params, 1)
    p2_solo = _solo_or_zero(params, 2)
    p2_both = ian_both_success(params, 2)
    if params.decoding is Decoding.INTERFERENCE_AS_NOISE:
        p1_both = ian_both_success(params, 1)
    else:
        p1_both = sc_both_success_user1(params)
    return SuccessProfile(p1_solo, p2_solo, p1_both, p2_both)


def success_events(params: SystemParams, c1, c2):
    """Decoding outcome of each user on given channel draws, alone and shared.

    ``c1``/``c2`` are the draws of users 1 and 2, scalars or equal-shape
    arrays: uniforms for the generic scheme, which succeed below the
    profile's probability, and unit-mean exponential gains otherwise, which
    are tested against the raw SNR/SINR inequalities (multiplied out, so
    only multiply/add/compare touch the draws). Returns ``(solo1, solo2,
    both1, both2)``: success when only that user's packet is sent, and when
    both packets share the slot.
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
    own1 = p1 * u1
    if params.decoding is Decoding.SUCCESSIVE_DECODING:
        # peel user 2's layer (its SINR), then decode user 1's interference-free
        both1 = (p2 * u1 >= gamma2 * (1.0 + own1)) & (own1 >= gamma1)
    else:
        both1 = own1 >= gamma1 * (1.0 + p2 * u1)
    both2 = p2 * u2 >= gamma2 * (1.0 + p1 * u2)
    return solo1, solo2, both1, both2


@dataclass(frozen=True)
class MonteCarloProfile:
    """Sampled estimates of the four success probabilities.

    Unlike :class:`SuccessProfile` the estimates carry sampling noise, so no
    cross-field ordering is enforced. ``se_*`` are binomial standard errors
    ``sqrt(p*(1-p)/draws)`` evaluated at the estimates.
    """

    p1_solo: float
    p2_solo: float
    p1_both: float
    p2_both: float
    se_p1_solo: float
    se_p2_solo: float
    se_p1_both: float
    se_p2_both: float
    draws: int

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1_solo, self.p2_solo, self.p1_both, self.p2_both)

    def se_tuple(self) -> tuple[float, float, float, float]:
        return (self.se_p1_solo, self.se_p2_solo, self.se_p1_both, self.se_p2_both)


_MC_CHUNK = 1_000_000
# Events are evaluated in cache-sized slices of a chunk, so their temporaries
# stay small and are reused rather than handed back to the OS and faulted in
# again. With 2**17-draw slices (1 MB float temporaries) a 1e6-draw chunk
# took about 3500 minor page faults and twice the time of 2**15-draw slices,
# which take none.
_MC_BLOCK = 1 << 15


def mc_estimate_profile(params: SystemParams, draws: int, seed: int) -> MonteCarloProfile:
    """Estimate the success profile by sampling fading and testing raw events.

    This is the independent cross-check of the closed forms: per draw it
    evaluates the SNR/SINR/joint inequalities of :func:`success_events`
    directly on exponential gains instead of going through any closed-form
    threshold. Deterministic for a given seed; draws are consumed in
    fixed-size chunks.
    """
    if draws < 1:
        raise InvalidParameterError("draws must be >= 1")
    if params.decoding is Decoding.GENERIC:
        raise InvalidParameterError("generic profiles have no channel model to sample")

    rng = np.random.default_rng(seed)
    counts = np.zeros(4, dtype=np.int64)
    # The draws of each chunk go into the same two buffers: the same bits as
    # rng.exponential(1.0, n), without faulting in 16 MB per chunk.
    buf1 = np.empty(min(draws, _MC_CHUNK))
    buf2 = np.empty_like(buf1)
    left = draws
    while left > 0:
        n = min(left, _MC_CHUNK)
        g1 = rng.standard_exponential(out=buf1[:n])
        g2 = rng.standard_exponential(out=buf2[:n])
        for lo in range(0, n, _MC_BLOCK):
            block = slice(lo, lo + _MC_BLOCK)
            counts += [np.count_nonzero(ev) for ev in success_events(params, g1[block], g2[block])]
        left -= n

    est = counts / float(draws)
    se = np.sqrt(est * (1.0 - est) / draws)
    return MonteCarloProfile(*est.tolist(), *se.tolist(), draws)
