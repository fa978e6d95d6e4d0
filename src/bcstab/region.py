"""Analytic stability region for the two coupled downlink queues.

The region is the union of two saturated-queue ("dominant system") parts,
as in Rao & Ephremides (IEEE Trans. IT, 1988). In each part one queue is
held busy and the other is capped below its shared-slot rate
``p_o,both``, so that it stays stable and is busy a fraction
``lambda_o / p_o,both`` of the slots. The busy queue ``k`` is served at
``p_k,solo`` while the other queue is empty and at ``p_k,both`` while it
is busy, so its service rate falls linearly from ``p_k,solo`` to
``p_k,both`` as ``lambda_o`` goes from 0 to ``p_o,both``; the part holds
the rates below both limits. The two frontiers meet at the corner
``(p1_both, p2_both)``, where both queues are saturated.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .channel import (
    _PROFILE_TOL,
    InvalidParameterError,
    SuccessProfile,
    SystemParams,
    build_profile,
)

__all__ = [
    "RatePoint",
    "SubRegion",
    "StabilityRegion",
    "Membership",
    "SchemeMismatchError",
    "InfeasibleRateError",
    "region_general",
    "region_fixed_sc_decoupled",
    "region_for_params",
    "membership",
    "membership_grid",
    "trace_boundary",
    "dominant_service_rates",
    "boundary_scale",
]

# Tolerance on constraint residuals when classifying a point as boundary.
BOUNDARY_TOL = 1e-9


class SchemeMismatchError(ValueError):
    """The profile does not satisfy the specialised region's premise."""


class InfeasibleRateError(ValueError):
    """Requested arrival rate is at or beyond the saturated service rate."""


class Membership(str, Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class RatePoint:
    """An arrival-rate pair in packets per slot."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise InvalidParameterError(f"{name}={v!r} must be a finite nonnegative rate")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class SubRegion:
    """One saturated-queue part: ``l_cap < cap_value`` and ``l_busy < service(l_cap)``.

    The queue on axis ``cap_axis`` (0 or 1) is capped at its shared-slot
    rate ``cap_value``; the other queue is held busy and is served at
    ``solo`` in the slots where the capped queue is empty and at ``both`` in
    those where it is busy. A busy queue that is never served
    (``solo == 0``) must have rate exactly 0. Each value is 0 or a normal
    double, as :class:`SuccessProfile` stores them, so ``service``'s slope
    is finite.
    """

    cap_axis: int
    cap_value: float
    solo: float
    both: float

    def __post_init__(self):
        if self.cap_axis not in (0, 1):
            raise InvalidParameterError("cap_axis must be 0 or 1")
        for name in ("cap_value", "solo", "both"):
            v = getattr(self, name)
            if not (v == 0.0 or sys.float_info.min <= v <= 1.0):
                raise InvalidParameterError(f"{name} must be 0 or a normal probability")
        if self.both > self.solo + _PROFILE_TOL:
            raise InvalidParameterError("both must not exceed solo")

    def service(self, lam_cap):
        """Busy queue's service rate while the capped queue carries ``lam_cap``.

        The capped queue is busy a fraction ``lam_cap / cap_value`` of the
        slots; a zero cap leaves it empty, so the rate is ``solo``.
        """
        if self.cap_value == 0.0:
            return self.solo
        return self.solo - (self.solo - self.both) / self.cap_value * lam_cap

    def _residuals(self, lam1, lam2):
        """Line and cap residuals, elementwise; the rates are strictly inside
        the part where both are negative. The line residual
        ``(l_busy - service(l_cap)) / solo`` is -1 at the origin and 0 on the
        part's frontier."""
        lam_cap, lam_busy = (lam1, lam2) if self.cap_axis == 0 else (lam2, lam1)
        if self.solo == 0.0:  # a queue that is never served: its rate must be exactly 0
            line = np.where(lam_busy > 0.0, math.inf, -1.0)
        else:
            line = (lam_busy - self.service(lam_cap)) / self.solo
        return line, lam_cap - self.cap_value

    def line_value(self, point: RatePoint) -> float:
        """Normalised line constraint at ``point``: 1 on the part's frontier."""
        return float(1.0 + self._residuals(point.lambda1, point.lambda2)[0])


@dataclass(frozen=True)
class StabilityRegion:
    """Union of one or two sub-regions, tagged with the profile that built it."""

    parts: tuple[SubRegion, ...]
    profile: SuccessProfile

    def __post_init__(self):
        if not 1 <= len(self.parts) <= 2:
            raise InvalidParameterError("a stability region has one or two parts")

    @property
    def corner(self) -> RatePoint:
        """Both-queues-saturated point where the two boundary lines meet."""
        return RatePoint(self.profile.p1_both, self.profile.p2_both)


def _part(profile: SuccessProfile, which: str) -> SubRegion:
    """The part that holds queue 1 (``which="first"``) or queue 2 busy."""
    p1s, p2s, p1b, p2b = profile.as_tuple()
    if which == "first":
        return SubRegion(cap_axis=1, cap_value=p2b, solo=p1s, both=p1b)
    return SubRegion(cap_axis=0, cap_value=p1b, solo=p2s, both=p2b)


def region_general(profile: SuccessProfile) -> StabilityRegion:
    """Two-part region valid for any profile (coupled queues)."""
    return StabilityRegion(
        parts=(_part(profile, "first"), _part(profile, "second")), profile=profile
    )


def region_fixed_sc_decoupled(profile: SuccessProfile) -> StabilityRegion:
    """Single-part region for the decoupled case ``p1_both == p1_solo``.

    With fixed powers and layered decoding at a strong enough peer-layer
    power, sharing the slot does not hurt user 1, so queue 1's service rate
    is ``p1_solo`` whether or not queue 2 is busy. The part that holds
    queue 2 busy, with queue 1 capped at ``p1_solo``, is then the whole
    region. Equals :func:`region_general` restricted to such profiles.
    """
    if abs(profile.p1_both - profile.p1_solo) > _PROFILE_TOL:
        raise SchemeMismatchError(
            "profile is coupled (p1_both != p1_solo); use region_general"
        )
    part = replace(_part(profile, "second"), cap_value=profile.p1_solo)
    return StabilityRegion(parts=(part,), profile=profile)


def region_for_params(params: SystemParams) -> StabilityRegion:
    """General region for any configured scheme, fixed or queue-adaptive power."""
    return region_general(build_profile(params))


def membership(region: StabilityRegion, point: RatePoint) -> Membership:
    """Classify a rate point against the union of the region's parts.

    Inside requires strict satisfaction of some part's constraints; within
    ``BOUNDARY_TOL`` of a part's frontier (violating nothing by more than
    the tolerance) is boundary; anything else is outside.
    """
    best = min(max(part._residuals(point.lambda1, point.lambda2)) for part in region.parts)
    if best < -BOUNDARY_TOL:
        return Membership.INSIDE
    if best <= BOUNDARY_TOL:
        return Membership.BOUNDARY
    return Membership.OUTSIDE


def membership_grid(region: StabilityRegion, lambda1: np.ndarray, lambda2: np.ndarray) -> np.ndarray:
    """Vectorised membership: +1 inside, 0 boundary, -1 outside.

    ``lambda1`` and ``lambda2`` must broadcast against each other; rates must
    be nonnegative.
    """
    l1 = np.asarray(lambda1, dtype=np.float64)
    l2 = np.asarray(lambda2, dtype=np.float64)
    if np.any(l1 < 0.0) or np.any(l2 < 0.0):
        raise InvalidParameterError("rates must be nonnegative")
    # far outside a part with a tiny solo or cap its line residual overflows
    # to +inf, which still classifies the rates as outside
    with np.errstate(over="ignore"):
        best = functools.reduce(
            np.minimum, (np.maximum(*part._residuals(l1, l2)) for part in region.parts)
        )
    codes = np.where(best < -BOUNDARY_TOL, 1, np.where(best <= BOUNDARY_TOL, 0, -1))
    return codes.astype(np.int8)


def _part_sup_lambda2(part: SubRegion, lam1: float) -> float | None:
    """Supremum of lambda2 in the part's closure at the given lambda1."""
    if part.cap_axis == 0:
        if lam1 > part.cap_value:
            return None
        # exactly p2_both at a positive cap, where queue 1 is always busy
        return part.both if lam1 == part.cap_value > 0.0 else part.service(lam1)
    if lam1 > part.solo:
        return None
    if lam1 <= part.both:
        return part.cap_value
    # queue 2's rate at which queue 1's service falls to lam1
    return part.cap_value * (part.solo - lam1) / (part.solo - part.both)


def trace_boundary(region: StabilityRegion, n_points: int) -> list[RatePoint]:
    """Sample the Pareto frontier of the region.

    ``n_points`` lambda1 values are taken uniformly on ``[0, lambda1_max]``
    (just 0 when no part lets lambda1 be positive); the saturation corner is
    always included exactly, in place of any interior sample within 1e-12 of
    it, and a closing point on the lambda1 axis is appended so the outline
    can be drawn directly. For each lambda1 the reported lambda2 is the
    supremum over both parts.
    """
    if n_points < 2:
        raise InvalidParameterError("n_points must be >= 2")
    lam1_max = max(p.cap_value if p.cap_axis == 0 else p.solo for p in region.parts)
    samples = list(np.linspace(0.0, lam1_max, n_points)) if lam1_max > 0.0 else [0.0]
    corner = region.profile.p1_both
    if len(region.parts) == 2 and 0.0 < corner < lam1_max:
        interior = [s for s in samples[1:-1] if abs(corner - s) > 1e-12]
        samples = sorted([samples[0], *interior, corner, samples[-1]])

    points: list[RatePoint] = []
    for lam1 in samples:
        sups = [s for s in (_part_sup_lambda2(p, lam1) for p in region.parts) if s is not None]
        if not sups:
            continue
        points.append(RatePoint(lam1, max(0.0, max(sups))))
    if points and points[-1].lambda2 > 0.0:
        points.append(RatePoint(points[-1].lambda1, 0.0))
    return points


def dominant_service_rates(
    profile: SuccessProfile, which: str, lambda_other: float
) -> tuple[float, float, float]:
    """Service rates and empty-queue probability in a saturated-queue system.

    ``which="first"`` saturates queue 1: queue 2 is then served at
    ``p2_both``, empties with probability ``1 - lambda2/p2_both``, and queue
    1 is served at the region part's :meth:`SubRegion.service` rate
    (``lambda_other`` is queue 2's arrival rate). ``which="second"`` is the
    mirror image. Returns ``(mu1, mu2, empty_prob)`` where ``empty_prob``
    refers to the non-saturated queue.
    """
    if which not in ("first", "second"):
        raise InvalidParameterError(f"which must be 'first' or 'second', got {which!r}")
    if lambda_other < 0.0:
        raise InvalidParameterError("lambda_other must be nonnegative")
    part = _part(profile, which)
    if lambda_other >= part.cap_value:
        raise InfeasibleRateError(
            f"lambda{part.cap_axis + 1}={lambda_other} is not below the saturated rate "
            f"{part.cap_value}"
        )
    empty = 1.0 - lambda_other / part.cap_value
    mu = part.service(lambda_other)
    return (mu, part.cap_value, empty) if which == "first" else (part.cap_value, mu, empty)


def _ray_limit(budget: float, rate: float) -> float:
    """Scale t at which ``rate * t`` reaches ``budget`` (rate >= 0).

    Infinite when a zero rate never reaches a positive budget, 0 when a zero
    rate is already past a nonpositive one.
    """
    if rate > 0.0:
        return budget / rate
    return math.inf if budget > 0.0 else 0.0


def boundary_scale(region: StabilityRegion, angle_deg: float) -> float:
    """Distance from the origin to the frontier along a ray.

    The ray meets each part's line and cap constraints where their residuals
    reach ``-BOUNDARY_TOL``, so the scale up to which a part classifies the
    ray's points as inside is the nearer of the two crossings; the union
    reaches the farthest part. Angle is in degrees within [0, 90].
    """
    if not 0.0 <= angle_deg <= 90.0:
        raise InvalidParameterError("angle must lie in [0, 90] degrees")
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    if membership(region, RatePoint(0.0, 0.0)) is not Membership.INSIDE:
        return 0.0
    # line_value grows linearly along the ray, from 0 at the origin
    return max(
        min(
            _ray_limit(1.0 - BOUNDARY_TOL, part.line_value(RatePoint(c, s))),
            _ray_limit(part.cap_value - BOUNDARY_TOL, c if part.cap_axis == 0 else s),
        )
        for part in region.parts
    )
