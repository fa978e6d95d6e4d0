"""Analytic stability region for the two coupled downlink queues.

The region is the union of (at most) two sub-regions, one per saturated-queue
construction: saturating queue 1 bounds the feasible rates through queue 2's
conditional service, and vice versa. Each sub-region is a half-plane
``a1*l1 + a2*l2 < 1`` intersected with a cap ``l_cap < cap_value`` inside the
nonnegative quadrant. Both boundary lines meet at the corner
``(p1_both, p2_both)`` where both queues are saturated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import (
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

# Stand-in slope for constraints of the form "this rate must be zero".
# Large enough that any positive rate blows past 1, small enough that
# products with finite rates stay finite (no inf*0 = nan). Extents and
# scales derived from a slope this large are exact zeros, never 1/_HUGE.
_HUGE = 1e300


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
    """Half-plane ``a1*l1 + a2*l2 < 1`` with the extra cap ``l_cap < cap_value``."""

    a1: float
    a2: float
    cap_axis: int
    cap_value: float

    def __post_init__(self):
        if self.a1 < 0.0 or self.a2 < 0.0:
            raise InvalidParameterError("half-plane coefficients must be >= 0")
        if self.cap_axis not in (0, 1):
            raise InvalidParameterError("cap_axis must be 0 or 1")
        if not (0.0 <= self.cap_value <= 1.0):
            raise InvalidParameterError("cap_value must be a probability")

    def line_value(self, point: RatePoint) -> float:
        return self.a1 * point.lambda1 + self.a2 * point.lambda2

    def max_residual(self, point: RatePoint) -> float:
        """Largest constraint residual; negative means strictly satisfied."""
        cap_rate = point.lambda1 if self.cap_axis == 0 else point.lambda2
        return max(self.line_value(point) - 1.0, cap_rate - self.cap_value)


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


def _inverse_or_huge(p: float) -> float:
    return 1.0 / p if p > 0.0 else _HUGE


def _part_saturating_queue1(profile: SuccessProfile) -> SubRegion:
    # Queue 1 saturated: queue 2 is served at p2_both, and queue 2's busy
    # fraction lambda2/p2_both sets queue 1's achievable rate.
    p1s, p2b, p1b = profile.p1_solo, profile.p2_both, profile.p1_both
    if p2b <= 0.0:
        # No service for queue 2 under coupling: collapses to the segment
        # lambda1 < p1_solo on the lambda2 = 0 axis.
        return SubRegion(_inverse_or_huge(p1s), 0.0, cap_axis=1, cap_value=0.0)
    a1 = _inverse_or_huge(p1s)
    a2 = (p1s - p1b) / (p1s * p2b) if p1s > 0.0 else 0.0
    return SubRegion(a1, a2, cap_axis=1, cap_value=p2b)


def _part_saturating_queue2(profile: SuccessProfile) -> SubRegion:
    p2s, p1b, p2b = profile.p2_solo, profile.p1_both, profile.p2_both
    if p1b <= 0.0:
        return SubRegion(0.0, _inverse_or_huge(p2s), cap_axis=0, cap_value=0.0)
    a2 = _inverse_or_huge(p2s)
    a1 = (p2s - p2b) / (p2s * p1b) if p2s > 0.0 else 0.0
    return SubRegion(a1, a2, cap_axis=0, cap_value=p1b)


def region_general(profile: SuccessProfile) -> StabilityRegion:
    """Two-part region valid for any profile (coupled queues)."""
    return StabilityRegion(
        parts=(_part_saturating_queue1(profile), _part_saturating_queue2(profile)),
        profile=profile,
    )


def region_fixed_sc_decoupled(profile: SuccessProfile) -> StabilityRegion:
    """Single-part region for the decoupled case ``p1_both == p1_solo``.

    With fixed powers and layered decoding at a strong enough peer-layer
    power, sharing the slot does not hurt user 1, queue 1's service rate is
    constant, and the region needs no saturated-queue argument. Equals
    :func:`region_general` restricted to such profiles.
    """
    p1s, p2s, p2b = profile.p1_solo, profile.p2_solo, profile.p2_both
    if abs(profile.p1_both - p1s) > 1e-12:
        raise SchemeMismatchError(
            "profile is coupled (p1_both != p1_solo); use region_general"
        )
    if p1s <= 0.0:
        return StabilityRegion(
            parts=(SubRegion(0.0, _inverse_or_huge(p2s), cap_axis=0, cap_value=0.0),),
            profile=profile,
        )
    a2 = _inverse_or_huge(p2s)
    a1 = (p2s - p2b) / (p2s * p1s) if p2s > 0.0 else 0.0
    return StabilityRegion(
        parts=(SubRegion(a1, a2, cap_axis=0, cap_value=p1s),), profile=profile
    )


def region_for_params(params: SystemParams) -> StabilityRegion:
    """General region for any configured scheme, fixed or queue-adaptive power."""
    return region_general(build_profile(params))


def membership(region: StabilityRegion, point: RatePoint) -> Membership:
    """Classify a rate point against the union of the region's parts.

    Inside requires strict satisfaction of some part's constraints; within
    ``BOUNDARY_TOL`` of a part's frontier (violating nothing by more than
    the tolerance) is boundary; anything else is outside.
    """
    best = math.inf
    for part in region.parts:
        best = min(best, part.max_residual(point))
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
    best = None
    for part in region.parts:
        resid = part.a1 * l1 + part.a2 * l2 - 1.0
        cap = (l1 if part.cap_axis == 0 else l2) - part.cap_value
        m = np.maximum(resid, cap)
        best = m if best is None else np.minimum(best, m)
    codes = np.where(best < -BOUNDARY_TOL, 1, np.where(best <= BOUNDARY_TOL, 0, -1))
    return codes.astype(np.int8)


def _part_sup_lambda2(part: SubRegion, lam1: float) -> float | None:
    """Supremum of lambda2 in the part's closure at the given lambda1."""
    if part.cap_axis == 0 and lam1 > part.cap_value:
        return None
    budget = 1.0 - part.a1 * lam1
    if budget < 0.0:
        return None
    if part.a2 >= _HUGE:  # the part forces lambda2 to zero
        sup = 0.0
    elif part.a2 > 0.0:
        sup = budget / part.a2
    else:
        sup = math.inf
    if part.cap_axis == 1:
        sup = min(sup, part.cap_value)
    return sup if math.isfinite(sup) else None


def _lambda1_extent(part: SubRegion) -> float:
    if part.cap_axis == 0:
        return part.cap_value
    return 1.0 / part.a1 if 0.0 < part.a1 < _HUGE else 0.0


def trace_boundary(region: StabilityRegion, n_points: int) -> list[RatePoint]:
    """Sample the Pareto frontier of the region.

    ``n_points`` lambda1 values are taken uniformly on ``[0, lambda1_max]``;
    the saturation corner is always included exactly, and a closing point on
    the lambda1 axis is appended so the outline can be drawn directly. For
    each lambda1 the reported lambda2 is the supremum over both parts.
    """
    if n_points < 2:
        raise InvalidParameterError("n_points must be >= 2")
    lam1_max = max(_lambda1_extent(p) for p in region.parts)
    samples = list(np.linspace(0.0, lam1_max, n_points))
    corner = region.profile.p1_both
    if len(region.parts) == 2 and 0.0 < corner < lam1_max:
        if all(abs(corner - s) > 1e-12 for s in samples):
            samples.append(corner)
    samples.sort()

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
    1's rate interpolates between ``p1_solo`` and ``p1_both`` accordingly
    (``lambda_other`` is queue 2's arrival rate). ``which="second"`` is the
    mirror image. Returns ``(mu1, mu2, empty_prob)`` where ``empty_prob``
    refers to the non-saturated queue.
    """
    if which not in ("first", "second"):
        raise InvalidParameterError(f"which must be 'first' or 'second', got {which!r}")
    if lambda_other < 0.0:
        raise InvalidParameterError("lambda_other must be nonnegative")
    p1s, p2s, p1b, p2b = profile.as_tuple()
    if which == "first":
        if lambda_other >= p2b:
            raise InfeasibleRateError(
                f"lambda2={lambda_other} is not below the saturated rate {p2b}"
            )
        empty = 1.0 - lambda_other / p2b
        mu1 = p1s - (p1s - p1b) / p2b * lambda_other
        return (mu1, p2b, empty)
    if lambda_other >= p1b:
        raise InfeasibleRateError(
            f"lambda1={lambda_other} is not below the saturated rate {p1b}"
        )
    empty = 1.0 - lambda_other / p1b
    mu2 = p2s - (p2s - p2b) / p1b * lambda_other
    return (p1b, mu2, empty)


def _ray_limit(budget: float, rate: float) -> float:
    """Scale t at which ``rate * t`` reaches ``budget`` (rate >= 0).

    Infinite when a zero rate never reaches a positive budget, 0 when a zero
    rate is already past a nonpositive one.
    """
    if rate > 0.0:
        return budget / rate
    return math.inf if budget > 0.0 else 0.0


def _line_limit(part: SubRegion, c: float, s: float) -> float:
    """Scale at which the ray ``(c, s)`` reaches the part's line; exactly 0
    when the ray moves along a rate the part forces to zero."""
    if (part.a1 >= _HUGE and c > 0.0) or (part.a2 >= _HUGE and s > 0.0):
        return 0.0
    return _ray_limit(1.0 - BOUNDARY_TOL, part.a1 * c + part.a2 * s)


def boundary_scale(region: StabilityRegion, angle_deg: float) -> float:
    """Distance from the origin to the frontier along a ray.

    The ray meets each part's line and cap constraints where their residuals
    reach ``-BOUNDARY_TOL``, so the scale up to which a part classifies the
    ray's points as inside is the nearer of the two crossings; the union
    reaches the farthest part. Angle is in degrees within [0, 90]. A ray
    that never leaves the region (possible only for hand-built parts with
    zero slopes) has infinite scale.
    """
    if not 0.0 <= angle_deg <= 90.0:
        raise InvalidParameterError("angle must lie in [0, 90] degrees")
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    if membership(region, RatePoint(0.0, 0.0)) is not Membership.INSIDE:
        return 0.0
    return max(
        min(
            _line_limit(part, c, s),
            _ray_limit(part.cap_value - BOUNDARY_TOL, c if part.cap_axis == 0 else s),
        )
        for part in region.parts
    )
