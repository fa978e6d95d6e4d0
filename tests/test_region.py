"""Region construction, membership, boundary tracing, dominant-system rates."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcstab as b
from bcstab import (
    InfeasibleRateError,
    InvalidParameterError,
    Membership,
    RatePoint,
    SchemeMismatchError,
    SuccessProfile,
    SystemParams,
)
from bcstab.region import BOUNDARY_TOL

GENERAL = SuccessProfile(0.9, 0.8, 0.3, 0.5)
RECT = SuccessProfile(0.5, 0.5, 0.5, 0.5)
# profiles with zero entries: a queue never served, or no shared-slot service;
# and with tiny normal entries: a cap that puts a part's slope near the largest
# double, and a solo rate whose line residual overflows at rates above 1
DEGENERATE = [SuccessProfile(0.0, 0.8, 0.0, 0.5), SuccessProfile(0.0, 0.0, 0.0, 0.0),
              SuccessProfile(0.9, 0.0, 0.0, 0.0), SuccessProfile(0.6, 0.5, 0.0, 0.0),
              SuccessProfile(0.9, 0.8, 0.3, 3e-308), SuccessProfile(0.9, 0.8, 3e-308, 0.5),
              SuccessProfile(3e-308, 0.5, 0.0, 0.5)]


def random_profile(rng, floor=0.02):
    p1s = rng.uniform(floor, 1.0)
    p2s = rng.uniform(floor, 1.0)
    return SuccessProfile(p1s, p2s, rng.uniform(floor * p1s, p1s), rng.uniform(floor * p2s, p2s))


class TestRegionGeneral:
    def test_hand_worked_coefficients(self):
        reg = b.region_general(GENERAL)
        first, second = reg.parts
        # queue 1 busy, queue 2 capped at p2_both: line l1/0.9 + (0.6/0.45)*l2 = 1
        assert (first.cap_axis, first.cap_value, first.solo, first.both) == (1, 0.5, 0.9, 0.3)
        assert first.line_value(RatePoint(1.0, 0.0)) == pytest.approx(1 / 0.9)
        assert first.line_value(RatePoint(0.0, 1.0)) == pytest.approx(0.6 / 0.45)
        # queue 2 busy, queue 1 capped at p1_both: line (0.3/(0.8*0.3))*l1 + l2/0.8 = 1
        assert (second.cap_axis, second.cap_value, second.solo, second.both) == (0, 0.3, 0.8, 0.5)
        assert second.line_value(RatePoint(0.0, 1.0)) == pytest.approx(1 / 0.8)
        assert second.line_value(RatePoint(1.0, 0.0)) == pytest.approx(0.3 / (0.8 * 0.3))

    def test_hand_worked_membership(self):
        reg = b.region_general(GENERAL)
        # 0.3/0.9 + (0.6/0.45)*0.2 = 0.6 < 1
        assert b.membership(reg, RatePoint(0.3, 0.2)) is Membership.INSIDE

    @pytest.mark.parametrize("field", ["cap_value", "solo", "both"])
    def test_subnormal_value_rejected(self, field):
        """SuccessProfile stores no subnormal entry, so a part built with one
        is rejected: service's slope and line residual assume none."""
        values = {"cap_value": 0.5, "solo": 0.5, "both": 0.0, field: 5e-324}
        with pytest.raises(InvalidParameterError, match=field):
            b.SubRegion(cap_axis=0, **values)
        b.SubRegion(cap_axis=0, **{**values, field: sys.float_info.min})

    def test_equal_probabilities_give_rectangle(self):
        reg = b.region_general(RECT)
        for part in reg.parts:
            # the busy queue's service does not depend on the capped rate
            assert part.service(part.cap_value) == part.service(0.0) == 0.5
        assert b.membership(reg, RatePoint(0.2, 0.2)) is Membership.INSIDE
        assert b.membership(reg, RatePoint(0.2, 0.51)) is Membership.OUTSIDE

    def test_corner_on_both_lines(self):
        """Both boundary lines pass through (p1_both, p2_both)."""
        rng = np.random.default_rng(3)
        for _ in range(300):
            prof = random_profile(rng)
            reg = b.region_general(prof)
            corner = reg.corner
            for part in reg.parts:
                assert part.line_value(corner) == pytest.approx(1.0, abs=1e-9)

    def test_corner_classifies_boundary(self):
        reg = b.region_general(GENERAL)
        assert b.membership(reg, reg.corner) is Membership.BOUNDARY

    def test_degenerate_coupled_service(self):
        prof = SuccessProfile(0.6, 0.5, 0.3, 0.0)
        reg = b.region_general(prof)
        first = reg.parts[0]
        assert first.cap_value == 0.0
        # the lambda2 = 0 segment short of p1_solo is boundary, never inside
        assert b.membership(reg, RatePoint(0.55, 0.0)) is Membership.BOUNDARY
        assert b.membership(reg, RatePoint(0.55, 0.01)) is Membership.OUTSIDE
        # the non-degenerate second part still has area
        assert b.membership(reg, RatePoint(0.1, 0.2)) is Membership.INSIDE


class TestFixedScDecoupled:
    # profile with p1_both == p1_solo, as produced by the fixed layered
    # scheme when the peer layer carries enough power
    PROF = SuccessProfile(0.3679, 0.6065, 0.3679, 0.3679)

    def test_single_part_region(self):
        reg = b.region_fixed_sc_decoupled(self.PROF)
        (part,) = reg.parts
        assert (part.cap_axis, part.cap_value) == (0, 0.3679)
        assert (part.solo, part.both) == (0.6065, 0.3679)
        assert part.line_value(RatePoint(0.0, 1.0)) == pytest.approx(1 / 0.6065)
        assert part.line_value(RatePoint(1.0, 0.0)) == pytest.approx(
            (0.6065 - 0.3679) / (0.3679 * 0.6065))

    def test_rectangle_when_fully_decoupled(self):
        reg = b.region_fixed_sc_decoupled(SuccessProfile(0.5, 0.4, 0.5, 0.4))
        (part,) = reg.parts
        assert part.solo == part.both == 0.4
        assert part.line_value(RatePoint(1.0, 0.0)) == 0.0
        assert b.membership(reg, RatePoint(0.49, 0.39)) is Membership.INSIDE

    def test_single_user_corner(self):
        reg = b.region_fixed_sc_decoupled(self.PROF)
        assert b.membership(reg, RatePoint(0.0, 0.6064)) is Membership.INSIDE
        assert b.membership(reg, RatePoint(0.0, 0.6066)) is Membership.OUTSIDE

    def test_coupled_profile_rejected(self):
        with pytest.raises(SchemeMismatchError, match="region_general"):
            b.region_fixed_sc_decoupled(GENERAL)

    def test_matches_region_general(self):
        """On decoupled profiles the specialised region is the general one."""
        rng = np.random.default_rng(17)
        grid = np.linspace(0.0, 1.0, 100)
        for _ in range(10):
            p1s = rng.uniform(0.05, 1.0)
            p2s = rng.uniform(0.05, 1.0)
            prof = SuccessProfile(p1s, p2s, p1s, rng.uniform(0.0, p2s))
            a = b.membership_grid(b.region_general(prof), grid[:, None], grid[None, :])
            c = b.membership_grid(b.region_fixed_sc_decoupled(prof), grid[:, None], grid[None, :])
            assert np.array_equal(a, c)


class TestMembership:
    def test_negative_rates_rejected(self):
        with pytest.raises(InvalidParameterError):
            RatePoint(-0.1, 0.2)
        with pytest.raises(InvalidParameterError):
            b.membership_grid(b.region_general(RECT), np.array([-0.1]), np.array([0.0]))

    def test_grid_matches_scalar(self):
        rng = np.random.default_rng(29)
        lookup = {1: Membership.INSIDE, 0: Membership.BOUNDARY, -1: Membership.OUTSIDE}
        for prof in (GENERAL, *DEGENERATE):
            reg = b.region_general(prof)
            # random points, plus the axes, where degenerate parts have their
            # segments, plus rates up to 1e12, where tiny entries overflow
            pts = np.concatenate([rng.uniform(0.0, 1.0, size=(500, 2)),
                                  rng.uniform(0.0, 1.0, size=(20, 2)) * [1.0, 0.0],
                                  rng.uniform(0.0, 1.0, size=(20, 2)) * [0.0, 1.0],
                                  10.0 ** rng.uniform(0.0, 12.0, size=(40, 2)),
                                  10.0 ** rng.uniform(0.0, 12.0, size=(20, 2)) * [1.0, 0.0],
                                  10.0 ** rng.uniform(0.0, 12.0, size=(20, 2)) * [0.0, 1.0],
                                  [[0.0, 0.0]]])
            codes = b.membership_grid(reg, pts[:, 0], pts[:, 1])
            for (l1, l2), code in zip(pts, codes):
                assert b.membership(reg, RatePoint(l1, l2)) is lookup[int(code)], (prof, l1, l2)

    def test_subnormal_entry_stored_as_zero(self):
        assert SuccessProfile(0.9, 0.8, 0.3, 5e-324).p2_both == 0.0
        assert SuccessProfile(*[2.2e-308] * 4).as_tuple() == (0.0,) * 4
        assert SuccessProfile(*[sys.float_info.min] * 4).as_tuple() == (sys.float_info.min,) * 4

    def test_subnormal_shared_entry_acts_as_zero(self):
        """A subnormal shared-slot entry caps its queue as a zero entry does,
        so no positive rate of that queue is feasible."""
        for entry, which in ((2, "second"), (3, "first")):  # the part it caps
            self.check_subnormal_entry_acts_as_zero((entry,), (), which, infeasible=True)

    def test_subnormal_solo_entry_acts_as_zero(self):
        """A subnormal solo entry, with a zero shared entry, leaves its queue
        unserved as zero entries do."""
        for solo, shared, which in ((0, 2, "first"), (1, 3, "second")):  # the part it holds busy
            self.check_subnormal_entry_acts_as_zero((solo,), (shared,), which)

    @staticmethod
    def check_subnormal_entry_acts_as_zero(subnormal, zeroed, which, infeasible=False):
        """With the ``subnormal`` entries at 5e-324 and the ``zeroed`` ones at
        0, the region equals that of the profile with all of them 0: on
        rates that are 0 or above BOUNDARY_TOL the grid codes, the scalar
        classes and the ray scales are equal, the grid agrees with the
        scalar classes, and nothing is nan or warns. ``which``'s saturated
        system at a zero load is infeasible if ``infeasible``, else finite."""
        rng = np.random.default_rng(53)
        rates = np.concatenate([[0.0], rng.uniform(2 * BOUNDARY_TOL, 1.0, 14)])
        l1, l2 = (grid.ravel() for grid in np.meshgrid(rates, rates))
        for prof in (GENERAL, *(random_profile(rng) for _ in range(50))):
            sub, zero = list(prof.as_tuple()), list(prof.as_tuple())
            for entry in subnormal:
                sub[entry], zero[entry] = 5e-324, 0.0
            for entry in zeroed:
                sub[entry] = zero[entry] = 0.0
            regions = [b.region_general(SuccessProfile(*p)) for p in (sub, zero)]
            assert regions[0] == regions[1], prof
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes = [b.membership_grid(reg, l1, l2) for reg in regions]
                classes = [[b.membership(reg, RatePoint(x, y)) for x, y in zip(l1, l2)]
                           for reg in regions]
                scales = [[b.boundary_scale(reg, a) for a in (0, 30, 45, 60, 90)]
                          for reg in regions]
                if infeasible:
                    with pytest.raises(InfeasibleRateError):
                        b.dominant_service_rates(SuccessProfile(*sub), which, 0.0)
                else:
                    service = b.dominant_service_rates(SuccessProfile(*sub), which, 0.0)
                    assert all(math.isfinite(r) for r in service), prof
            assert np.array_equal(*codes), prof
            assert classes[0] == classes[1], prof
            assert scales[0] == scales[1], prof
            lookup = {1: Membership.INSIDE, 0: Membership.BOUNDARY, -1: Membership.OUTSIDE}
            assert [lookup[int(c)] for c in codes[0]] == classes[0], prof

    def test_nesting(self):
        """Entrywise-larger profiles can only enlarge the region."""
        rng = np.random.default_rng(41)
        for _ in range(20):
            big = random_profile(rng)
            small = SuccessProfile(
                big.p1_solo * rng.uniform(0.3, 1.0),
                big.p2_solo * rng.uniform(0.3, 1.0),
                min(big.p1_both * rng.uniform(0.3, 1.0), big.p1_solo * 0.3),
                min(big.p2_both * rng.uniform(0.3, 1.0), big.p2_solo * 0.3),
            )
            reg_big = b.region_general(big)
            reg_small = b.region_general(small)
            pts = rng.uniform(0.0, 1.0, size=(1000, 2))
            inside_small = b.membership_grid(reg_small, pts[:, 0], pts[:, 1]) == 1
            outside_big = b.membership_grid(reg_big, pts[:, 0], pts[:, 1]) == -1
            assert not np.any(inside_small & outside_big)


class TestTraceBoundary:
    def test_rectangle_outline(self):
        pts = b.trace_boundary(b.region_general(RECT), 3)
        assert [(p.lambda1, p.lambda2) for p in pts] == [
            (0.0, 0.5), (0.25, 0.5), (0.5, 0.5), (0.5, 0.0),
        ]

    def test_axis_intercepts(self):
        pts = b.trace_boundary(b.region_general(GENERAL), 33)
        assert pts[0].lambda1 == 0.0
        assert pts[0].lambda2 == pytest.approx(0.8)  # p2_solo
        assert pts[-1].lambda2 == 0.0
        assert pts[-1].lambda1 == pytest.approx(0.9)  # p1_solo

    def test_corner_sampled_exactly(self):
        pts = b.trace_boundary(b.region_general(GENERAL), 10)
        match = [p for p in pts if p.lambda1 == 0.3]
        assert match and match[0].lambda2 == pytest.approx(0.5, abs=1e-12)

    def test_frontier_nonincreasing(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            pts = b.trace_boundary(b.region_general(random_profile(rng)), 41)
            lam2 = [p.lambda2 for p in pts]
            assert all(y2 <= y1 + 1e-12 for y1, y2 in zip(lam2, lam2[1:]))

    def test_degenerate_region_axis_segment(self):
        prof = SuccessProfile(0.6, 0.5, 0.0, 0.0)
        pts = b.trace_boundary(b.region_general(prof), 5)
        assert pts[0] == RatePoint(0.0, 0.5)  # lambda2 axis cap at p2_solo
        assert all(p.lambda2 == 0.0 for p in pts[1:])  # then the lambda1 axis
        assert pts[-1].lambda1 == pytest.approx(0.6)

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidParameterError):
            b.trace_boundary(b.region_general(RECT), 1)

    @pytest.mark.parametrize("profile, n_points", [
        ((0.3, 0.8, 0.1, 0.5), 4), ((0.9, 0.1, 0.45, 0.01), 3), ((0.9, 0.1, 0.45, 0.02), 5),
    ])
    def test_sample_near_corner_replaced_by_corner(self, profile, n_points):
        """A linspace sample within 1e-12 of the corner gives way to the exact corner."""
        prof = SuccessProfile(*profile)
        pts = b.trace_boundary(b.region_general(prof), n_points)
        near = [p.lambda1 for p in pts if abs(p.lambda1 - prof.p1_both) <= 1e-12]
        assert near == [prof.p1_both], pts

    @pytest.mark.parametrize("n_points", [2, 3, 10])
    def test_no_repeated_rows(self, n_points):
        rng = np.random.default_rng(59)
        profiles = [*DEGENERATE, GENERAL, RECT,
                    *(random_profile(rng, floor=0.0) for _ in range(20))]
        for prof in profiles:
            pts = b.trace_boundary(b.region_general(prof), n_points)
            assert all(p != q for p, q in zip(pts, pts[1:])), (prof, pts)

    def test_lambda2_axis_region_is_one_segment(self):
        pts = b.trace_boundary(b.region_general(SuccessProfile(0.0, 0.8, 0.0, 0.5)), 3)
        assert pts == [RatePoint(0.0, 0.8), RatePoint(0.0, 0.0)]


class TestDominantServiceRates:
    def test_hand_worked_first_system(self):
        mu1, mu2, empty = b.dominant_service_rates(GENERAL, "first", 0.25)
        assert empty == pytest.approx(0.5)
        assert mu1 == pytest.approx(0.6)
        assert mu2 == pytest.approx(0.5)

    def test_idle_other_queue(self):
        mu1, _, empty = b.dominant_service_rates(GENERAL, "first", 0.0)
        assert mu1 == pytest.approx(0.9)  # p1_solo
        assert empty == 1.0

    def test_saturation_limit(self):
        mu1, _, _ = b.dominant_service_rates(GENERAL, "first", 0.5 - 1e-9)
        assert mu1 == pytest.approx(0.3, abs=1e-6)  # p1_both

    def test_second_system(self):
        mu1, mu2, empty = b.dominant_service_rates(GENERAL, "second", 0.15)
        assert mu1 == pytest.approx(0.3)
        assert empty == pytest.approx(0.5)
        assert mu2 == pytest.approx(0.8 - (0.3 / 0.3) * 0.15)

    @settings(deadline=None)
    @given(which=st.sampled_from(["first", "second"]),
           solo=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
           both_frac=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
           load=st.floats(0.0, 0.99))
    def test_saturated_rate_is_on_the_frontier(self, which, solo, both_frac, load):
        """The busy queue's dominant-system rate lies on the region's frontier."""
        prof = SuccessProfile(*solo, solo[0] * both_frac[0], solo[1] * both_frac[1])
        reg = b.region_general(prof)
        if which == "first":
            mu, _, _ = b.dominant_service_rates(prof, which, load * prof.p2_both)
            point = lambda lam: RatePoint(lam, load * prof.p2_both)
        else:
            _, mu, _ = b.dominant_service_rates(prof, which, load * prof.p1_both)
            point = lambda lam: RatePoint(load * prof.p1_both, lam)
        assert b.membership(reg, point(mu)) is Membership.BOUNDARY
        assert b.membership(reg, point(0.999 * mu)) is Membership.INSIDE

    def test_infeasible_rate(self):
        with pytest.raises(InfeasibleRateError):
            b.dominant_service_rates(GENERAL, "first", 0.5)
        with pytest.raises(InvalidParameterError):
            b.dominant_service_rates(GENERAL, "third", 0.1)


class TestRegionAdaptive:
    PARAMS = SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "adaptive")

    def test_corner_from_adaptive_sc_profile(self):
        reg = b.region_for_params(self.PARAMS)
        assert reg.profile.as_tuple() == pytest.approx(
            (0.778801, 0.778801, 0.367879, 0.670320), abs=1e-6
        )
        assert (reg.corner.lambda1, reg.corner.lambda2) == pytest.approx(
            (0.367879, 0.670320), abs=1e-6
        )

    def test_single_user_power_split(self):
        # all power on queue 1: shared-slot service vanishes for both users,
        # solo service still uses the full budget
        params = SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 2.0, 0.0, "sc", "adaptive")
        prof = b.build_profile(params)
        assert prof.p1_both == 0.0 and prof.p2_both == 0.0
        assert prof.p1_solo == pytest.approx(math.exp(-0.25))
        assert prof.p2_solo == pytest.approx(math.exp(-0.25))
        reg = b.region_for_params(params)
        assert b.membership(reg, RatePoint(0.5, 0.0)) is Membership.BOUNDARY
        assert b.membership(reg, RatePoint(0.5, 0.1)) is Membership.OUTSIDE

    def test_contains_fixed_region(self):
        fixed = b.region_for_params(
            SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "fixed")
        )
        adaptive = b.region_for_params(self.PARAMS)
        grid = np.linspace(0.0, 1.0, 101)
        cf = b.membership_grid(fixed, grid[:, None], grid[None, :])
        ca = b.membership_grid(adaptive, grid[:, None], grid[None, :])
        assert not np.any((cf >= 0) & (ca == -1))
        assert np.any((ca == 1) & (cf == -1))  # strictly larger somewhere


class TestBoundaryScale:
    def test_rectangle_diagonal(self):
        reg = b.region_general(RECT)
        s = b.boundary_scale(reg, 45.0)
        assert s * math.cos(math.radians(45)) == pytest.approx(0.5, abs=1e-9)

    def test_axis_rays(self):
        reg = b.region_general(GENERAL)
        assert b.boundary_scale(reg, 0.0) == pytest.approx(0.9, abs=1e-9)
        assert b.boundary_scale(reg, 90.0) == pytest.approx(0.8, abs=1e-9)

    def test_scaled_points_classify_consistently(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            reg = b.region_general(random_profile(rng))
            ang = rng.uniform(1.0, 89.0)
            s = b.boundary_scale(reg, ang)
            c, sn = math.cos(math.radians(ang)), math.sin(math.radians(ang))
            assert b.membership(reg, RatePoint(0.95 * s * c, 0.95 * s * sn)) is Membership.INSIDE
            assert b.membership(reg, RatePoint(1.05 * s * c, 1.05 * s * sn)) is Membership.OUTSIDE

    def test_angle_range_enforced(self):
        with pytest.raises(InvalidParameterError):
            b.boundary_scale(b.region_general(RECT), -1.0)

    def test_matches_bisection_reference(self):
        rng = np.random.default_rng(67)
        angles = np.concatenate([[0.0, 90.0], rng.uniform(0.0, 90.0, 30)])
        for _ in range(40):
            prof = random_profile(rng)
            for reg in (b.region_general(prof),
                        b.region_fixed_sc_decoupled(SuccessProfile(
                            prof.p1_solo, prof.p2_solo, prof.p1_solo, prof.p2_both))):
                for ang in angles:
                    assert b.boundary_scale(reg, ang) == pytest.approx(
                        bisect_boundary_scale(reg, ang), abs=1e-12)

    def test_region_without_interior_has_zero_scale(self):
        reg = b.region_general(SuccessProfile(0.0, 0.0, 0.0, 0.0))
        assert b.boundary_scale(reg, 30.0) == 0.0

    def test_forced_zero_rate_has_zero_scale(self):
        # p1_solo = 0 forces lambda1 to 0: every ray off the lambda2 axis has
        # scale exactly 0, not the 1/_HUGE stand-in
        reg = b.region_general(SuccessProfile(0.0, 0.8, 0.0, 0.5))
        for angle in (0.0, 45.0, 89.0):
            assert b.boundary_scale(reg, angle) == 0.0


def bisect_boundary_scale(region, angle_deg):
    """Reference: bisect the inside/outside flip along the ray (the region is
    star-shaped about the origin, so membership flips exactly once)."""
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    if b.membership(region, RatePoint(0.0, 0.0)) is not Membership.INSIDE:
        return 0.0
    lo = 0.0
    hi = 1.5 / max(c, s)  # a coordinate beyond 1 is outside any region
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if b.membership(region, RatePoint(mid * c, mid * s)) is Membership.INSIDE:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
