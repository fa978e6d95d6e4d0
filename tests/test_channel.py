"""Closed-form success probabilities and their Monte Carlo cross-checks."""

import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bcstab as b
from bcstab import (
    Decoding,
    InvalidParameterError,
    InvalidProfileError,
    SuccessProfile,
    SystemParams,
)
from bcstab.channel import _EVENT_USERS, _MAX_GAIN, _raw_events, _thresholds

EXP_HALF = 0.6065306597126334  # exp(-0.5)
EXP_QUARTER = 0.7788007830714049  # exp(-0.25)
EXP_ONE = 0.36787944117144233  # exp(-1)


def ian_params(p1=1.0, p2=1.0, **kw):
    defaults = dict(gamma1=0.5, gamma2=0.5, d1=1.0, d2=1.0, alpha=2.0,
                    p_total=p1 + p2, p1=p1, p2=p2, decoding="ian",
                    power_scheme="fixed")
    defaults.update(kw)
    return SystemParams(**defaults)


def random_params(rng, scheme=None, power=None):
    """A physically sensible random configuration (d1 <= d2 under sc)."""
    scheme = scheme or rng.choice(["ian", "sc"])
    power = power or rng.choice(["fixed", "adaptive"])
    d1, d2 = sorted(rng.uniform(0.5, 2.0, size=2)) if scheme == "sc" else rng.uniform(0.5, 2.0, size=2)
    p_total = rng.uniform(1.0, 4.0)
    split = rng.uniform(0.15, 0.85)
    return SystemParams(
        gamma1=float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))),
        gamma2=float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))),
        d1=float(d1), d2=float(d2),
        alpha=float(rng.uniform(2.0, 4.0)),
        p_total=float(p_total), p1=float(split * p_total), p2=float((1 - split) * p_total),
        decoding=str(scheme), power_scheme=str(power),
    )


def test_public_names_are_the_modules_exports():
    public = {name for name, value in vars(b).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {*b.channel.__all__, *b.region.__all__, *b.sim.__all__}


class TestSoloSuccess:
    def test_reference_values(self):
        assert b.build_profile(ian_params()).p1_solo == pytest.approx(EXP_HALF, abs=1e-12)
        assert b.build_profile(ian_params(p1=2.0)).p1_solo == pytest.approx(EXP_QUARTER, abs=1e-12)

    def test_zero_threshold_always_succeeds(self):
        assert b.snr_success(0.0, 1.0, 2.0, 1.0) == 1.0

    def test_nonpositive_power_rejected(self):
        # nothing sent is nothing decoded; only a negative power is an error
        assert b.snr_success(0.5, 1.0, 2.0, 0.0) == 0.0
        with pytest.raises(InvalidParameterError):
            b.snr_success(0.5, 1.0, 2.0, -1.0)

    def test_bad_user_index(self):
        with pytest.raises(InvalidParameterError):
            ian_params().solo_power(3)

    def test_monotonicity(self):
        """More power helps; higher threshold, distance, or pathloss hurt."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            gamma = rng.uniform(0.05, 3.0)
            d = rng.uniform(1.01, 3.0)  # alpha-monotonicity needs d > 1
            alpha = rng.uniform(1.5, 4.0)
            power = rng.uniform(0.2, 4.0)
            base = b.snr_success(gamma, d, alpha, power)
            assert b.snr_success(gamma, d, alpha, power * 1.2) > base
            assert b.snr_success(gamma * 1.2, d, alpha, power) < base
            assert b.snr_success(gamma, d * 1.2, alpha, power) < base
            assert b.snr_success(gamma, d, alpha * 1.2, power) < base

    def test_extreme_exponent_underflows_to_zero(self):
        assert b.snr_success(1e6, 10.0, 4.0, 1e-6) == 0.0


class TestIanBothSuccess:
    def test_symmetric_unit_powers(self):
        prof = b.build_profile(ian_params())
        assert prof.p1_both == pytest.approx(EXP_ONE, abs=1e-12)
        assert prof.p2_both == pytest.approx(EXP_ONE, abs=1e-12)

    def test_indicator_fails_at_equality(self):
        # gamma2 * p1 == p2 exactly: infeasible, probability is exactly 0
        params = ian_params(gamma1=1.0, gamma2=1.0)
        assert b.build_profile(params).p2_both == 0.0

    def test_no_interference_reduces_to_solo(self):
        prof = b.build_profile(ian_params(p1=0.0, p2=2.0))
        assert prof.p2_both == prof.p2_solo
        assert prof.p2_both == pytest.approx(EXP_QUARTER, abs=1e-12)

    def test_zero_interferer_exact_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p2 = rng.uniform(0.2, 3.0)
            params = ian_params(p1=0.0, p2=float(p2),
                                gamma2=float(rng.uniform(0.1, 2.0)),
                                d2=float(rng.uniform(0.5, 2.0)))
            prof = b.build_profile(params)
            assert prof.p2_both == prof.p2_solo


def sc_params(p1, p2, **kw):
    defaults = dict(gamma1=0.5, gamma2=0.5, d1=1.0, d2=1.0, alpha=2.0,
                    p_total=p1 + p2, p1=p1, p2=p2, decoding="sc",
                    power_scheme="fixed")
    defaults.update(kw)
    return SystemParams(**defaults)


class TestLayeredDecoding:
    def test_own_layer_binds_at_large_peer_power(self):
        # p2 = 1.5 exceeds p1*gamma2*(1+gamma1)/gamma1 = 0.75
        assert b.build_profile(sc_params(0.5, 1.5)).p1_both == pytest.approx(EXP_ONE, abs=1e-12)

    def test_peer_layer_binds_at_moderate_peer_power(self):
        # 0.5 < p2 = 1 <= 1.5: the peel-off event is the bottleneck
        assert b.build_profile(sc_params(1.0, 1.0)).p1_both == pytest.approx(EXP_ONE, abs=1e-12)

    def test_peer_layer_undecodable(self):
        params = sc_params(1.0, 1.0, gamma2=2.0)
        assert b.build_profile(params).p1_both == 0.0

    def test_zero_own_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            b.layered_decode_success(0.0, 0.5, 1.0, 2.0, 1.0, 1.0)

    def test_negative_own_power_rejected(self):
        with pytest.raises(InvalidParameterError):
            b.layered_decode_success(0.5, 0.5, 1.0, 2.0, -1.0, 2.0)

    @pytest.mark.parametrize("power_scheme", ["fixed", "adaptive"])
    def test_zero_own_power_never_succeeds(self, power_scheme):
        # a zero per-queue power is legal, as under IAN, not a parameter error
        assert b.layered_decode_success(0.5, 0.5, 1.0, 2.0, 0.0, 2.0) == 0.0
        prof = b.build_profile(sc_params(0.0, 2.0, power_scheme=power_scheme))
        assert prof.p1_both == 0.0
        assert prof.p1_solo == (EXP_QUARTER if power_scheme == "adaptive" else 0.0)
        assert prof.p2_both == prof.p2_solo == pytest.approx(EXP_QUARTER, abs=1e-12)

    def test_branches_agree_at_regime_crossover(self):
        """The two closed-form branches are continuous at the power split
        where the binding sub-event changes."""
        rng = np.random.default_rng(23)
        for _ in range(50):
            g1 = rng.uniform(0.05, 3.0)
            g2 = rng.uniform(0.05, 3.0)
            d = rng.uniform(0.5, 2.0)
            alpha = rng.uniform(2.0, 4.0)
            p1 = rng.uniform(0.1, 3.0)
            p2 = p1 * g2 * (1.0 + g1) / g1
            lo = b.sinr_success(g2, d, alpha, p2, p1)
            hi = b.snr_success(g1, d, alpha, p1)
            assert lo == pytest.approx(hi, abs=1e-9)
            assert b.layered_decode_success(g1, g2, d, alpha, p1, p2) == pytest.approx(hi, abs=1e-9)

    def test_weak_user_treats_interference_as_noise(self):
        sc, ian = b.build_profile(sc_params(0.5, 1.5)), b.build_profile(ian_params(0.5, 1.5))
        assert sc.p2_both == ian.p2_both


class TestAdaptiveSolo:
    def test_full_budget_used(self):
        params = sc_params(0.5, 1.5, power_scheme="adaptive")
        assert b.build_profile(params).p1_solo == pytest.approx(EXP_QUARTER, abs=1e-12)

    def test_far_receiver(self):
        params = SystemParams(0.5, 0.5, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0,
                              decoding="ian", power_scheme="adaptive")
        assert b.build_profile(params).p2_solo == pytest.approx(EXP_ONE, abs=1e-12)

    def test_matches_solo_success_at_same_power(self):
        params = sc_params(0.5, 1.5, power_scheme="adaptive")
        # the fixed scheme's lone queue 1 at the adaptive budget
        fixed = sc_params(params.p_total, 0.0)
        assert b.build_profile(params).p1_solo == b.build_profile(fixed).p1_solo

    def test_never_below_shared_power_within_split_slack(self):
        # p1 + p2 may exceed the budget by 1e-12 of it; a lone queue then
        # transmits at its shared power, as build_profile and success_events do
        params = ian_params(0.0, 1.0, p_total=1.0 - 3e-14, power_scheme="adaptive")
        assert params.solo_power(2) == 1.0
        assert b.build_profile(params).p2_solo == b.build_profile(ian_params(0.0, 1.0)).p2_solo
        assert b.build_profile(params).p2_both == b.build_profile(params).p2_solo


class TestBuildProfile:
    def test_fixed_ian_symmetric(self):
        prof = b.build_profile(ian_params())
        assert prof.as_tuple() == pytest.approx(
            (EXP_HALF, EXP_HALF, EXP_ONE, EXP_ONE), abs=1e-12
        )

    def test_generic_pass_through(self):
        prof = SuccessProfile(1.0, 1.0, 1.0, 1.0)
        params = SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0,
                              decoding="generic", power_scheme="fixed",
                              generic_profile=prof)
        assert b.build_profile(params) is prof

    def test_adaptive_sc(self):
        prof = b.build_profile(sc_params(0.5, 1.5, power_scheme="adaptive"))
        assert prof.as_tuple() == pytest.approx(
            (EXP_QUARTER, EXP_QUARTER, EXP_ONE, math.exp(-0.4)), abs=1e-12
        )

    def test_fixed_solo_uses_per_queue_power(self):
        # This is what decouples queue 1 in the fixed layered scheme:
        # solo and shared-slot successes coincide for user 1.
        prof = b.build_profile(sc_params(0.5, 1.5))
        assert prof.p1_solo == prof.p1_both == pytest.approx(EXP_ONE, abs=1e-12)

    def test_zero_power_queue_never_succeeds(self):
        prof = b.build_profile(ian_params(p1=2.0, p2=0.0))
        assert prof.p2_solo == 0.0
        assert prof.p2_both == 0.0

    def test_shared_slot_never_beats_solo(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            prof = b.build_profile(random_params(rng))
            assert prof.p1_both <= prof.p1_solo + 1e-12
            assert prof.p2_both <= prof.p2_solo + 1e-12


def threshold_gains(params):
    """Each user's gains at which a shared or solo success flips, with their
    neighbouring floats, plus the extreme gains."""
    gains = [0.0, 1.0, _MAX_GAIN]
    users = ((params.gamma1, params.d1, params.p1), (params.gamma2, params.d2, params.p2))
    for user, (gamma, dist, shared) in enumerate(users, start=1):
        for power in (shared, params.solo_power(user)):
            if power > 0.0:
                gain = gamma * dist**params.alpha / power
                if gain <= _MAX_GAIN:
                    gains += [np.nextafter(gain, 0.0), gain, np.nextafter(gain, np.inf)]
    return np.array(gains)


class TestSharedImpliesSolo:
    """On every draw a shared-slot success implies the solo success: the
    monotone coupling that the queue solver's all-busy start and the
    dominant-system bounds rest on."""

    @settings(deadline=None, max_examples=300)
    @given(decoding=st.sampled_from(["ian", "sc"]),
           power=st.sampled_from(["fixed", "adaptive"]),
           log_gammas=st.tuples(st.floats(-30, 30), st.floats(-30, 30)),
           log_dists=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
           alpha=st.floats(0.5, 6.0), powers=st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)),
           budget_error=st.sampled_from([0.0, 1e-12, -1e-12]) | st.floats(-1e-12, 1e-12),
           seed=st.integers(0, 2**32 - 1))
    @example(decoding="ian", power="adaptive", log_gammas=(0.0, 0.0), log_dists=(0.0, 0.0),
             alpha=1.0, powers=(0.0, 1.0), budget_error=-3e-14, seed=0)
    def test_physical_schemes(self, decoding, power, log_gammas, log_dists, alpha, powers,
                              budget_error, seed):
        p1, p2 = powers
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sc with d1 > d2 is only advisory
                params = SystemParams(*(10.0 ** g for g in log_gammas),
                                      *(10.0 ** d for d in log_dists), alpha,
                                      (p1 + p2) * (1.0 + budget_error), p1, p2, decoding, power)
        except InvalidParameterError:
            return
        gains = np.concatenate([threshold_gains(params),
                                np.random.default_rng(seed).standard_exponential(40)])
        g1, g2 = (grid.ravel() for grid in np.meshgrid(gains, gains))
        solo1, solo2, both1, both2 = b.success_events(params, g1, g2)
        assert not np.any(both1 & ~solo1)
        assert not np.any(both2 & ~solo2)

    @settings(deadline=None, max_examples=200)
    @given(solo=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           excess=st.tuples(st.floats(-1.0, 1e-12), st.floats(-1.0, 1e-12)),
           seed=st.integers(0, 2**32 - 1))
    @example(solo=(0.5, 0.5), excess=(1e-12, 1e-12), seed=0)
    def test_generic_profiles(self, solo, excess, seed):
        # a profile may put p_both up to the validation slack above p_solo
        both = [min(1.0, max(0.0, s + e)) for s, e in zip(solo, excess)]
        try:
            prof = SuccessProfile(*solo, *both)
        except InvalidProfileError:
            return
        params = SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "generic", "fixed",
                              generic_profile=prof)
        edges = [x for p in (*solo, *both) for x in (np.nextafter(p, -1.0), p)]
        draws = np.concatenate([edges, np.random.default_rng(seed).random(40)])
        c1, c2 = (grid.ravel() for grid in np.meshgrid(draws, draws))
        solo1, solo2, both1, both2 = b.success_events(params, c1, c2)
        assert not np.any(both1 & ~solo1)
        assert not np.any(both2 & ~solo2)


def to_draw(bits):
    return float(np.int64(bits).view(np.float64))


def to_bits(draw):
    return int(np.float64(draw).view(np.int64))


def raw_crossing(params, event):
    """A draw in [0, _MAX_GAIN] at which the raw event succeeds and fails one
    bit pattern below, by plain binary search with scalar draws; None if the
    event fails at _MAX_GAIN."""
    lo, hi = -1, to_bits(_MAX_GAIN) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        draw = to_draw(mid)
        if _raw_events(params, draw, draw)[event]:
            hi = mid
        else:
            lo = mid
    return None if hi > to_bits(_MAX_GAIN) else to_draw(hi)


def probe_draws(params, seed):
    """0, _MAX_GAIN, random gains, and 40 bit patterns either side of every
    threshold and of every independently found crossing, within [0, _MAX_GAIN]."""
    marks = [raw_crossing(params, event) for event in range(4)]
    marks += _thresholds(params)
    bits = [to_bits(m) + k for m in marks if m is not None and m <= _MAX_GAIN
            for k in range(-40, 41)]
    draws = np.concatenate([[0.0, _MAX_GAIN], np.array(bits, dtype=np.int64).view(np.float64),
                            np.random.default_rng(seed).standard_exponential(200)])
    return draws[(draws >= 0.0) & (draws <= _MAX_GAIN)]


def subnormal_error(params, event, draw):
    """Relative error that rounding to a subnormal, at most 2**-1074
    absolute, can add near ``event``'s root at ``draw``: of each decoding
    threshold the raw test compares with, of the scaled draw, and of the
    closed form's ``gamma * d**alpha``. Negligible where all are normal."""
    user = _EVENT_USERS[event]
    dist = params.d1 if user == 1 else params.d2
    gammas = [params.gamma1 if user == 1 else params.gamma2]
    if event == 2 and params.decoding is Decoding.SUCCESSIVE_DECODING:
        gammas.append(params.gamma2)  # the peer layer's SINR test
    values = [draw * dist**-params.alpha]
    values += [v for gamma in gammas for v in (gamma, gamma * dist**params.alpha)]
    return sum(2.0**-1074 / v if v > 0.0 else math.inf for v in values)


@st.composite
def physical_params(draw):
    """Accepted IAN or SC parameters, ordinary or extreme: thresholds down to
    subnormal, adaptive budgets within the split's slack, and optionally a
    shared-slot margin ``p_own - gamma * p_other`` a relative ``delta`` from
    zero with that event's root placed at a chosen draw."""
    decoding = draw(st.sampled_from(["ian", "sc"]))
    power = draw(st.sampled_from(["fixed", "adaptive"]))
    gammas = [10.0 ** draw(st.floats(-320, 30)) for _ in range(2)]
    dists = [10.0 ** draw(st.floats(-5, 5)) for _ in range(2)]
    alpha = draw(st.floats(0.5, 6.0))
    p1, p2 = draw(st.floats(0, 1e6)), draw(st.floats(0, 1e6))
    tuned = draw(st.none() | st.tuples(st.sampled_from([2, 3]),
                                       st.sampled_from([-1.0, 1.0]), st.integers(0, 16),
                                       st.floats(-320, math.log10(_MAX_GAIN))))
    if tuned is not None:
        event, sign, digits, log_root = tuned
        if event == 3 or decoding == "sc":  # p2 * u >= gamma2 * (1 + p1 * u)
            user, gamma, p1 = 1 + event % 2, gammas[1], p1 or 1.0
            p2 = a = gamma * p1 * (1.0 + sign * 10.0**-digits)
            margin = a - gamma * p1
        else:  # p1 * u >= gamma1 * (1 + p2 * u)
            user, gamma, p2 = 1, gammas[0], p2 or 1.0
            p1 = a = gamma * p2 * (1.0 + sign * 10.0**-digits)
            margin = a - gamma * p2
        scale = gamma / margin / 10.0**log_root if margin > 0.0 else 0.0
        if 0.0 < scale < math.inf:  # the real root u = gamma / margin at draw 10**log_root
            dists[user - 1] = scale ** (-1.0 / alpha)
    budget = (p1 + p2) * (1.0 + draw(st.sampled_from([0.0, 1e-12, -1e-12])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sc with d1 > d2 is only advisory
        try:
            return SystemParams(*gammas, *dists, alpha, budget, p1, p2, decoding, power)
        except (InvalidParameterError, OverflowError, ZeroDivisionError):
            assume(False)


class TestThresholdEvents:
    """success_events decides each fading event by comparing its user's draw
    with a threshold bisected from the raw inequality, and must give exactly
    what the raw inequalities give."""

    @settings(deadline=None, max_examples=300)
    @given(params=physical_params(), seed=st.integers(0, 2**32 - 1))
    @example(params=SystemParams(0.5, 2.3294701747012687, 1, 1, 2, 0.5176490349354173 + 2.7996668711148365,
                                 0.5176490349354173, 2.7996668711148365, "ian", "fixed"), seed=0)
    @example(params=SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "adaptive"), seed=0)
    @example(params=SystemParams(1e-310, 1e-310, 1, 1, 2, 2.0, 1.5, 0.5, "ian", "fixed"), seed=0)
    @example(params=SystemParams(0.5, 0.5, 1, 1, 2, 1.0 - 3e-13, 0.0, 1.0, "sc", "adaptive"), seed=0)
    def test_equals_raw_events(self, params, seed):
        draws = probe_draws(params, seed)
        fast = b.success_events(params, draws, draws[::-1])
        raw = _raw_events(params, draws, draws[::-1])
        for got, want in zip(fast, raw):
            assert got.dtype == bool and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_solo_events_have_exact_thresholds(self):
        # every event, the shared-slot ones too, is monotone in its user's
        # draw, so its threshold is the crossing a scalar bisection finds; the
        # last two rows are shared-slot tests that, multiplied out, flipped
        # within a few ulps of their root and far from it
        p1, p2 = 0.5176490349354173, 2.7996668711148365
        gamma2, q1, q2, d2 = 1.7070944094947509, 1.1137987045537419, 1.9013595418479177, 2.2505533697683023e-06
        rows = (ian_params(), sc_params(0.5, 1.5), sc_params(0.5, 1.5, power_scheme="adaptive"),
                SystemParams(0.5, 2.3294701747012687, 1, 1, 2, p1 + p2, p1, p2, "ian", "fixed"),
                SystemParams(0.5, gamma2, 1, d2, 2, q1 + q2, q1, q2, "ian", "fixed"))
        for params in rows:
            for event, threshold in enumerate(_thresholds(params)):
                crossing = raw_crossing(params, event)
                assert threshold == (math.inf if crossing is None else crossing)
                centre = to_bits(min(threshold, _MAX_GAIN))
                draws = np.array([to_draw(centre + k) for k in range(-40, 41)])
                raw = _raw_events(params, draws, draws)[event]
                assert np.array_equal(raw, draws >= threshold), (params, event)

    @settings(deadline=None, max_examples=300)
    @given(params=physical_params())
    @example(params=SystemParams(0.5, 2.3294701747012687, 1, 1, 2, 0.5176490349354173 + 2.7996668711148365,
                                 0.5176490349354173, 2.7996668711148365, "ian", "fixed"))
    @example(params=SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "adaptive"))
    def test_thresholds_match_closed_forms(self, params):
        """A draw-free check of the closed forms: an event succeeds on Exp(1)
        draws from its threshold on, so its probability is exp(-threshold).
        The tolerance is the rounding of the closed form's and the
        threshold's few operations, relative 2**-53 each, carried through
        exp, plus what a subnormal quantity near the root adds."""
        closed = b.build_profile(params).as_tuple()
        for event, (threshold, p) in enumerate(zip(_thresholds(params), closed)):
            t = min(threshold, _MAX_GAIN)
            tol = (t + 1) * (8 * 2.0**-53 + subnormal_error(params, event, t))
            if p == 0.0:  # _exp_term's cutoff, or an infeasible event
                assert threshold + tol > 700.0, (event, threshold)
            else:
                assert abs(math.exp(-threshold) - p) <= tol * p, (event, threshold, p)

    def test_strided_columns_and_scalars(self):
        params = sc_params(0.5, 1.5)
        chan = np.random.default_rng(4).standard_exponential((1000, 2))
        fast = b.success_events(params, chan[:, 0], chan[:, 1])
        raw = _raw_events(params, chan[:, 0], chan[:, 1])
        assert all(np.array_equal(got, want) for got, want in zip(fast, raw))
        assert b.success_events(params, 1.2, 0.3) == _raw_events(params, 1.2, 0.3)


class TestValidation:
    def test_power_split_must_sum(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 0.5, "ian", "fixed")

    def test_positive_constants(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(-0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed")
        with pytest.raises(InvalidParameterError):
            SystemParams(0.5, 0.5, 0.0, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed")
        # non-finite or overflowing constants are rejected on entry
        inf = math.inf
        with pytest.raises(InvalidParameterError, match="p_total must be finite"):
            SystemParams(0.5, 0.5, 1, 1, 2, inf, inf, inf, "ian", "fixed")
        with pytest.raises(InvalidParameterError, match="d1 must be finite"):
            SystemParams(0.5, 0.5, inf, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed")
        with pytest.raises(InvalidParameterError, match="out of floating-point range"):
            SystemParams(0.5, 0.5, 0.5, 1, 2000, 2.0, 1.0, 1.0, "ian", "fixed")

    def test_generic_needs_profile(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "generic", "fixed")

    def test_profile_only_for_generic(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed",
                         generic_profile=SuccessProfile(0.9, 0.8, 0.3, 0.5))

    def test_sc_with_farther_strong_receiver_warns(self):
        with pytest.warns(UserWarning, match="stronger receiver") as record:
            SystemParams(0.5, 0.5, 2.0, 1.0, 2, 2.0, 1.0, 1.0, "sc", "fixed")
        # the warning names the caller's line, not the generated __init__
        assert record[0].filename == __file__

    def test_power_overflowing_at_largest_gain_rejected(self):
        # a product that overflows to inf in success_events would make
        # inf >= inf count as a decoding success
        gamma = 10 ** 0.2
        with pytest.raises(InvalidParameterError, match="largest gain"):
            SystemParams(gamma, gamma, 1, 1, 2, 1e308, 5e307, 5e307, "ian", "fixed")
        with pytest.raises(InvalidParameterError, match="largest gain"):
            SystemParams(0.5, 0.5, 1e-153, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed")
        with pytest.raises(InvalidParameterError, match="largest gain"):
            SystemParams(1e10, 0.5, 1, 1, 2, 3e295, 1.5e295, 1.5e295, "sc", "fixed")
        SystemParams(1e10, 0.5, 1, 1, 2, 2e295, 1e295, 1e295, "sc", "fixed")

    @settings(deadline=None)
    @given(decoding=st.sampled_from(["ian", "sc"]),
           power=st.sampled_from(["fixed", "adaptive"]),
           log_gammas=st.tuples(st.floats(-300, 300), st.floats(-300, 300)),
           log_dists=st.tuples(st.floats(-150, 150), st.floats(-150, 150)),
           alpha=st.floats(0.01, 10.0), log_p_total=st.floats(-300, 308),
           split=st.floats(0.0, 1.0))
    @example(decoding="sc", power="fixed", log_gammas=(10.0, 10.0), log_dists=(0.0, 0.0),
             alpha=2.0, log_p_total=math.log10(2e295), split=0.5)
    def test_accepted_params_never_overflow(self, decoding, power, log_gammas, log_dists,
                                            alpha, log_p_total, split):
        """Accepted parameters keep every success_events product finite up to the
        largest exponential draw."""
        p_total = 10.0 ** log_p_total
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sc with d1 > d2 is only advisory
                params = SystemParams(*(10.0 ** g for g in log_gammas),
                                      *(10.0 ** d for d in log_dists), alpha, p_total,
                                      split * p_total, (1.0 - split) * p_total,
                                      decoding, power)
        except InvalidParameterError:
            return
        gains = np.array([0.0, 1e-300, 1.0, 744.4, _MAX_GAIN])
        with np.errstate(over="raise", invalid="raise"):
            b.success_events(params, gains, gains[::-1])

    @settings(deadline=None, max_examples=200)
    @given(decoding=st.sampled_from(["ian", "sc"]),
           power=st.sampled_from(["fixed", "adaptive"]),
           log_gammas=st.tuples(st.floats(-330, 300), st.floats(-330, 300)),
           log_dists=st.tuples(st.floats(-150, 150), st.floats(-150, 150)),
           alpha=st.floats(0.01, 10.0), log_p_total=st.floats(-300, 308),
           split=st.floats(0.0, 1.0))
    @example(decoding="sc", power="fixed", log_gammas=(0.0, 0.0), log_dists=(0.0, 0.0),
             alpha=2.0, log_p_total=0.3, split=0.0)
    @example(decoding="sc", power="adaptive", log_gammas=(-320.0, 0.0), log_dists=(0.0, 0.0),
             alpha=2.0, log_p_total=0.3, split=1.0)
    @example(decoding="sc", power="fixed", log_gammas=(10.0, 10.0), log_dists=(0.0, 0.0),
             alpha=2.0, log_p_total=math.log10(2e295), split=0.5)
    # p_peer * gamma_own underflows to 0 here: a regime split on that product
    # picked the SINR branch and put p1_both far above p1_solo
    @example(decoding="sc", power="fixed", log_gammas=(-99.0, -100.0), log_dists=(-124.0, 0.0),
             alpha=1.0, log_p_total=-225.0, split=0.5)
    # gamma1*p2 overflows: an unclipped margin of -inf met the zero draw as nan
    @example(decoding="ian", power="fixed", log_gammas=(155.0, 0.0), log_dists=(2.0, 2.0),
             alpha=2.0, log_p_total=154.0, split=0.0)
    def test_accepted_params_build_profile_and_brackets(self, decoding, power, log_gammas,
                                                        log_dists, alpha, log_p_total, split):
        """Every parameter set SystemParams accepts has a closed-form profile and
        event thresholds, and raw events up to the largest draw, all computed
        without an exception or a floating-point fault."""
        p_total = 10.0 ** log_p_total
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sc with d1 > d2 is only advisory
                params = SystemParams(*(10.0 ** g for g in log_gammas),
                                      *(10.0 ** d for d in log_dists), alpha, p_total,
                                      split * p_total, (1.0 - split) * p_total,
                                      decoding, power)
        except InvalidParameterError:
            return
        gains = np.array([0.0, 1e-300, 1.0, 744.4, _MAX_GAIN])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            b.build_profile(params)
            thresholds = _thresholds(params)
            # the raw inequalities that sim.step and the threshold search
            # evaluate stay finite up to the largest draw
            _raw_events(params, gains, gains[::-1])
        assert all(0.0 <= t <= _MAX_GAIN or t == math.inf for t in thresholds)

    @settings(deadline=None, max_examples=200)
    @given(decoding=st.sampled_from(["ian", "sc"]),
           power=st.sampled_from(["fixed", "adaptive"]), event=st.sampled_from([2, 3]),
           log_gammas=st.tuples(st.floats(-12, 3), st.floats(-12, 3)),
           log_dists=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
           alpha=st.floats(1.0, 4.0), log_power=st.floats(-6, 17))
    @example(decoding="ian", power="fixed", event=2, log_gammas=(0.0, 0.0),
             log_dists=(0.0, 0.0), alpha=2.0, log_power=16.0)
    def test_zero_margin_shared_event_never_succeeds(self, decoding, power, event, log_gammas,
                                                     log_dists, alpha, log_power):
        """With a zero shared-slot margin ``p_own - gamma * p_other`` the closed
        form is 0, and on accepted parameters the raw test fails on every draw
        up to the largest gain: its noise term is never lost to rounding."""
        gammas = [10.0 ** g for g in log_gammas]
        other = 10.0 ** log_power
        if event == 3 or decoding == "sc":  # p2 * u >= gamma2 * (1 + p1 * u)
            p1, p2 = other, gammas[1] * other
        else:  # p1 * u >= gamma1 * (1 + p2 * u)
            p1, p2 = gammas[0] * other, other
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sc with d1 > d2 is only advisory
                params = SystemParams(*gammas, *(10.0 ** d for d in log_dists), alpha,
                                      p1 + p2, p1, p2, decoding, power)
        except InvalidParameterError:
            return
        assert b.build_profile(params).as_tuple()[event] == 0.0
        draws = np.concatenate([np.linspace(0.0, _MAX_GAIN, 100_001),
                                np.geomspace(1e-300, _MAX_GAIN, 2001)])
        assert not np.any(_raw_events(params, draws, draws)[event])

    def test_inconsistent_profile_rejected(self):
        with pytest.raises(InvalidProfileError):
            SuccessProfile(0.5, 0.8, 0.6, 0.5)

    @given(
        p1s=st.floats(0.0, 1.0), p2s=st.floats(0.0, 1.0),
        f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0),
    )
    def test_scaled_down_profiles_validate(self, p1s, p2s, f1, f2):
        prof = SuccessProfile(p1s, p2s, p1s * f1, p2s * f2)
        assert 0.0 <= prof.p1_both <= prof.p1_solo + 1e-12
        assert 0.0 <= prof.p2_both <= prof.p2_solo + 1e-12

    @given(st.floats(min_value=-0.5, max_value=1.5))
    def test_out_of_range_entries_rejected(self, v):
        if 0.0 <= v <= 1.0:
            SuccessProfile(1.0, 1.0, v, v)
        else:
            with pytest.raises(InvalidProfileError):
                SuccessProfile(1.0, 1.0, v, 0.0)


class TestMonteCarloEstimates:
    def test_deterministic_given_seed(self):
        params = ian_params()
        a = b.mc_estimate_profile(params, 10_000, seed=5)
        b_ = b.mc_estimate_profile(params, 10_000, seed=5)
        assert a == b_

    def test_single_draw_is_reproducible_bernoulli(self):
        params = ian_params()
        est = b.mc_estimate_profile(params, 1, seed=9)
        assert set(est.as_tuple()) <= {0.0, 1.0}
        assert est == b.mc_estimate_profile(params, 1, seed=9)

    def test_generic_has_no_channel_model(self):
        params = SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0,
                              decoding="generic", power_scheme="fixed",
                              generic_profile=SuccessProfile(0.9, 0.8, 0.3, 0.5))
        with pytest.raises(InvalidParameterError):
            b.mc_estimate_profile(params, 10_000, seed=1)

    def test_draws_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            b.mc_estimate_profile(ian_params(), 0, seed=1)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(InvalidParameterError, match="seed"):
            b.mc_estimate_profile(ian_params(), 10, seed=-1)

    def test_estimates_converge_to_closed_forms(self):
        """Aggregate error shrinks from 1e4 to 1e6 draws and ends below 4
        standard errors per entry, over a random grid of configurations."""
        rng = np.random.default_rng(47)
        errors = {10_000: [], 1_000_000: []}
        for i in range(20):
            params = random_params(rng)
            closed = np.array(b.build_profile(params).as_tuple())
            for draws in errors:
                est = np.array(b.mc_estimate_profile(params, draws, seed=100 + i).as_tuple())
                errors[draws].append(est - closed)
                sigma = np.sqrt(closed * (1.0 - closed) / draws)
                assert np.all(np.abs(est - closed) <= np.maximum(4.0 * sigma, 1e-12))
        rms_small = np.sqrt(np.mean(np.square(errors[10_000])))
        rms_large = np.sqrt(np.mean(np.square(errors[1_000_000])))
        assert rms_large < rms_small

    @pytest.mark.parametrize("params, counts", [
        (ian_params(), (910779, 910714, 552828, 552302)),
        (SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "fixed"),
         (552828, 1076334, 552828, 1006772)),
    ], ids=["ian", "sc"])
    def test_counts_match_pinned(self, params, counts):
        # 1.5e6 draws span two sampling chunks; counts recorded from the
        # division-form inequalities the estimator evaluated before they were
        # shared with the simulator
        draws = 1_500_000
        est = b.mc_estimate_profile(params, draws, seed=3)
        assert tuple(round(p * draws) for p in est.as_tuple()) == counts

    def test_reported_standard_errors(self):
        est = b.mc_estimate_profile(ian_params(), 40_000, seed=3)
        for p, se in zip(est.as_tuple(), est.se_tuple()):
            assert se == pytest.approx(math.sqrt(p * (1 - p) / 40_000), abs=1e-15)
