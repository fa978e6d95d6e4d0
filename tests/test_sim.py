"""Slot simulator: dynamics, statistics, dominance, boundary estimation."""

import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcstab as b
from bcstab import (
    DominantMode,
    EstimationFailureError,
    InvalidParameterError,
    RatePoint,
    SimConfig,
    SuccessProfile,
    SystemParams,
    Verdict,
)
from bcstab import _kernels, sim
from bcstab.sim import _draw_randomness, _fit_slope, _kernel_inputs

GENERAL_PROFILE = SuccessProfile(0.9, 0.8, 0.3, 0.5)


def generic_params(profile=GENERAL_PROFILE):
    return SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0,
                        decoding="generic", power_scheme="fixed",
                        generic_profile=profile)


ALL_PARAMS = [
    SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed"),
    SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "fixed"),
    SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "adaptive"),
    generic_params(),
]

# A moderate load, and one where both queues stay busy after a short ramp.
KERNEL_LOADS = [(0.35, 0.3), (0.9, 0.9)]


def kernel_run(fn, cfg):
    """Per-queue slot-start trajectory of one kernel path on the config's randomness."""
    return fn(*_kernel_inputs(cfg))[0]


class TestStep:
    def test_silent_when_both_empty(self):
        cfg = SimConfig(RatePoint(0.0, 0.0), generic_params(), horizon=100)
        (q1, q2), ev = b.step((0, 0), cfg, (0.9, 0.9), (0.1, 0.1))
        assert (q1, q2) == (0, 0)
        assert not ev.attempt1 and not ev.attempt2
        assert not ev.success1 and not ev.departure1

    def test_successful_solo_departure(self):
        prof = SuccessProfile(1.0, 1.0, 1.0, 1.0)
        cfg = SimConfig(RatePoint(0.0, 0.0), generic_params(prof), horizon=100)
        (q1, q2), ev = b.step((1, 0), cfg, (0.9, 0.9), (0.5, 0.5))
        assert (q1, q2) == (0, 0)
        assert ev.attempt1 and ev.real1 and ev.success1 and ev.departure1
        assert not ev.attempt2

    def test_failure_keeps_packet_for_retransmission(self):
        prof = SuccessProfile(0.0, 0.0, 0.0, 0.0)
        cfg = SimConfig(RatePoint(0.0, 0.0), generic_params(prof), horizon=100)
        (q1, _), ev = b.step((3, 0), cfg, (0.9, 0.9), (0.5, 0.5))
        assert q1 == 3
        assert ev.attempt1 and not ev.success1 and not ev.departure1

    def test_same_slot_arrival_cannot_depart(self):
        prof = SuccessProfile(1.0, 1.0, 1.0, 1.0)
        cfg = SimConfig(RatePoint(1.0, 0.0), generic_params(prof), horizon=100)
        (q1, _), ev = b.step((0, 0), cfg, (0.0, 0.9), (0.5, 0.5))
        assert ev.arrival1 and not ev.attempt1
        assert q1 == 1

    def test_dummy_transmission_interferes_but_carries_nothing(self):
        cfg = SimConfig(RatePoint(0.0, 0.0), generic_params(), horizon=100,
                        dominant_mode="queue1")
        # queue 1 empty but forced to transmit: queue 2 sees the both-busy
        # success probability (0.5), and a dummy success is not a departure
        (q1, q2), ev = b.step((0, 1), cfg, (0.9, 0.9), (0.1, 0.45))
        assert ev.attempt1 and not ev.real1 and ev.success1 and not ev.departure1
        assert ev.success2 and ev.departure2
        assert (q1, q2) == (0, 0)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    @pytest.mark.parametrize("mode", ["none", "queue1", "queue2"])
    def test_step_matches_kernel(self, params, mode):
        """Repeated single-slot stepping reproduces the kernel trajectory and
        the success and departure counts run() derives from it."""
        for lam1, lam2 in KERNEL_LOADS:
            cfg = SimConfig(RatePoint(lam1, lam2), params, horizon=400, seed=97,
                            dominant_mode=mode)
            arr_u, chan = _draw_randomness(cfg)
            qtraj = kernel_run(_kernels.simulate_slots_py, cfg)
            state = (0, 0)
            attempts, successes, departures = np.zeros((3, 2), np.int64)
            for t in range(cfg.horizon):
                assert state == tuple(qtraj[:, t])
                state, ev = b.step(state, cfg, tuple(arr_u[t]), tuple(chan[t]))
                departures += (ev.departure1, ev.departure2)
                if t >= cfg.warmup:
                    attempts += (ev.attempt1, ev.attempt2)
                    successes += (ev.success1, ev.success2)
            assert state == tuple(qtraj[:, cfg.horizon])
            assert np.array_equal(kernel_run(_kernels.simulate_slots, cfg), qtraj)
            r = b.run(cfg)
            assert r.departures_total == tuple(departures.tolist())
            assert r.success_rate == tuple(
                s / a if a else 0.0 for s, a in zip(successes.tolist(), attempts.tolist())
            )


def vec_matches_loop(kernel_args):
    """Run the vectorised solver and the loop on the same inputs; return the solver's passes."""
    ref, _ = _kernels.simulate_slots_py(*kernel_args)
    qtraj, passes = _kernels.simulate_slots(*kernel_args)
    assert qtraj.shape == (2, kernel_args[0].shape[0] + 1)
    assert np.array_equal(qtraj, ref)
    return passes


class TestVectorisedSolver:
    @settings(deadline=None)
    @given(horizon=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           densities=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                              min_size=6, max_size=6),
           force1=st.booleans(), force2=st.booleans())
    def test_matches_loop_on_any_columns(self, horizon, seed, densities, force1, force2):
        """Arbitrary arrival and event columns, each with its own density."""
        cols = np.random.default_rng(seed).random((horizon, 6)) < np.array(densities)
        solo1, solo2, both1, both2 = cols[:, 2:].T
        vec_matches_loop((cols[:, :2], solo1, solo2, both1, both2, force1, force2))

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_matches_loop_near_frontier(self, params):
        """Coupled queues just inside, on and just outside the analytic frontier,
        where the Picard iteration needs the most passes."""
        reg = b.region_for_params(params)
        for angle in (10.0, 45.0, 80.0):
            bscale = b.boundary_scale(reg, angle)
            for factor in (0.95, 1.0, 1.05):
                point = RatePoint(factor * bscale * np.cos(np.radians(angle)),
                                  factor * bscale * np.sin(np.radians(angle)))
                cfg = SimConfig(point, params, horizon=20_000, seed=29)
                assert vec_matches_loop(_kernel_inputs(cfg)) is not None

    def test_converges_next_to_a_strongly_coupled_frontier(self):
        """Started from the all-busy column, the coupled solve converges in a
        few passes where a start from the empty column took 61 (seed 1) or hit
        the cap."""
        params = generic_params(SuccessProfile(0.9, 0.9, 0.05, 0.05))
        scale = 0.98 * b.boundary_scale(b.region_for_params(params), 45.0)
        point = RatePoint(scale * np.cos(np.radians(45.0)), scale * np.sin(np.radians(45.0)))
        cfg = SimConfig(point, params, horizon=200_000, seed=1)
        passes = vec_matches_loop(_kernel_inputs(cfg))
        assert passes is not None and passes <= 32

    @pytest.mark.parametrize("mode", ["none", "queue1", "queue2"])
    def test_pass_cap_falls_back_to_loop(self, monkeypatch, mode):
        monkeypatch.setattr(_kernels, "_MAX_PASSES", 1)
        for params in ALL_PARAMS:
            for lam1, lam2 in KERNEL_LOADS:
                cfg = SimConfig(RatePoint(lam1, lam2), params, horizon=5_000, seed=61,
                                dominant_mode=mode)
                passes = vec_matches_loop(_kernel_inputs(cfg))
                # coupled busy queues need a second pass to confirm the fixed point
                assert passes == (None if mode == "none" else 1)


# sha256 of run()'s trajectory and SimResult fields at RatePoint(0.4, 0.35),
# 20k slots, seed 41, recorded from the scheme-aware slot kernel that
# evaluated the decoding inequalities inline. Rows follow ALL_PARAMS.
PINNED_RUN_DIGESTS = [
    {"none": "cb83fbee753dbb8640fd220159cce7ad8689b211e5b8439d28d5d9512fa19d9f",
     "queue1": "c53892dd6076b50df7e3ab0304573d6fd2226e7fa009586b63d18823b5dcc52d",
     "queue2": "c0fb1399ec72c1646678d373b576378f0eeb4fed90679e32e6e98cc79381e7a2"},
    {"none": "6ee36d3346ee762bbf740d894017c25f019c801297d1bdf46f6761126db5e623",
     "queue1": "2ab68d64538f64931bafaf953c936be5b3b9f0d650cd8465b9807b54a24c6b08",
     "queue2": "e35198d36e09f0a509e8cc8f2170eb6b167127264a9b22933841f18c7a7de61f"},
    {"none": "597b68a2911d6ab6a9928faef2f8eb2aff886303fbfe3ff1b8c4636bb9034bad",
     "queue1": "9986cbec7268540a6763ca7174638ef02c7d1a5fb4d1f671addb3a650a669b31",
     "queue2": "fdf82dc776536080176349a61ab2bf39e413541faff7ebadf157a9077bf19458"},
    {"none": "9e9f0ff74f541c43c24f071833d6e72da9109be0a323430161964883e11c2e3c",
     "queue1": "84546db2dd13ae1da499f1622ad8f298bb27ddf930908db17318de3834afd7c4",
     "queue2": "66a502a626a0bc794245d1bf26e47d3d6ef86d94462dc2dac7154a2526907320"},
]


def run_digest(result):
    h = hashlib.sha256(result.trajectory.astype(np.int64).tobytes())
    fields = [(f.name, getattr(result, f.name)) for f in dataclasses.fields(result)
              if f.name not in ("config", "trajectory")]
    h.update(repr(fields).encode())
    return h.hexdigest()


@pytest.mark.parametrize("index", range(len(ALL_PARAMS)))
@pytest.mark.parametrize("mode", ["none", "queue1", "queue2"])
def test_run_matches_pinned_digest(index, mode):
    cfg = SimConfig(RatePoint(0.4, 0.35), ALL_PARAMS[index], horizon=20_000, seed=41,
                    dominant_mode=mode)
    assert run_digest(b.run(cfg, return_trajectory=True)) == PINNED_RUN_DIGESTS[index][mode]


class TestRunStatistics:
    def test_deterministic(self):
        cfg = SimConfig(RatePoint(0.3, 0.3), ALL_PARAMS[0], horizon=30_000, seed=5)
        assert b.run(cfg) == b.run(cfg)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_conservation(self, params):
        for seed in (1, 2):
            cfg = SimConfig(RatePoint(0.45, 0.4), params, horizon=25_000, seed=seed)
            r = b.run(cfg)
            for q in (0, 1):
                assert r.arrivals_total[q] == r.departures_total[q] + r.final_queue[q]

    def test_no_traffic(self):
        cfg = SimConfig(RatePoint(0.0, 0.0), ALL_PARAMS[0], horizon=20_000, seed=1)
        r = b.run(cfg)
        assert r.mean_queue == (0.0, 0.0)
        assert r.verdict == (Verdict.STABLE, Verdict.STABLE)
        assert r.empty_fraction == (1.0, 1.0)

    def test_dominance_with_common_random_numbers(self):
        """Dummy-packet queues are never shorter than the original ones."""
        for seed in range(8):
            params = ALL_PARAMS[seed % len(ALL_PARAMS)]
            base = b.run(SimConfig(RatePoint(0.3, 0.3), params, horizon=20_000, seed=seed),
                         return_trajectory=True)
            for mode in ("queue1", "queue2"):
                dom = b.run(SimConfig(RatePoint(0.3, 0.3), params, horizon=20_000,
                                      seed=seed, dominant_mode=mode),
                            return_trajectory=True)
                assert np.all(dom.trajectory >= base.trajectory)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_saturated_success_frequency_matches_profile(self, params):
        # overload both queues: post-warmup every slot is a both-busy slot,
        # so per-attempt success frequencies estimate the p_both entries
        prof = b.build_profile(params)
        cfg = SimConfig(RatePoint(0.9, 0.9), params, horizon=60_000, seed=23)
        r = b.run(cfg)
        n = cfg.horizon - cfg.warmup
        for rate, p in zip(r.success_rate, (prof.p1_both, prof.p2_both)):
            sigma = max(np.sqrt(p * (1 - p) / n), 1e-9)
            assert abs(rate - p) <= 3 * sigma

    def test_dominant_mode_reproduces_saturated_analysis(self):
        """Queue-1-dummy runs match the saturated-queue-1 closed forms."""
        lam2 = 0.25
        cfg = SimConfig(RatePoint(0.0, lam2), generic_params(), horizon=100_000,
                        seed=77, dominant_mode="queue1")
        r = b.run(cfg)
        mu1, mu2, empty = b.dominant_service_rates(GENERAL_PROFILE, "first", lam2)
        assert abs(r.empty_fraction[1] - empty) / empty < 0.02
        assert abs(r.success_rate[0] - mu1) / mu1 < 0.02
        assert abs(r.success_rate[1] - mu2) / mu2 < 0.02
        assert abs(r.departure_rate[1] - lam2) / lam2 < 0.02

    def test_divergence_rate_matches_saturated_drift(self):
        # past the corner both queues saturate and drift at lambda - p_both
        cfg = SimConfig(RatePoint(0.33, 0.55), generic_params(), horizon=200_000, seed=3)
        r = b.run(cfg)
        assert Verdict.UNSTABLE in r.verdict
        assert r.drift_slope[0] == pytest.approx(0.33 - 0.3, abs=0.02)
        assert r.drift_slope[1] == pytest.approx(0.55 - 0.5, abs=0.02)

    def test_run_batch_matches_sequential(self):
        cfgs = [SimConfig(RatePoint(0.2 + 0.05 * i, 0.2), ALL_PARAMS[0],
                          horizon=15_000, seed=i) for i in range(6)]
        seq = b.run_batch(cfgs)
        par = b.run_batch(cfgs, workers=3)
        assert seq == par

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(RatePoint(1.2, 0.0), ALL_PARAMS[0])
        with pytest.raises(InvalidParameterError):
            SimConfig(RatePoint(0.1, 0.1), ALL_PARAMS[0], horizon=1000, warmup=1000)


def polyfit_slope(series):
    """The reference drift slope: numpy's own degree-1 fit over the slot index."""
    return float(np.polyfit(np.arange(series.shape[0]), series, 1)[0])


def integer_series(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return np.zeros(n, dtype=np.int32)
    if kind == "constant":
        return np.full(n, rng.integers(1, 10**6), dtype=np.int32)
    if kind == "increasing":
        return np.cumsum(rng.integers(0, 3, n), dtype=np.int32)
    if kind == "decreasing":
        return np.cumsum(rng.integers(0, 3, n), dtype=np.int32)[::-1].copy()
    if kind == "queue":  # a reflected walk like a queue trajectory
        walk = np.cumsum(rng.integers(-1, 2, n)).astype(np.int32)
        return walk - np.minimum.accumulate(np.minimum(walk, 0))
    return rng.integers(-(2**31), 2**31 - 1, n, dtype=np.int64)


SERIES_KINDS = ["zeros", "constant", "increasing", "decreasing", "queue", "any"]


class TestFitSlope:
    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(SERIES_KINDS), n=st.integers(2, 50_000) | st.integers(2, 50),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_polyfit_bit_for_bit(self, kind, n, seed):
        series = integer_series(kind, n, seed)
        slope = _fit_slope(series)
        assert slope == polyfit_slope(series)
        assert repr(slope) == repr(polyfit_slope(series))

    @pytest.mark.parametrize("n", [18_000, 36_000, 90_000, sim._MAX_CACHED_FIT + 1])
    def test_matches_polyfit_at_run_lengths(self, n):
        """The post-warmup lengths of 20k, 40k and 100k-slot runs, and one
        fit too long for its design to be cached."""
        for kind in ("zeros", "increasing", "queue"):
            series = integer_series(kind, n, n)
            assert repr(_fit_slope(series)) == repr(polyfit_slope(series))

    def test_design_is_cached_read_only_and_bounded(self):
        sim._cached_slope_design.cache_clear()
        _fit_slope(np.arange(1000))
        lhs, _, _ = sim._cached_slope_design(1000)
        assert sim._cached_slope_design.cache_info().hits == 1
        assert not lhs.flags.writeable
        with pytest.raises(ValueError):
            lhs[0, 0] = 1.0
        # a design above the cap is built per call and never cached
        _fit_slope(np.zeros(sim._MAX_CACHED_FIT + 1, dtype=np.int32))
        assert sim._cached_slope_design.cache_info().currsize == 1
        _fit_slope(np.zeros(sim._MAX_CACHED_FIT, dtype=np.int32))
        info = sim._cached_slope_design.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert info.maxsize * sim._MAX_CACHED_FIT * 16 <= 32 * 2**20

    def test_warmup_leaves_two_slots(self):
        SimConfig(RatePoint(0.1, 0.1), ALL_PARAMS[0], horizon=10, warmup=8)
        with pytest.raises(InvalidParameterError, match="two slots"):
            SimConfig(RatePoint(0.1, 0.1), ALL_PARAMS[0], horizon=10, warmup=9)
        with pytest.raises(InvalidParameterError, match="two slots"):
            b.classify_stability(np.zeros(20_001), warmup=19_999)


def exact_slope(series):
    """The least-squares slope over the index as a Fraction, from Python ints."""
    y = series.tolist()
    n = len(y)
    sum_t, sum_tt = n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6
    num = n * sum(t * v for t, v in enumerate(y)) - sum_t * sum(y)
    return Fraction(num, n * sum_tt - sum_t * sum_t)


def verdict_series(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "drifting":  # a queue growing by about SLOPE_THRESHOLD per slot
        steps = rng.choice([-1, 0, 1], n, p=[0.2495, 0.5, 0.2505])
        walk = np.cumsum(steps).astype(np.int32)
        return walk - np.minimum.accumulate(np.minimum(walk, 0))
    if kind == "huge":  # sums that overflow int64
        return rng.integers(-(2**62), 2**62, n, dtype=np.int64)
    return integer_series(kind, n, seed)


THRESHOLD_CHOICES = ["default", "exact", "exact-ulp", "inside-band", "outside-band"]


def threshold_for(choice, slope):
    if choice == "default":
        return sim.SLOPE_THRESHOLD
    if choice == "exact":
        return slope
    if choice == "exact-ulp":
        return float(np.nextafter(slope, np.inf))
    if choice == "inside-band":
        return slope + 1e-7 * abs(slope)
    return slope + 1e-5 * max(abs(slope), 1e-3)


class TestClassifyExactSlope:
    @settings(deadline=None, max_examples=80)
    @given(kind=st.sampled_from([*SERIES_KINDS, "drifting", "huge"]),
           n=st.integers(10_001, 30_000), seed=st.integers(0, 2**32 - 1),
           choice=st.sampled_from(THRESHOLD_CHOICES), as_float=st.booleans())
    def test_matches_fitted_verdict(self, kind, n, seed, choice, as_float):
        """classify_stability gives the verdict of the fitted slope, also when
        the threshold sits on the exact slope or within the guard band."""
        traj = verdict_series(kind, n, seed)
        if as_float:
            traj = traj.astype(np.float64)
        warmup = n // 10
        threshold = threshold_for(choice, float(exact_slope(traj[warmup:n - 1].astype(np.int64))))
        fitted = _fit_slope(traj[warmup:n - 1])
        expected = sim._verdict(traj, warmup, fitted, threshold)
        assert b.classify_stability(traj, warmup, threshold) is expected

    @pytest.mark.parametrize("kind", ["zeros", "queue", "drifting", "increasing"])
    def test_fits_only_inside_the_guard_band(self, monkeypatch, kind):
        fits = []
        monkeypatch.setattr(sim, "_fit_slope", lambda series: fits.append(1) or _fit_slope(series))
        traj = verdict_series(kind, 20_001, 5)
        slope = float(exact_slope(traj[2000:20_000]))
        for choice, fitted in (("exact", True), ("inside-band", True), ("outside-band", False)):
            fits.clear()
            b.classify_stability(traj, 2000, threshold_for(choice, slope))
            assert len(fits) == fitted
        fits.clear()
        b.classify_stability(traj.astype(np.float64), 2000)
        b.classify_stability(verdict_series("huge", 20_001, 5), 2000)
        assert len(fits) == 2

    @pytest.mark.parametrize("params", ALL_PARAMS)
    @pytest.mark.parametrize("horizon", [5_000, 20_000])
    def test_probe_verdict_matches_run(self, params, horizon):
        """The boundary search's verdict-only probe agrees with run()."""
        for lam in ((0.2, 0.2), (0.4, 0.35), (0.6, 0.6), (0.05, 0.7), (0.7, 0.05)):
            cfg = SimConfig(RatePoint(*lam), params, horizon=horizon, seed=17)
            assert sim._system_verdict_of(cfg) is b.system_verdict(b.run(cfg).verdict)


class TestClassify:
    def test_linear_growth_is_unstable(self):
        traj = np.arange(20_001)
        assert b.classify_stability(traj, warmup=2000) is Verdict.UNSTABLE

    def test_identically_zero_is_stable(self):
        traj = np.zeros(20_001, dtype=np.int64)
        assert b.classify_stability(traj, warmup=2000) is Verdict.STABLE

    def test_flat_but_never_empty_is_inconclusive(self):
        traj = np.full(20_001, 50, dtype=np.int64)
        assert b.classify_stability(traj, warmup=2000) is Verdict.INCONCLUSIVE

    def test_short_horizon_rejected(self):
        with pytest.raises(InvalidParameterError):
            b.classify_stability(np.zeros(5001), warmup=500)

    def test_system_verdict_priority(self):
        assert b.system_verdict((Verdict.STABLE, Verdict.STABLE)) is Verdict.STABLE
        assert b.system_verdict((Verdict.STABLE, Verdict.UNSTABLE)) is Verdict.UNSTABLE
        assert b.system_verdict((Verdict.INCONCLUSIVE, Verdict.UNSTABLE)) is Verdict.UNSTABLE
        assert b.system_verdict((Verdict.STABLE, Verdict.INCONCLUSIVE)) is Verdict.INCONCLUSIVE


# repr(estimate_boundary(params, angle, steps=8, horizon=40_000, seed=seed)),
# recorded before probes skipped run()'s statistics and before the coupled
# solve started from the all-busy column; rows follow ALL_PARAMS, then the
# strongly coupled generic profile on two rays.
PINNED_BOUNDARIES = [
    (0, 30.0, 5, "RatePoint(lambda1=0.43945312499999994, lambda2=0.25371838001497216)"),
    (1, 45.0, 6, "RatePoint(lambda1=0.365234375, lambda2=0.36523437499999994)"),
    (2, 60.0, 7, "RatePoint(lambda1=0.3732479279331371, lambda2=0.6464843750000001)"),
    (3, 45.0, 8, "RatePoint(lambda1=0.41210937500000006, lambda2=0.412109375)"),
    (None, 45.0, 9, "RatePoint(lambda1=0.052734375, lambda2=0.052734374999999986)"),
    (None, 20.0, 10, "RatePoint(lambda1=0.115234375, lambda2=0.04194188246426941)"),
]


@pytest.mark.parametrize("index, angle, seed, expected", PINNED_BOUNDARIES)
def test_estimate_boundary_matches_pinned(index, angle, seed, expected):
    params = (ALL_PARAMS[index] if index is not None
              else generic_params(SuccessProfile(0.9, 0.9, 0.05, 0.05)))
    point = b.estimate_boundary(params, angle, steps=8, horizon=40_000, seed=seed)
    assert repr(point) == expected


class TestEstimateBoundary:
    def test_rectangle_diagonal(self):
        params = generic_params(SuccessProfile(0.5, 0.5, 0.5, 0.5))
        pt = b.estimate_boundary(params, 45.0, steps=12, seed=19)
        assert pt.lambda1 == pytest.approx(0.5, abs=0.02)
        assert pt.lambda2 == pytest.approx(0.5, abs=0.02)

    def test_axis_ray_finds_solo_rate(self):
        pt = b.estimate_boundary(generic_params(), 0.0, steps=12, seed=19)
        assert pt.lambda1 == pytest.approx(0.9, abs=0.02)
        assert pt.lambda2 == 0.0

    def test_corner_ray(self):
        angle = np.degrees(np.arctan2(0.5, 0.3))
        pt = b.estimate_boundary(generic_params(), float(angle), steps=12, seed=19)
        assert pt.lambda1 == pytest.approx(0.3, abs=0.03)
        assert pt.lambda2 == pytest.approx(0.5, abs=0.03)

    def test_unbracketable_region_reports_failure(self):
        # with every transmission succeeding the system is stable at any
        # feasible Bernoulli rate, so no unstable bracket exists
        params = generic_params(SuccessProfile(1.0, 1.0, 1.0, 1.0))
        with pytest.raises(EstimationFailureError):
            b.estimate_boundary(params, 45.0, steps=8, horizon=20_000, seed=1)

    def test_argument_validation(self):
        with pytest.raises(InvalidParameterError):
            b.estimate_boundary(generic_params(), 95.0, steps=12)
        with pytest.raises(InvalidParameterError):
            b.estimate_boundary(generic_params(), 45.0, steps=4)
