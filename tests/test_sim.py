"""Slot simulator: dynamics, statistics, dominance, boundary estimation."""

import dataclasses
import hashlib

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
from bcstab import _kernels
from bcstab.sim import _draw_randomness, _kernel_inputs

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
