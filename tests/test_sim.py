"""Slot simulator: dynamics, statistics, dominance, boundary estimation."""

import dataclasses
import hashlib
import tracemalloc
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
from bcstab.channel import Decoding, success_events
from bcstab.sim import _kernel_inputs

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


def whole_array_draw(cfg):
    """The reference draw of a run's randomness: ``(horizon, 2)`` arrival
    uniforms, then as many channel draws, from one generator of the seed."""
    rng = np.random.default_rng(cfg.seed)
    arr_u = rng.random((cfg.horizon, 2))
    if cfg.params.decoding is Decoding.GENERIC:
        chan = rng.random((cfg.horizon, 2))
    else:
        chan = rng.standard_exponential((cfg.horizon, 2))
    return arr_u, chan


def whole_array_inputs(cfg):
    """The kernel inputs formed from whole_array_draw, as _kernel_inputs must form them."""
    arr_u, chan = whole_array_draw(cfg)
    arrivals = arr_u < np.array([cfg.arrivals.lambda1, cfg.arrivals.lambda2])
    return (arrivals, *success_events(cfg.params, chan[:, 0], chan[:, 1]), *sim._forced(cfg))


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
            arr_u, chan = whole_array_draw(cfg)
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


class TestKernelInputs:
    @pytest.mark.parametrize("params", [ALL_PARAMS[0], ALL_PARAMS[1], ALL_PARAMS[3]],
                             ids=["ian", "sc", "generic"])
    @pytest.mark.parametrize("horizon", [10, sim._DRAW_BLOCK - 1, sim._DRAW_BLOCK,
                                         sim._DRAW_BLOCK + 1, 2 * sim._DRAW_BLOCK + 1])
    def test_blocks_match_whole_array_draw(self, params, horizon):
        """The blocked producer gives the whole-array draw's flags bit for bit,
        in every dominant mode, also across block edges."""
        for mode in ("none", "queue1", "queue2"):
            cfg = SimConfig(RatePoint(0.35, 0.3), params, horizon=horizon, seed=horizon + 3,
                            dominant_mode=mode)
            blocked, whole = _kernel_inputs(cfg), whole_array_inputs(cfg)
            assert len(blocked) == len(whole) == 7
            for got, want in zip(blocked[:5], whole[:5]):
                assert got.dtype == want.dtype == np.bool_
                assert got.shape == want.shape
                assert np.array_equal(got, want)
            assert blocked[5:] == whole[5:]

    def test_peak_memory_is_the_flags_plus_two_blocks(self):
        """At 1M slots the producer keeps 6 bytes per slot of flags; the rest
        of its peak (2.3 blocks) is the two block buffers and one block's
        temporaries. The whole-array draw peaks at 38 bytes per slot here."""
        horizon = 1_000_000
        cfg = SimConfig(RatePoint(0.35, 0.3), ALL_PARAMS[0], horizon=horizon, seed=5)
        _kernel_inputs(SimConfig(RatePoint(0.35, 0.3), ALL_PARAMS[0], horizon=10))  # thresholds
        block_bytes = sim._DRAW_BLOCK * 2 * 8
        tracemalloc.start()
        try:
            inputs = _kernel_inputs(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in inputs[:5]) == 6 * horizon
        assert 6 * horizon <= peak <= 6 * horizon + 3 * block_bytes


def vec_matches_loop(kernel_args, start=None):
    """Run the vectorised solver from ``start`` and the loop on the same inputs;
    return the solver's passes."""
    ref, _ = _kernels.simulate_slots_py(*kernel_args)
    qtraj, passes = _kernels.simulate_slots(*kernel_args, start=start)
    assert qtraj.shape == (2, kernel_args[0].shape[0] + 1)
    assert np.array_equal(qtraj, ref)
    return passes


class TestVectorisedSolver:
    @settings(deadline=None)
    @given(horizon=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           densities=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                              min_size=6, max_size=6),
           force1=st.booleans(), force2=st.booleans(),
           start_density=st.none() | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    def test_matches_loop_on_any_columns(self, horizon, seed, densities, force1, force2,
                                         start_density):
        """Arbitrary arrival and event columns, each with its own density, and
        an arbitrary start column for queue 2; None starts all-busy."""
        rng = np.random.default_rng(seed)
        cols = rng.random((horizon, 6)) < np.array(densities)
        start = None if start_density is None else rng.random(horizon) < start_density
        solo1, solo2, both1, both2 = cols[:, 2:].T
        args = (cols[:, :2], solo1, solo2, both1, both2, force1, force2)
        passes = vec_matches_loop(args, start)
        if start is None:
            assert passes == vec_matches_loop(args, np.ones(horizon, dtype=bool))

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
# 20k slots, seed 41. The trajectory and every field but drift_slope were
# recorded from the scheme-aware slot kernel that evaluated the decoding
# inequalities inline; drift_slope is the exact least-squares slope, which
# moved only its last bits from polyfit's. Rows follow ALL_PARAMS.
PINNED_RUN_DIGESTS = [
    {"none": "b90cd0aabb96ae91cf3a4fa1d654c31db693870e31157d4f508f4454d1f2e9f6",
     "queue1": "060cd33119c420f24d97c717df4bb7e564c9226e03c19970b034f95c8dcef51a",
     "queue2": "610573ee74c0e4d8592b0fa99f42f4eccaf7f8fa464cccc313925038f8aa0e73"},
    {"none": "1ef8cf12033ba468a25683cb071bdb07ad3667d3b16f9196c0f4d6ff6a1e11ca",
     "queue1": "5737cf0d870f19e817a9f8ad1077e56a46f60e035b088b0b118390e13ec0c6f4",
     "queue2": "c6ef39d5bd696f7d23cb38724216bb527d27f796cb26a2ec9972abeb98773203"},
    {"none": "e473f237b015daff6ad9ca1d111a7c657e089b29617755fe5544177ffd677c1a",
     "queue1": "78e1c796f00f055a07d68bf7576bf98ef27950099c3b6d8f7748d6c1a07ba4e5",
     "queue2": "17d226297686d09148e8cab74fd9b47cda172c7d85465708f7f5d56cc05bdeb4"},
    {"none": "ba88947ed488a0ca205fb9007cba86ec9084e872e08b7e4eaf169076ead5b4e6",
     "queue1": "f8daeeb0f43c0320fcce32f567dae62859facba965e7067e0952677d4f2f4cd9",
     "queue2": "7f80c8cf1b4522fcc7a43ae1025197165b14f23bb3fe5d24120300cc71284b7f"},
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
        # numpy's generators take no negative seed
        with pytest.raises(InvalidParameterError, match="seed"):
            SimConfig(RatePoint(0.1, 0.1), ALL_PARAMS[0], seed=-1)


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
    if kind == "ceiling":  # the largest queue lengths a trajectory may hold
        return (sim.MAX_HORIZON - rng.integers(0, 3, n)).astype(np.int64)
    if kind == "block-limit":  # the largest values whose block sums stay in int64
        return (2**63 // sim._SLOPE_BLOCK**2 - 1 - rng.integers(0, 3, n)).astype(np.int64)
    return integer_series(kind, n, seed)


class TestFitSlope:
    @settings(deadline=None, max_examples=80)
    @given(kind=st.sampled_from([*SERIES_KINDS, "ceiling"]),
           n=st.integers(2, 50_000) | st.integers(2, 50), seed=st.integers(0, 2**32 - 1))
    def test_matches_exact_fraction(self, kind, n, seed):
        series = verdict_series(kind, n, seed)
        assert sim._drift_slope(series) == float(exact_slope(series))

    @pytest.mark.parametrize("n", [sim._SLOPE_BLOCK - 1, sim._SLOPE_BLOCK, sim._SLOPE_BLOCK + 1,
                                   2 * sim._SLOPE_BLOCK + 3])
    @pytest.mark.parametrize("kind", ["queue", "block-limit"])
    def test_exact_at_block_edges(self, n, kind):
        """Across block edges, also with values whose unblocked sums overflow int64."""
        series = verdict_series(kind, n, n)
        slope = float(exact_slope(series))
        assert sim._drift_slope(series) == slope
        assert sim._drift_slope(series.astype(np.uint64)) == slope

    @pytest.mark.parametrize("n", [18_000, 36_000, 90_000, 1_000_001])
    def test_matches_polyfit_at_run_lengths(self, n):
        """At the post-warmup lengths of 20k, 40k and 100k-slot runs, and one
        longer than a slope block, the exact slope agrees with numpy's own
        least-squares fit of the same values to within its rounding."""
        for kind in ("zeros", "increasing", "queue"):
            series = integer_series(kind, n, n)
            expected = polyfit_slope(series.astype(np.float64))
            assert sim._drift_slope(series) == pytest.approx(expected, rel=1e-12, abs=1e-18)

    def test_warmup_leaves_two_slots(self):
        SimConfig(RatePoint(0.1, 0.1), ALL_PARAMS[0], horizon=10, warmup=8)
        with pytest.raises(InvalidParameterError, match="two slots"):
            SimConfig(RatePoint(0.1, 0.1), ALL_PARAMS[0], horizon=10, warmup=9)
        with pytest.raises(InvalidParameterError, match="two slots"):
            b.classify_stability(np.zeros(20_001), warmup=19_999)


@pytest.mark.parametrize("index", range(len(ALL_PARAMS)))
@pytest.mark.parametrize("mode", ["none", "queue1", "queue2"])
def test_run_reports_exact_slope(index, mode):
    cfg = SimConfig(RatePoint(0.4, 0.35), ALL_PARAMS[index], horizon=20_000, seed=41,
                    dominant_mode=mode)
    r = b.run(cfg, return_trajectory=True)
    post = r.trajectory[cfg.warmup:cfg.horizon]
    assert r.drift_slope == (float(exact_slope(post[:, 0])), float(exact_slope(post[:, 1])))


THRESHOLD_CHOICES = ["default", "exact", "ulp-below", "ulp-above"]


def threshold_for(choice, slope):
    if choice == "default":
        return sim.SLOPE_THRESHOLD
    if choice == "exact":
        return slope
    return float(np.nextafter(slope, -np.inf if choice == "ulp-below" else np.inf))


class TestClassifyExactSlope:
    @settings(deadline=None, max_examples=80)
    @given(kind=st.sampled_from(["zeros", "constant", "increasing", "decreasing", "queue",
                                 "drifting", "ceiling"]),
           n=st.integers(10_001, 30_000), seed=st.integers(0, 2**32 - 1),
           choice=st.sampled_from(THRESHOLD_CHOICES))
    def test_matches_fitted_verdict(self, kind, n, seed, choice):
        """classify_stability judges a trajectory by its exact slope, also
        when the threshold sits on that slope or one ulp from it."""
        traj = verdict_series(kind, n, seed)
        warmup = n // 10
        slope = float(exact_slope(traj[warmup:n - 1]))
        threshold = threshold_for(choice, slope)
        expected = sim._verdict(traj, warmup, slope, threshold)
        assert b.classify_stability(traj, warmup, threshold) is expected

    @pytest.mark.parametrize("traj", [
        np.zeros(20_001),
        np.full(20_001, -1, dtype=np.int64),
        np.full(20_001, sim.MAX_HORIZON + 1, dtype=np.int64),
        np.zeros(20_001, dtype=bool),
    ], ids=["float", "negative", "above-max-horizon", "bool"])
    def test_rejects_values_no_queue_holds(self, traj):
        """A trajectory counts packets: integers in [0, MAX_HORIZON] only."""
        with pytest.raises(InvalidParameterError, match="integers in"):
            b.classify_stability(traj, warmup=2000)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    @pytest.mark.parametrize("horizon", [5_000, 20_000])
    def test_probe_verdict_matches_run(self, params, horizon):
        """The verdicts a boundary probe and run() get from ``_solve`` are
        classify_stability's on each queue of run()'s trajectory, and
        inconclusive below the 10000 slots classify_stability needs."""
        for lam in ((0.2, 0.2), (0.4, 0.35), (0.6, 0.6), (0.05, 0.7), (0.7, 0.05)):
            cfg = SimConfig(RatePoint(*lam), params, horizon=horizon, seed=17)
            verdicts = sim._solve(cfg)[3]
            if horizon < 10_000:
                assert verdicts == (Verdict.INCONCLUSIVE, Verdict.INCONCLUSIVE)
            else:
                trajectory = b.run(cfg, return_trajectory=True).trajectory
                assert verdicts == tuple(b.classify_stability(column, cfg.warmup)
                                         for column in trajectory.T)

    @pytest.mark.parametrize("mode", ["none", "queue1", "queue2"])
    def test_short_run_is_inconclusive(self, mode):
        """Below 10000 slots every verdict is inconclusive, even for a queue
        that grows in every slot."""
        cfg = SimConfig(RatePoint(0.9, 0.9), ALL_PARAMS[0], horizon=9_999, seed=2,
                        dominant_mode=mode)
        result = b.run(cfg)
        assert result.verdict == (Verdict.INCONCLUSIVE, Verdict.INCONCLUSIVE)
        assert min(result.drift_slope) > sim.SLOPE_THRESHOLD


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

    def test_two_queue_trajectory_rejected(self):
        # run() returns both queues' trajectories; a verdict judges one
        cfg = SimConfig(RatePoint(0.2, 0.2), ALL_PARAMS[0], horizon=20_000, seed=3)
        r = b.run(cfg, return_trajectory=True)
        with pytest.raises(InvalidParameterError, match=r"\(20001, 2\).*trajectory\[:, 0\]"):
            b.classify_stability(r.trajectory, cfg.warmup)
        assert b.classify_stability(r.trajectory[:, 0], cfg.warmup) is r.verdict[0]

    def test_system_verdict_priority(self):
        assert b.system_verdict((Verdict.STABLE, Verdict.STABLE)) is Verdict.STABLE
        assert b.system_verdict((Verdict.STABLE, Verdict.UNSTABLE)) is Verdict.UNSTABLE
        assert b.system_verdict((Verdict.INCONCLUSIVE, Verdict.UNSTABLE)) is Verdict.UNSTABLE
        assert b.system_verdict((Verdict.STABLE, Verdict.INCONCLUSIVE)) is Verdict.INCONCLUSIVE


# repr(estimate_boundary(params, angle, steps=8, horizon=40_000, seed=seed)),
# recorded with one sample path per ray: every probe is the run at the ray's
# seed, on the success events the first probe drew, and its coupled solve
# starts from queue 2's busy column at the nearest non-stable probe above.
# Rows follow ALL_PARAMS, then the strongly coupled generic profile on two
# rays.
PINNED_BOUNDARIES = [
    (0, 30.0, 5, "RatePoint(lambda1=0.44335937499999994, lambda2=0.2559736545039941)"),
    (1, 45.0, 6, "RatePoint(lambda1=0.365234375, lambda2=0.36523437499999994)"),
    (2, 60.0, 7, "RatePoint(lambda1=0.3732479279331371, lambda2=0.6464843750000001)"),
    (3, 45.0, 8, "RatePoint(lambda1=0.408203125, lambda2=0.40820312499999994)"),
    (None, 45.0, 9, "RatePoint(lambda1=0.05664062499999999, lambda2=0.05664062499999998)"),
    (None, 20.0, 10, "RatePoint(lambda1=0.130859375, lambda2=0.04762891737467882)"),
]


def pinned_ray_params(index):
    return (ALL_PARAMS[index] if index is not None
            else generic_params(SuccessProfile(0.9, 0.9, 0.05, 0.05)))


@pytest.mark.parametrize("index, angle, seed, expected", PINNED_BOUNDARIES)
def test_estimate_boundary_matches_pinned(index, angle, seed, expected):
    point = b.estimate_boundary(pinned_ray_params(index), angle, steps=8, horizon=40_000, seed=seed)
    assert repr(point) == expected


@pytest.mark.parametrize("index, angle, seed, expected", PINNED_BOUNDARIES)
def test_probes_equal_runs(monkeypatch, index, angle, seed, expected):
    """Each probe of a pinned ray gives run()'s slopes, verdicts and
    trajectory at the ray's seed, though only the first draws the channel;
    each retry gives them at its own seed, on fresh draws."""
    probes = []
    solve = sim._solve

    def recorded(config, events=None, start=None):
        out = solve(config, events, start)
        probes.append((config, events is None, start is None, out))
        return out

    monkeypatch.setattr(sim, "_solve", recorded)
    point = b.estimate_boundary(pinned_ray_params(index), angle, steps=8,
                                horizon=40_000, seed=seed)
    monkeypatch.undo()  # run() below solves through the real _solve
    assert repr(point) == expected
    numbers = iter([0, *range(4, 4 + 8)])
    retries = 0
    for n, (config, fresh, cold, (_, q, slopes, verdicts)) in enumerate(probes):
        if config.seed == seed:
            k = next(numbers)
            assert fresh is (n == 0) and cold is (n == 0)
        else:
            retries += 1
            assert config.seed == seed + 7919 * k + 13
            assert b.system_verdict(probes[n - 1][3][3]) is Verdict.INCONCLUSIVE
            assert fresh and cold
        result = b.run(config, return_trajectory=True)
        assert (slopes, verdicts) == (result.drift_slope, result.verdict)
        assert np.array_equal(q.T, result.trajectory)
    assert next(numbers, None) is None
    assert len(probes) == 9 + retries


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
