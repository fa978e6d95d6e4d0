"""Slot simulator: dynamics, statistics, dominance, boundary estimation."""

import collections
import dataclasses
import hashlib
import math
import multiprocessing
import os
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

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


def solver_run(cfg):
    """Each queue's lengths after each slot, from the solver on the config's
    randomness, in its layout."""
    return _kernels.simulate_slots(*_kernel_inputs([cfg]), horizon=cfg.horizon)[0][0]


def in_layout(q):
    """Slot-major ``(..., horizon + 1)`` slot-start lengths, as the slot loop
    returns them, in the solver's layout: each slot's length after it, the
    pads the final length, and the busy columns, False in the pads."""
    return _kernels.block_major(q[..., 1:], q[..., -1:]), _kernels.block_major(q[..., :-1] > 0)


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
    """The kernel inputs formed from whole_array_draw, as _kernel_inputs must form them
    for a batch of one run: a dummy queue always transmits, so its partner's
    solo column is its shared-slot one."""
    arr_u, chan = whole_array_draw(cfg)
    arrivals = arr_u < np.array([cfg.arrivals.lambda1, cfg.arrivals.lambda2])
    solo1, solo2, both1, both2 = success_events(cfg.params, chan[:, 0], chan[:, 1])
    if cfg.dominant_mode is DominantMode.QUEUE1_DUMMY:
        solo2 = both2
    elif cfg.dominant_mode is DominantMode.QUEUE2_DUMMY:
        solo1 = both1
    return arrivals.T[None], solo1, solo2, both1, both2


@pytest.fixture
def event_draws(monkeypatch):
    """The ``(params, horizon, seed)`` of every draw of a path's success
    events (``sim._channel_events``) made while the test runs."""
    draws = []
    draw = sim._channel_events

    def counted(params, horizon, seed):
        draws.append((params, horizon, seed))
        return draw(params, horizon, seed)

    monkeypatch.setattr(sim, "_channel_events", counted)
    return draws


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
            qtraj = _kernels.simulate_slots_py(*whole_array_inputs(cfg))[0][0]
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
            assert np.array_equal(solver_run(cfg), in_layout(qtraj)[0])
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
        """The blocked producer and the held path both give the whole-array
        draw's flags bit for bit, in the solver's layout, in every dominant
        mode, also across draw blocks and with a partial last scan block;
        the held uniforms are read-only, and their pads hold no arrival."""
        uniforms = sim._arrival_uniforms(horizon, horizon + 3)
        blocks = _kernels.blocks_of(horizon)
        assert uniforms.shape == (2, 16, blocks) and uniforms.dtype == np.float64
        drawn = np.random.default_rng(horizon + 3).random((horizon, 2)).T
        assert np.array_equal(uniforms, _kernels.block_major(drawn, 1.0))
        assert not uniforms.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            uniforms[0, 0] = 0.5
        path = (sim._channel_events(params, horizon, horizon + 3), uniforms)
        for mode in ("none", "queue1", "queue2"):
            cfg = SimConfig(RatePoint(0.35, 0.3), params, horizon=horizon, seed=horizon + 3,
                            dominant_mode=mode)
            whole = [_kernels.block_major(line) for line in whole_array_inputs(cfg)]
            for inputs in (_kernel_inputs([cfg]), _kernel_inputs([cfg], path)):
                assert len(inputs) == len(whole) == 5
                for got, want in zip(inputs, whole):
                    assert got.dtype == want.dtype == np.bool_
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)

    def test_peak_memory_is_the_path_plus_three_blocks(self):
        """At 1M slots the producer returns 6 bytes per slot of flags and
        events, and peaks at its path and flags: 16 bytes per slot of
        arrival uniforms, dropped when it returns, 4 of events and 2 of
        flags. While the path is drawn, three block buffers are alive: each
        stream's draws, since a helper thread draws the events while this
        thread draws the uniforms, and the events' contiguous copy of its
        block, with one block's event temporaries. The whole-array draw
        peaks at 38 bytes per slot here."""
        horizon = 1_000_000
        cfg = SimConfig(RatePoint(0.35, 0.3), ALL_PARAMS[0], horizon=horizon, seed=5)
        _kernel_inputs([SimConfig(RatePoint(0.35, 0.3), ALL_PARAMS[0], horizon=10)])  # thresholds
        block_bytes = sim._DRAW_BLOCK * 2 * 8
        tracemalloc.start()
        try:
            inputs = _kernel_inputs([cfg])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in inputs[:5]) == 6 * horizon
        assert 22 * horizon <= peak <= 22 * horizon + 4 * block_bytes

    def test_peak_memory_of_a_lone_run_is_its_solve(self):
        """A lone run drops its path's arrival uniforms once it has its
        flags, before it is solved: a 1M-slot coupled run (adaptive SC)
        peaks at 22 bytes per slot while it draws (the path and the flags),
        and its solve at 21.5: 6 of flags and events, and, when the solver
        writes each queue's lengths at the fixed point, 8 of int32 lengths
        in its layout, 2 of busy columns and 4.5 of both queues' last solves
        (per queue an int8 length, a busy column and a quarter byte of int32
        excess). A run that kept its uniforms through the solve would peak
        near 37.5."""
        horizon = 1_000_000
        cfg = SimConfig(RatePoint(0.35, 0.3), ALL_PARAMS[2], horizon=horizon, seed=5)
        b.run(SimConfig(RatePoint(0.35, 0.3), ALL_PARAMS[2], horizon=10_000))  # thresholds
        tracemalloc.start()
        try:
            b.run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 22 * horizon + 4 * sim._DRAW_BLOCK * 2 * 8

    def test_peak_memory_of_a_ray_holds_its_uniforms(self, event_draws):
        """A 1M-slot ray holds, between probes, 16 bytes per slot of arrival
        uniforms, 4 of its path's success events and 1 of queue 2's busy
        column at the last non-stable probe, the next probe's start (21). A
        probe on a coupled profile (adaptive SC) adds 2 of arrival flags,
        and peaks when the solver writes its lengths at the fixed point: 4.5
        of both queues' last solves (per queue an int8 length, a busy column
        and a quarter byte of int32 excess), 8 of int32 lengths in its
        layout and 2 of busy columns (16.5), so the ray peaks at 37.5 bytes
        per slot. Its passes peak below that: they hold flip columns, the
        shifted arrivals and the scan's int8 buffers, but no lengths. When
        the ray returns nothing of its path is left."""
        horizon = 1_000_000
        params = ALL_PARAMS[2]
        b.estimate_boundary(params, 45.0, steps=8, horizon=10_000, seed=3)  # thresholds
        event_draws.clear()
        tracemalloc.start()
        try:
            b.estimate_boundary(params, 45.0, steps=8, horizon=horizon, seed=3)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert event_draws == [(params, horizon, 3)]  # one path: no probe was retried
        block_bytes = sim._DRAW_BLOCK * 2 * 8
        assert 37.5 * horizon <= peak <= 37.5 * horizon + 3 * block_bytes
        assert current <= block_bytes

    def test_peak_memory_of_a_sweep_is_its_path_and_a_batch(self):
        """A 7x7 grid of 20k-slot runs on one path holds its path, 20 bytes
        per slot (16 of arrival uniforms, 4 of success events), and solves
        its cells a rank of a strip at a time: one strip of 7 columns here,
        so at most 7 runs per batch. A batch stays under 32 bytes per
        slot-row: 2 of arrival flags, 8 of int32 lengths, 1 of the busy column
        its strip holds for the next rank, 2 of shifted arrival flags, 2 of
        busy columns, 4.5 of both queues' last solves, up to 5 of the next
        solve's service column and scan buffers, and more while the rows
        still working are copied out of a batch whose other rows converged;
        at 20k slots it measured 23 bytes per slot-row. This holds through
        ``run_batch`` and, without the statistics, through
        ``batch_verdicts``."""
        horizon = 20_000
        cfgs = [SimConfig(RatePoint(l1, l2), ALL_PARAMS[3], horizon=horizon, seed=6)
                for l1 in np.linspace(0.0, 0.6, 7) for l2 in np.linspace(0.0, 0.6, 7)]
        assert sim._BATCH_SLOTS // horizon >= 7  # one strip
        b.run_batch(cfgs[:2])  # thresholds
        for entry in (b.run_batch, b.batch_verdicts):
            tracemalloc.start()
            try:
                entry(cfgs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert 20 * horizon <= peak <= 20 * horizon + 32 * 7 * horizon, entry

    def test_held_events_are_read_only(self):
        """A held path's four event columns are read-only, and a run on the
        path uses views of them."""
        cfg = SimConfig(RatePoint(0.35, 0.3), ALL_PARAMS[1], horizon=1_000, seed=4)
        path = (sim._channel_events(cfg.params, cfg.horizon, cfg.seed),
                sim._arrival_uniforms(cfg.horizon, cfg.seed))
        events = path[0]
        assert events.shape == (4, 16, _kernels.blocks_of(cfg.horizon))
        assert events.dtype == np.bool_
        assert not events.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            events[0, 0, 0] = not events[0, 0, 0]
        assert all(np.shares_memory(column, events) for column in _kernel_inputs([cfg], path)[1:5])


def run_in_child(cfg, connection):
    """Send whether a call submitted to the helper in this forked child
    starts on a helper thread, which a helper copied from the parent never
    does, and then ``run(cfg)``."""
    started = threading.Event()
    sim._helper.submit(started.set)
    connection.send((started.wait(10), b.run(cfg)))
    connection.close()


class DrawFailed(Exception):
    pass


class TestDrawHelper:
    """A path's success events are drawn on a helper thread while the
    caller draws its arrival uniforms (``sim._path``)."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_runs(self):
        """A child forked after the helper has drawn here draws on a helper
        thread of its own, not on its parent's copied one, which it does not
        have, and gets the same result."""
        cfg = SimConfig(RatePoint(0.3, 0.2), ALL_PARAMS[1], horizon=20_000, seed=3,
                        dominant_mode="queue1")
        expected = b.run(cfg)  # the helper has a thread, idle, in this process
        context = multiprocessing.get_context("fork")
        received, sent = context.Pipe(duplex=False)
        child = context.Process(target=run_in_child, args=(cfg, sent))
        child.start()
        try:
            assert received.poll(30), "run() in a forked child did not return"
            assert received.recv() == (True, expected)
        finally:
            child.kill()
            child.join()

    def test_a_busy_helper_does_not_hold_up_a_draw(self):
        """With every helper thread busy, a run takes its event draw back
        and makes it itself: it returns while they are still busy."""
        cfg = SimConfig(RatePoint(0.3, 0.2), ALL_PARAMS[0], horizon=20_000, seed=5)
        expected = b.run(cfg)
        release = threading.Event()
        busy = [sim._helper.submit(release.wait, 5) for _ in range(sim._helper._max_workers)]
        try:
            assert b.run(cfg) == expected
            assert not any(future.done() for future in busy)
        finally:
            release.set()
            assert all(future.result() for future in busy)

    @staticmethod
    def path_draws(cfg):
        """Each call that draws a path, with the draw its helper makes and
        the one it makes itself: a lone run, a batch's lone config, a ray
        and a batch's configs that share a path all draw it by ``_path``."""
        def ray():
            return b.estimate_boundary(cfg.params, 45.0, steps=8, horizon=cfg.horizon,
                                       seed=cfg.seed)

        calls = [lambda: b.run(cfg), lambda: b.run_batch([cfg]), ray,
                 lambda: b.run_batch([cfg, cfg])]
        return [(call, "_channel_events", "_arrival_uniforms") for call in calls]

    def test_a_failed_helper_draw_raises_in_the_caller(self, monkeypatch):
        """What the helper's draw raises, each call that draws a path raises."""
        def failing(*args):
            raise DrawFailed(args[-1])

        cfg = SimConfig(RatePoint(0.3, 0.2), ALL_PARAMS[1], horizon=10_000, seed=4)
        for call, helped, _ in self.path_draws(cfg):
            with monkeypatch.context() as patched:
                patched.setattr(sim, helped, failing)
                with pytest.raises(DrawFailed, match="4"):
                    call()

    def test_no_helper_draw_outlives_a_failed_call(self, monkeypatch):
        """When the caller's own draw raises after the helper's draw has
        started, the call raises only once that draw has finished."""
        started = threading.Event()
        running = []

        def slow(*args):
            running.append(args)
            started.set()
            time.sleep(0.05)
            running.remove(args)
            return np.zeros((4, args[-2]))

        def failing(*args):
            assert started.wait(10)
            raise DrawFailed("own draw")

        cfg = SimConfig(RatePoint(0.3, 0.2), ALL_PARAMS[1], horizon=10_000, seed=4)
        for call, helped, own in self.path_draws(cfg):
            started.clear()
            with monkeypatch.context() as patched:
                patched.setattr(sim, helped, slow)
                patched.setattr(sim, own, failing)
                with pytest.raises(DrawFailed):
                    call()
            assert started.is_set() and running == []


def solve_in_layout(kernel_args, start=None):
    """The solver on slot-major inputs and start, each converted to its
    layout (``_kernels.block_major``)."""
    horizon = kernel_args[0].shape[-1]
    if start is not None:
        start = _kernels.block_major(start)
    return _kernels.simulate_slots(*map(_kernels.block_major, kernel_args), start=start,
                                   horizon=horizon)


def vec_matches_loop(kernel_args, start=None):
    """Run the vectorised solver from ``start`` and the loop on the same
    slot-major inputs; return the solver's passes, one per row. The solver's
    lengths and busy columns are the loop's, in its layout, with the final
    length in every pad and no busy pad."""
    ref, _ = _kernels.simulate_slots_py(*kernel_args)
    q, passes, busy = solve_in_layout(kernel_args, start)
    lengths, busy_ref = in_layout(ref)
    assert q.shape == lengths.shape and len(passes) == kernel_args[0].shape[0]
    assert np.array_equal(q, lengths)
    assert np.array_equal(busy, busy_ref)
    return passes


def lindley_oracle(arrivals, service):
    """One queue's slot-start lengths plus its final state, given its service
    column: the post-departure length is the reflected walk
    ``S - min(minimum.accumulate(S), 0)`` for the cumulative sum ``S`` of the
    increments ``a[t-1] - s[t]``, serially in int64, and a slot starts with
    the previous slot's length plus its arrival."""
    steps = -service.astype(np.int64)
    steps[1:] += arrivals[:-1]
    walk = np.cumsum(steps)
    return np.concatenate(([0], walk - np.minimum(np.minimum.accumulate(walk), 0) + arrivals))


def carried_into_draining_blocks(n):
    """Columns that carry 16, 17 and 18 packets in turn into a block served
    in every slot: each 48-slot period, three scan blocks, serves its first
    12 slots, which empties the queue, fills it with arrivals up to its
    31st slot, and serves every slot of its third block, whose entry so
    crosses the scan's clip at -17 both ways; that block ends with 0, 1 or
    2 packets."""
    slot = np.arange(n)
    carried = 16 + (slot // 48) % 3
    offset = slot % 48
    return (offset >= 31 - carried) & (offset < 31), (offset < 12) | (offset >= 32)


# Block edges of the Lindley scan (16 slots) and a long horizon with a partial last block
SCAN_HORIZONS = [1, 15, 16, 17, 31, 32, 33, 16 * 625 - 1, 16 * 625, 16 * 625 + 1]
SCAN_COLUMNS = {
    # near-critical: queues cross the int8-clipped entry length both ways
    "random": lambda rng, n: (rng.random(n) < 0.48, rng.random(n) < 0.5),
    "carried 16-18 into a draining block": lambda rng, n: carried_into_draining_blocks(n),
    # the queue climbs to the horizon, carried between blocks in int32
    "arrive every slot": lambda rng, n: (np.ones(n, dtype=bool), np.zeros(n, dtype=bool)),
    "serve every slot": lambda rng, n: (rng.random(n) < 0.5, np.ones(n, dtype=bool)),
    "burst then drain": lambda rng, n: (np.arange(n) < n // 2, np.arange(n) >= n // 4),
}


def lindley(arrivals, service):
    """One queue's lengths after each slot and its busy column, in the
    solver's layout, from one Lindley solve (``_kernels._lindley``) of
    slot-major columns: the lengths are ``r8 + a - excess``."""
    horizon = arrivals.shape[0]
    lines = _kernels.block_major(np.stack([arrivals, service])[:, None])
    r8, excess, busy = _kernels._lindley(_kernels._shifted(lines[0]), lines[1],
                                         _kernels.last_block_slots(horizon))
    return (r8 + lines[0].astype(np.int64) - excess[:, None])[0], busy[0]


class TestLindleyScan:
    @pytest.mark.parametrize("columns", SCAN_COLUMNS)
    @pytest.mark.parametrize("horizon", SCAN_HORIZONS)
    def test_matches_serial_walk(self, horizon, columns):
        """The scan's lengths are the serial walk's, with its final length in
        the pads, and the busy column it hands on is that walk's, False in
        the pads."""
        arrivals, service = SCAN_COLUMNS[columns](np.random.default_rng(horizon), horizon)
        q, busy = lindley(arrivals, service)
        expected, expected_busy = in_layout(lindley_oracle(arrivals, service))
        assert np.array_equal(q, expected)
        assert np.array_equal(busy, expected_busy)

    def test_carried_lengths_cross_the_clip(self):
        """The draining blocks' entries take all of -16, -17 and -18."""
        arrivals, service = carried_into_draining_blocks(3 * 48)
        q = lindley_oracle(arrivals, service)
        assert q[32:3 * 48:48].tolist() == [16, 17, 18]
        assert q[48:3 * 48 + 1:48].tolist() == [0, 1, 2]

    def test_a_million_arrivals_in_a_row(self):
        """A queue that grows by one every slot reaches 10**6, far past int8."""
        horizon = 1_000_000
        arrivals, service = np.ones(horizon, dtype=bool), np.zeros(horizon, dtype=bool)
        q, _ = lindley(arrivals, service)
        assert _kernels.slot_major(q, horizon)[-1] == horizon
        assert np.array_equal(q, in_layout(lindley_oracle(arrivals, service))[0])


class TestVectorisedSolver:
    @settings(deadline=None)
    @given(horizon=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           densities=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                              min_size=6, max_size=6),
           decoupled=st.sampled_from([(), (1,), (2,), (1, 2)]),
           start_density=st.none() | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    def test_matches_loop_on_any_columns(self, horizon, seed, densities, decoupled,
                                         start_density):
        """Arbitrary arrival and event columns, each with its own density, and
        an arbitrary start column for queue 2; None starts all-busy. Each
        queue in ``decoupled`` has its solo column copied into its shared-slot
        one, which empties its flip column: then one pass solves the run."""
        rng = np.random.default_rng(seed)
        cols = rng.random((horizon, 6)) < np.array(densities)
        start = None if start_density is None else rng.random((1, horizon)) < start_density
        for queue in decoupled:
            cols[:, 3 + queue] = cols[:, 1 + queue]
        solo1, solo2, both1, both2 = cols[:, 2:].T
        args = (cols[:, :2].T[None], solo1, solo2, both1, both2)
        passes = vec_matches_loop(args, start)
        if start is None:
            assert passes == vec_matches_loop(args, np.ones((1, horizon), dtype=bool))
        if not (solo1 ^ both1).any() or not (solo2 ^ both2).any():
            assert passes == [1]

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
                assert vec_matches_loop(whole_array_inputs(cfg)) != [None]

    def test_converges_next_to_a_strongly_coupled_frontier(self):
        """Started from the all-busy column, the coupled solve converges in a
        few passes where a start from the empty column took 61 (seed 1) or hit
        the cap."""
        params = generic_params(SuccessProfile(0.9, 0.9, 0.05, 0.05))
        scale = 0.98 * b.boundary_scale(b.region_for_params(params), 45.0)
        point = RatePoint(scale * np.cos(np.radians(45.0)), scale * np.sin(np.radians(45.0)))
        cfg = SimConfig(point, params, horizon=200_000, seed=1)
        [passes] = vec_matches_loop(whole_array_inputs(cfg))
        assert passes is not None and passes <= 32

    @pytest.mark.parametrize("mode", ["none", "queue1", "queue2"])
    def test_pass_cap_falls_back_to_loop(self, monkeypatch, mode):
        monkeypatch.setattr(_kernels, "_MAX_PASSES", 1)
        for params in ALL_PARAMS:
            for lam1, lam2 in KERNEL_LOADS:
                cfg = SimConfig(RatePoint(lam1, lam2), params, horizon=5_000, seed=61,
                                dominant_mode=mode)
                inputs = whole_array_inputs(cfg)
                passes = vec_matches_loop(inputs)
                # coupled busy queues need a second pass to confirm the fixed point;
                # an empty flip column (a dummy queue's partner, fixed SC) needs one
                _, solo1, solo2, both1, both2 = inputs
                coupled = (solo1 ^ both1).any() and (solo2 ^ both2).any()
                assert passes == [None if coupled else 1]

    @pytest.mark.parametrize("index, mode", [
        *((i, mode) for i in range(len(ALL_PARAMS)) for mode in ("queue1", "queue2")),
        (1, "none"),
    ])
    def test_decoupled_runs_take_two_solves(self, monkeypatch, index, mode):
        """A dominant run, and a run of fixed SC, whose shared-slot events
        equal its solo ones for queue 1, solves each queue once."""
        solves = []
        lindley = _kernels._lindley

        def counted(*args):
            solves.append(args)
            return lindley(*args)

        monkeypatch.setattr(_kernels, "_lindley", counted)
        for lam1, lam2 in KERNEL_LOADS:
            solves.clear()
            b.run(SimConfig(RatePoint(lam1, lam2), ALL_PARAMS[index], horizon=5_000,
                            seed=61, dominant_mode=mode))
            assert len(solves) == 2


def batch_inputs(rows, horizon, seed, empty_flip=None):
    """Solver inputs for a batch of ``rows`` runs sharing four event columns,
    each run with its own arrival load (0.1 to 0.6, so rows converge on
    different passes); a shared-slot success implies the solo one, and
    ``empty_flip`` (1 or 2) copies that queue's solo column into its
    shared-slot one."""
    rng = np.random.default_rng(seed)
    events = rng.random((4, horizon)) < np.array([[0.7], [0.6], [0.5], [0.4]])
    events[2:] &= events[:2]
    if empty_flip is not None:
        events[1 + empty_flip] = events[empty_flip - 1]
    loads = np.linspace(0.1, 0.6, rows)
    return (rng.random((rows, 2, horizon)) < loads[:, None, None], *events)


class TestBatchSolver:
    @pytest.mark.parametrize("horizon", [1, 15, 16, 17, 20001])
    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_rows_match_the_loop(self, rows, horizon):
        """Each row of a batch is the slot loop's trajectory of that run, in
        the solver's layout, and takes the passes it takes when solved
        alone; also from a start of its own per row, with coupled queues and
        with either flip column empty, and across the scan's 16-slot blocks
        and its tail."""
        for empty_flip in (None, 1, 2):
            inputs = batch_inputs(rows, horizon, rows * horizon, empty_flip)
            arrivals, events = inputs[0], inputs[1:]
            ref, loop_passes = _kernels.simulate_slots_py(*inputs)
            assert loop_passes == [None] * rows
            lengths, busy_ref = in_layout(ref)
            starts = np.random.default_rng(horizon).random((rows, horizon)) < 0.5
            for start in (None, starts):
                q, passes, busy = solve_in_layout(inputs, start)
                assert q.shape == (rows, 2, 16, _kernels.blocks_of(horizon))
                assert q.dtype == np.int32
                assert np.array_equal(q, lengths)
                assert np.array_equal(busy, busy_ref)
                assert len(passes) == rows
                for row in range(rows):
                    alone = None if start is None else start[row:row + 1]
                    alone_passes = solve_in_layout((arrivals[row:row + 1], *events), alone)[1]
                    assert passes[row:row + 1] == alone_passes
                if empty_flip is not None:
                    assert passes == [1] * rows
                elif rows > 1 and horizon > 10_000:
                    assert len(set(passes)) > 1  # rows left the working set on different passes

    def test_a_row_past_the_pass_cap_falls_back_alone(self, monkeypatch):
        """A row that hits the pass cap goes to the slot loop alone; the
        rows that converged keep the solver's trajectories and pass counts."""
        inputs = batch_inputs(4, 20_001, 0)
        arrivals = inputs[0]
        q, passes, busy = solve_in_layout(inputs)
        assert passes == [4, 5, 2, 2]
        loops = []
        loop = _kernels.simulate_slots_py

        def counted(arrivals, *args):
            loops.append(arrivals)
            return loop(arrivals, *args)

        monkeypatch.setattr(_kernels, "simulate_slots_py", counted)
        monkeypatch.setattr(_kernels, "_MAX_PASSES", 4)
        capped, capped_passes, capped_busy = solve_in_layout(inputs)
        assert capped_passes == [4, None, 2, 2]
        assert len(loops) == 1 and np.array_equal(loops[0], arrivals[1:2])
        assert np.array_equal(capped, q) and np.array_equal(capped_busy, busy)


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


def test_no_slot_major_trajectory_unless_asked(monkeypatch):
    """Runs are judged in the solver's layout: a sweep's verdicts, a ray, a
    batch and a run convert nothing to slot-major, and a run asked for its
    trajectory converts its lengths once."""
    conversions = []
    convert = _kernels.slot_major

    def counted(lines, horizon):
        conversions.append(lines.shape)
        return convert(lines, horizon)

    monkeypatch.setattr(_kernels, "slot_major", counted)
    cfgs = [SimConfig(RatePoint(l1, l2), ALL_PARAMS[3], horizon=20_000, seed=4)
            for l1 in (0.1, 0.3, 0.5) for l2 in (0.2, 0.4)]
    b.batch_verdicts(cfgs)
    b.run_batch(cfgs)
    b.estimate_boundary(ALL_PARAMS[0], 45.0, steps=8, horizon=20_000, seed=2)
    for mode in ("none", "queue1", "queue2"):
        b.run(dataclasses.replace(cfgs[0], dominant_mode=mode))
    assert conversions == []
    r = b.run(cfgs[0], return_trajectory=True)
    assert conversions == [(2, 16, _kernels.blocks_of(20_000))]
    assert r.trajectory.shape == (20_001, 2)


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

    def test_run_batch_matches_sequential(self, monkeypatch):
        monkeypatch.setattr(sim, "_POOL_HORIZON", 0)  # short runs through the pool
        pools = []
        pool = sim.ThreadPoolExecutor
        monkeypatch.setattr(sim, "ThreadPoolExecutor",
                            lambda **kwargs: pools.append(kwargs) or pool(**kwargs))
        # each config alone on its path: every worker draws through the helper
        cfgs = [SimConfig(RatePoint(0.2 + 0.05 * i, 0.2), ALL_PARAMS[i % 4],
                          horizon=15_000, seed=i) for i in range(8)]
        expected = [b.run(c) for c in cfgs]
        assert b.run_batch(cfgs) == expected
        for workers in (3, 4):
            assert b.run_batch(cfgs, workers=workers) == expected
        assert pools == [{"max_workers": 3}, {"max_workers": 4}]

    def test_short_batches_run_in_the_calling_thread(self, monkeypatch):
        """Below _POOL_HORIZON slots a batch builds no pool at any
        ``workers``, and still gives run()'s results in input order."""
        cfgs = [SimConfig(RatePoint(0.1 + 0.05 * i, 0.3), ALL_PARAMS[i % 4],
                          horizon=20_000, seed=2) for i in range(4)]
        cfgs.insert(2, SimConfig(RatePoint(0.3, 0.3), ALL_PARAMS[0],
                                 horizon=sim._POOL_HORIZON - 1, seed=2))
        expected = [b.run(c) for c in cfgs]

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built for a short batch")

        monkeypatch.setattr(sim, "ThreadPoolExecutor", no_pool)
        assert b.run_batch(cfgs, workers=2) == expected

    @pytest.mark.parametrize("workers", [None, 3])
    def test_shared_paths_hold_one_draw(self, monkeypatch, workers):
        """A batch mixing lone configs with a path shared by two parameter
        sets and every dominant mode gives run()'s results in input order,
        and draws one path (``sim._path``) per batch key, its horizon, seed,
        params, dominant mode and warmup: each of the six keys that two
        configs share draws it once, and each lone config its own. Its short
        runs go through the pool at ``workers=3``."""
        monkeypatch.setattr(sim, "_POOL_HORIZON", 0)
        shared = [SimConfig(RatePoint(0.1 + 0.05 * i, 0.3), ALL_PARAMS[1 + i % 2],
                            horizon=20_000, seed=8,
                            dominant_mode=("none", "queue1", "queue2")[i % 3])
                  for i in range(12)]
        lone = [SimConfig(RatePoint(0.2, 0.2), ALL_PARAMS[1], horizon=20_000, seed=9),
                SimConfig(RatePoint(0.2, 0.2), ALL_PARAMS[1], horizon=20_001, seed=8)]
        cfgs = [lone[0], *shared[:6], lone[1], *shared[6:]]
        expected = [b.run(c) for c in cfgs]
        draws = []
        draw = sim._path

        def counted(params, horizon, seed):
            draws.append((params, horizon, seed))
            return draw(params, horizon, seed)

        monkeypatch.setattr(sim, "_path", counted)
        assert b.run_batch(cfgs, workers=workers) == expected
        keys = {(c.params, c.horizon, c.seed, c.dominant_mode, c.warmup) for c in cfgs}
        assert len(keys) == 8 and len(draws) == 8
        assert collections.Counter(draws) == collections.Counter(key[:3] for key in keys)

    def test_threads_share_held_paths(self, monkeypatch):
        """Runs on three shared paths, in more threads than cores and with
        frequent thread switches, give the sequential results."""
        monkeypatch.setattr(sim, "_POOL_HORIZON", 0)  # short runs through the pool
        cfgs = [SimConfig(RatePoint(0.1 + 0.05 * (i % 8), 0.3), ALL_PARAMS[1],
                          horizon=10_000, seed=i % 3) for i in range(24)]
        seq = b.run_batch(cfgs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            par = b.run_batch(cfgs, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert seq == par

    @pytest.mark.parametrize("workers, narrow", [(None, True), (3, True), (None, False)],
                             ids=["serial", "pool", "one-strip"])
    @pytest.mark.parametrize("entry, judged", [(b.run_batch, lambda r: r),
                                               (b.batch_verdicts, lambda r: r.verdict)],
                             ids=["run_batch", "batch_verdicts"])
    def test_batches_equal_runs(self, monkeypatch, entry, judged, workers, narrow):
        """run_batch gives run()'s results, and batch_verdicts their
        verdicts, on a shuffled grid with duplicate rates, with mixed params,
        dominant modes and warmups on its path, and with lone configs, also
        through the pool at ``workers=3``. Each solve is one rank of a strip:
        runs of one path, params, mode and warmup, at most ``_BATCH_SLOTS //
        horizon`` of them, each started from a busy column that bounds its
        own. ``narrow`` strips are 3 columns wide, so the grid's 4 columns
        take two strips; at the default width the grid is one strip."""
        monkeypatch.setattr(sim, "_POOL_HORIZON", 0)  # short runs through the pool
        horizon = 20_000
        if narrow:
            monkeypatch.setattr(sim, "_BATCH_SLOTS", 3 * horizon)
        grid = [RatePoint(l1, l2) for l1 in (0.05, 0.2, 0.35, 0.5) for l2 in (0.1, 0.2, 0.3, 0.45)]
        cfgs = [SimConfig(point, ALL_PARAMS[3], horizon=horizon, seed=4)
                for point in grid + grid[::3]]
        columns = collections.Counter(c.arrivals.lambda2 for c in cfgs)
        cfgs += [SimConfig(RatePoint(0.1 + 0.05 * i, 0.2 + 0.1 * (i % 2)), ALL_PARAMS[i % 3],
                           horizon=horizon, seed=4, warmup=(None, 500)[i % 2],
                           dominant_mode=("none", "queue1", "queue2")[i % 3])
                 for i in range(12)]
        cfgs += [SimConfig(RatePoint(0.3, 0.3), ALL_PARAMS[2], horizon=horizon, seed=5),
                 SimConfig(RatePoint(0.3, 0.3), ALL_PARAMS[2], horizon=horizon + 1, seed=4)]
        random.Random(0).shuffle(cfgs)
        expected = [judged(b.run(c)) for c in cfgs]
        solves = []
        solve = sim._solve

        def recorded(configs, start=None, path=None):
            out = solve(configs, start, path)
            solves.append((configs, start, out[2]))
            return out

        monkeypatch.setattr(sim, "_solve", recorded)
        assert entry(cfgs, workers=workers) == expected
        assert sum(len(configs) for configs, _, _ in solves) == len(cfgs)
        width = sim._BATCH_SLOTS // horizon
        assert (width < len(columns)) is narrow
        assert max(len(configs) for configs, _, _ in solves) == min(width, len(columns))
        assert any(start is not None for _, start, _ in solves)
        for configs, start, busy in solves:
            assert len(configs) <= width
            assert len({(c.horizon, c.seed, c.params, c.dominant_mode, c.warmup)
                        for c in configs}) == 1
            if start is not None:
                assert np.all(start >= busy[:, 1])
        # one batch per rank of each strip, whose first column is its longest
        grid_solves = sum(configs[0].params is ALL_PARAMS[3] for configs, _, _ in solves)
        assert grid_solves == sum(sorted(columns.values(), reverse=True)[::width])

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(RatePoint(1.2, 0.0), ALL_PARAMS[0])
        with pytest.raises(InvalidParameterError):
            SimConfig(RatePoint(0.1, 0.1), ALL_PARAMS[0], horizon=1000, warmup=1000)
        # numpy's generators take no negative seed
        with pytest.raises(InvalidParameterError, match="seed"):
            SimConfig(RatePoint(0.1, 0.1), ALL_PARAMS[0], seed=-1)

    def test_numpy_integer_counts(self):
        """A count of any integer type is stored as a Python int: the run is
        the same as with Python ints, not an overflow in the channel stream."""
        cfg = SimConfig(RatePoint(0.3, 0.2), ALL_PARAMS[0], horizon=np.int64(20_000),
                        warmup=np.int32(1_000), seed=np.uint8(7))
        assert all(type(v) is int for v in (cfg.horizon, cfg.warmup, cfg.seed))
        assert b.run(cfg) == b.run(SimConfig(RatePoint(0.3, 0.2), ALL_PARAMS[0],
                                             horizon=20_000, warmup=1_000, seed=7))

    @pytest.mark.parametrize("name", ["horizon", "warmup", "seed"])
    def test_float_counts_rejected(self, name):
        with pytest.raises(InvalidParameterError, match=name):
            SimConfig(RatePoint(0.1, 0.1), ALL_PARAMS[0], **{name: 100.0})


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
    if kind == "ceiling":  # the largest queue lengths a trajectory may hold, as the solver's int32
        return (sim.MAX_HORIZON - rng.integers(0, 3, n)).astype(np.int32)
    if kind == "block-limit":  # the largest values whose chunk sums stay in int64
        return (2**60 // sim._SUM_BLOCKS**2 - 1 - rng.integers(0, 3, n)).astype(np.int64)
    return integer_series(kind, n, seed)


def judged(series, warmup=0):
    """``sim._judge``'s ``(slope, window sum)`` of ``series`` as the
    post-warmup window of a trajectory: ``warmup`` zeros, then the series,
    whose last value also ends it. The trajectory is laid out as
    ``classify_stability`` lays it out: its slot 0 apart, as ``first``, the
    rest in the solver's layout."""
    traj = np.concatenate((np.zeros(warmup, series.dtype), series, series[-1:]))
    lines = _kernels.block_major(traj[None, 1:], traj[-1])
    horizon = len(traj) - 1
    slopes, _, sums, _ = sim._judge(lines, warmup, horizon, int(traj[0]))
    return slopes[0], sums[0]


class TestFitSlope:
    @settings(deadline=None, max_examples=80)
    @given(kind=st.sampled_from([*SERIES_KINDS, "ceiling"]),
           n=st.integers(2, 50_000) | st.integers(2, 50), seed=st.integers(0, 2**32 - 1),
           warmup=st.sampled_from([0, 1, 15, 16, 17]))
    def test_matches_exact_fraction(self, kind, n, seed, warmup):
        series = verdict_series(kind, n, seed)
        assert judged(series, warmup) == (float(exact_slope(series)), int(series.sum()))

    @pytest.mark.parametrize("n", [16 * sim._SUM_BLOCKS - 1, 16 * sim._SUM_BLOCKS,
                                   16 * sim._SUM_BLOCKS + 1, 32 * sim._SUM_BLOCKS + 3])
    @pytest.mark.parametrize("kind", ["queue", "block-limit"])
    def test_exact_at_block_edges(self, n, kind):
        """Across the sums' chunk edges, from either side of a scan block's
        edge, also with the largest values the chunk bound admits, whose
        unchunked sums overflow int64; also as uint64."""
        series = verdict_series(kind, n, n)
        slope = float(exact_slope(series))
        for warmup in (0, 1, 17):
            assert judged(series, warmup)[0] == slope
        assert judged(series.astype(np.uint64))[0] == slope

    @pytest.mark.parametrize("n", [18_000, 36_000, 90_000, 1_000_001])
    def test_matches_polyfit_at_run_lengths(self, n):
        """At the post-warmup lengths of 20k, 40k and 100k-slot runs, and one
        longer than a slope block, the exact slope agrees with numpy's own
        least-squares fit of the same values to within its rounding."""
        for kind in ("zeros", "increasing", "queue"):
            series = integer_series(kind, n, n)
            expected = polyfit_slope(series.astype(np.float64))
            slope, _ = judged(series)
            assert slope == pytest.approx(expected, rel=1e-12, abs=1e-18)

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


def reference_verdict(traj, warmup, slope):
    """classify_stability's rule on a slot-major trajectory, given its exact
    slope over ``[warmup, horizon)``: unstable for a slope above
    ``SLOPE_THRESHOLD`` and a final length above the first post-warmup
    decile's mean, stable for a slope below it and an empty slot in the
    final half or at the end."""
    horizon = len(traj) - 1
    post = traj[warmup:horizon].astype(np.int64)
    early_mean = post[:max(1, len(post) // 10)].mean()
    if float(slope) > sim.SLOPE_THRESHOLD and float(traj[horizon]) > early_mean:
        return Verdict.UNSTABLE
    if float(slope) < sim.SLOPE_THRESHOLD and traj[horizon // 2:].min() == 0:
        return Verdict.STABLE
    return Verdict.INCONCLUSIVE


def classify_stability_slope(traj, warmup):
    """The drift slope that classify_stability judges ``traj`` by."""
    judged = []
    judge = sim._judge

    def recorded(*args):
        judged.append(judge(*args))
        return judged[-1]

    with mock.patch.object(sim, "_judge", recorded):
        b.classify_stability(traj, warmup)
    [([slope], *_)] = judged
    return slope


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
        slope = exact_slope(traj[warmup:n - 1])
        with mock.patch.object(sim, "SLOPE_THRESHOLD", threshold_for(choice, float(slope))):
            assert b.classify_stability(traj, warmup) is reference_verdict(traj, warmup, slope)

    @pytest.mark.parametrize("horizon", [10_000, 10_001, 10_015])
    def test_window_edges(self, horizon):
        """classify_stability and run() fit the exact slope and give the
        reference rule's verdict at every warmup edge: 0, 1, either side of
        a scan block's edge, the default and the last one allowed; at
        horizons 0, 1 and 15 past a block edge; for trajectories that start
        above 0, and as uint64 and int16, whose sums would overflow."""
        rng = np.random.default_rng(horizon)
        series = {kind: verdict_series(kind, horizon + 1, horizon)
                  for kind in ("zeros", "queue", "drifting", "ceiling")}
        # a queue that starts full and drains, one at MAX_HORIZON throughout,
        # and one that grows by a packet per slot from MAX_HORIZON at slot 0,
        # which lifts the first decile's mean at warmup 0 above its final length
        series["starts full"] = np.maximum(
            verdict_series("queue", horizon + 1, horizon) + 3000 - np.arange(horizon + 1), 0)
        series["ceiling from slot 0"] = np.full(horizon + 1, sim.MAX_HORIZON)
        series["growing after a full slot 0"] = np.arange(horizon + 1)
        series["growing after a full slot 0"][0] = sim.MAX_HORIZON
        # one packet throughout but for one empty slot, the final half's first or the one before
        for name, empty in (("empty as the final half starts", horizon // 2),
                            ("empty just before the final half", horizon // 2 - 1)):
            series[name] = np.ones(horizon + 1, dtype=np.int32)
            series[name][empty] = 0
        for warmup in (0, 1, 15, 16, 17, horizon // 10, horizon - 2):
            for traj in series.values():
                slope = exact_slope(traj[warmup:horizon])
                narrow = [traj.astype(np.int16)] if traj.max() < 2**15 else []
                for given in (traj, traj.astype(np.uint64), *narrow):
                    assert classify_stability_slope(given, warmup) == float(slope)
                    assert b.classify_stability(given, warmup) is reference_verdict(traj, warmup,
                                                                                    slope)
            for index, params in enumerate(ALL_PARAMS):
                cfg = SimConfig(RatePoint(*rng.uniform(0.1, 0.6, 2)), params, horizon=horizon,
                                warmup=warmup, seed=index)
                r = b.run(cfg, return_trajectory=True)
                post = r.trajectory[warmup:horizon]
                slopes = [exact_slope(column) for column in post.T]
                assert r.drift_slope == tuple(map(float, slopes))
                assert r.verdict == tuple(reference_verdict(column, warmup, slope)
                                          for column, slope in zip(r.trajectory.T, slopes))

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
            [verdicts] = sim._solve([cfg])[4]
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

    def test_float_warmup_rejected(self):
        with pytest.raises(InvalidParameterError, match="warmup"):
            b.classify_stability(np.zeros(20_001, dtype=np.int64), warmup=100.0)

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
    # a ray with an inconclusive probe, judged non-stable on the ray's own path
    (0, 45.0, 9, "RatePoint(lambda1=0.36132812499999994, lambda2=0.3613281249999999)"),
]


def pinned_ray_params(index):
    return (ALL_PARAMS[index] if index is not None
            else generic_params(SuccessProfile(0.9, 0.9, 0.05, 0.05)))


@pytest.mark.parametrize("index, angle, seed, expected", PINNED_BOUNDARIES)
def test_estimate_boundary_matches_pinned(index, angle, seed, expected):
    point = b.estimate_boundary(pinned_ray_params(index), angle, steps=8, horizon=40_000, seed=seed)
    assert repr(point) == expected


@pytest.mark.parametrize("index, angle, seed, expected", PINNED_BOUNDARIES)
def test_probes_equal_runs(monkeypatch, event_draws, index, angle, seed, expected):
    """Each probe of a pinned ray gives run()'s slopes, verdicts and
    trajectory at the ray's seed, and every one is made on the ray's held
    path: one draw of its success events and arrival uniforms, made before
    the first probe, so no probe draws. Eight steps make nine probes, and
    only the first starts cold."""
    probes = []
    held = []
    solve, draw = sim._solve, sim._arrival_uniforms

    def recorded(configs, start=None, path=None):
        drawn_before = len(event_draws)
        out = solve(configs, start, path)
        [config] = configs
        probes.append((config, len(event_draws) > drawn_before, start is None, path, out))
        return out

    def drawn(horizon, seed):
        held.append(draw(horizon, seed))
        return held[-1]

    monkeypatch.setattr(sim, "_solve", recorded)
    monkeypatch.setattr(sim, "_arrival_uniforms", drawn)
    params = pinned_ray_params(index)
    point = b.estimate_boundary(params, angle, steps=8, horizon=40_000, seed=seed)
    monkeypatch.undo()  # run() below solves through the real _solve
    assert repr(point) == expected
    assert len(held) == 1 and held[0].shape == (2, 16, 2_500)
    assert event_draws == [(params, 40_000, seed)]  # the ray's one draw of its events
    assert len(probes) == 9
    for n, (config, drew, cold, path, (_, q, _, slopes, verdicts, *_)) in enumerate(probes):
        assert config.seed == seed
        assert not drew and cold is (n == 0)
        assert path is probes[0][3] and path[1] is held[0]
        result = b.run(config, return_trajectory=True)
        assert (slopes, verdicts) == ([result.drift_slope], [result.verdict])
        assert np.array_equal(q[0], in_layout(result.trajectory.T)[0])


# The Picard passes of each probe of each PINNED_BOUNDARIES ray, and of each
# PINNED_RUN_DIGESTS run (rows follow ALL_PARAMS; modes none, queue1, queue2),
# recorded from the solver that handed each pass an int32 trajectory in slot
# order: the solver's layout changes no pass count.
PINNED_PROBE_PASSES = {
    (0, 30.0, 5): [2, 2, 4, 5, 5, 3, 2, 3, 4],
    (1, 45.0, 6): [1, 1, 1, 1, 1, 1, 1, 1, 1],
    (2, 60.0, 7): [2, 5, 2, 5, 2, 4, 4, 4, 4],
    (3, 45.0, 8): [2, 2, 5, 8, 2, 5, 4, 5, 6],
    (None, 45.0, 9): [2, 2, 4, 11, 8, 6, 12, 28, 2],
    (None, 20.0, 10): [2, 2, 3, 12, 1, 2, 7, 2, 14],
    (0, 45.0, 9): [2, 3, 5, 3, 6, 5, 5, 4, 2],
}
PINNED_RUN_PASSES = [[3, 1, 1], [1, 1, 1], [4, 1, 1], [6, 1, 1]]


@pytest.fixture
def solver_passes(monkeypatch):
    """The pass counts of every solve made while the test runs, one list per solve."""
    passes = []
    solve = _kernels.simulate_slots

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        passes.append(out[1])
        return out

    monkeypatch.setattr(_kernels, "simulate_slots", counted)
    return passes


@pytest.mark.parametrize("index, angle, seed", PINNED_PROBE_PASSES)
def test_probe_passes_match_pinned(solver_passes, index, angle, seed):
    b.estimate_boundary(pinned_ray_params(index), angle, steps=8, horizon=40_000, seed=seed)
    assert [passes for [passes] in solver_passes] == PINNED_PROBE_PASSES[index, angle, seed]


@pytest.mark.parametrize("index", range(len(ALL_PARAMS)))
def test_run_passes_match_pinned(solver_passes, index):
    for mode in ("none", "queue1", "queue2"):
        b.run(SimConfig(RatePoint(0.4, 0.35), ALL_PARAMS[index], horizon=20_000, seed=41,
                        dominant_mode=mode))
    assert [passes for [passes] in solver_passes] == PINNED_RUN_PASSES[index]


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
        with pytest.raises(EstimationFailureError,
                           match=r"^no unstable bracket .* \(tried scale 1\.414: inconclusive\)$"):
            b.estimate_boundary(params, 45.0, steps=8, horizon=20_000, seed=1)

    @settings(deadline=None)
    @given(solo=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           shared=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           angle=st.floats(0.0, 90.0),
           scales=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda t: t[0] < t[1]),
           seed=st.integers(0, 2**32 - 1), horizon=st.integers(10, 2000))
    def test_queues_grow_pathwise_with_the_scale(self, solo, shared, angle, scales, seed,
                                                 horizon):
        """The premise of one sample path per ray: on one path, a higher scale
        along a ray leaves both queues at least as long in every slot, so a
        non-stable probe's busy column bounds every lower probe's. (The
        verdicts need not be monotone: the verdict rule is not monotone in
        the trajectory.)"""
        profile = SuccessProfile(*solo, solo[0] * shared[0], solo[1] * shared[1])
        c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
        cap = min(1.0 / c if c > 0.0 else math.inf, 1.0 / s if s > 0.0 else math.inf)

        def trajectory(fraction):
            point = RatePoint(min(1.0, fraction * cap * c), min(1.0, fraction * cap * s))
            config = SimConfig(point, generic_params(profile), horizon=horizon, seed=seed)
            return b.run(config, return_trajectory=True).trajectory

        assert np.all(trajectory(scales[0]) <= trajectory(scales[1]))

    @settings(deadline=None)
    @given(solo=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           shared=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           raised=st.sampled_from([0, 1]), rise=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), horizon=st.integers(10, 2000))
    def test_queues_grow_pathwise_with_either_rate(self, solo, shared, rates, raised, rise,
                                                   seed, horizon):
        """The premise of a sweep's column starts: on one path, raising
        ``lambda1`` alone, or ``lambda2`` alone, leaves both queues at least
        as long in every slot, so the cell above a sweep's cell, with the
        same ``lambda2`` and a higher ``lambda1``, bounds its busy columns."""
        profile = SuccessProfile(*solo, solo[0] * shared[0], solo[1] * shared[1])
        higher = list(rates)
        higher[raised] = min(1.0, rates[raised] + rise * (1.0 - rates[raised]))

        def trajectory(point):
            config = SimConfig(point, generic_params(profile), horizon=horizon, seed=seed)
            return b.run(config, return_trajectory=True).trajectory

        assert np.all(trajectory(RatePoint(*rates)) <= trajectory(RatePoint(*higher)))

    def test_argument_validation(self):
        with pytest.raises(InvalidParameterError):
            b.estimate_boundary(generic_params(), 95.0, steps=12)
        with pytest.raises(InvalidParameterError):
            b.estimate_boundary(generic_params(), 45.0, steps=4)
        with pytest.raises(InvalidParameterError, match="steps"):
            b.estimate_boundary(generic_params(), 45.0, steps=8.0)

    def test_numpy_integer_counts(self):
        params = generic_params()
        assert (b.estimate_boundary(params, 30.0, np.int64(8), horizon=np.int64(20_000),
                                    seed=np.int64(3))
                == b.estimate_boundary(params, 30.0, 8, horizon=20_000, seed=3))
