"""Slot-loop queue recursion, JIT-compiled when numba is available.

The kernel knows nothing about decoding schemes: it consumes per-slot
arrival flags and the four precomputed success events of
:func:`bcstab.channel.success_events`, and only compares and counts, so the
compiled and pure-Python paths produce bit-identical trajectories. Set the
environment variable ``BCSTAB_NO_NUMBA=1`` before import to force the
pure-Python path; it is also used automatically when numba cannot be
imported. ``benchmarks/bench_kernels.py`` times both paths.
"""

from __future__ import annotations

import os


def _simulate_slots(arrivals, solo1, solo2, both1, both2, force1, force2, qtraj):
    """Run the slot recursion, filling qtraj with slot-start lengths plus the final state.

    Per slot: read queue state, form the transmission set (``force1``/
    ``force2`` put a dummy-mode queue in even when empty), let a real
    head-of-line packet depart when its user's event for that set occurred
    (``both*`` when both queues transmit, ``solo*`` otherwise), then append
    the slot's arrivals (``arrivals[t, 0]``/``arrivals[t, 1]``).
    """
    horizon = arrivals.shape[0]
    q1 = 0
    q2 = 0
    for t in range(horizon):
        qtraj[t, 0] = q1
        qtraj[t, 1] = q2
        t1 = q1 > 0 or force1
        t2 = q2 > 0 or force2
        if q1 > 0 and (both1[t] if t2 else solo1[t]):
            q1 -= 1
        if q2 > 0 and (both2[t] if t1 else solo2[t]):
            q2 -= 1
        if arrivals[t, 0]:
            q1 += 1
        if arrivals[t, 1]:
            q2 += 1
    qtraj[horizon, 0] = q1
    qtraj[horizon, 1] = q2


simulate_slots_py = _simulate_slots

_disabled = os.environ.get("BCSTAB_NO_NUMBA", "").strip().lower() in {"1", "true", "yes"}

simulate_slots_jit = None
if not _disabled:
    try:
        import numba

        simulate_slots_jit = numba.njit(cache=True, nogil=True)(_simulate_slots)
    except ImportError:
        simulate_slots_jit = None

USING_NUMBA = simulate_slots_jit is not None
simulate_slots = simulate_slots_jit if USING_NUMBA else simulate_slots_py
