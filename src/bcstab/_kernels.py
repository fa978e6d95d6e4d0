"""Queue recursion of the slot simulator: an exact numpy solver and the reference loop.

Both paths know nothing about decoding schemes: they consume per-slot
arrival flags and the four precomputed success events of
:func:`bcstab.channel.success_events`, and only compare and count, so they
produce bit-identical trajectories. ``simulate_slots`` is the solver;
``simulate_slots_py`` is the reference loop the tests compare it with and
the solver's fallback. ``benchmarks/bench_kernels.py`` times both.

Why the solver is exact. Given its service column ``s`` (whether a
head-of-line packet would leave in that slot), one queue follows Lindley's
recursion: the post-departure length ``r[t] = max(r[t-1] + a[t-1] - s[t], 0)``
with ``r[-1] + a[-1] = 0`` is a random walk reflected at zero, so
``r = S - min(minimum.accumulate(S), 0)`` for the cumulative sum ``S`` of the
increments, and the slot-start length is ``r + a`` one slot later. All of
it is integer arithmetic, so the result is exact. A queue's service column
depends on the other queue only through whether it is transmitting. In a
dominant mode the forced queue always transmits, so the other queue's
service is known and two Lindley solves give the trajectory.
Coupled queues are solved by Picard iteration: assume queue 2 never busy,
solve queue 1, solve queue 2 from queue 1's busy column, and repeat until
queue 2's busy column stops changing. The pair is then a fixed point of the
joint recursion, and because slot ``t + 1`` depends only on slots up to
``t`` that fixed point is unique, so it is the trajectory; each pass also
fixes at least one more slot, so the iteration converges. A pass cap hands
pathological inputs to the reference loop.
"""

from __future__ import annotations

import numpy as np

# Picard passes before the coupled solve gives up and runs the slot loop;
# near-frontier runs of 200k slots take up to about 17.
_MAX_PASSES = 64


def simulate_slots_py(arrivals, solo1, solo2, both1, both2, force1, force2):
    """Reference slot loop with the solver's signature; returns ``(q, None)``.

    Per slot: read queue state, form the transmission set (``force1``/
    ``force2`` put a dummy-mode queue in even when empty), let a real
    head-of-line packet depart when its user's event for that set occurred
    (``both*`` when both queues transmit, ``solo*`` otherwise), then append
    the slot's arrivals (``arrivals[t, 0]``/``arrivals[t, 1]``).
    """
    a1, a2 = arrivals[:, 0].tolist(), arrivals[:, 1].tolist()
    s1, s2, b1, b2 = solo1.tolist(), solo2.tolist(), both1.tolist(), both2.tolist()
    starts1, starts2 = [], []
    q1 = q2 = 0
    for t in range(len(a1)):
        starts1.append(q1)
        starts2.append(q2)
        t1 = q1 > 0 or force1
        t2 = q2 > 0 or force2
        if q1 > 0 and (b1[t] if t2 else s1[t]):
            q1 -= 1
        if q2 > 0 and (b2[t] if t1 else s2[t]):
            q2 -= 1
        q1 += a1[t]
        q2 += a2[t]
    starts1.append(q1)
    starts2.append(q2)
    return np.array([starts1, starts2], dtype=np.int32), None


def _lindley(arrivals, service, q):
    """Write one queue's slot-start lengths (plus the final state) into ``q``, given its service column."""
    # The walk moves by at most one packet per slot and runs are capped at
    # sim.MAX_HORIZON < 2**31 slots, so int32 is exact; it halves the memory
    # traffic of int64.
    walk = q[1:]
    walk[0] = 0
    walk[1:] = arrivals[:-1]
    walk -= service
    np.cumsum(walk, out=walk)
    # r = S - min(minimum.accumulate(S), 0); S[0] = -service[0] <= 0, so the
    # running minimum is never positive and needs no clip at zero.
    walk -= np.minimum.accumulate(walk)
    walk += arrivals


def simulate_slots(arrivals, solo1, solo2, both1, both2, force1, force2):
    """Queue lengths at every slot start plus the final state, exactly as the slot loop.

    ``arrivals`` is a ``(horizon, 2)`` boolean array and the four event
    columns have length ``horizon``. Returns ``(q, passes)``: ``q`` is a
    ``(2, horizon + 1)`` int32 array with one row per queue, and ``passes``
    the number of Picard passes (1 in a dominant mode), or None when the
    coupled solve hit the pass cap and the slot loop produced ``q``.
    """
    a1 = arrivals[:, 0]
    a2 = arrivals[:, 1]
    # The service column np.where(busy, both, solo), written as solo ^ (busy & flip):
    # the same bits, far cheaper on boolean arrays.
    flip1 = solo1 ^ both1
    flip2 = solo2 ^ both2
    q = np.zeros((2, arrivals.shape[0] + 1), dtype=np.int32)
    q1, q2 = q
    passes = 1
    if force1:
        _lindley(a2, both2, q2)
        _lindley(a1, both1 if force2 else solo1 ^ ((q2[:-1] > 0) & flip1), q1)
    elif force2:
        _lindley(a1, both1, q1)
        _lindley(a2, solo2 ^ ((q1[:-1] > 0) & flip2), q2)
    else:
        busy2 = np.zeros(arrivals.shape[0], dtype=bool)
        for passes in range(1, _MAX_PASSES + 1):
            _lindley(a1, solo1 ^ (busy2 & flip1), q1)
            _lindley(a2, solo2 ^ ((q1[:-1] > 0) & flip2), q2)
            new_busy2 = q2[:-1] > 0
            if np.array_equal(new_busy2, busy2):
                break
            busy2 = new_busy2
        else:
            return simulate_slots_py(arrivals, solo1, solo2, both1, both2, force1, force2)
    return q, passes
