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
increments, and the slot-start length is ``r + a`` one slot later.

The scan lays the slots out in 16-slot blocks, block-major, so that each of
its passes runs across all blocks at once (Blelloch's two-level prefix
scan). Four shifted passes give each block's running sum ``L`` and four
more its running minimum ``M``. Between blocks, the walk before a block is
the exclusive sum ``C`` of the block totals, and the running minimum of
``S`` before it, clipped at 0, is that of the block lows ``C + M``; their
difference ``e`` is minus the queue length carried into the block, and the
block reads ``r = L - min(M, e)``. A tail of fewer than 16 slots is solved
serially from the last carry. All of it is integer arithmetic, so the
result is exact: ``L`` and ``M`` lie in ``[-16, 16]``, so they, ``e``
clipped at -16 and ``r + a`` less what ``e`` falls below -16 (at most 33)
fit int8, and the carries, bounded by the horizon, fit int32 because
``sim.MAX_HORIZON < 2**31``.

A queue's service column depends on the other queue only through whether it
is transmitting, in the slots of its flip column ``solo ^ both``. When a
flip column is empty, that queue is solved first and the other from its busy
column: two solves. Coupled queues are solved by Picard iteration: start
from a busy column of queue 2, solve queue 1, solve queue 2 from queue 1's
busy column, and repeat until either busy column repeats the previous
pass's. If queue 2's repeats, queue 1 was solved from it; if queue 1's
repeats, queue 2 was solved from it one pass earlier. Either way the pair is
a fixed point of the joint recursion, and because slot ``t + 1`` depends
only on slots up to ``t`` that fixed point is unique, so it is the
trajectory; each pass also fixes at least one more slot from any start, so
the iteration converges and the start changes only the pass count. The
default all-busy start is the cheap one: a shared-slot success implies the
solo one, so the passes descend monotonically from it, and next to the
frontier, where passes cost, queue 2 is busy in most slots. Any busy column
that bounds the trajectory's from above descends the same way, which is what
a boundary search passes (``sim.estimate_boundary``). A pass cap hands
pathological inputs to the reference loop.
"""

from __future__ import annotations

import numpy as np

# Picard passes before the coupled solve gives up and runs the slot loop;
# near-frontier runs of 200k slots take up to about 17, and up to 35 for the
# strongly coupled generic profile 0.9,0.9,0.05,0.05.
_MAX_PASSES = 64

# Slots per block of the Lindley scan (_lindley). A block's running sums and
# minima lie in [-16, 16], so they are exact in int8; _block_scans' four
# passes, shifted by 1, 2, 4 and 8 rows, cover 16.
_SCAN_BLOCK = 16


def simulate_slots_py(arrivals, solo1, solo2, both1, both2):
    """Reference slot loop with the solver's signature; returns ``(q, None)``.

    Per slot: read queue state, form the transmission set (the nonempty
    queues), let a head-of-line packet depart when its user's event for that
    set occurred (``both*`` when both queues transmit, ``solo*`` otherwise),
    then append the slot's arrivals (``arrivals[t, 0]``/``arrivals[t, 1]``).
    """
    a1, a2 = arrivals[:, 0].tolist(), arrivals[:, 1].tolist()
    s1, s2, b1, b2 = solo1.tolist(), solo2.tolist(), both1.tolist(), both2.tolist()
    starts1, starts2 = [], []
    q1 = q2 = 0
    for t in range(len(a1)):
        starts1.append(q1)
        starts2.append(q2)
        t1, t2 = q1 > 0, q2 > 0
        if t1 and (b1[t] if t2 else s1[t]):
            q1 -= 1
        if t2 and (b2[t] if t1 else s2[t]):
            q2 -= 1
        q1 += a1[t]
        q2 += a2[t]
    starts1.append(q1)
    starts2.append(q2)
    return np.array([starts1, starts2], dtype=np.int32), None


def _block_scans(local):
    """Each block's running sum L, in place in ``local``, and the running
    minimum M of L, returned. Each is four Hillis-Steele passes down the
    rows, each across all blocks at once and into the other of two buffers,
    ``spare`` and the scan's own, so the fourth ends in the scan's own."""
    low = np.empty_like(local)
    spare = np.empty_like(local)
    for op, last in ((np.add, local), (np.minimum, low)):
        src = local
        for k, dst in zip((1, 2, 4, 8), (spare, last, spare, last)):
            op(src[k:], src[:-k], out=dst[k:])
            dst[:k] = src[:k]
            src = dst
    return low


def _lindley(arrivals, service, q):
    """Write one queue's slot-start lengths (plus the final state) into ``q``, given its service column.

    Its temporaries peak at 4 bytes per slot, all int8: the increments, kept
    in slot order, and ``_block_scans``' three block-major buffers.
    """
    n = service.shape[0]
    blocks = n // _SCAN_BLOCK
    body = blocks * _SCAN_BLOCK
    # the walk's increments a[t-1] - s[t]; the body's are laid out block-major,
    # row j holding slot j of every block, so each pass below runs across blocks
    step = np.empty(n, dtype=np.int8)
    np.subtract(arrivals[:-1].view(np.int8), service[1:].view(np.int8), out=step[1:])
    step[0] = -int(service[0])
    local = np.empty((_SCAN_BLOCK, blocks), dtype=np.int8)
    np.copyto(local, step[:body].reshape(blocks, _SCAN_BLOCK).T)
    low = _block_scans(local)
    # int32 carries: the walk S before each block (and the tail) is the
    # exclusive sum of the block totals, and min(minimum of S before it, 0) is
    # the running minimum of the block lows C + M; their difference is minus
    # the queue length carried into the block
    start = np.zeros(blocks + 1, dtype=np.int32)
    start[1:] = local[-1]
    np.cumsum(start, out=start)
    entry = np.zeros(blocks + 1, dtype=np.int32)
    np.add(start[:-1], low[-1], out=entry[1:])
    np.minimum.accumulate(entry, out=entry)
    entry -= start
    # in a block r = C + L - min(C + M, entry + C) = L - min(M, entry); M >= -16,
    # so min(M, entry) is min(M, the entry clipped at -16) plus the excess below it
    clipped = np.maximum(entry[:-1], -_SCAN_BLOCK).astype(np.int8)
    excess = entry[:-1]
    excess -= clipped
    np.minimum(low, clipped, out=low)
    local -= low
    # r + a in int8, back in slot order, less the excess in int32
    np.copyto(step[:body].reshape(blocks, _SCAN_BLOCK), local.T)
    step[:body] += arrivals[:body].view(np.int8)
    np.subtract(step[:body].reshape(blocks, _SCAN_BLOCK), excess[:, None],
                out=q[1:body + 1].reshape(blocks, _SCAN_BLOCK))
    # the tail of fewer than _SCAN_BLOCK slots, serially from the carried length
    tail = q[body + 1:]
    if tail.shape[0]:
        tail[:] = step[body:]
        np.cumsum(tail, out=tail)
        tail -= np.minimum(np.minimum.accumulate(tail), entry[-1])
        tail += arrivals[body:]


def simulate_slots(arrivals, solo1, solo2, both1, both2, start=None):
    """Queue lengths at every slot start plus the final state, exactly as the slot loop.

    ``arrivals`` is a ``(horizon, 2)`` boolean array and the four event
    columns have length ``horizon``. ``start`` is the busy column of queue 2
    that the coupled solve starts from, all-busy if None; an empty flip
    column ignores it. Returns ``(q, passes)``: ``q`` is a ``(2, horizon + 1)``
    int32 array with one row per queue, and ``passes`` the number of Picard
    passes begun (1 if a flip column is empty), each of which solves queue 1
    and, unless queue 1's busy column repeated, queue 2; or None when the
    coupled solve hit the pass cap and the slot loop produced ``q``.
    """
    a1, a2 = arrivals.T
    # The service column np.where(busy, both, solo), written as solo ^ (busy & flip):
    # the same bits, far cheaper on boolean arrays.
    flip1 = solo1 ^ both1
    flip2 = solo2 ^ both2
    q = np.zeros((2, arrivals.shape[0] + 1), dtype=np.int32)
    q1, q2 = q
    passes = 1
    if not flip2.any():
        _lindley(a2, solo2, q2)
        _lindley(a1, solo1 ^ ((q2[:-1] > 0) & flip1), q1)
    elif not flip1.any():
        _lindley(a1, solo1, q1)
        _lindley(a2, solo2 ^ ((q1[:-1] > 0) & flip2), q2)
    else:
        busy2 = np.ones(arrivals.shape[0], dtype=bool) if start is None else start
        busy1 = None
        for passes in range(1, _MAX_PASSES + 1):
            _lindley(a1, solo1 ^ (busy2 & flip1), q1)
            new_busy1 = q1[:-1] > 0
            if busy1 is not None and np.array_equal(new_busy1, busy1):
                break
            busy1 = new_busy1
            _lindley(a2, solo2 ^ (busy1 & flip2), q2)
            new_busy2 = q2[:-1] > 0
            if np.array_equal(new_busy2, busy2):
                break
            busy2 = new_busy2
        else:
            return simulate_slots_py(arrivals, solo1, solo2, both1, both2)
    return q, passes
