"""Queue recursion of the slot simulator: an exact numpy solver and the reference loop.

Both paths know nothing about decoding schemes: they consume per-slot
arrival flags and the four precomputed success events of
:func:`bcstab.channel.success_events`, and only compare and count, so they
produce bit-identical trajectories. ``simulate_slots`` is the solver;
``simulate_slots_py`` is the reference loop the tests compare it with and
the solver's fallback. ``benchmarks/bench_kernels.py`` times both.

Both take a batch: ``rows`` runs that share the four event columns (runs on
one sample path with one parameter set and dominant mode, such as a
sweep's cells) but have their own arrival flags, ``(rows, 2, horizon)``.
Every numpy call of the solver runs across all rows at once, so a batch
pays each call's fixed cost once, not once per run. A lone run or a
boundary-search probe is a batch of one row, solved by the same calls.

Why the solver is exact. Given its service column ``s`` (whether a
head-of-line packet would leave in that slot), one queue follows Lindley's
recursion: the post-departure length ``r[t] = max(r[t-1] + a[t-1] - s[t], 0)``
with ``r[-1] + a[-1] = 0`` is a random walk reflected at zero, so
``r = S - min(minimum.accumulate(S), 0)`` for the cumulative sum ``S`` of the
increments, and the slot-start length is ``r + a`` one slot later.

The scan lays the slots out in 16-slot blocks, block-major, so that each of
its passes runs across all blocks of all rows at once (Blelloch's two-level
prefix scan). Four shifted passes give each block's running sum ``L`` and
four more its running minimum ``M``. Between blocks, the walk before a block
is the exclusive sum ``C`` of the block totals, and the running minimum of
``S`` before it, clipped at 0, is that of the block lows ``C + M``; their
difference ``e`` is minus the queue length carried into the block, and the
block reads ``r = L - min(M, e)``. A tail of fewer than 16 slots is solved
serially from the last carry. All of it is integer arithmetic, so the result
is exact: ``L`` and ``M`` lie in ``[-16, 16]``, so they, ``e`` clipped at
-16 and ``r + a`` less what ``e`` falls below -16 (at most 33) fit int8, and
the carries, bounded by the horizon, fit int32 because
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
a boundary search passes (``sim.estimate_boundary``) and what a batch of a
sweep's cells passes, each cell the busy column of the cell above it
(``sim.run_batch``). In a batch each row stops at its own fixed point and
leaves the working set, so the passes that remain solve only the rows
still moving. A pass cap hands a pathological row, alone, to the
reference loop.
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
    """Reference slot loop with the solver's inputs; returns ``(q, passes)``
    with every pass count None.

    Per row and slot: read queue state, form the transmission set (the
    nonempty queues), let a head-of-line packet depart when its user's event
    for that set occurred (``both*`` when both queues transmit, ``solo*``
    otherwise), then append the slot's arrivals (``arrivals[r, 0, t]`` and
    ``arrivals[r, 1, t]``).
    """
    s1, s2, b1, b2 = solo1.tolist(), solo2.tolist(), both1.tolist(), both2.tolist()
    q = np.empty((arrivals.shape[0], 2, arrivals.shape[2] + 1), dtype=np.int32)
    for row, (a1, a2) in zip(q, arrivals.tolist()):
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
        row[:] = starts1, starts2
    return q, [None] * q.shape[0]


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
    """Write each row's slot-start lengths, and its final state, into ``q``, given its service.

    ``arrivals`` and ``service`` are ``(rows, n)`` boolean arrays (``service``
    may be one row, shared by all), ``q`` a ``(rows, n + 1)`` int32 array;
    rows need not be contiguous with each other. The temporaries peak at 4
    bytes per slot and row, all int8: the increments, kept in slot order,
    and ``_block_scans``' three block-major buffers.
    """
    rows, n = arrivals.shape
    blocks = n // _SCAN_BLOCK
    body = blocks * _SCAN_BLOCK
    # the walk's increments a[t-1] - s[t]; the body's are laid out block-major,
    # row j holding slot j of every block of every row, so each pass below
    # runs across all of them. The first slot's is 0, not -s[0]: the queue
    # starts empty, and the reflected walk is the same from any increment <= 0.
    step = np.empty((rows, n), dtype=np.int8)
    np.subtract(arrivals[:, :-1].view(np.int8), service[:, 1:].view(np.int8), out=step[:, 1:])
    step[:, 0] = 0
    local = np.empty((_SCAN_BLOCK, rows, blocks), dtype=np.int8)
    np.copyto(local, step[:, :body].reshape(rows, blocks, _SCAN_BLOCK).transpose(2, 0, 1))
    low = _block_scans(local)
    # int32 carries: the walk S before each block (and the tail) is the
    # exclusive sum of the block totals, and min(minimum of S before it, 0) is
    # the running minimum of the block lows C + M; their difference is minus
    # the queue length carried into the block
    start, entry = np.zeros((2, rows, blocks + 1), dtype=np.int32)
    np.cumsum(local[-1], axis=1, dtype=np.int32, out=start[:, 1:])
    np.add(start[:, :-1], low[-1], out=entry[:, 1:])
    np.minimum.accumulate(entry, axis=1, out=entry)
    entry -= start
    # in a block r = C + L - min(C + M, entry + C) = L - min(M, entry); M >= -16,
    # so min(M, entry) is min(M, the entry clipped at -16) plus the excess below it
    excess = entry[:, :-1]
    clipped = np.maximum(excess, -_SCAN_BLOCK).astype(np.int8)
    excess -= clipped
    np.minimum(low, clipped, out=low)
    local -= low
    # r + a in int8, back in slot order, less the excess in int32
    np.copyto(step[:, :body].reshape(rows, blocks, _SCAN_BLOCK), local.transpose(1, 2, 0))
    step[:, :body] += arrivals[:, :body].view(np.int8)
    np.subtract(step[:, :body].reshape(rows, blocks, _SCAN_BLOCK), excess[:, :, None],
                out=q[:, 1:body + 1].reshape(rows, blocks, _SCAN_BLOCK))
    # the tail of fewer than _SCAN_BLOCK slots, serially from the carried length
    tail = q[:, body + 1:]
    if tail.shape[1]:
        tail[:] = step[:, body:]
        np.cumsum(tail, axis=1, out=tail)
        tail -= np.minimum(np.minimum.accumulate(tail, axis=1), entry[:, -1:])
        tail += arrivals[:, body:]


def simulate_slots(arrivals, solo1, solo2, both1, both2, start=None):
    """Each run's queue lengths at every slot start plus the final state, exactly as the slot loop.

    ``arrivals`` is a ``(rows, 2, horizon)`` boolean array, one row per run
    and one line per queue; the runs share the four event columns, each of
    length ``horizon``. ``start`` is a ``(rows, horizon)`` busy column of
    queue 2 per row that the coupled solve starts from, all-busy if None; an
    empty flip column ignores it. Returns ``(q, passes)``: ``q`` is a
    ``(rows, 2, horizon + 1)`` int32 array, and ``passes`` lists per row the
    Picard passes begun (1 if a flip column is empty), each of which solves
    queue 1 and, unless queue 1's busy column repeated, queue 2; or None
    where the coupled solve hit the pass cap and the slot loop produced the
    row.
    """
    rows, _, n = arrivals.shape
    # The service column np.where(busy, both, solo), written as solo ^ (busy & flip):
    # the same bits, far cheaper on boolean arrays. Each queue's shared columns
    # are one row, which broadcasts across the batch, and costs nothing extra
    # in a batch of one.
    solo = (solo1[None], solo2[None])
    flip = ((solo1 ^ both1)[None], (solo2 ^ both2)[None])
    q = np.empty((rows, 2, n + 1), dtype=np.int32)
    q[:, :, 0] = 0  # _lindley writes the rest
    passes = [1] * rows
    for k in (0, 1):
        if not flip[1 - k].any():
            # the other queue's service ignores queue k: solve it first
            _lindley(arrivals[:, 1 - k], solo[1 - k], q[:, 1 - k])
            _lindley(arrivals[:, k], solo[k] ^ ((q[:, 1 - k, :-1] > 0) & flip[k]), q[:, k])
            return q, passes
    # Picard passes over the working rows: queue k is solved from the other
    # queue's busy column and compared with its own previous one, and a row
    # leaves at its own fixed point, its trajectory final. ``work`` holds the
    # trajectories of the rows still working, which ``live`` maps to their
    # rows of q: a view of q while they are a run of adjacent rows, as when
    # the rows that leave are the batch's first or last, else a copy.
    live = np.arange(rows)
    work, a = q, arrivals
    in_q = True
    busy = [None, np.ones((rows, n), dtype=bool) if start is None else start]
    for count in range(1, _MAX_PASSES + 1):
        for k in (0, 1):
            _lindley(a[:, k], solo[k] ^ (busy[1 - k] & flip[k]), work[:, k])
            new = work[:, k, :-1] > 0
            if busy[k] is not None:
                done = (new == busy[k]).all(axis=1)
                if any(done.tolist()):
                    if not in_q:
                        q[live[done]] = work[done]
                    for row in live[done].tolist():
                        passes[row] = count
                    if done.all():
                        return q, passes
                    keep = np.flatnonzero(~done)
                    if keep[-1] - keep[0] == len(keep) - 1:
                        keep = slice(keep[0], keep[-1] + 1)
                    else:
                        in_q = False
                    live, work, a, new = live[keep], work[keep], a[keep], new[keep]
                    busy = [column[keep] for column in busy]
            busy[k] = new
    for row in live.tolist():
        q[row] = simulate_slots_py(arrivals[row:row + 1], solo1, solo2, both1, both2)[0][0]
        passes[row] = None
    return q, passes
