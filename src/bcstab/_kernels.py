"""Queue recursion of the slot simulator: an exact numpy solver and the reference loop.

Both paths know nothing about decoding schemes: they consume per-slot
arrival flags and the four precomputed success events of
:func:`bcstab.channel.success_events`, and only compare and count, so they
produce bit-identical trajectories. ``simulate_slots`` is the solver;
``simulate_slots_py`` is the reference loop the tests compare it with and
the solver's fallback. ``benchmarks/bench_kernels.py`` times both.

Both take a batch: ``rows`` runs that share the four event columns (runs on
one sample path with one parameter set and dominant mode, such as a
sweep's cells) but have their own arrival flags. Every numpy call of the
solver runs across all rows at once, so a batch pays each call's fixed cost
once, not once per run. A lone run or a boundary-search probe is a batch of
one row, solved by the same calls.

Layout. The reference loop takes its lines slot-major: ``(rows, 2,
horizon)`` arrival flags and event columns of ``horizon`` slots. The solver
takes them in the layout of its scan, which is the layout ``sim`` draws a
path in: each line (a queue's arrival flags, an event column, a busy
column) is padded to a multiple of 16 slots and stored block-major, slot
``16*b + j`` at ``[j, b]`` of a ``(16, blocks)`` array, so that each pass of
the scan runs across all blocks of all rows at once (Blelloch's two-level
prefix scan). Rows come outermost, ``(rows, 2, 16, blocks)`` for a batch's
arrival flags, so the rows that leave a batch at its edges stay views.
``block_major`` and ``slot_major`` convert. A pad slot has no arrival and
no event, so a queue keeps its length through the pads; busy columns are
False there, so two busy columns compare equal exactly when their real
slots do.

Why the solver is exact. Given its service column ``s`` (whether a
head-of-line packet would leave in that slot), one queue follows Lindley's
recursion: the post-departure length ``r[t] = max(r[t-1] + a[t-1] - s[t], 0)``
with ``r[-1] + a[-1] = 0`` is a random walk reflected at zero, so
``r = S - min(minimum.accumulate(S), 0)`` for the cumulative sum ``S`` of the
increments, and the slot-start length is ``r + a`` one slot later. The
increments are ``A_prev - s`` for the arrivals shifted by one slot,
``A_prev``, which a call makes once; the first slot's is ``-s[0]``, and the
reflected walk of a queue that starts empty is the same from any first
increment at or below 0.

Four shifted passes give each block's running sum ``L`` and four more its
running minimum ``M``. Between blocks, the walk before a block is the
exclusive sum ``C`` of the block totals, and the running minimum of ``S``
before it, clipped at 0, is that of the block lows ``C + M``; their
difference ``e`` is minus the queue length carried into the block, and the
block reads ``r = L - min(M, e)``. All of it is integer arithmetic, so the
result is exact: ``L`` and ``M`` lie in ``[-16, 16]``, so they and ``e``
clipped at ``-17`` fit int8, and ``r8 = L - min(M, max(e, -17))`` differs
from ``r`` by the ``excess`` of ``e`` below ``-17``, an int32 per block. A
queue that carries 17 or more packets into a block cannot empty within its
16 slots, and then ``r8 >= 1``, so ``r8 > 0`` is exactly ``r > 0`` in every
block; and ``r8 + a <= 16 + 17 + 1 = 34`` still fits int8. The carries,
bounded by the horizon, fit int32 because ``sim.MAX_HORIZON < 2**31``.

So a pass hands on no trajectory, only each queue's busy column, the
slot-start ``r + a > 0`` one slot later: ``busy = shift(r8 > 0) | A_prev``,
False in the pads. Only at a row's fixed point are each queue's lengths
after each slot, ``r8 + a - excess``, written, once and in the solver's
layout, into the int32 ``(rows, 2, 16, blocks)`` array that the statistics
read (``sim._judge``). The pads hold the final length, since no pad holds
an arrival or a service. Nothing here writes a slot-major trajectory.

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
(``sim.run_batch``): the busy columns the solver returns. In a batch each
row stops at its own fixed point and leaves the working set, so the passes
that remain solve only the rows still moving. A pass cap hands a
pathological row, alone and slot-major, to the reference loop.
"""

from __future__ import annotations

import numpy as np

# Picard passes before the coupled solve gives up and runs the slot loop;
# near-frontier runs of 200k slots take up to about 17, and up to 35 for the
# strongly coupled generic profile 0.9,0.9,0.05,0.05.
_MAX_PASSES = 64

# Slots per block of the Lindley scan (_lindley) and of the solver's layout.
# A block's running sums and minima lie in [-16, 16], so they are exact in
# int8; _block_scans' four passes, shifted by 1, 2, 4 and 8 slots, cover 16.
_SCAN_BLOCK = 16

def blocks_of(horizon: int) -> int:
    """Blocks of the solver's layout that hold ``horizon`` slots."""
    return -(-horizon // _SCAN_BLOCK)


def last_block_slots(horizon: int) -> int:
    """Real slots of the last block of ``horizon`` slots, 1 to 16; the rest
    of it is pads."""
    return (horizon - 1) % _SCAN_BLOCK + 1


def block_major(lines, fill=False):
    """Slot-major ``(..., n)`` lines in the solver's layout, ``(..., 16,
    blocks)`` with slot ``16*b + j`` at ``[j, b]``, the pads ``fill``: one
    value, or one per line as a ``(..., 1)`` array."""
    n = lines.shape[-1]
    padded = np.full((*lines.shape[:-1], blocks_of(n) * _SCAN_BLOCK), fill, dtype=lines.dtype)
    padded[..., :n] = lines
    return np.ascontiguousarray(
        padded.reshape(*lines.shape[:-1], -1, _SCAN_BLOCK).swapaxes(-1, -2))


def slot_major(lines, horizon: int):
    """The first ``horizon`` slots of block-major lines, slot-major: the
    inverse of ``block_major``."""
    return lines.swapaxes(-1, -2).reshape(*lines.shape[:-2], -1)[..., :horizon]


def simulate_slots_py(arrivals, solo1, solo2, both1, both2):
    """Reference slot loop with slot-major inputs; returns ``(q, passes)``
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
    """Each block's running sum L, in place in the ``(rows, 16, blocks)``
    array ``local``, and the running minimum M of L, returned. Each is four
    Hillis-Steele passes down the 16 slots of a block, each across all
    blocks of all rows at once and into the other of two buffers, ``spare``
    and the scan's own, so the fourth ends in the scan's own."""
    low = np.empty_like(local)
    spare = np.empty_like(local)
    for op, last in ((np.add, local), (np.minimum, low)):
        src = local
        for k, dst in zip((1, 2, 4, 8), (spare, last, spare, last)):
            op(src[:, k:], src[:, :-k], out=dst[:, k:])
            dst[:, :k] = src[:, :k]
            src = dst
    return low


def _shifted(lines):
    """Block-major lines moved one slot later, False in slot 0: each slot
    holds its previous slot's flag."""
    out = np.empty_like(lines)
    out[..., 1:, :] = lines[..., :-1, :]
    out[..., 0, 1:] = lines[..., -1, :-1]
    out[..., 0, 0] = False
    return out


def _lindley(prev, service, real: int):
    """One queue's Lindley solve per row, in the solver's layout: returns
    ``(r8, excess, busy)``.

    ``prev`` holds each row's arrival flags shifted by one slot
    (``_shifted``), ``(rows, 16, blocks)``; ``service`` is the service
    column, one per row or one shared by all; ``real`` is the number of real
    slots in the last block. The post-departure length is ``r8 - excess``,
    ``r8`` an int8 ``(rows, 16, blocks)`` array and ``excess`` an int32
    ``(rows, blocks)`` one, and ``busy`` is the slot-start busy column,
    False in the pads. Besides the 2 bytes per slot and row returned, the
    temporaries peak at 2, the scan's other two int8 buffers.
    """
    rows, _, blocks = prev.shape
    local = np.subtract(prev.view(np.int8), service.view(np.int8))
    low = _block_scans(local)
    # int32 carries: the walk S before each block is the exclusive sum of the
    # block totals, and min(minimum of S before it, 0) is the running minimum
    # of the block lows C + M; their difference is minus the queue length
    # carried into the block
    start = np.empty((rows, blocks + 1), dtype=np.int32)
    entry = np.empty_like(start)
    start[:, 0] = entry[:, 0] = 0
    np.cumsum(local[:, -1], axis=1, dtype=np.int32, out=start[:, 1:])
    np.add(start[:, :-1], low[:, -1], out=entry[:, 1:])
    np.minimum.accumulate(entry, axis=1, out=entry)
    entry -= start
    # in a block r = L - min(M, entry); M >= -16, so min(M, entry) is min(M, the
    # entry clipped at -17) plus the excess below it, and r8 > 0 where r > 0
    excess = entry[:, :-1]
    clipped = np.maximum(excess, -(_SCAN_BLOCK + 1)).astype(np.int8)
    excess -= clipped
    np.minimum(low, clipped[:, None], out=low)
    local -= low
    # busy at a slot's start: a packet left over from the slot before, or its arrival
    busy = np.empty(local.shape, dtype=bool)
    np.greater(local[:, :-1], 0, out=busy[:, 1:])
    np.greater(local[:, -1, :-1], 0, out=busy[:, 0, 1:])
    busy[:, 0, 0] = False
    busy |= prev
    busy[:, real:, -1] = False
    return local, excess, busy


def _runs(positions, rows):
    """Split the increasing ``rows`` into runs of adjacent rows, and yield
    each run as a slice of ``positions``, which are adjacent with them, and
    a slice of rows."""
    first = 0
    for n in range(1, len(rows) + 1):
        if n == len(rows) or rows[n] != rows[n - 1] + 1:
            yield slice(positions[first], positions[n - 1] + 1), slice(rows[first], rows[n - 1] + 1)
            first = n


def simulate_slots(arrivals, solo1, solo2, both1, both2, start=None, *, horizon):
    """Each run's queue lengths after every slot, exactly as the slot loop.

    The inputs are in the solver's layout (see the module docstring) for
    ``horizon`` slots: ``arrivals`` is a ``(rows, 2, 16, blocks)`` boolean
    array, one row per run and one line per queue, and the runs share the
    four ``(16, blocks)`` event columns, none of them set in a pad. ``start``
    is a ``(rows, 16, blocks)`` busy column of queue 2 per row, False in the
    pads, that the coupled solve starts from, all-busy if None; an empty
    flip column ignores it. Returns ``(q, passes, busy)``: ``q`` is an int32
    ``(rows, 2, 16, blocks)`` array in the solver's layout, slot ``t`` each
    queue's length after slot ``t``, which is the slot loop's ``q[:, :, t +
    1]``, and every pad the final length; ``passes`` lists per row the Picard
    passes begun (1 if a flip column is empty), each of which solves queue 1
    and, unless queue 1's busy column repeated, queue 2; or None where the
    coupled solve hit the pass cap and the slot loop produced the row;
    ``busy`` is each run's ``(rows, 2, 16, blocks)`` busy columns, the slot
    loop's ``q[:, :, :-1] > 0`` in the solver's layout.
    """
    rows, _, _, blocks = arrivals.shape
    real = last_block_slots(horizon)
    prev = _shifted(arrivals)
    # The service column np.where(busy, both, solo), written as solo ^ (busy & flip):
    # the same bits, far cheaper on boolean arrays. Each queue's shared columns
    # broadcast across the batch, and cost nothing extra in a batch of one.
    solo = (solo1, solo2)
    flip = (solo1 ^ both1, solo2 ^ both2)
    passes = [1] * rows
    q = busy = None

    def finish(at, solved):
        """Write the rows at the working positions ``at``, each from its
        final solve of either queue, whose ``r8`` is spent: ``r8 + a -
        excess``, each block's excess broadcast along its 16 slots. The
        outputs are made when the first row is written, so the passes
        before run without them."""
        nonlocal q, busy
        if q is None:
            q = np.empty((rows, 2, _SCAN_BLOCK, blocks), dtype=np.int32)
            busy = np.empty_like(arrivals)
        for i, batch in _runs(at.tolist(), live[at].tolist()):
            for k, (r8, excess, column) in enumerate(solved):
                r8[i] += arrivals[batch, k].view(np.int8)
                np.subtract(r8[i], excess[i, None], out=q[batch, k])
                busy[batch, k] = column[i]

    live = np.arange(rows)
    for k in (0, 1):
        if not flip[1 - k].any():
            # the other queue's service ignores queue k: solve it first
            solved = [None, None]
            solved[1 - k] = _lindley(prev[:, 1 - k], solo[1 - k], real)
            solved[k] = _lindley(prev[:, k], solo[k] ^ (solved[1 - k][2] & flip[k]), real)
            del prev, flip  # the writes need neither
            finish(live, solved)
            return q, passes, busy
    # Picard passes over the working rows: queue k is solved from the other
    # queue's busy column and compared with its own previous one, and a row
    # leaves at its own fixed point, where its lengths are written. The
    # working rows' arrays are views of the batch's while they are a run of
    # adjacent rows, as when the rows that leave are the batch's first or
    # last, else copies; ``live`` maps them to their rows of q. ``solved``
    # holds each queue's last solve, and ``columns`` its busy column, which
    # outlives the rest of the solve until the next solve is compared with it.
    if start is None:
        # one row, broadcast across the rows; slot 0 is never busy, so no
        # busy column repeats this one, whatever its pads hold
        start = np.ones((1, _SCAN_BLOCK, blocks), dtype=bool)
    solved = [None, None]
    columns = [None, start]
    for count in range(1, _MAX_PASSES + 1):
        for k in (0, 1):
            solved[k] = None
            solved[k] = _lindley(prev[:, k], solo[k] ^ (columns[1 - k] & flip[k]), real)
            done = None if columns[k] is None else (solved[k][2] == columns[k]).all(axis=(1, 2))
            columns[k] = solved[k][2]
            if done is None or not any(done.tolist()):
                continue
            at = np.flatnonzero(done)
            for row in live[at].tolist():
                passes[row] = count
            if done.all():
                del prev, flip, columns  # the writes need none of them
                finish(at, solved)
                return q, passes, busy
            finish(at, solved)
            keep = np.flatnonzero(~done)
            if keep[-1] - keep[0] == len(keep) - 1:
                keep = slice(keep[0], keep[-1] + 1)
            live, prev = live[keep], prev[keep]
            solved = [tuple(part[keep] for part in lane) for lane in solved]
            columns = [lane[2] for lane in solved]
    finish(live[:0], solved)  # makes the outputs, if no row has left yet
    events = [slot_major(column, horizon) for column in (solo1, solo2, both1, both2)]
    for row in live.tolist():
        [loop], _ = simulate_slots_py(slot_major(arrivals[row:row + 1], horizon), *events)
        q[row] = block_major(loop[:, 1:], loop[:, -1:])
        busy[row] = block_major(loop[:, :-1] > 0)
        passes[row] = None
    return q, passes, busy
