"""Exact array kernels for the batch cascade's sequential recurrences.

The vectorized cascade (:mod:`repro.engine.batch`) promises simulated times
that are *bit-identical* to the per-event kernel, which rules out every
closed form that re-associates float arithmetic (``k * step`` for ``k``
sequential adds, pairwise sums, prefix-max tricks on shifted values).  The
kernels here keep the kernel's own operation order and still run as array
code:

* :func:`sequential_sums` -- ``k`` sequential additions of one step
  (``busy_time_s``, a fixed-rate tick schedule) are ``np.add.accumulate``
  over ``[start, step, step, ...]``: accumulate is defined as
  ``out[i] = out[i-1] + a[i]``, the same additions in the same order.
* :func:`maxplus_scan` -- the max-plus recurrence
  ``y[i] = max(a[i], y[i-1] + step)`` behind both the per-channel FIFO bump
  (``step = 1e-9``) and the Lindley service queue.  A service completion is
  ``C[i] = max(A[i], C[i-1]) + s``; because ``x -> fl(x + s)`` is monotone,
  ``fl(max(A, C) + s) == max(fl(A + s), fl(C + s))``, so the queue is the same
  scan over ``a = A + s``.  The level sweep lays the channels (or queues) of
  a whole level end to end, so the scan takes *segments*: independent
  recurrences, each with its own seed.

The scan starts from the no-wait answer ``y = a`` and re-propagates only the
*frontier*: entries whose predecessor just moved.  Values only ever rise
towards the true solution and each round finalizes one more position of every
busy period, so it converges in as many rounds as the longest busy period.
The per-event loop is kept as :func:`maxplus_scan_reference`: it is the test
oracle, and the scan hands a segment over to it when the input says the
vector form cannot win -- a handful of entries, or a frontier that fails to
halve every round (a saturated queue, where round ``r`` would still touch
``n - r`` entries).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

#: Below this many entries one numpy round costs more than the whole scalar
#: loop (measured: ~7 us of call overhead against ~80 ns per entry).
_SCALAR_BELOW = 96


def sequential_sums(start: float, step: float, count: int) -> np.ndarray:
    """``[start, start + step, (start + step) + step, ...]``, ``count`` adds.

    Returns ``count + 1`` values; element ``k`` is what ``k`` executions of
    ``x = x + step`` leave in ``x``, bit for bit.
    """
    terms = np.full(count + 1, step, dtype=np.float64)
    terms[0] = start
    return np.add.accumulate(terms, out=terms)


def fixed_rate_ticks(
    start: float, step: float, limit: float, horizon: float, cap: Optional[int] = None
) -> Tuple[np.ndarray, float, bool]:
    """Emission schedule of a fixed-rate source whose tick at ``start`` just fired.

    Ticks follow ``t[i+1] = t[i] + step`` (sequential adds, as the emit timer
    re-arms) and are kept while ``t <= limit``, ``t < horizon`` and fewer than
    ``cap`` are kept; the tick at ``start`` always is.  Returns ``(ticks,
    next_tick, capped)``: the kept ticks, the first one not kept, and whether
    ``cap`` rather than a time bound ended the schedule.
    """
    count = int((min(limit, horizon) - start) / step) + 2
    while True:
        size = count if cap is None else min(count, cap)
        times = sequential_sums(start, step, size)
        in_bound = max(
            1,
            min(
                int(np.searchsorted(times, limit, side="right")),
                int(np.searchsorted(times, horizon, side="left")),
            ),
        )
        if in_bound <= size or size == cap:
            break
        count *= 2  # float drift outran the estimate: the last tick is still in bound
    kept = min(in_bound, size)
    return times[:kept], float(times[kept]), in_bound > kept


def maxplus_scan_reference(
    values: np.ndarray, step: float, seed: Optional[float] = None
) -> np.ndarray:
    """``y[i] = max(values[i], y[i-1] + step)`` with ``y[-1] = seed``, per event.

    ``seed=None`` means no predecessor (``y[0] = values[0]``).  This is the
    kernel's own loop: the oracle for :func:`maxplus_scan` and its fallback.
    """
    prev = float("-inf") if seed is None else seed
    out = []
    append = out.append
    for value in values.tolist():
        pushed = prev + step
        prev = pushed if pushed > value else value
        append(prev)
    return np.array(out, dtype=np.float64)


def maxplus_scan(
    values: np.ndarray,
    step,
    counts: Sequence[int],
    seeds: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, int]:
    """Exact vector form of :func:`maxplus_scan_reference`, several at once.

    ``values`` holds independent recurrences laid end to end: ``counts[j]``
    consecutive entries form segment ``j`` (empty segments are allowed),
    seeded with ``seeds[j]`` (``-inf``, or ``seeds=None``: no predecessor).
    ``step`` is one float, or one float per entry when the segments differ.
    A segment's first entry is tested against its own seed and the frontier
    never crosses a segment start, so each segment comes out exactly as the
    reference would compute it alone.

    Returns ``(y, fallbacks)``: ``fallbacks`` counts the segments a
    non-halving frontier handed to the scalar reference (a single short
    segment takes the reference directly and does not count).  ``values`` is
    never modified.
    """
    n = len(values)
    per_entry = isinstance(step, np.ndarray)
    if len(counts) == 1 and n < _SCALAR_BELOW:
        alone = float(step[0]) if per_entry and n else step
        return maxplus_scan_reference(values, alone, None if seeds is None else seeds[0]), 0
    sizes = np.asarray(counts)
    ends = np.add.accumulate(sizes)
    starts = ends - sizes
    # Round 1 tests every entry against its predecessor's no-wait value, a
    # segment's first entry against the segment's seed.  The spare last slot
    # takes the writes of empty segments at the very end.
    prevs = np.empty(n + 1)
    prevs[1:] = values
    if 0 in counts:
        heads = starts[sizes != 0]
        prevs[heads] = float("-inf") if seeds is None else np.asarray(seeds)[sizes != 0]
    else:
        heads = starts
        prevs[heads] = float("-inf") if seeds is None else seeds
    prevs = prevs[:n]
    prevs += step
    frontier = (prevs > values).nonzero()[0]
    if not frontier.size:
        return values, 0
    is_head = np.zeros(n + 1, dtype=bool)
    is_head[heads] = True
    is_head[n] = True
    pushed = prevs[frontier]
    y = values.copy()
    allowed = n
    while frontier.size:
        allowed >>= 1
        if frontier.size > allowed:
            # Only the segments the frontier is still in are unfinished.
            unfinished = np.unique(np.searchsorted(ends, frontier, side="right")).tolist()
            for j in unfinished:
                lo, hi = int(starts[j]), int(ends[j])
                y[lo:hi] = maxplus_scan_reference(
                    values[lo:hi],
                    float(step[lo]) if per_entry else step,
                    None if seeds is None else seeds[j],
                )
            return y, len(unfinished)
        y[frontier] = pushed
        # Only the successors of entries that just rose can still be short,
        # and only within their own segment.
        successors = frontier + 1
        successors = successors[~is_head[successors]]
        pushed = y[successors - 1] + (step[successors] if per_entry else step)
        waits = pushed > y[successors]
        frontier = successors[waits]
        pushed = pushed[waits]
    return y, 0
