"""Exact array kernels for the batch cascade's sequential recurrences.

The vectorized cascade (:mod:`repro.engine.batch`) promises simulated times
that are *bit-identical* to the per-event kernel, which rules out every
closed form that re-associates float arithmetic (``k * step`` for ``k``
sequential adds, pairwise sums, prefix-max tricks on shifted values).  The
two kernels here keep the kernel's own operation order and still run as
array code:

* :func:`sequential_sums` -- ``k`` sequential additions of one step
  (``busy_time_s``, a seeded queue draining back to back, a fixed-rate tick
  schedule) are ``np.add.accumulate`` over ``[start, step, step, ...]``:
  accumulate is defined as ``out[i] = out[i-1] + a[i]``, the same additions
  in the same order.
* :func:`maxplus_scan` -- the max-plus recurrence
  ``y[i] = max(a[i], y[i-1] + step)`` behind both the per-channel FIFO bump
  (``step = 1e-9``) and the Lindley service queue.  A service completion is
  ``C[i] = max(A[i], C[i-1]) + s``; because ``x -> fl(x + s)`` is monotone,
  ``fl(max(A, C) + s) == max(fl(A + s), fl(C + s))``, so the queue is the same
  scan over ``a = A + s`` (:func:`service_completions`).

The scan starts from the no-wait answer ``y = a`` and re-propagates only the
*frontier*: entries whose predecessor just moved.  Values only ever rise
towards the true solution and each round finalizes one more position of every
busy period, so it converges in as many rounds as the longest busy period.
The per-event loop is kept as :func:`maxplus_scan_reference`: it is the test
oracle, and the scan hands over to it when the input says the vector form
cannot win -- a handful of entries, or a frontier that fails to halve every
round (a saturated queue, where round ``r`` would still touch ``n - r``
entries).
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    values: np.ndarray, step: float, seed: Optional[float] = None
) -> Tuple[np.ndarray, bool]:
    """Exact vector form of :func:`maxplus_scan_reference`.

    Returns ``(y, fell_back)``; ``fell_back`` is True when a non-halving
    frontier handed the input to the scalar reference (tiny inputs take the
    reference directly and do not count).  ``values`` is never modified.
    """
    n = len(values)
    if n < _SCALAR_BELOW:
        return maxplus_scan_reference(values, step, seed), False
    # Round 1 tests every entry against its predecessor's no-wait value.
    prevs = np.empty(n)
    prevs[0] = float("-inf") if seed is None else seed
    prevs[1:] = values[:-1]
    prevs += step
    frontier = (prevs > values).nonzero()[0]
    if not frontier.size:
        return values, False
    pushed = prevs[frontier]
    y = values.copy()
    allowed = n
    while frontier.size:
        allowed >>= 1
        if frontier.size > allowed:
            return maxplus_scan_reference(values, step, seed), True
        y[frontier] = pushed
        # Only the successors of entries that just rose can still be short.
        if frontier[-1] == n - 1:
            frontier = frontier[:-1]
        successors = frontier + 1
        pushed = y[frontier] + step
        waits = pushed > y[successors]
        frontier = successors[waits]
        pushed = pushed[waits]
    return y, False


def service_completions(
    arrivals: np.ndarray, service: float, busy_until: Optional[float] = None
) -> Tuple[np.ndarray, bool]:
    """Completion times of a FIFO single server: ``C[i] = max(A[i], C[i-1]) + s``.

    ``busy_until`` is the completion time of work already in service
    (``C[-1]``), ``None`` for an idle server.  Same return as
    :func:`maxplus_scan`, whose recurrence this is over ``A + s``.
    """
    return maxplus_scan(arrivals + service, service, busy_until)
