"""Throughput and latency timelines, and the rate-stabilization detector.

These produce the series behind the paper's Fig. 7 (input/output throughput
during migration), Fig. 9 (average end-to-end latency over a moving 10 s
window) and Fig. 8 (rate stabilization time: the first moment after which the
output rate stays within 20 % of the expected stable rate for 60 s).

All series are computed in a single pass over the event log's monotone time
columns (:attr:`~repro.metrics.log.EventLog.emit_times_array` /
:attr:`~repro.metrics.log.EventLog.receipt_times_array`): the window
``[start, end)`` is located with ``np.searchsorted`` and the per-bin
counts/latency sums come from ``np.bincount`` — no Python loop over records,
and nothing outside the window is visited.  ``bincount`` accumulates
sequentially in record order, the association order of a plain loop over the
records, so the series match one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as _np

from repro.metrics.log import EventLog


@dataclass(frozen=True)
class RatePoint:
    """Observed rate in one time bin."""

    time: float
    rate: float


@dataclass(frozen=True)
class LatencyPoint:
    """Average end-to-end latency over one window."""

    time: float
    latency_s: float
    samples: int


def rate_timeline(
    log: EventLog,
    kind: str = "output",
    start: float = 0.0,
    end: Optional[float] = None,
    bin_s: float = 1.0,
) -> List[RatePoint]:
    """Input or output rate over time.

    ``kind`` is ``"input"`` (source emissions, including replays and backlog
    drains) or ``"output"`` (sink receipts).  Rates are computed per
    ``bin_s``-second bins, as in the paper's timeline plots.
    """
    if kind == "input":
        times_array = log.emit_times_array
    elif kind == "output":
        times_array = log.receipt_times_array
    else:
        raise ValueError(f"kind must be 'input' or 'output', got {kind!r}")
    if end is None:
        end = log.sim.now
    if end <= start or bin_s <= 0:
        return []
    num_bins = int(math.ceil((end - start) / bin_s))
    lo, hi = _np.searchsorted(times_array, [start, end], side="left")
    window = times_array[lo:hi]
    if window.size:
        indexes = ((window - start) / bin_s).astype(_np.int64)
        counts = _np.bincount(indexes, minlength=num_bins)[:num_bins].tolist()
    else:
        counts = [0] * num_bins
    return [
        RatePoint(time=start + (i + 0.5) * bin_s, rate=count / bin_s)
        for i, count in enumerate(counts)
    ]


def latency_timeline(
    log: EventLog,
    start: float = 0.0,
    end: Optional[float] = None,
    window_s: float = 10.0,
) -> List[LatencyPoint]:
    """Average end-to-end latency of sink receipts over consecutive windows.

    Matches the paper's Fig. 9: average event latency over a moving window of
    10 seconds (about 80 events at the stable output rate).
    """
    if end is None:
        end = log.sim.now
    if end <= start or window_s <= 0:
        return []
    num_windows = int(math.ceil((end - start) / window_s))
    times_array = log.receipt_times_array
    lo, hi = _np.searchsorted(times_array, [start, end], side="left")
    window = times_array[lo:hi]
    if window.size:
        indexes = ((window - start) / window_s).astype(_np.int64)
        counts = _np.bincount(indexes, minlength=num_windows)[:num_windows].tolist()
        sums = _np.bincount(
            indexes, weights=window - log.receipt_emitted_array[lo:hi], minlength=num_windows
        )[:num_windows].tolist()
    else:
        counts = [0] * num_windows
        sums = [0.0] * num_windows
    points = []
    for i in range(num_windows):
        if counts[i] == 0:
            continue
        points.append(
            LatencyPoint(time=start + (i + 0.5) * window_s, latency_s=sums[i] / counts[i], samples=counts[i])
        )
    return points


#: The paper's stability rule: the output rate within this fraction of the
#: expected rate ...
STABILIZATION_TOLERANCE = 0.2
#: ... for this long, observed in bins of this width.
STABILIZATION_WINDOW_S = 60.0
STABILIZATION_BIN_S = 5.0


def stabilization_time(
    log: EventLog,
    expected_rate: float,
    after: float,
    end: Optional[float] = None,
) -> Optional[float]:
    """Time (seconds after ``after``) at which the output rate stabilizes.

    The paper defines stability as the observed output rate staying within
    :data:`STABILIZATION_TOLERANCE` (20 %) of the expected stable output rate
    for :data:`STABILIZATION_WINDOW_S` (60 s); the *start* of that stable
    window is the stabilization time.  Returns ``None`` if the rate never
    stabilizes before ``end``.
    """
    if expected_rate <= 0:
        raise ValueError("expected_rate must be positive")
    if end is None:
        end = log.sim.now
    bin_s = STABILIZATION_BIN_S
    points = rate_timeline(log, kind="output", start=after, end=end, bin_s=bin_s)
    if not points:
        return None
    bins_needed = max(1, int(round(STABILIZATION_WINDOW_S / bin_s)))
    low = expected_rate * (1.0 - STABILIZATION_TOLERANCE)
    high = expected_rate * (1.0 + STABILIZATION_TOLERANCE)
    in_band = [low <= p.rate <= high for p in points]
    run = 0
    for i, ok in enumerate(in_band):
        run = run + 1 if ok else 0
        if run >= bins_needed:
            start_index = i - bins_needed + 1
            return points[start_index].time - bin_s / 2.0 - after
    return None
