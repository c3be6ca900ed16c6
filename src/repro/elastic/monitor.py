"""Periodic sampling of the signals the elastic control loop acts on.

The monitor plays the role of the metrics pipeline a production DSPS would
run next to the dataflow: every sampling interval it reads the run's event
log (source emissions, sink receipts) and the live executors (queue
backlogs, source backlogs, pause state) and appends a
:class:`MonitorSample`.  The controller consumes the samples to decide when
the current VM allocation no longer fits the observed input rate; the
experiment harness keeps them as the run's timeline.

Sampling is incremental: the event log is append-only and time-ordered, so
the monitor remembers how far it has read and never rescans the whole log
(sampling stays O(new events) even on very long runs).

The monitor has no timer of its own: the controller calls
:meth:`ElasticityMonitor.sample_now` on each control tick.  One query serves
the predictive control plane's reports:
:meth:`ElasticityMonitor.slo_violation_seconds` -- how much of the run the
mean sink latency spent above a latency SLO, the headline metric of the
predictive-vs-reactive comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.engine.runtime import TopologyRuntime
from repro.metrics.log import mean_latency


@dataclass(frozen=True)
class MonitorSample:
    """One observation of the running dataflow."""

    #: Simulated time of the sample.
    time: float
    #: Source emission rate (ev/s) over the interval since the previous sample,
    #: including backlog drains and replays -- what the wire actually carried.
    input_rate: float
    #: Rate at which the sources *generated* events over the interval (ev/s):
    #: emissions corrected by the source-backlog delta.  A post-migration
    #: backlog drain inflates ``input_rate`` far above the offered load, and a
    #: paused source deflates it to zero; ``offered_rate`` is steady through
    #: both, which is what scaling decisions should track.
    offered_rate: float
    #: Sink receipt rate (ev/s) over the same interval.
    output_rate: float
    #: Mean end-to-end latency of the sink receipts in the interval (None if
    #: no events reached a sink).
    avg_latency_s: Optional[float]
    #: Events waiting in user-executor input queues (processing backlog).
    queue_backlog: int
    #: Generated-but-unemitted events held inside the sources.
    source_backlog: int
    #: Whether every source was paused when the sample was taken (mid-protocol
    #: samples carry a 0 input rate that must not be mistaken for low traffic).
    sources_paused: bool


class ElasticityMonitor:
    """Samples source rate, executor backlogs and sink latency on request."""

    def __init__(self, runtime: TopologyRuntime, interval_s: float = 10.0) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.runtime = runtime
        self.interval_s = interval_s
        self.samples: List[MonitorSample] = []
        self._emit_index = 0
        self._receipt_index = 0
        self._last_sample_time = runtime.sim.now
        self._last_source_backlog = 0

    # -------------------------------------------------------------- sampling
    def sample_now(self) -> MonitorSample:
        """Take one sample covering the interval since the previous sample."""
        runtime = self.runtime
        now = runtime.sim.now
        interval = now - self._last_sample_time
        if interval <= 0:
            interval = self.interval_s

        emits = runtime.log.source_emits
        receipts = runtime.log.sink_receipts
        new_emits = len(emits) - self._emit_index
        new_receipts = len(receipts) - self._receipt_index
        avg_latency = mean_latency(receipts, start=self._receipt_index)
        self._emit_index = len(emits)
        self._receipt_index = len(receipts)
        self._last_sample_time = now

        source_backlog = sum(s.backlog_size for s in runtime.source_executors)
        # Events generated in the interval = events emitted + backlog growth
        # (negative growth while a backlog drains: those emissions were
        # generated in an earlier interval, not fresh load).
        generated = new_emits + (source_backlog - self._last_source_backlog)
        self._last_source_backlog = source_backlog

        sample = MonitorSample(
            time=now,
            input_rate=new_emits / interval,
            offered_rate=max(0.0, generated / interval),
            output_rate=new_receipts / interval,
            avg_latency_s=avg_latency,
            queue_backlog=sum(e.queue_length for e in runtime.user_executors),
            source_backlog=source_backlog,
            sources_paused=runtime.sources_paused,
        )
        self.samples.append(sample)
        return sample

    # --------------------------------------------------------------- queries
    @property
    def latest(self) -> Optional[MonitorSample]:
        """The most recent sample, if any."""
        return self.samples[-1] if self.samples else None

    def slo_violation_seconds(self, slo_latency_s: float) -> float:
        """Seconds of the sampled run whose mean sink latency exceeded the SLO.

        Each sample covers the interval since its predecessor; intervals whose
        mean end-to-end latency was above ``slo_latency_s`` count in full.
        Intervals in which nothing reached a sink count as violations only
        when events were visibly stuck (a non-empty backlog with no output is
        an outage, not idleness).
        """
        if slo_latency_s <= 0:
            raise ValueError(f"slo_latency_s must be positive, got {slo_latency_s}")
        violation = 0.0
        previous_time: Optional[float] = None
        for sample in self.samples:
            interval = self.interval_s if previous_time is None else sample.time - previous_time
            previous_time = sample.time
            if sample.avg_latency_s is not None:
                breached = sample.avg_latency_s > slo_latency_s
            else:
                breached = sample.output_rate == 0.0 and (
                    sample.queue_backlog > 0 or sample.source_backlog > 0
                )
            if breached:
                violation += interval
        return violation
