"""Slotted metrics registry: counters, gauges and histograms for the engine.

The registry is the *cold* half of the telemetry layer.  Nothing calls into
it while a simulation runs -- hot components keep the plain integer/float
tallies they always kept (``Simulator.processed_events``,
``Router.routed_count``, ``Executor.busy_time_s``, ...) and a registry is
populated by **scraping** those tallies when a trace is read from a finished
run (:meth:`repro.obs.Telemetry.from_run`, the one reader, single fleet or
shared; :meth:`~repro.obs.Telemetry.scrape` folds one runtime's).

Metrics are keyed by ``(subsystem, name, labels)`` where ``labels`` is a
sorted tuple of ``(key, value)`` pairs, so the same metric scraped for two
executors lands in two slots and snapshots iterate in a deterministic,
PYTHONHASHSEED-independent order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: A fully resolved metric key: (subsystem, name, sorted (label, value) pairs).
MetricKey = Tuple[str, str, Tuple[Tuple[str, str], ...]]


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Cumulative tally, set from a scraped total."""

    __slots__ = ("subsystem", "name", "labels", "value")

    kind = "counter"

    def __init__(self, subsystem: str, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.subsystem = subsystem
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set_total(self, total: float) -> None:
        """Overwrite with a scraped cumulative total (scrape-style update)."""
        self.value = float(total)

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subsystem": self.subsystem,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """Point-in-time value, with a high-water mark across updates."""

    __slots__ = ("subsystem", "name", "labels", "value", "high_water")

    kind = "gauge"

    def __init__(self, subsystem: str, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.subsystem = subsystem
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        """Record the current value; the high-water mark tracks the maximum."""
        self.value = float(value)
        if self.value > self.high_water:
            self.high_water = self.value

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subsystem": self.subsystem,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "high_water": self.high_water,
        }


class Histogram:
    """Streaming summary (count / sum / min / max) of observed values.

    Deliberately bucket-free: the trace consumers that need distributions
    read the raw spans; the registry carries the cheap invariants.
    """

    __slots__ = ("subsystem", "name", "labels", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, subsystem: str, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.subsystem = subsystem
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        """Mean of the observations so far (``None`` when empty)."""
        if not self.count:
            return None
        return self.total / self.count

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subsystem": self.subsystem,
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create registry of metrics keyed by ``(subsystem, name, labels)``."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, object] = {}

    def _get(self, cls, subsystem: str, name: str, labels: Dict[str, object]):
        key = (subsystem, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(subsystem, name, key[2])
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {subsystem}.{name}{labels} already registered as {metric.kind}"
            )
        return metric

    def counter(self, subsystem: str, name: str, **labels: object) -> Counter:
        """The counter at ``(subsystem, name, labels)``, created on first use."""
        return self._get(Counter, subsystem, name, labels)

    def gauge(self, subsystem: str, name: str, **labels: object) -> Gauge:
        """The gauge at ``(subsystem, name, labels)``, created on first use."""
        return self._get(Gauge, subsystem, name, labels)

    def histogram(self, subsystem: str, name: str, **labels: object) -> Histogram:
        """The histogram at ``(subsystem, name, labels)``, created on first use."""
        return self._get(Histogram, subsystem, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> List[Dict[str, object]]:
        """All metrics as plain dicts, sorted by key (deterministic order)."""
        return [self._metrics[key].snapshot() for key in sorted(self._metrics)]
