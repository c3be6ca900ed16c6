"""One row per compared run, one comparison per command.

The paper scores every migration on one short scorecard: restore time,
drain, replayed messages and the bill (§4).  ``repro chaos``, ``rescale``,
``predict`` and ``multi`` each ride several runs and print that scorecard side
by side, so each is a list of :class:`RunRow` in a :class:`Comparison` plus
the verdict its module states.

A :class:`RunRow` derives every column from the run it labels: an
:class:`~repro.experiments.elastic.ElasticRunResult` or a shared fleet's
:class:`~repro.multi.Tenant`.  It reads the run's ``runtime``,
``controller`` and ``dataflow``, and the ``provider``, ``injector`` and
``profile`` where the run has them (a tenant has no provider of its own and
no storm), so a column is read only off runs that carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.batch import engine_counts, engine_line
from repro.experiments.formatting import format_table
from repro.metrics.log import mean_latency
from repro.metrics.metadata import write_headline_json
from repro.obs import Telemetry
from repro.workloads.profiles import RampProfile, StepProfile


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


@dataclass
class RunRow:
    """One compared run and every column of the scorecard, read from it.

    Windowed columns (mean latency, backlogs, receipts) count from
    ``window_start_s`` on: a surge's start, or 0 for the whole run.
    """

    label: str
    #: An :class:`~repro.experiments.elastic.ElasticRunResult` or a
    #: :class:`~repro.multi.Tenant`.
    result: Any
    window_start_s: float = 0.0

    # ------------------------------------------------------------ faults
    @property
    def restore_s(self) -> float:
        """Mean unavailability per fault after the cloud's reclaim moment."""
        return _mean(self.result.restore_latencies()) or 0.0

    @property
    def drain_s(self) -> Optional[float]:
        """Mean evacuation drain time (notice -> drained); None when none ran."""
        return _mean([
            rec.evacuation_latency_s
            for rec in self.result.controller.evacuations
            if rec.evacuation_latency_s is not None
        ])

    @property
    def replays(self) -> int:
        """Source emissions that were replays of failed tuple trees."""
        return self.result.runtime.log.replay_emits

    @property
    def events_lost(self) -> int:
        return sum(rec.events_lost for rec in self.result.controller.recoveries)

    @property
    def killed(self) -> int:
        return len(self.result.injector.killed)

    @property
    def evaded(self) -> int:
        return len(self.result.injector.evaded)

    # ------------------------------------------------------------- load
    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end sink latency in the window; ``inf`` when nothing
        reached a sink (fully wedged)."""
        receipts = self.result.runtime.log.receipts_after(self.window_start_s)
        return mean_latency(receipts, empty=float("inf"))

    @property
    def receipts(self) -> int:
        return len(self.result.runtime.log.receipts_after(self.window_start_s))

    def _backlogs(self) -> List[int]:
        return [
            sample.queue_backlog + sample.source_backlog
            for sample in self.result.controller.monitor.samples
            if sample.time >= self.window_start_s
        ]

    @property
    def peak_backlog(self) -> int:
        """Largest total backlog (executor queues plus source backlogs) the
        monitor saw in the window."""
        return max(self._backlogs(), default=0)

    @property
    def final_backlog(self) -> int:
        """Backlog still outstanding at the last monitor sample."""
        backlogs = self._backlogs()
        return backlogs[-1] if backlogs else 0

    @property
    def slo_violation_s(self) -> float:
        """Seconds the mean sink latency spent above the controller's SLO."""
        controller = self.result.controller
        return controller.monitor.slo_violation_seconds(controller.config.slo_latency_s)

    # ------------------------------------------------------------ scaling
    @property
    def final_instances(self) -> int:
        """User-task instances deployed when the run ended."""
        return self.result.dataflow.total_instances()

    @property
    def scale_actions(self) -> int:
        return len(self.result.controller.actions)

    @property
    def surge(self) -> Optional[Tuple[float, float]]:
        """The ``[start, end)`` of the run's step or ramp surge; None for
        another profile shape."""
        profile = self.result.profile
        if isinstance(profile, StepProfile) and len(profile.steps) == 3:
            return profile.steps[1][0], profile.steps[2][0]
        if isinstance(profile, RampProfile):
            return profile.ramp_start_s, profile.ramp_end_s
        return None

    @property
    def lead_s(self) -> Optional[float]:
        """``surge start - first scale-out decision``: positive when the fleet
        grew before the surge landed; None without a surge or a scale-out."""
        first_out = min(
            (a.decided_at for a in self.result.controller.actions if a.direction == "out"),
            default=None,
        )
        surge = self.surge
        if surge is None or first_out is None:
            return None
        return surge[0] - first_out

    @property
    def deferrals(self) -> int:
        """Proposals of this run's controller the arbiter deferred."""
        controller = self.result.controller
        return sum(1 for r in controller.arbiter.deferrals() if r.tenant_id == controller.tenant_id)

    @property
    def cost(self) -> float:
        """Total accrued cloud cost at the end of the run."""
        return self.result.provider.total_cost()

    @property
    def engine_line(self) -> str:
        """Which engine ran the run (:func:`repro.engine.batch.engine_line`)."""
        return engine_line(engine_counts([self.result.runtime]))


def _rounded(value: Optional[float], digits: int) -> str:
    """The cell's text at its column's precision (``format_table`` would
    print a float with one decimal)."""
    return "-" if value is None else f"{value:.{digits}f}"


#: Column -> its table cell, as text at the column's precision; any other
#: column is the :class:`RunRow` attribute of that name as it is.
_CELLS: Dict[str, Callable[[RunRow], object]] = {
    "restore_s": lambda row: _rounded(row.restore_s, 2),
    "drain_s": lambda row: _rounded(row.drain_s, 2),
    "mean_latency_s": lambda row: _rounded(row.mean_latency_s, 3),
    "latency_ms": lambda row: _rounded(row.mean_latency_s * 1000, 1),
    "slo_violation_s": lambda row: _rounded(row.slo_violation_s, 1),
    "lead_s": lambda row: _rounded(row.lead_s, 1),
    "cost": lambda row: _rounded(row.cost, 4),
    "instances": lambda row: row.final_instances,
    "surge": lambda row: "{:.0f}-{:.0f}s".format(*row.surge),
    "dag": lambda row: row.result.dataflow.name,
    "priority": lambda row: row.result.priority,
}


@dataclass
class Comparison:
    """The rows one comparison command rides, and what they share."""

    rows: List[RunRow]
    #: What a row's label names (``mode``, ``policy``, ``tenant``): the
    #: table's first column and a trace header's key.
    label: str
    #: The command (``chaos``, ``predict``, ...): a trace header's
    #: ``scenario`` and the prefix of every headline name.
    scenario: str
    #: The headline JSON: its ``schema``, the fields the rows share, and
    #: ``benchmarks`` -- ``{metric: column}``, written per row as
    #: ``<scenario>_<label>_<metric>``, the unit in the metric.
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def runs(self) -> Dict[str, RunRow]:
        """Label -> row, in ride order."""
        return {row.label: row for row in self.rows}

    def table(self, columns: Sequence[str], title: str,
              **cells: Callable[[RunRow], object]) -> str:
        """The label column, then ``columns``; ``cells`` gives a column the
        rows do not (e.g. one comparing a row with another comparison's)."""
        cells = {**_CELLS, **cells}
        return format_table([
            {self.label: row.label, **{
                column: cells[column](row) if column in cells else getattr(row, column)
                for column in columns
            }}
            for row in self.rows
        ], title=title)

    def write_headline_json(
        self, path: Union[str, Path], timestamp: Optional[str] = None
    ) -> Path:
        """Write :attr:`meta` with each row's benchmarks filled in."""
        fields = dict(self.meta)
        schema = fields.pop("schema")
        fields["benchmarks"] = {
            f"{self.scenario}_{row.label}_{metric}": getattr(row, column)
            for row in self.rows
            for metric, column in fields["benchmarks"].items()
        }
        return write_headline_json(path, schema, timestamp=timestamp, **fields)

    def trace(self, label: str) -> Telemetry:
        """The trace of the row ``label``, its header naming the command and the row."""
        telemetry = self.runs[label].result.trace()
        telemetry.meta.update({"scenario": self.scenario, self.label: label})
        return telemetry
