"""The paper's §4 performance metrics, computed from a run's event log.

All seven metrics are derived from the :class:`~repro.metrics.log.EventLog`
and the strategy's :class:`~repro.core.strategy.MigrationReport`:

1. **Restore duration** -- migration request until the first message seen at a
   sink once the rebalanced dataflow produces output again.
2. **Drain/Capture duration** -- request until the rebalance command is
   issued (DCR/CCR only; 0 for DSM).
3. **Rebalance duration** -- duration of the rebalance command itself.
4. **Catchup time** -- request until the last *old* message (emitted before
   the request) is seen at a sink after the migration (DSM and CCR).
5. **Recovery time** -- request until the last *replayed* message is seen at a
   sink (DSM only; DCR/CCR lose no messages).
6. **Rate stabilization time** -- request until the output rate stays within
   20 % of the expected stable rate for 60 s.
7. **Message loss / recovery count** -- number of messages that failed and
   were replayed because of the migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.strategy import MigrationReport
from repro.metrics.log import EventLog, replay_emits_since
from repro.metrics.timeline import stabilization_time


@dataclass
class MigrationMetrics:
    """The seven §4 metrics for one migration run."""

    strategy: str
    dataflow: str
    scenario: str
    restore_duration_s: Optional[float]
    drain_capture_duration_s: float
    rebalance_duration_s: Optional[float]
    catchup_time_s: Optional[float]
    recovery_time_s: Optional[float]
    stabilization_time_s: Optional[float]
    replayed_message_count: int
    messages_lost_in_kills: int

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (used by ``repro experiment`` to print table rows)."""
        return {
            "strategy": self.strategy,
            "dataflow": self.dataflow,
            "scenario": self.scenario,
            "restore_s": self.restore_duration_s,
            "drain_capture_s": self.drain_capture_duration_s,
            "rebalance_s": self.rebalance_duration_s,
            "catchup_s": self.catchup_time_s,
            "recovery_s": self.recovery_time_s,
            "stabilization_s": self.stabilization_time_s,
            "replayed_messages": self.replayed_message_count,
            "lost_in_kills": self.messages_lost_in_kills,
        }


def compute_migration_metrics(
    log: EventLog,
    report: MigrationReport,
    expected_output_rate: float,
    dataflow_name: str = "",
    scenario: str = "",
    end_time: Optional[float] = None,
) -> MigrationMetrics:
    """Compute the §4 metrics for one migration run.

    ``expected_output_rate`` is the steady-state sink event rate of the
    dataflow (e.g. 32 ev/s for Grid), used by the stabilization detector.
    """
    requested_at = report.requested_at
    if report.rebalance_command_completed_at is None:
        phase = "rebalance command" if report.rebalance_started_at is not None else "drain / capture"
        raise ValueError(
            f"the run ended inside the {phase} of the {report.strategy} migration requested "
            f"at t={requested_at:.1f}s: the "
            "dataflow was never restored, so none of the §4 metrics exists -- run longer"
        )

    # The output gap starts when the rebalance kills executors; it ends with
    # the first sink receipt after the rebalance command has completed (before
    # that, only events already in transit to the sink can arrive).
    threshold = report.rebalance_command_completed_at

    first_after = log.first_receipt_after(threshold)
    restore = first_after.time - requested_at if first_after is not None else None

    drain_capture = report.drain_capture_duration_s or 0.0
    if report.strategy == "dsm":
        drain_capture = 0.0

    rebalance = report.rebalance_duration_s
    if rebalance is None and report.rebalance_record is not None:
        rebalance = report.rebalance_record.command_duration_s

    last_old = log.last_old_receipt(requested_at)
    catchup: Optional[float] = None
    if last_old is not None and last_old.time >= threshold:
        catchup = last_old.time - requested_at

    last_replay = log.last_replay_receipt(requested_at)
    recovery = last_replay.time - requested_at if last_replay is not None else None

    stabilization = stabilization_time(
        log,
        expected_rate=expected_output_rate,
        after=requested_at,
        end=end_time,
    )

    replay_count = replay_emits_since(log, requested_at)
    # Captured pending events (CCR) are persisted before the kill, so only the
    # queued events lost with killed executors count as in-flight loss.
    lost = sum(k.queued_events_lost for k in log.kills if k.time >= requested_at)

    return MigrationMetrics(
        strategy=report.strategy,
        dataflow=dataflow_name,
        scenario=scenario,
        restore_duration_s=restore,
        drain_capture_duration_s=drain_capture,
        rebalance_duration_s=rebalance,
        catchup_time_s=catchup,
        recovery_time_s=recovery,
        stabilization_time_s=stabilization,
        replayed_message_count=replay_count,
        messages_lost_in_kills=lost,
    )
