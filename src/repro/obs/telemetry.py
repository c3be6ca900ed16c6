"""Telemetry facade: one object owning the metrics registry and span tracer.

``TopologyRuntime`` creates a :class:`Telemetry` when
``RuntimeConfig.telemetry`` is on and leaves the attribute ``None``
otherwise, so every instrumentation site is a single ``is None`` guard and
the hot path never pays for observability it did not ask for.

The split of responsibilities:

* **Live spans** -- the elasticity controller opens/closes spans *as it
  runs* (one per control tick, five stage children), because the stage
  inputs/outputs are only available in the moment.
* **Scraped metrics** -- hot components keep their plain integer tallies
  (``Simulator.processed_events``, ``Router.routed_count``, executor
  counters, ...); :meth:`Telemetry.scrape` folds them into the registry at
  sample/finalize time.
* **Synthesized spans** -- the long-running protocols already leave typed
  records (``ScalingAction``, ``RecoveryRecord``, ``EvacuationRecord``,
  ``CheckpointWave``, ``FaultRecord``, arbiter ``ProposalRecord``);
  :meth:`Telemetry.finalize` turns them into spans after the run, with
  checkpoint waves parented to the innermost protocol span containing them.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional

from .registry import MetricsRegistry
from .trace import Span, SpanTracer


class Telemetry:
    """Holds the registry + tracer for one run, plus run-level metadata."""

    __slots__ = ("registry", "tracer", "meta", "_finalized")

    def __init__(self, clock=_time.time) -> None:
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(clock=clock)
        #: Run-level metadata (seed, scenario, ...) merged into trace headers.
        self.meta: Dict[str, object] = {}
        self._finalized = False

    # ------------------------------------------------------------- sampling
    def sample_queues(self, runtime) -> None:
        """Update queue-depth gauges (high-water tracked across calls).

        Called from the controller tick -- per control period, never per
        event, so the cost is bounded by executor count.
        """
        gauge = self.registry.gauge
        for executor_id in sorted(runtime.executors):
            executor = runtime.executors[executor_id]
            depth = getattr(executor, "queue_length", None)
            if depth is not None:
                gauge("executor", "queue_depth", executor=executor_id).set(depth)
        for source in runtime.source_executors:
            gauge("executor", "source_backlog", executor=source.executor_id).set(
                source.backlog_size
            )

    # ------------------------------------------------------------- scraping
    def scrape(self, runtime=None, provider=None, injector=None) -> None:
        """Fold the plain tallies of the hot components into the registry."""
        registry = self.registry
        if runtime is not None:
            sim = runtime.sim
            registry.counter("kernel", "events_stepped").set_total(sim.processed_events)
            registry.counter("kernel", "heap_compactions").set_total(sim.compactions)

            router = runtime.router
            registry.counter("router", "deliveries").set_total(router.routed_count)
            registry.counter("router", "route_cache_builds").set_total(router.plan_builds)
            registry.counter("router", "route_cache_hits").set_total(
                max(0, router.route_calls - router.plan_builds)
            )
            registry.counter("router", "batched_deliveries").set_total(
                router.batched_deliveries
            )

            stepper = runtime.batch_stepper
            if stepper is not None:
                # Engine-tier accounting: how much ran inline, and why each
                # source tick the stepper handed back was handed back.
                for name in ("cascades", "inline_events", "rounds", "scan_fallbacks",
                             "plan_builds"):
                    registry.counter("engine.batch", name).set_total(getattr(stepper, name))
                for reason in sorted(stepper.declines):
                    registry.counter("engine.batch", "declines", reason=reason).set_total(
                        stepper.declines[reason]
                    )

            # Kernel events the per-event engine did not execute: polls a
            # throttled spout parked through, 0 s sink completions run inline.
            sources = runtime.source_executors
            registry.counter("engine.source", "drain_parks").set_total(
                sum(s.drain_parks for s in sources)
            )
            registry.counter("engine.source", "drain_wakes").set_total(
                sum(s.drain_wakes for s in sources)
            )
            registry.counter("engine.sink", "inline_completions").set_total(
                sum(s.inline_completions for s in runtime.sink_executors)
            )

            by_task: Dict[str, List] = {}
            for executor in runtime.executors.values():
                by_task.setdefault(executor.task.name, []).append(executor)
            for task_name in sorted(by_task):
                members = by_task[task_name]
                registry.counter("executor", "processed", task=task_name).set_total(
                    sum(e.processed_count for e in members)
                )
                registry.counter("executor", "busy_time_s", task=task_name).set_total(
                    sum(e.busy_time_s for e in members)
                )
            for source in runtime.source_executors:
                task_name = source.task.name
                registry.counter("executor", "emitted", task=task_name).set_total(
                    sum(
                        s.emitted_count
                        for s in runtime.source_executors
                        if s.task.name == task_name
                    )
                )
                registry.counter("executor", "replayed", task=task_name).set_total(
                    sum(
                        s.replayed_count
                        for s in runtime.source_executors
                        if s.task.name == task_name
                    )
                )
            self.sample_queues(runtime)

            stats = runtime.acker.stats
            for field in (
                "registered",
                "completed",
                "failed",
                "anchors",
                "acks",
                "late_acks",
                "bulk_anchors",
                "bulk_acks",
            ):
                registry.counter("acker", field).set_total(getattr(stats, field))
            registry.counter("acker", "replays").set_total(
                sum(s.replayed_count for s in runtime.source_executors)
            )
            registry.gauge("acker", "pending_trees").set(runtime.acker.pending_count)

            waves: Dict[tuple, int] = {}
            durations: Dict[str, List[float]] = {}
            for wave in runtime.checkpoints.history:
                key = (wave.action.value, wave.status.value)
                waves[key] = waves.get(key, 0) + 1
                duration = wave.duration_s
                if duration is not None:
                    durations.setdefault(wave.action.value, []).append(duration)
            for action_value, status_value in sorted(waves):
                registry.counter(
                    "checkpoint", "waves", action=action_value, status=status_value
                ).set_total(waves[(action_value, status_value)])
            for action_value in sorted(durations):
                histogram = registry.histogram(
                    "checkpoint", "wave_duration_s", action=action_value
                )
                if histogram.count == 0:  # scrape() may run more than once
                    for duration in durations[action_value]:
                        histogram.observe(duration)

        if provider is not None:
            provisions: Dict[str, int] = {}
            for record in provider.billing_records:
                provisions[record.market] = provisions.get(record.market, 0) + 1
            for market in sorted(provisions):
                registry.counter("cloud", "provisions", market=market).set_total(
                    provisions[market]
                )
            registry.counter("cloud", "provisioning_failures").set_total(
                provider.provisioning_failures
            )
            breakdown = provider.cost_breakdown()
            for market in sorted(breakdown):
                registry.gauge("cloud", "cost", market=market).set(breakdown[market])
            registry.gauge("cloud", "cost_total").set(provider.total_cost())

        if injector is not None:
            faults: Dict[tuple, int] = {}
            for record in injector.records:
                key = (record.event.kind, record.outcome)
                faults[key] = faults.get(key, 0) + 1
            for kind, outcome in sorted(faults):
                registry.counter("chaos", "faults", kind=kind, outcome=outcome).set_total(
                    faults[(kind, outcome)]
                )

    # --------------------------------------------------- protocol synthesis
    def record_faults(self, records) -> List[Span]:
        """One ``chaos`` span per :class:`FaultRecord` (exactly one each)."""
        spans = []
        for record in records:
            start = record.fired_at if record.fired_at is not None else record.event.at_s
            end = record.killed_at
            if end is None:
                end = record.deadline if record.deadline is not None else start
            end = max(end, start)
            spans.append(
                self.tracer.emit(
                    f"fault.{record.event.kind}",
                    "chaos",
                    start,
                    end,
                    index=record.index,
                    kind=record.event.kind,
                    vm_id=record.vm_id,
                    outcome=record.outcome,
                    scheduled_at_s=record.event.at_s,
                    notice_s=record.event.notice_s,
                    deadline_s=record.deadline,
                )
            )
        return spans

    def record_arbiter(self, arbiter) -> List[Span]:
        """Zero-duration ``arbiter`` spans for every proposal and abort."""
        spans = []
        for record in list(arbiter.log) + list(arbiter.aborts):
            spans.append(
                self.tracer.emit(
                    f"proposal.{record.direction}",
                    "arbiter",
                    record.time,
                    record.time,
                    tenant=record.tenant_id,
                    slots_requested=record.slots_requested,
                    granted=record.granted,
                    reason=record.reason,
                    committed_before=record.committed_before,
                    committed_after=record.committed_after,
                    budget_slots=record.budget_slots,
                )
            )
        return spans

    def record_actions(
        self, actions, now: Optional[float] = None, tenant: Optional[str] = None
    ) -> List[Span]:
        """One ``migration`` span (plus phase children) per ScalingAction.

        ``now`` caps still-in-flight protocols at the end of the run;
        ``tenant`` labels multi-tenant runs.  Unenacted, unaborted decisions
        (still waiting on capacity) have no protocol interval and are skipped.
        """
        emit = self.tracer.emit
        spans: List[Span] = []
        for action in actions:
            start = action.enacted_at
            if start is None:
                if not action.aborted:
                    continue
                start = action.decided_at
            end = action.completed_at
            if end is None:
                end = now if now is not None and now > start else start
            span = emit(
                f"migration.{action.direction}",
                "migration",
                start,
                end,
                direction=action.direction,
                from_tier=action.from_tier,
                to_tier=action.to_tier,
                decided_at_s=action.decided_at,
                observed_rate_ev_s=action.observed_rate,
                forecast_rate_ev_s=action.forecast_rate,
                slo_escalated=action.slo_escalated,
                provision_counts=dict(action.provision_counts),
                kept_vms=len(action.kept_vm_ids),
                provisioned_vms=len(action.provisioned_vm_ids),
                aborted=action.aborted,
                tenant=tenant,
            )
            self._report_children(span, action.report)
            spans.append(span)
        return spans

    def _report_children(self, parent: Span, report) -> None:
        """Synthesize protocol-phase child spans from a MigrationReport."""
        if report is None:
            return
        emit = self.tracer.emit

        def phase(name: str, start: Optional[float], end: Optional[float], **args) -> None:
            if start is None or end is None or end < start:
                return
            emit(name, "checkpoint" if name.startswith("checkpoint") else "migration.phase",
                 start, end, parent=parent, **args)

        drain_start = report.drain_started_at
        if drain_start is None:
            drain_start = report.sources_paused_at
        phase(
            "checkpoint.prepare",
            drain_start,
            report.prepare_completed_at,
            checkpoint_id=report.checkpoint_id,
        )
        phase(
            "checkpoint.commit",
            report.prepare_completed_at,
            report.commit_completed_at,
            checkpoint_id=report.checkpoint_id,
        )
        rebalance = report.rebalance_record
        if rebalance is not None:
            end = rebalance.all_ready_at
            phase(
                "rebalance",
                rebalance.started_at,
                end,
                migrating=len(rebalance.migrating),
                staying=len(rebalance.staying),
                loaded=rebalance.loaded,
            )
            phase("state.restore", end, report.init_completed_at)
        rescale = report.rescale_record
        if rescale is not None:
            phase(
                "state.repartition",
                rescale.applied_at,
                rescale.applied_at,
                changes={task: list(pair) for task, pair in sorted(rescale.changes.items())},
                spawned=len(rescale.spawned),
                retired=len(rescale.retired),
                restarting=len(rescale.restarting),
            )

    def finalize(
        self,
        runtime=None,
        controller=None,
        provider=None,
        injector=None,
        tenant: Optional[str] = None,
    ) -> None:
        """Scrape final metrics and synthesize protocol spans from records.

        Idempotent: a second call is a no-op, so experiment helpers and the
        CLI can both call it without double-counting.
        """
        if self._finalized:
            return
        self._finalized = True
        now = runtime.sim.now if runtime is not None else None
        emit = self.tracer.emit
        protocol_spans: List[Span] = []

        def _end(value: Optional[float], start: float) -> float:
            if value is not None:
                return value
            return now if now is not None and now > start else start

        if controller is not None:
            protocol_spans.extend(
                self.record_actions(controller.actions, now=now, tenant=tenant)
            )
            for recovery in getattr(controller, "recoveries", []):
                span = emit(
                    f"recovery.{recovery.kind}",
                    "recovery",
                    recovery.failed_at,
                    _end(recovery.restored_at, recovery.failed_at),
                    vm_id=recovery.vm_id,
                    kind=recovery.kind,
                    lost_executors=len(recovery.lost_executors),
                    events_lost=recovery.events_lost,
                    trees_failed=recovery.trees_failed,
                    replacements=len(recovery.replacement_vm_ids),
                    provisioning_failures=recovery.provisioning_failures,
                    tenant=tenant,
                )
                if recovery.rebalanced_at is not None and recovery.restored_at is not None:
                    emit(
                        "state.restore",
                        "migration.phase",
                        recovery.rebalanced_at,
                        recovery.restored_at,
                        parent=span,
                    )
                protocol_spans.append(span)
            for evacuation in getattr(controller, "evacuations", []):
                fallback = evacuation.deadline if evacuation.overrun else None
                end = evacuation.completed_at if evacuation.completed_at is not None else fallback
                span = emit(
                    "evacuation",
                    "evacuation",
                    evacuation.notice_at,
                    _end(end, evacuation.notice_at),
                    vm_id=evacuation.vm_id,
                    deadline_s=evacuation.deadline,
                    evaded=evacuation.evaded,
                    overrun=evacuation.overrun,
                    migration_issued=evacuation.migration_issued,
                    replacements=len(evacuation.replacement_vm_ids),
                    replacement_market=evacuation.replacement_market,
                    tenant=tenant,
                )
                self._report_children(span, evacuation.report)
                protocol_spans.append(span)

        if runtime is not None:
            # Checkpoint waves nest inside the innermost protocol span whose
            # interval contains their start; periodic waves outside any
            # protocol surface as top-level checkpoint spans.
            for wave in runtime.checkpoints.history:
                parent = None
                for candidate in protocol_spans:
                    if candidate.start_s <= wave.started_at and (
                        candidate.end_s is None or wave.started_at <= candidate.end_s
                    ):
                        if parent is None or candidate.start_s >= parent.start_s:
                            parent = candidate
                emit(
                    f"checkpoint.wave.{wave.action.value}",
                    "checkpoint",
                    wave.started_at,
                    _end(wave.completed_at, wave.started_at),
                    parent=parent,
                    checkpoint_id=wave.checkpoint_id,
                    action=wave.action.value,
                    mode=wave.mode.value,
                    expected=len(wave.expected),
                    status=wave.status.value,
                    emit_count=wave.emit_count,
                )

        if injector is not None:
            self.record_faults(injector.records)

        self.scrape(runtime=runtime, provider=provider, injector=injector)
