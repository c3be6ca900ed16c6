"""Telemetry: a run's trace, read from what the run recorded.

Nothing traces while a simulation runs.  The control loop and the protocols
keep typed records -- one :class:`~repro.elastic.controller.TickRecord` per
control tick, one :class:`~repro.elastic.controller.Reconfiguration` per
scaling action, evacuation or recovery, ``CheckpointWave``, ``FaultRecord``,
the arbiter's ``ProposalRecord`` -- and hot components keep plain tallies
(``Simulator.processed_events``, ``Router.routed_count``, executor counters,
...).  After the run,
:meth:`Telemetry.from_run` (one single-fleet run) and
:meth:`Telemetry.from_tenants` (the tenants of one shared fleet) read them
into a fresh :class:`Telemetry`:

* **Tick spans** -- one ``controller.tick`` span per tick with five stage
  children (``sense``, ``forecast``, ``plan``, ``place``, ``act``), written
  from the tick's ``Decision``, place request and arbiter verdict;
* **Protocol spans** -- migrations with their phase children, recoveries,
  evacuations, checkpoint waves (parented to the innermost protocol span
  containing them), injected faults and arbiter proposals;
* **Scraped metrics** -- :meth:`Telemetry.scrape` folds the tallies into the
  registry; the queue gauges are replayed tick by tick first, so each keeps
  its high-water mark.

Building a trace only reads the run: build it twice and the canonical text
is the same.  A span's wall-clock stamps are the time the trace was built;
canonical content excludes them.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Mapping, Optional, Tuple

from .registry import MetricsRegistry
from .trace import Span, SpanTracer

#: ``(executor id, count)`` pairs: the queue levels one gauge family reads.
Levels = Tuple[Tuple[str, int], ...]

_STAGES = ("sense", "forecast", "plan", "place", "act")
#: The order a trace lists reconfiguration spans in, by reason.
_SPAN_ORDER = ("scale", "recover", "evacuate")


def queue_levels(runtime) -> Tuple[Levels, Levels]:
    """Every executor's input-queue length (in id order) and every source's backlog."""
    executors = runtime.executors
    return (
        tuple((eid, executors[eid].queue_length) for eid in sorted(executors)),
        tuple((source.executor_id, source.backlog_size) for source in runtime.source_executors),
    )


class Telemetry:
    """Holds the registry + tracer of one trace, plus run-level metadata."""

    __slots__ = ("registry", "tracer", "meta")

    def __init__(self, clock=_time.time) -> None:
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(clock=clock)
        #: Run-level metadata (seed, scenario, ...) merged into trace headers.
        self.meta: Dict[str, object] = {}

    # ------------------------------------------------------------- sampling
    def _set_queues(self, queue_depths: Levels, source_backlogs: Levels, **label: str) -> None:
        """Set the queue gauges (each tracks its high-water mark across calls)."""
        gauge = self.registry.gauge
        for executor_id, depth in queue_depths:
            gauge("executor", "queue_depth", executor=executor_id, **label).set(depth)
        for executor_id, backlog in source_backlogs:
            gauge("executor", "source_backlog", executor=executor_id, **label).set(backlog)

    # ------------------------------------------------------------- scraping
    def scrape(self, runtime, provider=None, injector=None) -> None:
        """Fold the plain tallies of the hot components into the registry."""
        self._scrape_kernel(runtime.sim)
        self._scrape_runtime(runtime)
        registry = self.registry
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

    def _scrape_kernel(self, sim) -> None:
        """Fold the simulator's tallies (shared by the tenants of one fleet)."""
        registry = self.registry
        registry.counter("kernel", "events_stepped").set_total(sim.processed_events)
        registry.counter("kernel", "heap_compactions").set_total(sim.compactions)

    def _scrape_runtime(self, runtime, **label: str) -> None:
        """Fold one runtime's tallies, each series carrying ``label`` (a
        shared fleet's ``tenant``)."""
        registry = self.registry
        router = runtime.router
        registry.counter("router", "deliveries", **label).set_total(router.routed_count)
        registry.counter("router", "route_cache_builds", **label).set_total(router.plan_builds)
        registry.counter("router", "route_cache_hits", **label).set_total(
            max(0, router.route_calls - router.plan_builds)
        )

        stepper = runtime.batch_stepper
        if stepper is not None:
            # Engine-tier accounting: how much ran inline, and why each
            # source tick the stepper handed back was handed back.
            for name in ("cascades", "inline_events", "rounds", "scan_fallbacks",
                         "plan_builds"):
                registry.counter("engine.batch", name, **label).set_total(getattr(stepper, name))
            for reason in sorted(stepper.declines):
                registry.counter("engine.batch", "declines", reason=reason, **label).set_total(
                    stepper.declines[reason]
                )

        # Kernel events the per-event engine did not execute: polls a
        # throttled spout parked through, 0 s sink completions run inline.
        sources = runtime.source_executors
        registry.counter("engine.source", "drain_parks", **label).set_total(
            sum(s.drain_parks for s in sources)
        )
        registry.counter("engine.source", "drain_wakes", **label).set_total(
            sum(s.drain_wakes for s in sources)
        )
        registry.counter("engine.sink", "inline_completions", **label).set_total(
            sum(s.inline_completions for s in runtime.sink_executors)
        )

        by_task: Dict[str, List] = {}
        for executor in runtime.executors.values():
            by_task.setdefault(executor.task.name, []).append(executor)
        for task_name in sorted(by_task):
            members = by_task[task_name]
            registry.counter("executor", "processed", task=task_name, **label).set_total(
                sum(e.processed_count for e in members)
            )
            registry.counter("executor", "busy_time_s", task=task_name, **label).set_total(
                sum(e.busy_time_s for e in members)
            )
        for source in runtime.source_executors:
            task_name = source.task.name
            registry.counter("executor", "emitted", task=task_name, **label).set_total(
                sum(
                    s.emitted_count
                    for s in runtime.source_executors
                    if s.task.name == task_name
                )
            )
            registry.counter("executor", "replayed", task=task_name, **label).set_total(
                sum(
                    s.replayed_count
                    for s in runtime.source_executors
                    if s.task.name == task_name
                )
            )
        self._set_queues(*queue_levels(runtime), **label)

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
            registry.counter("acker", field, **label).set_total(getattr(stats, field))
        registry.counter("acker", "replays", **label).set_total(
            sum(s.replayed_count for s in runtime.source_executors)
        )
        registry.gauge("acker", "pending_trees", **label).set(runtime.acker.pending_count)

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
                "checkpoint", "waves", action=action_value, status=status_value, **label
            ).set_total(waves[(action_value, status_value)])
        for action_value in sorted(durations):
            histogram = registry.histogram(
                "checkpoint", "wave_duration_s", action=action_value, **label
            )
            if histogram.count == 0:  # scrape() may run more than once
                for duration in durations[action_value]:
                    histogram.observe(duration)

    # --------------------------------------------------- protocol synthesis
    def _record_ticks(self, ticks, tenant: Optional[str] = None) -> None:
        """One ``controller.tick`` span per tick record, five stage children each.

        The stages a decision never reached are written as ``skipped`` with
        the reason, and the tick span is closed with it.  ``tenant`` labels
        the tick spans of a shared-fleet run.
        """
        tracer = self.tracer
        label = {} if tenant is None else {"tenant": tenant}
        for tick in ticks:
            decision = tick.decision
            sample, target, outcome = decision.sample, decision.target, decision.outcome
            stages: Dict[str, Dict[str, object]] = {"sense": dict(
                input_rate_ev_s=sample.input_rate,
                offered_rate_ev_s=sample.offered_rate,
                output_rate_ev_s=sample.output_rate,
                avg_latency_s=sample.avg_latency_s,
                queue_backlog=sample.queue_backlog,
                source_backlog=sample.source_backlog,
                sources_paused=sample.sources_paused,
                slo_breached=decision.slo_breached,
            )}
            closing: Dict[str, object] = {"outcome": "skipped", "reason": outcome}
            if target is not None:
                stages["forecast"] = dict(
                    observed_rate_ev_s=sample.offered_rate,
                    forecast_rate_ev_s=decision.forecast_rate_ev_s,
                    horizon_s=decision.horizon_s,
                )
                stages["plan"] = dict(
                    current_tier=tick.tier,
                    target_tier=target.tier,
                    rescale=(
                        dict(sorted(target.rescale.targets.items()))
                        if target.rescale is not None
                        else None
                    ),
                    slo_escalated=decision.slo_escalated,
                    pending_count=decision.pending_count,
                    outcome=outcome,
                )
                closing = {"outcome": outcome}
            if outcome == "enact":
                stages["place"] = dict(
                    direction=decision.direction,
                    provision_counts=dict(sorted(tick.request.vm_counts.items())),
                    kept_vm_ids=sorted(tick.request.keep_vm_ids),
                )
                stages["act"] = {"outcome": "deferred"}
                closing = {"outcome": "deferred"}
                if tick.verdict.granted:
                    stages["act"] = dict(
                        outcome="provisioned",
                        direction=decision.direction,
                        from_tier=tick.tier,
                        to_tier=target.tier,
                        provisioned_vm_ids=sorted(tick.provisioned_vm_ids),
                    )
                    closing = {"outcome": "enacted"}
            now = sample.time
            span = tracer.begin("controller.tick", "control", now, tier=tick.tier, **label)
            for name in _STAGES:
                args = stages.get(name, {"skipped": outcome})
                tracer.emit(name, "control.stage", now, now, parent=span, **args)
            tracer.end(span, now, **closing)

    def _record_faults(self, records) -> None:
        """One ``chaos`` span per :class:`FaultRecord` (exactly one each)."""
        for record in records:
            start = record.fired_at if record.fired_at is not None else record.event.at_s
            end = record.killed_at
            if end is None:
                end = record.deadline if record.deadline is not None else start
            end = max(end, start)
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

    def _record_arbiter(self, arbiter) -> None:
        """Zero-duration ``arbiter`` spans for every proposal and abort."""
        for record in list(arbiter.log) + list(arbiter.aborts):
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

    def _record_reconfigurations(self, records, now: float,
                                 tenant: Optional[str] = None) -> List[Span]:
        """One span per :class:`~repro.elastic.controller.Reconfiguration`.

        Spans come out by reason -- every ``migration`` (with its phase
        children), then every ``recovery`` (with its ``state.restore`` child),
        then every ``evacuation`` -- each in the order opened.  ``now`` caps
        still-open ones at the end of the run; ``tenant`` labels shared-fleet
        runs.  An unenacted, unaborted scaling action (still waiting on
        capacity) has no protocol interval and is skipped.
        """
        emit = self.tracer.emit
        spans: List[Span] = []
        for reconf in sorted(records, key=lambda r: _SPAN_ORDER.index(r.reason)):
            if reconf.reason == "scale":
                start = reconf.enacted_at
                if start is None:
                    if not reconf.aborted:
                        continue
                    start = reconf.decided_at
                end = reconf.completed_at
                name, category = f"migration.{reconf.direction}", "migration"
                args = dict(
                    direction=reconf.direction,
                    from_tier=reconf.from_tier,
                    to_tier=reconf.to_tier,
                    decided_at_s=reconf.decided_at,
                    observed_rate_ev_s=reconf.observed_rate,
                    forecast_rate_ev_s=reconf.forecast_rate,
                    slo_escalated=reconf.slo_escalated,
                    provision_counts=dict(reconf.provision_counts),
                    kept_vms=len(reconf.kept_vm_ids),
                    provisioned_vms=len(reconf.provisioned_vm_ids),
                    aborted=reconf.aborted,
                )
            elif reconf.reason == "recover":
                start, end = reconf.failed_at, reconf.restored_at
                name, category = f"recovery.{reconf.kind}", "recovery"
                args = dict(
                    vm_id=reconf.vm_id,
                    kind=reconf.kind,
                    lost_executors=len(reconf.lost_executors),
                    events_lost=reconf.events_lost,
                    trees_failed=reconf.trees_failed,
                    replacements=len(reconf.replacement_vm_ids),
                    provisioning_failures=reconf.provisioning_failures,
                )
            else:
                start, end = reconf.notice_at, reconf.completed_at
                if end is None and reconf.overrun:
                    end = reconf.deadline
                name = category = "evacuation"
                args = dict(
                    vm_id=reconf.vm_id,
                    deadline_s=reconf.deadline,
                    evaded=reconf.evaded,
                    overrun=reconf.overrun,
                    migration_issued=reconf.migration_issued,
                    replacements=len(reconf.replacement_vm_ids),
                    replacement_market=reconf.replacement_market,
                )
            if end is None:
                end = now if now > start else start
            span = emit(name, category, start, end, **args, tenant=tenant)
            if reconf.rebalanced_at is not None and reconf.restored_at is not None:
                emit("state.restore", "migration.phase", reconf.rebalanced_at,
                     reconf.restored_at, parent=span)
            self._report_children(span, reconf.report)
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

    def _record_waves(self, history, protocol_spans: List[Span], now: float,
                      tenant: Optional[str] = None) -> None:
        """One ``checkpoint.wave.*`` span per checkpoint wave in ``history``.

        A wave nests inside the innermost of ``protocol_spans`` whose interval
        contains its start; a periodic wave outside any protocol is a
        top-level span.  ``now`` caps a wave still open at the end of the
        run; ``tenant`` labels shared-fleet runs.
        """
        label = {} if tenant is None else {"tenant": tenant}
        for wave in history:
            parent = None
            for candidate in protocol_spans:
                if candidate.start_s <= wave.started_at <= candidate.end_s:
                    if parent is None or candidate.start_s >= parent.start_s:
                        parent = candidate
            end = wave.completed_at
            if end is None:
                end = now if now > wave.started_at else wave.started_at
            self.tracer.emit(
                f"checkpoint.wave.{wave.action.value}",
                "checkpoint",
                wave.started_at,
                end,
                parent=parent,
                checkpoint_id=wave.checkpoint_id,
                action=wave.action.value,
                mode=wave.mode.value,
                expected=len(wave.expected),
                status=wave.status.value,
                emit_count=wave.emit_count,
                **label,
            )

    # ------------------------------------------------------------- builders
    @classmethod
    def from_run(cls, runtime, controller, provider=None, injector=None,
                 meta: Optional[Mapping[str, object]] = None) -> "Telemetry":
        """The trace of one single-fleet closed-loop run, read from its records.

        Tick spans come first, in tick order, then migrations, recoveries,
        evacuations, checkpoint waves and faults (protocols still open at the
        end of the run are capped there), then the scraped metrics.
        """
        telemetry = cls()
        telemetry.meta.update(meta or {})
        telemetry._record_ticks(controller.ticks)
        now = runtime.sim.now
        protocol_spans = telemetry._record_reconfigurations(controller.reconfigurations, now)
        telemetry._record_waves(runtime.checkpoints.history, protocol_spans, now)

        if injector is not None:
            telemetry._record_faults(injector.records)

        # The queue gauges as each tick saw them, so each keeps its
        # high-water mark; the scrape then sets the values the run ended on.
        for tick in controller.ticks:
            telemetry._set_queues(tick.queue_depths, tick.source_backlogs)
        telemetry.scrape(runtime, provider=provider, injector=injector)
        return telemetry

    @classmethod
    def from_tenants(cls, controllers: Mapping[str, object], arbiter, now: float,
                     meta: Optional[Mapping[str, object]] = None) -> "Telemetry":
        """The trace of a shared-fleet run: every tenant's ticks, then every
        tenant's reconfigurations, labelled with the tenant, then the
        arbiter's verdicts, then every tenant's checkpoint waves, labelled;
        then the shared kernel's metrics and each tenant's scrape, labelled
        with the tenant."""
        telemetry = cls()
        telemetry.meta.update(meta or {})
        names = sorted(controllers)
        for name in names:
            telemetry._record_ticks(controllers[name].ticks, tenant=name)
        protocol_spans = {
            name: telemetry._record_reconfigurations(
                controllers[name].reconfigurations, now, tenant=name
            )
            for name in names
        }
        telemetry._record_arbiter(arbiter)
        for name in names:
            telemetry._record_waves(controllers[name].runtime.checkpoints.history,
                                    protocol_spans[name], now, tenant=name)
        telemetry._scrape_kernel(controllers[names[0]].runtime.sim)
        for name in names:
            controller = controllers[name]
            for tick in controller.ticks:
                telemetry._set_queues(tick.queue_depths, tick.source_backlogs, tenant=name)
            telemetry._scrape_runtime(controller.runtime, tenant=name)
        return telemetry
