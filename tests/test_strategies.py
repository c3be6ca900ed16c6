"""Integration tests for the three migration strategies on the tiny dataflow.

Each test runs a full (fast-clock) migration and checks the protocol phases,
the reliability guarantees and the relative behaviour the paper claims.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cluster.cloud import CloudProvider
from repro.cluster.vm import D3
from repro.core import (
    CaptureCheckpointResume,
    DefaultStormMigration,
    DrainCheckpointRestore,
    compute_migration_metrics,
    strategy_by_name,
)
from repro.core.strategy import STRATEGIES, MigrationStrategy
from repro.dataflow.event import CheckpointAction
from repro.elastic.planner import plan_user_tasks_on
from repro.engine.executor import ExecutorStatus
from repro.reliability.checkpoint import WaveMode

from tests.conftest import fanout_dataflow, make_runtime, tiny_dataflow


def run_migration(strategy_name, dataflow=None, migrate_at=3.0, run_until=30.0, seed=7):
    """Deploy the tiny dataflow, migrate it with the given strategy, run to completion."""
    runtime = make_runtime(dataflow=dataflow, strategy=strategy_name, seed=seed)
    runtime.start()
    runtime.sim.run(until=migrate_at)

    provider = CloudProvider(runtime.sim)
    new_vms = provider.provision(D3, 2, name_prefix="target")
    for vm in new_vms:
        runtime.cluster.add_vm(vm)
    new_plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in new_vms])

    strategy_cls = strategy_by_name(strategy_name)
    strategy = strategy_cls(runtime, init_resend_interval_s=0.2)
    report = strategy.migrate(new_plan)
    runtime.sim.run(until=run_until)
    metrics = compute_migration_metrics(
        runtime.log,
        report,
        expected_output_rate=runtime.dataflow.output_rate(),
        dataflow_name=runtime.dataflow.name,
        scenario="test",
        end_time=runtime.sim.now,
    )
    return runtime, report, metrics


class TestRegistry:
    def test_all_three_strategies_registered(self):
        assert set(STRATEGIES) == {"dsm", "dcr", "ccr"}

    def test_lookup_by_name(self):
        assert strategy_by_name("dsm") is DefaultStormMigration
        assert strategy_by_name("DCR") is DrainCheckpointRestore
        assert strategy_by_name("ccr") is CaptureCheckpointResume

    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError):
            strategy_by_name("magic")

    def test_runtime_config_requirements(self):
        assert DefaultStormMigration.runtime_config().reliability.ack_all_events
        assert DefaultStormMigration.runtime_config().reliability.periodic_checkpoint_interval_s
        assert not DrainCheckpointRestore.runtime_config().reliability.ack_all_events
        # CCR's capture comes with its broadcast PREPARE, not from its config.
        assert CaptureCheckpointResume.runtime_config() == DrainCheckpointRestore.runtime_config()

    def test_the_three_strategies_migrate_with_one_signature(self):
        """One protocol, one call: DCR and CCR take no keyword DSM does not."""
        base = inspect.signature(MigrationStrategy.migrate)
        assert list(base.parameters) == ["self", "new_plan", "on_complete", "rescale"]
        assert [
            inspect.signature(cls.migrate)
            for cls in (DefaultStormMigration, DrainCheckpointRestore, CaptureCheckpointResume)
        ] == [base] * 3


class TestProtocolPhases:
    @pytest.mark.parametrize("name", ["dcr", "ccr"])
    def test_dcr_ccr_phase_ordering(self, name):
        _, report, _ = run_migration(name)
        assert report.is_complete
        assert report.sources_paused_at <= report.drain_started_at
        assert report.drain_started_at <= report.prepare_completed_at
        assert report.prepare_completed_at <= report.commit_completed_at
        assert report.commit_completed_at <= report.rebalance_started_at
        assert report.rebalance_started_at < report.rebalance_command_completed_at
        assert report.rebalance_command_completed_at <= report.init_completed_at
        assert report.init_completed_at <= report.sources_unpaused_at

    def test_dsm_rebalances_immediately_without_pausing(self):
        _, report, metrics = run_migration("dsm", run_until=40.0)
        assert report.sources_paused_at is None
        assert report.rebalance_started_at == pytest.approx(report.requested_at)
        assert metrics.drain_capture_duration_s == 0.0

    @pytest.mark.parametrize("name", ["dcr", "ccr"])
    def test_sources_stay_paused_until_init_completes(self, name):
        runtime, report, _ = run_migration(name)
        unpaused = [r for r in runtime.log.lifecycle if r.status == "unpaused"]
        assert len(unpaused) == 1
        assert unpaused[0].time == pytest.approx(report.init_completed_at)

    @pytest.mark.parametrize("name", ["dcr", "ccr"])
    def test_the_init_restores_the_migrations_own_checkpoint(self, name):
        runtime, report, _ = run_migration(name)
        cid = report.checkpoint_id
        init = runtime.checkpoints.wave(cid, CheckpointAction.INIT)
        assert init.mode is strategy_by_name(name).init_mode
        assert init.completed_at == report.init_completed_at
        assert runtime.checkpoints.wave(cid, CheckpointAction.COMMIT).completed_at <= report.rebalance_started_at

    def test_dsm_inits_from_the_last_commit_under_a_fresh_id(self):
        runtime, report, _ = run_migration("dsm", run_until=40.0)
        init = runtime.checkpoints.wave(report.checkpoint_id, CheckpointAction.INIT)
        assert init.mode is WaveMode.SEQUENTIAL
        assert init.completed_at == report.init_completed_at
        assert runtime.checkpoints.wave(report.checkpoint_id, CheckpointAction.PREPARE) is None

    def test_dsm_resends_init_at_the_ack_timeout_whatever_it_is_given(self):
        runtime = make_runtime(strategy="dsm")
        strategy = DefaultStormMigration(runtime, init_resend_interval_s=0.2)
        assert strategy.init_resend_interval_s == runtime.reliability.ack_timeout_s

    @pytest.mark.parametrize("name", ["dsm", "dcr", "ccr"])
    def test_all_user_executors_running_after_migration(self, name):
        runtime, _, _ = run_migration(name, run_until=40.0)
        for executor in runtime.user_executors:
            assert executor.status is ExecutorStatus.RUNNING
            assert executor.initialized

    @pytest.mark.parametrize("name", ["dsm", "dcr", "ccr"])
    def test_executors_end_up_on_target_vms(self, name):
        runtime, _, _ = run_migration(name, run_until=40.0)
        for executor in runtime.user_executors:
            assert executor.vm_id.startswith("target")


class TestOverlappingMigrations:
    def test_a_second_migrate_while_one_is_in_flight_is_refused(self):
        """It used to be accepted, two seconds into a DCR migration, and to
        return a report whose ``prepare_completed_at`` stayed ``None``."""
        from repro.engine.runtime import RuntimeError_

        runtime = make_runtime(strategy="dcr")
        runtime.start()
        runtime.sim.run(until=3.0)
        new_vms = CloudProvider(runtime.sim).provision(D3, 2, name_prefix="target")
        for vm in new_vms:
            runtime.cluster.add_vm(vm)
        plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in new_vms])
        first = DrainCheckpointRestore(runtime, init_resend_interval_s=0.2).migrate(plan)
        runtime.sim.run(until=5.0)
        assert not first.is_complete
        with pytest.raises(RuntimeError_, match="dcr migration requested at t=3.000s is still in flight"):
            CaptureCheckpointResume(runtime).migrate(plan)
        runtime.sim.run(until=30.0)
        assert first.is_complete and runtime.migration is first
        # ... and once it has completed, the next one is welcome.
        again = DrainCheckpointRestore(runtime, init_resend_interval_s=0.2).migrate(plan)
        runtime.sim.run(until=60.0)
        assert again.is_complete and again.prepare_completed_at is not None


class TestReliabilityGuarantees:
    @pytest.mark.parametrize("name", ["dcr", "ccr"])
    def test_no_message_loss_for_dcr_and_ccr(self, name):
        """Every root emitted before or during the migration reaches the sink."""
        runtime, _, metrics = run_migration(name, run_until=40.0)
        runtime.stop_sources()
        runtime.sim.run(until=60.0)
        emitted_roots = {e.root_id for e in runtime.log.source_emits}
        received_roots = {r.root_id for r in runtime.log.sink_receipts}
        assert emitted_roots == received_roots
        assert metrics.replayed_message_count == 0
        assert metrics.recovery_time_s is None

    @pytest.mark.parametrize("name", ["dcr", "ccr"])
    def test_no_duplicate_delivery_for_dcr_and_ccr(self, name):
        runtime, _, _ = run_migration(name, run_until=40.0)
        runtime.stop_sources()
        runtime.sim.run(until=60.0)
        roots = [r.root_id for r in runtime.log.sink_receipts]
        assert len(roots) == len(set(roots))

    def test_dsm_loses_in_flight_events_and_replays_them(self):
        runtime, _, metrics = run_migration("dsm", run_until=60.0)
        disrupted = (
            metrics.messages_lost_in_kills
            + sum(1 for drop in runtime.log.drops if drop.kind == "data")
            + len(runtime.log.deferred)
        )
        assert disrupted > 0
        assert metrics.replayed_message_count > 0

    def test_dsm_is_at_least_once(self):
        """With acking, every emitted root is eventually seen at the sink (possibly more than once)."""
        runtime, _, _ = run_migration("dsm", run_until=60.0)
        runtime.stop_sources()
        runtime.sim.run(until=90.0)
        emitted_roots = {e.root_id for e in runtime.log.source_emits}
        received_roots = {r.root_id for r in runtime.log.sink_receipts}
        missing = emitted_roots - received_roots
        # Everything except possibly the last few in-flight events must arrive.
        assert len(missing) <= 3

    def test_ccr_restores_captured_events_after_rebalance(self):
        # Use a heavily utilised chain (90 % busy) so in-flight events exist at
        # capture time.
        busy = tiny_dataflow(rate=10.0, latency_s=0.09)
        runtime, report, _ = run_migration("ccr", dataflow=busy, run_until=40.0)
        # Some executor must have captured in-flight events, and they must have
        # been persisted (pending lists in the store) and replayed after INIT.
        committed_pending = sum(
            len(runtime.statestore.peek(key)["pending"])
            for key in runtime.statestore.keys()
            if runtime.statestore.peek(key) is not None
        )
        assert committed_pending > 0

    def test_dcr_drains_dataflow_before_rebalance(self):
        runtime, report, _ = run_migration("dcr", run_until=40.0)
        # At the moment the rebalance started, no data events were queued
        # anywhere (the drain guarantee): every kill lost zero queued events.
        kills_during_migration = [k for k in runtime.log.kills if k.time >= report.requested_at]
        assert kills_during_migration
        assert all(k.queued_events_lost == 0 for k in kills_during_migration)
        assert all(k.pending_events_lost == 0 for k in kills_during_migration)

    def test_ccr_kills_lose_no_unpersisted_events(self):
        runtime, report, _ = run_migration("ccr", run_until=40.0)
        kills_during_migration = [k for k in runtime.log.kills if k.time >= report.requested_at]
        assert kills_during_migration
        assert all(k.queued_events_lost == 0 for k in kills_during_migration)

    def test_stateful_task_state_survives_migration(self):
        runtime, report, _ = run_migration("dcr", run_until=40.0)
        executor = runtime.executor("a#0")
        receipts_before = sum(
            1 for e in runtime.log.source_emits if e.time < report.requested_at
        )
        # The restored counter must be at least the number of events processed
        # before the migration (state restored, then new events added to it).
        assert executor.state.get("processed", 0) >= receipts_before - 2


class TestRelativePerformance:
    def test_restore_ordering_ccr_fastest_dsm_slowest(self):
        results = {
            name: run_migration(name, dataflow=fanout_dataflow(), run_until=60.0)[2]
            for name in ("dsm", "dcr", "ccr")
        }
        assert results["ccr"].restore_duration_s <= results["dcr"].restore_duration_s + 1e-6
        assert results["dcr"].restore_duration_s < results["dsm"].restore_duration_s

    def test_only_dsm_has_recovery_time(self):
        for name in ("dcr", "ccr"):
            _, _, metrics = run_migration(name, run_until=40.0)
            assert metrics.recovery_time_s is None
        _, _, dsm_metrics = run_migration("dsm", run_until=60.0)
        assert dsm_metrics.recovery_time_s is not None

    def test_dcr_has_no_catchup_ccr_may(self):
        _, _, dcr_metrics = run_migration("dcr", run_until=40.0)
        assert dcr_metrics.catchup_time_s is None

    def test_capture_is_faster_than_drain(self):
        _, dcr_report, _ = run_migration("dcr", run_until=40.0)
        _, ccr_report, _ = run_migration("ccr", run_until=40.0)
        assert ccr_report.drain_capture_duration_s < dcr_report.drain_capture_duration_s
