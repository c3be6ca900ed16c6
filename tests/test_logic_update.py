"""Tests for the DCR task-logic update extension (the paper's future-work item).

DCR establishes a clean boundary between pre- and post-migration events, which
makes it safe to swap a task's user logic as part of the migration: old events
are processed entirely by the old logic, new events entirely by the new logic.
"""

from __future__ import annotations

import pytest

from repro.cluster.cloud import CloudProvider
from repro.cluster.vm import D3
from repro.core import DrainCheckpointRestore, strategy_by_name
from repro.elastic.planner import plan_user_tasks_on
from repro.engine.runtime import TopologyRuntime
from repro.sim import Simulator

from tests.conftest import build_cluster, fast_config, make_runtime, tiny_dataflow


def tagging_logic(tag):
    """User logic that tags every payload it emits with the given label."""

    def _logic(payload, state):
        state["processed"] = state.get("processed", 0) + 1
        tagged = dict(payload) if isinstance(payload, dict) else {"value": payload}
        tagged["logic"] = tag
        return [tagged]

    return _logic


def run_dcr_with_update(logic_updates, migrate_at=3.0, run_until=30.0):
    runtime = make_runtime(strategy="dcr", seed=13)
    # Install the "old" logic on task b before starting.
    runtime.dataflow.task("b").logic = tagging_logic("v1")
    runtime.start()
    runtime.sim.run(until=migrate_at)

    provider = CloudProvider(runtime.sim)
    new_vms = provider.provision(D3, 2, name_prefix="target")
    for vm in new_vms:
        runtime.cluster.add_vm(vm)
    new_plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in new_vms])

    strategy = DrainCheckpointRestore(runtime, init_resend_interval_s=0.2)
    report = strategy.migrate(new_plan, logic_updates=logic_updates)
    runtime.sim.run(until=run_until)
    return runtime, report


class TestLogicUpdate:
    def test_new_logic_applies_only_after_migration(self):
        runtime, report = run_dcr_with_update({"b": tagging_logic("v2")})
        assert report.is_complete
        # Payload contents are not logged, so verify the swap via the task
        # object and the report's note about when it was applied.
        assert runtime.dataflow.task("b").logic("probe", {})[0]["logic"] == "v2"
        assert any(key.startswith("logic_updated:b") for key in report.notes)
        # The logic swap happened after the restore completed and before (or at)
        # the moment the sources were unpaused.
        assert report.notes["logic_updated:b"] >= report.init_completed_at
        assert report.notes["logic_updated:b"] <= report.sources_unpaused_at

    def test_events_keep_flowing_after_logic_update(self):
        runtime, report = run_dcr_with_update({"b": tagging_logic("v2")})
        post_receipts = [r for r in runtime.log.sink_receipts if r.time > report.sources_unpaused_at]
        assert post_receipts

    def test_no_message_loss_with_logic_update(self):
        runtime, report = run_dcr_with_update({"b": tagging_logic("v2")})
        runtime.stop_sources()
        runtime.sim.run(until=60.0)
        emitted = {e.root_id for e in runtime.log.source_emits}
        received = {r.root_id for r in runtime.log.sink_receipts}
        assert emitted == received

    def test_unknown_task_rejected(self):
        runtime = make_runtime(strategy="dcr", seed=13)
        runtime.start()
        runtime.sim.run(until=1.0)
        provider = CloudProvider(runtime.sim)
        new_vms = provider.provision(D3, 2, name_prefix="target")
        for vm in new_vms:
            runtime.cluster.add_vm(vm)
        plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in new_vms])
        strategy = DrainCheckpointRestore(runtime)
        with pytest.raises(KeyError):
            strategy.migrate(plan, logic_updates={"ghost": tagging_logic("v2")})

    def test_ccr_inherits_logic_update_support(self):
        """CCR can also swap logic, though captured old events then see the new logic."""
        runtime = make_runtime(strategy="ccr", seed=13)
        runtime.start()
        runtime.sim.run(until=3.0)
        provider = CloudProvider(runtime.sim)
        new_vms = provider.provision(D3, 2, name_prefix="target")
        for vm in new_vms:
            runtime.cluster.add_vm(vm)
        plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in new_vms])
        strategy_cls = strategy_by_name("ccr")
        strategy = strategy_cls(runtime, init_resend_interval_s=0.2)
        report = strategy.migrate(plan, logic_updates={"c": tagging_logic("v2")})
        runtime.sim.run(until=30.0)
        assert report.is_complete
        assert runtime.dataflow.task("c").logic("probe", {})[0]["logic"] == "v2"


class TestLogicUpdateUnderBatchStepping:
    """The batch stepper sweeps a stretch without calling ``task.logic`` only
    while every task runs the default dummy logic.  That used to be decided
    once per runtime, so logic installed by a migration was skipped for every
    event a later vectorized cascade swept."""

    @pytest.mark.parametrize("batch_stepping", [False, True], ids=["classic", "stepper"])
    def test_new_logic_is_called_once_per_post_migration_event(self, batch_stepping):
        config = fast_config("dcr", seed=13)
        config.batch_stepping = batch_stepping
        sim = Simulator()
        runtime = TopologyRuntime(tiny_dataflow(), build_cluster(sim), sim=sim, config=config)
        runtime.deploy()
        runtime.start()
        calls = []

        def counting_logic(payload, state):
            calls.append(payload)
            return [payload]

        report = None
        while sim.now < 40.0:
            if report is None and sim.now >= 3.0:
                vms = CloudProvider(sim).provision(D3, 2, name_prefix="target")
                for vm in vms:
                    runtime.cluster.add_vm(vm)
                plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in vms])
                report = DrainCheckpointRestore(runtime, init_resend_interval_s=0.2).migrate(
                    plan, logic_updates={"b": counting_logic}
                )
            # 25 roots a window: above the stepper's cost-rule floor.
            sim.run(until=sim.now + 2.5)
        runtime.stop_sources()
        sim.run(until=60.0)

        assert report.is_complete
        updated_at = report.notes["logic_updated:b"]
        post = [r for r in runtime.log.sink_receipts if r.time > updated_at]
        assert len(post) > 300
        # DCR drains every old event before the update: what reaches the sink
        # afterwards went through the new logic, each event exactly once.
        assert len(calls) == len(post)
        stepper = runtime.batch_stepper
        if stepper is not None:
            # Swept before the update, declined by name after it.
            assert stepper.cascades > 0
            assert stepper.declines.get("custom-logic", 0) > 0
            # ... from the structural verdict, re-taken when the update
            # dropped it: no plan is compiled for a dataflow it turns down.
            assert stepper.plan_builds == 1
