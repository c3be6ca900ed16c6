"""Unit tests for the topology runtime: deployment, placement and rebalance."""

from __future__ import annotations

import pytest

from repro.cluster.placement import placement_diff
from repro.dataflow.event import CheckpointAction
from repro.elastic.planner import plan_user_tasks_on
from repro.engine.executor import ExecutorStatus
from repro.engine.runtime import RuntimeError_

from tests.conftest import build_cluster, fast_config, make_runtime, tiny_dataflow
from repro.engine.runtime import TopologyRuntime
from repro.cluster.cloud import CloudProvider
from repro.cluster.vm import D3
from repro.sim import Simulator


class TestDeployment:
    def test_deploy_creates_one_executor_per_instance(self, deployed_runtime):
        dataflow = deployed_runtime.dataflow
        expected = sum(task.parallelism for task in dataflow.tasks)
        assert len(deployed_runtime.executors) == expected

    def test_sources_and_sinks_pinned_to_util_vm(self, deployed_runtime):
        util = deployed_runtime.util_vm_id
        assert util is not None
        assert deployed_runtime.executor_vm("source#0") == util
        assert deployed_runtime.executor_vm("sink#0") == util

    def test_user_tasks_not_placed_on_util_vm(self, deployed_runtime):
        util = deployed_runtime.util_vm_id
        for executor in deployed_runtime.user_executors:
            assert executor.vm_id != util

    def test_slots_marked_occupied(self, deployed_runtime):
        placement = deployed_runtime.placement
        for executor_id, slot_id in placement.assignments.items():
            assert deployed_runtime.cluster.find_slot(slot_id).executor_id == executor_id

    def test_double_deploy_rejected(self, deployed_runtime):
        with pytest.raises(RuntimeError_):
            deployed_runtime.deploy()

    def test_start_before_deploy_rejected(self):
        sim = Simulator()
        runtime = TopologyRuntime(tiny_dataflow(), build_cluster(sim), sim=sim, config=fast_config())
        with pytest.raises(RuntimeError_):
            runtime.start()

    def test_periodic_checkpoints_enabled_only_for_dsm_config(self):
        committed = {}
        for strategy in ("dsm", "dcr"):
            runtime = make_runtime(strategy=strategy)
            runtime.start()
            runtime.sim.run(until=12.0)
            committed[strategy] = [wave.checkpoint_id for wave in runtime.checkpoints.history
                                   if wave.action is CheckpointAction.COMMIT]
        assert committed == {"dsm": [1, 2], "dcr": []}

    def test_user_executor_ids_cover_all_user_tasks(self, deployed_runtime):
        ids = deployed_runtime.user_executor_id_set()
        assert ids == {"a#0", "b#0", "b#1", "c#0"}


class TestRebalance:
    def _target_plan(self, runtime):
        provider = CloudProvider(runtime.sim)
        new_vms = provider.provision(D3, 2, name_prefix="new")
        for vm in new_vms:
            runtime.cluster.add_vm(vm)
        return plan_user_tasks_on(runtime, [vm.vm_id for vm in new_vms]), new_vms

    def test_rebalance_before_deploy_rejected(self):
        sim = Simulator()
        runtime = TopologyRuntime(tiny_dataflow(), build_cluster(sim), sim=sim, config=fast_config())
        with pytest.raises(RuntimeError_):
            runtime.rebalance(None)

    def test_rebalance_kills_migrating_executors_immediately(self):
        runtime = make_runtime()
        runtime.start()
        runtime.sim.run(until=2.0)
        new_plan, _ = self._target_plan(runtime)
        runtime.rebalance(new_plan)
        for executor in runtime.user_executors:
            assert executor.status is ExecutorStatus.KILLED

    def test_sources_and_sinks_never_migrate(self):
        runtime = make_runtime()
        runtime.start()
        runtime.sim.run(until=2.0)
        old_plan = runtime.placement
        new_plan, _ = self._target_plan(runtime)
        migrating, staying, _ = placement_diff(old_plan, new_plan)
        assert "source#0" in staying
        assert "sink#0" in staying
        runtime.rebalance(new_plan)
        assert runtime.executor("source#0").status is ExecutorStatus.RUNNING
        assert runtime.executor("sink#0").status is ExecutorStatus.RUNNING

    def test_rebalance_moves_executors_to_target_vms(self):
        runtime = make_runtime()
        runtime.start()
        runtime.sim.run(until=2.0)
        new_plan, new_vms = self._target_plan(runtime)
        target_ids = {vm.vm_id for vm in new_vms}
        runtime.rebalance(new_plan)
        runtime.sim.run(until=10.0)
        for executor in runtime.user_executors:
            assert executor.vm_id in target_ids
            assert executor.status is ExecutorStatus.RUNNING

    def test_old_slots_released_after_rebalance(self):
        runtime = make_runtime()
        runtime.start()
        runtime.sim.run(until=2.0)
        old_plan = runtime.placement
        old_user_slots = {
            slot for executor_id, slot in old_plan.assignments.items()
            if executor_id in runtime.user_executor_id_set()
        }
        new_plan, _ = self._target_plan(runtime)
        runtime.rebalance(new_plan)
        for slot_id in old_user_slots:
            assert not runtime.cluster.find_slot(slot_id).occupied

    def test_command_completion_callback_fires_after_command_duration(self):
        runtime = make_runtime()
        runtime.start()
        runtime.sim.run(until=2.0)
        new_plan, _ = self._target_plan(runtime)
        completions = []
        record = runtime.rebalance(new_plan, on_command_complete=lambda r: completions.append(runtime.sim.now))
        runtime.sim.run(until=10.0)
        assert len(completions) == 1
        assert completions[0] == pytest.approx(2.0 + record.command_duration_s)

    def test_ready_times_recorded_for_every_migrated_executor(self):
        runtime = make_runtime()
        runtime.start()
        runtime.sim.run(until=2.0)
        new_plan, _ = self._target_plan(runtime)
        record = runtime.rebalance(new_plan)
        runtime.sim.run(until=10.0)
        assert set(record.executor_ready_at) == record.migrating
        assert record.all_ready_at <= 10.0

    def test_loaded_flag_set_only_when_sources_running_with_acking(self):
        dsm_runtime = make_runtime(strategy="dsm")
        dsm_runtime.start()
        dsm_runtime.sim.run(until=2.0)
        plan, _ = self._target_plan(dsm_runtime)
        record = dsm_runtime.rebalance(plan)
        assert record.loaded

        dcr_runtime = make_runtime(strategy="dcr")
        dcr_runtime.start()
        dcr_runtime.sim.run(until=2.0)
        dcr_runtime.pause_sources()
        plan2, _ = self._target_plan(dcr_runtime)
        record2 = dcr_runtime.rebalance(plan2)
        assert not record2.loaded

    def test_events_sent_to_restarting_executors_are_held_by_transport(self):
        runtime = make_runtime(strategy="dsm")
        runtime.start()
        runtime.sim.run(until=2.0)
        new_plan, _ = self._target_plan(runtime)
        runtime.rebalance(new_plan)
        # The DSM source keeps emitting into the broken dataflow: the transport
        # defers those events until the restarted executors are ready, after
        # which nothing remains deferred.
        runtime.sim.run(until=2.3)
        assert len(runtime.log.deferred) > 0
        runtime.sim.run(until=10.0)
        assert not runtime._deferred_deliveries


class TestFailVm:
    def test_failing_the_util_vm_is_refused_by_role(self):
        """The sources and sinks live there and nothing re-places them: the run
        used to carry on, emitting and receiving nothing."""
        runtime = make_runtime(strategy="dsm")
        runtime.start()
        runtime.sim.run(until=2.0)
        with pytest.raises(RuntimeError_, match="'util' role.*sources and sinks"):
            runtime.fail_vm(runtime.util_vm_id)
        assert all(source.status is ExecutorStatus.RUNNING for source in runtime.source_executors)
