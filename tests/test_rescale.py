"""Parallelism elasticity: rescaling task instance counts during migration.

Covers the whole stack of the rescale feature: plan validation at the
dataflow layer, executor spawning/retiring in the runtime, the rescale hooks
of all three migration strategies (with FIELDS re-keying and grouped-state
re-partitioning), the planner's capacity-adding targets, and the
capacity-vs-placement comparison experiment.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster.cloud import CloudProvider
from repro.cluster.vm import D3
from repro.core import strategy_by_name
from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.graph import (
    DataflowValidationError,
    RescalePlan,
    exact_instance_ceiling,
)
from repro.dataflow.grouping import Grouping, stable_field_index
from repro.elastic import AllocationPlanner
from repro.elastic.planner import plan_user_tasks_on
from repro.engine.executor import ExecutorStatus
from repro.experiments.rescale import capacity_wins, latency_improvement, run_rescale_experiment
from repro.reliability.repartition import PARTITIONED_STATE_KEY

from tests.conftest import make_runtime, tiny_dataflow

NUM_KEYS = 7


def keyed_logic(payload, state):
    """Stateful per-key counting: the canonical grouped-state workload."""
    counts = state.setdefault(PARTITIONED_STATE_KEY, {})
    key = str(payload["key"])
    counts[key] = counts.get(key, 0) + 1
    state["processed"] = state.get("processed", 0) + 1
    return [payload]


def keyed_dataflow(rate: float = 10.0, latency_s: float = 0.02, keyed_parallelism: int = 2):
    """source -> keyed (FIELDS, stateful) -> tail -> sink."""
    builder = TopologyBuilder("keyed")
    builder.add_source(
        "source",
        rate=rate,
        payload_factory=lambda seq: {"key": f"k{seq % NUM_KEYS}", "seq": seq},
    )
    builder.add_task(
        "keyed", parallelism=keyed_parallelism, latency_s=latency_s,
        stateful=True, logic=keyed_logic,
    )
    builder.add_task("tail", parallelism=1, latency_s=latency_s)
    builder.add_sink("sink")
    builder.connect("source", "keyed", grouping=Grouping.FIELDS)
    builder.connect("keyed", "tail")
    builder.connect("tail", "sink")
    return builder.build()


def migrate_with_rescale(strategy_name, rescale, dataflow=None, migrate_at=3.0,
                         stop_at=20.0, run_until=30.0, seed=7):
    """Run a full migration with a rescale; sources stop before the end so the
    dataflow drains and loss/duplication can be asserted exactly."""
    runtime = make_runtime(
        dataflow=dataflow if dataflow is not None else keyed_dataflow(),
        strategy=strategy_name, seed=seed,
    )
    runtime.start()
    runtime.sim.run(until=migrate_at)

    provider = CloudProvider(runtime.sim)
    new_vms = provider.provision(D3, 2, name_prefix="target")
    for vm in new_vms:
        runtime.cluster.add_vm(vm)
    vm_ids = [vm.vm_id for vm in new_vms]

    strategy = strategy_by_name(strategy_name)(runtime, init_resend_interval_s=0.2)
    report = strategy.migrate(
        lambda rt: plan_user_tasks_on(rt, vm_ids),
        rescale=rescale,
    )
    runtime.sim.run(until=stop_at)
    runtime.stop_sources()
    runtime.sim.run(until=run_until)
    return runtime, report


class TestRescalePlanValidation:
    def test_unknown_task_rejected(self):
        with pytest.raises(DataflowValidationError):
            RescalePlan({"ghost": 2}).validate(tiny_dataflow())

    def test_source_and_sink_rejected(self):
        dataflow = tiny_dataflow()
        with pytest.raises(DataflowValidationError):
            RescalePlan({"source": 2}).validate(dataflow)
        with pytest.raises(DataflowValidationError):
            RescalePlan({"sink": 2}).validate(dataflow)

    def test_nonpositive_parallelism_rejected(self):
        with pytest.raises(DataflowValidationError):
            RescalePlan({"a": 0}).validate(tiny_dataflow())

    def test_changes_and_noop(self):
        dataflow = tiny_dataflow()  # a:1, b:2, c:1
        plan = RescalePlan({"a": 1, "b": 3})
        assert plan.changes(dataflow) == {"b": (2, 3)}
        assert not plan.is_noop(dataflow)
        assert RescalePlan({"b": 2}).is_noop(dataflow)

    def test_set_parallelism_validates(self):
        dataflow = tiny_dataflow()
        dataflow.set_parallelism("b", 4)
        assert dataflow.task("b").parallelism == 4
        with pytest.raises(DataflowValidationError):
            dataflow.set_parallelism("source", 2)
        with pytest.raises(DataflowValidationError):
            dataflow.set_parallelism("b", 0)


class TestExactCeiling:
    def test_exact_multiples_do_not_round_up(self):
        assert exact_instance_ceiling(24.0, 8.0) == 3
        assert exact_instance_ceiling(8.0, 8.0) == 1

    def test_partial_instance_rounds_up(self):
        assert exact_instance_ceiling(24.1, 8.0) == 4
        assert exact_instance_ceiling(0.01, 8.0) == 1

    def test_zero_rate_needs_nothing(self):
        assert exact_instance_ceiling(0.0, 8.0) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            exact_instance_ceiling(8.0, 0.0)

    def test_summed_branch_rates_stay_exact(self):
        """Three 8 ev/s branches fan into one task: exactly 3 instances, not 4."""
        builder = TopologyBuilder("fan3")
        builder.add_source("src", rate=8.0)
        for name in ("a", "b", "c"):
            builder.add_task(name)
        builder.add_task("merge")
        builder.add_sink("sink")
        builder.fan_out("src", ["a", "b", "c"])
        builder.fan_in(["a", "b", "c"], "merge")
        builder.connect("merge", "sink")
        dataflow = builder.build(auto_parallelism=True, events_per_instance=8.0)
        assert dataflow.task("merge").parallelism == 3


class TestRuntimeApplyRescale:
    def test_grow_spawns_starting_executors(self):
        runtime = make_runtime(dataflow=keyed_dataflow())
        record = runtime.apply_rescale(RescalePlan({"keyed": 4}))
        assert record.changes == {"keyed": (2, 4)}
        assert record.spawned == ["keyed#2", "keyed#3"]
        assert runtime.dataflow.task("keyed").parallelism == 4
        for executor_id in record.spawned:
            assert runtime.executors[executor_id].status is ExecutorStatus.STARTING
        assert record.restarting == {"keyed#0", "keyed#1"}

    def test_shrink_retires_and_releases_slots(self):
        runtime = make_runtime(dataflow=keyed_dataflow())
        old_slot = runtime.placement.assignments["keyed#1"]
        record = runtime.apply_rescale(RescalePlan({"keyed": 1}))
        assert record.retired == ["keyed#1"]
        assert "keyed#1" not in runtime.executors
        assert "keyed#1" not in runtime.placement.assignments
        assert runtime.cluster.find_slot(old_slot).executor_id is None
        assert runtime.dataflow.task("keyed").parallelism == 1

    def test_rescale_before_deploy_rejected(self):
        from repro.engine.runtime import RuntimeError_, TopologyRuntime
        from repro.sim import Simulator
        from tests.conftest import build_cluster, fast_config

        sim = Simulator()
        runtime = TopologyRuntime(keyed_dataflow(), build_cluster(sim), sim=sim,
                                  config=fast_config())
        with pytest.raises(RuntimeError_):
            runtime.apply_rescale(RescalePlan({"keyed": 3}))

    def test_stale_plan_after_grow_rejected(self):
        """A placement plan computed before a grow no longer covers the
        executor set; rebalancing with it must fail loudly, not wedge."""
        from repro.engine.runtime import RuntimeError_

        runtime = make_runtime(dataflow=keyed_dataflow())
        runtime.start()
        runtime.sim.run(until=2.0)
        provider = CloudProvider(runtime.sim)
        new_vms = provider.provision(D3, 2, name_prefix="target")
        for vm in new_vms:
            runtime.cluster.add_vm(vm)
        stale_plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in new_vms])
        runtime.apply_rescale(RescalePlan({"keyed": 4}))
        with pytest.raises(RuntimeError_, match="keyed#2"):
            runtime.rebalance(stale_plan)

    def test_noop_rescale_keeps_routing_targets(self):
        """Same key -> same instance before and after a no-op rescale."""
        runtime = make_runtime(dataflow=keyed_dataflow())
        router = runtime.router
        edge = runtime.dataflow.out_edges("source")[0]

        class _Probe:
            payload = {"key": "k3"}

        before = router._select_targets("source#0", edge, _Probe())
        runtime.apply_rescale(RescalePlan({"keyed": 2}))  # no-op
        after = router._select_targets("source#0", edge, _Probe())
        assert before == after
        assert before[0] == f"keyed#{stable_field_index('k3', 2)}"

    def test_rekeying_uses_new_instance_count(self):
        runtime = make_runtime(dataflow=keyed_dataflow())
        runtime.apply_rescale(RescalePlan({"keyed": 5}))
        router = runtime.router
        edge = runtime.dataflow.out_edges("source")[0]
        for key in (f"k{i}" for i in range(NUM_KEYS)):
            class _Probe:
                payload = {"key": key}

            target = router._select_targets("source#0", edge, _Probe())[0]
            assert target == f"keyed#{stable_field_index(key, 5)}"


class TestStrategyRescale:
    @pytest.mark.parametrize("strategy", ["dcr", "ccr"])
    @pytest.mark.parametrize("new_parallelism", [3, 1])
    def test_exactly_once_across_rescale(self, strategy, new_parallelism):
        """DCR/CCR: no event loss and no duplication across a grow or shrink."""
        runtime, report = migrate_with_rescale(strategy, RescalePlan({"keyed": new_parallelism}))
        assert report.is_complete
        assert report.rescale_record is not None
        assert runtime.dataflow.task("keyed").parallelism == new_parallelism

        emitted = [e.root_id for e in runtime.log.source_emits]
        received = [r.root_id for r in runtime.log.sink_receipts]
        duplicates = [root for root, count in Counter(received).items() if count > 1]
        assert not duplicates, f"duplicated roots: {duplicates[:5]}"
        assert sorted(received) == sorted(set(emitted))

    @pytest.mark.parametrize("strategy", ["dcr", "ccr"])
    def test_state_affinity_and_conservation(self, strategy):
        """After a grow, every keyed-state entry lives on the instance that
        FIELDS routing sends its key to, and no count was lost or doubled."""
        runtime, _ = migrate_with_rescale(strategy, RescalePlan({"keyed": 3}))
        total_counts: Counter = Counter()
        for index in range(3):
            executor = runtime.executors[f"keyed#{index}"]
            counts = executor.state.get(PARTITIONED_STATE_KEY, {})
            for key, count in counts.items():
                assert stable_field_index(key, 3) == index, (key, index)
                total_counts[key] += count
        # Every receipt passed through `keyed` exactly once and incremented
        # its key's counter exactly once (1:1 selectivity end to end).
        assert sum(total_counts.values()) == len(runtime.log.sink_receipts)

    def test_dsm_rescale_at_least_once(self):
        """DSM: lost in-flight events are replayed; every root is eventually
        delivered despite the immediate kill-and-rekey."""
        runtime, report = migrate_with_rescale(
            "dsm", RescalePlan({"keyed": 3}), migrate_at=6.0, stop_at=25.0, run_until=60.0
        )
        assert report.is_complete
        assert runtime.dataflow.task("keyed").parallelism == 3
        emitted_roots = {e.root_id for e in runtime.log.source_emits}
        received_roots = {r.root_id for r in runtime.log.sink_receipts}
        assert received_roots == emitted_roots

    def test_noop_rescale_records_nothing(self):
        runtime, report = migrate_with_rescale("dcr", RescalePlan({"keyed": 2}))
        assert report.is_complete
        assert report.rescale_record is None
        assert not runtime.rescales

    def test_plain_placement_plan_still_accepted(self):
        """The old call shape (a ready PlacementPlan, no rescale) is untouched."""
        runtime = make_runtime(dataflow=keyed_dataflow())
        runtime.start()
        runtime.sim.run(until=3.0)
        provider = CloudProvider(runtime.sim)
        new_vms = provider.provision(D3, 2, name_prefix="target")
        for vm in new_vms:
            runtime.cluster.add_vm(vm)
        plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in new_vms])
        strategy = strategy_by_name("dcr")(runtime, init_resend_interval_s=0.2)
        report = strategy.migrate(plan)
        runtime.sim.run(until=25.0)
        assert report.is_complete and report.rescale_record is None


class TestPlannerRescale:
    def test_required_instances_by_task_at_surge(self):
        planner = AllocationPlanner(topologies.traffic())
        required = planner.required_instances_by_task(16.0)
        assert required["parse_gps"] == 2
        assert required["traffic_state"] == 6  # 24 ev/s baseline doubled / 8

    def test_per_task_capacity_mapping_wins(self):
        dataflow = topologies.traffic()
        dataflow.task("parse_gps").capacity_ev_s = 16.0
        required = AllocationPlanner(dataflow).required_instances_by_task(16.0)
        assert required["parse_gps"] == 1
        assert required["traffic_state"] == 6  # undeclared: still 1 per 8 ev/s

    def test_task_declared_capacity_honoured(self):
        builder = TopologyBuilder("hetero")
        builder.add_source("source", rate=8.0)
        builder.add_task("fast", capacity_ev_s=32.0)
        builder.add_task("slow", capacity_ev_s=2.0)
        builder.add_sink("sink")
        builder.chain("source", "fast", "slow", "sink")
        planner = AllocationPlanner(builder.build())
        required = planner.required_instances_by_task(8.0)
        assert required == {"fast": 1, "slow": 4}

    def test_capacity_mapping_validated(self):
        builder = TopologyBuilder("bad")
        with pytest.raises(ValueError):
            builder.add_task("zero", capacity_ev_s=0.0)
        with pytest.raises(ValueError):
            builder.add_task("negative", capacity_ev_s=-8.0)
        with pytest.raises(KeyError):
            topologies.traffic().task("ghost")

    def test_default_plan_matches_paper_behaviour(self):
        """Without elastic parallelism, plan() is exactly the PR-1 behaviour."""
        planner = AllocationPlanner(topologies.traffic())
        target = planner.plan(24.0)
        assert target.tier == "expanded"
        assert target.rescale is None
        assert target.hosted_slots == 13  # deployed slots, not demand

    def test_elastic_plan_carries_rescale_and_sizes_vms_for_demand(self):
        planner = AllocationPlanner(topologies.traffic(), elastic_parallelism=True)
        target = planner.plan(24.0, current_tier="baseline")
        assert target.tier == "expanded"
        assert target.rescale is not None
        assert target.hosted_slots == target.required_instances > 13
        assert target.vm_counts == {"D1": target.required_instances}

    def test_elastic_plan_in_band_keeps_current_tier(self):
        dataflow = topologies.traffic()
        planner = AllocationPlanner(dataflow, elastic_parallelism=True)
        # Rescale the dataflow to exactly the 16 ev/s demand, as a completed
        # scale-out would have.
        for name, count in planner.required_instances_by_task(16.0).items():
            dataflow.set_parallelism(name, count)
        target = planner.plan(16.0, current_tier="expanded")
        assert target.tier == "expanded"
        assert target.rescale is None

    def test_second_surge_rescales_within_same_tier(self):
        """Demand growth on an already-expanded deployment still adds capacity:
        the tier label does not change, but the plan carries a rescale."""
        dataflow = topologies.traffic()
        planner = AllocationPlanner(dataflow, elastic_parallelism=True)
        for name, count in planner.required_instances_by_task(16.0).items():
            dataflow.set_parallelism(name, count)
        target = planner.plan(32.0, current_tier="expanded")
        assert target.tier == "expanded"
        assert target.rescale is not None
        assert target.hosted_slots == planner.required_instances(32.0)
        assert target.rescale.targets["traffic_state"] == 12


class TestRescaleExperiment:
    def test_capacity_adding_beats_placement_only_on_grid_surge(self):
        """Acceptance: grid + 2x surge -> strictly lower sink latency and
        backlog with capacity-adding rescale than with placement-only
        scaling, with the rescale actually enacted."""
        result = run_rescale_experiment(
            dag="grid", strategy="ccr", surge_multiplier=2.0, duration_s=480.0
        )
        capacity, placement = result.runs["capacity"], result.runs["placement"]

        # The capacity run rescaled (21 -> 42 instances); the placement run
        # kept the paper's fixed executor set.
        first = capacity.result.actions[0]
        assert first.target.rescale is not None
        assert sum(first.target.rescale.targets.values()) == 42
        assert placement.result.actions and placement.result.actions[0].target.rescale is None
        assert placement.final_instances == 21

        # Drain-aware scale-in (no run-length cooldown pinning any more): once
        # the capacity run absorbed the surge backlog it consolidated again,
        # strictly after the surge window ended; the placement run's stranded
        # backlog keeps its scale-in vetoed to the end of the run.
        assert len(capacity.result.actions) >= 2
        last = capacity.result.actions[-1]
        assert last.direction == "in"
        assert last.decided_at > capacity.surge[1]
        assert len(placement.result.actions) == 1

        assert capacity.mean_latency_s < placement.mean_latency_s
        assert capacity.peak_backlog < placement.peak_backlog
        assert capacity.final_backlog < placement.final_backlog
        assert capacity_wins(result)
        assert latency_improvement(result) > 1.5
