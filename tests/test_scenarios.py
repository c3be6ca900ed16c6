"""Tests for the experiment scenario runner (cluster sizing, planning, end-to-end run)."""

from __future__ import annotations

import pytest

from repro.cluster.cloud import CloudProvider
from repro.cluster.vm import D1, D3
from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.topologies import TABLE1
from repro.elastic.planner import plan_user_tasks_on
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_experiment,
    run_migration_experiment,
    vm_counts_for,
)

from tests.conftest import make_runtime


def small_test_dataflow():
    builder = TopologyBuilder("scenario-test")
    builder.add_source("source", rate=8.0)
    builder.add_task("a", latency_s=0.05, stateful=True)
    builder.add_task("b", latency_s=0.05)
    builder.add_sink("sink")
    builder.chain("source", "a", "b", "sink")
    return builder.build()


class TestVMCounts:
    @pytest.mark.parametrize("name", list(TABLE1))
    def test_vm_counts_reproduce_table1(self, name):
        counts = vm_counts_for(topologies.by_name(name))
        row = TABLE1[name]
        assert counts.slots == row.task_instances
        assert counts.default_d2 == row.default_vms_2slot
        assert counts.scale_in_d3 == row.scale_in_vms_4slot
        assert counts.scale_out_d1 == row.scale_out_vms_1slot

    def test_vm_counts_for_custom_dataflow(self):
        counts = vm_counts_for(topologies.linear(50))
        assert counts.slots == 50
        assert counts.default_d2 == 25
        assert counts.scale_in_d3 == 13
        assert counts.scale_out_d1 == 50


class TestScenarioSpec:
    def test_invalid_scaling_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(scaling="sideways")

    @pytest.mark.parametrize("field", ["migrate_at_s", "post_migration_s"])
    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_non_positive_timing_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ScenarioSpec(**{field: value})

    def test_scenario_name(self):
        assert ScenarioSpec(scaling="in").scenario_name == "scale-in"
        assert ScenarioSpec(scaling="out").scenario_name == "scale-out"


class TestBuildAndPlan:
    def test_build_experiment_provisions_table1_cluster(self):
        spec = ScenarioSpec(dag="star", strategy="dcr", scaling="in")
        runtime, provider, initial_vm_ids = build_experiment(spec)
        described = runtime.cluster.describe()
        assert described["D2"] == TABLE1["star"].default_vms_2slot == len(initial_vm_ids)
        assert described["D3"] == 1  # the util VM
        assert runtime.deployed and provider.sim is runtime.sim

    @pytest.mark.parametrize("scaling, vm_type, count", [
        ("in", D3, TABLE1["linear"].scale_in_vms_4slot),
        ("out", D1, TABLE1["linear"].scale_out_vms_1slot),
    ])
    def test_the_migration_moves_onto_the_table1_target_vms(self, scaling, vm_type, count):
        result = run_migration_experiment(
            dag="linear", strategy="ccr", scaling=scaling, migrate_at_s=20.0, post_migration_s=60.0,
        )
        assert len(result.target_vm_ids) == count
        cluster = result.runtime.cluster
        assert all(cluster.vm(vm_id).vm_type is vm_type for vm_id in result.target_vm_ids)
        placed = {result.runtime.placement.vm_of(e.executor_id) for e in result.runtime.user_executors}
        assert placed <= set(result.target_vm_ids)

    def test_plan_user_tasks_on_places_user_tasks_on_targets_only(self):
        runtime = make_runtime()
        runtime.start()
        runtime.sim.run(until=1.0)
        provider = CloudProvider(runtime.sim)
        targets = provider.provision(D3, 2, name_prefix="tgt")
        for vm in targets:
            runtime.cluster.add_vm(vm)
        plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in targets])
        target_ids = {vm.vm_id for vm in targets}
        for executor in runtime.user_executors:
            assert plan.vm_of(executor.executor_id) in target_ids
        # Sources and sinks keep their existing slots.
        assert plan.slot_of("source#0") == runtime.placement.slot_of("source#0")
        assert plan.slot_of("sink#0") == runtime.placement.slot_of("sink#0")

    def test_plan_user_tasks_on_requires_deployment(self):
        from repro.engine.runtime import TopologyRuntime
        from repro.sim import Simulator
        from tests.conftest import build_cluster, fast_config, tiny_dataflow

        sim = Simulator()
        runtime = TopologyRuntime(tiny_dataflow(), build_cluster(sim), sim=sim, config=fast_config())
        with pytest.raises(ValueError):
            plan_user_tasks_on(runtime, [])


class TestEndToEnd:
    @pytest.mark.parametrize("strategy", ["dcr", "ccr"])
    def test_short_experiment_produces_metrics(self, strategy):
        result = run_migration_experiment(
            dag="custom",
            strategy=strategy,
            scaling="in",
            migrate_at_s=20.0,
            post_migration_s=120.0,
            seed=11,
            dataflow=small_test_dataflow(),
        )
        metrics = result.metrics
        assert metrics.restore_duration_s is not None
        assert metrics.restore_duration_s > 0
        assert metrics.rebalance_duration_s is not None
        assert metrics.replayed_message_count == 0
        assert result.report.is_complete

    def test_timelines_available_from_result(self):
        result = run_migration_experiment(
            dag="custom",
            strategy="ccr",
            scaling="out",
            migrate_at_s=20.0,
            post_migration_s=90.0,
            seed=11,
            dataflow=small_test_dataflow(),
        )
        assert result.input_timeline()
        assert result.output_timeline()
        assert result.latency_timeline()
        assert result.target_vm_ids

    @pytest.mark.parametrize(
        "strategy, post_s, phase",
        [("dsm", 5.0, "rebalance command"), ("dcr", 0.3, "drain / capture")],
    )
    def test_a_run_that_ends_before_the_restore_says_which_phase_it_ended_in(
        self, strategy, post_s, phase
    ):
        """The rebalance command alone takes ≈ 7 s: a run that ends before it has
        would return ``None`` for every §4 metric, so it refuses instead."""
        with pytest.raises(ValueError, match=f"inside the {phase} of the {strategy} migration"):
            run_migration_experiment(
                dag="linear", strategy=strategy, scaling="in", migrate_at_s=5.0,
                post_migration_s=post_s,
            )
