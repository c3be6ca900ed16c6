"""Unit tests for the round-robin and bin-packing planners."""

from __future__ import annotations

import pytest

from repro.cluster.cloud import CloudProvider, Cluster
from repro.cluster.placement import PackingError, bin_pack_plan, round_robin_plan
from repro.cluster.vm import D2, D3
from repro.sim import Simulator


def build_cluster(sim, d2=3, d3=0, util=False):
    provider = CloudProvider(sim)
    cluster = Cluster()
    if util:
        util_vm = provider.provision(D3, 1, name_prefix="util")[0]
        util_vm.tags["role"] = "util"
        cluster.add_vm(util_vm)
    for vm in provider.provision(D2, d2, name_prefix="d2") if d2 else []:
        cluster.add_vm(vm)
    for vm in provider.provision(D3, d3, name_prefix="d3") if d3 else []:
        cluster.add_vm(vm)
    return cluster


class TestRoundRobinScheduler:
    def test_spreads_executors_across_vms(self, sim):
        cluster = build_cluster(sim, d2=3)
        plan = round_robin_plan(["a#0", "b#0", "c#0"], cluster)
        assert len(plan.vms_used) == 3

    def test_all_executors_placed_on_distinct_slots(self, sim):
        cluster = build_cluster(sim, d2=3)
        executors = [f"t{i}#0" for i in range(6)]
        plan = round_robin_plan(executors, cluster)
        assert len(plan) == 6
        assert len(set(plan.assignments.values())) == 6

    def test_wraps_around_when_vms_fill_up(self, sim):
        cluster = build_cluster(sim, d2=2)
        executors = [f"t{i}#0" for i in range(4)]
        plan = round_robin_plan(executors, cluster)
        for vm in cluster.vms:
            assert len(plan.executors_on_vm(vm.vm_id)) == 2

    def test_insufficient_slots_raises(self, sim):
        cluster = build_cluster(sim, d2=1)
        with pytest.raises(PackingError):
            round_robin_plan([f"t{i}#0" for i in range(3)], cluster)

    def test_pinned_executors_go_to_pinned_vm(self, sim):
        cluster = build_cluster(sim, d2=2, util=True)
        util_id = next(vm.vm_id for vm in cluster.vms if vm.tags.get("role") == "util")
        plan = round_robin_plan(
            ["src#0", "sink#0", "a#0", "b#0"],
            cluster,
            pinned={"src#0": util_id, "sink#0": util_id},
            exclude_vms=[util_id],
        )
        assert plan.vm_of("src#0") == util_id
        assert plan.vm_of("sink#0") == util_id
        assert plan.vm_of("a#0") != util_id
        assert plan.vm_of("b#0") != util_id

    def test_excluded_vm_not_used_for_unpinned(self, sim):
        cluster = build_cluster(sim, d2=3)
        excluded = cluster.vms[0].vm_id
        plan = round_robin_plan(
            ["a#0", "b#0", "c#0", "d#0"], cluster, exclude_vms=[excluded]
        )
        assert excluded not in plan.vms_used

    def test_pinned_vm_missing_from_cluster_raises(self, sim):
        cluster = build_cluster(sim, d2=1)
        with pytest.raises(PackingError):
            round_robin_plan(["a#0"], cluster, pinned={"a#0": "ghost"})

    def test_pinned_vm_with_no_free_slot_raises(self, sim):
        cluster = build_cluster(sim, d2=1)
        vm_id = cluster.vms[0].vm_id
        with pytest.raises(PackingError):
            round_robin_plan(
                ["a#0", "b#0", "c#0"],
                cluster,
                pinned={"a#0": vm_id, "b#0": vm_id, "c#0": vm_id},
            )

    def test_no_eligible_vms_raises(self, sim):
        cluster = build_cluster(sim, d2=1)
        with pytest.raises(PackingError):
            round_robin_plan(["a#0"], cluster, exclude_vms=[cluster.vms[0].vm_id])

    def test_deterministic_for_same_input(self, sim):
        cluster_a = build_cluster(Simulator(), d2=3)
        cluster_b = build_cluster(Simulator(), d2=3)
        executors = [f"t{i}#0" for i in range(5)]
        plan_a = round_robin_plan(executors, cluster_a)
        plan_b = round_robin_plan(executors, cluster_b)
        assert plan_a.assignments == plan_b.assignments


class TestResourceAwareScheduler:
    def test_packs_vms_before_moving_on(self, sim):
        cluster = build_cluster(sim, d2=3)
        plan = bin_pack_plan(["a#0", "b#0", "c#0"], cluster)
        # Two executors fill the first D2 VM; only the third spills over.
        assert len(plan.vms_used) == 2

    def test_uses_fewer_vms_than_round_robin(self, sim):
        cluster_packed = build_cluster(Simulator(), d2=4)
        cluster_spread = build_cluster(Simulator(), d2=4)
        executors = [f"t{i}#0" for i in range(4)]
        packed = bin_pack_plan(executors, cluster_packed)
        spread = round_robin_plan(executors, cluster_spread)
        assert len(packed.vms_used) < len(spread.vms_used)

    def test_respects_pinning_and_exclusion(self, sim):
        cluster = build_cluster(sim, d2=2, util=True)
        util_id = next(vm.vm_id for vm in cluster.vms if vm.tags.get("role") == "util")
        plan = bin_pack_plan(
            ["src#0", "a#0", "b#0"],
            cluster,
            pinned={"src#0": util_id},
            exclude_vms=[util_id],
        )
        assert plan.vm_of("src#0") == util_id
        assert util_id not in {plan.vm_of("a#0"), plan.vm_of("b#0")}

    def test_insufficient_slots_raises(self, sim):
        cluster = build_cluster(sim, d2=1)
        with pytest.raises(PackingError):
            bin_pack_plan([f"t{i}#0" for i in range(3)], cluster)
