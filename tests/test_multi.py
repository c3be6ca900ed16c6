"""Multi-tenant clusters: bin-packing, arbitration, the manager, end-to-end runs.

The arbitration unit tests pin the four policy behaviours the subsystem
exists for -- budget contention (no double-provisioning past the cap),
preemption by priority, concurrent-migration serialization and retiring-VM
publication -- and the end-to-end tests run real tenants with offset surges
on one shared fleet against the acceptance criteria.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster.cloud import CloudProvider, Cluster
from repro.cluster.placement import PackingError, bin_pack_plan
from repro.cluster.vm import D1, D2, D3
from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.elastic import ControllerConfig
from repro.engine.runtime import RuntimeError_
from repro.experiments.multi import default_budget_slots, run_multi_experiment, surge_window
from repro.multi import ClusterManager, ScaleArbiter
from repro.multi.manager import shared_fleet_planner
from repro.obs import Telemetry
from repro.sim import Simulator
from repro.sim.shard import log_digest
from repro.workloads.profiles import StepProfile

from tests.conftest import fast_config


def chain(name: str = "chain", parallelism: int = 1, rate: float = 8.0, latency_s: float = 0.005):
    """A fast source->work->sink chain for manager tests."""
    builder = TopologyBuilder(name)
    builder.add_source("source", rate=rate)
    builder.add_task("work", parallelism=parallelism, latency_s=latency_s, stateful=True)
    builder.add_sink("sink")
    builder.chain("source", "work", "sink")
    return builder.build()


def worker_cluster(sim, d2_count=3):
    provider = CloudProvider(sim)
    cluster = Cluster()
    for vm in provider.provision(D2, d2_count, name_prefix="w"):
        cluster.add_vm(vm)
    return provider, cluster


# ---------------------------------------------------------------- bin-packing
class TestBinPacking:
    def test_prefers_partially_filled_vms(self, sim):
        _, cluster = worker_cluster(sim, d2_count=3)
        cluster.vm("w-002").slots[0].assign("other#0")  # partially filled
        plan = bin_pack_plan(["a#0", "b#0"], cluster)
        # The free slot of the partially filled VM is used before any empty VM.
        assert plan.vm_of("a#0") == "w-002"
        assert plan.vm_of("b#0") == "w-001"

    def test_never_reassigns_occupied_slots(self, sim):
        _, cluster = worker_cluster(sim, d2_count=2)
        occupied = cluster.vm("w-001").slots[0]
        occupied.assign("other#0")
        plan = bin_pack_plan(["a#0", "b#0", "c#0"], cluster)
        assert occupied.slot_id not in plan.slot_to_vm or plan.slot_to_vm[occupied.slot_id]
        assert occupied.slot_id not in set(plan.assignments.values())

    def test_full_fleet_raises(self, sim):
        _, cluster = worker_cluster(sim, d2_count=1)
        with pytest.raises(PackingError):
            bin_pack_plan(["a#0", "b#0", "c#0"], cluster)

    def test_exclude_vms_and_pinning(self, sim):
        provider, cluster = worker_cluster(sim, d2_count=2)
        util = provider.provision(D3, 1, name_prefix="util")[0]
        util.tags["role"] = "util:t"
        cluster.add_vm(util)
        # Pinned executors land on the (excluded) util VM; unpinned never do.
        plan = bin_pack_plan(
            ["src#0", "a#0", "b#0"],
            cluster,
            pinned={"src#0": util.vm_id},
            exclude_vms={util.vm_id},
        )
        assert plan.vm_of("src#0") == util.vm_id
        assert all(plan.vm_of(e) != util.vm_id for e in ("a#0", "b#0"))

    def test_shared_fleet_scheduler_dynamic_exclusions(self, sim):
        _, cluster = worker_cluster(sim, d2_count=2)
        planner = shared_fleet_planner(lambda: {"w-001"})
        plan = planner(["a#0", "b#0"], cluster)
        assert {plan.vm_of("a#0"), plan.vm_of("b#0")} == {"w-002"}
        with pytest.raises(PackingError):
            planner(["a#0", "b#0", "c#0"], cluster)


# ---------------------------------------------------------------- arbitration
class TestScaleArbiter:
    def make(self, sim=None, budget=20, d2_count=2):
        sim = sim or Simulator()
        provider, cluster = worker_cluster(sim, d2_count=d2_count)
        arbiter = ScaleArbiter(cluster, budget_slots=budget)
        return provider, cluster, arbiter

    def test_registration_required_and_validated(self):
        _, _, arbiter = self.make()
        with pytest.raises(KeyError):
            arbiter.propose("ghost", "out", 2, now=0.0)
        arbiter.register_tenant("a")
        with pytest.raises(ValueError):
            arbiter.register_tenant("a")

    def test_budget_contention_never_double_provisions(self):
        # Fleet has 4 physical slots, budget 12: either tenant's 6-slot
        # proposal fits alone, but granting both would double-provision past
        # the cap -- the second must wait for the first to release.
        provider, cluster, arbiter = self.make(budget=12)
        arbiter.register_tenant("a")
        arbiter.register_tenant("b")
        assert arbiter.propose("a", "out", 6, now=0.0).granted
        assert arbiter.committed_slots() == 10  # 4 physical + 6 reserved
        assert arbiter.max_committed_slots <= arbiter.budget_slots

        # A provisions (reservation becomes physical -- no double counting).
        new_vms = provider.provision(D1, 6, name_prefix="a-d1")
        for vm in new_vms:
            cluster.add_vm(vm)
        arbiter.notify_provisioned("a", [vm.vm_id for vm in new_vms])
        assert arbiter.committed_slots() == 10  # 4 original + 6 new, no reservation
        # A's migration is done, but b is over budget until a releases its
        # old fleet.
        arbiter.notify_complete("a")
        decision = arbiter.propose("b", "out", 6, now=2.0)
        assert not decision.granted and decision.reason == "budget"
        assert arbiter.committed_slots() <= arbiter.budget_slots
        for vm_id in ("w-001", "w-002"):
            provider.release_from(cluster, vm_id)
        assert arbiter.propose("b", "out", 6, now=3.0).granted
        assert arbiter.max_committed_slots <= arbiter.budget_slots

    def test_concurrent_migration_serialization(self):
        _, _, arbiter = self.make(budget=100)
        arbiter.register_tenant("a")
        arbiter.register_tenant("b")
        assert arbiter.propose("a", "out", 4, now=0.0).granted
        decision = arbiter.propose("b", "out", 4, now=1.0)
        assert not decision.granted and decision.reason == "migration-in-flight"
        arbiter.notify_complete("a")
        assert arbiter.propose("b", "out", 4, now=2.0).granted

    def test_in_flight_tenant_cannot_propose_again(self):
        _, _, arbiter = self.make(budget=100)
        arbiter.register_tenant("a")
        assert arbiter.propose("a", "out", 4, now=0.0).granted
        assert not arbiter.propose("a", "out", 4, now=1.0).granted

    def test_a_scale_in_waits_behind_another_tenants_migration(self):
        """A consolidation provisions a fleet too: it is serialized like a
        scale-out, however few slots it asks for."""
        _, _, arbiter = self.make(budget=100)
        arbiter.register_tenant("a")
        arbiter.register_tenant("b")
        assert arbiter.propose("a", "out", 4, now=0.0).granted
        decision = arbiter.propose("b", "in", 0, now=1.0)
        assert not decision.granted and decision.reason == "migration-in-flight"
        assert arbiter.waiting["b"].direction == "in"
        arbiter.notify_complete("a")
        assert arbiter.propose("b", "in", 0, now=2.0).granted
        assert "b" not in arbiter.waiting

    def test_a_deferred_proposal_is_audited_and_reserves_nothing(self):
        _, _, arbiter = self.make(budget=100)
        arbiter.register_tenant("a")
        arbiter.register_tenant("b")
        assert arbiter.propose("a", "out", 4, now=0.0).granted
        committed = arbiter.committed_slots()
        assert not arbiter.propose("b", "out", 6, now=1.0).granted
        assert arbiter.committed_slots() == committed
        granted, deferred = arbiter.log
        assert (granted.tenant_id, granted.granted, granted.committed_after) == (
            "a", True, granted.committed_before + 4
        )
        assert (deferred.time, deferred.tenant_id, deferred.direction) == (1.0, "b", "out")
        assert (deferred.slots_requested, deferred.granted, deferred.reason) == (
            6, False, "migration-in-flight"
        )
        assert deferred.committed_before == deferred.committed_after == committed
        assert deferred.budget_slots == 100

    def test_preemption_by_priority(self):
        """Freed capacity goes to the waiting high-priority tenant first,
        even though the low-priority tenant asked earlier."""
        _, _, arbiter = self.make(budget=100)
        arbiter.register_tenant("low", priority=1)
        arbiter.register_tenant("high", priority=5)
        arbiter.register_tenant("runner", priority=1)
        assert arbiter.propose("runner", "out", 4, now=0.0).granted
        assert not arbiter.propose("low", "out", 4, now=1.0).granted   # waits
        assert not arbiter.propose("high", "out", 4, now=2.0).granted  # waits
        arbiter.notify_complete("runner")
        decision = arbiter.propose("low", "out", 4, now=3.0)
        assert not decision.granted and decision.reason == "yield-to-higher-priority"
        assert arbiter.propose("high", "out", 4, now=4.0).granted
        # With the high-priority tenant served (and done), low gets through.
        arbiter.notify_complete("high")
        assert arbiter.propose("low", "out", 4, now=5.0).granted

    def test_proportional_share_fallback(self):
        """Among equal priorities, the tenant holding fewer slots wins the
        next grant."""
        _, _, arbiter = self.make(budget=100)
        arbiter.register_tenant("heavy", holdings_fn=lambda: 12)
        arbiter.register_tenant("light", holdings_fn=lambda: 2)
        arbiter.register_tenant("runner")
        assert arbiter.propose("runner", "out", 4, now=0.0).granted
        assert not arbiter.propose("heavy", "out", 4, now=1.0).granted
        assert not arbiter.propose("light", "out", 4, now=2.0).granted
        arbiter.notify_complete("runner")
        decision = arbiter.propose("heavy", "out", 4, now=3.0)
        assert not decision.granted and decision.reason == "proportional-share"
        assert arbiter.propose("light", "out", 4, now=4.0).granted

    def test_withdraw_clears_waiting_claim(self):
        _, _, arbiter = self.make(budget=100)
        arbiter.register_tenant("a", priority=5)
        arbiter.register_tenant("b", priority=1)
        arbiter.register_tenant("runner", priority=1)
        assert arbiter.propose("runner", "out", 4, now=0.0).granted
        assert not arbiter.propose("a", "out", 4, now=1.0).granted
        arbiter.notify_complete("runner")
        arbiter.withdraw("a")  # a's surge ended; its claim must not block b
        assert arbiter.propose("b", "out", 4, now=2.0).granted

    def test_retiring_vms_published_and_cleared(self):
        _, _, arbiter = self.make(budget=100)
        arbiter.register_tenant("a")
        assert arbiter.propose("a", "out", 4, now=0.0).granted
        arbiter.notify_migration_started("a", ["w-001"])
        assert arbiter.retiring_vms == {"w-001"}
        arbiter.notify_complete("a")
        assert arbiter.retiring_vms == set()


# -------------------------------------------------------------------- manager
class TestClusterManager:
    def two_tenant_manager(self, budget=40, **tenant_kwargs):
        manager = ClusterManager(budget_slots=budget, provisioning_latency_s=1.0,
                                 fleet_sample_interval_s=5.0)
        for name, parallelism in (("alpha", 3), ("beta", 3)):
            manager.add_tenant(
                name,
                chain(name=name, parallelism=parallelism),
                strategy="ccr",
                config=fast_config("ccr", seed=11),
                controller_config=ControllerConfig(
                    check_interval_s=5.0, confirm_samples=2, cooldown_s=10.0
                ),
                **tenant_kwargs,
            )
        return manager

    def test_colocation_saves_vms_vs_private_roundup(self):
        manager = self.two_tenant_manager()
        manager.deploy()
        # 3 + 3 instances share ceil(6/2) = 3 D2s; private fleets would round
        # up to 2 + 2 = 4.
        fleet = manager.cluster.describe()
        assert fleet["D2"] == 3
        alpha_vms = set(manager.tenant("alpha").runtime.placement.vms_used)
        beta_vms = set(manager.tenant("beta").runtime.placement.vms_used)
        # At least one worker VM hosts both tenants (true co-location).
        assert (alpha_vms & beta_vms) - {
            manager.tenant("alpha").util_vm_id, manager.tenant("beta").util_vm_id
        }

    def test_each_tenant_gets_its_own_util_vm(self):
        manager = self.two_tenant_manager()
        manager.deploy()
        alpha, beta = manager.tenant("alpha"), manager.tenant("beta")
        assert alpha.util_vm_id != beta.util_vm_id
        for tenant in (alpha, beta):
            placement = tenant.runtime.placement
            for executor in list(tenant.runtime.source_executors) + list(tenant.runtime.sink_executors):
                assert placement.vm_of(executor.executor_id) == tenant.util_vm_id
            # No user task ever lands on any util VM.
            for executor in tenant.runtime.user_executors:
                assert placement.vm_of(executor.executor_id) not in (
                    alpha.util_vm_id, beta.util_vm_id
                )

    def test_budget_too_small_for_tenants_rejected(self):
        manager = self.two_tenant_manager(budget=5)
        with pytest.raises(ValueError, match="budget"):
            manager.deploy()

    def test_budget_check_accounts_for_whole_vm_roundup(self):
        """An odd instance total provisions one extra D2 slot; a budget that
        admits the instances but not the provisioned fleet must be rejected
        up front, not breach the arbiter invariant at t=0."""
        manager = ClusterManager(budget_slots=5)
        manager.add_tenant("odd", chain(name="odd", parallelism=3))  # 3 instances
        # 3 instances fit in 5, but 2 whole D2s = 4 slots do fit: deploy ok.
        manager.deploy()
        assert manager.arbiter.committed_slots() <= 5

        tight = ClusterManager(budget_slots=5)
        tight.add_tenant("odd", chain(name="odd", parallelism=5))  # 5 instances
        # 5 instances round up to 3 D2s = 6 provisioned slots > 5.
        with pytest.raises(ValueError, match="provisioned"):
            tight.deploy()

    def test_add_tenant_after_deploy_rejected(self):
        manager = self.two_tenant_manager()
        manager.deploy()
        with pytest.raises(RuntimeError):
            manager.add_tenant("late", chain(name="late"))

    def test_offset_surges_scale_both_tenants_under_budget(self):
        manager = ClusterManager(budget_slots=30, provisioning_latency_s=1.0,
                                 fleet_sample_interval_s=5.0)
        for index, name in enumerate(("alpha", "beta")):
            surge_start = 40.0 + 80.0 * index
            manager.add_tenant(
                name,
                chain(name=name, parallelism=1),
                strategy="ccr",
                profile=StepProfile(steps=[(0.0, 8.0), (surge_start, 24.0),
                                           (surge_start + 60.0, 8.0)]),
                config=fast_config("ccr", seed=23),
                controller_config=ControllerConfig(
                    check_interval_s=5.0, confirm_samples=2, cooldown_s=20.0
                ),
            )
        manager.deploy()
        manager.start()
        manager.run(until=240.0)
        manager.stop()

        for name in ("alpha", "beta"):
            controller = manager.tenant(name).controller
            outs = [a for a in controller.actions if a.direction == "out"]
            assert outs, f"tenant {name} never scaled out"
            assert all(a.is_complete for a in controller.actions[:-1])
        # The budget invariant held at every instant the arbiter accounted.
        assert manager.arbiter.max_committed_slots <= manager.arbiter.budget_slots
        assert all(s.worker_slots <= manager.arbiter.budget_slots
                   for s in manager.fleet_samples)

    def test_tight_budget_defers_but_never_exceeds(self):
        manager = ClusterManager(budget_slots=10, provisioning_latency_s=1.0,
                                 fleet_sample_interval_s=5.0)
        # Both tenants surge together on a budget with room for only one
        # expansion: the arbiter must defer one, and the cap must hold.
        for name in ("alpha", "beta"):
            manager.add_tenant(
                name,
                chain(name=name, parallelism=1),
                strategy="ccr",
                profile=StepProfile(steps=[(0.0, 8.0), (40.0, 24.0)]),
                config=fast_config("ccr", seed=29),
                controller_config=ControllerConfig(
                    check_interval_s=5.0, confirm_samples=2, cooldown_s=20.0
                ),
            )
        manager.deploy()
        manager.start()
        manager.run(until=120.0)
        manager.stop()

        deferrals = manager.arbiter.deferrals()
        assert deferrals, "contending surges on a tight budget must defer someone"
        assert manager.arbiter.max_committed_slots <= 10
        assert all(s.worker_slots <= 10 for s in manager.fleet_samples)


# ------------------------------------------------------------- shared VM loss
class TestSharedFleetVmLoss:
    """A tenant recovers onto its own shared-fleet VMs; losing a VM that also
    hosts another tenant is refused loudly instead of going silent."""

    @staticmethod
    def deployed_at_60s():
        manager = ClusterManager(budget_slots=default_budget_slots(["traffic", "linear"], 2.0))
        for name in ("traffic", "linear"):
            manager.add_tenant(name, topologies.by_name(name))
        manager.deploy()
        manager.start()
        manager.run(until=60.0)
        return manager

    @staticmethod
    def worker_vms(manager, tenant):
        """Worker VMs hosting ``tenant``'s executors, and which also host another's."""
        own = {e.executor_id for e in manager.tenant(tenant).runtime.user_executors}
        hosting = [
            vm for vm in manager.cluster.vms
            if own & {slot.executor_id for slot in vm.occupied_slots}
        ]
        shared = [vm for vm in hosting if {s.executor_id for s in vm.occupied_slots} - own]
        return [vm for vm in hosting if vm not in shared], shared

    def test_losing_a_vm_of_its_own_on_the_shared_fleet_recovers(self):
        manager = self.deployed_at_60s()
        linear = manager.tenant("linear")
        victim = self.worker_vms(manager, "linear")[0][0].vm_id
        record = linear.controller.handle_vm_failure(victim)
        manager.run(until=200.0)
        assert record.lost_executors
        assert record.replacement_vm_ids
        assert record.restored_at is not None and record.restored_at < 200.0
        placement = linear.runtime.placement
        for executor in linear.runtime.user_executors:
            assert placement.vm_of(executor.executor_id) in manager.cluster

    def test_the_shared_fleet_trace_holds_the_tenants_recovery(self):
        manager = self.deployed_at_60s()
        linear = manager.tenant("linear")
        victim = self.worker_vms(manager, "linear")[0][0].vm_id
        record = linear.controller.handle_vm_failure(victim)
        manager.run(until=200.0)
        trace = Telemetry.from_tenants(
            {name: manager.tenant(name).controller for name in ("traffic", "linear")},
            manager.arbiter,
            now=200.0,
        )
        tracer = trace.tracer
        [span] = tracer.by_category("recovery")
        assert span.name == "recovery.kill"
        assert span.args["tenant"] == "linear"
        assert (span.start_s, span.end_s) == (60.0, record.restored_at)
        # The recovery's targeted INIT wave nests in it, as in a single-fleet trace.
        assert [child.name for child in tracer.children_of(span)] == [
            "state.restore", "checkpoint.wave.init",
        ]

    def test_losing_a_vm_another_tenant_shares_raises_before_teardown(self):
        manager = self.deployed_at_60s()
        linear = manager.tenant("linear")
        vm = self.worker_vms(manager, "linear")[1][0]
        occupants = sorted(slot.executor_id for slot in vm.occupied_slots)
        foreign = [e for e in occupants if e in manager.tenant("traffic").runtime.executors]
        assert foreign
        with pytest.raises(RuntimeError_, match=f"{vm.vm_id}.*{foreign[0]}"):
            linear.controller.handle_vm_failure(vm.vm_id)
        assert vm.vm_id in manager.cluster
        assert sorted(slot.executor_id for slot in vm.occupied_slots) == occupants
        assert linear.controller.recoveries == []


# ------------------------------------------------------------------ experiment
class TestMultiExperiment:
    def test_surge_windows_are_offset(self):
        for i in range(3):
            start, end = surge_window(600.0, i)
            assert 0 < start < end < 600.0
            if i:
                prev_start, prev_end = surge_window(600.0, i - 1)
                assert start > prev_start and start < prev_end + 600.0 * 0.22

    def test_default_budget_admits_all_tenants(self):
        budget = default_budget_slots(["traffic", "grid"], 2.0)
        assert budget >= 13 + 21

    def test_acceptance_two_dags_offset_surges_vs_private_baseline(self):
        """The ISSUE acceptance: >=2 dataflows with offset surges on one
        shared fleet; the arbiter never exceeds the budget or overlaps
        migrations; per-tenant latency/utilization is reported vs. the
        private-fleet baseline."""
        result = run_multi_experiment(
            dags=("traffic", "linear"),
            strategy="ccr",
            duration_s=400.0,
            surge_multiplier=2.0,
            elastic_parallelism=True,
        )
        shared = result.shared
        assert len(shared.tenants) == 2

        # Every tenant rode its surge: at least one completed scale-out each.
        for name, summary in shared.tenants.items():
            outs = [a for a in summary.result.controller.actions if a.direction == "out"]
            assert outs, f"tenant {name} never scaled out"
            assert summary.receipts > 0
            assert summary.surge[1] <= 400.0

        # Budget and serialization invariants.
        assert shared.max_committed_slots <= shared.budget_slots
        assert all(s.worker_slots <= shared.budget_slots for s in shared.fleet_samples)
        assert shared.max_concurrent_migrations() <= 1

        # The private baseline exists and the comparison is computable.
        assert set(result.private) == set(shared.tenants)
        for name in shared.tenants:
            ratio = result.latency_ratio(name)
            assert ratio is not None and ratio > 0
        assert shared.mean_utilization > 0
        assert result.private_mean_utilization is not None
        assert result.private_total_cost > 0

    def test_priorities_validated(self):
        with pytest.raises(ValueError, match="priorities"):
            run_multi_experiment(dags=("traffic", "grid"), priorities=(1,),
                                 include_private_baseline=False, duration_s=60.0)


class TestFullReplaceTenants:
    """A "full-replace" tenant (the multi default) re-fleets: it keeps no VM
    and provisions the whole target fleet.  It used to fall back to the
    controller's default placement, incremental, and keep its fleet; two
    same-DAG tenants with elastic parallelism then raised ``PackingError``."""

    @pytest.mark.parametrize("dags, elastic_parallelism, duration_s", [
        (("traffic", "linear"), False, 300.0),
        (("traffic", "traffic"), True, 120.0),
        (("grid", "grid"), True, 120.0),
    ])
    def test_every_action_provisions_the_whole_target_fleet(
        self, dags, elastic_parallelism, duration_s
    ):
        result = run_multi_experiment(
            dags=dags,
            duration_s=duration_s,
            elastic_parallelism=elastic_parallelism,
            include_private_baseline=False,
        )
        actions = [
            a for summary in result.shared.tenants.values() for a in summary.result.controller.actions
        ]
        assert actions
        for action in actions:
            assert action.kept_vm_ids == []
            assert action.provision_counts == action.target.vm_counts


class TestIncrementalReFleet:
    """Smarter re-fleet on scale-in: a consolidating tenant re-uses
    partially-free shared VMs instead of provisioning a fresh private fleet."""

    @pytest.fixture(scope="class")
    def runs(self):
        def run(placement):
            return run_multi_experiment(
                dags=("traffic", "linear"),
                strategy="ccr",
                duration_s=500.0,
                surge_multiplier=2.0,
                elastic_parallelism=True,
                include_private_baseline=False,
                placement=placement,
            )

        return {p: run(p) for p in ("full-replace", "incremental")}

    @staticmethod
    def actions(result):
        return [
            action
            for summary in result.shared.tenants.values()
            for action in summary.result.controller.actions
        ]

    def test_consolidation_reuses_shared_vms_without_provisioning(self, runs):
        incremental = runs["incremental"]
        ins = [a for a in self.actions(incremental) if a.direction == "in"]
        assert ins, "at least one tenant must consolidate after its surge"
        reused = [a for a in ins if not a.provisioned_vm_ids]
        assert reused, "a consolidation must absorb into the existing shared fleet"
        for action in reused:
            assert action.provision_counts == {}
            assert action.kept_vm_ids, "the re-used shared VMs must be recorded"
            assert action.is_complete

        # Under full replacement every consolidation provisions a fresh fleet.
        full_ins = [a for a in self.actions(runs["full-replace"]) if a.direction == "in"]
        assert full_ins and all(a.provisioned_vm_ids for a in full_ins)

    def test_provisioning_footprint_shrinks(self, runs):
        def slots_provisioned(result):
            from repro.cluster.vm import VM_TYPES

            return sum(
                VM_TYPES[name].slots * count
                for action in self.actions(result)
                for name, count in action.provision_counts.items()
            )

        assert slots_provisioned(runs["incremental"]) < slots_provisioned(
            runs["full-replace"]
        )

    def test_budget_invariants_hold_with_incremental_placement(self, runs):
        shared = runs["incremental"].shared
        assert shared.max_committed_slots <= shared.budget_slots
        assert shared.max_concurrent_migrations() <= 1

    #: (placement, tenant) -> (``log_digest``, sha256 of the action lines).
    #: traffic and linear share no worker task name, so asking "is this slot
    #: ours" by executor id or by placement gives the same answers here.
    PINNED = {
        ("full-replace", "traffic"): (
            "9883331e9b598f18915d36a9466d483236f75ed91c54aa9212607a4538e0aa71",
            "80c83ebac3ce25d18cd304f7ded13a7196c1934579ed6c204e20c4cf7c1c12d4",
        ),
        ("full-replace", "linear"): (
            "5e9412fb2acf0253833d69e4783999de974e02ba7bc0e924b98bde635d0fdc9f",
            "3df5a9340fe42ba05859c97cc5dd5944ae69f1747d282fad7d12fbda2b7de5cc",
        ),
        ("incremental", "traffic"): (
            "6bbeeacf1221b5cd5650e6e58ad5089e1a94e2964284317e76674b2f995f39b6",
            "0b4def097a4df62db7ffc394b8cb2bbad25c4730502956ad676a4a8a271db538",
        ),
        ("incremental", "linear"): (
            "7836d9a87e035a6b80bea676a22d112cc68546af1a224388a0e302c793778fe0",
            "7ac6233b6b9d951b51f8fcb7a672613458107f8c4dc6f03e28bda0578e0722ca",
        ),
    }

    @pytest.mark.parametrize("placement, name", sorted(PINNED))
    def test_tenant_runs_are_pinned(self, runs, placement, name):
        tenant = runs[placement].shared.manager.tenant(name)
        lines = [
            f"{a.direction} {a.from_tier}->{a.to_tier} decided={a.decided_at!r} "
            f"enacted={a.enacted_at!r} completed={a.completed_at!r}"
            for a in tenant.controller.actions
        ]
        observed = (
            log_digest(tenant.runtime.log),
            hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        )
        assert observed == self.PINNED[(placement, name)]


class TestSameDagTenants:
    """Two tenants of one DAG have the same executor ids (``task1#0`` twice),
    so "is this slot ours" is asked of the tenant's placement: the slot must
    hold the id *and* be the slot the placement gives that id."""

    @pytest.mark.parametrize("dags, duration_s", [
        (("linear", "linear"), 300.0),
        (("grid", "grid"), 120.0),
    ])
    def test_incremental_placement_runs_to_the_end(self, dags, duration_s):
        """``IncrementalPlacement._capacity_for_us`` used to count the
        neighbour's ``task1#0`` slot on ``shared-d2-005`` as its own, so the
        grow bought one D1 too few and ``incremental_plan`` raised
        ``PackingError`` ("target VMs cannot host the 5 relocating
        executors: only 4 free slots") -- four D1s bought where five were
        needed.

        A migration enacted near the end is still in flight when the run
        stops its controllers, so the shared simulation is run on until it
        has finished."""
        result = run_multi_experiment(
            dags=dags,
            placement="incremental",
            elastic_parallelism=True,
            duration_s=duration_s,
            include_private_baseline=False,
        )
        shared = result.shared
        assert shared.max_committed_slots <= shared.budget_slots
        shared.manager.run(until=duration_s + 300.0)
        actions = [
            action
            for tenant in shared.manager.tenants.values()
            for action in tenant.controller.actions
        ]
        assert actions
        for action in actions:
            if action.enacted_at is not None:
                assert action.is_complete, action

    def test_losing_a_vm_shared_with_a_same_dag_neighbour_raises(self):
        """``shared-d2-005`` holds ``a``'s ``task5#0`` and ``b``'s ``task1#0``.
        Asked by id, ``b``'s executor looked like ``a``'s: the loss went ahead
        and killed ``a``'s own ``task1#0`` on ``shared-d2-003``.  Losing a
        shared VM is not modelled, so it must raise before any teardown."""
        manager = ClusterManager(budget_slots=40)
        for name in ("a", "b"):
            manager.add_tenant(name, topologies.linear())
        manager.deploy()
        manager.start()
        manager.run(until=30.0)
        a, b = manager.tenant("a"), manager.tenant("b")
        shared_vm = "shared-d2-005"
        assert a.runtime.placement.vm_of("task5#0") == shared_vm
        assert b.runtime.placement.vm_of("task1#0") == shared_vm
        before = {vm.vm_id: [s.executor_id for s in vm.slots] for vm in manager.cluster.vms}

        with pytest.raises(RuntimeError_, match=r"another tenant \(task1#0\)"):
            a.controller.handle_vm_failure(shared_vm)
        after = {vm.vm_id: [s.executor_id for s in vm.slots] for vm in manager.cluster.vms}
        assert after == before
        assert not a.runtime.vm_failures and not a.controller.recoveries
