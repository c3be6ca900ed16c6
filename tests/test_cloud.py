"""Unit tests for the cloud provider, cluster and network model."""

from __future__ import annotations

import pytest

from repro.cluster.cloud import CloudProvider, Cluster, NetworkModel
from repro.cluster.vm import D1, D2, D3, VirtualMachine
from repro.sim import Simulator


class TestCloudProvider:
    def test_provision_creates_requested_count(self, sim):
        provider = CloudProvider(sim)
        vms = provider.provision(D2, 3)
        assert len(vms) == 3
        assert all(vm.vm_type is D2 for vm in vms)
        assert all(vm.active for vm in vms)

    def test_vm_ids_are_unique(self, sim):
        provider = CloudProvider(sim)
        vms = provider.provision(D1, 5) + provider.provision(D3, 2)
        assert len({vm.vm_id for vm in vms}) == 7

    def test_provision_zero_rejected(self, sim):
        with pytest.raises(ValueError):
            CloudProvider(sim).provision(D1, 0)

    def test_deprovision_requires_empty_slots(self, sim):
        provider = CloudProvider(sim)
        vm = provider.provision(D2, 1)[0]
        vm.slot(0).assign("task#0")
        with pytest.raises(ValueError):
            provider.deprovision(vm)
        vm.slot(0).release()
        provider.deprovision(vm)
        assert not vm.active

    def test_billing_rounds_up_to_minute(self, sim):
        provider = CloudProvider(sim, billing_granularity_s=60.0)
        vm = provider.provision(D2, 1)[0]
        sim.schedule(90.0, lambda: None)
        sim.run()
        provider.deprovision(vm)
        record = provider.billing_records[0]
        # 90 s rounds up to 120 s of billing.
        assert record.cost(sim.now) == pytest.approx(D2.hourly_cost * 120.0 / 3600.0)

    def test_total_cost_accrues_while_running(self, sim):
        provider = CloudProvider(sim)
        provider.provision(D3, 2)
        sim.schedule(600.0, lambda: None)
        sim.run()
        assert provider.total_cost() > 0.0


class TestCluster:
    def test_add_and_remove_vm(self, sim):
        provider = CloudProvider(sim)
        cluster = Cluster()
        vm = provider.provision(D2, 1)[0]
        cluster.add_vm(vm)
        assert vm.vm_id in cluster
        assert len(cluster) == 1
        removed = cluster.remove_vm(vm.vm_id)
        assert removed is vm
        assert len(cluster) == 0

    def test_duplicate_add_rejected(self, sim):
        cluster = Cluster()
        vm = CloudProvider(sim).provision(D1, 1)[0]
        cluster.add_vm(vm)
        with pytest.raises(ValueError):
            cluster.add_vm(vm)

    def test_remove_unknown_vm_rejected(self):
        with pytest.raises(KeyError):
            Cluster().remove_vm("nope")

    def test_slot_counting(self, sim):
        provider = CloudProvider(sim)
        cluster = Cluster(provider.provision(D2, 2) + provider.provision(D3, 1))
        assert cluster.total_slots == 2 * 2 + 4
        assert not any(slot.occupied for slot in cluster.slots)

    def test_find_slot(self, sim):
        provider = CloudProvider(sim)
        vm = provider.provision(D2, 1)[0]
        cluster = Cluster([vm])
        slot = cluster.find_slot(vm.slots[1].slot_id)
        assert slot is vm.slots[1] and slot.vm_id == vm.vm_id

    def test_find_unknown_slot_rejected(self, sim):
        cluster = Cluster(CloudProvider(sim).provision(D1, 1))
        with pytest.raises(KeyError):
            cluster.find_slot("ghost:slot0")

    def test_utilization_and_describe(self, sim):
        provider = CloudProvider(sim)
        vms = provider.provision(D2, 2)
        cluster = Cluster(vms)
        vms[0].slot(0).assign("a#0")
        assert cluster.utilization == pytest.approx(0.25)
        assert cluster.describe() == {"D2": 2}


class TestNetworkModel:
    """Base latencies, and the keyed jitter a channel stamps them with (the
    model's own ``transfer_latency`` drew from the shared stream, which is gone)."""

    @staticmethod
    def latencies(network, count):
        from repro.engine.router import Channel

        fraction = network.jitter_fraction
        stream = network.keyed_jitter_stream("a", "b") if fraction > 0 else None
        channel = Channel("a", "b", stream, fraction)
        channel.base = network.base_latency("vm-1", "vm-2")
        return [channel.stamp(1000.0 * k) - 1000.0 * k for k in range(count)]

    def test_intra_vm_is_faster_than_inter_vm(self):
        network = NetworkModel(jitter_fraction=0.0)
        assert network.base_latency("vm-1", "vm-1") < network.base_latency("vm-1", "vm-2")

    def test_unknown_endpoint_treated_as_remote(self):
        network = NetworkModel(jitter_fraction=0.0)
        assert network.base_latency(None, "vm-1") == network.inter_vm_latency_s
        assert self.latencies(network, 3) == pytest.approx([network.inter_vm_latency_s] * 3)

    def test_jitter_stays_within_bounds(self):
        network = NetworkModel(intra_vm_latency_s=1.0, inter_vm_latency_s=2.0, jitter_fraction=0.1)
        latencies = self.latencies(network, 200)
        assert all(1.8 <= latency <= 2.2 for latency in latencies)
        assert len(set(latencies)) > 100

    def test_latency_never_negative(self):
        network = NetworkModel(intra_vm_latency_s=0.0, inter_vm_latency_s=0.5, jitter_fraction=1.5)
        assert min(self.latencies(network, 200)) >= 0.0


class TestConcurrentTenantAccounting:
    """CloudProvider/Cluster accounting when several tenants share one fleet.

    Multi-tenant controllers deprovision their vacated VMs independently and
    concurrently; the provider must make double releases loud, keep billing
    finalized exactly once, and refuse to release a VM a co-located tenant
    still occupies.
    """

    def test_release_from_is_exactly_once(self, sim):
        provider = CloudProvider(sim)
        cluster = Cluster()
        vm = provider.provision(D2, 1, name_prefix="shared")[0]
        cluster.add_vm(vm)
        sim.run(until=90.0)
        released = provider.release_from(cluster, vm.vm_id)
        assert released is vm and vm.vm_id not in cluster
        # The second tenant's release attempt cannot silently double-release:
        # the VM is gone from the cluster (KeyError), and a direct deprovision
        # of the returned VM object is rejected too.
        with pytest.raises(KeyError):
            provider.release_from(cluster, vm.vm_id)
        with pytest.raises(ValueError):
            provider.deprovision(vm)
        # Billing was finalized exactly once, at the release time.
        record = next(r for r in provider.billing_records if r.vm_id == vm.vm_id)
        assert record.deprovisioned_at == pytest.approx(90.0)

    def test_release_refused_while_other_tenant_occupies(self, sim):
        provider = CloudProvider(sim)
        cluster = Cluster()
        vm = provider.provision(D2, 1, name_prefix="shared")[0]
        cluster.add_vm(vm)
        vm.slots[0].assign("neighbour#0")
        with pytest.raises(ValueError, match="occupied"):
            provider.release_from(cluster, vm.vm_id)
        # Once the co-located tenant vacates, the release goes through.
        vm.slots[0].release()
        provider.release_from(cluster, vm.vm_id)
        assert vm.deprovisioned_at is not None

    def test_two_tenants_shrinking_at_once_release_disjoint_vms(self, sim):
        """Interleaved shrink completions: each tenant releases only its own
        empties; the shared co-located VM survives both and bills on."""
        provider = CloudProvider(sim)
        cluster = Cluster()
        a_vm, shared_vm, b_vm = provider.provision(D2, 3, name_prefix="w")
        for vm in (a_vm, shared_vm, b_vm):
            cluster.add_vm(vm)
        shared_vm.slots[0].assign("a#1")
        shared_vm.slots[1].assign("b#1")

        # Tenant A's migration completes: a_vm empty -> released; shared still
        # hosts b#1 after a#1 leaves? No -- A vacates only its own slot.
        shared_vm.slots[0].release()
        for vm_id in [a_vm.vm_id, shared_vm.vm_id]:
            if vm_id not in cluster:
                continue
            vm = cluster.vm(vm_id)
            if vm.occupied_slots:
                continue  # the controller's co-location guard
            provider.release_from(cluster, vm_id)
        assert a_vm.vm_id not in cluster
        assert shared_vm.vm_id in cluster  # b#1 still lives there

        # Tenant B completes right after: now the shared VM is empty too.
        shared_vm.slots[1].release()
        for vm_id in [b_vm.vm_id, shared_vm.vm_id]:
            vm = cluster.vm(vm_id)
            if vm.occupied_slots:
                continue
            provider.release_from(cluster, vm_id)
        assert shared_vm.vm_id not in cluster and b_vm.vm_id not in cluster
        # Every billing record closed exactly once.
        closed = [r for r in provider.billing_records if r.deprovisioned_at is not None]
        assert len(closed) == 3

    def test_slot_release_is_idempotent_but_assign_conflicts_raise(self, sim):
        provider = CloudProvider(sim)
        vm = provider.provision(D2, 1)[0]
        slot = vm.slots[0]
        slot.assign("a#0")
        with pytest.raises(ValueError):
            slot.assign("b#0")
        assert slot.release() == "a#0"
        assert slot.release() is None  # second release returns nothing, corrupts nothing
        slot.assign("b#0")
        assert slot.executor_id == "b#0"
