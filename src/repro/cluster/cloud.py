"""Cloud provider, cluster and network model.

The :class:`CloudProvider` provisions and releases VMs against the simulated
clock and keeps per-minute billing records (the paper motivates rapid
migration with per-minute / per-second cloud billing).  The :class:`Cluster`
is the set of VMs currently backing a Storm-like deployment, and the
:class:`NetworkModel` supplies event-transfer latencies that distinguish
intra-VM from inter-VM hops (the locality benefit of scale-in mentioned in
the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim import KeyedStream, Simulator, keyed_seed
from repro.cluster.vm import Slot, VirtualMachine, VMType

#: Market names used in billing records and ``vm.tags["market"]``.
ON_DEMAND = "on-demand"
SPOT = "spot"


#: Clouds bill by the minute: a VM's accrued time is rounded up to this.
BILLING_GRANULARITY_S = 60.0


@dataclass
class BillingRecord:
    """Billing entry for one provisioned VM."""

    vm_id: str
    vm_type: str
    provisioned_at: float
    deprovisioned_at: Optional[float]
    hourly_cost: float
    market: str = ON_DEMAND

    def cost(self, now: float) -> float:
        """Accrued cost, rounded *up* to the billing granularity (per minute)."""
        end = self.deprovisioned_at if self.deprovisioned_at is not None else now
        duration = max(0.0, end - self.provisioned_at)
        billed = math.ceil(duration / BILLING_GRANULARITY_S) * BILLING_GRANULARITY_S
        return self.hourly_cost * billed / 3600.0


@dataclass(frozen=True)
class SpotMarket:
    """Spot/preemptible market terms: discounted VMs the cloud may reclaim.

    Spot VMs bill at ``discount`` times the on-demand rate but may be
    reclaimed; ``eviction_rate_per_hour`` (Poisson, per VM-hour) prices that
    risk when an evacuation picks its replacements' market
    (:func:`~repro.elastic.controller.evacuation_market`).  The evictions a
    run actually suffers, each with its notice window, are the
    :class:`~repro.cluster.chaos.FaultEvent`\\ s armed on a
    :class:`~repro.cluster.chaos.FaultInjector`.
    """

    discount: float = 0.35
    eviction_rate_per_hour: float = 0.0

    def spot_hourly_cost(self, vm_type: VMType) -> float:
        """Hourly spot price for the flavour."""
        return vm_type.hourly_cost * self.discount

    def eviction_probability(self, horizon_s: float) -> float:
        """P(a spot VM is evicted at least once within the horizon)."""
        if self.eviction_rate_per_hour <= 0 or horizon_s <= 0:
            return 0.0
        return 1.0 - math.exp(-self.eviction_rate_per_hour * horizon_s / 3600.0)


@dataclass(frozen=True)
class ProvisioningModel:
    """Latency distribution for VM provisioning, with straggler/failure tails.

    A provisioning attempt takes ``base_latency_s`` plus uniform jitter; with
    probability ``straggler_prob`` the attempt is a straggler and takes
    ``straggler_multiplier`` times longer, and with probability
    ``failure_prob`` it fails outright (the request is retried, the failed
    attempt's latency is still paid, and nothing is billed for it).
    All draws are keyed by VM id, so they are schedule-independent.
    """

    base_latency_s: float = 30.0
    jitter_fraction: float = 0.2
    straggler_prob: float = 0.0
    straggler_multiplier: float = 4.0
    failure_prob: float = 0.0


@dataclass
class ProvisionTicket:
    """One VM provisioned asynchronously: ready ``delay_s`` from request time.

    ``failures`` counts failed attempts retried (and paid for in latency)
    before this VM came up.
    """

    vm: VirtualMachine
    delay_s: float
    failures: int


class NetworkModel:
    """Latency model for event transfers between executors.

    Latencies are tiny compared to the 100 ms task latency used in the paper,
    but inter-VM hops are an order of magnitude slower than intra-VM ones,
    which is what gives scale-in its locality benefit.
    """

    def __init__(
        self,
        intra_vm_latency_s: float = 0.0002,
        inter_vm_latency_s: float = 0.0015,
        jitter_fraction: float = 0.1,
        seed: int = 2018,
    ) -> None:
        self.intra_vm_latency_s = intra_vm_latency_s
        self.inter_vm_latency_s = inter_vm_latency_s
        self.jitter_fraction = jitter_fraction
        self.seed = seed

    def base_latency(self, src_vm: Optional[str], dst_vm: Optional[str]) -> float:
        """Un-jittered transfer latency between the given VMs.

        ``None`` for either endpoint (e.g. an executor not yet placed) is
        treated as an inter-VM hop.  The router caches this per channel and
        applies jitter itself on the hot path.
        """
        if src_vm is not None and src_vm == dst_vm:
            return self.intra_vm_latency_s
        return self.inter_vm_latency_s

    def keyed_jitter_stream(self, sender: str, receiver: str) -> KeyedStream:
        """The jitter stream of one (sender, receiver) channel, seeded from
        ``(seed, "network-jitter", sender->receiver)``: its draws depend
        only on its own delivery count, never on how channels interleave."""
        return KeyedStream(keyed_seed(self.seed, "network-jitter", f"{sender}->{receiver}"))


class Cluster:
    """The set of VMs currently available to the DSPS deployment."""

    def __init__(self, vms: Optional[Iterable[VirtualMachine]] = None, network: Optional[NetworkModel] = None) -> None:
        self._vms: Dict[str, VirtualMachine] = {}
        self.network = network or NetworkModel()
        for vm in vms or []:
            self.add_vm(vm)

    # ------------------------------------------------------------ membership
    def add_vm(self, vm: VirtualMachine) -> None:
        """Add a VM to the cluster."""
        if vm.vm_id in self._vms:
            raise ValueError(f"VM {vm.vm_id} is already part of the cluster")
        self._vms[vm.vm_id] = vm

    def remove_vm(self, vm_id: str) -> VirtualMachine:
        """Remove a VM from the cluster and return it.

        Fails loudly if the VM still hosts executors: silently removing an
        occupied VM would strand router routes pointing at a vanished VM.
        Callers tearing down a failed VM must kill its executors and release
        their slots first (see ``TopologyRuntime.fail_vm``).
        """
        if vm_id not in self._vms:
            raise KeyError(f"VM {vm_id} is not part of the cluster")
        occupied = [slot.executor_id for slot in self._vms[vm_id].occupied_slots]
        if occupied:
            raise ValueError(
                f"cannot remove VM {vm_id}: slots still occupied by {occupied}"
            )
        return self._vms.pop(vm_id)

    @property
    def vms(self) -> List[VirtualMachine]:
        """All VMs, in insertion order."""
        return list(self._vms.values())

    def vm(self, vm_id: str) -> VirtualMachine:
        """Return the VM with the given id."""
        return self._vms[vm_id]

    def __contains__(self, vm_id: str) -> bool:
        return vm_id in self._vms

    def __len__(self) -> int:
        return len(self._vms)

    # ----------------------------------------------------------------- slots
    @property
    def slots(self) -> List[Slot]:
        """All slots across all VMs."""
        return [slot for vm in self._vms.values() for slot in vm.slots]

    @property
    def total_slots(self) -> int:
        """Total number of slots in the cluster."""
        return len(self.slots)

    def find_slot(self, slot_id: str) -> Slot:
        """Return the slot with the given id anywhere in the cluster."""
        vm_id = slot_id.split(":", 1)[0]
        vm = self._vms.get(vm_id)
        if vm is not None:
            slot = vm.find_slot(slot_id)
            if slot is not None:
                return slot
        for vm in self._vms.values():
            slot = vm.find_slot(slot_id)
            if slot is not None:
                return slot
        raise KeyError(f"slot {slot_id} not found in cluster")

    @property
    def utilization(self) -> float:
        """Overall fraction of occupied slots."""
        total = self.total_slots
        if total == 0:
            return 0.0
        return sum(len(vm.occupied_slots) for vm in self._vms.values()) / total

    def describe(self) -> Dict[str, int]:
        """Count of VMs per flavour, e.g. ``{"D2": 4}``."""
        counts: Dict[str, int] = {}
        for vm in self._vms.values():
            counts[vm.vm_type.name] = counts.get(vm.vm_type.name, 0) + 1
        return counts


class CloudProvider:
    """Provisions VMs against the simulated clock and tracks billing.

    Provisioning latency exists (cloud VMs do not appear instantly) but is not
    on the migration critical path in the paper: both the scale-in and
    scale-out experiments provision the target VMs before the migration request
    is issued, as real deployments do when the new schedule is planned ahead of
    enactment.
    """

    def __init__(
        self,
        sim: Simulator,
        provisioning_latency_s: float = 30.0,
        seed: int = 2018,
        spot_market: Optional[SpotMarket] = None,
        provisioning: Optional[ProvisioningModel] = None,
    ) -> None:
        self.sim = sim
        self.provisioning_latency_s = provisioning_latency_s
        self.spot_market = spot_market
        self.provisioning = provisioning
        self.provisioning_failures = 0
        self.seed = seed
        self._counter = 0
        self._billing: Dict[str, BillingRecord] = {}

    def _create(self, vm_id: str, vm_type: VMType, market: str, ready_at: float) -> VirtualMachine:
        hourly = vm_type.hourly_cost
        if market == SPOT:
            if self.spot_market is None:
                raise ValueError("provider has no spot market configured")
            hourly = self.spot_market.spot_hourly_cost(vm_type)
        elif market != ON_DEMAND:
            raise ValueError(f"unknown market {market!r}")
        vm = VirtualMachine(vm_id=vm_id, vm_type=vm_type)
        vm.provisioned_at = ready_at
        vm.tags["market"] = market
        self._billing[vm.vm_id] = BillingRecord(
            vm_id=vm.vm_id,
            vm_type=vm_type.name,
            provisioned_at=ready_at,
            deprovisioned_at=None,
            hourly_cost=hourly,
            market=market,
        )
        return vm

    def provision(
        self,
        vm_type: VMType,
        count: int = 1,
        name_prefix: Optional[str] = None,
        market: str = ON_DEMAND,
    ) -> List[VirtualMachine]:
        """Provision ``count`` VMs of the given flavour immediately.

        The VMs are marked provisioned at the current simulated time; billing
        starts now (at the spot rate when ``market="spot"``).  Returns the
        new VMs.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        vms = []
        for _ in range(count):
            self._counter += 1
            prefix = name_prefix or vm_type.name.lower()
            vms.append(self._create(f"{prefix}-{self._counter:03d}", vm_type, market, self.sim.now))
        return vms

    def draw_provisioning(self, vm_id: str) -> Tuple[float, bool]:
        """Keyed ``(latency_s, succeeded)`` draw for one provisioning attempt.

        With no :class:`ProvisioningModel` configured, attempts always succeed
        after the flat ``provisioning_latency_s``.  Draws are keyed by
        ``(seed, "provisioning", vm_id)`` so they do not depend on
        what else the simulation interleaves.
        """
        model = self.provisioning
        if model is None:
            return self.provisioning_latency_s, True
        stream = KeyedStream(keyed_seed(self.seed, "provisioning", vm_id))
        latency = model.base_latency_s
        if model.jitter_fraction > 0:
            latency *= 1.0 + stream.uniform(-model.jitter_fraction, model.jitter_fraction)
        if model.straggler_prob > 0 and stream.random() < model.straggler_prob:
            latency *= model.straggler_multiplier
        ok = not (model.failure_prob > 0 and stream.random() < model.failure_prob)
        return max(0.0, latency), ok

    def provision_with_latency(
        self,
        vm_type: VMType,
        count: int = 1,
        name_prefix: Optional[str] = None,
        market: str = ON_DEMAND,
    ) -> List[ProvisionTicket]:
        """Provision ``count`` VMs asynchronously, drawing per-VM latencies.

        Each returned ticket carries the VM and the delay until it is ready;
        the caller schedules its own readiness callback and adds the VM to a
        cluster when the delay elapses.  Failed attempts (per the
        :class:`ProvisioningModel` failure tail) are retried: their latency
        adds to the delay, they bill nothing, and they are counted in
        ``provisioning_failures`` and on the ticket.  Billing for the
        successful VM starts at its *ready* time, not at request time.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        prefix = name_prefix or vm_type.name.lower()
        tickets = []
        for _ in range(count):
            delay = 0.0
            failures = 0
            while True:
                self._counter += 1
                vm_id = f"{prefix}-{self._counter:03d}"
                latency, ok = self.draw_provisioning(vm_id)
                delay += latency
                if ok:
                    break
                failures += 1
                self.provisioning_failures += 1
            vm = self._create(vm_id, vm_type, market, self.sim.now + delay)
            tickets.append(ProvisionTicket(vm=vm, delay_s=delay, failures=failures))
        return tickets

    def mark_failed(self, vm: VirtualMachine) -> None:
        """Finalize billing for a VM lost to a crash or spot eviction.

        Unlike :meth:`deprovision` this does not require the VM's slots to be
        free — the cloud took the machine, occupied or not.  Executor
        teardown is the runtime's problem (``TopologyRuntime.fail_vm``).
        """
        if vm.deprovisioned_at is not None:
            raise ValueError(f"VM {vm.vm_id} is already deprovisioned")
        vm.deprovisioned_at = self.sim.now
        record = self._billing.get(vm.vm_id)
        if record is not None:
            record.deprovisioned_at = self.sim.now

    def deprovision(self, vm: VirtualMachine) -> None:
        """Release a VM; billing is finalized at the current simulated time.

        Raises if the VM still hosts executors or was already deprovisioned
        (double releases would silently corrupt the billing records).
        """
        if vm.occupied_slots:
            raise ValueError(
                f"cannot deprovision VM {vm.vm_id}: slots still occupied by "
                f"{[s.executor_id for s in vm.occupied_slots]}"
            )
        if vm.deprovisioned_at is not None:
            raise ValueError(f"VM {vm.vm_id} is already deprovisioned")
        vm.deprovisioned_at = self.sim.now
        record = self._billing.get(vm.vm_id)
        if record is not None:
            record.deprovisioned_at = self.sim.now

    def release_from(self, cluster: Cluster, vm_id: str) -> VirtualMachine:
        """Deprovision a VM *and* remove it from the cluster (scale-in path).

        This is the one-call variant elastic controllers use: the VM stops
        accruing cost and is no longer eligible for future placements.
        """
        vm = cluster.vm(vm_id)
        self.deprovision(vm)
        cluster.remove_vm(vm_id)
        return vm

    @property
    def billing_records(self) -> List[BillingRecord]:
        """All billing records, one per provisioned VM."""
        return list(self._billing.values())

    def total_cost(self) -> float:
        """Total accrued cost across all VMs at the current simulated time."""
        return sum(r.cost(self.sim.now) for r in self._billing.values())

    def cost_breakdown(self) -> Dict[str, float]:
        """Accrued cost per market, e.g. ``{"on-demand": 1.2, "spot": 0.4}``."""
        breakdown: Dict[str, float] = {}
        for record in self._billing.values():
            cost = record.cost(self.sim.now)
            breakdown[record.market] = breakdown.get(record.market, 0.0) + cost
        return breakdown
