"""Per-tenant elastic controller: proposes to the arbiter instead of acting.

A :class:`TenantController` is an
:class:`~repro.elastic.controller.ElasticityController` whose capacity
acquisition is routed through the cluster's
:class:`~repro.multi.arbiter.ScaleArbiter`:

* before provisioning, the confirmed decision is *proposed*; a deferral
  leaves the controller's pending state intact, so it simply re-proposes on
  the next control tick until the arbiter lets it through (or the demand
  goes back in band, which withdraws the proposal);
* on grant, the VMs are provisioned into the shared cluster, tagged with the
  tenant id, and the arbiter's reservation is converted to physical
  accounting immediately -- the budget can never be double-claimed;
* when the migration request is issued, the VMs it will vacate are published
  as *retiring* so no other tenant is scheduled onto them;
* on completion, vacated VMs are deprovisioned **only if genuinely empty**
  (a co-located tenant's executors keep a shared VM alive and billed) and
  the arbiter releases the migration token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Type

from repro.cluster.cloud import CloudProvider
from repro.cluster.vm import VM_TYPES, VirtualMachine
from repro.core.strategy import MigrationStrategy
from repro.elastic.controller import (
    ControllerConfig,
    ElasticityController,
    EvacuationRecord,
    RecoveryRecord,
    ScalingAction,
)
from repro.elastic.forecast import ForecastPolicy
from repro.elastic.monitor import ElasticityMonitor
from repro.elastic.planner import AllocationPlanner, TargetAllocation
from repro.elastic.policy import Decision, PlacementPolicy
from repro.engine.runtime import TopologyRuntime
from repro.multi.arbiter import ScaleArbiter


@dataclass(frozen=True)
class Deferral:
    """One control tick on which the arbiter held this tenant back."""

    time: float
    direction: str
    slots_requested: int
    reason: str


def slots_of(target: TargetAllocation) -> int:
    """VM slots a target allocation's full fleet would provision."""
    return sum(VM_TYPES[name].slots * count for name, count in target.vm_counts.items())


class TenantController(ElasticityController):
    """Elasticity controller that must win arbitration before scaling."""

    def __init__(
        self,
        tenant_id: str,
        arbiter: ScaleArbiter,
        runtime: TopologyRuntime,
        provider: CloudProvider,
        monitor: ElasticityMonitor,
        planner: AllocationPlanner,
        strategy_cls: Type[MigrationStrategy],
        config: Optional[ControllerConfig] = None,
        initial_tier: str = "baseline",
        placement: Optional[PlacementPolicy] = None,
        forecast_policy: Optional[ForecastPolicy] = None,
    ) -> None:
        super().__init__(
            runtime, provider, monitor, planner, strategy_cls,
            config=config, initial_tier=initial_tier,
            placement=placement, forecast_policy=forecast_policy,
        )
        self.tenant_id = tenant_id
        self.arbiter = arbiter
        self.deferrals: List[Deferral] = []

    # ------------------------------------------------------------ arbitration
    def _tick(self) -> Decision:
        decision = super()._tick()
        if decision.outcome == "in-band":
            # The demand is (back) in band: if the arbiter was holding a
            # proposal of ours, stop claiming a place in the waiting registry.
            self.arbiter.withdraw(self.tenant_id)
        return decision

    def _acquire_capacity(self, action: ScalingAction) -> bool:
        # Propose exactly what will be provisioned: the full target fleet
        # under full-replace placement, only the delta under incremental
        # (a consolidation re-using free shared slots proposes zero).
        slots = action.provision_slots
        decision = self.arbiter.propose(
            self.tenant_id, action.direction, slots, now=self.runtime.sim.now
        )
        if not decision.granted:
            self.deferrals.append(
                Deferral(
                    time=self.runtime.sim.now,
                    direction=action.direction,
                    slots_requested=slots,
                    reason=decision.reason,
                )
            )
            return False
        granted = super()._acquire_capacity(action)
        for vm_id in action.provisioned_vm_ids:
            self.runtime.cluster.vm(vm_id).tags["tenant"] = self.tenant_id
        self.arbiter.notify_provisioned(self.tenant_id, action.provisioned_vm_ids)
        return granted

    def _migration_starting(self, action: ScalingAction, old_vm_ids: List[str]) -> None:
        self.arbiter.notify_migration_started(self.tenant_id, old_vm_ids)

    def _release_capacity(self, action: ScalingAction, old_vm_ids: List[str]) -> None:
        super()._release_capacity(action, old_vm_ids)
        self.arbiter.notify_complete(self.tenant_id)

    # ------------------------------------------------------- faults & chaos
    def _action_aborted(self, action: ScalingAction) -> None:
        # Every delta VM of a granted action died during provisioning: the
        # grant must go back to the budget or its migration token would
        # starve every other tenant forever.
        self.arbiter.notify_aborted(self.tenant_id, now=self.runtime.sim.now)

    def _delta_replaced(self, action: ScalingAction, vms: List[VirtualMachine]) -> None:
        for vm in vms:
            vm.tags["tenant"] = self.tenant_id
        self.arbiter.notify_provisioned(self.tenant_id, [vm.vm_id for vm in vms])

    def _replacement_provisioned(self, record: RecoveryRecord, vm: VirtualMachine) -> None:
        vm.tags["tenant"] = self.tenant_id

    def _evacuation_capacity_ready(self, record: EvacuationRecord, vm: VirtualMachine) -> None:
        vm.tags["tenant"] = self.tenant_id

    def _vm_eligible(self, vm: VirtualMachine) -> bool:
        # Never rebuild onto another tenant's VM, one an in-flight migration
        # is about to vacate, or one the cloud is about to reclaim.
        if vm.vm_id in self.arbiter.retiring_vms or vm.vm_id in self.arbiter.doomed_vms:
            return False
        return vm.tags.get("tenant") in (None, self.tenant_id)

    def _evacuation_starting(self, record: EvacuationRecord) -> None:
        self.arbiter.mark_doomed({record.vm_id})

    def _evacuation_finished(self, record: EvacuationRecord) -> None:
        self.arbiter.clear_doomed({record.vm_id})
