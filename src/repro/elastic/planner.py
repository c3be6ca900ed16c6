"""Allocation planning: from an observed input rate to a target VM fleet.

The paper sizes dataflows with a simple rule -- **one task instance per
incremental 8 events/second of input rate** (Table 1) -- and packs the
resulting slots onto Azure D-series VMs: D2s for the default deployment,
D3s when consolidating (scale-in), one-slot D1s when expanding (scale-out,
so per-minute billing tracks the load closely and single-VM failures hurt
less).  The planner applies the same arithmetic to a *measured* rate:

* :meth:`AllocationPlanner.required_instances` re-derives every user task's
  input rate at the observed source rate and applies the 1-per-8 ev/s rule
  (a task that declares its own ``capacity_ev_s`` is sized by that instead);
* :meth:`AllocationPlanner.plan` compares that requirement against the
  instances actually deployed (the *pressure*) and picks an allocation tier
  -- ``expanded`` at :data:`EXPAND_PRESSURE` or above, ``consolidated`` at
  :data:`CONSOLIDATE_PRESSURE` or below, ``baseline`` between -- with
  Table-1 style VM packing for the slots that must be hosted.

By default the plan keeps the executor count fixed (the paper scopes
parallelism changes out of the migration problem); elasticity is then about
*which VMs* host the slots, which is exactly what DSM/DCR/CCR enact.  With
``elastic_parallelism=True`` the planner goes beyond the paper's scoping: the
same per-task arithmetic also yields a
:class:`~repro.dataflow.graph.RescalePlan` of target instance counts, so a
scale-out *adds processing capacity* instead of only spreading the same
slots over more machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set

from repro.cluster.placement import PlacementPlan, incremental_plan
from repro.cluster.vm import D1, D2, D3, VMType
from repro.dataflow.graph import INSTANCE_CAPACITY_EV_S, Dataflow, RescalePlan, exact_instance_ceiling
from repro.engine.runtime import TopologyRuntime

#: Load pressure (required / hosted instances) at or above which the
#: deployment expands onto D1s ...
EXPAND_PRESSURE = 1.2
#: ... and at or below which it consolidates onto D3s.
CONSOLIDATE_PRESSURE = 0.95

#: Allocation tiers in scale order (index comparisons give the direction).
TIER_ORDER: Dict[str, int] = {"consolidated": 0, "baseline": 1, "expanded": 2}


@dataclass(frozen=True)
class TargetAllocation:
    """The VM fleet a given input rate calls for."""

    #: ``consolidated`` (pack onto D3s), ``baseline`` (D2s) or ``expanded`` (D1s).
    tier: str
    #: Instances the 1-per-8 ev/s rule demands at the observed rate.
    required_instances: int
    #: Slots that must actually be hosted (the deployed executor count).
    hosted_slots: int
    #: ``required_instances / hosted_slots`` -- the load pressure that picked the tier.
    pressure: float
    #: VM flavour name -> count, e.g. ``{"D1": 13}``.
    vm_counts: Dict[str, int] = field(default_factory=dict)
    #: Parallelism changes to enact with the migration (capacity-adding
    #: scaling); ``None`` for the paper's placement-only scaling.
    rescale: Optional[RescalePlan] = None


class AllocationPlanner:
    """Turns an observed source rate into a target allocation tier."""

    #: VM flavour used per tier.
    TIER_VM_TYPES: Dict[str, VMType] = {"consolidated": D3, "baseline": D2, "expanded": D1}

    def __init__(self, dataflow: Dataflow, elastic_parallelism: bool = False) -> None:
        self.dataflow = dataflow
        self.elastic_parallelism = elastic_parallelism
        #: Steady-state per-task input rates at the declared source rates,
        #: carried as exact rationals (so is the summed source rate) so
        #: instance counts never wobble on float noise.
        self._baseline_rates_exact = dataflow.input_rates_exact()
        self._baseline_source_rate = sum(
            (self._baseline_rates_exact[s.name] for s in dataflow.sources), Fraction(0)
        )
        if self._baseline_source_rate <= 0:
            raise ValueError("dataflow sources must declare a positive rate")

    # ------------------------------------------------------------------ rules
    def required_instances_by_task(self, observed_rate_ev_s: float) -> Dict[str, int]:
        """Per-task instance demand at the observed rate (1-per-capacity rule).

        Every user task's steady-state input rate is scaled by
        ``observed / baseline`` source rate; each task needs
        ``ceil(rate / capacity)`` instances (exact rational ceiling), at
        least one, where ``capacity`` is the task's own ``capacity_ev_s`` or
        :data:`INSTANCE_CAPACITY_EV_S`.
        """
        scale = Fraction(max(0.0, observed_rate_ev_s)) / self._baseline_source_rate
        required: Dict[str, int] = {}
        for task in self.dataflow.user_tasks:
            task_rate = self._baseline_rates_exact[task.name] * scale
            capacity = task.capacity_ev_s if task.capacity_ev_s is not None else INSTANCE_CAPACITY_EV_S
            required[task.name] = max(1, exact_instance_ceiling(task_rate, capacity))
        return required

    def required_instances(self, observed_rate_ev_s: float) -> int:
        """Total instances the 1-per-capacity rule demands at the observed rate."""
        return sum(self.required_instances_by_task(observed_rate_ev_s).values())

    def plan(self, observed_rate_ev_s: float, current_tier: Optional[str] = None) -> TargetAllocation:
        """Pick the allocation tier and VM packing for an observed rate.

        With ``elastic_parallelism`` enabled the allocation also carries the
        :class:`RescalePlan` matching the demand whenever the pressure is
        out of band -- including when the tier *label* does not change (a
        second surge on an already-expanded deployment still adds capacity)
        -- VM counts are sized for the *post-rescale* slot demand, and an
        in-band pressure keeps ``current_tier`` (the deployed parallelism
        already fits; there is nothing to enact).  Without it the behaviour
        is exactly the paper's placement-only scaling.
        """
        required_by_task = self.required_instances_by_task(observed_rate_ev_s)
        required = sum(required_by_task.values())
        hosted = self.dataflow.total_instances()
        pressure = required / hosted if hosted else 0.0
        out_of_band = pressure >= EXPAND_PRESSURE or pressure <= CONSOLIDATE_PRESSURE
        if pressure >= EXPAND_PRESSURE:
            tier = "expanded"
        elif pressure <= CONSOLIDATE_PRESSURE:
            tier = "consolidated"
        elif self.elastic_parallelism and current_tier in TIER_ORDER:
            # Parallelism tracks demand, so an in-band pressure means the
            # current deployment is correctly sized -- stay put rather than
            # bouncing back to the "baseline" label after every rescale.
            tier = current_tier
        else:
            tier = "baseline"
        rescale: Optional[RescalePlan] = None
        hosted_target = hosted
        if self.elastic_parallelism and (tier != current_tier or out_of_band):
            targets = {
                name: count
                for name, count in required_by_task.items()
                if self.dataflow.task(name).parallelism != count
            }
            rescale = RescalePlan(targets=targets) if targets else None
            hosted_target = required
        vm_type = self.TIER_VM_TYPES[tier]
        vm_counts = {vm_type.name: int(math.ceil(hosted_target / vm_type.slots))}
        return TargetAllocation(
            tier=tier,
            required_instances=required,
            hosted_slots=hosted_target,
            pressure=pressure,
            vm_counts=vm_counts,
            rescale=rescale,
        )


def pinned_endpoints(runtime: TopologyRuntime) -> PlacementPlan:
    """Every source and sink assigned to the slot it already holds.

    They are pinned to the dedicated util VM and never migrate, so every
    post-deployment plan starts from (or ends with) these assignments.
    """
    if runtime.placement is None:
        raise ValueError("runtime must be deployed before planning a migration")
    plan = PlacementPlan()
    for executor in list(runtime.source_executors) + list(runtime.sink_executors):
        slot_id = runtime.placement.assignments[executor.executor_id]
        plan.assign(executor.executor_id, slot_id, runtime.placement.slot_to_vm[slot_id])
    return plan


def plan_user_tasks_on(runtime: TopologyRuntime, target_vm_ids: Sequence[str]) -> PlacementPlan:
    """Placement with user tasks on the target VMs only, via the runtime's scheduler.

    Sources and sinks keep their existing slots (:func:`pinned_endpoints`).
    """
    pinned = pinned_endpoints(runtime)
    target_set: Set[str] = set(target_vm_ids)
    exclude: List[str] = [vm.vm_id for vm in runtime.cluster.vms if vm.vm_id not in target_set]
    user_ids = [e.executor_id for e in runtime.user_executors]
    plan = runtime.scheduler(user_ids, runtime.cluster, pinned={}, exclude_vms=exclude)
    for executor_id, slot_id in pinned.assignments.items():
        plan.assign(executor_id, slot_id, pinned.slot_to_vm[slot_id])
    return plan


def incremental_plan_on(runtime: TopologyRuntime, target_vm_ids: Sequence[str]) -> PlacementPlan:
    """Incremental placement on the target VMs: whoever is already there stays put.

    User executors whose slot lives on a target VM keep it; only new or
    stranded ones are placed (see :func:`~repro.cluster.placement.incremental_plan`).
    Sources and sinks keep their existing slots (:func:`pinned_endpoints`).
    """
    user_ids = [e.executor_id for e in runtime.user_executors]
    return incremental_plan(
        user_ids, runtime.cluster, runtime.placement, target_vm_ids,
        preplaced=pinned_endpoints(runtime),
    )
