"""Placement: the mapping from executors to slots, and every rule computing one.

A :class:`PlacementPlan` is the input to both initial deployment and
rebalance.  Migration strategies do not compute plans themselves (the paper
explicitly scopes resource allocation out); they enact a plan that has
already been decided.  Three planners decide one:

* :func:`round_robin_plan` -- Storm's default even scheduler, which the paper
  uses "during initial deployment and on rebalance": executors cycle over the
  VMs, spreading instances without trying to exploit locality;
* :func:`bin_pack_plan` -- fill each VM before the next, partially filled VMs
  first: consolidation (in the spirit of R-Storm, the paper's reference [3])
  and the multi-tenant shared fleet, where a new tenant co-locates on
  partially filled VMs instead of getting fresh machines;
* :func:`incremental_plan` -- keep unchanged assignments, place only the delta.

Executors may be *pinned* to a VM (:func:`_place_pinned`): the paper pins the
source and sink tasks to a dedicated 4-slot VM that never migrates, so
end-to-end statistics can be logged without clock skew.

Every planner hands out only free slots (:func:`_slot_free`), so a slot
another tenant's executor holds is never reassigned; and whose executor a
slot holds is asked one way, :meth:`PlacementPlan.owns`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cluster.vm import Slot, VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cloud imports vm only)
    from repro.cluster.cloud import Cluster


@dataclass
class PlacementPlan:
    """Mapping from executor id to slot id.

    The plan also remembers which VM each slot belongs to, so that the engine
    can derive locality without consulting the cluster again.
    """

    assignments: Dict[str, str] = field(default_factory=dict)
    slot_to_vm: Dict[str, str] = field(default_factory=dict)

    def assign(self, executor_id: str, slot_id: str, vm_id: str) -> None:
        """Add one executor-to-slot assignment."""
        if executor_id in self.assignments:
            raise ValueError(f"executor {executor_id} is already assigned to {self.assignments[executor_id]}")
        if slot_id in self.slot_to_vm and slot_id in set(self.assignments.values()):
            raise ValueError(f"slot {slot_id} is already used in this plan")
        self.assignments[executor_id] = slot_id
        self.slot_to_vm[slot_id] = vm_id

    def slot_of(self, executor_id: str) -> str:
        """Return the slot assigned to the executor."""
        return self.assignments[executor_id]

    def vm_of(self, executor_id: str) -> str:
        """Return the VM hosting the executor's assigned slot."""
        return self.slot_to_vm[self.assignments[executor_id]]

    @property
    def executors(self) -> List[str]:
        """All executor ids covered by the plan."""
        return list(self.assignments.keys())

    @property
    def vms_used(self) -> Set[str]:
        """Distinct VMs used by the plan."""
        return {self.slot_to_vm[s] for s in self.assignments.values()}

    def executors_on_vm(self, vm_id: str) -> List[str]:
        """All executors placed on the given VM."""
        return [e for e, s in self.assignments.items() if self.slot_to_vm.get(s) == vm_id]

    def owns(self, slot: Slot) -> bool:
        """Whether ``slot`` holds one of this plan's executors, in the slot the plan gives it.

        The one "is this slot ours" test: on a shared fleet executor ids
        repeat across tenants (two tenants of one DAG both run ``task1#0``),
        so the id a slot holds does not say whose executor it is.
        """
        return slot.occupied and self.assignments.get(slot.executor_id) == slot.slot_id

    def __len__(self) -> int:
        return len(self.assignments)

    def __contains__(self, executor_id: str) -> bool:
        return executor_id in self.assignments

    def copy(self) -> "PlacementPlan":
        """Deep-enough copy of the plan."""
        return PlacementPlan(assignments=dict(self.assignments), slot_to_vm=dict(self.slot_to_vm))


class PackingError(ValueError):
    """Raised when a placement request cannot be satisfied."""


def _slot_free(slot: Slot, used_slots: Set[str], relocating: Optional[PlacementPlan] = None) -> bool:
    """The one free-slot rule every planner shares.

    Free: not used in this plan, and unoccupied or held by an executor this
    plan relocates (``relocating`` maps those to their current slots; the
    rebalance releases them before applying the new assignments).
    """
    if slot.slot_id in used_slots:
        return False
    return not slot.occupied or (relocating is not None and relocating.owns(slot))


def _place_pinned(
    executor_ids: Sequence[str],
    cluster: "Cluster",
    pinned: Optional[Mapping[str, str]],
    exclude_vms: Optional[Iterable[str]],
) -> Tuple[PlacementPlan, Set[str], List[VirtualMachine], List[str]]:
    """Open a plan: pinned executors on free slots of their VMs, the rest checked to fit.

    Returns ``(plan, used_slots, eligible_vms, unpinned)``: the VMs not in
    ``exclude_vms`` in cluster order, and the executors still to place.
    Raises :class:`PackingError` when a pin or the eligible free slots fail.
    """
    plan = PlacementPlan()
    used_slots: Set[str] = set()
    pinned = dict(pinned or {})
    for executor_id, vm_id in pinned.items():
        if vm_id not in cluster:
            raise PackingError(f"pinned VM {vm_id} for executor {executor_id} is not in the cluster")
        slot = next((s for s in cluster.vm(vm_id).slots if _slot_free(s, used_slots)), None)
        if slot is None:
            raise PackingError(f"no free slot on pinned VM {vm_id} for executor {executor_id}")
        plan.assign(executor_id, slot.slot_id, vm_id)
        used_slots.add(slot.slot_id)
    excluded = set(exclude_vms or [])
    eligible_vms = [vm for vm in cluster.vms if vm.vm_id not in excluded]
    unpinned = [e for e in executor_ids if e not in pinned]
    total_free = sum(1 for vm in eligible_vms for s in vm.slots if _slot_free(s, used_slots))
    if len(unpinned) > total_free:
        raise PackingError(f"not enough free slots: need {len(unpinned)}, have {total_free}")
    return plan, used_slots, eligible_vms, unpinned


def round_robin_plan(
    executor_ids: Sequence[str],
    cluster: "Cluster",
    pinned: Optional[Mapping[str, str]] = None,
    exclude_vms: Optional[Iterable[str]] = None,
) -> PlacementPlan:
    """Storm's default even scheduler: distribute executors round-robin over VMs.

    Executors are assigned one at a time, cycling through the eligible VMs in
    insertion order and taking the next free slot of each VM.  ``pinned``
    forces executors onto free slots of given VMs (the source/sink util VM);
    ``exclude_vms`` bars VMs from receiving unpinned ones.

    Raises :class:`PackingError` when the cluster cannot host the request.
    """
    plan, used_slots, eligible_vms, unpinned = _place_pinned(
        executor_ids, cluster, pinned, exclude_vms
    )
    vm_index = 0
    for executor_id in unpinned:
        placed = False
        attempts = 0
        while not placed and attempts < len(eligible_vms):
            vm = eligible_vms[vm_index % len(eligible_vms)]
            vm_index += 1
            attempts += 1
            slot = next((s for s in vm.slots if _slot_free(s, used_slots)), None)
            if slot is not None:
                plan.assign(executor_id, slot.slot_id, vm.vm_id)
                used_slots.add(slot.slot_id)
                placed = True
        if not placed:
            raise PackingError(f"could not place executor {executor_id}")
    return plan


def bin_pack_plan(
    executor_ids: Sequence[str],
    cluster: "Cluster",
    pinned: Optional[Mapping[str, str]] = None,
    exclude_vms: Optional[Iterable[str]] = None,
) -> PlacementPlan:
    """Pack executors onto as few VMs as possible, partially filled VMs first.

    Eligible VMs are visited *partially filled first* (a VM that already
    hosts someone else's executors but still has free slots), then empty
    ones, each filled completely before moving on -- so a consolidation uses
    few machines and co-located tenants share them instead of each spreading
    over a fresh fleet.  Within each class the cluster's insertion order is
    kept, so the packing is deterministic.  ``pinned`` and ``exclude_vms``
    are as for :func:`round_robin_plan`.

    Raises :class:`PackingError` when the fleet cannot host the request.
    """
    plan, used_slots, eligible, unpinned = _place_pinned(
        executor_ids, cluster, pinned, exclude_vms
    )
    # Partially filled VMs first (stable within each class), empty VMs last.
    eligible.sort(key=lambda vm: 0 if vm.occupied_slots else 1)
    free = [(vm, slot) for vm in eligible for slot in vm.slots if _slot_free(slot, used_slots)]
    for executor_id, (vm, slot) in zip(unpinned, free):
        plan.assign(executor_id, slot.slot_id, vm.vm_id)
    return plan


def incremental_plan(
    executor_ids: Sequence[str],
    cluster: "Cluster",
    old_plan: PlacementPlan,
    target_vm_ids: Sequence[str],
    preplaced: Optional[PlacementPlan] = None,
) -> PlacementPlan:
    """Rescale-aware placement: keep unchanged assignments, place only the delta.

    Every executor whose current assignment (per ``old_plan``) already lives
    on one of the ``target_vm_ids`` **keeps its slot** -- the rebalance then
    classifies it as *staying*, so it is neither killed nor restarted.  Only
    executors that are new (spawned by a rescale) or stranded on a
    non-target VM are placed, onto free slots of the target VMs in the order
    given (retained fleet first, then the freshly provisioned delta), each VM
    filled in slot order.

    A slot counts as free when it is unoccupied *or* holds one of the
    executors this plan is relocating, in the slot ``old_plan`` gives it (the
    rebalance releases those slots before applying the new assignments);
    slots held by anyone else -- a co-located tenant on a shared fleet, even
    one running the same DAG -- are never touched.

    ``preplaced`` carries assignments decided outside this packing (pinned
    sources/sinks on the util VM); they are copied into the result verbatim.

    Raises :class:`PackingError` when the target VMs cannot host the delta.
    """
    plan = preplaced.copy() if preplaced is not None else PlacementPlan()
    used_slots: Set[str] = set(plan.assignments.values())
    targets = set(target_vm_ids)

    moving: List[str] = []
    for executor_id in executor_ids:
        old_slot = old_plan.assignments.get(executor_id)
        if (
            old_slot is not None
            and old_slot not in used_slots
            and old_plan.slot_to_vm.get(old_slot) in targets
        ):
            plan.assign(executor_id, old_slot, old_plan.slot_to_vm[old_slot])
            used_slots.add(old_slot)
        else:
            moving.append(executor_id)

    relocating = PlacementPlan(
        {e: old_plan.assignments[e] for e in moving if e in old_plan.assignments}
    )
    free: List[Tuple[str, str]] = []
    for vm_id in target_vm_ids:
        if vm_id not in cluster:
            raise PackingError(f"target VM {vm_id} is not in the cluster")
        free.extend(
            (vm_id, slot.slot_id)
            for slot in cluster.vm(vm_id).slots
            if _slot_free(slot, used_slots, relocating)
        )
    if len(moving) > len(free):
        raise PackingError(
            f"target VMs cannot host the {len(moving)} relocating executors: "
            f"only {len(free)} free slots"
        )
    for executor_id, (vm_id, slot_id) in zip(moving, free):
        plan.assign(executor_id, slot_id, vm_id)
    return plan


def placement_diff(old: PlacementPlan, new: PlacementPlan) -> Tuple[Set[str], Set[str], Set[str]]:
    """Compare two plans and classify executors.

    Returns ``(migrating, staying, new_executors)`` where

    * ``migrating`` -- executors present in both plans whose slot changed (these
      are killed and restarted by a rebalance),
    * ``staying`` -- executors whose slot is unchanged (they keep running and
      buffer messages during the rebalance),
    * ``new_executors`` -- executors only present in the new plan.
    """
    migrating: Set[str] = set()
    staying: Set[str] = set()
    new_executors: Set[str] = set()
    for executor_id, slot_id in new.assignments.items():
        if executor_id not in old.assignments:
            new_executors.add(executor_id)
        elif old.assignments[executor_id] != slot_id:
            migrating.add(executor_id)
        else:
            staying.add(executor_id)
    return migrating, staying, new_executors
