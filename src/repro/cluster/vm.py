"""Virtual machines, VM types and resource slots.

The unit of placement in Storm (and in this reproduction) is the *slot*: a
1-core share of a VM that hosts exactly one executor (task instance).  The
paper's clusters are built from Azure D-series VMs whose core count equals the
number of slots they expose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class VMType:
    """An IaaS virtual machine flavour.

    Attributes
    ----------
    name:
        Flavour name (e.g. ``"D2"``).
    cores:
        Number of CPU cores; in this reproduction one core backs one slot.
    memory_gb:
        Total memory; the paper allocates 3.5 GB per core.
    slots:
        Number of Storm worker slots exposed by the VM.
    hourly_cost:
        Nominal pay-as-you-go price used by the billing model (relative units;
        only ratios between flavours matter for the consolidation argument).
    """

    name: str
    cores: int
    memory_gb: float
    slots: int
    hourly_cost: float

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.slots <= 0:
            raise ValueError(f"VMType {self.name!r} must have positive cores and slots")
        if self.slots > self.cores:
            raise ValueError(
                f"VMType {self.name!r}: slots ({self.slots}) cannot exceed cores ({self.cores})"
            )


#: Azure D1: 1 core / 1 slot.  Scale-out target in the paper.
D1 = VMType(name="D1", cores=1, memory_gb=3.5, slots=1, hourly_cost=0.077)
#: Azure D2: 2 cores / 2 slots.  Default deployment in the paper.
D2 = VMType(name="D2", cores=2, memory_gb=7.0, slots=2, hourly_cost=0.154)
#: Azure D3: 4 cores / 4 slots.  Scale-in target; also hosts Redis and source/sink.
D3 = VMType(name="D3", cores=4, memory_gb=14.0, slots=4, hourly_cost=0.308)

#: Registry of the flavours used across the paper's experiments.
VM_TYPES: Dict[str, VMType] = {"D1": D1, "D2": D2, "D3": D3}


@dataclass
class Slot:
    """A single-core resource slot on a VM.

    A slot hosts at most one executor at a time.  ``executor_id`` is managed by
    the :class:`~repro.engine.runtime.TopologyRuntime` during deployment and
    rebalance.
    """

    slot_id: str
    vm_id: str
    index: int
    executor_id: Optional[str] = None

    @property
    def occupied(self) -> bool:
        """Whether an executor is currently assigned to this slot."""
        return self.executor_id is not None

    def assign(self, executor_id: str) -> None:
        """Assign an executor to this slot; raises if already occupied."""
        if self.executor_id is not None and self.executor_id != executor_id:
            raise ValueError(
                f"slot {self.slot_id} already hosts executor {self.executor_id}; "
                f"cannot assign {executor_id}"
            )
        self.executor_id = executor_id

    def release(self) -> Optional[str]:
        """Release the slot and return the executor that occupied it (if any)."""
        executor_id, self.executor_id = self.executor_id, None
        return executor_id


class VirtualMachine:
    """A provisioned VM with its resource slots.

    VMs are created by :class:`~repro.cluster.cloud.CloudProvider`.  A VM is a
    passive container of slots; execution timing is handled by the engine.
    """

    def __init__(self, vm_id: str, vm_type: VMType, tags: Optional[Dict[str, str]] = None) -> None:
        self.vm_id = vm_id
        self.vm_type = vm_type
        self.tags: Dict[str, str] = dict(tags or {})
        self.slots: List[Slot] = [
            Slot(slot_id=f"{vm_id}:slot{i}", vm_id=vm_id, index=i) for i in range(vm_type.slots)
        ]
        self.provisioned_at: Optional[float] = None
        self.deprovisioned_at: Optional[float] = None

    # ----------------------------------------------------------------- state
    @property
    def active(self) -> bool:
        """Whether the VM is provisioned and not yet released."""
        return self.provisioned_at is not None and self.deprovisioned_at is None

    @property
    def free_slots(self) -> List[Slot]:
        """Slots that currently host no executor."""
        return [s for s in self.slots if not s.occupied]

    @property
    def occupied_slots(self) -> List[Slot]:
        """Slots that currently host an executor."""
        return [s for s in self.slots if s.occupied]

    @property
    def utilization(self) -> float:
        """Fraction of slots occupied (0.0 - 1.0)."""
        if not self.slots:
            return 0.0
        return len(self.occupied_slots) / len(self.slots)

    def slot(self, index: int) -> Slot:
        """Return the slot with the given index."""
        return self.slots[index]

    def find_slot(self, slot_id: str) -> Optional[Slot]:
        """Return the slot with the given id, or ``None``."""
        for slot in self.slots:
            if slot.slot_id == slot_id:
                return slot
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualMachine({self.vm_id}, type={self.vm_type.name}, "
            f"slots={len(self.occupied_slots)}/{len(self.slots)} occupied)"
        )


def is_worker_vm(vm: VirtualMachine) -> bool:
    """Whether a VM counts against a slot budget and may be a fault's target:
    not a util host (``role`` ``util``, or a shared fleet's ``util:<tenant>``)."""
    return not vm.tags.get("role", "").startswith("util")
