"""Cloud and cluster substrate.

Models the IaaS layer the paper runs on: Azure D-series virtual machines that
are divided into single-core resource slots, a cloud provider that provisions
and bills them, and the placement planners (:mod:`repro.cluster.placement`:
round-robin, bin-packing, incremental) that map dataflow task instances onto
slots.

The paper's experiments use three VM sizes (Table 1 and §5 "System Setup"):

* **D1** -- 1 core, 1 slot (scale-out target),
* **D2** -- 2 cores, 2 slots (default deployment),
* **D3** -- 4 cores, 4 slots (scale-in target; also hosts Redis and the
  source/sink tasks).

Each slot runs exactly one task instance (executor) and is assigned one
1-core Intel Xeon E5 v3 CPU with 3.5 GB RAM in the paper; we retain the
one-executor-per-slot invariant.
"""

from repro.cluster.vm import Slot, VirtualMachine, VMType, D1, D2, D3, VM_TYPES, is_worker_vm
from repro.cluster.cloud import (
    ON_DEMAND,
    SPOT,
    BillingRecord,
    CloudProvider,
    Cluster,
    NetworkModel,
    ProvisioningModel,
    ProvisionTicket,
    SpotMarket,
)
from repro.cluster.chaos import (
    FaultEvent,
    FaultInjector,
    FaultRecord,
)
from repro.cluster.placement import (
    PackingError,
    PlacementPlan,
    bin_pack_plan,
    placement_diff,
    round_robin_plan,
)

__all__ = [
    "BillingRecord",
    "CloudProvider",
    "Cluster",
    "D1",
    "D2",
    "D3",
    "FaultEvent",
    "FaultInjector",
    "FaultRecord",
    "NetworkModel",
    "ON_DEMAND",
    "PackingError",
    "PlacementPlan",
    "ProvisioningModel",
    "ProvisionTicket",
    "SPOT",
    "SpotMarket",
    "Slot",
    "VirtualMachine",
    "VMType",
    "VM_TYPES",
    "bin_pack_plan",
    "is_worker_vm",
    "placement_diff",
    "round_robin_plan",
]
