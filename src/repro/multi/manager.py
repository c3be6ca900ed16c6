"""The multi-tenant cluster manager: many dataflows, one shared fleet.

The :class:`ClusterManager` is the operator-side composition root the paper's
north-star use case needs (a cloud provider hosting many users' pipelines):
it owns one :class:`~repro.sim.Simulator`, one
:class:`~repro.cluster.cloud.CloudProvider`, one shared
:class:`~repro.cluster.cloud.Cluster` and one
:class:`~repro.elastic.arbiter.ScaleArbiter`, and hosts N independent tenants,
each with its own dataflow, :class:`~repro.engine.runtime.TopologyRuntime`,
:class:`~repro.elastic.monitor.ElasticityMonitor`,
:class:`~repro.elastic.planner.AllocationPlanner` and
:class:`~repro.elastic.controller.ElasticityController` asking the shared
arbiter before every scaling action.

Deployment bin-packs every tenant onto a common D2 worker fleet (partially
filled VMs first, so tenants co-locate instead of each rounding up to a
private fleet): each tenant's runtime plans with
:func:`~repro.cluster.placement.bin_pack_plan`, which never reassigns an
occupied slot, with the VMs it must avoid right now merged into every
request (:func:`shared_fleet_planner`).  Each tenant gets a
dedicated util VM for its sources and sinks (the paper pins them off the
migration path), tagged ``role="util:<tenant>"`` so the tenant's runtime
finds its own and never the neighbours'.

While running, the manager samples fleet-level occupancy
(:class:`FleetSample`) so experiments can report cluster utilization and
verify the budget invariant over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.cluster.cloud import CloudProvider, Cluster
from repro.cluster.placement import PlacementPlan, bin_pack_plan
from repro.cluster.vm import D2, D3, is_worker_vm
from repro.core.strategy import strategy_by_name
from repro.dataflow.graph import Dataflow
from repro.elastic.arbiter import ScaleArbiter
from repro.elastic.controller import ElasticityController, build_controller
from repro.elastic.monitor import ElasticityMonitor
from repro.elastic.planner import AllocationPlanner
from repro.elastic.policy import ControllerConfig, FullReplacePlacement, IncrementalPlacement
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.sim import Simulator, cell_seed
from repro.workloads.profiles import RateProfile, attach_profile


def shared_fleet_planner(excluded_vms_fn: Callable[[], Set[str]]) -> Callable[..., PlacementPlan]:
    """A tenant's planner: :func:`~repro.cluster.placement.bin_pack_plan` with
    ``excluded_vms_fn()`` merged into every request's ``exclude_vms``."""

    def plan(executor_ids, cluster, pinned=None, exclude_vms=None) -> PlacementPlan:
        excluded = set(exclude_vms or ()) | excluded_vms_fn()
        return bin_pack_plan(executor_ids, cluster, pinned=pinned, exclude_vms=excluded)

    return plan


@dataclass
class Tenant:
    """One hosted dataflow and its control stack."""

    name: str
    dataflow: Dataflow
    strategy: str
    priority: int
    profile: Optional[RateProfile]
    runtime: TopologyRuntime = None  # type: ignore[assignment]  # set at deploy
    controller: ElasticityController = None  # type: ignore[assignment]
    util_vm_id: Optional[str] = None
    config: Optional[RuntimeConfig] = None
    controller_config: Optional[ControllerConfig] = None
    elastic_parallelism: bool = False
    #: ``full-replace`` (fresh fleet per scaling action, the default) or
    #: ``incremental`` (keep unchanged instances; a consolidation re-uses
    #: partially-free shared VMs instead of provisioning a private fleet).
    placement: str = "full-replace"

    @property
    def deployed(self) -> bool:
        """Whether the tenant's runtime has been deployed."""
        return self.runtime is not None and self.runtime.deployed

    @property
    def monitor(self) -> ElasticityMonitor:
        """The monitor the tenant's controller samples (set at deploy)."""
        return self.controller.monitor

    @property
    def planner(self) -> AllocationPlanner:
        """The planner sizing the tenant's dataflow (set at deploy)."""
        return self.controller.planner


@dataclass(frozen=True)
class FleetSample:
    """One observation of the shared fleet."""

    time: float
    #: Worker slots physically provisioned (must stay within the budget).
    worker_slots: int
    #: Worker slots hosting an executor.
    occupied_slots: int
    #: Committed slots as the arbiter sees them (physical + reserved).
    committed_slots: int

    @property
    def utilization(self) -> float:
        """Occupied fraction of the provisioned worker slots."""
        return self.occupied_slots / self.worker_slots if self.worker_slots else 0.0


class ClusterManager:
    """Owns the shared fleet and hosts N arbitrated tenants."""

    def __init__(
        self,
        budget_slots: int,
        sim: Optional[Simulator] = None,
        provisioning_latency_s: float = 30.0,
        fleet_sample_interval_s: float = 15.0,
        seed: int = 2018,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.provider = CloudProvider(self.sim, provisioning_latency_s=provisioning_latency_s)
        self.cluster = Cluster()
        self.arbiter = ScaleArbiter(self.cluster, budget_slots=budget_slots)
        self.fleet_sample_interval_s = fleet_sample_interval_s
        self.seed = seed
        self.tenants: Dict[str, Tenant] = {}
        self.fleet_samples: List[FleetSample] = []
        self.initial_vm_ids: List[str] = []
        self._deployed = False
        self._sampler_timer = None

    # ----------------------------------------------------------------- tenants
    def add_tenant(
        self,
        name: str,
        dataflow: Dataflow,
        strategy: str = "ccr",
        profile: Optional[RateProfile] = None,
        priority: int = 1,
        config: Optional[RuntimeConfig] = None,
        controller_config: Optional[ControllerConfig] = None,
        elastic_parallelism: bool = False,
        placement: str = "full-replace",
    ) -> Tenant:
        """Register a dataflow as a tenant (before :meth:`deploy`).

        ``profile`` is attached to the source by
        :func:`~repro.workloads.profiles.attach_profile`, as the elastic
        runner attaches a profile instance: it is only accepted for
        single-source dataflows.  ``None`` keeps the sources' declared
        constant rates.  Tenants of one priority share the fleet
        by the slots they hold (the arbiter's proportional-share rule).
        ``placement="incremental"`` gives the tenant the rescale-aware
        placer: grows keep the current fleet and provision only the delta,
        and consolidations re-use partially-free shared VMs (zero new
        provisioning) whenever the shared fleet can absorb the survivors.
        """
        if placement not in ("full-replace", "incremental"):
            raise ValueError(f"unknown placement policy {placement!r}")
        if self._deployed:
            raise RuntimeError("tenants must be added before deploy()")
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} is already registered")
        tenant = Tenant(
            name=name,
            dataflow=dataflow,
            strategy=strategy,
            priority=priority,
            # An instance carries its own times: the duration only scales a preset.
            profile=attach_profile(dataflow, profile, duration_s=0.0),
            config=config,
            controller_config=controller_config,
            elastic_parallelism=elastic_parallelism,
            placement=placement,
        )
        self.tenants[name] = tenant
        return tenant

    def tenant(self, name: str) -> Tenant:
        """Return a registered tenant by name."""
        return self.tenants[name]

    # ------------------------------------------------------------- deployment
    def _excluded_vms_for(self, tenant_name: str) -> Callable[[], Set[str]]:
        """Dynamic VM exclusions for one tenant's planners.

        Every util VM (its own is reached through pinning only) plus whatever
        the arbiter currently lists as retiring: rebalancing onto a VM about
        to be deprovisioned would strand the executor.
        """

        def _excluded() -> Set[str]:
            excluded = {
                vm.vm_id for vm in self.cluster.vms if not is_worker_vm(vm)
            }
            excluded |= self.arbiter.retiring_vms
            return excluded

        return _excluded

    def deploy(self) -> None:
        """Provision the shared fleet and deploy every tenant onto it."""
        if self._deployed:
            raise RuntimeError("ClusterManager is already deployed")
        if not self.tenants:
            raise RuntimeError("no tenants registered")
        total_slots = sum(t.dataflow.total_instances() for t in self.tenants.values())
        # The fleet is built from whole D2 VMs, so the budget must admit the
        # *provisioned* slot count, not just the instance total -- an odd
        # total rounds up to one extra slot that would otherwise breach the
        # arbiter invariant at t=0 and wedge every future proposal.
        initial_count = int(math.ceil(total_slots / D2.slots))
        initial_slots = initial_count * D2.slots
        if initial_slots > self.arbiter.budget_slots:
            raise ValueError(
                f"tenants need {total_slots} worker slots ({initial_count} D2 VMs = "
                f"{initial_slots} provisioned slots) but the fleet budget is "
                f"{self.arbiter.budget_slots}"
            )

        # One dedicated util VM per tenant (sources/sinks never migrate).
        for name, tenant in self.tenants.items():
            util_vm = self.provider.provision(D3, 1, name_prefix=f"util-{name}")[0]
            util_vm.tags["role"] = f"util:{name}"
            util_vm.tags["tenant"] = name
            self.cluster.add_vm(util_vm)
            tenant.util_vm_id = util_vm.vm_id

        # The shared worker fleet: sized for the *sum* of the tenants' slots,
        # so co-location saves the per-tenant round-up a private fleet pays.
        for vm in self.provider.provision(D2, initial_count, name_prefix="shared-d2"):
            self.cluster.add_vm(vm)
            self.initial_vm_ids.append(vm.vm_id)

        for name, tenant in self.tenants.items():
            strategy_cls = strategy_by_name(tenant.strategy)
            config = tenant.config
            if config is None:
                # Independent random streams per tenant, reproducibly.
                config = strategy_cls.runtime_config(
                    seed=cell_seed(self.seed, "multi", name, tenant.dataflow.name)
                )
            config.util_vm_role = f"util:{name}"
            tenant.config = config
            excluded_vms_fn = self._excluded_vms_for(name)
            runtime = TopologyRuntime(
                tenant.dataflow,
                self.cluster,
                sim=self.sim,
                config=config,
                scheduler=shared_fleet_planner(excluded_vms_fn),
            )
            runtime.deploy()
            tenant.runtime = runtime
            if tenant.placement == "incremental":
                # Shared-fleet incremental placer: consolidations re-use
                # partially-free shared VMs, and the dynamic exclusion set
                # (every util VM, every retiring VM) is the runtime's planner's.
                placement_policy = IncrementalPlacement(excluded_vms_fn)
            else:
                placement_policy = FullReplacePlacement()
            tenant.controller = build_controller(
                runtime,
                self.provider,
                strategy_cls,
                tenant.controller_config,
                elastic_parallelism=tenant.elastic_parallelism,
                placement=placement_policy,
                arbiter=self.arbiter,
                tenant_id=name,
            )
            self.arbiter.register_tenant(
                name,
                priority=tenant.priority,
                holdings_fn=(lambda rt=runtime: len(rt.user_executors)),
            )
        self._deployed = True

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start every tenant (sources emit, controllers watch) and the sampler."""
        if not self._deployed:
            raise RuntimeError("deploy() must be called before start()")
        for tenant in self.tenants.values():
            tenant.runtime.start()
            tenant.controller.start()
        if self._sampler_timer is None:
            self._sampler_timer = self.sim.every(self.fleet_sample_interval_s, self.sample_fleet)

    def run(self, until: float) -> None:
        """Advance the shared simulation."""
        self.sim.run(until=until)

    def stop(self) -> None:
        """Stop controllers, sources and the fleet sampler."""
        for tenant in self.tenants.values():
            if tenant.controller is not None:
                tenant.controller.stop()
            if tenant.runtime is not None:
                tenant.runtime.stop_sources()
        if self._sampler_timer is not None:
            self._sampler_timer.cancel()
            self._sampler_timer = None

    # -------------------------------------------------------------- inspection
    def sample_fleet(self) -> FleetSample:
        """Record one fleet-level occupancy sample."""
        worker_vms = [vm for vm in self.cluster.vms if is_worker_vm(vm)]
        sample = FleetSample(
            time=self.sim.now,
            worker_slots=sum(len(vm.slots) for vm in worker_vms),
            occupied_slots=sum(len(vm.occupied_slots) for vm in worker_vms),
            committed_slots=self.arbiter.committed_slots(),
        )
        self.arbiter.observe_committed()
        self.fleet_samples.append(sample)
        return sample

    def mean_utilization(self) -> float:
        """Mean worker-slot utilization across the recorded fleet samples."""
        if not self.fleet_samples:
            return 0.0
        return sum(s.utilization for s in self.fleet_samples) / len(self.fleet_samples)

    def total_cost(self) -> float:
        """Total accrued cloud cost (workers and util VMs) right now."""
        return self.provider.total_cost()
