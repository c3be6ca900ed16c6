"""Multi-tenant scenario runner: N dataflows, offset surges, one shared fleet.

Drives 2-3 paper DAGs as tenants of one :class:`~repro.multi.ClusterManager`
with *offset* surge profiles (each tenant's rush hour starts while another's
is ending), so the run exercises exactly what the arbiter exists for:
contending scale-outs, migrations that must not overlap unsafely, and
consolidations that must not land on a neighbour's dying VMs.

For the comparison the same tenants are also run **privately**: each dataflow
alone on its own fleet through a single-tenant ``ClusterManager`` with an
unconstrained budget -- same machinery, same samplers, so per-tenant sink
latency, migration windows, cluster utilization and cost are measured
identically in both settings.  The headline the ``repro multi`` CLI prints:
co-location serves the same workloads at comparable latency on fewer
slot-hours (higher utilization, lower bill), and the arbiter never lets the
fleet exceed its budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.vm import D2
from repro.dataflow import topologies
from repro.elastic.planner import AllocationPlanner
from repro.experiments.compare import RunRow
from repro.experiments.elastic import surge_profile
from repro.experiments.scenarios import check_names
from repro.multi import ClusterManager, FleetSample
from repro.obs import Telemetry


@dataclass
class ManagedRunResult:
    """One ClusterManager run (shared or private): its fleet, and a row per tenant."""

    manager: ClusterManager
    #: Tenant name -> its row (a :class:`~repro.multi.Tenant`'s run).
    tenants: Dict[str, RunRow]

    @property
    def budget_slots(self) -> int:
        """The fleet budget the arbiter enforced."""
        return self.manager.arbiter.budget_slots

    @property
    def max_committed_slots(self) -> int:
        """High-water mark of physical + reserved worker slots."""
        return self.manager.arbiter.max_committed_slots

    @property
    def fleet_samples(self) -> List[FleetSample]:
        """The manager's fleet occupancy timeline."""
        return self.manager.fleet_samples

    @property
    def mean_utilization(self) -> float:
        """Mean worker-slot utilization over the run."""
        return self.manager.mean_utilization()

    @property
    def mean_worker_slots(self) -> float:
        """Mean provisioned worker slots over the run (fleet footprint)."""
        samples = self.fleet_samples
        if not samples:
            return 0.0
        return sum(s.worker_slots for s in samples) / len(samples)

    @property
    def total_cost(self) -> float:
        """Total accrued cloud cost at the end of the run."""
        return self.manager.total_cost()

    def max_concurrent_migrations(self) -> int:
        """Largest number of tenant migration windows overlapping at once."""
        events: List[Tuple[float, int]] = []
        for row in self.tenants.values():
            for action in row.result.controller.actions:
                if action.enacted_at is not None and action.completed_at is not None:
                    events.append((action.enacted_at, 1))
                    events.append((action.completed_at, -1))
        events.sort()
        peak = current = 0
        for _, delta in events:
            current += delta
            peak = max(peak, current)
        return peak


@dataclass
class MultiExperimentResult:
    """Shared-fleet run plus the per-tenant private-fleet baselines."""

    duration_s: float
    shared: ManagedRunResult
    #: Tenant name -> that tenant running alone on a private fleet.
    private: Dict[str, ManagedRunResult] = field(default_factory=dict)

    def latency_ratio(self, name: str) -> Optional[float]:
        """Shared / private mean sink latency for one tenant (1.0 = no cost)."""
        if name not in self.private:
            return None
        private = self.private[name].tenants[name].mean_latency_s
        shared = self.shared.tenants[name].mean_latency_s
        if private <= 0:
            return None
        return shared / private

    def trace(self) -> Telemetry:
        """The shared-fleet run's trace, read from its records; a fresh one per call."""
        shared = self.shared
        return Telemetry.from_run(
            {name: row.result.controller for name, row in shared.tenants.items()},
            arbiter=shared.manager.arbiter,
            meta=dict(scenario="multi", duration_s=self.duration_s,
                      budget_slots=shared.budget_slots, tenants=sorted(shared.tenants)),
        )

    @property
    def private_total_cost(self) -> float:
        """Summed cost of all the private-fleet baseline runs."""
        return sum(r.total_cost for r in self.private.values())

    @property
    def private_mean_worker_slots(self) -> float:
        """Summed mean fleet footprint of the private baselines."""
        return sum(r.mean_worker_slots for r in self.private.values())

    @property
    def private_mean_utilization(self) -> Optional[float]:
        """Slot-weighted mean utilization across the private baselines."""
        total = self.private_mean_worker_slots
        if total <= 0:
            return None
        return (
            sum(r.mean_utilization * r.mean_worker_slots for r in self.private.values())
            / total
        )


def verdict(result: MultiExperimentResult) -> str:
    """The shared fleet against the sum of the private ones, the lines
    ``repro multi`` ends on."""
    shared, private = result.shared, result.private
    lines = ["Fleet (shared vs. sum of private fleets):"]
    lines.append(f"  mean worker slots   {shared.mean_worker_slots:8.1f}"
                 + (f"  vs {result.private_mean_worker_slots:8.1f} private" if private else ""))
    util = f"  mean utilization    {shared.mean_utilization:8.1%}"
    if private and result.private_mean_utilization is not None:
        util += f"  vs {result.private_mean_utilization:8.1%} private"
    lines.append(util)
    lines.append(f"  total cost          {shared.total_cost:8.4f}"
                 + (f"  vs {result.private_total_cost:8.4f} private" if private else ""))
    return "\n".join(lines)


def surge_window(duration_s: float, index: int) -> Tuple[float, float]:
    """The offset surge window for the ``index``-th tenant.

    Windows are staggered so each tenant's surge begins while the previous
    tenant is still draining or consolidating -- the contention the arbiter
    is for -- without ever fully coinciding.
    """
    start = duration_s * (0.15 + 0.22 * index)
    return start, start + duration_s * 0.20


def _run_managed(
    dag_specs: Sequence[Tuple[str, str, int, Tuple[float, float]]],
    strategy: str,
    duration_s: float,
    surge_multiplier: float,
    budget_slots: int,
    seed: int,
    elastic_parallelism: bool,
    placement: str = "full-replace",
) -> ManagedRunResult:
    """One complete managed run over ``(tenant_name, dag, priority, window)`` specs.

    Every tenant's controller and the fleet sampler run at the default
    15 s check interval.
    """
    manager = ClusterManager(budget_slots=budget_slots, seed=seed)
    for name, dag, priority, (surge_start, surge_end) in dag_specs:
        dataflow = topologies.by_name(dag)
        base_rate = sum(float(source.rate) for source in dataflow.sources)
        manager.add_tenant(
            name,
            dataflow,
            strategy=strategy,
            profile=surge_profile(base_rate, surge_multiplier, surge_start, surge_end),
            priority=priority,
            elastic_parallelism=elastic_parallelism,
            placement=placement,
        )
    manager.deploy()
    manager.start()
    try:
        manager.run(until=duration_s)
    finally:
        manager.stop()
    return ManagedRunResult(
        manager=manager,
        tenants={name: RunRow(name, manager.tenant(name)) for name, _, _, _ in dag_specs},
    )


def default_budget_slots(
    dags: Sequence[str],
    surge_multiplier: float,
    elastic_parallelism: bool = False,
) -> int:
    """A budget with room for every tenant's expanded fleet during handoff.

    The co-located baseline needs the summed tenant slots; on top, each
    tenant's surge-sized new fleet must fit *while its old slots are still
    accounted* (a migration window double-counts, and with offset surges one
    tenant's expanded fleet routinely coexists with the next tenant's
    scale-out), plus the largest D2 re-fleet a consolidation provisions.
    Tighter budgets are perfectly legal -- the arbiter then defers the excess
    (pass ``--budget`` to study contention); this default lets the standard
    offset-surge run complete every tenant's out-and-back cycle.
    """
    initial = 0
    expanded_total = 0
    rebaseline_max = 0
    for dag in dags:
        dataflow = topologies.by_name(dag)
        slots = dataflow.total_instances()
        initial += slots
        if elastic_parallelism:
            planner = AllocationPlanner(dataflow, elastic_parallelism=True)
            base_rate = sum(float(source.rate) for source in dataflow.sources)
            expanded_total += planner.required_instances(base_rate * surge_multiplier)
        else:
            expanded_total += slots
        rebaseline_max = max(rebaseline_max, -(-slots // D2.slots) * D2.slots)
    # The shared fleet provisions whole D2s, so budget the rounded-up slots.
    initial_provisioned = -(-initial // D2.slots) * D2.slots
    return initial_provisioned + expanded_total + rebaseline_max


def run_multi_experiment(
    dags: Sequence[str] = ("traffic", "grid"),
    strategy: str = "ccr",
    duration_s: float = 600.0,
    surge_multiplier: float = 2.0,
    seed: int = 2018,
    budget_slots: Optional[int] = None,
    priorities: Optional[Sequence[int]] = None,
    elastic_parallelism: bool = False,
    include_private_baseline: bool = True,
    placement: str = "full-replace",
) -> MultiExperimentResult:
    """Run N paper DAGs with offset surges on one shared, arbitrated fleet.

    Each dataflow becomes a tenant named after its DAG (``traffic``,
    ``grid-2`` on a repeat) whose sources ride a step surge of
    ``surge_multiplier`` over its own :func:`surge_window`.  ``priorities``
    optionally ranks the tenants (higher = served first under contention);
    the default gives every tenant priority 1, leaving the proportional-share
    fallback in charge.  With ``include_private_baseline`` every tenant is
    re-run alone on a private fleet for the latency/cost/utilization
    comparison the CLI prints.  ``placement="incremental"`` gives every
    tenant the rescale-aware placer (grows add only the delta;
    consolidations re-use partially-free shared VMs instead of provisioning
    a fresh fleet).  A dags list that is empty or names an unknown dataflow
    raises ``ValueError`` before any run; a dataflow named twice is two tenants.
    """
    check_names("dags", dags, topologies.ALL_TOPOLOGIES, "dataflow")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s:g}")
    if priorities is not None and len(priorities) != len(dags):
        raise ValueError(f"priorities must match dags ({len(dags)} entries)")
    if surge_multiplier <= 1.0:
        raise ValueError("surge_multiplier must be > 1 (otherwise there is no surge)")
    if budget_slots is None:
        budget_slots = default_budget_slots(
            dags, surge_multiplier, elastic_parallelism=elastic_parallelism
        )

    names: List[str] = []
    seen: Dict[str, int] = {}
    for dag in dags:
        seen[dag] = seen.get(dag, 0) + 1
        names.append(dag if seen[dag] == 1 else f"{dag}-{seen[dag]}")
    specs = [
        (
            name,
            dag,
            priorities[i] if priorities is not None else 1,
            surge_window(duration_s, i),
        )
        for i, (name, dag) in enumerate(zip(names, dags))
    ]

    shared = _run_managed(
        specs, strategy, duration_s, surge_multiplier, budget_slots, seed,
        elastic_parallelism, placement=placement,
    )

    private: Dict[str, ManagedRunResult] = {}
    if include_private_baseline:
        for spec in specs:
            name, dag, _, _ = spec
            # Unconstrained budget: a private fleet is sized by its tenant
            # alone, so arbitration never binds and the comparison isolates
            # co-location itself.
            private[name] = _run_managed(
                [spec], strategy, duration_s, surge_multiplier,
                budget_slots=10 * budget_slots, seed=seed,
                elastic_parallelism=elastic_parallelism,
                placement=placement,
            )

    return MultiExperimentResult(duration_s=duration_s, shared=shared, private=private)
