"""Allocation planning: from an observed input rate to a target VM fleet.

The paper sizes dataflows with a simple rule -- **one task instance per
incremental 8 events/second of input rate** (Table 1) -- and packs the
resulting slots onto Azure D-series VMs: D2s for the default deployment,
D3s when consolidating (scale-in), one-slot D1s when expanding (scale-out,
so per-minute billing tracks the load closely and single-VM failures hurt
less).  The planner applies the same arithmetic to a *measured* rate:

* :meth:`AllocationPlanner.required_instances` re-derives every user task's
  input rate at the observed source rate and applies the 1-per-8 ev/s rule;
* :meth:`AllocationPlanner.plan` compares that requirement against the
  instances actually deployed (the *pressure*) and picks an allocation tier
  -- ``expanded`` / ``baseline`` / ``consolidated`` -- with Table-1 style VM
  packing for the slots that must be hosted.

By default the plan keeps the executor count fixed (the paper scopes
parallelism changes out of the migration problem); elasticity is then about
*which VMs* host the slots, which is exactly what DSM/DCR/CCR enact.  With
``elastic_parallelism=True`` the planner goes beyond the paper's scoping: the
per-task 1-per-``capacity`` arithmetic also yields a
:class:`~repro.dataflow.graph.RescalePlan` of target instance counts, so a
scale-out *adds processing capacity* instead of only spreading the same
slots over more machines.  Per-task service rates (heterogeneous task
latencies) are honoured: an explicit ``task_capacities_ev_s`` mapping wins,
then a task's own ``capacity_ev_s``, then the global Table-1 default.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cluster.cloud import ON_DEMAND, SPOT, SpotMarket
from repro.cluster.placement import PlacementPlan, incremental_plan
from repro.cluster.vm import D1, D2, D3, VMType
from repro.dataflow.graph import Dataflow, RescalePlan, exact_instance_ceiling
from repro.dataflow.task import Task
from repro.engine.runtime import TopologyRuntime

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

    @property
    def total_vms(self) -> int:
        """Number of worker VMs in this allocation."""
        return sum(self.vm_counts.values())

    def describe(self) -> str:
        """Human-readable summary, e.g. ``expanded: 13xD1 (pressure 2.77)``."""
        vms = " + ".join(f"{count}x{name}" for name, count in sorted(self.vm_counts.items()))
        return f"{self.tier}: {vms} (pressure {self.pressure:.2f})"


class AllocationPlanner:
    """Turns an observed source rate into a target allocation tier."""

    #: VM flavour used per tier.
    TIER_VM_TYPES: Dict[str, VMType] = {"consolidated": D3, "baseline": D2, "expanded": D1}

    def __init__(
        self,
        dataflow: Dataflow,
        instance_capacity_ev_s: float = 8.0,
        expand_pressure: float = 1.2,
        consolidate_pressure: float = 0.95,
        task_capacities_ev_s: Optional[Mapping[str, float]] = None,
        elastic_parallelism: bool = False,
    ) -> None:
        if instance_capacity_ev_s <= 0:
            raise ValueError("instance_capacity_ev_s must be positive")
        if consolidate_pressure >= expand_pressure:
            raise ValueError(
                "consolidate_pressure must be below expand_pressure "
                f"(got {consolidate_pressure} >= {expand_pressure})"
            )
        self.dataflow = dataflow
        self.instance_capacity_ev_s = instance_capacity_ev_s
        self.expand_pressure = expand_pressure
        self.consolidate_pressure = consolidate_pressure
        #: Runtime-measured per-task service rates (empty until a caller feeds
        #: some in through :meth:`set_measured_capacities`).
        self.measured_capacities_ev_s: Dict[str, float] = {}
        self.task_capacities_ev_s: Dict[str, float] = dict(task_capacities_ev_s or {})
        for task_name, capacity in self.task_capacities_ev_s.items():
            if task_name not in dataflow:
                raise ValueError(f"task_capacities_ev_s references unknown task {task_name!r}")
            if capacity <= 0:
                raise ValueError(f"task_capacities_ev_s[{task_name!r}] must be positive")
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
    def set_measured_capacities(self, measured: Mapping[str, float]) -> None:
        """Feed runtime-measured per-task service rates into sizing.

        For a caller to compose with
        :meth:`~repro.elastic.monitor.ElasticityMonitor.measured_capacities_ev_s`
        (the control loop does not call it); unknown task names and
        non-positive rates are ignored (a task that has not processed anything
        yet keeps its declared value).
        """
        for task_name, rate in measured.items():
            if rate > 0 and task_name in self.dataflow:
                self.measured_capacities_ev_s[task_name] = rate

    def capacity_for(self, task: Task) -> float:
        """Per-instance service capacity (ev/s) used to size ``task``.

        Resolution order: an explicit ``task_capacities_ev_s`` entry, the
        runtime-measured rate (when one was fed in), the
        task's own ``capacity_ev_s`` declaration, then the planner's global
        default (the paper's Table-1 value of 8 ev/s).
        """
        explicit = self.task_capacities_ev_s.get(task.name)
        if explicit is not None:
            return explicit
        measured = self.measured_capacities_ev_s.get(task.name)
        if measured is not None:
            return measured
        if task.capacity_ev_s is not None:
            return task.capacity_ev_s
        return self.instance_capacity_ev_s

    def required_instances_by_task(self, observed_rate_ev_s: float) -> Dict[str, int]:
        """Per-task instance demand at the observed rate (1-per-capacity rule).

        Every user task's steady-state input rate is scaled by
        ``observed / baseline`` source rate; each task needs
        ``ceil(rate / capacity)`` instances (exact rational ceiling), at
        least one.
        """
        scale = Fraction(max(0.0, observed_rate_ev_s)) / self._baseline_source_rate
        required: Dict[str, int] = {}
        for task in self.dataflow.user_tasks:
            task_rate = self._baseline_rates_exact[task.name] * scale
            required[task.name] = max(1, exact_instance_ceiling(task_rate, self.capacity_for(task)))
        return required

    def required_instances(self, observed_rate_ev_s: float) -> int:
        """Total instances the 1-per-capacity rule demands at the observed rate."""
        return sum(self.required_instances_by_task(observed_rate_ev_s).values())

    def rescale_plan(self, observed_rate_ev_s: float) -> Optional[RescalePlan]:
        """Parallelism changes needed to serve the observed rate, if any.

        Returns ``None`` when every task's deployed instance count already
        matches the demand.
        """
        return self._rescale_from(self.required_instances_by_task(observed_rate_ev_s))

    def _rescale_from(self, required_by_task: Dict[str, int]) -> Optional[RescalePlan]:
        targets = {
            name: count
            for name, count in required_by_task.items()
            if self.dataflow.task(name).parallelism != count
        }
        if not targets:
            return None
        return RescalePlan(targets=targets)

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
        out_of_band = pressure >= self.expand_pressure or pressure <= self.consolidate_pressure
        if pressure >= self.expand_pressure:
            tier = "expanded"
        elif pressure <= self.consolidate_pressure:
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
            rescale = self._rescale_from(required_by_task)
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


# --------------------------------------------------------------------- cost
@dataclass(frozen=True)
class FleetOption:
    """One homogeneous group of a cost plan: ``count`` VMs of a flavour/market."""

    flavour: str
    market: str
    count: int


@dataclass(frozen=True)
class CostPlan:
    """The cheapest fleet found for a slot demand over a billing horizon."""

    slots_needed: int
    horizon_s: float
    choices: Tuple[FleetOption, ...]
    #: Expected cost over the horizon including spot eviction-risk penalties.
    expected_cost: float
    #: Pure billing cost (no risk penalty).
    nominal_cost: float
    #: Billing cost of the cheapest all-on-demand fleet (the savings baseline).
    on_demand_cost: float

    @property
    def total_slots(self) -> int:
        """Slots the chosen fleet actually hosts (may minimally overshoot)."""
        return sum(VM_FLAVOURS[c.flavour].slots * c.count for c in self.choices)

    @property
    def total_vms(self) -> int:
        """Number of VMs across all groups."""
        return sum(c.count for c in self.choices)

    def describe(self) -> str:
        """Human-readable summary, e.g. ``3xD3/spot + 1xD1/on-demand ($0.0420)``."""
        groups = " + ".join(f"{c.count}x{c.flavour}/{c.market}" for c in self.choices)
        return f"{groups} (${self.expected_cost:.4f} expected over {self.horizon_s:.0f}s)"


#: Flavour name -> VMType for the cost search (paper's Table-1 D-series).
VM_FLAVOURS: Dict[str, VMType] = {"D1": D1, "D2": D2, "D3": D3}


def cost_optimal_fleet(
    slots_needed: int,
    horizon_s: float,
    billing_granularity_s: float = 60.0,
    spot: Optional[SpotMarket] = None,
    flavours: Sequence[VMType] = (D3, D2, D1),
    recovery_cost_fixed: float = 0.01,
    recovery_cost_per_slot: float = 0.02,
) -> CostPlan:
    """Search the full flavour × market space for the cheapest fleet.

    Enumerates every D1/D2/D3 mix hosting at least ``slots_needed`` slots
    (with less than one largest-VM's worth of slack — anything more is
    dominated) and, when a :class:`~repro.cluster.cloud.SpotMarket` is given,
    every per-flavour-group on-demand/spot assignment.  Each candidate is
    costed over ``horizon_s`` with the provider's billing-granularity
    round-up (``ceil(horizon / granularity)`` billed units per VM — the
    per-minute billing the paper leans on), plus, for spot groups, an
    expected eviction-recovery penalty:
    ``P(evicted within horizon) × (fixed + per_slot × slots)`` per VM —
    bigger spot VMs concentrate risk, which is what pushes mixed fleets.

    Deterministic: ties break toward fewer VMs, then fewer spot VMs, then
    flavour order.  The D-series' exactly-linear per-slot pricing means all
    exact packings tie on nominal cost; the round-up waste of slack slots
    and the risk penalty are what differentiate candidates.
    """
    if slots_needed <= 0:
        raise ValueError(f"slots_needed must be positive, got {slots_needed}")
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    billed_s = math.ceil(horizon_s / billing_granularity_s) * billing_granularity_s
    flavour_list = list(flavours)
    max_slots = max(f.slots for f in flavour_list)
    markets = [ON_DEMAND, SPOT] if spot is not None else [ON_DEMAND]
    p_evict = spot.eviction_probability(horizon_s) if spot is not None else 0.0

    def group_cost(vm_type: VMType, market: str, count: int) -> Tuple[float, float]:
        if market == SPOT:
            hourly = spot.spot_hourly_cost(vm_type)
            penalty = p_evict * (recovery_cost_fixed + recovery_cost_per_slot * vm_type.slots)
        else:
            hourly = vm_type.hourly_cost
            penalty = 0.0
        nominal = hourly * billed_s / 3600.0 * count
        return nominal, nominal + penalty * count

    # Count vectors: fill greedily-boundable ranges per flavour; the last
    # flavour tops up exactly.  Candidates with >= max_slots of slack are
    # dominated (drop one VM and still cover the demand).
    def count_vectors() -> List[Tuple[int, ...]]:
        vectors = []
        ranges = [range(0, slots_needed // f.slots + 2) for f in flavour_list[:-1]]
        last = flavour_list[-1]
        for head in itertools.product(*ranges):
            covered = sum(f.slots * c for f, c in zip(flavour_list, head))
            remaining = max(0, slots_needed - covered)
            last_count = math.ceil(remaining / last.slots)
            total = covered + last_count * last.slots
            if total - slots_needed >= max_slots:
                continue
            vectors.append(tuple(head) + (last_count,))
        return vectors

    best = None
    best_on_demand = None
    for counts in count_vectors():
        used = [(f, c) for f, c in zip(flavour_list, counts) if c > 0]
        if not used:
            continue
        for market_mix in itertools.product(markets, repeat=len(used)):
            nominal = 0.0
            expected = 0.0
            choices = []
            for (vm_type, count), market in zip(used, market_mix):
                n, e = group_cost(vm_type, market, count)
                nominal += n
                expected += e
                choices.append(FleetOption(flavour=vm_type.name, market=market, count=count))
            spot_vms = sum(c.count for c in choices if c.market == SPOT)
            key = (
                expected,
                sum(c.count for c in choices),
                spot_vms,
                tuple((c.flavour, c.market) for c in choices),
            )
            candidate = (key, tuple(choices), expected, nominal)
            if best is None or key < best[0]:
                best = candidate
            if spot_vms == 0 and (best_on_demand is None or key < best_on_demand[0]):
                best_on_demand = candidate
    assert best is not None and best_on_demand is not None
    return CostPlan(
        slots_needed=slots_needed,
        horizon_s=horizon_s,
        choices=best[1],
        expected_cost=best[2],
        nominal_cost=best[3],
        on_demand_cost=best_on_demand[3],
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
