"""The control rule of the elastic loop, and its placement policies.

:func:`decide` is the one copy of the control decision.  Fed one
:class:`~repro.elastic.monitor.MonitorSample` at a time, it forecasts the
demand a provisioning horizon ahead, sizes it with the
:class:`~repro.elastic.planner.AllocationPlanner` (SLO-breach override in
front) and debounces the result -- hysteresis, cooldown, drain-aware scale-in
guard -- into a frozen :class:`Decision`.  Its knobs are a
:class:`ControllerConfig`, what it carries between samples lives in a
:class:`ControlState`; it touches no simulator, runtime, provider,
monitor or tracer, so the live
:class:`~repro.elastic.controller.ElasticityController` (and the multi-tenant
controller through it) and a test folding it over a recorded run's samples
run this very function.

A :class:`PlacementPolicy` turns a decided target into a provisioning request
and a placement plan at enactment time: :class:`IncrementalPlacement` (the
controller's default, the one placer of a single fleet) keeps unchanged task
instances on their VMs and provisions / places only the delta;
:class:`FullReplacePlacement` is the paper's re-fleet (provision the whole
target fleet, move every user task onto it), which a shared-fleet tenant gets
by default (:meth:`repro.multi.ClusterManager.add_tenant`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.placement import PlacementPlan
from repro.cluster.vm import VM_TYPES
from repro.elastic.forecast import ForecastPolicy
from repro.elastic.monitor import MonitorSample
from repro.elastic.planner import (
    TIER_ORDER,
    AllocationPlanner,
    TargetAllocation,
    incremental_plan_on,
    plan_user_tasks_on,
)
from repro.engine.runtime import TopologyRuntime


# ---------------------------------------------------------------- the rule
@dataclass
class ControllerConfig:
    """Tuning knobs of the elastic control loop."""

    #: Interval between control ticks (each tick takes one monitor sample).
    check_interval_s: float = 15.0
    #: Consecutive samples that must agree on a different tier before acting.
    confirm_samples: int = 2
    #: Quiet period after a completed migration before the next one may start.
    cooldown_s: float = 60.0
    #: Sink-latency SLO (seconds of mean end-to-end latency); ``None``
    #: disables SLO tracking and the overload override.
    slo_latency_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        if self.confirm_samples < 1:
            raise ValueError("confirm_samples must be at least 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if self.slo_latency_s is not None and self.slo_latency_s <= 0:
            raise ValueError("slo_latency_s must be positive (or None)")


#: Forecasts within this fraction of the observed rate snap to the observed
#: rate (smoothing noise must not read as pressure; see :func:`decide`).
FORECAST_DEADBAND = 0.05
#: Drain-aware scale-in guard: a consolidation is deferred while the total
#: backlog exceeds this many seconds of offered load.  Scale-outs are never
#: held -- extra capacity only helps a drain.
DRAIN_GUARD_BACKLOG_S = 5.0
#: Consecutive SLO-breaching samples before the overload override may
#: escalate an in-band plan.
SLO_CONFIRM_SAMPLES = 2
#: Demand multiplier the SLO override plans with (capacity headroom to
#: actually drain the backlog the breach built).
SLO_HEADROOM = 1.5


@dataclass
class ControlState:
    """What the control rule carries from one sample to the next."""

    #: The allocation tier currently deployed.
    tier: str = "baseline"
    #: The out-of-band tier the recent samples agree on, and how many in a
    #: row have agreed (the hysteresis count).
    pending_tier: Optional[str] = None
    pending_count: int = 0
    #: No change is enacted before this time (end of the last one + cooldown).
    cooldown_until: float = float("-inf")
    #: Consecutive SLO-breaching samples whose backlog was not draining.
    breach_streak: int = 0
    #: Total backlog of the previous planned sample (``None`` before the first).
    previous_backlog: Optional[int] = None

    def acquired(self) -> None:
        """Capacity for the confirmed change is in hand: the confirmation is spent."""
        self.pending_tier = None
        self.pending_count = 0

    def settle(self, tier: str, cooldown_until: float) -> None:
        """A change to ``tier`` completed; the next waits until ``cooldown_until``."""
        self.tier = tier
        self.cooldown_until = cooldown_until


@dataclass(frozen=True)
class Decision:
    """What :func:`decide` concluded from one sample."""

    #: ``migration-in-flight`` / ``sources-paused`` (the sample was only
    #: recorded), ``in-band``, ``hysteresis``, ``cooldown``, ``drain-guard``
    #: (a change is wanted but held) or ``enact``.
    outcome: str
    sample: MonitorSample
    #: Whether the sample's mean sink latency breached the configured SLO.
    slo_breached: bool
    #: Demand (ev/s) the plan was sized for and how far ahead it was forecast;
    #: ``None`` on a skipped sample, like everything below.
    forecast_rate_ev_s: Optional[float] = None
    horizon_s: Optional[float] = None
    target: Optional[TargetAllocation] = None
    #: ``out`` (adding capacity) or ``in`` (consolidating); ``None`` in band.
    direction: Optional[str] = None
    #: Whether the SLO-breach override escalated an in-band plan.
    slo_escalated: bool = False
    #: The hysteresis count after this sample.
    pending_count: int = 0


def _in_band(target: TargetAllocation, tier: str) -> bool:
    # A change is wanted when the tier moves *or* the demand calls for a
    # parallelism change within the same tier (a second surge on an
    # already-expanded deployment still has to add instances).
    return target.tier == tier and target.rescale is None


def decide(
    state: ControlState,
    sample: MonitorSample,
    *,
    config: ControllerConfig,
    planner: AllocationPlanner,
    forecast: ForecastPolicy,
    horizon_s: float,
    busy: bool = False,
) -> Decision:
    """Advance the control rule by one sample.

    ``busy`` says a migration is already in flight; such a sample, like one
    taken while the sources are paused mid-protocol (its 0 input rate must
    not read as low traffic), is fed to ``forecast`` -- so the policy's
    series has no gaps -- and otherwise skipped.  Breach streak and previous
    backlog advance only on samples that reach the planner.

    **Forecast.**  The planner sizes the demand ``horizon_s`` ahead.  A
    forecast within :data:`FORECAST_DEADBAND` of the observed rate snaps
    to the observed rate: the 1-per-capacity sizing rule ceils every task's
    instance count, so at exactly 100% utilization a +0.5% forecast excursion
    (smoothing noise, a residual trend) would add an instance to *every* task
    and read as a tier's worth of pressure.  Real surges are well outside the
    band; noise is not.

    **SLO override.**  A latency-SLO breach sustained for
    ``SLO_CONFIRM_SAMPLES`` samples escalates an in-band plan (only an
    in-band one: an out-of-band rate already did the job) to
    ``max(forecast, observed) * SLO_HEADROOM``: overload shows up in the sink
    latency long before the input rate leaves the band (slow tasks,
    mis-declared capacities), and waiting for the rate trigger would let the
    backlog compound.  A breach only counts while the backlog is not
    draining: a post-migration drain also shows SLO-breaching latencies (old
    queued events finally reaching the sinks), but its backlog is shrinking
    -- capacity is adequate and another migration would only interrupt the
    recovery.  A *plateaued* backlog with breaching latency, by contrast, is
    a saturated deployment (service exactly keeping pace with arrivals, never
    absorbing the excess) and must still escalate.

    **Debounce.**  ``confirm_samples`` consecutive samples must agree on the
    same out-of-band tier (a flip restarts the count), then any cooldown must
    have expired, then -- for a scale-in only; extra capacity only helps a
    drain -- the backlog must be below ``DRAIN_GUARD_BACKLOG_S`` seconds of
    offered load: consolidating a dataflow that is still absorbing a surge
    would strand the very backlog it is draining on a smaller allocation.
    The confirmation is deliberately *kept* through ``cooldown`` and
    ``drain-guard`` (the moment the hold lifts, the already-confirmed change
    proceeds) and through ``enact`` (an arbiter may still defer it; the
    caller spends it with :meth:`ControlState.acquired`).  Only an in-band
    sample clears it.
    """
    forecast.observe(sample.time, sample.offered_rate)
    slo_breached = (
        config.slo_latency_s is not None
        and sample.avg_latency_s is not None
        and sample.avg_latency_s > config.slo_latency_s
    )
    if busy or sample.sources_paused:
        return Decision("migration-in-flight" if busy else "sources-paused", sample, slo_breached)

    observed = sample.offered_rate
    rate = forecast.forecast(sample.time, horizon_s)
    if observed > 0 and abs(rate - observed) <= FORECAST_DEADBAND * observed:
        rate = observed
    target = planner.plan(rate, current_tier=state.tier)

    backlog = sample.queue_backlog + sample.source_backlog
    draining = state.previous_backlog is not None and backlog < state.previous_backlog
    state.previous_backlog = backlog
    state.breach_streak = state.breach_streak + 1 if slo_breached and not draining else 0
    slo_escalated = False
    if _in_band(target, state.tier) and state.breach_streak >= SLO_CONFIRM_SAMPLES:
        escalated = planner.plan(max(rate, observed) * SLO_HEADROOM, current_tier=state.tier)
        if not _in_band(escalated, state.tier):
            target = escalated
            slo_escalated = True

    direction: Optional[str] = None
    if _in_band(target, state.tier):
        state.pending_tier = None
        state.pending_count = 0
        outcome = "in-band"
    else:
        if target.tier != state.pending_tier:
            state.pending_tier = target.tier
            state.pending_count = 1
        else:
            state.pending_count += 1
        if target.tier != state.tier:
            direction = "out" if TIER_ORDER[target.tier] > TIER_ORDER[state.tier] else "in"
        else:
            # Same-tier rescale: the direction is given by the slot delta.
            # The delta cannot be zero here -- the planner only attaches a
            # same-tier rescale when the pressure is out of band, which means
            # the required slot count strictly differs from the deployed one.
            deployed = planner.dataflow.total_instances()
            direction = "out" if target.hosted_slots > deployed else "in"
        if state.pending_count < config.confirm_samples:
            outcome = "hysteresis"
        elif sample.time < state.cooldown_until:
            outcome = "cooldown"
        elif direction == "in" and backlog > DRAIN_GUARD_BACKLOG_S * max(observed, 1.0):
            outcome = "drain-guard"
        else:
            outcome = "enact"
    return Decision(
        outcome=outcome,
        sample=sample,
        slo_breached=slo_breached,
        forecast_rate_ev_s=rate,
        horizon_s=horizon_s,
        target=target,
        direction=direction,
        slo_escalated=slo_escalated,
        pending_count=state.pending_count,
    )


# ------------------------------------------------------------------- place
@dataclass(frozen=True)
class ProvisioningRequest:
    """What the place stage wants acquired (and retained) for a target."""

    #: VM flavour -> count to *provision fresh* for this action.  Slot
    #: accounting lives on :attr:`Reconfiguration.provision_slots`, where the
    #: counts end up.
    vm_counts: Dict[str, int]
    #: Existing worker VMs to keep serving through (and after) the migration.
    keep_vm_ids: Tuple[str, ...] = ()


class PlacementPolicy:
    """Base class of the *place* stage: target allocation -> fleet + plan."""

    def provisioning(
        self, runtime: TopologyRuntime, target: TargetAllocation, direction: str
    ) -> ProvisioningRequest:
        """Decide what to provision (and what to keep) for a target.

        ``direction`` is the controller's classification of the action:
        ``"out"`` (adding capacity) or ``"in"`` (consolidating).
        """
        raise NotImplementedError

    def placement_plan(self, runtime: TopologyRuntime, target_vm_ids: List[str]) -> PlacementPlan:
        """Place the (current, post-rescale) executor set on the target VMs."""
        raise NotImplementedError


class FullReplacePlacement(PlacementPolicy):
    """The paper's re-fleet: provision the whole target fleet, move everyone.

    Every user task is scheduled onto the freshly provisioned VMs and every
    previously used worker VM is vacated.  A shared-fleet tenant's default
    (:meth:`repro.multi.ClusterManager.add_tenant`); a controller given no
    policy uses :class:`IncrementalPlacement`.
    """

    def provisioning(
        self, runtime: TopologyRuntime, target: TargetAllocation, direction: str
    ) -> ProvisioningRequest:
        return ProvisioningRequest(vm_counts=dict(target.vm_counts))

    def placement_plan(self, runtime: TopologyRuntime, target_vm_ids: List[str]) -> PlacementPlan:
        return plan_user_tasks_on(runtime, target_vm_ids)


class IncrementalPlacement(PlacementPolicy):
    """Rescale-aware placement: keep unchanged instances, place only the delta.

    On a **grow**, the current worker fleet is retained and only the missing
    slots are provisioned in the target tier's flavour; executors whose slot
    still exists on a retained VM keep it, so the rebalance restarts only the
    genuinely new/moved instances (plus rescale survivors, whose keyed state
    forces a restart anyway).  On a **shrink** the paper's re-fleet
    provisions a fresh, smaller allocation -- except on a shared fleet.

    A shared fleet is one whose manager supplies ``excluded_vms_fn``: the
    VMs that must not be counted or placed on (other tenants' util hosts,
    VMs a neighbour's in-flight migration is retiring).  There a shrink
    packs the surviving executor set onto a minimal subset of the worker VMs
    it can already reach, so a consolidating tenant absorbs into
    partially-free shared VMs instead of provisioning a fresh private fleet;
    only when those cannot host the target does it fall back to the re-fleet.
    """

    def __init__(self, excluded_vms_fn: Optional[Callable[[], Set[str]]] = None) -> None:
        self._excluded_vms_fn = excluded_vms_fn

    # ------------------------------------------------------------- internals
    def _excluded(self, runtime: TopologyRuntime) -> Set[str]:
        excluded: Set[str] = set()
        if self._excluded_vms_fn is not None:
            excluded |= self._excluded_vms_fn()
        if runtime.util_vm_id is not None:
            excluded.add(runtime.util_vm_id)
        return excluded

    @staticmethod
    def _capacity_for_us(runtime: TopologyRuntime, vm) -> int:
        """Slots on ``vm`` this runtime could fill: free ones plus its own.

        Slots held by foreign executors (another tenant's, even one with the
        same executor ids) are off limits; slots held by this runtime's
        executors are re-plannable (the incremental plan will keep most of
        them in place).
        """
        return sum(1 for slot in vm.slots if not slot.occupied or runtime.placement.owns(slot))

    def provisioning(
        self, runtime: TopologyRuntime, target: TargetAllocation, direction: str
    ) -> ProvisioningRequest:
        if runtime.placement is None:
            raise ValueError("runtime must be deployed before planning provisioning")
        excluded = self._excluded(runtime)
        used = runtime.placement.vms_used
        # Cluster insertion order keeps the request deterministic.
        current = [
            vm for vm in runtime.cluster.vms
            if vm.vm_id in used and vm.vm_id not in excluded
        ]
        needed = target.hosted_slots
        growing = direction == "out"

        if not growing and self._excluded_vms_fn is not None:
            # Shrink: pack the survivors onto a minimal subset of the worker
            # VMs we can already reach (most-loaded-by-us first, so the
            # consolidation frees whole machines).  Falls back to a fresh
            # fleet when the reachable capacity cannot host the target.
            candidates = [
                vm for vm in runtime.cluster.vms
                if vm.vm_id not in excluded and (vm.vm_id in used or vm.free_slots)
            ]
            ranked = sorted(
                enumerate(candidates),
                key=lambda pair: (-self._capacity_for_us(runtime, pair[1]), pair[0]),
            )
            keep: List[str] = []
            capacity = 0
            for _, vm in ranked:
                if capacity >= needed:
                    break
                vm_capacity = self._capacity_for_us(runtime, vm)
                if vm_capacity <= 0:
                    continue
                keep.append(vm.vm_id)
                capacity += vm_capacity
            if capacity >= needed:
                return ProvisioningRequest(vm_counts={}, keep_vm_ids=tuple(keep))
            return ProvisioningRequest(vm_counts=dict(target.vm_counts))

        if not growing:
            # Shrink on a single fleet: the paper's re-fleet (a fresh, smaller
            # allocation in the consolidation flavour).
            return ProvisioningRequest(vm_counts=dict(target.vm_counts))

        # Grow: keep the whole current worker fleet and provision only the
        # missing slots in the target tier's flavour.
        keep_ids = tuple(vm.vm_id for vm in current)
        capacity = sum(self._capacity_for_us(runtime, vm) for vm in current)
        delta_slots = needed - capacity
        vm_counts: Dict[str, int] = {}
        if delta_slots > 0:
            # The planner emits a single-flavour packing per tier.
            flavour_name = next(iter(target.vm_counts))
            flavour = VM_TYPES[flavour_name]
            vm_counts[flavour_name] = int(math.ceil(delta_slots / flavour.slots))
        return ProvisioningRequest(vm_counts=vm_counts, keep_vm_ids=keep_ids)

    def placement_plan(self, runtime: TopologyRuntime, target_vm_ids: List[str]) -> PlacementPlan:
        return incremental_plan_on(runtime, target_vm_ids)

