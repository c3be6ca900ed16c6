"""The autoscaling controller: sample, :func:`~repro.elastic.policy.decide`, enact.

Every check interval the controller takes one monitor sample and hands it to
the control rule (:func:`~repro.elastic.policy.decide`: forecast the demand,
size it, confirm it through hysteresis, cooldown and the drain guard).  When
the rule says ``enact``, the change goes through the placement policy:

1. **provision** the VMs the placement policy requests through the
   :class:`CloudProvider` (billing starts immediately; the migration waits
   for the modelled provisioning latency, as the paper's experiments
   provision target VMs before issuing the migration request).  The default
   :class:`~repro.elastic.policy.IncrementalPlacement` keeps the current
   fleet on a grow and provisions only the delta;
   :class:`~repro.elastic.policy.FullReplacePlacement` provisions the whole
   target fleet;
2. **plan** the new placement via the placement policy (sources/sinks stay
   pinned);
3. **migrate** with the configured, pluggable
   :class:`~repro.core.strategy.MigrationStrategy` (DSM, DCR or CCR) --
   issuing a *combined rescale + migrate* decision when the planner runs
   with ``elastic_parallelism`` (the strategy changes task instance counts
   mid-protocol and the placement is planned against the new executor set);
4. **deprovision** the vacated worker VMs once the protocol completes, so
   scale-in actually reduces the bill.

The rule itself -- what filters short-lived spikes such as
:class:`~repro.workloads.profiles.BurstProfile` bursts, what keeps
back-to-back migrations apart, why a scale-in waits for a backlog to drain,
how a forecast policy or a sustained sink-latency SLO breach moves the
decision -- is documented where it lives, on
:func:`~repro.elastic.policy.decide`.  One signal is worth naming here
because the monitor supplies it: decisions track the sample's
``offered_rate`` (events *generated* per second) rather than the raw emission
rate, so a post-migration backlog drain -- whose burst looks exactly like a
fresh surge on the wire -- does not trigger a spurious scale-out.

Every tick appends a :class:`TickRecord` to ``controller.ticks``: the tier,
the rule's :class:`~repro.elastic.policy.Decision`, what an enact asked for
and got, and the queue levels.  Nothing traces while the run goes; a trace is
read from these records afterwards
(:meth:`repro.obs.Telemetry.from_run`), one ``controller.tick`` span with
five stage children (``sense``, ``forecast``, ``plan``, ``place``, ``act``)
per record.

Capacity always goes through a :class:`~repro.elastic.arbiter.ScaleArbiter`:
the shared one of a multi-tenant cluster, or a one-tenant arbiter with an
unbounded budget the controller builds for itself.  A confirmed decision is
*proposed* before provisioning (a deferral keeps the confirmation, so the
next tick proposes again; an in-band tick withdraws it), the VMs a migration
will vacate are published as *retiring*, a VM being evacuated as *doomed*,
and recovery and evacuation only rebuild onto VMs that are untagged or this
tenant's, neither retiring nor doomed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.cluster.cloud import ON_DEMAND, CloudProvider
from repro.cluster.vm import VM_TYPES, VirtualMachine, VMType
from repro.core.strategy import MigrationReport, MigrationStrategy
from repro.elastic.arbiter import ArbiterDecision, ScaleArbiter
from repro.elastic.forecast import ForecastPolicy, forecast_policy_by_name
from repro.elastic.monitor import ElasticityMonitor
from repro.elastic.planner import (
    AllocationPlanner,
    TargetAllocation,
    cost_optimal_fleet,
    incremental_plan_on,
)
from repro.elastic.policy import (
    ControlState,
    Decision,
    PlacementPolicy,
    ProvisioningRequest,
    decide,
    placement_policy_by_name,
)
from repro.engine.runtime import RuntimeError_, TopologyRuntime
from repro.obs.telemetry import Levels, queue_levels


#: Billing horizon an eviction-notice evacuation assumes when shopping the
#: market for replacement capacity (spot vs on-demand, see
#: :meth:`ElasticityController.handle_eviction_notice`).
EVACUATION_HORIZON_S = 3600.0


@dataclass
class ControllerConfig:
    """Tuning knobs of the elastic control loop."""

    #: Interval between control ticks (each tick takes one monitor sample).
    check_interval_s: float = 15.0
    #: Consecutive samples that must agree on a different tier before acting.
    confirm_samples: int = 2
    #: Quiet period after a completed migration before the next one may start.
    cooldown_s: float = 60.0
    #: Drain-aware scale-in guard: a consolidation is deferred while the total
    #: backlog exceeds this many seconds of offered load (``None`` or 0
    #: disables the guard).  Scale-outs are never held -- extra capacity only
    #: helps a drain.
    drain_guard_backlog_s: Optional[float] = 5.0
    #: Named demand forecaster (see
    #: :data:`~repro.elastic.forecast.FORECAST_POLICIES`).  ``reactive`` is
    #: the identity forecast -- the plain threshold controller.
    forecast_policy: str = "reactive"
    #: Forecasts within this fraction of the observed rate snap to the
    #: observed rate (smoothing noise must not read as pressure; see
    #: :func:`~repro.elastic.policy.decide`).
    forecast_deadband: float = 0.05
    #: Sink-latency SLO (seconds of mean end-to-end latency); ``None``
    #: disables SLO tracking and the overload override.
    slo_latency_s: Optional[float] = None
    #: Consecutive SLO-breaching samples before the overload override may
    #: escalate an in-band plan.
    slo_confirm_samples: int = 2
    #: Demand multiplier the SLO override plans with (capacity headroom to
    #: actually drain the backlog the breach built).
    slo_headroom: float = 1.5
    #: Placement policy: ``incremental`` (keep unchanged instances in their
    #: slots, place and migrate only the delta — the default) or
    #: ``full-replace`` (the paper's re-fleet: provision a whole new fleet and
    #: move everything).
    placement: str = "incremental"

    def __post_init__(self) -> None:
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        if self.confirm_samples < 1:
            raise ValueError("confirm_samples must be at least 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if self.drain_guard_backlog_s is not None and self.drain_guard_backlog_s < 0:
            raise ValueError("drain_guard_backlog_s must be non-negative (or None)")
        if self.forecast_deadband < 0:
            raise ValueError("forecast_deadband must be non-negative")
        if self.slo_latency_s is not None and self.slo_latency_s <= 0:
            raise ValueError("slo_latency_s must be positive (or None)")
        if self.slo_confirm_samples < 1:
            raise ValueError("slo_confirm_samples must be at least 1")
        if self.slo_headroom <= 1.0:
            raise ValueError("slo_headroom must be above 1")


@dataclass
class ScalingAction:
    """Bookkeeping for one enacted scaling decision."""

    #: ``out`` (toward more capacity / smaller VMs) or ``in`` (toward less
    #: capacity / bigger VMs).
    direction: str
    #: The tier the controller moved from / to.
    from_tier: str
    to_tier: str
    #: Simulated time of the decision (after hysteresis confirmed it).
    decided_at: float
    #: Offered input rate (generated ev/s) that triggered the decision.
    observed_rate: float
    #: The planner's allocation behind the decision.
    target: TargetAllocation
    #: Forecast demand (ev/s) the plan was sized for (equals
    #: ``observed_rate`` under the reactive policy).
    forecast_rate: Optional[float] = None
    #: Whether the latency-SLO override escalated this decision (the input
    #: rate alone would not have triggered it).
    slo_escalated: bool = False
    #: VM flavour -> count the place stage asked to provision fresh (equals
    #: ``target.vm_counts`` under full-replace placement).
    provision_counts: Dict[str, int] = field(default_factory=dict)
    #: Existing worker VMs the place stage retained (incremental placement).
    kept_vm_ids: List[str] = field(default_factory=list)
    provisioned_vm_ids: List[str] = field(default_factory=list)
    deprovisioned_vm_ids: List[str] = field(default_factory=list)
    #: When the migration request was issued (after provisioning).
    enacted_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: The strategy's migration report, filled in as the protocol runs.
    report: Optional[MigrationReport] = None
    #: Whether the action was abandoned before enactment (every target VM
    #: died during provisioning — see ``handle_vm_failure``).
    aborted: bool = False

    @property
    def is_complete(self) -> bool:
        """Whether the migration protocol for this action has finished."""
        return self.completed_at is not None

    @property
    def provision_slots(self) -> int:
        """New VM slots this action will provision -- what an arbiter budgets.

        Equals the full target fleet under full-replace placement and only
        the delta under incremental placement (retained VMs are already in
        the fleet's physical accounting); a consolidation that re-uses free
        shared slots provisions zero.
        """
        return sum(VM_TYPES[name].slots * count for name, count in self.provision_counts.items())


@dataclass(frozen=True)
class TickRecord:
    """What one control tick saw and did; a trace's tick span is read from it.

    Every field is a copy taken at the tick: replacing a provisioned VM later
    does not change :attr:`provisioned_vm_ids`.
    """

    #: The tier deployed at the tick.
    tier: str
    #: What the control rule concluded; its sample carries the tick's time.
    decision: Decision
    #: ``(executor id, input-queue length)`` of every executor, in id order.
    queue_depths: Levels
    #: ``(source executor id, backlog)`` of every source.
    source_backlogs: Levels
    #: On ``enact`` only: the place stage's request and the arbiter's verdict.
    request: Optional[ProvisioningRequest] = None
    verdict: Optional[ArbiterDecision] = None
    #: The VMs a granted enact provisioned.
    provisioned_vm_ids: Tuple[str, ...] = ()


@dataclass
class RecoveryRecord:
    """Bookkeeping for one unplanned VM loss and its recovery."""

    vm_id: str
    #: Fault kind the cloud reported (``"kill"`` or an overdue ``"evict"``).
    kind: str
    failed_at: float
    #: Executors that died with the VM.
    lost_executors: List[str]
    #: Data events dropped with them (queued + in-memory).
    events_lost: int = 0
    #: Tuple trees failed fast through the acker (acking runs only).
    trees_failed: int = 0
    #: Replacement VMs provisioned (on-demand — unplanned recovery has no
    #: notice window in which to shop the market).
    replacement_vm_ids: List[str] = field(default_factory=list)
    #: Failed provisioning attempts paid for while bringing replacements up.
    provisioning_failures: int = 0
    pending_replacements: int = 0
    #: When the recovery rebalance re-placed the victims.
    rebalanced_at: Optional[float] = None
    #: When the targeted INIT wave finished restoring their state.
    restored_at: Optional[float] = None

    @property
    def recovery_latency_s(self) -> Optional[float]:
        """Failure to fully-restored, seconds (``None`` while in progress)."""
        if self.restored_at is None:
            return None
        return self.restored_at - self.failed_at


@dataclass
class EvacuationRecord:
    """Bookkeeping for one eviction notice and the drain it triggered."""

    vm_id: str
    notice_at: float
    #: When the cloud will reclaim the VM if it is still around.
    deadline: float
    #: When the evacuation actually started (a migration already in flight
    #: delays it).
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: Whether the VM was drained and released before the deadline (the
    #: eviction never happened; billing stopped early).
    evaded: bool = False
    #: Whether the deadline arrived before the drain finished (the kill then
    #: takes the unplanned-recovery path).
    overrun: bool = False
    #: Whether the evacuation migration was actually issued.
    migration_issued: bool = False
    replacement_vm_ids: List[str] = field(default_factory=list)
    #: Market the replacement capacity was bought on (the notice window buys
    #: time to choose; ``None`` when no capacity was needed).
    replacement_market: Optional[str] = None
    pending_replacements: int = 0
    report: Optional[MigrationReport] = None

    @property
    def evacuation_latency_s(self) -> Optional[float]:
        """Drain start to drain complete, seconds (``None`` while in progress)."""
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class ElasticityController:
    """Watches the monitor and migrates the dataflow between VM allocations."""

    def __init__(
        self,
        runtime: TopologyRuntime,
        provider: CloudProvider,
        monitor: ElasticityMonitor,
        planner: AllocationPlanner,
        strategy_cls: Type[MigrationStrategy],
        config: Optional[ControllerConfig] = None,
        forecast_policy: Optional[ForecastPolicy] = None,
        placement: Optional[PlacementPolicy] = None,
        arbiter: Optional[ScaleArbiter] = None,
        tenant_id: str = "tenant",
    ) -> None:
        if arbiter is None:
            # Alone on the cluster: a one-tenant arbiter that never defers.
            arbiter = ScaleArbiter(runtime.cluster, budget_slots=math.inf)
            arbiter.register_tenant(tenant_id)
        #: The capacity authority every provisioning goes through; the
        #: controller's VMs carry ``tags["tenant"] = tenant_id``.
        self.arbiter = arbiter
        self.tenant_id = tenant_id
        self.runtime = runtime
        self.provider = provider
        self.monitor = monitor
        self.planner = planner
        self.strategy_cls = strategy_cls
        self.config = config if config is not None else ControllerConfig()
        #: ``forecast_policy`` / ``placement`` instances override the config's
        #: named choices (a lookahead policy carries the workload's profile; a
        #: shared-fleet placer carries the manager's exclusions).
        if forecast_policy is None:
            forecast_policy = forecast_policy_by_name(self.config.forecast_policy)
        self.forecast_policy = forecast_policy
        if placement is None:
            placement = placement_policy_by_name(self.config.placement)
        self.place = placement
        #: How far ahead the rule forecasts: one provisioning latency plus the
        #: hysteresis window -- the earliest a decision taken now can become
        #: ready capacity.
        self.forecast_horizon_s = (
            provider.provisioning_latency_s
            + self.config.confirm_samples * self.config.check_interval_s
        )
        #: Everything :func:`~repro.elastic.policy.decide` carries between ticks;
        #: it starts on the ``baseline`` tier every run is deployed on (Table 1).
        self.state = ControlState()
        self.actions: List[ScalingAction] = []
        self.recoveries: List[RecoveryRecord] = []
        self.evacuations: List[EvacuationRecord] = []
        #: One record per control tick, in tick order.
        self.ticks: List[TickRecord] = []
        self._timer = None
        self._migration_in_flight = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the periodic control loop."""
        if self._timer is None:
            self._timer = self.runtime.sim.every(self.config.check_interval_s, self._tick)

    def stop(self) -> None:
        """Stop the control loop (a migration already in flight still completes)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def tier(self) -> str:
        """The allocation tier currently deployed."""
        return self.state.tier

    @property
    def migration_in_flight(self) -> bool:
        """Whether a scaling migration is currently being enacted."""
        return self._migration_in_flight

    @property
    def last_action(self) -> Optional[ScalingAction]:
        """The most recent scaling action, if any."""
        return self.actions[-1] if self.actions else None

    # ------------------------------------------------------------ control loop
    def _tick(self) -> Decision:
        tier = self.tier
        queue_depths, source_backlogs = queue_levels(self.runtime)
        decision = decide(
            self.state,
            self.monitor.sample_now(),
            config=self.config,
            planner=self.planner,
            forecast=self.forecast_policy,
            horizon_s=self.forecast_horizon_s,
            busy=self._migration_in_flight,
        )
        request = verdict = None
        provisioned: Tuple[str, ...] = ()
        if decision.outcome == "enact":
            request, verdict, provisioned = self._enact(decision)
        elif decision.outcome == "in-band":
            # Back in band: a proposal the arbiter was holding no longer
            # claims a place in its waiting registry.
            self.arbiter.withdraw(self.tenant_id)
        self.ticks.append(TickRecord(
            tier, decision, queue_depths, source_backlogs, request, verdict, provisioned
        ))
        return decision

    # -------------------------------------------------------------- enactment
    def _enact(
        self, decision: Decision
    ) -> Tuple[ProvisioningRequest, ArbiterDecision, Tuple[str, ...]]:
        """Propose, provision and stage one confirmed decision.

        Returns the place stage's request, the arbiter's verdict and the VMs
        provisioned (none when the verdict defers).
        """
        target = decision.target
        direction = decision.direction
        # The placement policy decides what to provision fresh and which of
        # the current worker VMs keep serving.
        request = self.place.provisioning(self.runtime, target, direction)
        action = ScalingAction(
            direction=direction,
            from_tier=self.tier,
            to_tier=target.tier,
            decided_at=self.runtime.sim.now,
            observed_rate=decision.sample.offered_rate,
            target=target,
            forecast_rate=decision.forecast_rate_ev_s,
            slo_escalated=decision.slo_escalated,
            provision_counts=dict(request.vm_counts),
            kept_vm_ids=list(request.keep_vm_ids),
        )
        # Propose exactly what will be provisioned: the full target fleet
        # under full-replace placement, only the delta under incremental (a
        # consolidation re-using free shared slots proposes zero).
        verdict = self.arbiter.propose(
            self.tenant_id, direction, action.provision_slots, now=self.runtime.sim.now
        )
        if not verdict.granted:
            # Deferred: the confirmation is kept, so the next tick proposes again.
            return request, verdict, ()
        # Billing for the new fleet starts now; the migration request waits
        # for the VMs to come up.  The grant's reservation becomes physical
        # accounting the moment they join the cluster.
        for type_name, count in sorted(action.provision_counts.items()):
            action.provisioned_vm_ids += self._provision(VM_TYPES[type_name], count)
        self.arbiter.notify_provisioned(self.tenant_id, action.provisioned_vm_ids)
        self.actions.append(action)
        self._migration_in_flight = True
        self.state.acquired()
        # The migration waits for the provisioning latency: the paper plans
        # ahead, so the VMs are ready when the migration request is issued.
        self.runtime.sim.schedule(self.provider.provisioning_latency_s, self._start_migration, action)
        return request, verdict, tuple(action.provisioned_vm_ids)

    def _provision(self, vm_type: VMType, count: int) -> List[str]:
        """Provision ``count`` VMs now, join them to the cluster; their ids."""
        vms = self.provider.provision(vm_type, count, name_prefix=vm_type.name.lower())
        for vm in vms:
            self._join(vm)
        return [vm.vm_id for vm in vms]

    def _join(self, vm: VirtualMachine) -> None:
        """Add a VM this controller provisioned to the cluster, tagged as ours."""
        vm.tags["tenant"] = self.tenant_id
        self.runtime.cluster.add_vm(vm)

    def _start_migration(self, action: ScalingAction) -> None:
        if action.aborted:
            return
        # Worker VMs in use before the migration; vacated ones are released
        # once the protocol completes.  VMs the place stage retained and the
        # util VM never migrate.  Sorted: ``vms_used`` is a set, and
        # release/record order must not depend on PYTHONHASHSEED
        # (cross-process reproducibility).
        retained = set(action.provisioned_vm_ids) | set(action.kept_vm_ids)
        old_vm_ids = [
            vm_id
            for vm_id in sorted(self.runtime.placement.vms_used)
            if vm_id != self.runtime.util_vm_id and vm_id not in retained
        ]
        target_vm_ids = list(action.kept_vm_ids) + list(action.provisioned_vm_ids)
        place = self.place
        strategy = self.strategy_cls(self.runtime)
        action.enacted_at = self.runtime.sim.now
        # Retiring: nobody (another tenant, our own recovery) places onto a VM
        # this migration is about to vacate.
        self.arbiter.notify_migration_started(self.tenant_id, old_vm_ids)
        if action.target.rescale is not None:
            # Combined rescale + migrate: the placement must be planned after
            # the strategy has applied the parallelism change (the executor
            # set it places does not exist yet), so pass a plan factory.
            action.report = strategy.migrate(
                lambda runtime: place.placement_plan(runtime, target_vm_ids),
                on_complete=lambda report: self._migration_complete(action, old_vm_ids, report),
                rescale=action.target.rescale,
            )
        else:
            new_plan = place.placement_plan(self.runtime, target_vm_ids)
            action.report = strategy.migrate(
                new_plan,
                on_complete=lambda report: self._migration_complete(action, old_vm_ids, report),
            )

    def _migration_complete(
        self, action: ScalingAction, old_vm_ids: List[str], report: MigrationReport
    ) -> None:
        action.report = report
        action.completed_at = self.runtime.sim.now
        # Deprovision the vacated VMs -- unless something still lives there
        # (on a shared fleet, another tenant's executors): those keep
        # accruing cost until genuinely empty.
        cluster = self.runtime.cluster
        for vm_id in old_vm_ids:
            if vm_id in cluster and not cluster.vm(vm_id).occupied_slots:
                self.provider.release_from(cluster, vm_id)
                action.deprovisioned_vm_ids.append(vm_id)
        self.arbiter.notify_complete(self.tenant_id)
        self._migration_in_flight = False
        self.state.settle(action.to_tier, self.runtime.sim.now + self.config.cooldown_s)

    # ------------------------------------------------------ unplanned failures
    def handle_vm_failure(self, vm_id: str, kind: str = "kill") -> Optional[RecoveryRecord]:
        """Recover from a VM the cloud reclaimed with zero effective notice.

        Tears the VM down through :meth:`TopologyRuntime.fail_vm` (killing its
        executors, failing their tuple trees fast, releasing the slots),
        finalizes its billing, and — when executors were lost — provisions
        on-demand replacement capacity if the surviving fleet cannot host
        them, re-places the victims with an incremental rebalance (survivors
        keep their slots), and restores their keyed state from the last
        stored checkpoint via a targeted INIT wave.

        If the VM was mid-*evacuation* (its eviction deadline arrived before
        the drain finished), the in-flight evacuation migration already
        re-places everything; no second recovery is started.  An evacuation
        the deadline caught before it started (a zero notice, or a drain
        waiting behind another migration) is closed as overrun, and the
        recovery runs as for any kill.  A pending
        scaling action loses the dead VM from its fleet lists; a delta VM
        that dies before its migration is enacted is replaced like-for-like
        (or the action is aborted when no target VMs remain).

        Losing a VM that also hosts another tenant's executors is not
        modelled: it raises :class:`RuntimeError_` before anything is torn
        down (the VM would stay in the cluster, and recovery would re-place
        onto it).

        Returns the recovery record, or ``None`` if the VM is unknown.
        """
        runtime = self.runtime
        if vm_id not in runtime.cluster:
            return None
        vm = runtime.cluster.vm(vm_id)
        foreign = sorted(
            slot.executor_id for slot in vm.occupied_slots
            if slot.executor_id not in runtime.executors
        )
        if foreign:
            raise RuntimeError_(
                f"VM {vm_id} also hosts executors of another tenant ({', '.join(foreign)}): "
                "losing a shared VM is not modelled"
            )
        vm_type = vm.vm_type
        failure = runtime.fail_vm(vm_id)
        if vm.deprovisioned_at is None:
            self.provider.mark_failed(vm)
        record = RecoveryRecord(
            vm_id=vm_id,
            kind=kind,
            failed_at=failure.failed_at,
            lost_executors=list(failure.lost),
            events_lost=failure.events_lost,
            trees_failed=failure.trees_failed,
        )
        self.recoveries.append(record)
        self._prune_dead_vm(vm_id, vm_type)
        for pending in self.evacuations:
            if pending.vm_id == vm_id and pending.started_at is None and pending.completed_at is None:
                # The drain never started, so ``_migration_in_flight`` stays:
                # it belongs to a migration this evacuation did not start.
                pending.overrun = True
                pending.completed_at = runtime.sim.now
        evacuation = self._active_evacuation(vm_id)
        if evacuation is not None:
            evacuation.overrun = True
            if not evacuation.migration_issued:
                # The drain never got going (still waiting on capacity or on
                # another migration): unplanned recovery owns the mess now.
                evacuation.completed_at = runtime.sim.now
                self._migration_in_flight = False
                evacuation = None
        if not failure.lost:
            record.restored_at = runtime.sim.now
        elif evacuation is None:
            self._recover(record, vm_type)
        # else: the in-flight evacuation migration re-places and re-inits the
        # victims through its own rebalance + INIT wave.
        return record

    def handle_eviction_notice(self, vm_id: str, deadline: float) -> Optional[EvacuationRecord]:
        """React to a spot eviction notice: drain the doomed VM in the window.

        Provisions replacement capacity if needed — the notice window buys
        time to shop the market, so replacements go to whichever of spot /
        on-demand is cheaper over :data:`EVACUATION_HORIZON_S` — then migrates
        every executor off the doomed VM with the configured strategy and
        releases it, stopping its bill *before* the deadline.  If a scaling
        migration is in flight the drain retries until the window closes; a
        deadline overrun degrades to the unplanned :meth:`handle_vm_failure`
        path when the injector fires the kill.

        Returns the evacuation record, or ``None`` if the VM is unknown.
        """
        runtime = self.runtime
        if vm_id not in runtime.cluster:
            return None
        record = EvacuationRecord(vm_id=vm_id, notice_at=runtime.sim.now, deadline=deadline)
        self.evacuations.append(record)
        self._try_evacuate(record)
        return record

    # --------------------------------------------------------- recovery internals
    def _active_evacuation(self, vm_id: str) -> Optional[EvacuationRecord]:
        for record in reversed(self.evacuations):
            if record.vm_id == vm_id and record.started_at is not None and record.completed_at is None:
                return record
        return None

    def _prune_dead_vm(self, vm_id: str, vm_type: VMType) -> None:
        """Drop a vanished VM from the pending action's fleet lists."""
        action = self.last_action
        if action is None or action.is_complete or action.aborted:
            return
        if vm_id in action.kept_vm_ids:
            action.kept_vm_ids.remove(vm_id)
        if vm_id in action.provisioned_vm_ids:
            action.provisioned_vm_ids.remove(vm_id)
            if action.enacted_at is None:
                self._replace_dead_delta(action, vm_type)

    def _replace_dead_delta(self, action: ScalingAction, vm_type: VMType) -> None:
        """A delta VM died before its migration was enacted.

        Provision a like-for-like replacement so the staged migration still
        has its target fleet -- unless *no* target VMs remain at all: then the
        action is aborted and its grant goes back to the budget unspent (else
        its migration token would starve every other tenant forever).
        """
        now = self.runtime.sim.now
        if not action.provisioned_vm_ids and not action.kept_vm_ids:
            action.aborted = True
            action.completed_at = now
            self._migration_in_flight = False
            self.arbiter.notify_aborted(self.tenant_id, now=now)
            return
        vm_ids = self._provision(vm_type, 1)
        action.provisioned_vm_ids += vm_ids
        self.arbiter.notify_provisioned(self.tenant_id, vm_ids)

    def _rebuild_targets(self, exclude_vm_ids: Sequence[str] = ()) -> List[str]:
        """Worker VMs recovery and evacuation may place onto, in cluster order.

        One rule: the VM is untagged or this tenant's, not retiring (an
        in-flight migration is about to vacate it), not doomed (it is being
        evacuated), and neither the util VM nor one of ``exclude_vm_ids``.
        """
        runtime = self.runtime
        barred = set(exclude_vm_ids) | self.arbiter.retiring_vms | self.arbiter.doomed_vms
        barred.add(runtime.util_vm_id)
        return [
            vm.vm_id
            for vm in runtime.cluster.vms
            if vm.vm_id not in barred and vm.tags.get("tenant") in (None, self.tenant_id)
        ]

    def _deficit(self, targets: Sequence[str]) -> int:
        """Slots a rebuild onto ``targets`` lacks.

        What the rebuild relocates -- every user executor whose slot is not on
        a target: a dead or doomed VM's executors, and any an earlier fault
        left stranded -- minus the targets' free slots.
        """
        runtime = self.runtime
        placement = runtime.placement
        on_target = set(targets)
        relocating = sum(
            1
            for executor in runtime.user_executors
            if placement.slot_to_vm.get(placement.assignments.get(executor.executor_id))
            not in on_target
        )
        free = sum(
            1 for vm_id in targets for slot in runtime.cluster.vm(vm_id).slots if not slot.occupied
        )
        return relocating - free

    def _recover(self, record: RecoveryRecord, vm_type: VMType) -> None:
        """Rebuild the victims' placement once the fleet can host it.

        The rebuild relocates every stranded executor, so the fleet is sized
        for all of them (:meth:`_deficit`), and re-sized when replacements
        arrive: an overlapping failure may have stranded more meanwhile.
        """
        runtime = self.runtime
        if not any(eid in runtime.executors for eid in record.lost_executors):
            record.restored_at = runtime.sim.now
            return
        targets = self._rebuild_targets()
        deficit = self._deficit(targets)
        if deficit <= 0:
            # Incremental repair: survivors keep their slots, sources and
            # sinks stay pinned, only stranded executors move.
            record.rebalanced_at = runtime.sim.now
            runtime.rebalance(
                incremental_plan_on(runtime, targets),
                on_command_complete=lambda _rec: self._restore_lost(record),
            )
            return
        # No notice window to shop the market in: unplanned recovery pays
        # on-demand for reliability.  Provisioning draws straggler/failure
        # tails; recovery waits for the last replacement.
        count = math.ceil(deficit / vm_type.slots)
        tickets = self.provider.provision_with_latency(
            vm_type, count, name_prefix="rescue", market=ON_DEMAND
        )
        record.pending_replacements = len(tickets)
        for ticket in tickets:
            record.provisioning_failures += ticket.failures
            self.runtime.sim.schedule(ticket.delay_s, self._replacement_ready, record, ticket.vm)

    def _replacement_ready(self, record: RecoveryRecord, vm: VirtualMachine) -> None:
        self._join(vm)
        record.replacement_vm_ids.append(vm.vm_id)
        record.pending_replacements -= 1
        if record.pending_replacements == 0:
            self._recover(record, vm.vm_type)

    def _restore_lost(self, record: RecoveryRecord) -> None:
        runtime = self.runtime
        lost = [eid for eid in record.lost_executors if eid in runtime.executors]
        runtime.restore_executors(lost, on_complete=lambda: self._recovery_complete(record))

    def _recovery_complete(self, record: RecoveryRecord) -> None:
        record.restored_at = self.runtime.sim.now

    # ------------------------------------------------------- evacuation internals
    def _try_evacuate(self, record: EvacuationRecord) -> None:
        runtime = self.runtime
        now = runtime.sim.now
        if record.vm_id not in runtime.cluster or record.completed_at is not None:
            return
        if now >= record.deadline:
            return  # too late: the kill will take the unplanned path
        if self._migration_in_flight:
            retry = min(5.0, max(0.5, record.deadline - now))
            runtime.sim.schedule(retry, self._try_evacuate, record)
            return
        vm = runtime.cluster.vm(record.vm_id)
        hosted = [
            slot.executor_id for slot in vm.occupied_slots if slot.executor_id in runtime.executors
        ]
        if not hosted:
            # Nothing of ours on the doomed VM: release it now, stop the bill.
            record.started_at = now
            record.completed_at = now
            if not vm.occupied_slots:
                self.provider.release_from(runtime.cluster, record.vm_id)
            record.evaded = record.vm_id not in runtime.cluster
            return
        record.started_at = now
        self._migration_in_flight = True
        self._evacuate(record, vm.vm_type)

    def _evacuate(self, record: EvacuationRecord, vm_type: VMType) -> None:
        """Migrate off the doomed VM once the rest of the fleet can host it.

        Sized and re-sized like :meth:`_recover`: the rebuild relocates every
        stranded executor, not only the doomed VM's.
        """
        deficit_slots = self._deficit(self._rebuild_targets(exclude_vm_ids=(record.vm_id,)))
        if deficit_slots <= 0:
            self._start_evacuation(record)
            return
        market = ON_DEMAND
        if self.provider.spot_market is not None:
            plan = cost_optimal_fleet(
                deficit_slots,
                horizon_s=EVACUATION_HORIZON_S,
                billing_granularity_s=self.provider.billing_granularity_s,
                spot=self.provider.spot_market,
                flavours=(vm_type,),
            )
            market = plan.choices[0].market
        record.replacement_market = market
        count = math.ceil(deficit_slots / vm_type.slots)
        tickets = self.provider.provision_with_latency(
            vm_type, count, name_prefix="evac", market=market
        )
        record.pending_replacements = len(tickets)
        for ticket in tickets:
            self.runtime.sim.schedule(ticket.delay_s, self._evacuation_vm_ready, record, ticket.vm)

    def _evacuation_vm_ready(self, record: EvacuationRecord, vm: VirtualMachine) -> None:
        self._join(vm)
        record.replacement_vm_ids.append(vm.vm_id)
        record.pending_replacements -= 1
        if record.pending_replacements > 0:
            return
        if record.completed_at is not None or record.vm_id not in self.runtime.cluster:
            return  # deadline overran the provisioning; recovery owns the fleet
        self._evacuate(record, vm.vm_type)

    def _start_evacuation(self, record: EvacuationRecord) -> None:
        runtime = self.runtime
        record.migration_issued = True
        plan = incremental_plan_on(runtime, self._rebuild_targets(exclude_vm_ids=(record.vm_id,)))
        strategy = self.strategy_cls(runtime)
        # Doomed: nobody (another tenant, our own recovery) places onto it.
        self.arbiter.mark_doomed({record.vm_id})
        record.report = strategy.migrate(
            plan, on_complete=lambda report: self._evacuation_complete(record, report)
        )

    def _evacuation_complete(self, record: EvacuationRecord, report: MigrationReport) -> None:
        runtime = self.runtime
        record.report = report
        record.completed_at = runtime.sim.now
        self._migration_in_flight = False
        vm_id = record.vm_id
        if vm_id in runtime.cluster and not runtime.cluster.vm(vm_id).occupied_slots:
            # Drained before the deadline: billing stops here and the
            # eviction finds nothing to reclaim.
            self.provider.release_from(runtime.cluster, vm_id)
        # An overrun VM vanished because the cloud killed it, not because we
        # got out in time.
        record.evaded = not record.overrun and vm_id not in runtime.cluster
        self.arbiter.clear_doomed({vm_id})


def build_controller(
    runtime: TopologyRuntime,
    provider: CloudProvider,
    strategy_cls: Type[MigrationStrategy],
    config: Optional[ControllerConfig] = None,
    elastic_parallelism: bool = False,
    task_capacities_ev_s: Optional[Mapping[str, float]] = None,
    forecast_policy: Optional[ForecastPolicy] = None,
    placement: Optional[PlacementPolicy] = None,
    arbiter: Optional[ScaleArbiter] = None,
    tenant_id: str = "tenant",
) -> ElasticityController:
    """The control stack of one deployed runtime: monitor, planner, controller.

    The monitor samples at the controller's check interval; the planner sizes
    the runtime's dataflow at the paper's 8 ev/s per instance, unless
    ``task_capacities_ev_s`` gives a task its own rate.  Both are reachable as
    ``controller.monitor`` / ``controller.planner``.  The loop is not started.
    """
    config = config if config is not None else ControllerConfig()
    monitor = ElasticityMonitor(runtime, interval_s=config.check_interval_s)
    planner = AllocationPlanner(
        runtime.dataflow,
        task_capacities_ev_s=task_capacities_ev_s,
        elastic_parallelism=elastic_parallelism,
    )
    return ElasticityController(
        runtime,
        provider,
        monitor,
        planner,
        strategy_cls,
        config=config,
        forecast_policy=forecast_policy,
        placement=placement,
        arbiter=arbiter,
        tenant_id=tenant_id,
    )
