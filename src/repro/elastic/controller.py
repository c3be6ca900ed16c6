"""The autoscaling controller: sample, :func:`~repro.elastic.policy.decide`, reconfigure.

Every check interval the controller takes one monitor sample and hands it to
the control rule (:func:`~repro.elastic.policy.decide`: forecast the demand,
size it, confirm it through hysteresis, cooldown and the drain guard).  When
the rule (documented where it lives) says ``enact``, the dataflow is
*reconfigured*; so it is when a spot eviction notice arrives (an evacuation)
and when a VM dies (a recovery).  The paper treats a migration as one
protocol -- checkpoint, rebalance onto the new VMs, restore -- and all three
run one sequence:

1. **size**: a scaling action takes what the placement policy requests
   (:class:`~repro.elastic.policy.IncrementalPlacement` provisions only the
   delta, :class:`~repro.elastic.policy.FullReplacePlacement` the whole
   target fleet), after the :class:`~repro.elastic.arbiter.ScaleArbiter`
   granted it; a rebuild (evacuation, recovery) the slots it lacks;
2. **provision**: a scaling action buys its VMs at once and waits the fixed
   provisioning latency, as the paper provisions before it issues the
   migration request; a rebuild buys replacements with drawn latencies --
   on-demand ``rescue`` VMs, or ``evac`` VMs on the cheaper market -- and
   re-sizes when the last one is in;
3. **move** the state: live with the configured
   :class:`~repro.core.strategy.MigrationStrategy` (a combined rescale +
   migrate under ``elastic_parallelism``), or for a recovery from the last
   committed checkpoint by a rebalance and a targeted INIT wave;
4. **close**: release the VMs the move emptied, notify the arbiter, stamp
   the record, settle the control state.

A scaling action or an evacuation holds the one migration token from
provisioning to close; a recovery needs none.  A VM loss is told once to
every open reconfiguration, and its state decides what follows
(:meth:`ElasticityController.handle_vm_failure`).  The VMs a migration will
vacate are published as *retiring*, a VM being evacuated as *doomed*, and a
rebuild places only onto VMs that are untagged or this tenant's, neither.

Decisions track the sample's ``offered_rate`` (events *generated* per
second), so a post-migration backlog drain does not read as a surge.  Every
tick appends a :class:`TickRecord` to ``controller.ticks``; a trace is read
from these records after the run (:meth:`repro.obs.Telemetry.from_run`).
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
    ControllerConfig,
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


@dataclass(eq=False)
class _Reconfiguration:
    """One scaling action, evacuation or recovery on its way to close.

    ``state`` runs ``waiting`` (an evacuation queued for the token) ->
    ``provisioning`` -> ``moving`` -> ``closed``; only
    :meth:`ElasticityController._enter` writes it.
    """

    #: ``scale``, ``evacuate`` or ``recover``.
    reason: str
    #: The record it stamps: a :class:`ScalingAction`,
    #: :class:`EvacuationRecord` or :class:`RecoveryRecord`.
    record: object
    #: The flavour a rebuild buys its replacements in.
    vm_type: Optional[VMType] = None
    #: VMs the move empties, released at close if nothing lives there: a
    #: scaling migration's old fleet, the doomed VM of an evacuation.  A
    #: rebuild places onto none of them.
    vacating: List[str] = field(default_factory=list)
    state: str = "new"


class ElasticityController:
    """Watches the monitor and reconfigures the dataflow between VM allocations."""

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
        #: Reconfigurations not yet closed, in the order they opened.
        self._open: List[_Reconfiguration] = []
        #: The scaling action or evacuation holding the migration token.
        self._token: Optional[_Reconfiguration] = None

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
        """Whether a scaling or evacuation migration holds the token."""
        return self._token is not None

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
            busy=self.migration_in_flight,
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

    def _enact(
        self, decision: Decision
    ) -> Tuple[ProvisioningRequest, ArbiterDecision, Tuple[str, ...]]:
        """Size, propose and provision one confirmed decision.

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
        # Billing for the new fleet starts now.  The grant's reservation
        # becomes physical accounting the moment the VMs join the cluster.
        for type_name, count in sorted(action.provision_counts.items()):
            action.provisioned_vm_ids += self._provision(VM_TYPES[type_name], count)
        self.arbiter.notify_provisioned(self.tenant_id, action.provisioned_vm_ids)
        self.actions.append(action)
        reconf = _Reconfiguration("scale", action)
        self._enter(reconf, "provisioning")
        self.state.acquired()
        # The migration waits for the provisioning latency: the paper plans
        # ahead, so the VMs are ready when the migration request is issued.
        self.runtime.sim.schedule(self.provider.provisioning_latency_s, self._move, reconf)
        return request, verdict, tuple(action.provisioned_vm_ids)

    # ------------------------------------------------------------ fault entry
    def handle_vm_failure(self, vm_id: str, kind: str = "kill") -> Optional[RecoveryRecord]:
        """Recover from a VM the cloud reclaimed with zero effective notice.

        Tears the VM down (:meth:`TopologyRuntime.fail_vm`: its executors
        killed, their trees failed fast) and ends its bill.  Every open
        reconfiguration is then told once (:meth:`_vm_lost`); unless an
        evacuation migrating off the VM re-places its executors, a recovery
        rebuilds them and restores their state from the last commit.

        Losing a VM that also hosts another tenant's executors is not
        modelled: it raises :class:`RuntimeError_` before anything is torn
        down.  Returns the recovery record, or ``None`` if the VM is unknown.
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
        migrating = False
        for reconf in list(self._open):
            migrating |= self._vm_lost(reconf, vm_id, vm.vm_type)
        if not (failure.lost and migrating):
            reconf = _Reconfiguration("recover", record, vm.vm_type)
            self._enter(reconf, "provisioning")
            self._rebuild(reconf)
        return record

    def handle_eviction_notice(self, vm_id: str, deadline: float) -> Optional[EvacuationRecord]:
        """React to a spot eviction notice: drain the doomed VM in the window.

        Once the migration token is free (the drain retries until the window
        closes), replacements are bought on whichever of spot / on-demand is
        cheaper over :data:`EVACUATION_HORIZON_S`, every executor migrates
        off live and the VM is released, its bill stopped *before* the
        deadline.  An overrun meets :meth:`handle_vm_failure` at the kill.
        Returns the evacuation record, or ``None`` if the VM is unknown.
        """
        runtime = self.runtime
        if vm_id not in runtime.cluster:
            return None
        record = EvacuationRecord(vm_id=vm_id, notice_at=runtime.sim.now, deadline=deadline)
        self.evacuations.append(record)
        reconf = _Reconfiguration("evacuate", record, runtime.cluster.vm(vm_id).vm_type, [vm_id])
        self._enter(reconf, "waiting")
        self._try_evacuate(reconf)
        return record

    # -------------------------------------------------- the reconfiguration path
    def _enter(self, reconf: _Reconfiguration, state: str) -> None:
        """Move ``reconf`` to ``state``: the one writer of states and of the token.

        A scaling action or an evacuation migrates live, so it holds the
        migration token while provisioning or moving; a recovery never does.
        """
        if reconf.state == "new":
            self._open.append(reconf)
        reconf.state = state
        if state == "closed":
            self._open.remove(reconf)
        if reconf.reason == "recover":
            return
        if state in ("provisioning", "moving"):
            self._token = reconf
        elif self._token is reconf:
            self._token = None

    def _try_evacuate(self, reconf: _Reconfiguration) -> None:
        """Start an evacuation once the token is free: the retry poll."""
        runtime = self.runtime
        now = runtime.sim.now
        record = reconf.record
        if record.vm_id not in runtime.cluster or reconf.state == "closed":
            return
        if now >= record.deadline:
            return  # too late: the kill will take the unplanned path
        if self._token is not None:
            retry = min(5.0, max(0.5, record.deadline - now))
            runtime.sim.schedule(retry, self._try_evacuate, reconf)
            return
        record.started_at = now
        vm = runtime.cluster.vm(record.vm_id)
        if any(slot.executor_id in runtime.executors for slot in vm.occupied_slots):
            self._enter(reconf, "provisioning")
            self._rebuild(reconf)
        else:
            # Nothing of ours on the doomed VM: release it now, stop the bill.
            self._close(reconf)

    def _rebuild(self, reconf: _Reconfiguration) -> None:
        """Size an evacuation or recovery; move now, or provision and re-size.

        Re-sized when the last replacement is in: an overlapping failure may
        have stranded more executors meanwhile.
        """
        runtime = self.runtime
        record = reconf.record
        if reconf.reason == "recover" and not any(
            eid in runtime.executors for eid in record.lost_executors
        ):
            self._close(reconf)
            return
        targets, deficit = self._size(reconf)
        if deficit <= 0:
            self._move(reconf, targets)
            return
        vm_type = reconf.vm_type
        if reconf.reason == "recover":
            # No notice window to shop the market in: unplanned recovery
            # pays on-demand for reliability.
            prefix, market = "rescue", ON_DEMAND
        else:
            prefix, market = "evac", ON_DEMAND
            if self.provider.spot_market is not None:
                market = cost_optimal_fleet(
                    deficit,
                    horizon_s=EVACUATION_HORIZON_S,
                    billing_granularity_s=self.provider.billing_granularity_s,
                    spot=self.provider.spot_market,
                    flavours=(vm_type,),
                ).choices[0].market
            record.replacement_market = market
        # Provisioning draws straggler/failure tails; the rebuild waits for
        # the last replacement.
        tickets = self.provider.provision_with_latency(
            vm_type, math.ceil(deficit / vm_type.slots), name_prefix=prefix, market=market
        )
        record.pending_replacements = len(tickets)
        if reconf.reason == "recover":
            record.provisioning_failures += sum(ticket.failures for ticket in tickets)
        for ticket in tickets:
            runtime.sim.schedule(ticket.delay_s, self._vm_ready, reconf, ticket.vm)

    def _vm_ready(self, reconf: _Reconfiguration, vm: VirtualMachine) -> None:
        """A rebuild's replacement is up; the last one re-sizes the rebuild."""
        self._join(vm)
        record = reconf.record
        record.replacement_vm_ids.append(vm.vm_id)
        record.pending_replacements -= 1
        if record.pending_replacements == 0 and reconf.state != "closed":
            self._rebuild(reconf)

    def _move(self, reconf: _Reconfiguration, targets: Sequence[str] = ()) -> None:
        """Move the state: live for a scaling action or an evacuation, from the
        last commit for a recovery (``targets``: what a rebuild places onto)."""
        if reconf.state == "closed":
            return  # a scaling action aborted while its VMs were coming up
        runtime = self.runtime
        record = reconf.record
        self._enter(reconf, "moving")
        if reconf.reason == "recover":
            # Incremental repair: survivors keep their slots, sources and
            # sinks stay pinned, only stranded executors move.
            record.rebalanced_at = runtime.sim.now
            runtime.rebalance(
                incremental_plan_on(runtime, targets),
                on_command_complete=lambda _rec: runtime.restore_executors(
                    [eid for eid in record.lost_executors if eid in runtime.executors],
                    on_complete=lambda: self._close(reconf),
                ),
            )
            return
        rescale = None
        if reconf.reason == "evacuate":
            record.migration_issued = True
            plan = incremental_plan_on(runtime, targets)
            # Doomed: nobody (another tenant, our own recovery) places onto it.
            self.arbiter.mark_doomed(reconf.vacating)
        else:
            # Worker VMs in use before the migration; vacated ones are
            # released at close.  VMs the place stage retained and the util
            # VM never migrate.  Sorted: ``vms_used`` is a set, and
            # release/record order must not depend on PYTHONHASHSEED.
            retained = set(record.provisioned_vm_ids) | set(record.kept_vm_ids)
            reconf.vacating = [
                vm_id
                for vm_id in sorted(runtime.placement.vms_used)
                if vm_id != runtime.util_vm_id and vm_id not in retained
            ]
            target_vm_ids = list(record.kept_vm_ids) + list(record.provisioned_vm_ids)
            record.enacted_at = runtime.sim.now
            # Retiring: nobody (another tenant, our own recovery) places onto
            # a VM this migration is about to vacate.
            self.arbiter.notify_migration_started(self.tenant_id, reconf.vacating)
            rescale = record.target.rescale
            # A combined rescale + migrate plans after the strategy applied
            # the parallelism change (the executor set it places does not
            # exist yet), so it gets a plan factory.
            plan = lambda runtime: self.place.placement_plan(runtime, target_vm_ids)
            if rescale is None:
                plan = plan(runtime)
        record.report = self.strategy_cls(runtime).migrate(
            plan, on_complete=lambda report: self._close(reconf, report), rescale=rescale
        )

    def _vm_lost(self, reconf: _Reconfiguration, vm_id: str, vm_type: VMType) -> bool:
        """Tell one open reconfiguration that ``vm_id`` died.

        Returns whether it re-places that VM's executors itself (an
        evacuation migrating off it).
        """
        record = reconf.record
        if reconf.reason == "scale":
            if vm_id in record.kept_vm_ids:
                record.kept_vm_ids.remove(vm_id)
            if vm_id not in record.provisioned_vm_ids:
                return False
            record.provisioned_vm_ids.remove(vm_id)
            if reconf.state != "provisioning":
                return False
            if record.provisioned_vm_ids or record.kept_vm_ids:
                # The staged migration keeps its target fleet.
                vm_ids = self._provision(vm_type, 1)
                record.provisioned_vm_ids += vm_ids
                self.arbiter.notify_provisioned(self.tenant_id, vm_ids)
            else:
                # No target VM left: the grant goes back to the budget
                # unspent (else its token would starve every other tenant).
                record.aborted = True
                self._close(reconf)
            return False
        if reconf.reason != "evacuate" or record.vm_id != vm_id:
            return False
        # The deadline caught the drain: an overrun VM vanished because the
        # cloud killed it, not because we got out in time.
        record.overrun = True
        if reconf.state == "moving":
            return True
        self._close(reconf)
        return False

    def _close(self, reconf: _Reconfiguration, report: Optional[MigrationReport] = None) -> None:
        """Release the emptied VMs, notify the arbiter, stamp the record, settle."""
        runtime = self.runtime
        now = runtime.sim.now
        cluster = runtime.cluster
        record = reconf.record
        # Something may still live on a vacated VM (on a shared fleet,
        # another tenant's executors): it keeps accruing cost until empty.
        released = [
            vm_id for vm_id in reconf.vacating
            if vm_id in cluster and not cluster.vm(vm_id).occupied_slots
        ]
        for vm_id in released:
            self.provider.release_from(cluster, vm_id)
        self._enter(reconf, "closed")
        if reconf.reason == "recover":
            record.restored_at = now
            return
        record.completed_at = now
        record.report = report
        if reconf.reason == "evacuate":
            record.evaded = not record.overrun and record.vm_id not in cluster
            self.arbiter.clear_doomed(reconf.vacating)
        elif record.aborted:
            self.arbiter.notify_aborted(self.tenant_id, now=now)
        else:
            record.deprovisioned_vm_ids += released
            self.arbiter.notify_complete(self.tenant_id)
            self.state.settle(record.to_tier, now + self.config.cooldown_s)

    # ------------------------------------------------------------ fleet helpers
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

    def _size(self, reconf: _Reconfiguration) -> Tuple[List[str], int]:
        """A rebuild's size step: the VMs it may place onto, and the slots they lack.

        A target is a worker VM that is untagged or this tenant's, and neither
        retiring (an in-flight migration is about to vacate it), doomed (it
        is being evacuated) nor one ``reconf`` vacates.  The rebuild relocates
        every user executor whose slot is not on a target -- a dead or doomed
        VM's, and any an earlier fault left stranded -- into their free slots.
        """
        runtime = self.runtime
        placement = runtime.placement
        barred = {runtime.util_vm_id, *reconf.vacating}
        barred |= self.arbiter.retiring_vms | self.arbiter.doomed_vms
        targets = [
            vm for vm in runtime.cluster.vms
            if vm.vm_id not in barred and vm.tags.get("tenant") in (None, self.tenant_id)
        ]
        on_target = {vm.vm_id for vm in targets}
        relocating = sum(
            1
            for executor in runtime.user_executors
            if placement.slot_to_vm.get(placement.assignments.get(executor.executor_id))
            not in on_target
        )
        free = sum(1 for vm in targets for slot in vm.slots if not slot.occupied)
        return [vm.vm_id for vm in targets], relocating - free


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
