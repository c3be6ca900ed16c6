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
from these records after the run by the one reader,
:meth:`repro.obs.Telemetry.from_run` (single fleet or shared).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.cluster.cloud import BILLING_GRANULARITY_S, ON_DEMAND, SPOT, CloudProvider, SpotMarket
from repro.cluster.vm import VM_TYPES, VirtualMachine, VMType
from repro.core.strategy import MigrationReport, MigrationStrategy
from repro.dataflow.event import CheckpointAction
from repro.elastic.arbiter import ArbiterDecision, ScaleArbiter
from repro.elastic.forecast import ForecastPolicy, ReactivePolicy
from repro.elastic.monitor import ElasticityMonitor
from repro.elastic.planner import AllocationPlanner, TargetAllocation, incremental_plan_on
from repro.elastic.policy import (
    ControllerConfig,
    ControlState,
    Decision,
    IncrementalPlacement,
    PlacementPolicy,
    ProvisioningRequest,
    decide,
)
from repro.engine.runtime import RuntimeError_, TopologyRuntime
from repro.obs.telemetry import Levels, queue_levels
from repro.reliability.checkpoint import WaveMode


#: Billing horizon an eviction-notice evacuation assumes when shopping the
#: market for replacement capacity (spot vs on-demand, see
#: :func:`evacuation_market`).
EVACUATION_HORIZON_S = 3600.0
#: Expected cost of recovering from one spot eviction: a fixed part plus a
#: part per slot the evicted VM hosted (bigger VMs concentrate the risk).
RECOVERY_COST_FIXED = 0.01
RECOVERY_COST_PER_SLOT = 0.02


def evacuation_market(spot: SpotMarket, vm_type: VMType, count: int) -> str:
    """The market an evacuation buys its ``count`` replacement VMs on.

    Both bills cover :data:`EVACUATION_HORIZON_S` rounded up to the billing
    granularity (:data:`~repro.cluster.cloud.BILLING_GRANULARITY_S`).  Spot's
    expected cost adds, per VM, the probability of an eviction within the
    horizon times the recovery cost; spot wins only when that is strictly
    lower than the on-demand bill, so a tie buys on-demand.
    """
    billed_s = math.ceil(EVACUATION_HORIZON_S / BILLING_GRANULARITY_S) * BILLING_GRANULARITY_S
    on_demand = vm_type.hourly_cost * billed_s / 3600.0 * count
    penalty = spot.eviction_probability(EVACUATION_HORIZON_S) * (
        RECOVERY_COST_FIXED + RECOVERY_COST_PER_SLOT * vm_type.slots
    )
    expected = spot.spot_hourly_cost(vm_type) * billed_s / 3600.0 * count + penalty * count
    return SPOT if expected < on_demand else ON_DEMAND


@dataclass(eq=False)
class Reconfiguration:
    """One scaling action, evacuation or recovery, from open to close.

    ``reason`` says which; the fields of the other two kinds keep their
    defaults.  ``state`` runs ``waiting`` (an evacuation queued for the
    token) -> ``provisioning`` -> ``moving`` -> ``closed``; only
    :meth:`ElasticityController._enter` writes it.  A recovery that never
    opens (an evacuation was already migrating off its VM) stays ``new``.
    """

    #: ``scale``, ``evacuate`` or ``recover``.
    reason: str
    state: str = "new"
    #: The VM an evacuation drains or a recovery lost.
    vm_id: Optional[str] = None
    #: The flavour a rebuild buys its replacements in.
    vm_type: Optional[VMType] = None
    #: VMs the move empties, released at close if nothing lives there: a
    #: scaling migration's old fleet, the doomed VM of an evacuation.  A
    #: rebuild places onto none of them.
    vacating: List[str] = field(default_factory=list)
    #: A rebuild's replacement VMs: on-demand for a recovery (no notice
    #: window in which to shop the market), either market for an evacuation.
    replacement_vm_ids: List[str] = field(default_factory=list)
    pending_replacements: int = 0
    #: The strategy's migration report, filled in as the protocol runs.
    report: Optional[MigrationReport] = None
    #: When the reconfiguration closed; a recovery's is :attr:`restored_at`.
    completed_at: Optional[float] = None

    # --- a scaling action
    #: ``out`` (toward more capacity / smaller VMs) or ``in`` (toward less
    #: capacity / bigger VMs).
    direction: Optional[str] = None
    #: The tier the controller moved from / to.
    from_tier: Optional[str] = None
    to_tier: Optional[str] = None
    #: Simulated time of the decision (after hysteresis confirmed it).
    decided_at: Optional[float] = None
    #: Offered input rate (generated ev/s) that triggered the decision.
    observed_rate: Optional[float] = None
    #: The planner's allocation behind the decision.
    target: Optional[TargetAllocation] = None
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
    #: Whether the action was abandoned before enactment (every target VM
    #: died during provisioning — see ``handle_vm_failure``).
    aborted: bool = False

    # --- a recovery
    #: Fault kind the cloud reported (``"kill"`` or an overdue ``"evict"``).
    kind: Optional[str] = None
    failed_at: Optional[float] = None
    #: Executors that died with the VM.
    lost_executors: List[str] = field(default_factory=list)
    #: Data events dropped with them (queued + in-memory).
    events_lost: int = 0
    #: Tuple trees failed fast through the acker (acking runs only).
    trees_failed: int = 0
    #: Failed provisioning attempts paid for while bringing replacements up.
    provisioning_failures: int = 0
    #: When the recovery rebalance re-placed the victims.
    rebalanced_at: Optional[float] = None

    # --- an evacuation
    notice_at: Optional[float] = None
    #: When the cloud will reclaim the VM if it is still around.
    deadline: Optional[float] = None
    #: When the evacuation actually started (a migration already in flight
    #: delays it).
    started_at: Optional[float] = None
    #: Whether the VM was drained and released before the deadline (the
    #: eviction never happened; billing stopped early).
    evaded: bool = False
    #: Whether the deadline arrived before the drain finished (the kill then
    #: takes the unplanned-recovery path).
    overrun: bool = False
    #: Whether the evacuation migration was actually issued.
    migration_issued: bool = False
    #: Market the replacement capacity was bought on (the notice window buys
    #: time to choose; ``None`` when no capacity was needed).
    replacement_market: Optional[str] = None

    @property
    def is_complete(self) -> bool:
        """Whether the reconfiguration has closed."""
        return self.completed_at is not None

    @property
    def provision_slots(self) -> int:
        """New VM slots a scaling action will provision -- what an arbiter budgets.

        Equals the full target fleet under full-replace placement and only
        the delta under incremental placement (retained VMs are already in
        the fleet's physical accounting); a consolidation that re-uses free
        shared slots provisions zero.
        """
        return sum(VM_TYPES[name].slots * count for name, count in self.provision_counts.items())

    @property
    def restored_at(self) -> Optional[float]:
        """When a recovery's targeted INIT wave finished restoring the state."""
        return self.completed_at

    @property
    def recovery_latency_s(self) -> Optional[float]:
        """Failure to fully-restored, seconds (``None`` while in progress)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.failed_at

    @property
    def evacuation_latency_s(self) -> Optional[float]:
        """Drain start to drain complete, seconds (``None`` while in progress)."""
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at


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
        #: The demand forecaster (reactive unless given: a lookahead policy
        #: carries the workload's profile) and the place stage (incremental
        #: unless given: a shared-fleet tenant's placer carries the manager's
        #: exclusions).
        self.forecast_policy = forecast_policy if forecast_policy is not None else ReactivePolicy()
        self.place = placement if placement is not None else IncrementalPlacement()
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
        #: Every scaling action, evacuation and recovery, in the order opened.
        self.reconfigurations: List[Reconfiguration] = []
        #: One record per control tick, in tick order.
        self.ticks: List[TickRecord] = []
        self._timer = None
        #: The scaling action or evacuation holding the migration token.
        self._token: Optional[Reconfiguration] = None

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

    @property
    def actions(self) -> List[Reconfiguration]:
        """The enacted scaling actions, in the order opened."""
        return [r for r in self.reconfigurations if r.reason == "scale"]

    @property
    def recoveries(self) -> List[Reconfiguration]:
        """The VM losses and their recoveries, in the order opened."""
        return [r for r in self.reconfigurations if r.reason == "recover"]

    @property
    def evacuations(self) -> List[Reconfiguration]:
        """The eviction notices and their drains, in the order opened."""
        return [r for r in self.reconfigurations if r.reason == "evacuate"]

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
        action = Reconfiguration(
            "scale",
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
        self.reconfigurations.append(action)
        self._enter(action, "provisioning")
        self.state.acquired()
        # The migration waits for the provisioning latency: the paper plans
        # ahead, so the VMs are ready when the migration request is issued.
        self.runtime.sim.schedule(self.provider.provisioning_latency_s, self._move, action)
        return request, verdict, tuple(action.provisioned_vm_ids)

    # ------------------------------------------------------------ fault entry
    def handle_vm_failure(self, vm_id: str, kind: str = "kill") -> Optional[Reconfiguration]:
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
            slot.executor_id for slot in vm.occupied_slots if not runtime.placement.owns(slot)
        )
        if foreign:
            raise RuntimeError_(
                f"VM {vm_id} also hosts executors of another tenant ({', '.join(foreign)}): "
                "losing a shared VM is not modelled"
            )
        failure = runtime.fail_vm(vm_id)
        if vm.deprovisioned_at is None:
            self.provider.mark_failed(vm)
        opened = [r for r in self.reconfigurations if r.state not in ("new", "closed")]
        record = Reconfiguration(
            "recover",
            vm_id=vm_id,
            vm_type=vm.vm_type,
            kind=kind,
            failed_at=failure.failed_at,
            lost_executors=list(failure.lost),
            events_lost=failure.events_lost,
            trees_failed=failure.trees_failed,
        )
        self.reconfigurations.append(record)
        migrating = False
        for reconf in opened:
            migrating |= self._vm_lost(reconf, vm_id, vm.vm_type)
        if not (failure.lost and migrating):
            self._enter(record, "provisioning")
            self._rebuild(record)
        return record

    def handle_eviction_notice(self, vm_id: str, deadline: float) -> Optional[Reconfiguration]:
        """React to a spot eviction notice: drain the doomed VM in the window.

        Once the migration token is free (the drain retries until the window
        closes), replacements are bought on whichever of spot / on-demand is
        cheaper over :data:`EVACUATION_HORIZON_S` (:func:`evacuation_market`),
        every executor migrates off live and the VM is released, its bill
        stopped *before* the deadline.  An overrun meets :meth:`handle_vm_failure` at the kill.
        Returns the evacuation record, or ``None`` if the VM is unknown.
        """
        runtime = self.runtime
        if vm_id not in runtime.cluster:
            return None
        record = Reconfiguration(
            "evacuate",
            vm_id=vm_id,
            vm_type=runtime.cluster.vm(vm_id).vm_type,
            vacating=[vm_id],
            notice_at=runtime.sim.now,
            deadline=deadline,
        )
        self.reconfigurations.append(record)
        self._enter(record, "waiting")
        self._try_evacuate(record)
        return record

    # -------------------------------------------------- the reconfiguration path
    def _enter(self, reconf: Reconfiguration, state: str) -> None:
        """Move ``reconf`` to ``state``: the one writer of states and of the token.

        A scaling action or an evacuation migrates live, so it holds the
        migration token while provisioning or moving; a recovery never does.
        """
        reconf.state = state
        if reconf.reason == "recover":
            return
        if state in ("provisioning", "moving"):
            self._token = reconf
        elif self._token is reconf:
            self._token = None

    def _try_evacuate(self, reconf: Reconfiguration) -> None:
        """Start an evacuation once the token is free: the retry poll."""
        runtime = self.runtime
        now = runtime.sim.now
        if reconf.vm_id not in runtime.cluster or reconf.state == "closed":
            return
        if now >= reconf.deadline:
            return  # too late: the kill will take the unplanned path
        if self._token is not None:
            retry = min(5.0, max(0.5, reconf.deadline - now))
            runtime.sim.schedule(retry, self._try_evacuate, reconf)
            return
        reconf.started_at = now
        vm = runtime.cluster.vm(reconf.vm_id)
        if any(runtime.placement.owns(slot) for slot in vm.occupied_slots):
            self._enter(reconf, "provisioning")
            self._rebuild(reconf)
        else:
            # Nothing of ours on the doomed VM: release it now, stop the bill.
            self._close(reconf)

    def _rebuild(self, reconf: Reconfiguration) -> None:
        """Size an evacuation or recovery; move now, or provision and re-size.

        Re-sized when the last replacement is in: an overlapping failure may
        have stranded more executors meanwhile.
        """
        runtime = self.runtime
        if reconf.reason == "recover" and not any(
            eid in runtime.executors for eid in reconf.lost_executors
        ):
            self._close(reconf)
            return
        targets, deficit = self._size(reconf)
        if deficit <= 0:
            self._move(reconf, targets)
            return
        vm_type = reconf.vm_type
        count = math.ceil(deficit / vm_type.slots)
        if reconf.reason == "recover":
            # No notice window to shop the market in: unplanned recovery
            # pays on-demand for reliability.
            prefix, market = "rescue", ON_DEMAND
        else:
            prefix, market = "evac", ON_DEMAND
            if self.provider.spot_market is not None:
                market = evacuation_market(self.provider.spot_market, vm_type, count)
            reconf.replacement_market = market
        # Provisioning draws straggler/failure tails; the rebuild waits for
        # the last replacement.
        tickets = self.provider.provision_with_latency(
            vm_type, count, name_prefix=prefix, market=market
        )
        reconf.pending_replacements = len(tickets)
        if reconf.reason == "recover":
            reconf.provisioning_failures += sum(ticket.failures for ticket in tickets)
        for ticket in tickets:
            runtime.sim.schedule(ticket.delay_s, self._vm_ready, reconf, ticket.vm)

    def _vm_ready(self, reconf: Reconfiguration, vm: VirtualMachine) -> None:
        """A rebuild's replacement is up; the last one re-sizes the rebuild."""
        self._join(vm)
        reconf.replacement_vm_ids.append(vm.vm_id)
        reconf.pending_replacements -= 1
        if reconf.pending_replacements == 0 and reconf.state != "closed":
            self._rebuild(reconf)

    def _move(self, reconf: Reconfiguration, targets: Sequence[str] = ()) -> None:
        """Move the state: live for a scaling action or an evacuation, from the
        last commit for a recovery (``targets``: what a rebuild places onto)."""
        if reconf.state == "closed":
            return  # a scaling action aborted while its VMs were coming up
        runtime = self.runtime
        self._enter(reconf, "moving")
        if reconf.reason == "recover":
            # Incremental repair: survivors keep their slots, sources and
            # sinks stay pinned, only stranded executors move.
            reconf.rebalanced_at = runtime.sim.now
            runtime.rebalance(
                incremental_plan_on(runtime, targets),
                on_command_complete=lambda _rec: self._restore(reconf),
            )
            return
        rescale = None
        if reconf.reason == "evacuate":
            reconf.migration_issued = True
            plan = incremental_plan_on(runtime, targets)
            # Doomed: nobody (another tenant, our own recovery) places onto it.
            self.arbiter.mark_doomed(reconf.vacating)
        else:
            # Worker VMs in use before the migration; vacated ones are
            # released at close.  VMs the place stage retained and the util
            # VM never migrate.  Sorted: ``vms_used`` is a set, and
            # release/record order must not depend on PYTHONHASHSEED.
            retained = set(reconf.provisioned_vm_ids) | set(reconf.kept_vm_ids)
            reconf.vacating = [
                vm_id
                for vm_id in sorted(runtime.placement.vms_used)
                if vm_id != runtime.util_vm_id and vm_id not in retained
            ]
            target_vm_ids = list(reconf.kept_vm_ids) + list(reconf.provisioned_vm_ids)
            reconf.enacted_at = runtime.sim.now
            # Retiring: nobody (another tenant, our own recovery) places onto
            # a VM this migration is about to vacate.
            self.arbiter.notify_migration_started(self.tenant_id, reconf.vacating)
            rescale = reconf.target.rescale
            # A combined rescale + migrate plans after the strategy applied
            # the parallelism change (the executor set it places does not
            # exist yet), so it gets a plan factory.
            plan = lambda runtime: self.place.placement_plan(runtime, target_vm_ids)
            if rescale is None:
                plan = plan(runtime)
        reconf.report = self.strategy_cls(runtime).migrate(
            plan, on_complete=lambda report: self._close(reconf, report), rescale=rescale
        )

    def _restore(self, reconf: Reconfiguration) -> None:
        """Re-initialise a recovery's re-placed victims from their last commit.

        The INIT is broadcast to the victims alone, so survivors keep their
        in-memory state.  It takes a fresh checkpoint id (executors ignore an
        id they already acted on) and re-sends every second until every
        victim, even one still restarting, has acted.  With no victim left it
        closes without a wave: checkpoint ids feed event ids.
        """
        runtime = self.runtime
        victims = {eid for eid in reconf.lost_executors if eid in runtime.executors}
        if not victims:
            self._close(reconf)
            return
        runtime.checkpoints.start_wave(
            CheckpointAction.INIT,
            mode=WaveMode.BROADCAST,
            on_complete=lambda _wave: self._close(reconf),
            resend_interval_s=1.0,
            targets=victims,
        )

    def _vm_lost(self, reconf: Reconfiguration, vm_id: str, vm_type: VMType) -> bool:
        """Tell one open reconfiguration that ``vm_id`` died.

        Returns whether it re-places that VM's executors itself (an
        evacuation migrating off it).
        """
        if reconf.reason == "scale":
            if vm_id in reconf.kept_vm_ids:
                reconf.kept_vm_ids.remove(vm_id)
            if vm_id not in reconf.provisioned_vm_ids:
                return False
            reconf.provisioned_vm_ids.remove(vm_id)
            if reconf.state != "provisioning":
                return False
            if reconf.provisioned_vm_ids or reconf.kept_vm_ids:
                # The staged migration keeps its target fleet.
                vm_ids = self._provision(vm_type, 1)
                reconf.provisioned_vm_ids += vm_ids
                self.arbiter.notify_provisioned(self.tenant_id, vm_ids)
            else:
                # No target VM left: the grant goes back to the budget
                # unspent (else its token would starve every other tenant).
                reconf.aborted = True
                self._close(reconf)
            return False
        if reconf.reason != "evacuate" or reconf.vm_id != vm_id:
            return False
        # The deadline caught the drain: an overrun VM vanished because the
        # cloud killed it, not because we got out in time.
        reconf.overrun = True
        if reconf.state == "moving":
            return True
        self._close(reconf)
        return False

    def _close(self, reconf: Reconfiguration, report: Optional[MigrationReport] = None) -> None:
        """Release the emptied VMs, notify the arbiter, stamp the record, settle."""
        runtime = self.runtime
        now = runtime.sim.now
        cluster = runtime.cluster
        # Something may still live on a vacated VM (on a shared fleet,
        # another tenant's executors): it keeps accruing cost until empty.
        released = [
            vm_id for vm_id in reconf.vacating
            if vm_id in cluster and not cluster.vm(vm_id).occupied_slots
        ]
        for vm_id in released:
            self.provider.release_from(cluster, vm_id)
        self._enter(reconf, "closed")
        reconf.completed_at = now
        reconf.report = report
        if reconf.reason == "evacuate":
            reconf.evaded = not reconf.overrun and reconf.vm_id not in cluster
            self.arbiter.clear_doomed(reconf.vacating)
        elif reconf.aborted:
            self.arbiter.notify_aborted(self.tenant_id, now=now)
        elif reconf.reason == "scale":
            reconf.deprovisioned_vm_ids += released
            self.arbiter.notify_complete(self.tenant_id)
            self.state.settle(reconf.to_tier, now + self.config.cooldown_s)

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

    def _size(self, reconf: Reconfiguration) -> Tuple[List[str], int]:
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
    forecast_policy: Optional[ForecastPolicy] = None,
    placement: Optional[PlacementPolicy] = None,
    arbiter: Optional[ScaleArbiter] = None,
    tenant_id: str = "tenant",
) -> ElasticityController:
    """The control stack of one deployed runtime: monitor, planner, controller.

    The monitor samples at the controller's check interval; the planner sizes
    the runtime's dataflow at the paper's 8 ev/s per instance, unless a task
    declares its own ``capacity_ev_s``.  Both are reachable as
    ``controller.monitor`` / ``controller.planner``.  The rule forecasts with
    ``forecast_policy``, or reactively when none is given, and places with
    ``placement``, or incrementally when none is given.  The loop is not
    started.
    """
    config = config if config is not None else ControllerConfig()
    monitor = ElasticityMonitor(runtime, interval_s=config.check_interval_s)
    planner = AllocationPlanner(runtime.dataflow, elastic_parallelism=elastic_parallelism)
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
