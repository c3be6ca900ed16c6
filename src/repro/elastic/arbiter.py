"""Cluster-wide arbitration of scaling decisions on a shared fleet.

On a multi-tenant cluster every dataflow runs its own elastic control loop,
but capacity is global: if each controller provisioned on its own, two
simultaneous surges could blow past the fleet budget, and one tenant could
rebalance onto VMs another tenant's in-flight scale-in is about to
deprovision.  The :class:`ScaleArbiter` is the single authority every
:class:`~repro.elastic.controller.ElasticityController` asks before acquiring
capacity; a single-tenant controller asks a one-tenant arbiter with an
unbounded budget, so the accounting below runs on every run.

The arbitration policy, in the order the checks run:

1. **Migration serialization** -- one scaling migration is in flight at a
   time: a proposal is deferred while any tenant's migration runs.  The
   *retiring* sets (old VMs an in-flight migration will vacate) are still
   published for schedulers to avoid.
2. **Fleet budget** -- worker slots in the cluster plus slots reserved by
   granted-but-not-yet-provisioned proposals must never exceed
   ``budget_slots``.  Reservations are taken at grant time and converted to
   physical accounting the moment the VMs join the cluster, so two tenants
   can never double-provision their way past the cap.
3. **Priority tiers** -- a proposal is deferred while a *higher-priority*
   tenant is waiting: capacity that frees up goes to the most important
   tenant first, even if it asked later.
4. **Proportional-share fallback** -- among waiting tenants of equal
   priority, the one holding the fewest slots wins the next grant, so a
   heavy tenant cannot starve a light one at the same priority tier.

A deferral is cheap by design: controllers re-propose on their next control
tick, so the arbiter keeps a *waiting registry* (who wants how much, since
when) rather than a callback queue, and clears entries on grant or when the
tenant withdraws (its demand went back in band).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.cluster.cloud import Cluster
from repro.cluster.vm import is_worker_vm


@dataclass(frozen=True)
class ArbiterDecision:
    """Outcome of one proposal."""

    granted: bool
    #: ``granted``, ``migration-in-flight``, ``budget``,
    #: ``yield-to-higher-priority`` or ``proportional-share``.
    reason: str


@dataclass
class TenantRegistration:
    """A tenant known to the arbiter."""

    tenant_id: str
    priority: int
    #: Live count of worker slots the tenant currently occupies (the manager
    #: wires this to the tenant's deployed executor count).
    holdings_fn: Callable[[], int]


@dataclass
class WaitingEntry:
    """A deferred proposal, kept until granted or withdrawn."""

    tenant_id: str
    priority: int
    slots: int
    direction: str
    since: float


@dataclass
class InFlightMigration:
    """Capacity bookkeeping for one granted scaling migration."""

    tenant_id: str
    #: Slots granted but not yet physically in the cluster.
    reserved_slots: int
    granted_at: float
    #: Old VMs the migration will vacate (published once the request is issued).
    retiring_vm_ids: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class ProposalRecord:
    """Audit-log entry for one arbitration: who asked, the verdict, and the
    budget position before/after (each one an ``arbiter`` span of ``repro
    multi --trace``)."""

    time: float
    tenant_id: str
    direction: str
    slots_requested: int
    granted: bool
    reason: str
    #: Committed slots (physical fleet + reservations) before / after the
    #: verdict was applied, against the cluster-wide budget.
    committed_before: int = 0
    committed_after: int = 0
    budget_slots: int = 0


class ScaleArbiter:
    """Grants or defers tenants' scaling proposals under a fleet slot budget."""

    def __init__(self, cluster: Cluster, budget_slots: int) -> None:
        if budget_slots <= 0:
            raise ValueError(f"budget_slots must be positive, got {budget_slots}")
        self.cluster = cluster
        self.budget_slots = budget_slots
        self.tenants: Dict[str, TenantRegistration] = {}
        self.waiting: Dict[str, WaitingEntry] = {}
        self.in_flight: Dict[str, InFlightMigration] = {}
        self.log: List[ProposalRecord] = []
        #: Audit entries for grants returned unspent (see :meth:`notify_aborted`).
        self.aborts: List[ProposalRecord] = []
        #: VMs under an eviction notice (a tenant is draining them); placed
        #: like retiring VMs: nobody schedules onto a machine the cloud is
        #: about to reclaim.
        self.doomed_vms: Set[str] = set()
        #: High-water mark of committed slots (physical + reserved), for the
        #: budget invariant checks in tests and reports.
        self.max_committed_slots = 0

    # ---------------------------------------------------------- registration
    def register_tenant(
        self,
        tenant_id: str,
        priority: int = 1,
        holdings_fn: Optional[Callable[[], int]] = None,
    ) -> TenantRegistration:
        """Register a tenant; must happen before it may propose."""
        if tenant_id in self.tenants:
            raise ValueError(f"tenant {tenant_id!r} is already registered")
        registration = TenantRegistration(
            tenant_id=tenant_id,
            priority=priority,
            holdings_fn=holdings_fn if holdings_fn is not None else (lambda: 0),
        )
        self.tenants[tenant_id] = registration
        return registration

    # ------------------------------------------------------------ accounting
    def fleet_slots(self) -> int:
        """Worker slots physically in the shared cluster right now."""
        return sum(len(vm.slots) for vm in self.cluster.vms if is_worker_vm(vm))

    def reserved_slots(self) -> int:
        """Slots granted but not yet provisioned into the cluster."""
        return sum(m.reserved_slots for m in self.in_flight.values())

    def committed_slots(self) -> int:
        """Physical plus reserved slots -- what the budget is checked against."""
        return self.fleet_slots() + self.reserved_slots()

    @property
    def retiring_vms(self) -> Set[str]:
        """VMs in-flight migrations are about to deprovision (do not place here)."""
        retiring: Set[str] = set()
        for migration in self.in_flight.values():
            retiring |= migration.retiring_vm_ids
        return retiring

    def _note_committed(self) -> None:
        committed = self.committed_slots()
        if committed > self.max_committed_slots:
            self.max_committed_slots = committed

    def observe_committed(self) -> int:
        """Fold the current committed count into the high-water mark.

        Called by the manager's fleet sampler so ``max_committed_slots``
        reflects the fleet even across stretches with no grants.
        """
        self._note_committed()
        return self.max_committed_slots

    # -------------------------------------------------------------- proposals
    def propose(self, tenant_id: str, direction: str, slots: int, now: float) -> ArbiterDecision:
        """Arbitrate one scaling proposal (``slots`` = new VM slots to provision).

        Scale-ins go through the same path: a consolidation provisions a new
        (smaller) fleet too, and its migration must be serialized like any
        other.  A deferred proposal stays in the waiting registry; the
        controller simply re-proposes next tick.
        """
        if tenant_id not in self.tenants:
            raise KeyError(f"tenant {tenant_id!r} is not registered with the arbiter")
        if slots < 0:
            raise ValueError(f"slots must be non-negative, got {slots}")
        me = self.tenants[tenant_id]

        committed_before = self.committed_slots()
        decision = self._decide(me, direction, slots)
        if decision.granted:
            self.waiting.pop(tenant_id, None)
            self.in_flight[tenant_id] = InFlightMigration(
                tenant_id=tenant_id, reserved_slots=slots, granted_at=now
            )
            self._note_committed()
        else:
            self.waiting[tenant_id] = WaitingEntry(
                tenant_id=tenant_id,
                priority=me.priority,
                slots=slots,
                direction=direction,
                since=self.waiting[tenant_id].since if tenant_id in self.waiting else now,
            )
        self.log.append(
            ProposalRecord(
                time=now,
                tenant_id=tenant_id,
                direction=direction,
                slots_requested=slots,
                granted=decision.granted,
                reason=decision.reason,
                committed_before=committed_before,
                committed_after=self.committed_slots(),
                budget_slots=self.budget_slots,
            )
        )
        return decision

    def _decide(self, me: TenantRegistration, direction: str, slots: int) -> ArbiterDecision:
        if self.in_flight:
            return ArbiterDecision(granted=False, reason="migration-in-flight")
        if self.committed_slots() + slots > self.budget_slots:
            return ArbiterDecision(granted=False, reason="budget")
        rivals = [w for t, w in self.waiting.items() if t != me.tenant_id]
        if any(w.priority > me.priority for w in rivals):
            return ArbiterDecision(granted=False, reason="yield-to-higher-priority")
        peers = [w for w in rivals if w.priority == me.priority]
        if peers:
            held = me.holdings_fn()
            if any(self.tenants[w.tenant_id].holdings_fn() < held for w in peers):
                return ArbiterDecision(granted=False, reason="proportional-share")
        return ArbiterDecision(granted=True, reason="granted")

    def withdraw(self, tenant_id: str) -> None:
        """Drop a tenant's waiting entry (its demand went back in band)."""
        self.waiting.pop(tenant_id, None)

    # ---------------------------------------------------------- notifications
    def notify_provisioned(self, tenant_id: str, vm_ids: Iterable[str]) -> None:
        """Convert a grant's reservation into physical fleet accounting.

        The VMs are now in the cluster (counted by :meth:`fleet_slots`), so
        the matching reservation is released slot-for-slot -- double counting
        a VM as both physical and reserved would eat budget that is free.
        """
        migration = self.in_flight.get(tenant_id)
        if migration is None:
            return
        provisioned = sum(
            len(self.cluster.vm(vm_id).slots) for vm_id in vm_ids if vm_id in self.cluster
        )
        migration.reserved_slots = max(0, migration.reserved_slots - provisioned)
        self._note_committed()

    def notify_migration_started(self, tenant_id: str, retiring_vm_ids: Iterable[str]) -> None:
        """Publish the VMs an in-flight migration is going to vacate."""
        migration = self.in_flight.get(tenant_id)
        if migration is not None:
            migration.retiring_vm_ids |= set(retiring_vm_ids)

    def notify_complete(self, tenant_id: str) -> None:
        """A tenant's migration finished: clear its reservation and retiring set."""
        self.in_flight.pop(tenant_id, None)
        self._note_committed()

    def notify_aborted(self, tenant_id: str, now: float = 0.0) -> int:
        """Return an in-flight grant to the budget unspent.

        Called when a granted scaling action is abandoned -- e.g. every delta
        VM died during provisioning, so the migration will never start.
        Without this the tenant's :class:`InFlightMigration` entry would hold
        its reservation, its retiring set and (with serialized migrations) the
        single migration token forever, starving every other tenant.  Returns
        the number of reserved slots handed back.
        """
        committed_before = self.committed_slots()
        migration = self.in_flight.pop(tenant_id, None)
        if migration is None:
            return 0
        returned = migration.reserved_slots
        self.aborts.append(
            ProposalRecord(
                time=now,
                tenant_id=tenant_id,
                direction="abort",
                slots_requested=returned,
                granted=False,
                reason="aborted",
                committed_before=committed_before,
                committed_after=self.committed_slots(),
                budget_slots=self.budget_slots,
            )
        )
        self._note_committed()
        return returned

    def mark_doomed(self, vm_ids: Iterable[str]) -> None:
        """Publish VMs under an eviction notice (no tenant should place here)."""
        self.doomed_vms |= set(vm_ids)

    def clear_doomed(self, vm_ids: Iterable[str]) -> None:
        """Drop eviction-notice markers once the VMs are drained or reclaimed."""
        self.doomed_vms -= set(vm_ids)

    # ---------------------------------------------------------------- queries
    def grants(self) -> List[ProposalRecord]:
        """Audit-log entries that were granted."""
        return [r for r in self.log if r.granted]

    def deferrals(self) -> List[ProposalRecord]:
        """Audit-log entries that were deferred, with their reasons."""
        return [r for r in self.log if not r.granted]
