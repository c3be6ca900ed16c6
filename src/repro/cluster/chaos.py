"""Deterministic fault injection: eviction storms, VM kills, slow clouds.

The chaos layer makes the failure modes that motivate fast migration —
spot-market evictions, zero-notice VM loss, provisioning stragglers — into
first-class simulated events.  A :class:`ChaosSchedule` is a declarative list
of :class:`FaultEvent`\\ s; the :class:`FaultInjector` arms them on the kernel
as cancellable timers (so the batch stepper's cascade horizon sees them and
disengages around each fault) and resolves targets at fire time.

Every stochastic choice — storm jitter, target selection — is a keyed draw from
``(seed, channel, key)``, never from shared mutable RNG state, so a chaos run
is bit-reproducible for a given seed regardless of how the rest of the
simulation interleaves.

Fault kinds:

* ``"evict"`` — spot-style eviction: the injector fires a *notice* (delivered
  to ``on_notice``, e.g. ``ElasticityController.handle_eviction_notice``),
  then reclaims the VM ``notice_s`` later **if it is still in the cluster**.
  A controller that drains and releases the VM inside the window evades the
  kill entirely (outcome ``"evaded"``).
* ``"kill"`` — zero-notice VM loss: the VM is reclaimed immediately via
  ``on_kill`` (e.g. ``ElasticityController.handle_vm_failure``).
* ``"provision-delay"`` — a cloud brown-out: provisioning latency is scaled
  by ``multiplier`` for ``duration_s`` seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from repro.sim import KeyedStream, Simulator, keyed_seed
from repro.cluster.cloud import SPOT, CloudProvider, Cluster
from repro.cluster.vm import VirtualMachine

EVICT = "evict"
KILL = "kill"
PROVISION_DELAY = "provision-delay"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``vm_id`` pins an explicit target; when ``None`` the injector picks a
    keyed-random eligible VM at fire time (so schedules compose with fleets
    whose membership is not known up front).
    """

    at_s: float
    kind: str
    vm_id: Optional[str] = None
    notice_s: float = 120.0
    duration_s: float = 0.0
    multiplier: float = 1.0


@dataclass
class FaultRecord:
    """Outcome of one armed fault event."""

    index: int
    event: FaultEvent
    vm_id: Optional[str] = None
    fired_at: Optional[float] = None
    deadline: Optional[float] = None
    killed_at: Optional[float] = None
    #: "pending" -> "killed" | "evaded" | "no-target" | "applied"
    outcome: str = "pending"


class ChaosSchedule:
    """An ordered, declarative list of fault events."""

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.at_s)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def eviction_storm(
        cls,
        count: int,
        start_s: float,
        spacing_s: float = 60.0,
        notice_s: float = 120.0,
        jitter_s: float = 0.0,
        seed: int = 0,
        kind: str = EVICT,
    ) -> "ChaosSchedule":
        """A burst of ``count`` evictions starting at ``start_s``.

        Events are ``spacing_s`` apart plus a keyed uniform jitter of up to
        ``jitter_s``; pass ``kind="kill"`` for a zero-notice storm.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        events = []
        for i in range(count):
            at = start_s + i * spacing_s
            if jitter_s > 0:
                at += KeyedStream(keyed_seed(seed, "chaos-storm", i)).uniform(0.0, jitter_s)
            events.append(FaultEvent(at_s=at, kind=kind, notice_s=notice_s))
        return cls(events)


class FaultInjector:
    """Arms fault events on the kernel and tears down their targets.

    ``on_notice(vm_id, deadline_s)`` is called when an eviction notice fires;
    ``on_kill(vm_id, kind)`` when a VM is actually reclaimed (zero-notice
    kill, or an eviction whose deadline passed with the VM still present).
    ``on_kill`` owns the teardown — typically
    ``ElasticityController.handle_vm_failure``, which fails the runtime's
    executors, finalizes billing, and starts recovery.  Without a handler the
    injector only tears down *empty* VMs and fails loudly otherwise.

    Targets are drawn from cluster VMs whose ``tags["market"]`` is in
    ``target_markets`` and whose ``tags["role"]`` is not in ``exclude_roles``
    (the util VM hosting sources/sinks/Redis is off-limits by default, as in
    the paper's setup where D3 infrastructure VMs are on-demand).
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        provider: CloudProvider,
        seed: int = 0,
        on_notice: Optional[Callable[[str, float], None]] = None,
        on_kill: Optional[Callable[[str, str], None]] = None,
        target_markets: Sequence[str] = (SPOT,),
        exclude_roles: Sequence[str] = ("util",),
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.provider = provider
        self.seed = seed
        self.on_notice = on_notice
        self.on_kill = on_kill
        self.target_markets = tuple(target_markets)
        self.exclude_roles = tuple(exclude_roles)
        self.records: List[FaultRecord] = []
        self._doomed: set = set()

    # ---------------------------------------------------------------- arming
    def arm(self, schedule: ChaosSchedule) -> List[FaultRecord]:
        """Schedule every event in the given schedule; returns their records."""
        return [self._arm_event(event) for event in schedule.events]

    def _arm_event(self, event: FaultEvent) -> FaultRecord:
        record = FaultRecord(index=len(self.records), event=event)
        self.records.append(record)
        delay = max(0.0, event.at_s - self.sim.now)
        # Cancellable timers (not schedule_fast): they must be visible to
        # Simulator.next_timer_time() so batched cascades stop at each fault.
        self.sim.schedule(delay, self._fire, record)
        return record

    # ---------------------------------------------------------------- firing
    def _eligible_vms(self) -> List[VirtualMachine]:
        vms = []
        for vm in sorted(self.cluster.vms, key=lambda v: v.vm_id):
            if vm.vm_id in self._doomed:
                continue
            if vm.tags.get("role") in self.exclude_roles:
                continue
            if self.target_markets and vm.tags.get("market") not in self.target_markets:
                continue
            vms.append(vm)
        return vms

    def _resolve_target(self, record: FaultRecord) -> Optional[str]:
        event = record.event
        if event.vm_id is not None:
            if event.vm_id in self.cluster and event.vm_id not in self._doomed:
                return event.vm_id
            return None
        eligible = self._eligible_vms()
        if not eligible:
            return None
        u = KeyedStream(keyed_seed(self.seed, "chaos-target", record.index)).random()
        return eligible[min(len(eligible) - 1, int(u * len(eligible)))].vm_id

    def _fire(self, record: FaultRecord) -> None:
        event = record.event
        record.fired_at = self.sim.now
        if event.kind == PROVISION_DELAY:
            self._apply_provision_delay(record)
            return
        vm_id = self._resolve_target(record)
        if vm_id is None:
            record.outcome = "no-target"
            return
        record.vm_id = vm_id
        if event.kind == KILL:
            self._kill(record)
        elif event.kind == EVICT:
            self._doomed.add(vm_id)
            record.deadline = self.sim.now + event.notice_s
            if self.on_notice is not None:
                self.on_notice(vm_id, record.deadline)
            self.sim.schedule(event.notice_s, self._deadline, record)
        else:
            raise ValueError(f"unknown fault kind {event.kind!r}")

    def _deadline(self, record: FaultRecord) -> None:
        self._doomed.discard(record.vm_id)
        if record.vm_id not in self.cluster:
            # The controller drained and released the VM inside the window.
            record.outcome = "evaded"
            return
        self._kill(record)

    def _kill(self, record: FaultRecord) -> None:
        vm_id = record.vm_id
        self._doomed.discard(vm_id)
        if vm_id not in self.cluster:
            record.outcome = "evaded"
            return
        record.outcome = "killed"
        record.killed_at = self.sim.now
        if self.on_kill is not None:
            self.on_kill(vm_id, record.event.kind)
            return
        vm = self.cluster.vm(vm_id)
        if vm.occupied_slots:
            raise RuntimeError(
                f"fault injector has no on_kill handler but VM {vm_id} hosts "
                f"executors; wire on_kill to the controller's handle_vm_failure"
            )
        self.provider.mark_failed(vm)
        self.cluster.remove_vm(vm_id)

    def _apply_provision_delay(self, record: FaultRecord) -> None:
        event = record.event
        record.outcome = "applied"
        model = self.provider.provisioning
        if model is not None:
            self.provider.provisioning = replace(
                model, base_latency_s=model.base_latency_s * event.multiplier
            )
            restore = lambda: setattr(self.provider, "provisioning", model)
        else:
            base = self.provider.provisioning_latency_s
            self.provider.provisioning_latency_s = base * event.multiplier
            restore = lambda: setattr(self.provider, "provisioning_latency_s", base)
        self.sim.schedule(event.duration_s, restore)

    # ------------------------------------------------------------- reporting
    @property
    def killed(self) -> List[FaultRecord]:
        """Records whose VM was actually reclaimed."""
        return [r for r in self.records if r.outcome == "killed"]

    @property
    def evaded(self) -> List[FaultRecord]:
        """Eviction records whose VM was drained and released in time."""
        return [r for r in self.records if r.outcome == "evaded"]
