"""Deterministic fault injection: spot evictions and VM kills.

The chaos layer makes the two ways the paper's VMs are lost -- a spot
eviction with notice and a zero-notice kill -- into first-class simulated
events.  The :class:`FaultInjector` arms a list of :class:`FaultEvent`\\ s on
the kernel as cancellable timers (so the batch stepper's cascade horizon sees
them and disengages around each fault) and resolves targets at fire time.

Every stochastic choice -- a storm's jitter
(:meth:`repro.experiments.elastic.Storm.schedule`), target selection -- is a
keyed draw from ``(seed, channel, key)``, never from shared mutable RNG
state, so a chaos run is bit-reproducible for a given seed regardless of how
the rest of the simulation interleaves.

Fault kinds:

* ``"evict"`` — spot-style eviction: the injector fires a *notice* (delivered
  to ``on_notice``, e.g. ``ElasticityController.handle_eviction_notice``),
  then reclaims the VM ``notice_s`` later **if it is still in the cluster**.
  A controller that drains and releases the VM inside the window evades the
  kill entirely (outcome ``"evaded"``).
* ``"kill"`` — zero-notice VM loss: the VM is reclaimed immediately via
  ``on_kill`` (e.g. ``ElasticityController.handle_vm_failure``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.sim import KeyedStream, Simulator, keyed_seed
from repro.cluster.cloud import SPOT, Cluster
from repro.cluster.vm import VirtualMachine, is_worker_vm

EVICT = "evict"
KILL = "kill"
FAULT_KINDS = (EVICT, KILL)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``vm_id`` pins an explicit target; when ``None`` the injector picks a
    keyed-random eligible VM at fire time (so schedules compose with fleets
    whose membership is not known up front).  An unknown ``kind`` or a
    negative ``at_s`` / ``notice_s`` raises ``ValueError`` here, not when
    the fault fires.
    """

    at_s: float
    kind: str
    vm_id: Optional[str] = None
    notice_s: float = 120.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {list(FAULT_KINDS)}")
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s:g}")
        if self.notice_s < 0:
            raise ValueError(f"notice_s must be >= 0, got {self.notice_s:g}")


@dataclass
class FaultRecord:
    """Outcome of one armed fault event."""

    index: int
    event: FaultEvent
    vm_id: Optional[str] = None
    fired_at: Optional[float] = None
    deadline: Optional[float] = None
    killed_at: Optional[float] = None
    #: "pending" -> "killed" | "evaded" | "no-target"
    outcome: str = "pending"


class FaultInjector:
    """Arms fault events on the kernel and hands their victims to ``on_kill``.

    ``on_notice(vm_id, deadline_s)`` is called when an eviction notice fires;
    ``on_kill(vm_id, kind)`` when a VM is actually reclaimed (zero-notice
    kill, or an eviction whose deadline passed with the VM still present).
    ``on_kill`` owns the teardown -- typically
    ``ElasticityController.handle_vm_failure``, which fails the runtime's
    executors, finalizes billing, and starts recovery.

    Targets are drawn from the cluster's spot VMs; the util VM hosting
    sources, sinks and Redis is off-limits, as the paper's D3 infrastructure
    VMs are on-demand.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        on_kill: Callable[[str, str], None],
        seed: int = 0,
        on_notice: Optional[Callable[[str, float], None]] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.seed = seed
        self.on_notice = on_notice
        self.on_kill = on_kill
        self.records: List[FaultRecord] = []
        self._doomed: set = set()

    # ---------------------------------------------------------------- arming
    def arm(self, events: Iterable[FaultEvent]) -> List[FaultRecord]:
        """Schedule every event, in time order; returns their records."""
        return [self._arm_event(event) for event in sorted(events, key=lambda e: e.at_s)]

    def _arm_event(self, event: FaultEvent) -> FaultRecord:
        record = FaultRecord(index=len(self.records), event=event)
        self.records.append(record)
        delay = max(0.0, event.at_s - self.sim.now)
        # Cancellable timers (not push_fast): they must be visible to
        # Simulator.next_timer_time() so batched cascades stop at each fault.
        self.sim.schedule(delay, self._fire, record)
        return record

    # ---------------------------------------------------------------- firing
    def _eligible_vms(self) -> List[VirtualMachine]:
        return [
            vm for vm in sorted(self.cluster.vms, key=lambda v: v.vm_id)
            if vm.vm_id not in self._doomed
            and is_worker_vm(vm)
            and vm.tags.get("market") == SPOT
        ]

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
        vm_id = self._resolve_target(record)
        if vm_id is None:
            record.outcome = "no-target"
            return
        record.vm_id = vm_id
        if event.kind == KILL:
            self._kill(record)
            return
        self._doomed.add(vm_id)
        record.deadline = self.sim.now + event.notice_s
        if self.on_notice is not None:
            self.on_notice(vm_id, record.deadline)
        self.sim.schedule(event.notice_s, self._deadline, record)

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
        self.on_kill(vm_id, record.event.kind)

    # ------------------------------------------------------------- reporting
    @property
    def killed(self) -> List[FaultRecord]:
        """Records whose VM was actually reclaimed."""
        return [r for r in self.records if r.outcome == "killed"]

    @property
    def evaded(self) -> List[FaultRecord]:
        """Eviction records whose VM was drained and released in time."""
        return [r for r in self.records if r.outcome == "evaded"]
