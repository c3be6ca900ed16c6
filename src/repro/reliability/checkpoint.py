"""Checkpoint coordination: PREPARE / COMMIT / INIT waves.

Storm's state management drives a three-phase checkpoint through the dataflow
from a special *checkpoint source task*.  The coordinator here plays that
role: it emits control-event waves (either **sequentially** along the dataflow
edges, or **broadcast** directly to every task instance as CCR's modified
``TopologyBuilder`` wiring does), tracks per-executor acknowledgments, and
invokes completion callbacks that the migration strategies chain into their
protocols.

It owns every wave from open to close: whom a wave targets and expects, what
chains after it (PREPARE → COMMIT), and which periodic checkpoint is open.
The migration strategies and the elastic controller only ask for a wave or a
checkpoint.  The coordinator is engine-agnostic: the runtime hands it two
callables at construction, one that injects a wave's control events into the
dataflow and one that reports which executors are expected to acknowledge a
wave that names no targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.dataflow.event import CheckpointAction
from repro.sim import PeriodicTimer, Simulator


class WaveMode(Enum):
    """How a checkpoint wave's control events reach the tasks."""

    #: Events are injected at the entry tasks and forwarded along dataflow
    #: edges, guaranteeing they are the last event behind all in-flight data
    #: (used by DCR for all actions, and by CCR for COMMIT).
    SEQUENTIAL = "sequential"
    #: Events are placed directly at the end of every task instance's input
    #: queue via the hub-and-spoke checkpoint channel (used by CCR for
    #: PREPARE and INIT).
    BROADCAST = "broadcast"


class WaveStatus(Enum):
    """Lifecycle of a checkpoint wave."""

    IN_PROGRESS = "in_progress"
    COMPLETE = "complete"


#: The runtime's emitter: inject a wave's control events into the dataflow.
WaveEmitter = Callable[["CheckpointWave"], None]
#: Provider of the executor ids expected to acknowledge an untargeted wave.
ExpectedProvider = Callable[[], Set[str]]


@dataclass
class CheckpointWave:
    """Tracking state for one wave of one action."""

    checkpoint_id: int
    action: CheckpointAction
    mode: WaveMode
    expected: Set[str]
    started_at: float
    #: The only executors the wave is emitted to (a recovery's restricted
    #: broadcast INIT); ``None``: the entry tasks (sequential) or every task
    #: instance (broadcast).
    targets: Optional[Set[str]] = None
    acked: Set[str] = field(default_factory=set)
    status: WaveStatus = WaveStatus.IN_PROGRESS
    completed_at: Optional[float] = None
    emit_count: int = 0
    on_complete: Optional[Callable[["CheckpointWave"], None]] = None
    resend_timer: Optional[PeriodicTimer] = None

    @property
    def complete(self) -> bool:
        """Whether every expected executor has acknowledged the wave."""
        return self.expected.issubset(self.acked)

    @property
    def duration_s(self) -> Optional[float]:
        """Wave duration, if completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def pending(self) -> Set[str]:
        """Executors that have not acknowledged yet."""
        return self.expected - self.acked


class CheckpointCoordinator:
    """Emits checkpoint waves and tracks their acknowledgment.

    The coordinator supports:

    * one-shot waves with an optional re-send timer (DCR/CCR re-emit INIT every
      second; DSM's INIT is re-sent only after the 30 s ack timeout),
    * a full checkpoint (PREPARE followed by COMMIT) used both periodically by
      DSM and just-in-time by DCR/CCR,
    * periodic checkpointing at a fixed interval (Storm's default 30 s): a
      tick is skipped while the previous periodic checkpoint is open, and only
      that checkpoint's own COMMIT closes it.

    :attr:`history` lists the completed waves in completion order.
    """

    def __init__(
        self, sim: Simulator, emitter: WaveEmitter, expected_provider: ExpectedProvider
    ) -> None:
        self.sim = sim
        self._emitter = emitter
        self._expected_provider = expected_provider
        self._waves: Dict[Tuple[int, CheckpointAction], CheckpointWave] = {}
        self._checkpoint_counter = 0
        self._periodic: Optional[PeriodicTimer] = None
        #: Id of the open periodic checkpoint: only its own commit closes it.
        self._periodic_checkpoint: Optional[int] = None
        self.history: List[CheckpointWave] = []

    def _new_checkpoint_id(self) -> int:
        self._checkpoint_counter += 1
        return self._checkpoint_counter

    # ------------------------------------------------------------------ waves
    def start_wave(
        self,
        action: CheckpointAction,
        checkpoint_id: Optional[int] = None,
        mode: WaveMode = WaveMode.SEQUENTIAL,
        on_complete: Optional[Callable[[CheckpointWave], None]] = None,
        resend_interval_s: Optional[float] = None,
        targets: Optional[Set[str]] = None,
    ) -> CheckpointWave:
        """Start a wave of ``action`` control events.

        Parameters
        ----------
        action:
            PREPARE, COMMIT or INIT.
        checkpoint_id:
            Wave id; allocated automatically if omitted.
        mode:
            Sequential (along dataflow edges) or broadcast (hub-and-spoke).
        on_complete:
            Called with the wave once all expected executors have acked.
        resend_interval_s:
            If given, the wave's control events are re-emitted at this period
            until the wave completes.  Executors ignore duplicates but still
            acknowledge them, so lost control events are eventually recovered.
        targets:
            The only executors to emit to, and the only ones expected to ack
            (a recovery restores its victims without rolling survivors back);
            defaults to the runtime-provided set of live user-task executors.
        """
        if checkpoint_id is None:
            checkpoint_id = self._new_checkpoint_id()
        if targets is not None:
            targets = set(targets)
        wave = CheckpointWave(
            checkpoint_id=checkpoint_id,
            action=action,
            mode=mode,
            expected=set(targets if targets is not None else self._expected_provider()),
            started_at=self.sim.now,
            targets=targets,
            on_complete=on_complete,
        )
        self._waves[(checkpoint_id, action)] = wave
        self._emit(wave)
        if resend_interval_s is not None and resend_interval_s > 0:
            wave.resend_timer = self.sim.every(resend_interval_s, self._resend, wave)
        if not wave.expected:
            self._finish(wave)
        return wave

    def _emit(self, wave: CheckpointWave) -> None:
        wave.emit_count += 1
        self._emitter(wave)

    def _resend(self, wave: CheckpointWave) -> None:
        if wave.status is not WaveStatus.IN_PROGRESS:
            return
        self._emit(wave)

    def notify_ack(self, executor_id: str, action: CheckpointAction, checkpoint_id: int) -> None:
        """Record that an executor acknowledged the given wave (idempotent)."""
        wave = self._waves.get((checkpoint_id, action))
        if wave is None or wave.status is not WaveStatus.IN_PROGRESS:
            return
        wave.acked.add(executor_id)
        if wave.complete:
            self._finish(wave)

    def _finish(self, wave: CheckpointWave) -> None:
        if wave.status is not WaveStatus.IN_PROGRESS:
            return
        wave.status = WaveStatus.COMPLETE
        wave.completed_at = self.sim.now
        if wave.resend_timer is not None:
            wave.resend_timer.cancel()
        self.history.append(wave)
        if wave.on_complete is not None:
            wave.on_complete(wave)

    def discard_executors(self, executor_ids: Set[str]) -> None:
        """Remove retired executors from every in-progress wave's expected set.

        A rescale can retire executors while a wave (e.g. a periodic
        checkpoint under DSM) is still collecting acknowledgments; without
        this, the wave would wait forever on an executor that no longer
        exists.  Waves whose remaining expectation is now fully acked are
        completed immediately.
        """
        if not executor_ids:
            return
        for wave in list(self._waves.values()):
            if wave.status is not WaveStatus.IN_PROGRESS:
                continue
            if wave.expected & executor_ids:
                wave.expected -= executor_ids
                if wave.complete:
                    self._finish(wave)

    def wave(self, checkpoint_id: int, action: CheckpointAction) -> Optional[CheckpointWave]:
        """Look up a wave by id and action."""
        return self._waves.get((checkpoint_id, action))

    # ------------------------------------------------------- full checkpoints
    def run_checkpoint(
        self,
        prepare_mode: WaveMode = WaveMode.SEQUENTIAL,
        on_complete: Optional[Callable[[int], None]] = None,
        checkpoint_id: Optional[int] = None,
        on_prepared: Optional[Callable[[CheckpointWave], None]] = None,
    ) -> int:
        """Run a full checkpoint: PREPARE wave, then COMMIT wave.

        Returns the checkpoint id.  ``on_prepared(wave)`` fires when every
        task acknowledged the PREPARE, just before the COMMIT starts.  The
        COMMIT always sweeps sequentially, so it is behind any in-flight user
        event; ``on_complete(checkpoint_id)`` fires once every task
        acknowledged it, i.e. all task states (and, for CCR, captured events)
        are persisted.
        """
        cid = checkpoint_id if checkpoint_id is not None else self._new_checkpoint_id()

        def _committed(_wave: CheckpointWave) -> None:
            if on_complete is not None:
                on_complete(cid)

        def _commit(prepared: CheckpointWave) -> None:
            if on_prepared is not None:
                on_prepared(prepared)
            self.start_wave(CheckpointAction.COMMIT, cid, on_complete=_committed)

        self.start_wave(CheckpointAction.PREPARE, cid, prepare_mode, on_complete=_commit)
        return cid

    # --------------------------------------------------------------- periodic
    def start_periodic(self, interval_s: float = 30.0) -> None:
        """Enable periodic checkpointing (Storm's default behaviour under DSM)."""
        if self._periodic is not None:
            raise RuntimeError("periodic checkpointing is already enabled")
        self._periodic = self.sim.every(interval_s, self._periodic_tick)

    def _periodic_tick(self) -> None:
        if self._periodic_checkpoint is not None:
            return
        self._periodic_checkpoint = self._new_checkpoint_id()
        self.run_checkpoint(checkpoint_id=self._periodic_checkpoint, on_complete=self._periodic_committed)

    def _periodic_committed(self, _checkpoint_id: int) -> None:
        self._periodic_checkpoint = None

