"""Executors: the runtime instances of dataflow tasks.

One executor corresponds to one Storm executor (task instance) running in one
resource slot.  Its behaviour mirrors the paper's description of the modified
``StatefulBoltExecutor``:

* a **single-threaded input queue** -- events (data and checkpoint control
  events alike) are processed strictly in arrival order;
* **platform logic** wraps the user logic and handles checkpoint control
  events: PREPARE snapshots the user state (and, for CCR, enables *capture
  mode*), COMMIT persists the snapshot (plus the captured pending events) to
  the state store, INIT restores it;
* **capture mode** (CCR): once the broadcast PREPARE has been processed, data
  events are appended to a pending-event list instead of being processed, and
  nothing is emitted downstream, until INIT or a kill ends it.  A
  PREPARE starts it only when it came over the hub-and-spoke channel (its
  ``capture`` flag): a sequential wave, a periodic checkpoint's included,
  leaves the task emitting;
* **barrier alignment** for sequential control waves: a task with multiple
  upstream tasks acts on a control event only once it has received a copy from
  every upstream executor instance, which is what guarantees the drain
  semantics of DCR (the PREPARE is the rearguard behind all in-flight data on
  every input channel);
* after a restart (migration), the executor is *uninitialized*: data events
  are buffered until the INIT event restores its state (and, for CCR, replays
  the captured pending events).

Sources and sinks are specializations: the source generates the input stream
at a fixed rate, can be paused/unpaused (buffering a backlog while paused),
caches emitted roots for replay when acking is enabled; the sink records every
received event in the run's event log.
"""

from __future__ import annotations

import copy
from collections import deque
from enum import Enum
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.dataflow.event import CheckpointAction, Event, EventKind, root_event_id, source_id_key
from repro.dataflow.task import SinkTask, SourceTask, Task
from repro.reliability.statestore import checkpoint_key
from repro.sim.kernel import Timer, checked_delay

if TYPE_CHECKING:  # the runtime module imports this one
    from repro.engine.runtime import TopologyRuntime


#: Virtual sender id used for control events injected by the checkpoint source.
CHECKPOINT_SOURCE_ID = "$checkpoint-source"
#: Virtual sender id used for events restored from a checkpoint (CCR replay).
RESTORED_SENDER_ID = "$restored"

#: Enum members bound as module constants: the hot paths below read them once
#: per event, and a module-global load is cheaper than global + attribute.
_DATA = EventKind.DATA
_CHECKPOINT = EventKind.CHECKPOINT


class ExecutorStatus(Enum):
    """Lifecycle status of an executor."""

    #: Created but not yet running (worker still starting); deliveries are dropped.
    STARTING = "starting"
    #: Running and accepting events.
    RUNNING = "running"
    #: Killed by a rebalance; deliveries are dropped until restarted.
    KILLED = "killed"


_RUNNING = ExecutorStatus.RUNNING


class Executor:
    """Runtime instance of one task (one slot's worth of work).

    Slotted: executor fields are read several times per simulated event, so
    slot storage (instead of an instance dict) is a measurable win across a
    full experiment matrix.
    """

    __slots__ = (
        "executor_id",
        "task",
        "instance_index",
        "runtime",
        "sim",
        "slot_id",
        "vm_id",
        "status",
        "initialized",
        "input_queue",
        "pre_init_buffer",
        "state",
        "capture_mode",
        "pending_events",
        "_prepared",
        "_busy",
        "_control_seen",
        "_control_acted",
        "processed_count",
        "captured_count",
        "restored_count",
        "busy_time_s",
        "_service_time",
        "_handling_time",
    )

    def __init__(self, executor_id: str, task: Task, instance_index: int, runtime: "TopologyRuntime") -> None:
        self.executor_id = executor_id
        self.task = task
        self.instance_index = instance_index
        self.runtime = runtime
        self.sim = runtime.sim

        self.slot_id: Optional[str] = None
        self.vm_id: Optional[str] = None

        self.status = ExecutorStatus.STARTING
        #: Whether the task has been initialized (true at first deployment;
        #: false after a restart until an INIT event restores it).
        self.initialized = True

        self.input_queue: Deque[Tuple[Event, str]] = deque()
        self.pre_init_buffer: Deque[Tuple[Event, str]] = deque()
        self.state: Dict[str, Any] = dict(task.initial_state())

        self.capture_mode = False
        self.pending_events: List[Event] = []
        self._prepared: Dict[int, Dict[str, Any]] = {}

        self._busy = False
        self._control_seen: Dict[Tuple[int, str], Set[str]] = {}
        self._control_acted: Set[Tuple[int, str]] = set()

        self.processed_count = 0
        self.captured_count = 0
        self.restored_count = 0
        #: Cumulative seconds spent servicing data events.  Together with
        #: ``processed_count`` this yields the task's *measured* service rate
        #: (ev/s per busy instance), which the elastic monitor feeds back into
        #: capacity planning.
        self.busy_time_s = 0.0
        # Service and control-handling times for the unchecked push_fast (the
        # task checked its latency; timing is set by assignment: checked here).
        self._service_time = task.latency_s
        self._handling_time = checked_delay(runtime.timing.checkpoint_handling_s, "checkpoint_handling_s")

    # ------------------------------------------------------------ placement
    def place(self, slot_id: str, vm_id: str) -> None:
        """Record the slot/VM this executor currently occupies."""
        self.slot_id = slot_id
        self.vm_id = vm_id

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Transition to RUNNING (initial deployment)."""
        self.status = ExecutorStatus.RUNNING
        self.runtime.log.record_lifecycle(self.executor_id, "running")
        self._maybe_process()

    def kill(self) -> Tuple[int, int]:
        """Kill the executor, dropping queued and captured events.

        Returns ``(queued_lost, pending_lost)``.  Anything in the input queue,
        the pre-init buffer, or the in-memory pending list is lost (that is
        precisely the in-flight message loss DSM suffers); state persisted to
        the state store survives.
        """
        queued_lost = sum(1 for event, _ in self.input_queue if event.is_data)
        queued_lost += sum(1 for event, _ in self.pre_init_buffer if event.is_data)
        pending_lost = len(self.pending_events)
        self.input_queue.clear()
        self.pre_init_buffer.clear()
        self.pending_events = []
        self.capture_mode = False
        self._prepared.clear()
        self._busy = False
        self.status = ExecutorStatus.KILLED
        self.initialized = False
        self.runtime.log.record_kill(self.executor_id, queued_lost, pending_lost)
        self.runtime.log.record_lifecycle(self.executor_id, "killed")
        return queued_lost, pending_lost

    def become_ready(self) -> None:
        """Worker restart finished: start accepting events again (uninitialized)."""
        if self.status is ExecutorStatus.RUNNING:
            return
        self.state = dict(self.task.initial_state())
        self.input_queue.clear()
        self.pre_init_buffer.clear()
        self.pending_events = []
        self.capture_mode = False
        self._busy = False
        self.status = ExecutorStatus.RUNNING
        self.initialized = False
        self.runtime.log.record_lifecycle(self.executor_id, "ready")

    @property
    def queue_length(self) -> int:
        """Number of events waiting in the input queue."""
        return len(self.input_queue)

    # -------------------------------------------------------------- delivery
    def deliver(self, event: Event, sender_id: str) -> bool:
        """Accept an event; the kernel callback of every channel into this executor.

        Returns False when the event could not be accepted, after reporting
        the refusal to the runtime (dropped or held for the restart).
        """
        if self.status is not _RUNNING:
            return self._refuse(event, sender_id)
        if not self.initialized and event.kind is _DATA:
            # Stateful-bolt semantics: data received before initialization is
            # buffered and handled once the INIT event restores the task.
            self.pre_init_buffer.append((event, sender_id))
            return True
        if self._busy or self.input_queue:
            self.input_queue.append((event, sender_id))
            return True
        if event.kind is _DATA and not self.capture_mode:
            # Idle, plain data: the event would be appended and immediately
            # popped by _maybe_process in the same tick (unobservably), so
            # start service directly and skip the queue round-trip.
            self._busy = True
            sim = self.sim
            sim.push_fast(sim.now + self._service_time, self._complete_data, (event,))
        else:
            self.input_queue.append((event, sender_id))
            self._maybe_process()
        return True

    def _refuse(self, event: Event, sender_id: str) -> bool:
        """Hand a delivery this executor cannot accept to the runtime; False.

        A delivery on the heap holds this executor's bound ``deliver``, and a
        rescale may retire the executor (or retire it and spawn a successor
        with its id) while the delivery is in flight: whatever owns the id at
        the delivery time decides, so a retired executor re-delivers by id.
        """
        runtime = self.runtime
        if runtime.executors.get(self.executor_id) is self:
            runtime._undeliverable(self, event, sender_id)
        else:
            runtime.deliver(self.executor_id, event, sender_id)
        return False

    # ------------------------------------------------------------ processing
    def _maybe_process(self) -> None:
        # Service completions and control handling are never cancelled, so they
        # ride the kernel's fire-and-forget fast path (no Timer allocation).
        if self._busy or self.status is not _RUNNING or not self.input_queue:
            return
        event, sender_id = self.input_queue.popleft()
        self._busy = True
        sim = self.sim
        if event.kind is _CHECKPOINT:
            sim.push_fast(sim.now + self._handling_time, self._handle_control, (event, sender_id))
        elif self.capture_mode:
            # Capture without processing: the event joins the pending list that
            # will be persisted with the next COMMIT (CCR).
            self.pending_events.append(event)
            self.captured_count += 1
            self._busy = False
            # Scheduled (not elided): tie-breaking order is part of
            # reproducibility.
            sim.push_fast(sim.now, self._maybe_process, ())
        else:
            sim.push_fast(sim.now + self._service_time, self._complete_data, (event,))

    def _complete_data(self, event: Event) -> None:
        if self.status is not _RUNNING:
            self._busy = False
            return
        runtime = self.runtime
        task = self.task
        outputs = task.logic(event.payload, self.state)
        # Capture the ack identity up front: the router owns routed events and
        # re-stamps the reused object with its delivery's id (see
        # Router.route_one).
        acked = event.anchored and event.kind is _DATA and runtime.ack_data_events
        if acked:
            ack_root_id = event.root_id
            ack_event_id = event.event_id
        if outputs:
            if len(outputs) != 1:
                raise ValueError(
                    f"task {task.name!r}: a service emits at most one output, "
                    f"its logic returned {len(outputs)}"
                )
            # Mutate the processed event into its output instead of
            # allocating one.  It keeps the processed event's id until the
            # router steps it onto a channel.
            payload = outputs[0]
            event.source_task = task.name
            if payload is not None:
                event.payload = payload
            event.created_at = self.sim.now
            if self.capture_mode:
                # The event that was being executed when PREPARE arrived: its
                # output is captured rather than emitted downstream (CCR).
                self.pending_events.append(event)
                self.captured_count += 1
            else:
                runtime.router.route_one(self.executor_id, task.name, event)
        if acked:
            runtime.acker.ack(ack_root_id, ack_event_id)
        self.processed_count += 1
        self.busy_time_s += self._service_time
        queue = self.input_queue
        if queue and queue[0][0].kind is _DATA and not self.capture_mode:
            # Plain data at the queue head: start its service here, staying
            # busy, exactly as _maybe_process would.
            sim = self.sim
            sim.push_fast(
                sim.now + self._service_time, self._complete_data, (queue.popleft()[0],)
            )
        else:
            self._busy = False
            if queue:
                self._maybe_process()

    # --------------------------------------------------------- control events
    def _handle_control(self, event: Event, sender_id: str) -> None:
        action = event.checkpoint_action
        checkpoint_id = event.checkpoint_id
        meta = event.payload or {}
        forward = bool(meta.get("forward", True))
        key = (checkpoint_id, action.value)

        seen = self._control_seen.setdefault(key, set())
        seen.add(sender_id)
        acted = key in self._control_acted

        if acted:
            # Duplicate (e.g. re-sent INIT): still forward and re-ack so lost
            # downstream copies are eventually recovered, but do not act again.
            if forward:
                self.runtime.forward_control(self, event)
            self.runtime.control_ack(self, event)
            self._finish_control()
            return

        if forward:
            expected = self.runtime.expected_control_senders(self)
            barrier_met = expected.issubset(seen)
        else:
            barrier_met = True

        if not barrier_met:
            # Wait for copies from the remaining upstream instances before acting.
            self._finish_control()
            return

        self._control_acted.add(key)
        if action is CheckpointAction.PREPARE:
            self._do_prepare(event, meta, forward)
        elif action is CheckpointAction.COMMIT:
            self._do_commit(event, meta, forward)
        else:
            self._do_init(event, meta, forward)

    def _do_prepare(self, event: Event, meta: Dict[str, Any], forward: bool) -> None:
        snapshot = copy.deepcopy(self.state) if self.task.stateful else {}
        self._prepared[event.checkpoint_id] = snapshot
        if meta.get("capture", False):
            self.capture_mode = True
        if forward:
            self.runtime.forward_control(self, event)
        self.runtime.control_ack(self, event)
        self._finish_control()

    def _do_commit(self, event: Event, meta: Dict[str, Any], forward: bool) -> None:
        checkpoint_id = event.checkpoint_id
        snapshot = self._prepared.pop(checkpoint_id, None)
        if snapshot is None:
            snapshot = copy.deepcopy(self.state) if self.task.stateful else {}
        pending = list(self.pending_events) if self.capture_mode else []
        value = {"state": snapshot, "pending": pending, "checkpoint_id": checkpoint_id}
        size = self.runtime.statestore.checkpoint_size_bytes(self.task.state_size_bytes, len(pending))

        def _persisted() -> None:
            if forward:
                self.runtime.forward_control(self, event)
            self.runtime.control_ack(self, event)
            self._finish_control()

        self.runtime.statestore.put(self._checkpoint_key(), value, size, on_complete=_persisted)

    def _do_init(self, event: Event, meta: Dict[str, Any], forward: bool) -> None:
        def _restored(value: Optional[Dict[str, Any]]) -> None:
            restored_pending: List[Event] = []
            if value:
                if self.task.stateful and value.get("state") is not None:
                    self.state = copy.deepcopy(value["state"])
                restored_pending = list(value.get("pending") or [])
            self.capture_mode = False
            self.pending_events = []
            buffered = list(self.pre_init_buffer)
            self.pre_init_buffer.clear()
            self.initialized = True
            self.restored_count += 1
            for restored_event in restored_pending:
                self.input_queue.append((restored_event, RESTORED_SENDER_ID))
            for buffered_event, buffered_sender in buffered:
                self.input_queue.append((buffered_event, buffered_sender))
            self.runtime.log.record_lifecycle(self.executor_id, "initialized")
            if forward:
                self.runtime.forward_control(self, event)
            self.runtime.control_ack(self, event)
            self._finish_control()

        self.runtime.statestore.get(self._checkpoint_key(), on_complete=_restored)

    def _finish_control(self) -> None:
        self._busy = False
        if self.input_queue:
            self._maybe_process()

    def _checkpoint_key(self) -> str:
        return checkpoint_key(self.runtime.dataflow.name, self.executor_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Executor({self.executor_id}, {self.status.value}, "
            f"queue={len(self.input_queue)}, init={self.initialized})"
        )


class SourceExecutor(Executor):
    """Source task instance: generates the input stream at a (possibly dynamic) rate.

    The emission rate is either fixed (``task.rate``, the paper's 8 ev/s) or
    follows a :class:`~repro.workloads.profiles.RateProfile` over simulated
    time: the emit timer is re-armed after every tick using the profile's
    current rate, so step changes, ramps and bursts take effect within one
    inter-event gap.

    While paused, generated events accumulate in a backlog that is drained at
    the configured burst rate once the source is unpaused (this is the input
    rate peak visible in the paper's Fig. 7 for DCR and CCR).  When acking is
    enabled the source caches emitted payloads and replays roots whose causal
    trees fail (DSM's recovery path); replays are also rate-limited by the
    burst rate.
    """

    __slots__ = (
        "profile",
        "rate",
        "paused",
        "_sequence",
        "_backlog",
        "_replay_queue",
        "_cache",
        "_replay_counts",
        "_emit_timer",
        "_drain_timer",
        "_drain_period",
        "_drain_next",
        "_stopped",
        "emitted_count",
        "replayed_count",
        "skipped_ticks",
        "drain_parks",
        "drain_wakes",
        "id_key",
    )

    def __init__(self, executor_id: str, task: SourceTask, instance_index: int, runtime: "TopologyRuntime") -> None:
        super().__init__(executor_id, task, instance_index, runtime)
        self.profile = getattr(task, "profile", None)
        self.rate = float(task.rate)
        self.paused = False
        self._sequence = 0
        self._backlog: Deque[Any] = deque()
        self._replay_queue: Deque[int] = deque()
        self._cache: Dict[int, Any] = {}
        self._replay_counts: Dict[int, int] = {}
        self._emit_timer = None
        self._drain_timer = None
        #: Parked drain chain (see _drain_tick): the grid point its next poll
        #: would have fired at and its period; ``_drain_next`` is ``None``
        #: while the chain is live or absent.
        self._drain_next: Optional[float] = None
        self._drain_period = 0.0
        self._stopped = False
        self.emitted_count = 0
        self.replayed_count = 0
        self.skipped_ticks = 0
        #: Times the drain chain parked on a throttled poll / was re-armed.
        self.drain_parks = 0
        self.drain_wakes = 0
        #: Key of this source's root ids: the ``emitted_count``-th first
        #: emission is root ``root_event_id(id_key, emitted_count)``.
        self.id_key = source_id_key(runtime.config.seed, runtime.dataflow.name, executor_id)

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        super().start()
        if self._emit_timer is None:
            self._arm_emit_timer()

    def kill(self) -> Tuple[int, int]:
        # The next poll would see the status change and retire the chain.
        self._wake_drain()
        return super().kill()

    def stop(self) -> None:
        """Stop generating events entirely (end of experiment).

        Cancels the emit timer *and* any live drain timer: a drain timer left
        running would keep emitting backlog and replays after the experiment
        ends.
        """
        self._stopped = True
        if self._emit_timer is not None:
            self._emit_timer.cancel()
            self._emit_timer = None
        self._stop_drain_timer()

    # ------------------------------------------------------------ rate control
    @property
    def current_rate(self) -> float:
        """Instantaneous generation rate (profile-driven or fixed)."""
        if self.profile is not None:
            return float(self.profile.rate_at(self.sim.now))
        return self.rate

    def _arm_emit_timer(self) -> None:
        """(Re)schedule the next generation tick from the current rate.

        A non-positive profile rate idles the generator; it re-checks the
        profile every ``timing.source_idle_recheck_s`` so a later non-zero
        rate resumes emission.
        """
        if self._emit_timer is not None:
            self._emit_timer.cancel()
            self._emit_timer = None
        if self._stopped:
            return
        rate = self.current_rate
        if rate <= 0:
            self._emit_timer = self.sim.schedule(
                self.runtime.timing.source_idle_recheck_s, self._arm_emit_timer
            )
            return
        self.rate = rate
        if self._drain_next is not None and rate >= self.runtime.timing.source_max_burst_rate:
            self._wake_drain()  # see _drain_tick: no parking at or above the burst rate
        self._emit_timer = self.sim.schedule(1.0 / rate, self._emit_tick)

    def _emit_tick(self) -> None:
        self._emit_timer = None
        stepper = self.runtime.batch_stepper
        if stepper is not None and stepper.try_cascade(self):
            # The cascade emitted this tick (and possibly many more) inline
            # and re-armed the emit timer itself.
            return
        self._tick()
        self._arm_emit_timer()

    # ---------------------------------------------------------------- pausing
    def pause(self) -> None:
        """Stop emitting; generated events accumulate in the backlog."""
        self.paused = True
        # The next poll would see the pause and retire the chain -- unless an
        # unpause lands first, which then finds the chain still on its grid.
        self._wake_drain()
        self.runtime.log.record_lifecycle(self.executor_id, "paused")

    def unpause(self) -> None:
        """Resume emitting and start draining the backlog at the burst rate."""
        if not self.paused:
            return
        self.paused = False
        self.runtime.log.record_lifecycle(self.executor_id, "unpaused")
        self._ensure_drain_timer()

    @property
    def backlog_size(self) -> int:
        """Number of generated-but-unemitted events waiting in the backlog."""
        return len(self._backlog)

    # -------------------------------------------------------------- emission
    def _payload(self, sequence: int) -> Any:
        factory = getattr(self.task, "payload_factory", None)
        if factory is not None:
            return factory(sequence)
        return {"seq": sequence, "source": self.task.name}

    def _throttled(self) -> bool:
        """Storm's max.spout.pending: stop emitting while too many roots are unacked."""
        if not self.runtime.ack_data_events:
            return False
        limit = self.runtime.reliability.max_spout_pending
        if limit is None:
            return False
        return self.runtime.acker.pending_count >= limit

    def cache_block(self, root_ids: Sequence[int], payloads: Sequence[Any]) -> None:
        """Cache many root payloads for replay in one call (batched spout accounting).

        Mirrors the per-emit ``self._cache[root_id] = payload`` bookkeeping in
        :meth:`_emit_new` for roots the batch cascade registered in bulk."""
        cache = self._cache
        for root_id, payload in zip(root_ids, payloads):
            cache[int(root_id)] = payload

    def _tick(self) -> None:
        self._sequence += 1
        payload = self._payload(self._sequence)
        if self.paused or self.status is not ExecutorStatus.RUNNING:
            self._backlog.append(payload)
            return
        if self._throttled():
            # Storm's max.spout.pending: nextTuple is simply not called, so the
            # synthetic generator produces nothing for this tick (unless
            # configured to defer the tick into the backlog instead).
            if self.runtime.reliability.throttled_ticks_generate_backlog:
                self._backlog.append(payload)
            else:
                self.skipped_ticks += 1
            self._ensure_drain_timer()
            return
        if self._backlog or self._replay_queue:
            # Preserve ordering: new events queue behind any pending backlog.
            self._backlog.append(payload)
            self._ensure_drain_timer()
            return
        self._emit_new(payload)

    def _emit_new(self, payload: Any, from_backlog: bool = False) -> None:
        event = Event.data(
            self.task.name,
            root_event_id(self.id_key, self.emitted_count),
            payload=payload,
            created_at=self.sim.now,
            anchored=self.runtime.ack_data_events,
        )
        if self.runtime.ack_data_events:
            self.runtime.acker.register(event.root_id)
            self._cache[event.root_id] = payload
        self.emitted_count += 1
        self.runtime.log.record_source_emit(event.root_id, self.task.name, replay_count=0, from_backlog=from_backlog)
        self.runtime.router.route_one(self.executor_id, self.task.name, event)

    def _emit_replay(self, root_id: int) -> None:
        payload = self._cache.get(root_id)
        if payload is None:
            return
        replay_count = self._replay_counts.get(root_id, 0) + 1
        self._replay_counts[root_id] = replay_count
        event = Event.data(
            self.task.name,
            root_id,
            payload=payload,
            created_at=self.sim.now,
            root_emitted_at=self.sim.now,
            replay_count=replay_count,
            anchored=self.runtime.ack_data_events,
        )
        if self.runtime.ack_data_events:
            self.runtime.acker.register(root_id)
        self.replayed_count += 1
        self.runtime.log.record_source_emit(root_id, self.task.name, replay_count=replay_count, from_backlog=False)
        self.runtime.router.route_one(self.executor_id, self.task.name, event)

    # --------------------------------------------------------------- replays
    def replay(self, root_id: int) -> None:
        """Queue a failed root for re-emission (rate-limited by the burst rate)."""
        # Every source hears every failed tree (pending just fell), whether or
        # not the root is its own.
        self._wake_drain()
        if root_id not in self._cache:
            return
        if self.paused or self.status is not ExecutorStatus.RUNNING:
            self._replay_queue.append(root_id)
            return
        self._replay_queue.append(root_id)
        self._ensure_drain_timer()

    def tree_completed(self, root_id: int) -> None:
        """Drop the cached payload of a successfully processed root."""
        self._wake_drain()
        self._cache.pop(root_id, None)
        self._replay_counts.pop(root_id, None)

    # ------------------------------------------------------------- drain loop
    # The drain chain is a periodic timer on a fixed grid: armed at ``t0`` it
    # polls at ``t0 + p``, ``(t0 + p) + p``, ... and emits one replay or
    # backlog entry per poll.  A poll that finds the spout throttled does
    # nothing, and it keeps finding it throttled until a tree completes or
    # fails -- the only two ways the acker's pending count falls.  So such a
    # poll *parks* the chain (no timer in the heap, the next grid point
    # remembered) and ``tree_completed`` / ``replay`` re-arm it at the first
    # grid point at or after the wake, the grid advanced by the same
    # sequential float adds the timer chain performs: every poll that can do
    # anything fires at the bit-identical time, only the no-op polls are gone.
    # ``pause`` / ``kill`` change what the next poll would do, so they re-arm
    # it too and let that poll retire the chain exactly as it always did.
    #
    # One regime keeps polling: a spout generating at or above its burst rate.
    # There the emit chain runs on the drain chain's own period, an emit tick
    # can tie with a poll it was scheduled *after*, and which of the two runs
    # first is decided by the heap sequence number the poll drew one period
    # earlier -- which a re-armed poll cannot reproduce.  Below the burst rate
    # every emit tick that ties with a poll was scheduled more than one drain
    # period before it, so it precedes the poll in both schemes.
    def _ensure_drain_timer(self) -> None:
        if self._drain_next is not None:
            return  # parked: the chain exists, its polls are just not scheduled
        if self._drain_timer is not None and self._drain_timer.active:
            return
        period = 1.0 / max(self.rate, self.runtime.timing.source_max_burst_rate)
        self._drain_timer = self.sim.every(period, self._drain_tick)

    def _drain_tick(self) -> None:
        if self.paused or self.status is not ExecutorStatus.RUNNING:
            self._stop_drain_timer()
            return
        if self._throttled():
            # Emission resumes once pending acks drain: park until then.
            if (
                self._emit_timer is not None
                and self.rate >= self.runtime.timing.source_max_burst_rate
            ):
                return  # emit ticks share this chain's period: keep their tie order
            timer = self._drain_timer
            timer.cancel()
            self._drain_timer = None
            self._drain_period = timer.period
            self._drain_next = self.sim.now + timer.period
            self.drain_parks += 1
            return
        if self._replay_queue:
            self._emit_replay(self._replay_queue.popleft())
            return
        if self._backlog:
            self._emit_new(self._backlog.popleft(), from_backlog=True)
            return
        self._stop_drain_timer()

    def _wake_drain(self) -> None:
        """Re-arm a parked drain chain at its first grid point at or after now."""
        grid = self._drain_next
        if grid is None:
            return
        period = self._drain_period
        now = self.sim.now
        while grid < now:
            grid += period
        self._drain_next = None
        self._drain_timer = self.sim.every(period, self._drain_tick, start_at=grid)
        self.drain_wakes += 1

    def _stop_drain_timer(self) -> None:
        self._drain_next = None
        if self._drain_timer is not None:
            self._drain_timer.cancel()
            self._drain_timer = None

    # The batch cascade sweeps a window the chain polls in: it takes the chain
    # over (its grid, not its timer), works out the polls itself and hands
    # back where the per-event path would have left it at the window's end.
    @property
    def drain_poll(self) -> Optional[Timer]:
        """The kernel timer of a live chain's next poll (``None``: parked or absent)."""
        timer = self._drain_timer
        return timer.pending if timer is not None and timer.active else None

    @property
    def draining(self) -> bool:
        """Whether a backlog or a drain chain (live or parked) is left."""
        return bool(self._backlog) or self._drain_next is not None or self.drain_poll is not None

    def yield_drain(self) -> Optional[Tuple[float, float, bool]]:
        """Hand the chain over: ``(next poll, period, parked)``, ``None`` without
        one.  The source has no chain until :meth:`resume_drain`."""
        poll = self.drain_poll
        if poll is not None:
            chain = (poll.time, self._drain_timer.period, False)
        elif self._drain_next is not None:
            chain = (self._drain_next, self._drain_period, True)
        else:
            return None
        self._stop_drain_timer()
        return chain

    def resume_drain(self, chain: Optional[Tuple[float, float, bool]], parks: int, wakes: int) -> None:
        """Take back the chain :meth:`yield_drain` gave, as ``parks`` parked and
        ``wakes`` re-armed polls later left it."""
        self.drain_parks += parks
        self.drain_wakes += wakes
        if chain is None:
            return
        poll, period, parked = chain
        if parked:
            self._drain_next, self._drain_period = poll, period
        else:
            self._drain_timer = self.sim.every(period, self._drain_tick, start_at=poll)


class SinkExecutor(Executor):
    """Sink task instance: records every received event in the event log.

    **Inline service**: a sink emits nothing downstream and its service time
    is 0 s (:class:`~repro.dataflow.task.SinkTask`), so a running,
    initialized sink completes every data event inside :meth:`deliver` --
    receipt and ack at the delivery time -- and never queues one.  No
    control event is sent to a sink (waves target user tasks only) and the
    util VM that hosts the sinks is never killed or migrated, so nothing
    else occupies a sink between deliveries.  A non-running sink refuses the
    delivery and an uninitialized one buffers it, as every executor does.
    """

    __slots__ = ("received_count", "inline_completions")

    def __init__(self, executor_id: str, task: SinkTask, instance_index: int, runtime: "TopologyRuntime") -> None:
        super().__init__(executor_id, task, instance_index, runtime)
        self.received_count = 0
        #: Data events completed inside deliver() (no kernel event each).
        self.inline_completions = 0

    def deliver(self, event: Event, sender_id: str) -> bool:
        if event.kind is not _DATA or self.status is not _RUNNING or not self.initialized:
            return super().deliver(event, sender_id)
        self.inline_completions += 1
        self.received_count += 1
        self.runtime.log.record_sink_receipt(
            root_id=event.root_id,
            event_id=event.event_id,
            sink=self.task.name,
            root_emitted_at=event.root_emitted_at,
            replay_count=event.replay_count,
        )
        self.processed_count += 1
        self.runtime.ack_processed(event)
        return True
