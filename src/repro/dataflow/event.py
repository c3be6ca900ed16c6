"""Events that flow through the dataflow.

Two kinds of events exist:

* **Data events** -- the user stream.  Every data event belongs to a *causal
  tree* rooted at the event emitted by a source task; the root's 64-bit id is
  what the acker service tracks (see :mod:`repro.reliability.acker`).
* **Checkpoint (control) events** -- PREPARE / COMMIT / ROLLBACK / INIT waves
  emitted by the checkpoint coordinator.  These drive Storm's three-phase
  state checkpointing, which the DCR and CCR strategies re-purpose for
  just-in-time checkpoints during migration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional


class EventKind(Enum):
    """Top-level classification of an event."""

    DATA = "data"
    CHECKPOINT = "checkpoint"


class CheckpointAction(Enum):
    """The action carried by a checkpoint control event.

    Mirrors Storm's checkpoint state machine: a PREPARE wave snapshots task
    state, COMMIT persists it to the external store, ROLLBACK aborts a failed
    wave, and INIT restores committed state into (re)started tasks.
    """

    PREPARE = "prepare"
    COMMIT = "commit"
    ROLLBACK = "rollback"
    INIT = "init"


_EVENT_ID_COUNTER = itertools.count(1)


def next_event_id() -> int:
    """Return a fresh, process-unique event id.

    Storm uses random 64-bit ids; a monotonically increasing counter gives the
    same uniqueness guarantees while keeping experiments deterministic.
    """
    return next(_EVENT_ID_COUNTER)


def reserve_event_ids(count: int) -> int:
    """Reserve ``count`` consecutive event ids, returning the first.

    Equivalent to ``count`` :func:`next_event_id` calls (the reserved block is
    ``first .. first + count - 1``).  The vectorized batch cascade stamps
    whole emission/receipt cohorts from one reservation instead of paying a
    counter call per event.
    """
    global _EVENT_ID_COUNTER
    first = next(_EVENT_ID_COUNTER)
    _EVENT_ID_COUNTER = itertools.count(first + count)
    return first


def reset_event_ids() -> None:
    """Reset the global event-id counter (used by tests for determinism)."""
    global _EVENT_ID_COUNTER
    _EVENT_ID_COUNTER = itertools.count(1)


@dataclass(slots=True)
class Event:
    """A single event (tuple) flowing between executors.

    Slotted: events are the most-allocated and most-read objects in a run,
    and slot storage makes both construction and field access measurably
    cheaper than instance dicts.

    Attributes
    ----------
    event_id:
        Unique id of this event.
    root_id:
        Id of the causal-tree root (the source-emitted event this one descends
        from).  For checkpoint events this is the id of the wave's root
        control event.
    kind:
        Data or checkpoint.
    source_task:
        Name of the task that produced the event.
    payload:
        Arbitrary user payload (kept small in the experiments).
    created_at:
        Simulated time at which this particular event object was produced.
    root_emitted_at:
        Simulated time at which the causal root was *first* emitted by the
        source (replays preserve the original value so end-to-end latency is
        measured against the original emission, as the paper does).
    checkpoint_action / checkpoint_id:
        Only set for checkpoint events: the action and the wave number.
    replay_count:
        How many times the causal root has been replayed by the source due to
        ack timeouts (0 for a first emission).
    anchored:
        Whether the event is tracked by the acker service.
    """

    event_id: int
    root_id: int
    kind: EventKind
    source_task: str
    payload: Any = None
    created_at: float = 0.0
    root_emitted_at: float = 0.0
    checkpoint_action: Optional[CheckpointAction] = None
    checkpoint_id: Optional[int] = None
    replay_count: int = 0
    anchored: bool = False

    # ------------------------------------------------------------- factories
    @classmethod
    def data(
        cls,
        source_task: str,
        payload: Any = None,
        created_at: float = 0.0,
        root_id: Optional[int] = None,
        root_emitted_at: Optional[float] = None,
        replay_count: int = 0,
        anchored: bool = False,
    ) -> "Event":
        """Create a data event.  If ``root_id`` is omitted the event is a root."""
        event_id = next_event_id()
        return cls(
            event_id=event_id,
            root_id=root_id if root_id is not None else event_id,
            kind=EventKind.DATA,
            source_task=source_task,
            payload=payload,
            created_at=created_at,
            root_emitted_at=root_emitted_at if root_emitted_at is not None else created_at,
            replay_count=replay_count,
            anchored=anchored,
        )

    @classmethod
    def checkpoint(
        cls,
        action: CheckpointAction,
        checkpoint_id: int,
        source_task: str,
        created_at: float = 0.0,
        root_id: Optional[int] = None,
        anchored: bool = True,
    ) -> "Event":
        """Create a checkpoint control event for the given wave."""
        event_id = next_event_id()
        return cls(
            event_id=event_id,
            root_id=root_id if root_id is not None else event_id,
            kind=EventKind.CHECKPOINT,
            source_task=source_task,
            payload=None,
            created_at=created_at,
            root_emitted_at=created_at,
            checkpoint_action=action,
            checkpoint_id=checkpoint_id,
            anchored=anchored,
        )

    # ------------------------------------------------------------ derivation
    def derive(self, source_task: str, payload: Any = None, created_at: float = 0.0) -> "Event":
        """Create a causally dependent child event (same root, new id)."""
        return Event(
            next(_EVENT_ID_COUNTER),
            self.root_id,
            self.kind,
            source_task,
            payload if payload is not None else self.payload,
            created_at,
            self.root_emitted_at,
            self.checkpoint_action,
            self.checkpoint_id,
            self.replay_count,
            self.anchored,
        )

    def copy_for_edge(self) -> "Event":
        """Duplicate the event for delivery on an additional outgoing edge.

        Storm delivers the *same* tuple object to every subscribed downstream
        task; for acking purposes each delivery is a distinct anchored edge, so
        we give each copy a fresh id while keeping the same root.  Built by
        positional construction: this runs once per routed event, and
        ``dataclasses.replace`` costs several times more than ``__init__``.
        """
        return Event(
            next(_EVENT_ID_COUNTER),
            self.root_id,
            self.kind,
            self.source_task,
            self.payload,
            self.created_at,
            self.root_emitted_at,
            self.checkpoint_action,
            self.checkpoint_id,
            self.replay_count,
            self.anchored,
        )

    # ------------------------------------------------------------ properties
    @property
    def is_data(self) -> bool:
        """Whether this is a user data event."""
        return self.kind is EventKind.DATA

    @property
    def is_checkpoint(self) -> bool:
        """Whether this is a checkpoint control event."""
        return self.kind is EventKind.CHECKPOINT

    @property
    def is_root(self) -> bool:
        """Whether this event is the root of its causal tree."""
        return self.event_id == self.root_id

    @property
    def is_replay(self) -> bool:
        """Whether this event descends from a replayed root."""
        return self.replay_count > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_checkpoint:
            return (
                f"Event(ckpt {self.checkpoint_action.value} #{self.checkpoint_id}, "
                f"id={self.event_id})"
            )
        return f"Event(data id={self.event_id}, root={self.root_id}, from={self.source_task})"
