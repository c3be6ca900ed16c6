"""Events that flow through the dataflow.

Two kinds of events exist:

* **Data events** -- the user stream.  Every data event belongs to a *causal
  tree* rooted at the event emitted by a source task; the root's 64-bit id is
  what the acker service tracks (see :mod:`repro.reliability.acker`).
* **Checkpoint (control) events** -- PREPARE / COMMIT / ROLLBACK / INIT waves
  emitted by the checkpoint coordinator.  These drive Storm's three-phase
  state checkpointing, which the DCR and CCR strategies re-purpose for
  just-in-time checkpoints during migration.

Event ids
---------
Every id is a pure function of the data that names the event, decided here
and nowhere else -- there is no counter, so an id does not depend on which
engine drew it, in which order, or on what ran earlier in the process:

* a **root** id is a full 64-bit mix of ``(runtime seed, source, sequence)``
  (:func:`root_event_id`; the sequence is the source's count of first
  emissions);
* a **child** id is one salted step from its parent's id,
  ``(parent, outgoing channel, output index)`` (:func:`child_event_id`), where
  the channel is the delivery's position in the sender's outbox;
* a **replay** of a root is the root's step over :data:`REPLAY_CHANNEL`
  salted with its replay count, so a late ack of the first emission cannot
  cancel in the replayed tree;
* a **checkpoint** event's id is a hash of ``(wave, action, target)``
  (:func:`checkpoint_event_id`).

Ids are masked to 63 bits so they fit the int64 log columns.  Like Storm's
random tuple ids, they make the acker's XOR of a tree's outstanding ids zero
only when none is outstanding (``tests/test_source_sink.py`` seeds an id rule
that cancels and shows it caught).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

import numpy as np

from repro.sim.rng import keyed_seed, splitmix


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


_MASK64 = (1 << 64) - 1
_MASK63 = (1 << 63) - 1
#: splitmix64's increment and finalizer multipliers; the increment (odd) is
#: also the per-hop multiplier, a bijection on 63-bit values.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: The "channel" of a replay's step from its root (outbox positions are >= 0).
REPLAY_CHANNEL = -1
#: The "channel" of output ``index``'s step from the event a multi-output
#: service derived it from (before the router's step onto a real channel).
OUTPUT_CHANNEL = -2


def source_id_key(seed: int, dataflow: str, source: str) -> int:
    """The 64-bit key a source's root ids are drawn under."""
    return keyed_seed(seed, dataflow, source)


#: The array form's constants, boxed once.
_NP_GOLDEN = np.array(_GOLDEN, dtype=np.uint64)
_NP_MASK63 = np.array(_MASK63, dtype=np.uint64)


def root_event_id(source_key, sequence):
    """Id of the ``sequence``-th root a source emits: splitmix64 of ``(key,
    sequence)``, masked to 63 bits.  ``sequence`` may be a ``uint64`` array
    (the level sweep's roots): the same operations, wrapping -- the key's
    ``+ GOLDEN`` folded into one constant, integers mod 2**64 re-associate --
    so the same values."""
    if isinstance(sequence, np.ndarray):
        z = sequence * _NP_GOLDEN
        z += np.array((source_key + _GOLDEN) & _MASK64, dtype=np.uint64)
        z = splitmix(z)
        z &= _NP_MASK63
        return z
    z = (source_key + (sequence + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK63


def child_event_id(parent, channel, index=0):
    """Id of what ``parent`` leads to over outbox position ``channel`` as
    output ``index``: the parent's id, xored with the two small labels spread
    over 64 bits, times an odd constant, masked to 63 bits.

    The one per-hop step of every engine: the router's re-stamps call it with
    ints, the level sweep with ``uint64`` arrays of parents and channels (the
    channels broadcast; the result is updated in place).  The low 63 bits of
    a product depend only on the low 63 bits of its factors, so the wrapping
    array form gives the same values.
    """
    z = parent ^ channel * _MIX2
    if index:
        z ^= index * _MIX1
    z *= _GOLDEN
    z &= _MASK63
    return z


def checkpoint_event_id(wave: int, action: "CheckpointAction", target: str) -> int:
    """Id of wave ``wave``'s ``action`` event delivered to ``target``."""
    return keyed_seed(wave, action.value, target) & _MASK63


def reset_event_ids() -> None:
    """Do nothing: ids are a function of the data, there is no counter to reset.

    Kept for callers written when ids came from a process-global counter
    (``bench_e2e`` still calls it); nothing in the package does.
    """


@dataclass(slots=True)
class Event:
    """A single event (tuple) flowing between executors.

    Slotted: events are the most-allocated and most-read objects in a run,
    and slot storage makes both construction and field access measurably
    cheaper than instance dicts.

    Attributes
    ----------
    event_id:
        Id of this event (see *Event ids* above).
    root_id:
        Id of the causal-tree root (the source-emitted event this one descends
        from).  For checkpoint events this is the id of the coordinator's
        event a forwarded copy descends from.
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
        root_id: int,
        payload: Any = None,
        created_at: float = 0.0,
        root_emitted_at: Optional[float] = None,
        replay_count: int = 0,
        anchored: bool = False,
    ) -> "Event":
        """A data event of ``root_id``'s tree as its source emits it: the root
        itself, or on a replay the root's step salted with ``replay_count``."""
        event_id = root_id
        if replay_count:
            event_id = child_event_id(root_id, REPLAY_CHANNEL, replay_count)
        return cls(
            event_id=event_id,
            root_id=root_id,
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
        target: str,
        created_at: float = 0.0,
        anchored: bool = True,
    ) -> "Event":
        """The wave's control event for ``target``: the root of its own tree."""
        event_id = checkpoint_event_id(checkpoint_id, action, target)
        return cls(
            event_id=event_id,
            root_id=event_id,
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
    def derive(
        self, source_task: str, payload: Any = None, created_at: float = 0.0, index: int = 0
    ) -> "Event":
        """Output ``index`` of a service of this event (same root): its id is
        this one's step over :data:`OUTPUT_CHANNEL`, so the outputs of one
        service stay apart even when they are captured instead of routed."""
        return Event(
            child_event_id(self.event_id, OUTPUT_CHANNEL, index),
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

    def copy_for_edge(self, event_id: int) -> "Event":
        """Duplicate the event, as ``event_id``, for delivery on one more edge.

        Storm delivers the *same* tuple object to every subscribed downstream
        task; for acking purposes each delivery is a distinct anchored edge, so
        each copy carries its own id (the caller's step from this event's)
        while keeping the same root.  Built by positional construction: this
        runs once per routed event, and ``dataclasses.replace`` costs several
        times more than ``__init__``.
        """
        return Event(
            event_id,
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
