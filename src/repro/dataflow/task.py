"""Task definitions: sources, processing tasks and sinks.

A :class:`Task` describes *what* runs (user logic, latency, statefulness,
parallelism); the engine turns each task into ``parallelism`` executors at
deployment time.

User logic follows the paper's experimental setup by default: a dummy
processor that sleeps for ``latency_s`` (100 ms) per event and emits its
input payload once (1:1, as in all paper experiments).  A service emits at
most one output: logic returns a list of zero or one payloads (a filter drops
an event by returning ``[]``).  Stateful tasks additionally maintain a
per-instance state dictionary that the checkpoint machinery snapshots and
restores; the default stateful logic counts processed events, mirroring the
paper's example of "a count of events seen".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.sim.kernel import checked_delay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (workloads -> dataflow)
    from repro.workloads.profiles import RateProfile


class TaskKind(Enum):
    """Role of a task inside the dataflow."""

    SOURCE = "source"
    PROCESS = "process"
    SINK = "sink"


#: Signature of user processing logic: ``(payload, state) -> [output payload]``
#: (at most one: ``[]`` emits nothing).
UserLogic = Callable[[Any, Dict[str, Any]], List[Any]]


def default_logic(payload: Any, state: Dict[str, Any]) -> List[Any]:
    """The paper's dummy logic: count the event, forward its payload (1:1).

    The batch-stepping cascade tests a task's logic for identity with this
    function: its one state effect is the counter increment, so a task
    running it can be swept with array arithmetic instead of one Python call
    per event.  Any other logic forces the per-event path.
    """
    state["processed"] = state.get("processed", 0) + 1
    return [payload]


@dataclass
class Task:
    """Definition of one dataflow task.

    Attributes
    ----------
    name:
        Unique name within the dataflow.
    kind:
        Source, processing task or sink.
    parallelism:
        Number of task instances (executors); the paper assigns one instance
        per incremental 8 events/sec of input rate.
    latency_s:
        Per-event processing latency of the user logic (100 ms in the paper).
    stateful:
        Whether the task maintains user state that must be checkpointed.
    logic:
        Optional user logic; defaults to the dummy sleep-and-forward logic.
    initial_state:
        Factory for a fresh per-instance state dictionary.
    state_size_bytes:
        Approximate serialized size of the task state, used by the state-store
        latency model when the state is persisted on COMMIT.
    capacity_ev_s:
        Optional per-instance service capacity (events/second) used when
        sizing this task's parallelism.  ``None`` falls back to the global
        1-instance-per-8-ev/s rule from Table 1 of the paper; setting it
        models heterogeneous task latencies (a fast filter needs fewer
        instances per ev/s than a heavy model-scoring task).
    """

    name: str
    kind: TaskKind = TaskKind.PROCESS
    parallelism: int = 1
    latency_s: float = 0.1
    stateful: bool = False
    logic: Optional[UserLogic] = None
    initial_state: Callable[[], Dict[str, Any]] = field(default=dict)
    state_size_bytes: int = 256
    capacity_ev_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.parallelism < 1:
            raise ValueError(f"task {self.name!r}: parallelism must be >= 1")
        checked_delay(self.latency_s, f"task {self.name!r}: latency_s")
        if self.capacity_ev_s is not None and self.capacity_ev_s <= 0:
            raise ValueError(f"task {self.name!r}: capacity_ev_s must be positive when set")
        if self.logic is None:
            self.logic = default_logic

    @property
    def is_source(self) -> bool:
        """Whether this task is a source."""
        return self.kind is TaskKind.SOURCE

    @property
    def is_sink(self) -> bool:
        """Whether this task is a sink."""
        return self.kind is TaskKind.SINK

    def instance_ids(self) -> List[str]:
        """Executor ids for this task, in instance order (``name#0``, ``name#1`` ...)."""
        return [f"{self.name}#{i}" for i in range(self.parallelism)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.stateful:
            flags.append("stateful")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"Task({self.name}, {self.kind.value}, x{self.parallelism}, "
            f"{self.latency_s * 1000:.0f}ms{suffix})"
        )


@dataclass
class SourceTask(Task):
    """A source task that generates the input stream.

    Attributes
    ----------
    rate:
        Events emitted per second while the source is unpaused (8 ev/s in the
        paper's experiments).  When a ``profile`` is set this is only the
        baseline used for capacity planning; the instantaneous rate follows
        the profile.
    profile:
        Optional :class:`~repro.workloads.profiles.RateProfile`.  When set,
        the source's emission rate follows ``profile.rate_at(sim.now)`` over
        simulated time instead of staying fixed at ``rate`` -- the input-rate
        dynamism that motivates elastic migration in the first place.
    payload_factory:
        Optional callable ``(sequence_number) -> payload``.
    """

    rate: float = 8.0
    profile: Optional["RateProfile"] = None
    payload_factory: Optional[Callable[[int], Any]] = None

    def __post_init__(self) -> None:
        self.kind = TaskKind.SOURCE
        self.latency_s = 0.0
        super().__post_init__()
        if not 0 < self.rate < math.inf:
            raise ValueError(f"source {self.name!r}: rate must be positive and finite, got {self.rate!r}")


@dataclass
class SinkTask(Task):
    """A sink task that terminates the stream and records observations."""

    def __post_init__(self) -> None:
        self.kind = TaskKind.SINK
        self.latency_s = 0.0
        super().__post_init__()
