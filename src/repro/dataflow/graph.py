"""The dataflow graph (topology).

A :class:`Dataflow` is a validated directed acyclic graph of
:class:`~repro.dataflow.task.Task` objects connected by :class:`Edge`\\ s.  It
offers the structural queries the engine and the migration strategies need:
topological order, entry/exit tasks, per-task steady-state input rates,
critical path length, and total instance (slot) counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.dataflow.grouping import Grouping
from repro.dataflow.task import SinkTask, SourceTask, Task, TaskKind


class DataflowValidationError(ValueError):
    """Raised when a dataflow graph is structurally invalid."""


def exact_instance_ceiling(rate_ev_s: float, capacity_ev_s: float) -> int:
    """``ceil(rate / capacity)`` computed exactly on the rational rate.

    Both operands are converted to exact rationals before dividing, so the
    result never depends on float rounding: ``24.0 / 8.0`` is exactly 3
    instances even when the float rate was accumulated through sums and
    products that would have nudged it to ``24.000000000000004`` (the case
    the old ``math.ceil(rate / cap - 1e-9)`` epsilon hack papered over,
    at the cost of under-provisioning rates a hair above a multiple).
    """
    if capacity_ev_s <= 0:
        raise ValueError("capacity_ev_s must be positive")
    if rate_ev_s <= 0:
        return 0
    ratio = Fraction(rate_ev_s) / Fraction(capacity_ev_s)
    return int(math.ceil(ratio))


@dataclass(frozen=True)
class RescalePlan:
    """Per-task target instance counts for a runtime parallelism change.

    The plan names only the tasks whose parallelism should change; every
    migration strategy (DSM/DCR/CCR) can enact one mid-migration, rebuilding
    the router's FIELDS key mapping and re-partitioning grouped task state to
    the new instance set.  Validation is against a concrete dataflow because
    only processing (user) tasks may be rescaled: sources and sinks live on
    the dedicated util VM and are never migrated, let alone rescaled.
    """

    targets: Mapping[str, int] = field(default_factory=dict)

    def validate(self, dataflow: "Dataflow") -> None:
        """Raise :class:`DataflowValidationError` if the plan does not fit the dataflow."""
        for task_name, parallelism in self.targets.items():
            if task_name not in dataflow:
                raise DataflowValidationError(
                    f"rescale references unknown task {task_name!r} in dataflow {dataflow.name!r}"
                )
            task = dataflow.task(task_name)
            if task.kind is not TaskKind.PROCESS:
                raise DataflowValidationError(
                    f"rescale target {task_name!r} is a {task.kind.value} task; "
                    "only processing tasks can change parallelism"
                )
            if not isinstance(parallelism, int) or parallelism < 1:
                raise DataflowValidationError(
                    f"rescale target {task_name!r}: parallelism must be an int >= 1, "
                    f"got {parallelism!r}"
                )

    def changes(self, dataflow: "Dataflow") -> Dict[str, Tuple[int, int]]:
        """The ``task -> (old, new)`` pairs that actually differ, in name order."""
        diff: Dict[str, Tuple[int, int]] = {}
        for task_name in sorted(self.targets):
            new = self.targets[task_name]
            old = dataflow.task(task_name).parallelism
            if new != old:
                diff[task_name] = (old, new)
        return diff

    def is_noop(self, dataflow: "Dataflow") -> bool:
        """Whether enacting the plan would change nothing."""
        return not self.changes(dataflow)

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class Edge:
    """A directed stream between two tasks."""

    src: str
    dst: str
    grouping: Grouping = Grouping.SHUFFLE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Edge({self.src} -> {self.dst}, {self.grouping.value})"


class Dataflow:
    """A validated streaming dataflow graph.

    Instances are normally created through
    :class:`~repro.dataflow.builder.TopologyBuilder` rather than directly.
    """

    def __init__(self, name: str, tasks: Sequence[Task], edges: Sequence[Edge]) -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        for task in tasks:
            if task.name in self._tasks:
                raise DataflowValidationError(f"duplicate task name {task.name!r}")
            self._tasks[task.name] = task
        self.edges: List[Edge] = list(edges)
        self._successors: Dict[str, List[str]] = {t: [] for t in self._tasks}
        self._predecessors: Dict[str, List[str]] = {t: [] for t in self._tasks}
        for edge in self.edges:
            if edge.src not in self._tasks:
                raise DataflowValidationError(f"edge references unknown task {edge.src!r}")
            if edge.dst not in self._tasks:
                raise DataflowValidationError(f"edge references unknown task {edge.dst!r}")
            self._successors[edge.src].append(edge.dst)
            self._predecessors[edge.dst].append(edge.src)
        self._validate()
        self._topo_order = self._topological_order()

    # ------------------------------------------------------------ validation
    def _validate(self) -> None:
        sources = [t for t in self._tasks.values() if t.is_source]
        sinks = [t for t in self._tasks.values() if t.is_sink]
        if not sources:
            raise DataflowValidationError(f"dataflow {self.name!r} has no source task")
        if not sinks:
            raise DataflowValidationError(f"dataflow {self.name!r} has no sink task")
        for task in self._tasks.values():
            if task.is_source and self._predecessors[task.name]:
                raise DataflowValidationError(f"source task {task.name!r} has incoming edges")
            if task.is_sink and self._successors[task.name]:
                raise DataflowValidationError(f"sink task {task.name!r} has outgoing edges")
            if not task.is_source and not self._predecessors[task.name]:
                raise DataflowValidationError(f"task {task.name!r} is unreachable (no incoming edges)")
            if not task.is_sink and not self._successors[task.name]:
                raise DataflowValidationError(f"task {task.name!r} is a dead end (no outgoing edges)")
        # Acyclicity is established by _topological_order raising on a cycle.
        self._topological_order()

    def _topological_order(self) -> List[str]:
        in_degree = {name: len(preds) for name, preds in self._predecessors.items()}
        ready = sorted(name for name, deg in in_degree.items() if deg == 0)
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for succ in self._successors[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
            ready.sort()
        if len(order) != len(self._tasks):
            raise DataflowValidationError(f"dataflow {self.name!r} contains a cycle")
        return order

    # -------------------------------------------------------------- accessors
    @property
    def tasks(self) -> List[Task]:
        """All tasks in insertion order."""
        return list(self._tasks.values())

    def task(self, name: str) -> Task:
        """Return the task with the given name."""
        if name not in self._tasks:
            raise KeyError(f"no task named {name!r} in dataflow {self.name!r}")
        return self._tasks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    @property
    def sources(self) -> List[Task]:
        """Source tasks."""
        return [t for t in self._tasks.values() if t.is_source]

    @property
    def sinks(self) -> List[Task]:
        """Sink tasks."""
        return [t for t in self._tasks.values() if t.is_sink]

    @property
    def user_tasks(self) -> List[Task]:
        """Processing tasks (excluding sources and sinks), in topological order.

        These are the tasks the paper counts in Table 1 and the ones that are
        checkpointed and migrated.
        """
        order_index = {name: i for i, name in enumerate(self._topo_order)}
        tasks = [t for t in self._tasks.values() if t.kind is TaskKind.PROCESS]
        return sorted(tasks, key=lambda t: order_index[t.name])

    @property
    def entry_tasks(self) -> List[Task]:
        """User tasks that are directly downstream of a source."""
        entry_names: Set[str] = set()
        for source in self.sources:
            for succ in self._successors[source.name]:
                if self._tasks[succ].kind is TaskKind.PROCESS:
                    entry_names.add(succ)
        return [self._tasks[n] for n in self._topo_order if n in entry_names]

    def successors(self, name: str) -> List[str]:
        """Downstream task names of ``name``."""
        return list(self._successors[name])

    def predecessors(self, name: str) -> List[str]:
        """Upstream task names of ``name``."""
        return list(self._predecessors[name])

    def out_edges(self, name: str) -> List[Edge]:
        """Outgoing edges of ``name``."""
        return [e for e in self.edges if e.src == name]

    def in_edges(self, name: str) -> List[Edge]:
        """Incoming edges of ``name``."""
        return [e for e in self.edges if e.dst == name]

    @property
    def topological_order(self) -> List[str]:
        """Task names in topological order (ties broken alphabetically)."""
        return list(self._topo_order)

    # -------------------------------------------------------------- analysis
    def total_instances(self, include_sources_and_sinks: bool = False) -> int:
        """Total number of task instances (slots needed).

        By default only user tasks are counted, matching Table 1 of the paper
        which excludes the source and sink (they live on a dedicated VM).
        """
        tasks = self.tasks if include_sources_and_sinks else self.user_tasks
        return sum(t.parallelism for t in tasks)

    def input_rates(self) -> Dict[str, float]:
        """Steady-state input event rate of every task (events/second).

        Source tasks are credited with their own generation rate.  Every
        emitted event is delivered on *each* outgoing edge (Storm semantics:
        downstream tasks each subscribe to the full stream) and every task
        emits one output per input, so a task's input rate is the sum of its
        upstream tasks' input rates.

        Float view of :meth:`input_rates_exact` (one traversal, one rounding
        step per task -- keeping the two representations in lock-step by
        construction).
        """
        return {name: float(rate) for name, rate in self.input_rates_exact().items()}

    def input_rates_exact(self) -> Dict[str, Fraction]:
        """Steady-state input rates as exact rationals (no float accumulation).

        Mirrors :meth:`input_rates` but carries every intermediate value as a
        :class:`~fractions.Fraction`, so summed branch rates like
        ``8 + 8 + 8`` are exactly ``24`` rather than a float that drifted a
        few ulps above it.  Instance sizing uses this (see
        :meth:`apply_auto_parallelism`) so provisioning never depends on
        float rounding.
        """
        rates: Dict[str, Fraction] = {}
        for name in self._topo_order:
            task = self._tasks[name]
            if task.is_source:
                rates[name] = Fraction(float(getattr(task, "rate", 0.0)))
                continue
            incoming = Fraction(0)
            for pred in self._predecessors[name]:
                incoming += rates[pred]  # one output per input (1:1)
            rates[name] = incoming
        return rates

    def output_rate(self) -> float:
        """Steady-state total event rate arriving at the sink tasks."""
        rates = self.input_rates()
        return sum(rates[s.name] for s in self.sinks)

    def critical_path_length(self) -> int:
        """Number of user tasks on the longest source-to-sink path."""
        longest: Dict[str, int] = {}
        for name in self._topo_order:
            task = self._tasks[name]
            own = 1 if task.kind is TaskKind.PROCESS else 0
            preds = self._predecessors[name]
            best_pred = max((longest[p] for p in preds), default=0)
            longest[name] = best_pred + own
        return max((longest[s.name] for s in self.sinks), default=0)

    def critical_path_latency(self) -> float:
        """Sum of task latencies along the longest source-to-sink path (seconds)."""
        longest: Dict[str, float] = {}
        for name in self._topo_order:
            task = self._tasks[name]
            own = task.latency_s if task.kind is TaskKind.PROCESS else 0.0
            preds = self._predecessors[name]
            best_pred = max((longest[p] for p in preds), default=0.0)
            longest[name] = best_pred + own
        return max((longest[s.name] for s in self.sinks), default=0.0)

    # ------------------------------------------------------------ parallelism
    def set_parallelism(self, task_name: str, parallelism: int) -> None:
        """Change a processing task's instance count, with validation.

        Parallelism is a *mutable* property of the dataflow: the engine's
        rescale machinery (see :meth:`TopologyRuntime.apply_rescale`) changes
        it at runtime, spawning or retiring executors to match.  Sources and
        sinks are fixed (they are pinned to the util VM and never migrated).
        """
        task = self.task(task_name)
        if task.kind is not TaskKind.PROCESS:
            raise DataflowValidationError(
                f"cannot rescale {task.kind.value} task {task_name!r}; "
                "only processing tasks have elastic parallelism"
            )
        if not isinstance(parallelism, int) or parallelism < 1:
            raise DataflowValidationError(
                f"task {task_name!r}: parallelism must be an int >= 1, got {parallelism!r}"
            )
        task.parallelism = parallelism

    def apply_auto_parallelism(self, events_per_instance: float = 8.0) -> None:
        """Set each user task's parallelism from its steady-state input rate.

        The paper assigns "one task instance (thread) for each incremental
        8 events/sec input rate to a task".  Tasks that declare their own
        ``capacity_ev_s`` are sized by it instead of the global rule
        (heterogeneous task latencies).  The ceiling is computed exactly on
        the rational rate (see :func:`exact_instance_ceiling`), so float noise
        from summed branch rates can neither inflate nor deflate the count.
        """
        if events_per_instance <= 0:
            raise ValueError("events_per_instance must be positive")
        rates = self.input_rates_exact()
        for task in self.user_tasks:
            capacity = task.capacity_ev_s if task.capacity_ev_s is not None else events_per_instance
            task.parallelism = max(1, exact_instance_ceiling(rates[task.name], capacity))

    def describe(self) -> str:
        """Human-readable multi-line description of the dataflow."""
        rates = self.input_rates()
        lines = [f"Dataflow {self.name!r}: {len(self.user_tasks)} user tasks, "
                 f"{self.total_instances()} instances, critical path {self.critical_path_length()}"]
        for name in self._topo_order:
            task = self._tasks[name]
            preds = ", ".join(self._predecessors[name]) or "-"
            lines.append(
                f"  {task.kind.value:7s} {name:20s} x{task.parallelism:<2d} "
                f"in={rates[name]:5.1f} ev/s  from [{preds}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataflow({self.name!r}, tasks={len(self._tasks)}, edges={len(self.edges)}, "
            f"instances={self.total_instances()})"
        )
