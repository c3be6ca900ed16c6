"""Fluent topology builder.

Mirrors Storm's ``TopologyBuilder``: declare sources, tasks and sinks, wire
them with stream groupings, then :meth:`TopologyBuilder.build` a validated
:class:`~repro.dataflow.graph.Dataflow`.

The CCR strategy's modification of Storm's ``TopologyBuilder`` (automatically
creating the broadcast wiring from the checkpoint source to all tasks) is
handled at the runtime layer (:mod:`repro.engine.runtime`), not here: the
checkpoint channel is a platform concern, not part of the user's dataflow.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.dataflow.graph import Dataflow, DataflowValidationError, Edge
from repro.dataflow.grouping import Grouping
from repro.dataflow.task import SinkTask, SourceTask, Task, TaskKind, UserLogic


class TopologyBuilder:
    """Incrementally assemble a :class:`~repro.dataflow.graph.Dataflow`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._edges: List[Edge] = []

    # ---------------------------------------------------------- declarations
    def add_source(
        self,
        name: str,
        rate: float = 8.0,
        parallelism: int = 1,
        payload_factory: Optional[Callable[[int], Any]] = None,
        profile: Optional[Any] = None,
    ) -> "TopologyBuilder":
        """Declare a source task emitting ``rate`` events/second.

        ``profile`` optionally attaches a
        :class:`~repro.workloads.profiles.RateProfile`; the emission rate then
        follows the profile over simulated time instead of staying fixed.
        """
        self._add(SourceTask(name=name, rate=rate, parallelism=parallelism,
                             payload_factory=payload_factory, profile=profile))
        return self

    def add_task(
        self,
        name: str,
        parallelism: int = 1,
        latency_s: float = 0.1,
        stateful: bool = False,
        logic: Optional[UserLogic] = None,
        state_size_bytes: int = 256,
        capacity_ev_s: Optional[float] = None,
    ) -> "TopologyBuilder":
        """Declare a processing task.

        ``capacity_ev_s`` optionally declares this task's per-instance service
        capacity; auto-parallelism and the elastic planner then size it by its
        own rate instead of the global 1-per-8-ev/s rule.
        """
        self._add(
            Task(
                name=name,
                kind=TaskKind.PROCESS,
                parallelism=parallelism,
                latency_s=latency_s,
                stateful=stateful,
                logic=logic,
                state_size_bytes=state_size_bytes,
                capacity_ev_s=capacity_ev_s,
            )
        )
        return self

    def add_sink(self, name: str, parallelism: int = 1) -> "TopologyBuilder":
        """Declare a sink task."""
        self._add(SinkTask(name=name, parallelism=parallelism))
        return self

    def _add(self, task: Task) -> None:
        if task.name in self._tasks:
            raise DataflowValidationError(f"task {task.name!r} declared twice")
        self._tasks[task.name] = task

    # --------------------------------------------------------------- wiring
    def connect(self, src: str, dst: str, grouping: Grouping = Grouping.SHUFFLE) -> "TopologyBuilder":
        """Wire an edge from ``src`` to ``dst`` with the given grouping."""
        if src not in self._tasks:
            raise DataflowValidationError(f"connect: unknown source task {src!r}")
        if dst not in self._tasks:
            raise DataflowValidationError(f"connect: unknown destination task {dst!r}")
        if src == dst:
            raise DataflowValidationError(f"connect: self-loop on task {src!r} is not allowed")
        edge = Edge(src=src, dst=dst, grouping=grouping)
        if any(e.src == src and e.dst == dst for e in self._edges):
            raise DataflowValidationError(f"connect: duplicate edge {src!r} -> {dst!r}")
        self._edges.append(edge)
        return self

    def chain(self, *names: str, grouping: Grouping = Grouping.SHUFFLE) -> "TopologyBuilder":
        """Wire a sequential chain of tasks: ``chain(a, b, c)`` creates a->b and b->c."""
        for src, dst in zip(names, names[1:]):
            self.connect(src, dst, grouping=grouping)
        return self

    def fan_out(self, src: str, dsts: List[str], grouping: Grouping = Grouping.SHUFFLE) -> "TopologyBuilder":
        """Wire ``src`` to each task in ``dsts``."""
        for dst in dsts:
            self.connect(src, dst, grouping=grouping)
        return self

    def fan_in(self, srcs: List[str], dst: str, grouping: Grouping = Grouping.SHUFFLE) -> "TopologyBuilder":
        """Wire each task in ``srcs`` to ``dst``."""
        for src in srcs:
            self.connect(src, dst, grouping=grouping)
        return self

    # ---------------------------------------------------------------- build
    def build(self, auto_parallelism: bool = False) -> Dataflow:
        """Validate and return the dataflow.

        With ``auto_parallelism=True`` each user task's parallelism is derived
        from its steady-state input rate (one instance per 8 events/second,
        or per the task's own ``capacity_ev_s``), per the paper's provisioning
        rule (:meth:`Dataflow.apply_auto_parallelism`).
        """
        dataflow = Dataflow(self.name, list(self._tasks.values()), self._edges)
        if auto_parallelism:
            dataflow.apply_auto_parallelism()
        return dataflow
