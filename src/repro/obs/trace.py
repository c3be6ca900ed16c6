"""Span tracer for the control plane.

Spans model *why the controller acted*: every control tick is a span with
five child spans (``sense -> forecast -> plan -> place -> act``) carrying the
stage inputs/outputs, and the long-running protocols (scaling migrations,
recoveries, evacuations, checkpoint waves, rebalances, injected faults)
become spans stamped with their simulated start/end times.

Design constraints, in order:

* **Determinism** -- span ids are sequential in creation order, every
  simulated-time field is a pure function of the run, and wall-clock stamps
  are carried *separately* (``wall_start_s``/``wall_end_s``) so exporters can
  drop them when comparing same-seed runs byte for byte
  (:meth:`Span.canonical`).
* **Async-safe parenting** -- control-plane work is not a call stack: a
  migration begun at one tick completes many simulated minutes later, long
  after its parent tick span ended.  The tracer therefore uses explicit
  ``begin()``/``end()`` with explicit ``parent`` references instead of a
  context-manager stack.
* **After the run** -- nothing calls a tracer while a simulation runs: the
  spans are written from the run's records (:mod:`repro.obs.telemetry`), so
  a trace costs the run nothing and building it twice gives the same spans.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional

#: Schema identifier written into every exported trace header.
TRACE_SCHEMA = "repro-trace/1"


class Span:
    """One traced operation over simulated time."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "category",
        "start_s",
        "end_s",
        "wall_start_s",
        "wall_end_s",
        "args",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        start_s: float,
        parent_id: Optional[int] = None,
        wall_start_s: Optional[float] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        #: Simulated-time bounds (seconds since run start).
        self.start_s = start_s
        self.end_s: Optional[float] = None
        #: Wall-clock bounds (``time.time()``), excluded from canonical content.
        self.wall_start_s = wall_start_s
        self.wall_end_s: Optional[float] = None
        self.args: Dict[str, object] = args if args is not None else {}

    @property
    def duration_s(self) -> Optional[float]:
        """Simulated duration (``None`` while open)."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def canonical(self) -> Dict[str, object]:
        """The deterministic (simulated-time-only) view of the span.

        Wall-clock stamps are intentionally absent: this dict -- and only
        this dict -- is what the same-seed byte-identity contract covers.
        """
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "args": self.args,
        }

    def as_dict(self) -> Dict[str, object]:
        """Canonical content plus the wall-clock stamps."""
        record = self.canonical()
        record["wall_start_s"] = self.wall_start_s
        record["wall_end_s"] = self.wall_end_s
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(#{self.span_id} {self.category}/{self.name} "
            f"[{self.start_s}, {self.end_s}] parent={self.parent_id})"
        )


class SpanTracer:
    """Creates and stores spans with deterministic sequential ids."""

    __slots__ = ("spans", "_next_id", "_clock")

    def __init__(self, clock=_time.time) -> None:
        self.spans: List[Span] = []
        self._next_id = 0
        # Injectable wall clock (tests freeze it); simulated time is always
        # passed in explicitly by the caller.
        self._clock = clock

    def begin(
        self,
        name: str,
        category: str,
        sim_now: float,
        parent: Optional[Span] = None,
        **args: object,
    ) -> Span:
        """Open a span at simulated time ``sim_now``."""
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start_s=sim_now,
            parent_id=parent.span_id if parent is not None else None,
            wall_start_s=self._clock(),
            args=dict(args),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, sim_now: float, **args: object) -> Span:
        """Close a span at simulated time ``sim_now``, merging ``args`` in."""
        if span.end_s is not None:
            raise ValueError(f"span #{span.span_id} ({span.name}) already ended")
        if sim_now < span.start_s:
            raise ValueError(
                f"span #{span.span_id} ({span.name}) cannot end at {sim_now} "
                f"before its start {span.start_s}"
            )
        span.end_s = sim_now
        span.wall_end_s = self._clock()
        if args:
            span.args.update(args)
        return span

    def emit(
        self,
        name: str,
        category: str,
        start_s: float,
        end_s: float,
        parent: Optional[Span] = None,
        **args: object,
    ) -> Span:
        """Record an already-finished interval as one span (record synthesis)."""
        span = self.begin(name, category, start_s, parent=parent, **args)
        return self.end(span, end_s)

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of a span, in creation order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def by_category(self, category: str) -> List[Span]:
        """All spans of one category, in creation order."""
        return [s for s in self.spans if s.category == category]

