"""The traced pass: host-time spans and the per-layer profile roll-up.

Two instruments, used in two separate passes so neither distorts the other:

* **Spans.**  The coarse public entry points of the package are wrapped by
  ``setattr`` from here (nothing under ``src/`` knows about it) and every
  call becomes a span -- name, start, end, parent -- on a
  ``repro.obs`` tracer driven by ``time.perf_counter``.  One trace per
  workload run; spans nest workload -> cell/scenario -> phase, stay in
  memory and are written as JSONL when the process is done.
* **Profile.**  The per-event layers inside ``Simulator.run`` would need
  millions of spans, so they are split with ``cProfile`` instead: every
  function's self time and call count is rolled up by *source path*
  (``repro/<package>/<module>.py`` -> layer), which survives renames of the
  functions themselves.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import pstats
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Tuple

from repro.core.strategy import STRATEGIES
from repro.metrics.log import EventLog
from repro.obs.export import write_trace_jsonl
from repro.obs.telemetry import Telemetry
from repro.sim import Simulator
from workloads import Probe

#: The layers host time is attributed to; names are the module names.
LAYERS: Tuple[str, ...] = (
    "sim.kernel", "sim.rng", "sim.shard",
    "dataflow.event", "dataflow.model",
    "engine.runtime", "engine.executor", "engine.router", "engine.batch",
    "reliability.acker", "reliability.checkpoint", "reliability.statestore",
    "core", "cluster", "elastic", "multi",
    "metrics.log", "metrics.timeline",
    "workloads", "experiments",
    "host.builtins",
)

#: ``repro/<package>/<module>.py`` -> layer, for the packages that are split.
_MODULE_LAYERS = {
    "sim/kernel": "sim.kernel", "sim/rng": "sim.rng", "sim/shard": "sim.shard",
    "dataflow/event": "dataflow.event",
    "engine/executor": "engine.executor", "engine/router": "engine.router",
    "engine/batch": "engine.batch",
    "reliability/acker": "reliability.acker", "reliability/checkpoint": "reliability.checkpoint",
    "metrics/timeline": "metrics.timeline",
}

#: Package -> layer for whole-package layers and for any other module of a
#: split package (so a module added later still lands next to its siblings).
_PACKAGE_LAYERS = {
    "sim": "sim.kernel", "dataflow": "dataflow.model", "engine": "engine.runtime",
    "reliability": "reliability.statestore", "metrics": "metrics.log",
    "core": "core", "cluster": "cluster", "elastic": "elastic", "multi": "multi",
    "workloads": "workloads", "experiments": "experiments",
}

#: Phases reported as ``phase.<name>.wall_s`` (0 where a workload has none).
PHASES: Tuple[str, ...] = (
    "build", "warmup", "migrate", "post", "metrics", "summarise", "figure_rows",
    "elastic", "predict", "chaos_notice", "chaos_oblivious", "multi",
    "acked", "unacked", "shard_run", "shard_merge",
    "window_queries", "recovery_scans", "timelines", "digest",
)

_LOG_QUERIES = (
    "receipts_after", "receipts_between", "emits_between", "first_receipt_after",
    "last_old_receipt", "last_replay_receipt", "distinct_roots_received", "summary",
)

#: (module, attribute, span name, category) of the wrapped module-level
#: functions.  A name imported with ``from x import f`` is wrapped where it is
#: *used*: that module's own binding is what its callers resolve.
_FUNCTION_TARGETS = (
    ("repro.experiments.scenarios", "build_experiment", "build", "phase"),
    ("repro.experiments.scenarios", "compute_migration_metrics", "metrics", "phase"),
    ("repro.experiments.figures", "rate_timeline", "rate_timeline", "timeline"),
    ("repro.experiments.figures", "latency_timeline", "latency_timeline", "timeline"),
    ("repro.experiments.predictive", "run_elastic_experiment", "run_elastic_experiment", "scenario"),
)


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    marker = filename.rfind("/repro/")
    if marker < 0:
        return "host.builtins"  # C builtins ("~"), stdlib, numpy, the benchmark itself
    parts = filename[marker + len("/repro/"):].split("/")
    if len(parts) < 2:
        return "experiments"  # repro/cli.py, repro/__init__.py
    module = f"{parts[0]}/{parts[1].removesuffix('.py')}"
    return _MODULE_LAYERS.get(module) or _PACKAGE_LAYERS.get(parts[0], "host.builtins")


def profile_pass(run: Any) -> Dict[str, Dict[str, float]]:
    """Run ``run()`` under cProfile and roll its profile up by layer.

    The roll-up maps layer -> ``{"share": self-time share, "calls": calls}``;
    shares sum to 1, so scaling them by an untraced wall time splits that
    wall time over the layers with nothing left over.
    """
    profiler = cProfile.Profile()
    profiler.runcall(run)
    layers = {layer: {"share": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _name), (_cc, calls, self_s, _cum, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        entry = layers[layer_of(filename)]
        entry["share"] += self_s
        entry["calls"] += calls
    total = sum(entry["share"] for entry in layers.values())
    for entry in layers.values():
        entry["share"] = entry["share"] / total if total else 0.0
    return layers


class HostTracer(Probe):
    """A probe that also records host-time spans while its wrappers are installed."""

    def __init__(self, workload: str, seed: int) -> None:
        super().__init__()
        self.telemetry = Telemetry(clock=time.perf_counter)
        self.telemetry.meta.update(
            scenario="bench-e2e",
            workload=workload,
            seed=seed,
            trace_id=f"{workload}-{seed}-{time.time_ns():x}",
            time_base="start_s/end_s are host seconds since the trace began",
        )
        self._origin = time.perf_counter()
        self._recording = False
        self._stack: List[Any] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Wrap targets that no longer exist (a rename under ``src/``).
        self.missing: List[str] = []

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def span(self, name: str, category: str = "phase") -> Any:
        return self._span(name, category) if self._recording else nullcontext()

    @contextmanager
    def _span(self, name: str, category: str) -> Iterator[Any]:
        tracer = self.telemetry.tracer
        parent = self._stack[-1] if self._stack else None
        span = tracer.begin(name, category, self._now(), parent=parent)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            tracer.end(span, self._now())

    def _wrap(self, owner: Any, attribute: str, name: str, category: str) -> None:
        original = vars(owner).get(attribute)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self._span(name, category):
                return original(*args, **kwargs)

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def install(self) -> None:
        """Wrap the entry points and start recording spans."""
        self._recording = True
        for module_name, attribute, name, category in _FUNCTION_TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            self._wrap(module, attribute, name, category)
        self._wrap(Simulator, "run", "Simulator.run", "sim")
        for strategy in STRATEGIES.values():
            if "migrate" in vars(strategy):
                self._wrap(strategy, "migrate", "migrate", "phase")
        for query in _LOG_QUERIES:
            self._wrap(EventLog, query, query, "log.query")

    def uninstall(self) -> None:
        self._recording = False
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> str:
        return write_trace_jsonl(self.telemetry, path)

    def phase_walls(self) -> Dict[str, float]:
        """``phase.<name>.wall_s`` plus ``cell.max_wall_s`` from the spans."""
        spans = self.telemetry.tracer.spans
        by_id = {span.span_id: span for span in spans}
        walls = {name: 0.0 for name in PHASES}
        cell_max = 0.0
        sim_runs_in_cell: Dict[int, int] = {}
        for span in spans:
            duration = span.end_s - span.start_s
            if span.category == "phase" and span.name in walls:
                walls[span.name] += duration
            elif span.category == "timeline":
                walls["summarise"] += duration
            elif span.category == "cell":
                cell_max = max(cell_max, duration)
            elif span.category == "sim":
                # Inside a matrix cell the first run() is the warm-up to the
                # migration request, the second the post-migration window.
                cell = by_id.get(span.parent_id)
                while cell is not None and cell.category != "cell":
                    cell = by_id.get(cell.parent_id)
                if cell is not None:
                    seen = sim_runs_in_cell.get(cell.span_id, 0)
                    sim_runs_in_cell[cell.span_id] = seen + 1
                    walls["warmup" if seen == 0 else "post"] += duration
        metrics = {f"phase.{name}.wall_s": wall for name, wall in walls.items()}
        metrics["cell.max_wall_s"] = cell_max
        return metrics

    def log_queries(self) -> int:
        return sum(1 for span in self.telemetry.tracer.spans if span.category == "log.query")
