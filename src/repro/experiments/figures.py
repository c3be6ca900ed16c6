"""Per-figure experiment drivers and the table of what ``results/`` holds.

Each driver regenerates the data behind one table or figure of the paper's
evaluation (§5) and returns plain rows/series, paper-reported values
alongside so the reproduction can be compared at a glance.  :data:`PRODUCERS`
maps every committed ``results/<stem>.txt`` to the driver, title and column
order that produce it: ``repro figure <name>`` prints from it, ``repro figure
all --write results/`` re-records from it, and the tier-1 suite asserts the
committed files equal it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.metrics import MigrationMetrics
from repro.dataflow import topologies
from repro.dataflow.topologies import PAPER_ORDER, TABLE1
from repro.engine.batch import engine_counts
from repro.experiments.formatting import format_latency_series, format_rate_series, format_table
from repro.experiments.scenarios import MigrationRunResult, run_migration_experiment, vm_counts_for
from repro.metrics.timeline import LatencyPoint, RatePoint, latency_timeline, rate_timeline
from repro.reliability.statestore import StateStore
from repro.sim import Simulator

#: Strategy evaluation order used in every figure of the paper.
STRATEGY_ORDER: Tuple[str, str, str] = ("dsm", "dcr", "ccr")

#: Paper-reported values for Fig. 5 (restore / catchup / recovery, seconds),
#: keyed by (scaling, dag, strategy).  Catchup and recovery entries of 0 mean
#: "not applicable / not observed" in the paper's stacked bars.
PAPER_FIG5: Dict[Tuple[str, str, str], Tuple[float, float, float]] = {
    ("in", "linear", "dsm"): (67, 50, 0), ("in", "linear", "dcr"): (39, 0, 0), ("in", "linear", "ccr"): (18, 13, 0),
    ("in", "diamond", "dsm"): (49, 12, 0), ("in", "diamond", "dcr"): (28, 0, 0), ("in", "diamond", "ccr"): (27, 14, 0),
    ("in", "star", "dsm"): (57, 10, 103), ("in", "star", "dcr"): (37, 0, 0), ("in", "star", "ccr"): (16, 22, 0),
    ("in", "grid", "dsm"): (92, 103, 80), ("in", "grid", "dcr"): (41, 0, 0), ("in", "grid", "ccr"): (16, 25, 0),
    ("in", "traffic", "dsm"): (70, 51, 52), ("in", "traffic", "dcr"): (40, 0, 0), ("in", "traffic", "ccr"): (16, 21, 0),
    ("out", "linear", "dsm"): (64, 17, 0), ("out", "linear", "dcr"): (35, 0, 0), ("out", "linear", "ccr"): (26, 8, 0),
    ("out", "diamond", "dsm"): (46, 0, 74), ("out", "diamond", "dcr"): (37, 10, 0), ("out", "diamond", "ccr"): (26, 1, 0),
    ("out", "star", "dsm"): (57, 15, 93), ("out", "star", "dcr"): (37, 0, 0), ("out", "star", "ccr"): (27, 9, 0),
    ("out", "grid", "dsm"): (70, 22, 38), ("out", "grid", "dcr"): (36, 20, 0), ("out", "grid", "ccr"): (17, 37, 0),
    ("out", "traffic", "dsm"): (61, 0, 67), ("out", "traffic", "dcr"): (37, 0, 0), ("out", "traffic", "ccr"): (27, 0, 0),
}

#: Paper-reported replayed-message counts for DSM (Fig. 6), keyed by (scaling, dag).
PAPER_FIG6: Dict[Tuple[str, str], int] = {
    ("in", "linear"): 476, ("in", "diamond"): 315, ("in", "star"): 245, ("in", "grid"): 2083, ("in", "traffic"): 1513,
    ("out", "linear"): 239, ("out", "diamond"): 112, ("out", "star"): 292, ("out", "grid"): 1339, ("out", "traffic"): 504,
}

#: Paper-reported stabilization times (Fig. 8, seconds), keyed by (scaling, dag, strategy).
PAPER_FIG8: Dict[Tuple[str, str, str], float] = {
    ("in", "linear", "dsm"): 147, ("in", "linear", "dcr"): 128, ("in", "linear", "ccr"): 100,
    ("in", "diamond", "dsm"): 135, ("in", "diamond", "dcr"): 100, ("in", "diamond", "ccr"): 90,
    ("in", "star", "dsm"): 130, ("in", "star", "dcr"): 116, ("in", "star", "ccr"): 110,
    ("in", "grid", "dsm"): 224, ("in", "grid", "dcr"): 148, ("in", "grid", "ccr"): 130,
    ("in", "traffic", "dsm"): 208, ("in", "traffic", "dcr"): 140, ("in", "traffic", "ccr"): 128,
    ("out", "linear", "dsm"): 139, ("out", "linear", "dcr"): 120, ("out", "linear", "ccr"): 107,
    ("out", "diamond", "dsm"): 135, ("out", "diamond", "dcr"): 131, ("out", "diamond", "ccr"): 112,
    ("out", "star", "dsm"): 147, ("out", "star", "dcr"): 130, ("out", "star", "ccr"): 118,
    ("out", "grid", "dsm"): 200, ("out", "grid", "dcr"): 146, ("out", "grid", "ccr"): 140,
    ("out", "traffic", "dsm"): 183, ("out", "traffic", "dcr"): 137, ("out", "traffic", "ccr"): 120,
}

#: Paper-reported drain/capture durations (§5.1, milliseconds).
PAPER_DRAIN_MS: Dict[Tuple[str, str], float] = {
    ("grid-in", "dcr"): 1875, ("grid-in", "ccr"): 468,
    ("grid-out", "dcr"): 1440, ("grid-out", "ccr"): 550,
    ("linear-in", "dcr"): 905, ("linear-in", "ccr"): 256,
}

#: Paper-reported average rebalance command duration (seconds).
PAPER_REBALANCE_DURATION_S = 7.26

#: Paper-reported state-store micro-benchmark: 2000 events checkpointed in ~100 ms.
PAPER_STATESTORE_EVENTS = 2000
PAPER_STATESTORE_MS = 100.0

#: Default experiment timing used by the figure drivers.  The paper runs each
#: experiment for 12 minutes with the migration requested after 3 minutes; the
#: defaults here use a shorter warm-up (the simulated dataflow reaches steady
#: state within seconds) and the same post-migration observation window.
DEFAULT_MIGRATE_AT_S = 90.0
DEFAULT_POST_MIGRATION_S = 540.0


#: Timeline resolutions the figures use; matrix cells precompute series at
#: exactly these, so the parallel path reproduces the serial output bit for bit.
DEFAULT_RATE_BIN_S = 5.0
DEFAULT_LATENCY_WINDOW_S = 10.0


@dataclass
class MatrixCell:
    """Picklable summary of one (dag, strategy, scaling) experiment.

    Everything the figure drivers read, without the live runtime/simulator a
    full :class:`MigrationRunResult` drags along -- which is what lets
    :meth:`ExperimentMatrix.prefetch` compute cells in worker processes and
    ship them back.
    """

    dag: str
    strategy: str
    scaling: str
    metrics: MigrationMetrics
    #: Simulated time of the migration request (figure timelines are relative to it).
    requested_at: float
    #: Input/output rate timelines at :data:`DEFAULT_RATE_BIN_S` (absolute times).
    input_series: List[RatePoint]
    output_series: List[RatePoint]
    #: Latency timeline at :data:`DEFAULT_LATENCY_WINDOW_S` (absolute times).
    latency_series: List[LatencyPoint]
    #: Which engine ran the cell (:func:`repro.engine.batch.engine_counts`).
    engine: Dict[str, int]


def _cell_from_result(result: MigrationRunResult) -> MatrixCell:
    return MatrixCell(
        dag=result.spec.dag,
        strategy=result.spec.strategy,
        scaling=result.spec.scaling,
        metrics=result.metrics,
        requested_at=result.report.requested_at,
        input_series=rate_timeline(result.log, kind="input", bin_s=DEFAULT_RATE_BIN_S),
        output_series=rate_timeline(result.log, kind="output", bin_s=DEFAULT_RATE_BIN_S),
        latency_series=latency_timeline(result.log, window_s=DEFAULT_LATENCY_WINDOW_S),
        engine=engine_counts([result.runtime]),
    )


def _compute_cell(spec: Tuple[str, str, str, float, float, int]) -> Tuple[Tuple[str, str, str], MatrixCell]:
    """Worker-process entry point: run one cell, return its picklable summary.

    Runs are hermetic (event ids are a function of the run's data), so a cell
    computed in a fresh process is identical to the same cell computed
    serially in the parent.
    """
    dag, strategy, scaling, migrate_at_s, post_migration_s, seed = spec
    result = run_migration_experiment(
        dag=dag,
        strategy=strategy,
        scaling=scaling,
        migrate_at_s=migrate_at_s,
        post_migration_s=post_migration_s,
        seed=seed,
    )
    return (dag, strategy, scaling), _cell_from_result(result)


@dataclass
class FigureRun:
    """Cache key + cell summary for one (dag, strategy, scaling) experiment."""

    dag: str
    strategy: str
    scaling: str
    result: MatrixCell


class ExperimentMatrix:
    """Runs and caches the (dag x strategy x scaling) experiment matrix.

    Figures 5, 6 and 8 are all computed from the same runs, so the matrix is
    computed lazily and shared.  Cells are hermetic (event ids are a function
    of each run's data), so :meth:`prefetch` can fan the missing cells out
    across worker processes for near-linear wall-clock wins on the full
    figure suite.
    """

    def __init__(
        self,
        migrate_at_s: float = DEFAULT_MIGRATE_AT_S,
        post_migration_s: float = DEFAULT_POST_MIGRATION_S,
        seed: int = 2018,
        dags: Sequence[str] = PAPER_ORDER,
        strategies: Sequence[str] = STRATEGY_ORDER,
    ) -> None:
        self.migrate_at_s = migrate_at_s
        self.post_migration_s = post_migration_s
        self.seed = seed
        self.dags = list(dags)
        self.strategies = list(strategies)
        self._cache: Dict[Tuple[str, str, str], MigrationRunResult] = {}
        self.cells: Dict[Tuple[str, str, str], MatrixCell] = {}

    def run(self, dag: str, strategy: str, scaling: str) -> MigrationRunResult:
        """Run (or return the cached) full experiment for one cell of the matrix."""
        key = (dag, strategy, scaling)
        if key not in self._cache:
            self._cache[key] = run_migration_experiment(
                dag=dag,
                strategy=strategy,
                scaling=scaling,
                migrate_at_s=self.migrate_at_s,
                post_migration_s=self.post_migration_s,
                seed=self.seed,
            )
        return self._cache[key]

    def cell(self, dag: str, strategy: str, scaling: str) -> MatrixCell:
        """The figure-facing summary of one cell (prefetched or computed now)."""
        key = (dag, strategy, scaling)
        if key not in self.cells:
            self.cells[key] = _cell_from_result(self.run(dag, strategy, scaling))
        return self.cells[key]

    def _cell_specs(
        self,
        scalings: Sequence[str],
        dags: Optional[Sequence[str]] = None,
        strategies: Optional[Sequence[str]] = None,
    ) -> List[Tuple[str, str, str, float, float, int]]:
        return [
            (dag, strategy, scaling, self.migrate_at_s, self.post_migration_s, self.seed)
            for scaling in scalings
            for dag in (dags if dags is not None else self.dags)
            for strategy in (strategies if strategies is not None else self.strategies)
            if (dag, strategy, scaling) not in self.cells
        ]

    def prefetch(
        self,
        scalings: Sequence[str] = ("in", "out"),
        processes: Optional[int] = None,
        dags: Optional[Sequence[str]] = None,
        strategies: Optional[Sequence[str]] = None,
    ) -> int:
        """Compute all missing cells for the given scalings, in parallel.

        Fans the cells out over a process pool (``processes`` defaults to the
        CPU count, capped at the number of missing cells) and stores the
        returned :class:`MatrixCell` summaries.  Returns the number of cells
        computed.  With ``processes=1`` (or a single missing cell) the work
        stays in-process -- no pool, no pickling.  ``processes=0`` means the
        default; a negative count raises ``ValueError``.  ``dags`` /
        ``strategies`` optionally restrict the prefetch to a subset
        (single-DAG figures, DSM-only Fig. 6).
        """
        if processes is not None and processes < 0:
            raise ValueError(f"processes must be >= 0 (0 = one per CPU), got {processes}")
        specs = self._cell_specs(scalings, dags, strategies)
        if not specs:
            return 0
        workers = processes or os.cpu_count() or 1
        workers = max(1, min(workers, len(specs)))
        if workers == 1:
            for spec in specs:
                key, cell = _compute_cell(spec)
                self.cells[key] = cell
            return len(specs)
        with multiprocessing.Pool(processes=workers) as pool:
            for key, cell in pool.map(_compute_cell, specs):
                self.cells[key] = cell
        return len(specs)

    def results(self, scaling: str) -> List[FigureRun]:
        """All cell summaries for one scaling direction, in paper order."""
        runs = []
        for dag in self.dags:
            for strategy in self.strategies:
                runs.append(FigureRun(dag, strategy, scaling, self.cell(dag, strategy, scaling)))
        return runs


# --------------------------------------------------------------------- Table 1
def table1_rows() -> List[Dict[str, object]]:
    """Reproduce Table 1: tasks, task instances and VM counts per dataflow."""
    rows = []
    for name in PAPER_ORDER:
        dataflow = topologies.by_name(name)
        counts = vm_counts_for(dataflow)
        paper = TABLE1[name]
        rows.append(
            {
                "dag": name,
                "tasks": len(dataflow.user_tasks),
                "tasks_paper": paper.tasks,
                "instances": dataflow.total_instances(),
                "instances_paper": paper.task_instances,
                "default_vms": counts.default_d2,
                "default_vms_paper": paper.default_vms_2slot,
                "scale_in_vms": counts.scale_in_d3,
                "scale_in_vms_paper": paper.scale_in_vms_4slot,
                "scale_out_vms": counts.scale_out_d1,
                "scale_out_vms_paper": paper.scale_out_vms_1slot,
            }
        )
    return rows


# --------------------------------------------------------------------- Figure 5
def figure5_rows(matrix: ExperimentMatrix, scaling: str) -> List[Dict[str, object]]:
    """Reproduce Fig. 5 (a or b): restore, catchup and recovery per DAG and strategy."""
    rows = []
    for run in matrix.results(scaling):
        metrics = run.result.metrics
        paper = PAPER_FIG5.get((scaling, run.dag, run.strategy))
        rows.append(
            {
                "dag": run.dag,
                "strategy": run.strategy,
                "restore_s": metrics.restore_duration_s,
                "catchup_s": metrics.catchup_time_s,
                "recovery_s": metrics.recovery_time_s,
                "restore_paper_s": paper[0] if paper else None,
                "catchup_paper_s": paper[1] if paper else None,
                "recovery_paper_s": paper[2] if paper else None,
            }
        )
    return rows


# --------------------------------------------------------------------- Figure 6
def figure6_rows(matrix: ExperimentMatrix, scaling: str) -> List[Dict[str, object]]:
    """Reproduce Fig. 6 (a or b): failed-and-replayed message counts for DSM."""
    rows = []
    for dag in matrix.dags:
        cell = matrix.cell(dag, "dsm", scaling)
        rows.append(
            {
                "dag": dag,
                "replayed_messages": cell.metrics.replayed_message_count,
                "replayed_paper": PAPER_FIG6.get((scaling, dag)),
            }
        )
    return rows


# --------------------------------------------------------------------- Figure 7
def figure7_series(
    matrix: ExperimentMatrix,
    dag: str = "grid",
    scaling: str = "in",
    bin_s: float = 5.0,
) -> Dict[str, Dict[str, List[RatePoint]]]:
    """Reproduce Fig. 7: input/output throughput timelines during the migration.

    Times in the returned series are relative to the migration request, as in
    the paper's plots.
    """
    series: Dict[str, Dict[str, List[RatePoint]]] = {}
    for strategy in matrix.strategies:
        if bin_s == DEFAULT_RATE_BIN_S:
            cell = matrix.cell(dag, strategy, scaling)
            request = cell.requested_at
            input_points, output_points = cell.input_series, cell.output_series
        else:
            # Non-default resolution: recompute from the full run's log.
            result = matrix.run(dag, strategy, scaling)
            request = result.report.requested_at
            input_points = rate_timeline(result.log, kind="input", bin_s=bin_s)
            output_points = rate_timeline(result.log, kind="output", bin_s=bin_s)
        series[strategy] = {
            "input": [RatePoint(time=p.time - request, rate=p.rate) for p in input_points],
            "output": [RatePoint(time=p.time - request, rate=p.rate) for p in output_points],
        }
    return series


# --------------------------------------------------------------------- Figure 8
def figure8_rows(matrix: ExperimentMatrix, scaling: str) -> List[Dict[str, object]]:
    """Reproduce Fig. 8 (a or b): rate stabilization times per DAG and strategy."""
    rows = []
    for run in matrix.results(scaling):
        rows.append(
            {
                "dag": run.dag,
                "strategy": run.strategy,
                "stabilization_s": run.result.metrics.stabilization_time_s,
                "stabilization_paper_s": PAPER_FIG8.get((scaling, run.dag, run.strategy)),
            }
        )
    return rows


# --------------------------------------------------------------------- Figure 9
def figure9_series(
    matrix: ExperimentMatrix,
    dag: str = "grid",
    scaling: str = "in",
    window_s: float = 10.0,
) -> Dict[str, Dict[str, object]]:
    """Reproduce Fig. 9: average latency over a 10 s moving window for Grid scale-in.

    For each strategy the series of latency points (times relative to the
    migration request) plus the metric boundaries A..E used as vertical lines
    in the paper (restore, catchup, recovery, stabilization) are returned.
    """
    series: Dict[str, Dict[str, object]] = {}
    for strategy in matrix.strategies:
        if window_s == DEFAULT_LATENCY_WINDOW_S:
            cell = matrix.cell(dag, strategy, scaling)
            request = cell.requested_at
            metrics = cell.metrics
            raw_points = cell.latency_series
        else:
            result = matrix.run(dag, strategy, scaling)
            request = result.report.requested_at
            metrics = result.metrics
            raw_points = latency_timeline(result.log, window_s=window_s)
        points = [
            LatencyPoint(time=p.time - request, latency_s=p.latency_s, samples=p.samples)
            for p in raw_points
        ]
        stable = [p.latency_s for p in points if p.time < 0]
        series[strategy] = {
            "latency": points,
            "stable_latency_s": sorted(stable)[len(stable) // 2] if stable else None,
            "boundaries": {
                "A_restore": metrics.restore_duration_s,
                "B_catchup": metrics.catchup_time_s,
                "C_recovery": metrics.recovery_time_s,
                "D_stabilization": metrics.stabilization_time_s,
            },
        }
    return series


# ------------------------------------------------------- drain-time experiment
def drain_time_rows(
    migrate_at_s: float = 60.0,
    post_migration_s: float = 90.0,
    seed: int = 2018,
    include_linear50: bool = True,
) -> List[Dict[str, object]]:
    """Reproduce the §5.1 drain/capture duration comparison (DCR vs CCR).

    Covers Grid scale-in/out and Linear scale-in as reported in the paper,
    plus the 50-task Linear DAG used to show that the DCR-CCR drain gap grows
    with the critical path length.
    """
    cases: List[Tuple[str, str, Optional[object]]] = [
        ("grid", "in", None),
        ("grid", "out", None),
        ("linear", "in", None),
    ]
    if include_linear50:
        cases.append(("linear-50", "in", topologies.linear(50)))

    rows = []
    for label, scaling, dataflow in cases:
        durations = {}
        for strategy in ("dcr", "ccr"):
            result = run_migration_experiment(
                dag=label if dataflow is None else "linear",
                strategy=strategy,
                scaling=scaling,
                migrate_at_s=migrate_at_s,
                post_migration_s=post_migration_s,
                seed=seed,
                dataflow=dataflow,
            )
            durations[strategy] = result.metrics.drain_capture_duration_s * 1000.0
        paper_dcr = PAPER_DRAIN_MS.get((f"{label}-{scaling}", "dcr"))
        paper_ccr = PAPER_DRAIN_MS.get((f"{label}-{scaling}", "ccr"))
        rows.append(
            {
                "case": f"{label} scale-{scaling}",
                "dcr_drain_ms": durations["dcr"],
                "dcr_paper_ms": paper_dcr,
                "ccr_capture_ms": durations["ccr"],
                "ccr_paper_ms": paper_ccr,
                "delta_ms": durations["dcr"] - durations["ccr"],
            }
        )
    return rows


# --------------------------------------------------- rebalance-duration summary
def rebalance_duration_summary(matrix: ExperimentMatrix, scalings: Sequence[str] = ("in", "out")) -> Dict[str, float]:
    """Reproduce the §5.1 observation that the rebalance command averages ~7.26 s."""
    durations: List[float] = []
    for scaling in scalings:
        for run in matrix.results(scaling):
            rebalance = run.result.metrics.rebalance_duration_s
            if rebalance is not None:
                durations.append(rebalance)
    if not durations:
        return {"mean_s": float("nan"), "min_s": float("nan"), "max_s": float("nan"), "paper_mean_s": PAPER_REBALANCE_DURATION_S}
    return {
        "mean_s": sum(durations) / len(durations),
        "min_s": min(durations),
        "max_s": max(durations),
        "samples": len(durations),
        "paper_mean_s": PAPER_REBALANCE_DURATION_S,
    }


# ----------------------------------------------------- state-store micro-bench
def statestore_micro(num_events: int = PAPER_STATESTORE_EVENTS) -> Dict[str, float]:
    """Reproduce the §5.1 micro-benchmark: time to checkpoint ``num_events`` events."""
    sim = Simulator()
    store = StateStore(sim)
    size = store.checkpoint_size_bytes(state_size_bytes=0, pending_events=num_events)
    latency_s = store.put("micro/checkpoint", {"pending": num_events}, size)
    return {
        "events": num_events,
        "measured_ms": latency_s * 1000.0,
        "paper_ms": PAPER_STATESTORE_MS,
    }


# ------------------------------------------------------------------ ablations
# Not figures of the paper: each isolates one mechanism the strategies rely
# on, on the Star dataflow (scale-in, migration at 60 s, 300 s observed).
def ablation_init_resend_rows(seed: int = 2018) -> List[Dict[str, object]]:
    """DCR restore time as a function of the INIT re-send interval (the
    paper's 1 s; DSM in effect waits for the 30 s ack timeout)."""
    rows = []
    for interval in (0.5, 1.0, 5.0, 15.0, 30.0):
        metrics = run_migration_experiment(
            "star", "dcr", "in", 60.0, 300.0, seed, init_resend_interval_s=interval
        ).metrics
        rows.append({"init_resend_interval_s": interval, "restore_s": metrics.restore_duration_s})
    return rows


def ablation_broadcast_metrics(seed: int = 2018) -> Dict[str, MigrationMetrics]:
    """DCR's sequential drain against CCR's broadcast capture on a 30-task Linear DAG."""
    return {
        strategy: run_migration_experiment(
            "linear-30", strategy, "in", 60.0, 120.0, seed, dataflow=topologies.linear(30)
        ).metrics
        for strategy in ("dcr", "ccr")
    }


def ablation_max_spout_pending_rows(seed: int = 2018) -> List[Dict[str, object]]:
    """DSM's replay count as a function of the ``max.spout.pending`` flow-control cap."""
    rows = []
    for cap in (32, 96, 192):
        metrics = run_migration_experiment(
            "star", "dsm", "in", 60.0, 300.0, seed, max_spout_pending=cap
        ).metrics
        rows.append({
            "max_spout_pending": cap,
            "replayed_messages": metrics.replayed_message_count,
            "restore_s": metrics.restore_duration_s,
        })
    return rows


# ---------------------------------------------------------- the producer table
def _figure7_lines(matrix: ExperimentMatrix, scaling: str, dag: str) -> List[str]:
    lines = []
    for strategy, data in figure7_series(matrix, dag=dag, scaling=scaling).items():
        lines.append(format_rate_series(f"{strategy} input", data["input"]))
        lines.append(format_rate_series(f"{strategy} output", data["output"]))
    return lines


def _figure9_lines(matrix: ExperimentMatrix, scaling: str, dag: str) -> List[str]:
    lines = []
    for strategy, data in figure9_series(matrix, dag=dag, scaling=scaling).items():
        lines.append(format_latency_series(strategy, data["latency"]))
        lines.append(f"  stable latency: {data['stable_latency_s'] * 1000.0:.0f} ms, boundaries: "
                     + ", ".join(f"{k}={v:.1f}s" for k, v in data["boundaries"].items() if v is not None))
    return lines


class Producer(NamedTuple):
    """How one committed ``results/<stem>.txt`` is produced.

    ``repro figure <figure>`` prints :meth:`text` at the scaling / dag it was
    asked for, ``repro figure all`` at the ones the committed file pins.
    """

    figure: str
    #: Formatted with ``scaling``, ``panel`` (a: scale-in, b: scale-out) and ``dag``.
    title: str
    #: ``(matrix, scaling, dag)`` -> table rows, or the lines of a timeline.
    rows: Callable[[ExperimentMatrix, str, str], Sequence[object]]
    #: Column order, where it is not the rows' own key order.
    columns: Optional[Tuple[str, ...]] = None
    #: ``(scaling, dag)`` -> which matrix cells ``rows`` reads, as
    #: :meth:`ExperimentMatrix.prefetch` keywords (None: it reads no cell).
    cells: Optional[Callable[[str, str], Dict[str, Sequence[str]]]] = None
    scaling: str = "in"
    dag: str = "grid"

    def text(self, matrix: ExperimentMatrix, jobs: int = 1) -> str:
        """The file's text (no trailing newline); ``jobs`` as ``repro figure --jobs``."""
        if self.cells is not None and jobs != 1:
            matrix.prefetch(processes=jobs or None, **self.cells(self.scaling, self.dag))
        title = self.title.format(
            scaling=self.scaling, panel="b" if self.scaling == "out" else "a", dag=self.dag.capitalize()
        )
        rows = self.rows(matrix, self.scaling, self.dag)
        if rows and isinstance(rows[0], str):
            return "\n".join([title, *rows])
        return format_table(rows, columns=self.columns, title=title)


def _per_scaling(stem: str, producer: Producer) -> Dict[str, Producer]:
    return {stem.format(scaling): producer._replace(scaling=scaling) for scaling in ("in", "out")}


def _column(scaling: str, dag: str) -> Dict[str, Sequence[str]]:
    return {"scalings": (scaling,)}


def _one_dag(scaling: str, dag: str) -> Dict[str, Sequence[str]]:
    return {"scalings": (scaling,), "dags": [dag]}


#: Committed file stem -> its producer, in the order ``repro figure all`` prints.
PRODUCERS: Dict[str, Producer] = {
    "table1_resources": Producer(
        "table1", "Table 1: tasks, task instances (slots) and VMs per dataflow (reproduced vs paper)",
        lambda matrix, scaling, dag: table1_rows(),
    ),
    **_per_scaling("fig5_scale_{}", Producer(
        "fig5", "Fig. 5 ({panel}): migration times, scale-{scaling} (reproduced vs paper)",
        lambda matrix, scaling, dag: figure5_rows(matrix, scaling),
        columns=("dag", "strategy", "restore_s", "restore_paper_s", "catchup_s", "catchup_paper_s",
                 "recovery_s", "recovery_paper_s"),
        cells=_column,
    )),
    **_per_scaling("fig6_scale_{}", Producer(
        "fig6", "Fig. 6 ({panel}): DSM replayed messages, scale-{scaling} (reproduced vs paper)",
        lambda matrix, scaling, dag: figure6_rows(matrix, scaling),
        cells=lambda scaling, dag: {"scalings": (scaling,), "strategies": ["dsm"]},
    )),
    "fig7_grid_scale_in_timeline": Producer(
        "fig7", "Fig. 7: input/output throughput during {dag} scale-{scaling} "
                "(time relative to migration request)",
        _figure7_lines, cells=_one_dag,
    ),
    **_per_scaling("fig8_scale_{}", Producer(
        "fig8", "Fig. 8 ({panel}): rate stabilization time, scale-{scaling} (reproduced vs paper)",
        lambda matrix, scaling, dag: figure8_rows(matrix, scaling),
        cells=_column,
    )),
    "fig9_grid_scale_in_latency": Producer(
        "fig9", "Fig. 9: average latency (10 s windows) during {dag} scale-{scaling} "
                "(time relative to migration request)",
        _figure9_lines, cells=_one_dag,
    ),
    "drain_time": Producer(
        "drain", "Drain (DCR) vs capture (CCR) duration in milliseconds (reproduced vs paper)",
        lambda matrix, scaling, dag: drain_time_rows(seed=matrix.seed),
    ),
    "rebalance_duration": Producer(
        "rebalance", "Rebalance command duration across all experiments (reproduced vs paper)",
        lambda matrix, scaling, dag: [rebalance_duration_summary(matrix)],
        cells=lambda scaling, dag: {},  # every cell, both scalings
    ),
    "statestore_micro": Producer(
        "statestore", "State-store micro-benchmark: checkpoint 2000 captured events (reproduced vs paper)",
        lambda matrix, scaling, dag: [statestore_micro()],
    ),
    "ablation_init_resend": Producer(
        "ablation", "Ablation: DCR restore time vs INIT re-send interval (Star, scale-in)",
        lambda matrix, scaling, dag: ablation_init_resend_rows(matrix.seed),
    ),
    "ablation_broadcast_vs_sequential": Producer(
        "ablation", "Ablation: drain/capture duration on a 30-task linear DAG",
        lambda matrix, scaling, dag: [
            {"strategy": name, "drain_capture_ms": metrics.drain_capture_duration_s * 1000.0}
            for name, metrics in ablation_broadcast_metrics(matrix.seed).items()
        ],
    ),
    "ablation_max_spout_pending": Producer(
        "ablation", "Ablation: DSM replay count vs max.spout.pending (Star, scale-in)",
        lambda matrix, scaling, dag: ablation_max_spout_pending_rows(matrix.seed),
    ),
}
