"""The four fixed, seed-generated workloads of the end-to-end benchmark.

Each workload is a closed batch run: ``prepare(seed, smoke)`` builds its
inputs (counted in ``setup_s``), ``run(inputs, probe)`` executes one *pass*
-- the same work every time -- inside ``probe.timed()`` and returns what it
produced, and ``inspect(inputs, produced)`` turns that into work counts,
content digests and correctness checks outside the timed region.

Every layer is driven from outside through its public functions and read
through its public counters; clusters are built with ``CloudProvider`` /
``Cluster`` / ``TopologyRuntime`` the way
``experiments/scenarios.py::build_experiment`` does.

Host time is taken in *slices*: a pass stamps a mark after every step it
takes itself, and every ``Simulator.run(until=...)`` under it is advanced in
equal steps of simulated time with a mark after each (see
:func:`slice_simulator_runs`).  The same slice is the same work in every
pass, so its fastest occurrence is what the work costs when nothing
interferes -- and on a shared sandbox something interferes with most of a
second but rarely with all occurrences of a 10 ms slice.  README.md,
"Noise", has the measurements behind this.

Sizes are chosen so one pass takes 0.4-1.4 s on a 2-core box, which gives
every slice fifteen or more occurrences inside the driver's time budget.
Each pass is a proper subset of what the matching ``repro`` subcommand runs,
with the same layer mix.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.cluster.cloud import CloudProvider, Cluster
from repro.cluster.vm import D2, D3
from repro.dataflow import topologies
from repro.dataflow.event import reset_event_ids
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments.chaos import run_chaos_run
from repro.experiments.elastic import run_elastic_experiment
from repro.experiments.figures import (
    STRATEGY_ORDER,
    ExperimentMatrix,
    figure5_rows,
    figure6_rows,
    figure8_rows,
)
from repro.experiments.multi import run_multi_experiment
from repro.experiments.predictive import run_predictive_experiment
from repro.experiments.scenarios import vm_counts_for
from repro.experiments.sharded import plan_shards, run_steady_shard
from repro.metrics.log import ColumnarEventLog
from repro.metrics.timeline import latency_timeline, rate_timeline
from repro.sim import Simulator
from repro.sim.shard import log_digest, merge_shard_results, run_shards

class Probe:
    """What a pass reports to: slice marks always, spans only when traced."""

    def __init__(self) -> None:
        self.marks: List[float] = []
        self.cpu_s = 0.0

    def mark(self) -> None:
        """End the current slice of the timed region."""
        self.marks.append(time.perf_counter())

    def span(self, name: str, category: str = "phase") -> Any:
        return nullcontext()

    @contextmanager
    def timed(self) -> Iterator[None]:
        """The timed region of a pass: first scenario call to last result in hand."""
        cpu = time.process_time()
        self.marks = [time.perf_counter()]
        try:
            yield
        finally:
            self.mark()
            self.cpu_s = time.process_time() - cpu

    @property
    def slices(self) -> List[float]:
        """Host seconds of every slice of the last timed region, in order."""
        return [end - start for start, end in zip(self.marks, self.marks[1:])]


def slice_simulator_runs(probe: Probe, steps: int) -> None:
    """Advance every time-bounded ``Simulator.run`` in ``steps`` marked steps.

    ``run(until=T)`` processes the events up to ``T`` and leaves the clock
    there, so reaching ``T`` in steps executes the same events in the same
    order: the classic engine's logs are byte-identical with and without
    this (checked when the benchmark was built, README.md).  Under batch
    stepping a step bounds the cascade window, as a monitor's timer does in
    an elastic run; results then agree modulo event-id order, and every pass
    is stepped alike.  A window costs the cascade a fixed overhead, so the
    vector workloads take coarser steps (:attr:`Workload.sim_steps`).
    """
    original = Simulator.run

    def run(self: Simulator, until: Any = None, max_events: Any = None) -> None:
        if until is None or max_events is not None:
            return original(self, until=until, max_events=max_events)
        start = self.now
        for step in range(1, steps):
            target = start + (until - start) * step / steps
            original(self, until=target)
            probe.mark()
            if self.now < target:  # a callback asked the run to stop
                return None
        original(self, until=until)
        probe.mark()
        return None

    Simulator.run = run  # type: ignore[method-assign]


class Checks:
    """Correctness checks of one pass: how many were attempted, which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


#: Work counts every pass reports (0 where a workload does not touch the
#: layer).  They are simulated statistics, so they must repeat exactly.
WORK_COUNTS: Tuple[str, ...] = (
    "sim.kernel.events",
    "engine.batch.inline_events",
    "engine.batch.engaged_share",
    "engine.router.routed",
    "metrics.log.emits",
    "metrics.log.receipts",
    "reliability.acker.registered",
    "reliability.acker.completed",
    "reliability.acker.failed",
    "reliability.acker.bulk_share",
    "reliability.acker.replays",
    "reliability.checkpoint.waves",
    "reliability.statestore.puts",
    "reliability.statestore.bytes_written",
    "core.migrations",
    "core.paper_restore_mape",
    "elastic.samples",
    "elastic.actions",
    "multi.grants",
    "multi.deferrals",
    "cluster.vms_provisioned",
    "cluster.faults",
    "cluster.recoveries",
    "sim.shard.merged_rows",
)


class WorkCounts:
    """Accumulates the public counters of every runtime a pass created."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {name: 0 for name in WORK_COUNTS}
        self._sims: List[Simulator] = []
        self._acker_ops = 0
        self._acker_bulk_ops = 0

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    def add_runtime(self, runtime: TopologyRuntime) -> None:
        values = self.values
        # Tenants of one ClusterManager share a simulator: count it once.
        if not any(runtime.sim is sim for sim in self._sims):
            self._sims.append(runtime.sim)
            values["sim.kernel.events"] += runtime.sim.processed_events
        if runtime.batch_stepper is not None:
            values["engine.batch.inline_events"] += runtime.batch_stepper.inline_events
        values["engine.router.routed"] += runtime.router.routed_count
        values["metrics.log.emits"] += len(runtime.log.source_emits)
        values["metrics.log.receipts"] += len(runtime.log.sink_receipts)
        stats = runtime.acker.stats
        values["reliability.acker.registered"] += stats.registered
        values["reliability.acker.completed"] += stats.completed
        values["reliability.acker.failed"] += stats.failed
        self._acker_ops += stats.anchors + stats.acks
        self._acker_bulk_ops += stats.bulk_anchors + stats.bulk_acks
        values["reliability.acker.replays"] += sum(
            source.replayed_count for source in runtime.source_executors
        )
        values["reliability.checkpoint.waves"] += len(runtime.checkpoints.history)
        values["reliability.statestore.puts"] += runtime.statestore.stats.puts
        values["reliability.statestore.bytes_written"] += runtime.statestore.stats.bytes_written

    def add_provider(self, provider: CloudProvider) -> None:
        self.values["cluster.vms_provisioned"] += len(provider.billing_records)

    def add_controller(self, monitor: Any, controller: Any) -> None:
        self.values["elastic.samples"] += len(monitor.samples)
        self.values["elastic.actions"] += len(controller.actions)
        self.values["core.migrations"] += len(controller.actions)
        self.values["cluster.recoveries"] += len(controller.recoveries) + len(controller.evacuations)

    def finish(self) -> Dict[str, float]:
        values = self.values
        events = values["sim.kernel.events"] + values["engine.batch.inline_events"]
        values["engine.batch.engaged_share"] = (
            values["engine.batch.inline_events"] / events if events else 0.0
        )
        values["reliability.acker.bulk_share"] = (
            self._acker_bulk_ops / self._acker_ops if self._acker_ops else 0.0
        )
        return values

    @property
    def simulated_events(self) -> int:
        return int(self.values["sim.kernel.events"] + self.values["engine.batch.inline_events"])


@dataclass
class PassResult:
    """What one pass is reduced to once its timed region is over."""

    #: Simulated events executed (log records analysed on ``log_analysis``).
    events: int
    counts: Dict[str, float]
    #: Content hashes of the pass's outputs; must repeat exactly.
    digests: Dict[str, str]
    checks: Checks


def columns_digest(log: Any) -> str:
    """Content hash of a columnar log, straight from the column bytes.

    ``sim.shard.log_digest`` formats every record (seconds per million
    rows); determinism checks run after every pass, so they hash the raw
    arrays instead.
    """
    hasher = hashlib.sha256()
    for columns in (log.emit_columns(), log.receipt_columns()):
        for key in sorted(columns):
            value = columns[key]
            hasher.update(key.encode())
            hasher.update(value.tobytes() if hasattr(value, "tobytes") else repr(value).encode())
    return hasher.hexdigest()


def _text_digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ------------------------------------------------------------- paper_matrix
def prepare_paper_matrix(seed: int, smoke: bool) -> Dict[str, Any]:
    if smoke:
        return {"seed": seed, "dags": ("linear",), "scalings": ("in",),
                "migrate_at_s": 10.0, "post_migration_s": 80.0}
    return {"seed": seed, "dags": ("diamond",), "scalings": ("in",),
            "migrate_at_s": 90.0, "post_migration_s": 540.0}


def run_paper_matrix(inputs: Dict[str, Any], probe: Probe) -> Dict[str, Any]:
    with probe.timed():
        matrix = ExperimentMatrix(
            migrate_at_s=inputs["migrate_at_s"],
            post_migration_s=inputs["post_migration_s"],
            seed=inputs["seed"],
            dags=inputs["dags"],
        )
        for scaling in inputs["scalings"]:
            for dag in inputs["dags"]:
                for strategy in STRATEGY_ORDER:
                    with probe.span(f"{dag}/{strategy}/{scaling}", category="cell"):
                        matrix.cell(dag, strategy, scaling)
                    probe.mark()
        with probe.span("figure_rows"):
            rows = {
                scaling: (
                    figure5_rows(matrix, scaling),
                    figure6_rows(matrix, scaling),
                    figure8_rows(matrix, scaling),
                )
                for scaling in inputs["scalings"]
            }
    return {"matrix": matrix, "rows": rows}


def inspect_paper_matrix(inputs: Dict[str, Any], produced: Dict[str, Any]) -> PassResult:
    matrix: ExperimentMatrix = produced["matrix"]
    counts = WorkCounts()
    checks = Checks()
    digests: Dict[str, str] = {}
    errors: List[float] = []
    for scaling in inputs["scalings"]:
        fig5, fig6, fig8 = produced["rows"][scaling]
        checks.expect(
            len(fig5) == len(fig8) == len(inputs["dags"]) * len(STRATEGY_ORDER)
            and len(fig6) == len(inputs["dags"]),
            f"scale-{scaling}: figure rows do not cover the matrix",
        )
        for row in fig5:
            if row["restore_s"] is not None and row["restore_paper_s"]:
                errors.append(abs(row["restore_s"] - row["restore_paper_s"]) / row["restore_paper_s"])
        for dag in inputs["dags"]:
            restore = {}
            for strategy in STRATEGY_ORDER:
                result = matrix.run(dag, strategy, scaling)
                counts.add_runtime(result.runtime)
                counts.add("core.migrations", 1)
                digests[f"{dag}/{strategy}/{scaling}"] = columns_digest(result.log)
                metrics = result.metrics
                restore[strategy] = metrics.restore_duration_s
                where = f"{dag}/{strategy}/scale-{scaling}"
                if strategy == "dsm":
                    checks.expect(metrics.replayed_message_count > 0, f"{where}: DSM replayed nothing")
                else:
                    checks.expect(metrics.replayed_message_count == 0, f"{where}: replayed messages")
                    checks.expect(metrics.messages_lost_in_kills == 0, f"{where}: lost messages")
                    checks.expect(
                        restore[strategy] is not None and restore[strategy] < 50.0,
                        f"{where}: restore {restore[strategy]} not inside 50 s",
                    )
            for strategy in ("dcr", "ccr"):
                checks.expect(
                    None not in (restore[strategy], restore["dsm"])
                    and restore[strategy] < restore["dsm"],
                    f"{dag}/scale-{scaling}: restore({strategy}) not below restore(dsm)",
                )
    counts.add("core.paper_restore_mape", sum(errors) / len(errors) if errors else 0.0)
    return PassResult(counts.simulated_events, counts.finish(), digests, checks)


# -------------------------------------------------------------- closed_loop
def prepare_closed_loop(seed: int, smoke: bool) -> Dict[str, Any]:
    if smoke:
        return {"seed": seed, "dag": "linear", "elastic_s": 60.0, "predict_s": 60.0,
                "chaos_s": 60.0, "storms": 1, "storm_start_s": 20.0,
                "multi_s": 60.0, "multi_dags": ("linear",)}
    return {"seed": seed, "dag": "grid", "elastic_s": 240.0, "predict_s": 200.0,
            "chaos_s": 240.0, "storms": 1, "storm_start_s": 90.0,
            "multi_s": 300.0, "multi_dags": ("traffic", "linear")}


def run_closed_loop(inputs: Dict[str, Any], probe: Probe) -> Dict[str, Any]:
    seed = inputs["seed"]
    with probe.timed():
        with probe.span("elastic"):
            elastic = run_elastic_experiment(
                dag=inputs["dag"], strategy="ccr", profile="surge",
                duration_s=inputs["elastic_s"], seed=seed,
            )
        probe.mark()
        with probe.span("predict"):
            predict = run_predictive_experiment(
                dag=inputs["dag"], policies=("lookahead",),
                duration_s=inputs["predict_s"], seed=seed,
            )
        probe.mark()
        chaos = {}
        for mode in ("notice", "oblivious"):
            with probe.span(f"chaos_{mode}"):
                chaos[mode] = run_chaos_run(
                    dag="traffic-keyed", strategy="dsm", mode=mode,
                    duration_s=inputs["chaos_s"], seed=seed, storm_count=inputs["storms"],
                    storm_start_s=inputs["storm_start_s"],
                )
            probe.mark()
        with probe.span("multi"):
            multi = run_multi_experiment(
                dags=inputs["multi_dags"], duration_s=inputs["multi_s"], seed=seed,
                include_private_baseline=False,
            )
    return {"elastic": elastic, "predict": predict, "chaos": chaos, "multi": multi}


def _action_lines(actions: List[Any]) -> List[str]:
    return [
        f"{a.direction} {a.from_tier}->{a.to_tier} decided={a.decided_at!r} "
        f"enacted={a.enacted_at!r} completed={a.completed_at!r}"
        for a in actions
    ]


def inspect_closed_loop(inputs: Dict[str, Any], produced: Dict[str, Any]) -> PassResult:
    counts = WorkCounts()
    checks = Checks()
    digests: Dict[str, str] = {}

    elastic = produced["elastic"]
    elastic_runs = [("elastic", elastic)] + [
        (f"predict.{policy}", summary.result) for policy, summary in produced["predict"].runs.items()
    ]
    for label, result in elastic_runs:
        counts.add_runtime(result.runtime)
        counts.add_provider(result.provider)
        counts.add_controller(result.monitor, result.controller)
        digests[f"{label}.log"] = columns_digest(result.log)
        digests[f"{label}.actions"] = _text_digest(_action_lines(result.actions))
    checks.expect(len(elastic.actions) >= 1, "elastic: the surge triggered no scaling action")

    unavailable = {}
    for mode, result in produced["chaos"].items():
        counts.add_runtime(result.runtime)
        counts.add_provider(result.provider)
        counts.add("cluster.faults", len(result.injector.records))
        counts.add("cluster.recoveries", len(result.recoveries) + len(result.evacuations))
        counts.add("core.migrations", len(result.controller.actions))
        digests[f"chaos.{mode}.log"] = columns_digest(result.log)
        digests[f"chaos.{mode}.control"] = _text_digest(result.control_sequence())
        unavailable[mode] = sum(result.restore_latencies())
        checks.expect(
            len(result.injector.records) == inputs["storms"],
            f"chaos.{mode}: {len(result.injector.records)} faults for {inputs['storms']} storms",
        )
    checks.expect(
        unavailable["notice"] <= unavailable["oblivious"],
        f"chaos: notice unavailability {unavailable['notice']} above oblivious {unavailable['oblivious']}",
    )

    shared = produced["multi"].shared
    manager = shared.manager
    counts.add_provider(manager.provider)
    counts.add("multi.grants", len(manager.arbiter.grants()))
    counts.add("multi.deferrals", len(manager.arbiter.deferrals()))
    for name in sorted(shared.tenants):
        tenant = manager.tenant(name)
        counts.add_runtime(tenant.runtime)
        counts.add_controller(tenant.monitor, tenant.controller)
        digests[f"multi.{name}.log"] = columns_digest(tenant.runtime.log)
        digests[f"multi.{name}.actions"] = _text_digest(_action_lines(tenant.controller.actions))
    checks.expect(
        shared.max_committed_slots <= shared.budget_slots,
        f"multi: {shared.max_committed_slots} slots committed over a budget of {shared.budget_slots}",
    )
    return PassResult(counts.simulated_events, counts.finish(), digests, checks)


# ---------------------------------------------------------- grid100x_vector
def vector_runtime(config: RuntimeConfig) -> TopologyRuntime:
    """A started 100x-rate Grid under batch stepping, on the Table-1 fleet."""
    reset_event_ids()
    config.batch_stepping = True
    sim = Simulator()
    provider = CloudProvider(sim)
    cluster = Cluster()
    dataflow = topologies.grid(rate=800.0, latency_s=0.001)
    util_vm = provider.provision(D3, 1, name_prefix="util")[0]
    util_vm.tags["role"] = "util"
    cluster.add_vm(util_vm)
    for vm in provider.provision(D2, vm_counts_for(dataflow).default_d2, name_prefix="d2"):
        cluster.add_vm(vm)
    runtime = TopologyRuntime(dataflow, cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()
    return runtime


def acked_config(seed: int) -> RuntimeConfig:
    """DSM reliability with the spout uncapped, so steady state is loss-free."""
    config = RuntimeConfig.for_dsm(seed=seed)
    config.reliability.max_spout_pending = None
    return config


def prepare_grid100x_vector(seed: int, smoke: bool) -> Dict[str, Any]:
    if smoke:
        return {"seed": seed, "acked_s": 2.0, "unacked_s": 2.0, "shard_s": 50.0, "shards": 2}
    return {"seed": seed, "acked_s": 100.0, "unacked_s": 40.0, "shard_s": 7200.0, "shards": 4}


def run_grid100x_vector(inputs: Dict[str, Any], probe: Probe) -> Dict[str, Any]:
    seed = inputs["seed"]
    with probe.timed():
        with probe.span("acked"):
            with probe.span("build"):
                acked = vector_runtime(acked_config(seed))
            probe.mark()
            acked.sim.run(until=inputs["acked_s"])
        with probe.span("unacked"):
            with probe.span("build"):
                unacked = vector_runtime(RuntimeConfig.for_dcr(seed=seed))
            probe.mark()
            unacked.sim.run(until=inputs["unacked_s"])
        with probe.span("shard_run"):
            specs = plan_shards(
                dag="grid", shards=inputs["shards"], duration_s=inputs["shard_s"], seed=seed
            )
            shard_results = run_shards(specs, run_steady_shard, workers=1)
        with probe.span("shard_merge"):
            merged = merge_shard_results(shard_results)
    return {"acked": acked, "unacked": unacked,
            "shard_results": shard_results, "merged": merged}


def inspect_grid100x_vector(inputs: Dict[str, Any], produced: Dict[str, Any]) -> PassResult:
    counts = WorkCounts()
    checks = Checks()
    acked: TopologyRuntime = produced["acked"]
    unacked: TopologyRuntime = produced["unacked"]
    merged = produced["merged"]
    counts.add_runtime(acked)
    counts.add_runtime(unacked)
    merged_rows = len(merged.source_emits) + len(merged.sink_receipts)
    counts.add("sim.shard.merged_rows", merged_rows)
    counts.add("metrics.log.emits", len(merged.source_emits))
    counts.add("metrics.log.receipts", len(merged.sink_receipts))
    digests = {
        "acked.log": columns_digest(acked.log),
        "unacked.log": columns_digest(unacked.log),
        "shards.merged": columns_digest(merged),
    }
    stats = acked.acker.stats
    checks.expect(stats.failed == 0, f"acked: {stats.failed} tuple trees failed in a loss-free run")
    checks.expect(
        stats.completed >= 0.99 * stats.registered,
        f"acked: only {stats.completed} of {stats.registered} tuple trees completed",
    )
    checks.expect(
        counts.values["engine.batch.inline_events"] > 0, "the batch stepper never engaged"
    )
    checks.expect(
        columns_digest(merge_shard_results(produced["shard_results"])) == digests["shards.merged"],
        "shards: a second merge of the same results differs",
    )
    # The shard simulators are gone by now; their events are the merged rows.
    events = counts.simulated_events + merged_rows
    return PassResult(events, counts.finish(), digests, checks)


# ------------------------------------------------------------- log_analysis
def prepare_log_analysis(seed: int, smoke: bool) -> Dict[str, Any]:
    """Simulate the log the passes will analyse (this is the set-up cost)."""
    duration_s = 2.0 if smoke else 20.0
    runtime = vector_runtime(acked_config(seed))
    runtime.sim.run(until=duration_s)
    return {"seed": seed, "duration_s": duration_s,
            "emits": runtime.log.emit_columns(), "receipts": runtime.log.receipt_columns()}


def _fresh_log(inputs: Dict[str, Any]) -> ColumnarEventLog:
    """A log with the prepared records and cold derived state.

    The root-first-emit map and the distinct-roots set are built lazily by
    the first query that needs them; a user analysing a log pays that once,
    so every pass must too.
    """
    emits, receipts = inputs["emits"], inputs["receipts"]
    log = ColumnarEventLog(Simulator())
    (source_code,) = set(emits["source"].tolist())
    log.extend_emits(emits["time"], emits["root"], emits["names"][source_code])
    log.extend_receipts(
        receipts["time"], receipts["root"], receipts["event"], receipts["names"],
        receipts["emitted"], sink_indices=receipts["sink"],
    )
    return log


#: Of every window's rows, each 97th (and the last) is kept for checking;
#: holding a million row objects would turn the pass into a GC benchmark.
_SAMPLE_STRIDE = 97


def _window_sample(rows: Any) -> Tuple[int, List[Any]]:
    return len(rows), rows[::_SAMPLE_STRIDE] + rows[-1:]


def run_log_analysis(inputs: Dict[str, Any], probe: Probe) -> Dict[str, Any]:
    log = _fresh_log(inputs)
    end = inputs["duration_s"]
    window = end / 20.0

    def step(result: Any) -> Any:
        probe.mark()
        return result

    with probe.timed():
        with probe.span("window_queries"):
            windows = [
                (step(_window_sample(log.receipts_between(i * window, (i + 1) * window))),
                 step(_window_sample(log.emits_between(i * window, (i + 1) * window))))
                for i in range(20)
            ]
        with probe.span("recovery_scans"):
            scans = {
                "receipts_after": step(_window_sample(log.receipts_after(0.9 * end))),
                "first_receipt_after": step(log.first_receipt_after(end / 2)),
                "last_old_receipt": step(log.last_old_receipt(end / 2)),
                "last_replay_receipt": step(log.last_replay_receipt(end / 2)),
                "distinct_roots_received": step(log.distinct_roots_received()),
            }
        with probe.span("timelines"):
            timelines = {
                "input": step(rate_timeline(log, kind="input", end=end, bin_s=5.0)),
                "output": step(rate_timeline(log, kind="output", end=end, bin_s=5.0)),
                "latency": step(latency_timeline(log, end=end, window_s=10.0)),
                "summary": step(log.summary()),
            }
        with probe.span("digest"):
            digest = log_digest(log)
    return {"windows": windows, "scans": scans,
            "timelines": timelines, "digest": digest}


def _reference_digest(emits: Dict[str, Any], receipts: Dict[str, Any]) -> str:
    """``log_digest`` recomputed from the prepared columns (its documented format)."""
    hasher = hashlib.sha256()
    names = emits["names"]
    for row in zip(*(emits[k].tolist() for k in ("time", "root", "source", "replay", "backlog"))):
        time_, root, code, replay, backlog = row
        hasher.update(f"E {time_!r} {root} {names[code]} {replay} {int(backlog)}\n".encode())
    names = receipts["names"]
    keys = ("time", "root", "event", "sink", "emitted", "replay")
    for time_, root, event, code, emitted, replay in zip(*(receipts[k].tolist() for k in keys)):
        hasher.update(f"R {time_!r} {root} {event} {names[code]} {emitted!r} {replay}\n".encode())
    return hasher.hexdigest()


def _sample_matches(sample: Tuple[int, List[Any]], same: Callable[..., bool],
                    columns: Dict[str, Any], lo: int, hi: int) -> bool:
    """Whether a ``_window_sample`` is rows ``lo..hi`` of the columns."""
    count, rows = sample
    expected = list(range(lo, hi, _SAMPLE_STRIDE)) + ([hi - 1] if hi > lo else [])
    return count == hi - lo and len(rows) == len(expected) and all(
        same(row, columns, index) for row, index in zip(rows, expected)
    )


def _same_receipt(row: Any, receipts: Dict[str, Any], index: int) -> bool:
    return row is not None and (
        row.time, row.root_id, row.event_id, row.sink, row.root_emitted_at, row.replay_count
    ) == (
        receipts["time"][index], receipts["root"][index], receipts["event"][index],
        receipts["names"][receipts["sink"][index]], receipts["emitted"][index],
        receipts["replay"][index],
    )


def _same_emit(row: Any, emits: Dict[str, Any], index: int) -> bool:
    return (row.time, row.root_id, row.source, row.replay_count) == (
        emits["time"][index], emits["root"][index],
        emits["names"][emits["source"][index]], emits["replay"][index],
    )


def _bin_counts(times: np.ndarray, end: float, bin_s: float) -> List[int]:
    inside = times[: np.searchsorted(times, end, side="left")]
    bins = int(np.ceil(end / bin_s))
    return np.bincount((inside / bin_s).astype(np.int64), minlength=bins)[:bins].tolist()


def inspect_log_analysis(inputs: Dict[str, Any], produced: Dict[str, Any]) -> PassResult:
    """Compare every query result with numpy working on the raw columns."""
    emits, receipts = inputs["emits"], inputs["receipts"]
    emit_t, receipt_t = emits["time"], receipts["time"]
    end = inputs["duration_s"]
    window = end / 20.0
    checks = Checks()

    for i, (got_receipts, got_emits) in enumerate(produced["windows"]):
        for label, got, times, same, columns in (
            ("receipts_between", got_receipts, receipt_t, _same_receipt, receipts),
            ("emits_between", got_emits, emit_t, _same_emit, emits),
        ):
            lo, hi = np.searchsorted(times, [i * window, (i + 1) * window], side="left")
            checks.expect(
                _sample_matches(got, same, columns, int(lo), int(hi)),
                f"{label} window {i} differs from the columns",
            )

    scans = produced["scans"]
    tail = int(np.searchsorted(receipt_t, 0.9 * end, side="left"))
    checks.expect(
        _sample_matches(scans["receipts_after"], _same_receipt, receipts, tail, len(receipt_t)),
        "receipts_after differs from the columns",
    )
    mid = int(np.searchsorted(receipt_t, end / 2, side="left"))
    checks.expect(
        _same_receipt(scans["first_receipt_after"], receipts, mid),
        "first_receipt_after differs from the columns",
    )
    # Old roots: first emitted before the cut.  Emits are time-ordered, so the
    # first occurrence np.unique reports is the first emission.
    roots, first = np.unique(emits["root"], return_index=True)
    first_emit = emit_t[first][np.searchsorted(roots, receipts["root"][mid:])]
    old = np.flatnonzero(first_emit < end / 2) + mid
    expected_old = int(old[receipt_t[old] == receipt_t[old[-1]]][0]) if len(old) else None
    got = scans["last_old_receipt"]
    checks.expect(
        (got is None) if expected_old is None else _same_receipt(got, receipts, expected_old),
        "last_old_receipt differs from the columns",
    )
    replayed = np.flatnonzero(receipts["replay"][mid:] > 0) + mid
    expected_replay = (
        int(replayed[receipt_t[replayed] == receipt_t[replayed[-1]]][0]) if len(replayed) else None
    )
    got = scans["last_replay_receipt"]
    checks.expect(
        (got is None) if expected_replay is None else _same_receipt(got, receipts, expected_replay),
        "last_replay_receipt differs from the columns",
    )
    distinct = len(np.unique(receipts["root"]))
    checks.expect(scans["distinct_roots_received"] == distinct, "distinct_roots_received differs")

    timelines = produced["timelines"]
    for kind, times in (("input", emit_t), ("output", receipt_t)):
        got_counts = [round(point.rate * 5.0) for point in timelines[kind]]
        checks.expect(got_counts == _bin_counts(times, end, 5.0), f"rate_timeline {kind} differs")
    inside = int(np.searchsorted(receipt_t, end, side="left"))
    latency = timelines["latency"]
    total_latency = float(np.sum(receipt_t[:inside] - receipts["emitted"][:inside]))
    checks.expect(
        [p.samples for p in latency] == [c for c in _bin_counts(receipt_t, end, 10.0) if c]
        and abs(sum(p.latency_s * p.samples for p in latency) - total_latency)
        <= 1e-9 * max(1.0, total_latency),
        "latency_timeline differs from the columns",
    )
    summary = timelines["summary"]
    checks.expect(
        (summary["source_emits"], summary["sink_receipts"], summary["distinct_roots_received"])
        == (len(emit_t), len(receipt_t), distinct),
        "summary differs from the columns",
    )
    if "reference_digest" not in inputs:  # seconds of work: once per process
        inputs["reference_digest"] = _reference_digest(emits, receipts)
    checks.expect(produced["digest"] == inputs["reference_digest"], "log_digest differs")

    counts = WorkCounts()
    counts.add("metrics.log.emits", len(emit_t))
    counts.add("metrics.log.receipts", len(receipt_t))
    digests = {
        "log": produced["digest"],
        "results": _text_digest([
            repr([(r[0], e[0]) for r, e in produced["windows"]]),
            repr(scans["receipts_after"][0]), repr(scans["distinct_roots_received"]),
            repr(timelines["input"]), repr(timelines["output"]), repr(latency), repr(summary),
        ]),
    }
    return PassResult(len(emit_t) + len(receipt_t), counts.finish(), digests, checks)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Steps every ``Simulator.run(until=...)`` call is advanced in: fine on the
    #: per-event engine (1-2 ms slices), coarse under batch stepping, where
    #: 128 steps would double the host time of the cascade.
    sim_steps: int
    prepare: Callable[[int, bool], Dict[str, Any]]
    run: Callable[[Dict[str, Any], Probe], Dict[str, Any]]
    inspect: Callable[[Dict[str, Any], Dict[str, Any]], PassResult]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper_matrix", 128, prepare_paper_matrix, run_paper_matrix,
                 inspect_paper_matrix),
        Workload("closed_loop", 128, prepare_closed_loop, run_closed_loop, inspect_closed_loop),
        Workload("grid100x_vector", 32, prepare_grid100x_vector, run_grid100x_vector,
                 inspect_grid100x_vector),
        Workload("log_analysis", 32, prepare_log_analysis, run_log_analysis,
                 inspect_log_analysis),
    )
}
