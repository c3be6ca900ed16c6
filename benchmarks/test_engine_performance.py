"""Engine performance benchmark suite (not a paper figure).

These measure the wall-clock cost of the simulation substrate itself across
its four hot layers:

* the **kernel** event loop (plain timers and the fire-and-forget fast path),
* **routing fan-out** (grouping selection, per-channel FIFO, batched
  same-channel deliveries),
* **event-log queries** (the binary-searched windows metrics and monitors use),
* the end-to-end **Grid steady state** (the paper's dominant workload).

Every benchmark registers its mean/stddev with the session collector in
``benchmarks/conftest.py``, which writes ``results/BENCH_engine.json``
including the speedup against the committed seed baseline
(``benchmarks/perf_baseline.json``).  They guard against performance
regressions that would make the full experiment matrix impractically slow.
"""

from __future__ import annotations

from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.event import Event
from repro.dataflow.grouping import Grouping
from repro.metrics.log import EventLog
from repro.metrics.timeline import latency_timeline, rate_timeline
from repro.sim import Simulator

from tests.conftest import build_cluster, fast_config
from repro.engine.config import ReliabilityConfig
from repro.engine.runtime import TopologyRuntime


#: Fixed round plan for the kernel microbenchmarks.  Auto-calibration let the
#: round count float with machine noise and produced ~35% relative stddev on
#: the 2.5 ms kernel loop, which made the 2x regression gate flap; a warmup
#: round plus a fixed floor of rounds keeps the allocator/bytecode caches hot
#: and the variance low without changing what is measured.
KERNEL_ROUNDS = 30
KERNEL_WARMUP_ROUNDS = 5


def test_kernel_event_throughput(benchmark, engine_bench_recorder):
    """Schedule-and-run throughput of the discrete-event kernel (Timer path)."""

    def run_10k_events():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(i * 0.001, lambda: None)
        sim.run()
        return sim.processed_events

    processed = benchmark.pedantic(
        run_10k_events, rounds=KERNEL_ROUNDS, iterations=1,
        warmup_rounds=KERNEL_WARMUP_ROUNDS,
    )
    assert processed == 10_000
    engine_bench_recorder("kernel_event_throughput", benchmark, events=10_000)


def test_kernel_fast_path_throughput(benchmark, engine_bench_recorder):
    """Throughput of the fire-and-forget scheduling fast path (no Timer handles).

    Falls back to the Timer path when the kernel predates ``schedule_fast``,
    so the committed seed baseline records the cost of the old path for the
    same workload.
    """

    def run_10k_events():
        sim = Simulator()
        schedule_fast = getattr(sim, "schedule_fast", None)
        if schedule_fast is not None:
            for i in range(10_000):
                schedule_fast(i * 0.001, _noop)
        else:  # seed kernel
            for i in range(10_000):
                sim.schedule(i * 0.001, _noop)
        sim.run()
        return sim.processed_events

    processed = benchmark.pedantic(
        run_10k_events, rounds=KERNEL_ROUNDS, iterations=1,
        warmup_rounds=KERNEL_WARMUP_ROUNDS,
    )
    assert processed == 10_000
    engine_bench_recorder("kernel_fast_path_throughput", benchmark, events=10_000)


def _noop() -> None:
    return None


def _fanout_runtime() -> TopologyRuntime:
    """A deployed two-stage fan-out topology for routing benchmarks."""
    builder = TopologyBuilder("fanout")
    builder.add_source("source", rate=1.0)
    builder.add_task("up", parallelism=1, latency_s=0.001)
    builder.add_task("down", parallelism=8, latency_s=0.001)
    builder.add_sink("sink")
    builder.connect("source", "up")
    builder.connect("up", "down", grouping=Grouping.ALL)
    builder.connect("down", "sink")
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=6)
    runtime = TopologyRuntime(builder.build(), cluster, sim=sim, config=fast_config("dcr"))
    runtime.deploy()
    for executor in runtime.executors.values():
        executor.start()
    return runtime


def test_routing_fanout_cost(benchmark, engine_bench_recorder):
    """Cost of routing 50 batches of 16 events through an 8-way ALL fan-out.

    Exercises grouping selection, the per-channel FIFO bookkeeping and (post
    overhaul) the batched same-channel delivery path: each ``route()`` call
    emits 16 events on the same 8 channels in one tick.
    """

    def fan_out():
        runtime = _fanout_runtime()
        router = runtime.router
        sim = runtime.sim
        for round_index in range(50):
            events = [
                Event.data("up", payload={"seq": round_index * 16 + i}, created_at=sim.now)
                for i in range(16)
            ]
            router.route("up#0", "up", events)
            sim.run(until=sim.now + 1.0)
        return router.routed_count

    routed = benchmark.pedantic(fan_out, rounds=5, iterations=1, warmup_rounds=1)
    # 50 rounds x 16 events x 8 ALL-grouping targets, plus downstream hops.
    assert routed >= 50 * 16 * 8
    engine_bench_recorder("routing_fanout", benchmark, events=routed)


class _Clock:
    """Minimal stand-in for the Simulator in log-only benchmarks."""

    def __init__(self) -> None:
        self.now = 0.0


def _synthetic_log(num_records: int = 50_000) -> EventLog:
    """An EventLog with ``num_records`` emits and receipts in time order."""
    clock = _Clock()
    log = EventLog(clock)  # type: ignore[arg-type]
    for i in range(num_records):
        clock.now = i * 0.01
        log.record_source_emit(root_id=i, source="source", replay_count=0)
        log.record_sink_receipt(
            root_id=i, event_id=i * 7 + 1, sink="sink",
            root_emitted_at=clock.now - 0.5, replay_count=1 if i % 97 == 0 else 0,
        )
    clock.now = num_records * 0.01
    return log


def test_log_query_cost(benchmark, engine_bench_recorder):
    """Cost of the windowed log queries metrics and monitors issue every sample.

    Replays the query mix of one monitoring pass over a 50k-record log:
    short sliding windows, recovery-metric scans and both timelines.
    """
    log = _synthetic_log()
    end = log.sim.now

    def query_mix():
        total = 0
        for i in range(100):
            start = (i * 37) % int(end - 10)
            total += len(log.receipts_between(start, start + 10.0))
            total += len(log.emits_between(start, start + 10.0))
        total += len(log.receipts_after(end - 30.0))
        first = log.first_receipt_after(end / 2)
        total += 0 if first is None else 1
        last_old = log.last_old_receipt(end / 2)
        total += 0 if last_old is None else 1
        last_replay = log.last_replay_receipt(end / 2)
        total += 0 if last_replay is None else 1
        total += log.distinct_roots_received()
        total += len(rate_timeline(log, kind="output", bin_s=5.0))
        total += len(latency_timeline(log, window_s=10.0))
        return total

    total = benchmark(query_mix)
    assert total > 0
    # 50k emits + 50k receipts live in the log every query pass scans.
    engine_bench_recorder("log_query", benchmark, events=100_000)


def _simulated_events(runtime: TopologyRuntime) -> int:
    """Kernel callbacks plus cascade steps the batch stepper ran inline."""
    stepper = getattr(runtime, "batch_stepper", None)
    inline = getattr(stepper, "inline_events", 0) if stepper is not None else 0
    return runtime.sim.processed_events + int(inline)


def test_grid_steady_state_simulation_cost(benchmark, engine_bench_recorder):
    """Wall-clock cost of simulating 10 s of the Grid dataflow in steady state."""
    counts = {}

    def simulate():
        sim = Simulator()
        cluster = build_cluster(sim, worker_vms=11)
        config = fast_config("dcr")
        config.batch_stepping = False  # the per-event kernel: what a declined tick runs on
        runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=config)
        runtime.deploy()
        runtime.start()
        sim.run(until=10.0)
        counts["events"] = _simulated_events(runtime)
        return len(runtime.log.sink_receipts)

    receipts = benchmark.pedantic(simulate, rounds=5, iterations=1, warmup_rounds=1)
    # 32 ev/s for ~10 s minus pipeline fill.
    assert receipts > 200
    engine_bench_recorder("grid_steady_state", benchmark, events=counts["events"])


def test_grid_steady_state_batched_cost(benchmark, engine_bench_recorder):
    """The same 10 s Grid steady state under the batch-stepping cascade.

    Identical workload to ``grid_steady_state`` on the engine's default path
    (one 10 s window: swept); the committed baseline entry is the *seed
    per-event* mean for this workload, so ``speedup_vs_seed`` in
    ``BENCH_engine.json`` is the headline batched-kernel speedup.
    """

    counts = {}

    def simulate():
        sim = Simulator()
        cluster = build_cluster(sim, worker_vms=11)
        runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=fast_config("dcr"))
        runtime.deploy()
        runtime.start()
        sim.run(until=10.0)
        counts["events"] = _simulated_events(runtime)
        return len(runtime.log.sink_receipts)

    receipts = benchmark.pedantic(simulate, rounds=5, iterations=1, warmup_rounds=1)
    assert receipts > 200
    engine_bench_recorder("grid_steady_state_batched", benchmark, events=counts["events"])


#: (windows, seconds a window) either side of the stepper's cost rule at the
#: paper's 8 ev/s: 32 roots a window are swept, 8 are left to the kernel.
_WINDOW_SCHEDULE = ((40, 4.0), (160, 1.0))


def _windowed_grid(batch_stepping: bool) -> TopologyRuntime:
    """The Grid at the paper's 8 ev/s, run through ``_WINDOW_SCHEDULE``."""
    sim = Simulator()
    config = fast_config("dcr")
    config.batch_stepping = batch_stepping
    runtime = TopologyRuntime(
        topologies.grid(), build_cluster(sim, worker_vms=11), sim=sim, config=config
    )
    runtime.deploy()
    runtime.start()
    for windows, step_s in _WINDOW_SCHEDULE:
        for _ in range(windows):
            sim.run(until=sim.now + step_s)
    return runtime


def test_grid_windowed_paper_rate_cost(benchmark, engine_bench_recorder):
    """The cost rule's regression benchmark: 160 s of the Grid at 8 ev/s in 40
    windows of 4 s, then 160 s in 160 windows of 1 s, on the default engine.

    The regime ``repro figure`` / ``repro elastic`` live in: every monitor
    sample, controller tick and checkpoint interval cuts a cascade, so a
    cascade's *fixed* cost decides whether sweeping a window beats running it
    per event.  The engine picks per tick (``batch._MIN_WINDOW_ROOTS``): the
    4 s windows must be swept, one cascade each, and the 1 s windows declined
    as ``short-window``, tick by tick, at no measurable cost over the kernel.
    ``extra_info`` carries the host cost per cascade and the per-event
    engine's time on the same schedule (``batch_stepping = False``); the
    committed baseline entry is that per-event time, so ``speedup_vs_seed``
    is the default engine against the kernel -- a rule that sweeps where it
    should not, or declines at a price, drags it towards (or below) 1.
    """
    import time

    counts = {}

    def simulate():
        runtime = _windowed_grid(batch_stepping=True)
        counts["events"] = _simulated_events(runtime)
        counts["cascades"] = runtime.batch_stepper.cascades
        counts["declines"] = dict(runtime.batch_stepper.declines)
        return len(runtime.log.sink_receipts)

    receipts = benchmark.pedantic(simulate, rounds=5, iterations=1, warmup_rounds=1)
    assert receipts > 9_000
    # One cascade a 4 s window (the first tick of the run rides the cold
    # start); every tick of the 1 s windows declined by the rule.
    assert 40 <= counts["cascades"] <= 42
    assert counts["declines"] == {"short-window": 160 * 8}
    started = time.perf_counter()
    assert len(_windowed_grid(batch_stepping=False).log.sink_receipts) == receipts
    benchmark.extra_info["per_event_s"] = time.perf_counter() - started
    benchmark.extra_info["cascades"] = counts["cascades"]
    stats = getattr(benchmark.stats, "stats", benchmark.stats) if benchmark.stats else None
    if stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["mean_over_per_event"] = stats.mean / benchmark.extra_info["per_event_s"]
    engine_bench_recorder("grid_windowed_paper_rate", benchmark, events=counts["events"])


def test_grid_steady_state_columnar_cost(benchmark, engine_bench_recorder):
    """10 s of a 100x-rate Grid under batch stepping.

    Same utilization as ``grid_steady_state`` (source rate x100, per-task
    latency /100) but ~100x the event volume — the regime the event log's
    numpy columns exist for: cascades write straight into its arrays with no
    per-event object on the fast path.  The committed baseline is the
    *seed* engine measured on this exact workload, so ``speedup_vs_seed`` in
    ``BENCH_engine.json`` is the columnar headline and ``events_per_second``
    the absolute throughput figure the regression gate floors at 3M ev/s.
    """
    counts = {}

    def simulate():
        sim = Simulator()
        cluster = build_cluster(sim, worker_vms=11)
        config = fast_config("dcr")
        runtime = TopologyRuntime(
            topologies.grid(rate=800.0, latency_s=0.001), cluster, sim=sim, config=config
        )
        runtime.deploy()
        runtime.start()
        sim.run(until=10.0)
        counts["events"] = _simulated_events(runtime)
        return len(runtime.log.sink_receipts)

    receipts = benchmark.pedantic(simulate, rounds=5, iterations=1, warmup_rounds=1)
    # 3200 ev/s at the sink for ~10 s minus pipeline fill.
    assert receipts > 20_000
    engine_bench_recorder("grid_steady_state_columnar", benchmark, events=counts["events"])


def test_grid_steady_state_acked_cost(benchmark, engine_bench_recorder):
    """The 100x-rate Grid steady state with per-tuple acking on.

    Same workload as ``grid_steady_state_columnar`` but every tuple carries a
    Storm-style XOR ack tree: registered at emission, anchored per routed
    copy, acked per completion.  Under batch stepping the cascade folds that
    whole stream per tuple tree with ``bitwise_xor`` reductions and commits
    it through the acker's bulk APIs.  The committed baseline entry is the
    *per-event* (non-batched) engine measured on this exact acked workload, so
    ``speedup_vs_seed`` is the vectorized-acking headline.  The timeout is
    large relative to the run and ``max_spout_pending`` is uncapped (Storm's
    own default leaves it null) so steady state stays loss-free.
    """
    counts = {}

    def simulate():
        sim = Simulator()
        cluster = build_cluster(sim, worker_vms=11)
        config = fast_config("dcr")
        config.reliability = ReliabilityConfig(
            ack_all_events=True,
            ack_timeout_s=30.0,
            periodic_checkpoint_interval_s=None,
            capture_on_prepare=False,
            max_spout_pending=None,
        )
        runtime = TopologyRuntime(
            topologies.grid(rate=800.0, latency_s=0.001), cluster, sim=sim, config=config
        )
        runtime.deploy()
        runtime.start()
        sim.run(until=10.0)
        counts["events"] = _simulated_events(runtime)
        # ~800 trees/s for 10 s, nearly all completed (loss-free steady state).
        assert runtime.acker.stats.completed > 7_000
        return len(runtime.log.sink_receipts)

    receipts = benchmark.pedantic(simulate, rounds=5, iterations=1, warmup_rounds=1)
    assert receipts > 20_000
    engine_bench_recorder("grid_steady_state_acked", benchmark, events=counts["events"])


def test_shard_scaling_cost(benchmark, engine_bench_recorder):
    """Wall-clock cost of a 4-shard partition-parallel Grid run (pool of 4).

    Covers the whole sharded path: per-shard hermetic simulation in worker
    processes, result pickling and the deterministic merge.  The committed
    baseline was recorded alongside the feature (the seed had no sharded
    mode), so the gate guards the sharding machinery itself.
    """
    from repro.experiments.sharded import run_sharded_experiment

    counts = {}

    def simulate():
        result = run_sharded_experiment(
            dag="grid", shards=4, workers=4, duration_s=10.0, seed=2018
        )
        counts["events"] = len(result.log.source_emits) + len(result.log.sink_receipts)
        return len(result.log.sink_receipts)

    receipts = benchmark.pedantic(simulate, rounds=5, iterations=1, warmup_rounds=1)
    assert receipts > 200
    engine_bench_recorder("shard_scaling", benchmark, events=counts["events"])


def _sink_drain_runtime() -> TopologyRuntime:
    """A deployed minimal chain whose (idle, zero-service-time) sink is about to be flooded."""
    builder = TopologyBuilder("sinkdrain")
    builder.add_source("source", rate=1.0)
    builder.add_task("work", parallelism=1, latency_s=0.001)
    builder.add_sink("sink")
    builder.chain("source", "work", "sink")
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=2)
    runtime = TopologyRuntime(builder.build(), cluster, sim=sim, config=fast_config("dcr"))
    runtime.deploy()
    for executor in runtime.executors.values():
        if executor.task.name != "source":  # keep the generator quiet
            executor.start()
    return runtime


def _drain_sink(num_events: int = 20_000) -> int:
    """Flood the sink with deliveries and run to quiescence; returns receipts recorded."""
    runtime = _sink_drain_runtime()
    deliver = runtime.deliver
    for i in range(num_events):
        event = Event.data("work", payload={"seq": i}, created_at=0.0)
        deliver("sink#0", event, "work#0")
    runtime.sim.run()
    return len(runtime.log.sink_receipts)


def test_sink_drain(benchmark, engine_bench_recorder):
    """Cost of 20k deliveries into a sink: event construction, ``deliver`` and
    the staged log write.  Zero-time sink service completes inside
    ``deliver()``, so no kernel event runs per receipt (the baseline is the
    batched 0 s-completion drain this replaced).
    """
    receipts = benchmark.pedantic(_drain_sink, rounds=5, iterations=1, warmup_rounds=1)
    assert receipts == 20_000
    engine_bench_recorder("sink_drain", benchmark, events=20_000)
