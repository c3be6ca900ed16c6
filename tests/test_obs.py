"""Unified telemetry layer: registry, tracer, exporters, determinism, inertness.

Covers the observability acceptance criteria end to end:

* registry unit behaviour (get-or-create keying, kind-mismatch and
  negative-increment guards, deterministic snapshot order);
* tracer unit behaviour (sequential ids, double-end / end-before-start
  guards, explicit parenting, canonical content excludes wall clocks);
* the trace of a Grid 2x surge run, read from its records after the run:
  every controller tick span carries exactly the five stage children
  (sense -> forecast -> plan -> place -> act) with forecast/plan payloads, a
  migration span nests its checkpoint-wave span, and the queue gauges keep
  the high-water marks of the ticks;
* determinism: same-seed runs produce byte-identical simulated-time
  (canonical) trace content, pinned for four runs;
* a trace is a read: a run enters no tracer or registry method, and building
  its trace twice gives the same text and leaves the run as it was;
* exporters: schema-validated JSONL round-trip, validator rejections, Chrome
  trace structure, text summary;
* the shared ``run_metadata`` helper used by every ``results/`` JSON writer.
"""

import hashlib
import inspect
import json

import pytest

from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.graph import Dataflow, Edge
from repro.engine.runtime import TopologyRuntime
from repro.experiments.chaos import run_chaos_run
from repro.experiments.elastic import run_elastic_experiment
from repro.experiments.multi import run_multi_experiment
from repro.experiments.predictive import run_predictive_experiment
from repro.metrics.metadata import config_digest, run_metadata
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    Telemetry,
    TRACE_SCHEMA,
    canonical_trace_text,
    chrome_trace,
    summarize,
    trace_lines,
    validate_trace_jsonl,
    write_trace_jsonl,
)
from repro.sim import Simulator
from repro.sim.shard import log_digest

from tests.conftest import build_cluster, fast_config
from tests.test_chaos import CHAOS_GOLDENS

STAGES = ["sense", "forecast", "plan", "place", "act"]


# ------------------------------------------------------------------ registry
class TestMetricsRegistry:
    def test_get_or_create_is_keyed_by_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("router", "deliveries", shard="0")
        b = registry.counter("router", "deliveries", shard="1")
        assert a is not b
        assert registry.counter("router", "deliveries", shard="0") is a
        assert len(registry) == 2

    def test_kind_mismatch_fails_loudly(self):
        registry = MetricsRegistry()
        registry.counter("kernel", "events")
        with pytest.raises(TypeError, match="already registered as counter"):
            registry.gauge("kernel", "events")

    def test_counter_holds_the_last_scraped_total(self):
        counter = MetricsRegistry().counter("kernel", "events")
        assert counter.value == 0.0
        counter.set_total(7)
        counter.set_total(5)
        assert counter.value == 5.0

    def test_gauge_tracks_high_water(self):
        gauge = MetricsRegistry().gauge("executor", "queue_depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high_water == 5

    def test_histogram_summary(self):
        histogram = MetricsRegistry().histogram("checkpoint", "wave_duration_s")
        assert histogram.mean is None
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == 2.0

    def test_snapshot_order_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("router", "deliveries", shard="1")
        registry.counter("kernel", "events")
        registry.gauge("router", "backlog")
        keys = [(s["subsystem"], s["name"]) for s in registry.snapshot()]
        assert keys == sorted(keys)


# -------------------------------------------------------------------- tracer
class TestSpanTracer:
    def test_sequential_ids_and_parenting(self):
        tracer = SpanTracer(clock=lambda: 0.0)
        tick = tracer.begin("controller.tick", "control", 15.0)
        stage = tracer.begin("sense", "control.stage", 15.0, parent=tick)
        assert (tick.span_id, stage.span_id) == (0, 1)
        assert stage.parent_id == tick.span_id
        tracer.end(stage, 15.0)
        tracer.end(tick, 15.0, outcome="in-band")
        assert tick.args["outcome"] == "in-band"
        assert tracer.children_of(tick) == [stage]
        assert all(span.end_s is not None for span in tracer.spans)

    def test_double_end_and_time_travel_rejected(self):
        tracer = SpanTracer(clock=lambda: 0.0)
        span = tracer.begin("x", "control", 10.0)
        with pytest.raises(ValueError, match="before its start"):
            tracer.end(span, 5.0)
        tracer.end(span, 10.0)
        with pytest.raises(ValueError, match="already ended"):
            tracer.end(span, 11.0)

    def test_canonical_excludes_wall_clock(self):
        tracer = SpanTracer(clock=lambda: 1234.5)
        span = tracer.emit("fault.evict", "chaos", 100.0, 160.0, vm_id="d2-001")
        canonical = span.canonical()
        assert "wall_start_s" not in canonical
        assert "wall_end_s" not in canonical
        full = span.as_dict()
        assert full["wall_start_s"] == 1234.5
        assert full["args"] == {"vm_id": "d2-001"}


# --------------------------------------------------- tentpole: grid 2x surge
def _traced_run():
    return run_elastic_experiment(
        dag="grid", strategy="ccr", profile="surge", duration_s=600.0, seed=2018
    )


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


@pytest.fixture(scope="module")
def trace(traced):
    return traced.trace()


class TestControlPlaneTrace:
    def test_every_tick_has_the_five_stage_children(self, trace):
        tracer = trace.tracer
        ticks = tracer.by_category("control")
        assert ticks, "the controller never ticked"
        for tick in ticks:
            children = tracer.children_of(tick)
            stage_children = [c for c in children if c.category == "control.stage"]
            assert [c.name for c in stage_children] == STAGES
            assert tick.args.get("outcome") is not None

    def test_stage_spans_carry_forecast_and_plan_payloads(self, trace):
        tracer = trace.tracer
        stages = tracer.by_category("control.stage")
        forecasts = [s for s in stages if s.name == "forecast" and "skipped" not in s.args]
        plans = [s for s in stages if s.name == "plan" and "skipped" not in s.args]
        assert forecasts and plans
        for span in forecasts:
            assert "forecast_rate_ev_s" in span.args
            assert "observed_rate_ev_s" in span.args
        for span in plans:
            assert "target_tier" in span.args

    def test_surge_produces_a_migration_span_nesting_checkpoint_waves(self, trace):
        tracer = trace.tracer
        migrations = tracer.by_category("migration")
        assert migrations, "the 2x surge must trigger at least one migration"
        out = [m for m in migrations if m.name == "migration.out"]
        assert out
        children = tracer.children_of(out[0])
        names = {c.name for c in children}
        assert any(n.startswith("checkpoint.wave.") for n in names), names
        assert "checkpoint.prepare" in names
        assert "rebalance" in names

    def test_registry_scraped_the_engine(self, trace):
        snapshot = {
            (s["subsystem"], s["name"]): s
            for s in trace.registry.snapshot()
            if not s["labels"]
        }
        assert snapshot[("kernel", "events_stepped")]["value"] > 0
        assert snapshot[("router", "deliveries")]["value"] > 0
        assert snapshot[("router", "route_cache_hits")]["value"] > 0

    def test_acker_bulk_counters_scraped_without_double_count(self, traced):
        telemetry = traced.trace()
        telemetry.scrape(traced.runtime)
        snapshot = {
            (s["subsystem"], s["name"]): s["value"]
            for s in telemetry.registry.snapshot()
            if not s["labels"]
        }
        for name in ("bulk_anchors", "bulk_acks", "replays"):
            assert ("acker", name) in snapshot
        before = {k: v for k, v in snapshot.items() if k[0] == "acker"}
        telemetry.scrape(traced.runtime)
        after = {
            (s["subsystem"], s["name"]): s["value"]
            for s in telemetry.registry.snapshot()
            if not s["labels"] and s["subsystem"] == "acker"
        }
        assert after == before

    def test_batch_stepper_tiers_and_declines_scraped(self, traced, trace):
        # Every run has a stepper now: the surge run's series say what it did.
        scraped = {
            (s["name"], s["labels"].get("reason")): s["value"]
            for s in trace.registry.snapshot() if s["subsystem"] == "engine.batch"
        }
        stepper = traced.runtime.batch_stepper
        assert scraped["cascades", None] == stepper.cascades > 0
        assert scraped["declines", "source-paused"] == stepper.declines["source-paused"] > 0
        config = fast_config("dsm")
        sim = Simulator()
        runtime = TopologyRuntime(
            topologies.grid(), build_cluster(sim, worker_vms=11), sim=sim, config=config
        )
        runtime.deploy()
        runtime.start()
        for _ in range(4):  # windowed, across the periodic checkpoint waves
            sim.run(until=sim.now + 2.5)
        stepper = runtime.batch_stepper
        assert stepper.cascades > 0 and stepper.declines
        telemetry = Telemetry()
        for _ in range(2):  # rescrapes overwrite, never double-count
            telemetry.scrape(runtime)
            series = {
                (s["name"], s["labels"].get("reason")): s["value"]
                for s in telemetry.registry.snapshot()
                if s["subsystem"] == "engine.batch"
            }
            assert series.pop(("cascades", None)) == stepper.cascades
            assert series.pop(("inline_events", None)) == stepper.inline_events
            assert series.pop(("rounds", None)) == stepper.rounds > 0
            assert series.pop(("scan_fallbacks", None)) == stepper.scan_fallbacks
            assert series.pop(("plan_builds", None)) == stepper.plan_builds == 1
            assert {reason: count for (_, reason), count in series.items()} == stepper.declines
        assert "inflight-unmodelled" in stepper.declines  # a checkpoint wave in flight
        assert "short-window" in stepper.declines  # what the wave left of its window

    @pytest.mark.parametrize("reason", ["custom-logic", "duplicate-edges"])
    def test_dataflows_that_never_engage_are_tallied_by_name(self, reason):
        """A dataflow the stepper can never sweep says so in its declines:
        every tick goes to the per-event kernel under that name."""
        builder = TopologyBuilder(reason)
        builder.add_source("source", rate=80.0)  # never idle between two ticks
        builder.add_task("a", parallelism=2, latency_s=0.02, logic=(lambda payload, state: [payload])
                         if reason == "custom-logic" else None)
        builder.add_sink("sink")
        builder.chain("source", "a", "sink")
        dataflow = builder.build()
        if reason == "duplicate-edges":  # the builder refuses them; Dataflow itself does not
            dataflow = Dataflow(reason, dataflow.tasks, dataflow.edges + [Edge("a", "sink")])
        config = fast_config("dcr")
        sim = Simulator()
        runtime = TopologyRuntime(dataflow, build_cluster(sim), sim=sim, config=config)
        runtime.deploy()
        runtime.start()
        for _ in range(6):
            sim.run(until=sim.now + 0.5)
        stepper = runtime.batch_stepper
        assert stepper.cascades == 0
        assert set(stepper.declines) == {reason} and stepper.declines[reason] > 0
        telemetry = Telemetry()
        telemetry.scrape(runtime)
        scraped = {
            s["labels"].get("reason"): s["value"]
            for s in telemetry.registry.snapshot()
            if s["subsystem"] == "engine.batch" and s["name"] == "declines"
        }
        assert scraped[reason] == stepper.declines[reason]

    def test_kernel_events_not_executed_are_scraped(self, traced):
        """engine.source / engine.sink: the polls a throttled spout parked
        through and the 0 s sink completions that ran inside deliver()."""

        def series(telemetry, runtime):
            telemetry.scrape(runtime)
            return {
                (s["subsystem"], s["name"]): s["value"]
                for s in telemetry.registry.snapshot()
                if s["subsystem"] in ("engine.source", "engine.sink")
            }

        # The CCR surge run never acks data: no throttle, so nothing parks;
        # its sinks complete inline except for what a restore re-queues.
        scraped = series(Telemetry(), traced.runtime)
        sinks = traced.runtime.sink_executors
        assert scraped[("engine.source", "drain_parks")] == 0
        assert scraped[("engine.source", "drain_wakes")] == 0
        assert scraped[("engine.sink", "inline_completions")] == sum(
            s.inline_completions for s in sinks
        )
        assert 0 < scraped[("engine.sink", "inline_completions")] <= len(traced.log.sink_receipts)

        # A DSM spout held at a small cap parks and wakes once per tree.
        config = fast_config("dsm")
        config.reliability.max_spout_pending = 2
        sim = Simulator()
        runtime = TopologyRuntime(
            topologies.linear(rate=40.0), build_cluster(sim, worker_vms=4), sim=sim, config=config
        )
        runtime.deploy()
        runtime.start()
        sim.run(until=5.0)
        source = runtime.source_executors[0]
        assert source.drain_parks > 10 and source.drain_wakes > 10
        telemetry = Telemetry()
        for _ in range(2):  # rescrapes overwrite, never double-count
            scraped = series(telemetry, runtime)
            assert scraped[("engine.source", "drain_parks")] == source.drain_parks
            assert scraped[("engine.source", "drain_wakes")] == source.drain_wakes

    def test_queue_gauges_keep_the_high_water_of_the_ticks(self, traced, trace):
        """Replayed tick by tick, then scraped: a queue that drained before
        the end still shows its peak."""
        gauges = [s for s in trace.registry.snapshot() if s["name"] == "queue_depth"]
        assert len(gauges) == len(traced.runtime.executors) == 23
        assert sum(1 for g in gauges if g["high_water"] > g["value"]) == 2
        peaks = {}
        for tick in traced.controller.ticks:
            for executor_id, depth in tick.queue_depths:
                peaks[executor_id] = max(peaks.get(executor_id, 0), depth)
        for gauge in gauges:
            executor_id = gauge["labels"]["executor"]
            assert gauge["high_water"] == max(peaks[executor_id], gauge["value"])

    def test_same_seed_canonical_trace_is_byte_identical(self, trace):
        again = _traced_run()
        assert canonical_trace_text(trace) == canonical_trace_text(again.trace())

    def test_a_trace_is_a_read(self, traced):
        """Building a trace reads the run and changes nothing in it: twice
        built, the text is the same, and the log and the engine's counts
        are what the run left."""
        runtime = traced.runtime
        before = (
            log_digest(traced.log),
            runtime.sim.processed_events,
            runtime.batch_stepper.inline_events,
        )
        first, second = traced.trace(), traced.trace()
        assert canonical_trace_text(first) == canonical_trace_text(second)
        assert first.tracer.spans and first.tracer.spans[0].name == "controller.tick"
        assert (
            log_digest(traced.log),
            runtime.sim.processed_events,
            runtime.batch_stepper.inline_events,
        ) == before

    def test_a_run_enters_no_tracer_or_registry_method(self, monkeypatch):
        """Nothing traces while the simulation runs: every method of the
        tracer, the registry and the telemetry facade is counted, and the
        run calls none.  Building its trace afterwards enters the registry
        once per series per tick and scrape, never per event."""
        calls = {}

        def counted(cls, method):
            def wrapper(*args, **kwargs):
                calls[cls.__name__] = calls.get(cls.__name__, 0) + 1
                return method(*args, **kwargs)

            return wrapper

        for cls in (SpanTracer, MetricsRegistry, Telemetry):
            for name, method in list(vars(cls).items()):
                if inspect.isfunction(method):
                    monkeypatch.setattr(cls, name, counted(cls, method))
        run = _traced_run()
        assert calls == {}
        trace = run.trace()
        ticks = len(run.controller.ticks)
        events = run.runtime.sim.processed_events + run.runtime.batch_stepper.inline_events
        assert ticks == len(trace.tracer.by_category("control")) == 40
        assert calls["SpanTracer"] > 0
        # A lookup enters two registry methods (counter / gauge / histogram,
        # then _get); a series is looked up at most once per tick's queue
        # replay and once in the final scrape.
        assert calls["MetricsRegistry"] <= (ticks + 1) * 2 * len(trace.registry)
        assert calls["MetricsRegistry"] < events / 50


#: Run -> sha256 of its canonical trace text, recorded before traces were
#: read from the records (when the controller wrote tick spans live).
TRACE_GOLDENS = {
    "elastic.grid.ccr.surge": "99a2d3cad022c1abb31101a9f0f1396adae0f5546b9544a8caa95593b6353f6b",
    "chaos.grid-keyed.dsm.notice": "668c82e3928602706a6645fa2be336743f31a0de64f5939843612464d4dd7be1",
    "predict.grid.reactive": "2bb70bdb1006c6c5d4f1f3fb7bb22f2379293ee7448e11e9517a8a6c56197cb3",
    "predict.grid.lookahead": "dcf0cd7dde1012546dea068eb6cde7f93fa20fb4b829cacc14abe8becbdd9ce5",
    # A shared fleet no fault hit: every tenant's ticks, migrations, arbiter,
    # every tenant's checkpoint waves, then the shared kernel's metrics and
    # each tenant's, labelled with it.
    "multi.traffic+linear": "be477246c2edf7716c882b29c0a50dab4ca7331c653519d13590f2d80c872caa",
    # An overrun evacuation, then the recovery with its state.restore child.
    "chaos.kill-mid-evacuation": "f2507be6dc8c1c714538e083fb4d535f2a05091444582b702f02f4646ac7bde0",
    # No notice: recoveries only.
    "chaos.grid-keyed.dsm.oblivious": "ffa4c3c6013fa188a78011b8c562141dc9cac519f2d2c4d3d21531994b1da2d9",
}


@pytest.fixture(scope="module")
def golden_traces(traced):
    predict = run_predictive_experiment(
        dag="grid", policies=("reactive", "lookahead"), duration_s=600.0, seed=2018
    )
    chaos = run_chaos_run(
        dag="grid-keyed", strategy="dsm", mode="notice", duration_s=450.0, storm_count=2
    )
    oblivious = run_chaos_run(
        dag="grid-keyed", strategy="dsm", mode="oblivious", duration_s=450.0, storm_count=2
    )
    multi = run_multi_experiment(
        dags=("traffic", "linear"), duration_s=300.0, include_private_baseline=False
    )
    return {
        "elastic.grid.ccr.surge": traced.trace(),
        "chaos.grid-keyed.dsm.notice": chaos.trace(),
        "predict.grid.reactive": predict.trace("reactive"),
        "predict.grid.lookahead": predict.trace("lookahead"),
        "multi.traffic+linear": multi.trace(),
        "chaos.kill-mid-evacuation": run_chaos_run(**CHAOS_GOLDENS["kill-mid-evacuation"][0]).trace(),
        "chaos.grid-keyed.dsm.oblivious": oblivious.trace(),
    }


@pytest.mark.parametrize("run", sorted(TRACE_GOLDENS))
def test_canonical_trace_is_pinned(golden_traces, run):
    text = canonical_trace_text(golden_traces[run])
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_GOLDENS[run]


@pytest.fixture(scope="module")
def shared_fleet():
    return run_multi_experiment(
        dags=("traffic", "linear"), duration_s=300.0, include_private_baseline=False
    )


def test_a_shared_fleet_trace_has_every_tenants_ticks(shared_fleet):
    """One multi-tenant trace: each tenant's ticks, labelled with the tenant
    and carrying the five stages, beside its migrations and the arbiter's
    verdicts."""
    result = shared_fleet
    trace = result.trace()
    tracer = trace.tracer
    manager = result.shared.manager
    ticks = tracer.by_category("control")
    assert trace.meta["tenants"] == ["linear", "traffic"]
    for name in ("linear", "traffic"):
        own = [tick for tick in ticks if tick.args["tenant"] == name]
        assert len(own) == len(manager.tenant(name).controller.ticks) > 0
    for tick in ticks:
        assert [c.name for c in tracer.children_of(tick)] == STAGES
    assert tracer.by_category("migration") and tracer.by_category("arbiter")
    assert canonical_trace_text(result.trace()) == canonical_trace_text(trace)
    # The shared kernel is scraped once; every tenant's data plane under its name.
    metrics = trace.registry.snapshot()
    [stepped] = [m for m in metrics if (m["subsystem"], m["name"]) == ("kernel", "events_stepped")]
    assert stepped["labels"] == {} and stepped["value"] == manager.sim.processed_events
    for name in ("linear", "traffic"):
        runtime = manager.tenant(name).runtime
        own = {
            (m["subsystem"], m["name"], m["labels"].get("reason")): m.get("value")
            for m in metrics if m["labels"].get("tenant") == name
        }
        assert own["router", "deliveries", None] == runtime.router.routed_count > 0
        assert own["acker", "registered", None] == runtime.acker.stats.registered
        declines = runtime.batch_stepper.declines
        assert own["engine.batch", "declines", "shared-simulator"] == declines["shared-simulator"] > 0
        assert not any(subsystem == "kernel" for subsystem, _, _ in own)


def test_a_shared_fleet_trace_labels_each_tenants_checkpoint_waves(shared_fleet):
    """Every tenant's checkpoint waves are counted under its own name, and no
    wave series is left without a tenant."""
    metrics = shared_fleet.trace().registry.snapshot()
    waves = [m for m in metrics if (m["subsystem"], m["name"]) == ("checkpoint", "waves")]
    assert all("tenant" in m["labels"] for m in waves)
    for name in ("linear", "traffic"):
        history = shared_fleet.shared.manager.tenant(name).runtime.checkpoints.history
        counted = {
            (m["labels"]["action"], m["labels"]["status"]): m["value"]
            for m in waves if m["labels"]["tenant"] == name
        }
        expected = {}
        for wave in history:
            key = (wave.action.value, wave.status.value)
            expected[key] = expected.get(key, 0) + 1
        assert counted == expected
    assert any(m["labels"]["tenant"] == "traffic" for m in waves)


def test_a_shared_fleet_trace_has_each_tenants_wave_spans(shared_fleet):
    """One ``checkpoint.wave.*`` span per checkpoint wave of each tenant,
    labelled with the tenant, as a single-fleet trace has one per wave."""
    waves = [span for span in shared_fleet.trace().tracer.by_category("checkpoint")
             if span.name.startswith("checkpoint.wave.")]
    assert all("tenant" in span.args for span in waves)
    for name in ("linear", "traffic"):
        history = shared_fleet.shared.manager.tenant(name).runtime.checkpoints.history
        own = [(span.name, span.start_s) for span in waves if span.args["tenant"] == name]
        assert own == [(f"checkpoint.wave.{wave.action.value}", wave.started_at) for wave in history]
        assert own


def test_a_shared_fleet_trace_carries_every_arbitration(shared_fleet):
    """The arbiter's audit, one ``arbiter`` span per proposal and abort, each
    with the tenant, slots, verdict, reason and budget position."""
    arbiter = shared_fleet.shared.manager.arbiter
    spans = shared_fleet.trace().tracer.by_category("arbiter")
    records = list(arbiter.log) + list(arbiter.aborts)
    assert len(spans) == len(records) > 0
    for span, record in zip(spans, records):
        assert span.name == f"proposal.{record.direction}"
        assert span.start_s == span.end_s == record.time
        assert span.args == {
            "tenant": record.tenant_id,
            "slots_requested": record.slots_requested,
            "granted": record.granted,
            "reason": record.reason,
            "committed_before": record.committed_before,
            "committed_after": record.committed_after,
            "budget_slots": record.budget_slots,
        }


def test_a_single_fleet_trace_labels_no_tenant(golden_traces):
    """Only a shared fleet's scrape is split by tenant: a single fleet's
    series carry the labels they always had."""
    for run, trace in golden_traces.items():
        if run.startswith("multi."):
            continue
        metrics = trace.registry.snapshot()
        assert metrics, run
        assert not [m for m in metrics if "tenant" in m["labels"]], run


def test_a_single_fleet_trace_holds_no_arbiter_span(traced, trace):
    """One reader, :meth:`Telemetry.from_run`, reads a single fleet as one
    unlabelled tenant with no arbiter: the private one-tenant arbiter every
    single-fleet controller asks (and which logged each proposal) adds no
    span."""
    assert traced.controller.arbiter.log
    assert not trace.tracer.by_category("arbiter")
    assert not hasattr(Telemetry, "from_tenants")


# ----------------------------------------------------------------- exporters
class TestExporters:
    def test_jsonl_roundtrip_validates(self, tmp_path, trace):
        path = write_trace_jsonl(trace, tmp_path / "trace.jsonl")
        records = validate_trace_jsonl(path)
        header = records[0]
        assert header["schema"] == TRACE_SCHEMA
        assert header["scenario"] == "elastic"
        kinds = {r["type"] for r in records}
        assert kinds == {"header", "span", "metric"}

    def test_validator_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            validate_trace_jsonl(path)

    def test_validator_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header", "schema": "repro-trace/99"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            validate_trace_jsonl(path)

    def test_validator_rejects_dangling_parent(self, tmp_path):
        telemetry = Telemetry(clock=lambda: 0.0)
        telemetry.tracer.emit("x", "control", 0.0, 1.0)
        lines = trace_lines(telemetry)
        record = json.loads(lines[-1])
        record["parent_id"] = 999
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines[:-1] + [json.dumps(record)]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="parent"):
            validate_trace_jsonl(path)

    def test_chrome_trace_structure(self, trace):
        payload = chrome_trace(trace)
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert complete and metadata
        first_tick = trace.tracer.by_category("control")[0]
        event = next(
            e for e in complete if e["args"]["span_id"] == first_tick.span_id
        )
        # Simulated seconds ride the microsecond fields Perfetto expects.
        assert event["name"] == "controller.tick"
        assert event["ts"] == pytest.approx(first_tick.start_s * 1e6)
        assert event["dur"] == pytest.approx(
            (first_tick.end_s - first_tick.start_s) * 1e6
        )
        assert {e["name"] for e in metadata} == {"thread_name"}
        assert payload["otherData"]["schema"] == TRACE_SCHEMA

    def test_summary_mentions_categories_and_metrics(self, trace):
        text = summarize(trace)
        assert "control" in text
        assert "migration" in text
        assert "kernel.events_stepped" in text


# ------------------------------------------------------------- run metadata
class TestRunMetadata:
    def test_preamble_keys(self):
        payload = run_metadata("repro-bench-chaos/2", seed=7, benchmarks={})
        assert payload["schema"] == "repro-bench-chaos/2"
        assert payload["seed"] == 7
        assert "python" in payload and "machine" in payload
        assert "timestamp" not in payload  # caller-injected only
        assert payload["benchmarks"] == {}

    def test_config_digest_is_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})
