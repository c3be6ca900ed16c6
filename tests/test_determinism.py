"""Run-to-run determinism of the fast-path engine.

Two guards for the overhaul's reproducibility promise:

* two full ``run_elastic_experiment()`` runs with the same seed produce
  *identical* event logs — this exercises the kernel fast path, the router
  caches/batching, the reused-event id stamping and the sorted rebalance
  kill order end to end;
* the FIELDS grouping uses a stable hash (CRC-32), so keyed routing does not
  depend on ``PYTHONHASHSEED`` (builtin ``hash()`` on strings is randomized
  per process, which silently made placements and figures irreproducible).
"""

from __future__ import annotations

import zlib

import pytest

from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.event import Event
from repro.dataflow.grouping import Grouping, stable_field_index
from repro.experiments import run_migration_experiment
from repro.experiments.elastic import run_elastic_experiment
from repro.experiments.scenarios import ScenarioSpec, build_experiment
from repro.sim.shard import log_digest

from tests.conftest import make_runtime


def _log_records(log):
    """Every log record as a comparable tuple stream."""
    return (
        [(e.time, e.root_id, e.source, e.replay_count, e.from_backlog) for e in log.source_emits],
        [(r.time, r.root_id, r.event_id, r.sink, r.root_emitted_at, r.replay_count)
         for r in log.sink_receipts],
        [(d.time, d.executor_id, d.kind, d.reason, d.root_id) for d in log.drops],
        [(d.time, d.executor_id, d.root_id) for d in log.deferred],
        [(k.time, k.executor_id, k.queued_events_lost, k.pending_events_lost) for k in log.kills],
        [(l.time, l.executor_id, l.status) for l in log.lifecycle],
    )


def _run_once():
    result = run_elastic_experiment(
        dag="traffic", strategy="ccr", profile="surge", duration_s=300.0, seed=2018
    )
    return result


def test_same_seed_elastic_runs_are_identical():
    """Two same-seed elastic runs (with a migration) yield identical logs."""
    first = _run_once()
    second = _run_once()
    assert _log_records(first.log) == _log_records(second.log)
    assert first.log.summary() == second.log.summary()
    # The run must actually have exercised the interesting paths.
    assert first.runtime.rebalances, "expected the surge profile to trigger a migration"
    assert len(first.log.sink_receipts) > 1000


def test_a_run_is_hermetic_without_any_reset():
    """Ids are a function of the run's data: a DSM experiment in between
    leaves the second of two same-seed Grid runs identical to the first, ids
    included (with a process-global id counter it did not)."""

    def grid_digest():
        runtime = make_runtime(topologies.grid(), worker_vms=11)
        runtime.start()
        runtime.run(until=20.0)
        return log_digest(runtime.log)

    first = grid_digest()
    run_migration_experiment(dag="linear", strategy="dsm", migrate_at_s=10.0, post_migration_s=30.0)
    assert grid_digest() == first


def test_fields_grouping_uses_stable_hash():
    """FIELDS routing is CRC-32 based, independent of PYTHONHASHSEED."""
    # Pinned expectation: changing the hash function silently re-keys every
    # grouped stream, so the exact mapping is part of the engine contract.
    assert stable_field_index("vehicle-17", 3) == zlib.crc32(b"vehicle-17") % 3

    builder = TopologyBuilder("fields")
    builder.add_source("source", rate=10.0)
    builder.add_task("up", parallelism=1, latency_s=0.01)
    builder.add_task("down", parallelism=3, latency_s=0.01)
    builder.add_sink("sink")
    builder.connect("source", "up")
    builder.connect("up", "down", grouping=Grouping.FIELDS)
    builder.connect("down", "sink")
    runtime = make_runtime(dataflow=builder.build(), worker_vms=4)
    edge = [e for e in runtime.dataflow.edges if e.grouping is Grouping.FIELDS][0]

    for key in ("vehicle-1", "vehicle-2", "sensor-99", "x"):
        event = Event.data("up", 1, payload={"key": key})
        expected = [f"down#{zlib.crc32(key.encode('utf-8')) % 3}"]
        assert runtime.router._select_targets("up#0", edge, event) == expected
        # The cached fast path in route() must agree with _select_targets.
        assert runtime.router._select_targets("up#0", edge, event.copy_for_edge(2)) == expected


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Cluster() builds NetworkModel() on its default seed 2018, so the run "
    "seed never reaches network jitter (CHANGES.md FOUND)"))
def test_the_run_seed_reaches_network_jitter():
    """Two seeds draw two different jitter sequences on the same channel."""
    draws = []
    for seed in (1, 2):
        runtime, _, _ = build_experiment(ScenarioSpec(dag="linear", strategy="dcr", seed=seed))
        stream = runtime.router.channel("source#0", "task1#0").stream
        draws.append((stream.random(), stream.random()))
    assert draws[0] != draws[1]
