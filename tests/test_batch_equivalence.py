"""Batched-kernel equivalence vs the classic event loop.

The batch-stepping cascade (``RuntimeConfig.batch_stepping``) materializes
whole steady-state stretches inside one kernel callback — vectorized over
struct-of-arrays when numpy is available, through an inline per-event heap
otherwise.  Its contract:

* **vectorized tier** — logs equivalent to the classic keyed kernel *modulo
  event-id assignment order*: identical emission/receipt times, sinks,
  latencies, executor counters and routed counts, with root identity mapped
  through emission order;
* **heap tier** (``batch_vectorize=False``) — logs *exactly* equal to the
  classic keyed kernel, event ids included.

These tests pin both tiers against the classic loop on the Grid DAG — cold
runs and windowed runs whose window boundaries land mid-pipeline (exercising
the in-flight ingestion path, where the vectorized sweep adopts queued
deliveries and busy executors instead of declining) — and on a full
closed-loop elastic run with migrations.  They also cover the batch-mode
primitives the cascade is built on: bit-identical block RNG draws and bulk
event-id reservation.
"""

from __future__ import annotations

import pytest

from repro.dataflow import topologies
from repro.dataflow.event import (
    Event,
    next_event_id,
    reserve_event_ids,
    reset_event_ids,
)
from repro.elastic import ControllerConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments import run_elastic_experiment
from repro.sim import Simulator
from repro.sim.rng import keyed_value, keyed_value_block
from repro.workloads import StepProfile

from tests.conftest import build_cluster, fast_config


# ------------------------------------------------------------------ builders
def build_grid(batch_stepping: bool, batch_vectorize: bool = True):
    """A deployed Grid runtime with the keyed-jitter timing model."""
    reset_event_ids()
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=11)
    config = fast_config("dcr")
    config.keyed_network_jitter = True
    config.batch_stepping = batch_stepping
    config.batch_vectorize = batch_vectorize
    runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()
    return sim, runtime


def run_windows(batch_stepping: bool, windows: int, step_s: float,
                batch_vectorize: bool = True):
    """Run in fixed windows so boundaries land mid-pipeline (in-flight work)."""
    sim, runtime = build_grid(batch_stepping, batch_vectorize)
    for _ in range(windows):
        sim.run(until=sim.now + step_s)
    return sim, runtime


def fingerprint_modulo_ids(runtime: TopologyRuntime):
    """Everything observable about a run except event-id assignment order.

    Root identity is mapped through emission order, so two runs agree iff
    their logs match modulo the ids themselves.
    """
    log = runtime.log
    emission_order = {e.root_id: i for i, e in enumerate(log.source_emits)}
    emits = [(e.time, e.source, e.replay_count, e.from_backlog) for e in log.source_emits]
    receipts = sorted(
        (r.time, emission_order[r.root_id], r.sink, r.root_emitted_at, r.replay_count)
        for r in log.sink_receipts
    )
    counters = {
        executor_id: (
            executor.processed_count,
            round(executor.busy_time_s, 12),
            getattr(executor, "received_count", None),
            executor.state.get("processed") if executor.state else None,
            len(executor.input_queue),
            executor._busy,
        )
        for executor_id, executor in sorted(runtime.executors.items())
    }
    return emits, receipts, counters, runtime.router.routed_count


def fingerprint_exact(runtime: TopologyRuntime):
    """Every log record verbatim — ids included."""
    log = runtime.log
    return (
        [tuple(vars_of(e)) for e in log.source_emits],
        [tuple(vars_of(r)) for r in log.sink_receipts],
        runtime.router.routed_count,
    )


def vars_of(record):
    return [getattr(record, name) for name in record.__slots__]


# ------------------------------------------------- grid: vectorized cascade
class TestVectorizedEquivalence:
    """Vectorized batch stepping == classic keyed kernel, modulo event ids."""

    @pytest.mark.parametrize(
        "windows,step_s",
        [(1, 10.0), (20, 0.5), (40, 0.25), (7, 1.3)],
        ids=["cold-10s", "20x0.5s", "40x0.25s", "7x1.3s"],
    )
    def test_grid_run_matches_classic(self, windows, step_s):
        _, classic = run_windows(False, windows, step_s)
        expected = fingerprint_modulo_ids(classic)
        _, batched = run_windows(True, windows, step_s)
        assert fingerprint_modulo_ids(batched) == expected

    def test_windowed_run_cascades_every_window(self):
        # Window boundaries leave deliveries and busy executors in flight at
        # every resume; the in-flight ingestion must re-engage the vectorized
        # sweep each window rather than falling back to classic stepping.
        _, runtime = run_windows(True, 20, 0.5)
        stepper = runtime.batch_stepper
        assert stepper.vector_cascades >= 20
        assert stepper.inline_events > 0

    def test_cold_run_is_mostly_inline(self):
        _, runtime = run_windows(True, 1, 10.0)
        stepper = runtime.batch_stepper
        assert stepper.vector_cascades >= 1
        # The steady-state stretch dominates: nearly all events bypass the heap.
        assert stepper.inline_events > 10 * len(runtime.log.source_emits)


# ------------------------------------------------------ grid: heap fallback
class TestHeapTierExactEquivalence:
    """``batch_vectorize=False`` must match the classic kernel bit for bit."""

    @pytest.mark.parametrize(
        "windows,step_s", [(1, 10.0), (7, 1.3)], ids=["cold-10s", "7x1.3s"]
    )
    def test_grid_run_identical_including_event_ids(self, windows, step_s):
        _, classic = run_windows(False, windows, step_s)
        expected = fingerprint_exact(classic)
        _, batched = run_windows(True, windows, step_s, batch_vectorize=False)
        assert fingerprint_exact(batched) == expected


# --------------------------------------------------------------- elastic run
class TestElasticEquivalence:
    """Batched mode survives a full closed-loop run: profile-driven sources,
    migrations (the cascade must disengage around protocol activity and
    re-engage after), backlog drains — logs and scaling decisions identical
    to the classic keyed kernel modulo event ids."""

    def run_elastic(self, batch_stepping: bool):
        config = fast_config("ccr", seed=11)
        config.keyed_network_jitter = True
        config.batch_stepping = batch_stepping
        return run_elastic_experiment(
            dag="traffic",
            strategy="ccr",
            profile=StepProfile(steps=[(0.0, 8.0), (60.0, 24.0), (140.0, 8.0)]),
            duration_s=220.0,
            seed=11,
            dataflow=topologies.traffic(latency_s=0.02),
            config=config,
            controller_config=ControllerConfig(
                check_interval_s=5.0, confirm_samples=2, cooldown_s=30.0
            ),
            provisioning_latency_s=2.0,
        )

    @staticmethod
    def fingerprint(result):
        log = result.log
        emission_order = {e.root_id: i for i, e in enumerate(log.source_emits)}
        emits = [(e.time, e.source, e.replay_count, e.from_backlog) for e in log.source_emits]
        receipts = sorted(
            (r.time, emission_order[r.root_id], r.sink, r.root_emitted_at, r.replay_count)
            for r in log.sink_receipts
        )
        actions = [
            (a.direction, a.from_tier, a.to_tier, a.decided_at, a.enacted_at, a.completed_at)
            for a in result.actions
        ]
        return emits, receipts, actions

    def test_elastic_run_matches_classic(self):
        expected = self.fingerprint(self.run_elastic(False))
        batched_result = self.run_elastic(True)
        assert self.fingerprint(batched_result) == expected
        # The cascade actually carried the run (not a silent classic fallback).
        assert batched_result.runtime.batch_stepper.vector_cascades > 0


# ----------------------------------------------------------- RNG block draws
class TestKeyedValueBlock:
    def test_bit_identical_to_scalar_draws(self):
        for seed in (0, 1, 2018, (1 << 64) - 1, 0x9E3779B97F4A7C15):
            for start, count in ((0, 1), (0, 17), (5, 64), (123456789, 7)):
                block = keyed_value_block(seed, start, count)
                scalars = [keyed_value(seed, start + i) for i in range(count)]
                assert block.tolist() == scalars

    def test_values_in_unit_interval(self):
        block = keyed_value_block(42, 0, 1000)
        assert float(block.min()) >= 0.0
        assert float(block.max()) < 1.0


# -------------------------------------------------------- event-id bulk path
class TestReserveEventIds:
    def test_reservation_is_contiguous_and_advances_counter(self):
        reset_event_ids()
        first = next_event_id()
        base = reserve_event_ids(5)
        assert base == first + 1
        assert next_event_id() == base + 5

    def test_equivalent_to_individual_draws(self):
        reset_event_ids()
        base = reserve_event_ids(4)
        reserved = list(range(base, base + 4))
        reset_event_ids()
        individual = [next_event_id() for _ in range(4)]
        assert reserved == individual
