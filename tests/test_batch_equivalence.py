"""Batched-kernel equivalence vs the per-event loop.

The batch-stepping cascade (``RuntimeConfig.batch_stepping``, on by default)
materializes whole steady-state stretches inside one kernel callback, swept
level by level over struct-of-arrays.  Its contract: the per-event kernel's
log (``batch_stepping = False``, the reference throughout) bit for bit --
the same ``log_digest``, event ids included, since ids are a function of the
data -- and the same executor counters and routed counts.

The stepper's cost rule declines a window of fewer than
``batch._MIN_WINDOW_ROOTS`` (16) roots as ``short-window``: at the paper's
8 ev/s that is every window under 2 s.  The windowed cases therefore come in
two kinds -- windows of 2.5 s and more, which the sweep takes, and the
sub-second ones of before, which now check that a declined window *is* the
kernel's (``TestVectorizedEquivalence`` asserts which side each case is on).

These tests pin the stepper against the classic loop on the Grid DAG — cold
runs and windowed runs whose window boundaries land mid-pipeline (exercising
the in-flight ingestion path, where the sweep adopts queued deliveries and
busy executors instead of declining) — and on a full closed-loop elastic run
with migrations.  They also cover the batch-mode primitive the cascade is
built on: bit-identical block RNG draws.

The *golden* runs pin the exact log digest and work counters of windowed
runs as literals, and each is also run per event: the literal checks that a
change moved nothing, the per-event run that what it pins is the kernel's.
"""

from __future__ import annotations

import pytest

from repro.cluster.cloud import CloudProvider
from repro.cluster.vm import D3
from repro.core import strategy_by_name
from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.graph import RescalePlan
from repro.elastic import ControllerConfig
from repro.elastic.planner import plan_user_tasks_on
from repro.engine import batch
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments import run_elastic_experiment
from repro.multi import ClusterManager
from repro.sim import Simulator
from repro.sim.rng import keyed_value, keyed_value_blocks
from repro.sim.shard import log_digest
from repro.workloads import StepProfile

from tests.conftest import build_cluster, fast_config


# ------------------------------------------------------------------ builders
def build_grid(batch_stepping: bool, strategy: str = "dcr"):
    """A deployed Grid runtime with the keyed-jitter timing model (acking on
    under the ``dsm`` reliability profile)."""
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=11)
    config = fast_config(strategy)
    config.batch_stepping = batch_stepping
    runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()
    return sim, runtime


def run_windows(batch_stepping: bool, windows: int, step_s: float, strategy: str = "dcr"):
    """Run in fixed windows so boundaries land mid-pipeline (in-flight work)."""
    sim, runtime = build_grid(batch_stepping, strategy)
    for _ in range(windows):
        sim.run(until=sim.now + step_s)
    return sim, runtime


def fingerprint(runtime: TopologyRuntime):
    """Everything observable about a run: its log digest, every executor's
    counters, the routed deliveries and, under acking, :func:`acker_facts`."""
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
    acker = acker_facts(runtime) if runtime.ack_data_events else None
    return log_digest(runtime.log), counters, runtime.router.routed_count, acker


def replay_count(runtime: TopologyRuntime) -> int:
    return sum(s.replayed_count for s in runtime.source_executors)


def acker_facts(runtime: TopologyRuntime):
    """Every acker counter but the ``bulk_*`` break-outs (which engine absorbed
    an anchor or ack, not whether it happened), the pending trees and the
    replays they led to."""
    stats = {
        name: value for name, value in vars(runtime.acker.stats).items()
        if not name.startswith("bulk_")
    }
    return stats, runtime.acker.pending_count, replay_count(runtime)


# ------------------------------------------------------------ golden digests
#: regime -> (topology arguments, windows, window seconds).  The windows sit on
#: both sides of the sweep's block budget: at ``paper`` rates a whole level is
#: one block, ``long`` windows (3 600 roots) split Grid's wide levels into
#: blocks of whole channels, and at ``100x`` the source's channel (9 600 deliveries a
#: window) is a block of its own.  ``rescale`` migrates with a rescale between
#: two windows, so the sweep plan must recompile (its windows were 1 s, 8
#: roots, until the cost rule: now 2.5 s, so that they are still swept).
GOLDEN_REGIMES = {
    "paper": ({}, 10, 4.0),
    "long": ({}, 3, 450.0),
    "100x": ({"rate": 800.0, "latency_s": 0.001}, 2, 12.0),
    "rescale": ({"latency_s": 0.02}, 20, 2.5),
}
GOLDEN_RESCALES = {
    "diamond": {"merge": 4}, "grid": {"forecast_merge": 2}, "traffic": {"traffic_state": 4},
}
GOLDEN_CASES = [(dag, regime) for dag in GOLDEN_RESCALES for regime in GOLDEN_REGIMES]


def golden_run(dag: str, regime: str, acked: bool, batch_stepping: bool = True) -> TopologyRuntime:
    """A windowed run of a paper dataflow (see ``GOLDEN_REGIMES``)."""
    kwargs, windows, step_s = GOLDEN_REGIMES[regime]
    strategy = "dsm" if acked else "dcr"
    if regime == "rescale":
        config = fast_config(strategy)
    else:
        config = RuntimeConfig.for_dsm(seed=7) if acked else RuntimeConfig.for_dcr(seed=7)
    config.reliability.max_spout_pending = None
    config.batch_stepping = batch_stepping
    sim = Simulator()
    runtime = TopologyRuntime(
        getattr(topologies, dag)(**kwargs), build_cluster(sim, worker_vms=11), sim=sim, config=config
    )
    runtime.deploy()
    runtime.start()
    for window in range(windows):
        if regime == "rescale" and window == 3:
            vms = CloudProvider(sim).provision(D3, 6, name_prefix="target")
            for vm in vms:
                runtime.cluster.add_vm(vm)
            vm_ids = [vm.vm_id for vm in vms]
            strategy_by_name(strategy)(runtime, init_resend_interval_s=0.2).migrate(
                lambda rt: plan_user_tasks_on(rt, vm_ids), rescale=RescalePlan(GOLDEN_RESCALES[dag])
            )
        sim.run(until=sim.now + step_s)
    return runtime


def golden_fingerprint(runtime: TopologyRuntime):
    """Log digest, deliveries, kernel events, cascades, inline events -- and
    every acker counter plus the pending trees under acking."""
    stepper = runtime.batch_stepper
    facts = (
        log_digest(runtime.log)[:16], runtime.router.routed_count, runtime.sim.processed_events,
        stepper.cascades, stepper.inline_events,
    )
    if runtime.ack_data_events:
        facts += tuple(vars(runtime.acker.stats).values()) + (runtime.acker.pending_count,)
    return facts


def check_golden(dag: str, regime: str, acked: bool, expected) -> None:
    runtime = golden_run(dag, regime, acked)
    assert golden_fingerprint(runtime) == expected
    # What the literal pins is the per-event kernel's run.
    assert fingerprint(runtime) == fingerprint(golden_run(dag, regime, acked, batch_stepping=False))
    stepper = runtime.batch_stepper
    if regime == "rescale":
        assert len(runtime.rescales) == 1
        assert stepper.plan_builds >= 2, "the rescale must drop the sweep plan"
    else:
        assert stepper.plan_builds == 1
    levels = len(stepper._sweep_plan().levels)
    if regime == "paper":
        # One block per level and side: service rounds and shipping rounds.
        assert stepper.rounds <= 2 * levels * stepper.cascades
    if regime == "100x" or (regime == "long" and dag == "grid" and not acked):
        assert stepper.rounds > 2 * levels * stepper.cascades
    if regime == "100x":
        assert 9_600 > batch._BLOCK_ENTRIES  # the source's channel is its own block


#: Unacked runs.  The digests were re-recorded once when ids became a function
#: of the data (every count stayed as it was); ``check_golden`` runs each row
#: per event too.
GOLDEN_UNACKED = {
    ('diamond', 'paper'): ('4d5cae058be475d8', 2858, 154, 10, 5865),
    ('diamond', 'long'): ('ed5006dd80123f8e', 97178, 35, 3, 205111),
    ('diamond', '100x'): ('e4b8ebd9bbba47d1', 172756, 2, 2, 364681),
    ('diamond', 'rescale'): ('5df230be40e8d43f', 3682, 1200, 18, 6516),
    ('grid', 'paper'): ('295d59fd9b928e2f', 7915, 424, 10, 15679),
    ('grid', 'long'): ('17c6e5b539637edc', 269915, 95, 3, 550509),
    ('grid', '100x'): ('9c95ccdc12c22c1d', 479817, 2, 2, 978743),
    ('grid', 'rescale'): ('8d25371b2f527e9e', 10101, 2807, 18, 17719),
    ('traffic', 'paper'): ('1415cbfb83a37875', 5392, 280, 10, 10783),
    ('traffic', 'long'): ('4e9ca9e9a1aaf258', 183552, 63, 3, 377821),
    ('traffic', '100x'): ('e1c8dffdf6b7ced3', 326296, 2, 2, 671734),
    ('traffic', 'rescale'): ('a685089be33182dd', 6878, 2012, 18, 12000),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("dag,regime", GOLDEN_CASES)
    def test_unacked_run_matches_the_recorded_fingerprint(self, dag, regime):
        check_golden(dag, regime, False, GOLDEN_UNACKED[dag, regime])


# ------------------------------------------------- grid: vectorized cascade
class TestVectorizedEquivalence:
    """Batch stepping == per-event kernel, bit for bit, unacked and acked."""

    @pytest.mark.parametrize("strategy", ["dcr", "dsm"])
    @pytest.mark.parametrize(
        "windows,step_s",
        [(1, 10.0), (20, 2.5), (12, 2.25), (7, 3.3), (20, 0.5), (40, 0.25), (7, 1.3)],
        ids=["cold-10s", "20x2.5s", "12x2.25s", "7x3.3s", "20x0.5s", "40x0.25s", "7x1.3s"],
    )
    def test_grid_run_matches_classic(self, windows, step_s, strategy):
        _, classic = run_windows(False, windows, step_s, strategy)
        _, batched = run_windows(True, windows, step_s, strategy)
        assert fingerprint(batched) == fingerprint(classic)
        swept = step_s * 8.0 >= batch._MIN_WINDOW_ROOTS
        assert (batched.batch_stepper.cascades > 0) == swept

    def test_windowed_run_cascades_every_window(self):
        # Window boundaries leave deliveries and busy executors in flight at
        # every resume; the in-flight ingestion must re-engage the
        # sweep each window rather than falling back to classic stepping.
        _, runtime = run_windows(True, 20, 2.5)
        stepper = runtime.batch_stepper
        assert stepper.cascades >= 20
        assert stepper.inline_events > 0

    def test_cold_run_is_mostly_inline(self):
        _, runtime = run_windows(True, 1, 10.0)
        stepper = runtime.batch_stepper
        assert stepper.cascades >= 1
        # The steady-state stretch dominates: nearly all events bypass the heap.
        assert stepper.inline_events > 10 * len(runtime.log.source_emits)


# ------------------------------------------------------- busy time by table
class TestBusyTimeTable:
    """``busy_time_s`` grows by one ``+= service`` per event, so the sweep
    reads it off a table of sequential sums -- but only for an instance whose
    past matches the table."""

    @staticmethod
    def adds(value, step, count):
        for _ in range(count):
            value += step
        return value

    def test_matches_the_adds_one_by_one(self):
        _, runtime = run_windows(True, 6, 2.6)
        plan = runtime.batch_stepper._sweep_plan()
        assert plan.busy_sums, "the sweep served something"
        for executor in runtime.user_executors:
            service = executor._service_time
            assert executor.processed_count > 50
            assert executor.busy_time_s == self.adds(0.0, service, executor.processed_count)
            for count in (1, 7, 5000):  # the last one past the table's end
                expected = self.adds(executor.busy_time_s, service, count)
                assert plan.busy_after(executor, service, count) == expected

    def test_a_past_the_table_does_not_know_is_added_up_instead(self):
        _, runtime = run_windows(True, 2, 2.6)
        plan = runtime.batch_stepper._sweep_plan()
        executor = runtime.user_executors[0]
        executor.busy_time_s += 0.05  # not a sequential sum of the service time
        expected = self.adds(executor.busy_time_s, executor._service_time, 40)
        assert plan.busy_after(executor, executor._service_time, 40) == expected
        sim = runtime.sim
        before = (executor.busy_time_s, executor.processed_count)
        sim.run(until=sim.now + 2.6)
        served = executor.processed_count - before[1]
        assert served > 0
        assert executor.busy_time_s == self.adds(before[0], executor._service_time, served)


# --------------------------------------------------------------- elastic run
class TestElasticEquivalence:
    """Batched mode survives a full closed-loop run: profile-driven sources,
    migrations (the cascade must disengage around protocol activity and
    re-engage after), backlog drains and, under DSM, the in-flight messages
    its migrations lose (the paper's fig. 6 replay source) -- the run, scaling
    decisions and every acker counter identical to the per-event kernel's."""

    @staticmethod
    def run_elastic(strategy: str, batch_stepping: bool):
        config = fast_config(strategy, seed=11)
        config.batch_stepping = batch_stepping
        return run_elastic_experiment(
            dag="traffic",
            strategy=strategy,
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
    def facts(result):
        actions = [
            (a.direction, a.from_tier, a.to_tier, a.decided_at, a.enacted_at, a.completed_at)
            for a in result.actions
        ]
        return fingerprint(result.runtime), actions

    @pytest.mark.parametrize("strategy", ["ccr", "dsm"])
    def test_elastic_run_matches_classic(self, strategy):
        classic = self.run_elastic(strategy, False)
        batched = self.run_elastic(strategy, True)
        assert self.facts(batched) == self.facts(classic)
        assert classic.actions, "the surge must trigger scaling"
        assert (replay_count(classic.runtime) > 0) == (strategy == "dsm"), "only DSM replays"
        # The cascade actually carried the run (not a silent classic fallback).
        assert batched.runtime.batch_stepper.cascades > 0


# ----------------------------------------------------------- RNG block draws
class TestKeyedValueBlock:
    def test_bit_identical_to_scalar_draws(self):
        for seed in (0, 1, 2018, (1 << 64) - 1, 0x9E3779B97F4A7C15):
            for start, count in ((0, 1), (0, 17), (5, 64), (123456789, 7)):
                block = keyed_value_blocks((seed,), (start,), (count,))
                scalars = [keyed_value(seed, start + i) for i in range(count)]
                assert block.tolist() == scalars

    def test_values_in_unit_interval(self):
        block = keyed_value_blocks((42,), (0,), (1000,))
        assert float(block.min()) >= 0.0
        assert float(block.max()) < 1.0


# --------------------------------------------------------- shared simulator
class TestSharedSimulator:
    """Two tenants under ``batch_stepping`` on one simulator.

    The in-flight scan reads the shared heap: it used to take the other
    runtime's completions for its own (``KeyError: 'work#2'`` in ``ingest``)
    and, adopting, to drop kernel entries it did not own.  A runtime knows
    how many share its simulator (``Simulator.runtimes``), so every tick of a
    tenant goes to the kernel under a named reason before anything reads the
    heap, and each tenant's log is the per-event kernel's.
    """

    @staticmethod
    def run_tenants(batch_stepping: bool):
        manager = ClusterManager(budget_slots=40, provisioning_latency_s=1.0)
        for name, rate, parallelism in (("alpha", 8.0, 2), ("beta", 7.0, 3)):
            builder = TopologyBuilder(name)
            builder.add_source("source", rate=rate)
            builder.add_task("work", parallelism=parallelism, latency_s=0.02)
            builder.add_sink("sink")
            builder.chain("source", "work", "sink")
            config = fast_config("dcr", seed=11)
            config.batch_stepping = batch_stepping
            manager.add_tenant(name, builder.build(), strategy="dcr", config=config)
        manager.deploy()
        manager.start()
        manager.run(until=30.0)
        manager.stop()
        return [manager.tenant(name).runtime for name in ("alpha", "beta")]

    def test_each_tenant_matches_its_classic_run(self):
        batched = self.run_tenants(True)
        classic = self.run_tenants(False)
        for runtime, reference in zip(batched, classic):
            stepper = runtime.batch_stepper
            assert runtime.sim.runtimes == 2
            assert stepper.cascades == 0
            assert set(stepper.declines) == {"shared-simulator"}
            assert len(runtime.log.sink_receipts) > 150
            assert fingerprint(runtime) == fingerprint(reference)
