"""End-to-end shape tests on a real paper dataflow (Star) with the paper's timing model.

These are slower than the unit tests (a few seconds of wall time) but verify
that the headline claims of the paper hold in the reproduction:

* CCR restores fastest, DSM slowest;
* only DSM loses and replays messages;
* DCR/CCR deliver every pre-migration event exactly once;
* the rebalance command duration is roughly constant (~7 s).
"""

from __future__ import annotations

import pytest

from repro.cluster.cloud import CloudProvider
from repro.core import strategy_by_name
from repro.dataflow import topologies
from repro.dataflow.event import CheckpointAction, root_event_id
from repro.engine import batch
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments import run_elastic_experiment, run_migration_experiment
from repro.experiments.scenarios import deploy_baseline
from repro.experiments.sharded import plan_shards, run_steady_shard
from repro.metrics.timeline import latency_timeline, rate_timeline
from repro.sim import Simulator
from repro.sim.shard import log_digest, merge_shard_results, run_shards

from tests.conftest import build_cluster, fast_config
from tests.test_acked_batch_equivalence import spout_facts
from tests.test_batch_equivalence import acker_facts


MIGRATE_AT = 60.0
POST = 300.0


@pytest.fixture(scope="module")
def star_results():
    """Run the three strategies once on the Star DAG (scale-in) and share the results."""
    return {
        strategy: run_migration_experiment(
            dag="star",
            strategy=strategy,
            scaling="in",
            migrate_at_s=MIGRATE_AT,
            post_migration_s=POST,
            seed=2018,
        )
        for strategy in ("dsm", "dcr", "ccr")
    }


class TestHeadlineClaims:
    def test_restore_ordering(self, star_results):
        restore = {name: result.metrics.restore_duration_s for name, result in star_results.items()}
        assert restore["ccr"] < restore["dsm"]
        assert restore["dcr"] < restore["dsm"]
        assert restore["ccr"] <= restore["dcr"] + 1.0

    def test_dsm_restore_exceeds_30s_due_to_init_timeouts(self, star_results):
        assert star_results["dsm"].metrics.restore_duration_s > 30.0

    def test_proposed_strategies_restore_within_50s(self, star_results):
        """The paper: "we can migrate dataflows of large sizes within 50 sec"."""
        assert star_results["dcr"].metrics.restore_duration_s < 50.0
        assert star_results["ccr"].metrics.restore_duration_s < 50.0

    def test_only_dsm_replays_messages(self, star_results):
        assert star_results["dsm"].metrics.replayed_message_count > 0
        assert star_results["dcr"].metrics.replayed_message_count == 0
        assert star_results["ccr"].metrics.replayed_message_count == 0

    def test_only_dsm_has_recovery_time(self, star_results):
        assert star_results["dsm"].metrics.recovery_time_s is not None
        assert star_results["dcr"].metrics.recovery_time_s is None
        assert star_results["ccr"].metrics.recovery_time_s is None

    def test_dcr_has_no_catchup(self, star_results):
        assert star_results["dcr"].metrics.catchup_time_s is None

    def test_drain_time_larger_for_dcr_than_ccr(self, star_results):
        assert (
            star_results["dcr"].metrics.drain_capture_duration_s
            > star_results["ccr"].metrics.drain_capture_duration_s
        )

    def test_rebalance_duration_roughly_constant(self, star_results):
        durations = [result.metrics.rebalance_duration_s for result in star_results.values()]
        assert all(5.0 <= d <= 10.0 for d in durations)
        assert max(durations) - min(durations) < 3.0

    def test_no_message_loss_for_dcr_and_ccr(self, star_results):
        # In Star every root fans out to exactly 4 sink events (32 ev/s out of
        # 8 ev/s in); with no loss and no duplication every root emitted well
        # before the end of the run is seen exactly 4 times at the sink.
        expected_copies = 4
        for name in ("dcr", "ccr"):
            result = star_results[name]
            log = result.log
            horizon = log.sim.now - 10.0
            emitted = {e.root_id for e in log.source_emits if e.time < horizon}
            received_counts = {}
            for receipt in log.sink_receipts:
                received_counts[receipt.root_id] = received_counts.get(receipt.root_id, 0) + 1
            for root in emitted:
                assert received_counts.get(root, 0) == expected_copies, name
            assert all(count <= expected_copies for count in received_counts.values()), name

    def test_output_gap_exists_during_migration(self, star_results):
        """During the restore there is a window with zero output throughput."""
        for result in star_results.values():
            request = result.report.requested_at
            restore = result.metrics.restore_duration_s
            gap_receipts = result.log.receipts_between(request + 10.0, request + restore - 1.0)
            assert len(gap_receipts) == 0

    def test_sources_observed_paused_only_for_dcr_ccr(self, star_results):
        def paused_events(result):
            return [r for r in result.log.lifecycle if r.status == "paused"]

        assert not paused_events(star_results["dsm"])
        assert paused_events(star_results["dcr"])
        assert paused_events(star_results["ccr"])

    def test_stabilization_reached_for_proposed_strategies(self, star_results):
        for name in ("dcr", "ccr"):
            assert star_results[name].metrics.stabilization_time_s is not None, name
        # DSM either has not stabilized within the observation window at all,
        # or it stabilizes no earlier than CCR (modulo the 5 s detector bins).
        dsm_stab = star_results["dsm"].metrics.stabilization_time_s
        ccr_stab = star_results["ccr"].metrics.stabilization_time_s
        assert dsm_stab is None or dsm_stab >= ccr_stab - 10.0


_CELLS = {}


def diamond_cell(strategy: str):
    """The Diamond scale-in cell at the benchmark's timing, run once per
    strategy and ``Simulator.run`` (a test that slices the run gets its own)."""
    key = (strategy, Simulator.run)
    if key not in _CELLS:
        _CELLS[key] = run_migration_experiment(
            dag="diamond", strategy=strategy, scaling="in",
            migrate_at_s=90.0, post_migration_s=540.0, seed=2018,
        )
    return _CELLS[key]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_a_diamond_dsm_cell_commits_a_periodic_checkpoint_after_its_migration():
    """The periodic PREPARE that opens at the migration instant (90 s) never
    completes: the only commits are at 31.0 s and 61.0 s."""
    result = diamond_cell("dsm")
    commits = result.runtime.checkpoints.completed_waves(CheckpointAction.COMMIT)
    assert result.report.completed_at is not None
    assert any(wave.completed_at > result.report.completed_at for wave in commits)


class TestKernelEventBudget:
    """Kernel-event counts repeat exactly, so they gate what wall-clock cannot.

    The per-event engine got faster by executing fewer events: a throttled
    spout parks instead of polling ``max.spout.pending`` at 100 Hz (the DSM
    catch-up spent 29 % of its events on those polls), and a zero-time sink
    completes inside ``deliver()`` (two events per receipt became one).  No
    wall-clock gate would notice either coming back; these counts do.
    Diamond scale-in at the benchmark's
    timing: 143 516 / 96 396 / 96 276 events before, 97 136 / 86 325 / 86 205
    after -- 70 594 / 1 685 / 1 448 since the engine sweeps by default
    (PR 21): a DCR / CCR cell is two cascades, what the kernel still runs is
    the migration, and a DSM cell its 340 s backlog drain -- and 13 982 / 738
    / 592 since the drain is swept too (PR 22): a DSM cell is 67 cascades, 43
    of them drain windows as long as the first hop's slack (≈ 9 s), and the
    kernel keeps the migration, the replays and one delivery per drained root.
    """

    @pytest.mark.parametrize(
        "strategy, budget, cascades", [("dsm", 15_000, 67), ("dcr", 800, 2), ("ccr", 650, 2)]
    )
    def test_diamond_scale_in_stays_within_its_event_budget(self, strategy, budget, cascades):
        result = diamond_cell(strategy)
        stepper = result.runtime.batch_stepper
        assert result.runtime.sim.processed_events <= budget
        assert stepper.cascades == cascades
        assert "short-window" not in stepper.declines or strategy == "dsm"


def work_counts(runtime) -> dict:
    """What ``bench_e2e`` counts per layer (its ``WorkCounts.add_runtime``), of one runtime."""
    stepper, acker = runtime.batch_stepper, runtime.acker.stats
    return {
        "kernel_events": runtime.sim.processed_events,
        "inline_events": stepper.inline_events,
        "routed": runtime.router.routed_count,
        "log": (len(runtime.log.source_emits), len(runtime.log.sink_receipts)),
        "acker": (acker.registered, acker.completed, acker.failed),
        "checkpoint_waves": len(runtime.checkpoints.history),
        "cascades": stepper.cascades,
        "rounds": stepper.rounds,
        "declines": dict(stepper.declines),
    }


class TestWorkCounts:
    """One small fixed scenario per ``bench_e2e`` workload, every work count exact.

    The counts repeat per seed on any machine, so they gate what a wall-clock
    threshold blurs: a change that makes the engine do different work --
    another kernel event per receipt, a sweep that stops engaging, a decline
    under a new name -- moves a literal below and shows it in its diff.
    Re-record a moved count only with the reason it moved.
    """

    def test_paper_matrix_a_diamond_dcr_cell(self):
        assert work_counts(diamond_cell("dcr").runtime) == {
            "kernel_events": 738, "inline_events": 95_628, "routed": 45_563,
            "log": (5_040, 10_071), "acker": (0, 0, 0), "checkpoint_waves": 3,
            "cascades": 2, "rounds": 27, "declines": {"source-paused": 257},
        }

    def test_closed_loop_an_elastic_grid_surge(self):
        result = run_elastic_experiment(
            dag="grid", strategy="ccr", profile="surge", duration_s=240.0, seed=2018
        )
        assert [(a.direction, a.decided_at) for a in result.controller.actions] == [("out", 90.0)]
        assert len(result.monitor.samples) == 16
        assert work_counts(result.runtime) == {
            "kernel_events": 7_566, "inline_events": 79_620, "routed": 41_985,
            "log": (3_071, 6_014), "acker": (0, 0, 0), "checkpoint_waves": 3,
            "cascades": 11, "rounds": 176, "declines": {"source-paused": 982, "short-window": 2},
        }

    @pytest.fixture(scope="class")
    def acked_grid(self):
        """20 s of the 100x-rate Grid, every tuple tree acked, the spout
        uncapped (loss-free): ``bench_e2e``'s ``vector_runtime(acked_config)``."""
        config = RuntimeConfig.for_dsm(seed=2018)
        config.reliability.max_spout_pending = None
        runtime, _ = deploy_baseline(
            topologies.grid(rate=800.0, latency_s=0.001), config, CloudProvider(Simulator())
        )
        runtime.sim.run(until=20.0)
        return runtime

    def test_grid100x_vector_the_acked_grid_is_one_cascade(self, acked_grid):
        assert work_counts(acked_grid) == {
            "kernel_events": 1, "inline_events": 815_550, "routed": 399_817,
            "log": (16_000, 63_944), "acker": (16_000, 15_984, 0), "checkpoint_waves": 0,
            "cascades": 1, "rounds": 65, "declines": {},
        }
        stats = acked_grid.acker.stats  # the whole ack stream went through the bulk APIs
        assert (stats.bulk_anchors, stats.bulk_acks) == (stats.anchors, stats.acks) == (399_817, 399_770)

    def test_grid100x_vector_a_four_shard_run_and_merge(self):
        specs = plan_shards(dag="grid", shards=4, duration_s=60.0, seed=2018)
        results = run_shards(specs, run_steady_shard, workers=1)
        merged = merge_shard_results(results)
        assert [(r.emit_count, r.engine["stepper"], r.engine["kernel"]) for r in results] == [(120, 6_048, 1)] * 4
        assert (len(merged.source_emits), len(merged.sink_receipts)) == (480, 1_888)

    def test_log_analysis_the_query_set(self, acked_grid):
        """``bench_e2e``'s ``run_log_analysis`` over the 80k-record log above: rows per query."""
        log, end = acked_grid.log, 20.0
        windows = [
            (len(log.receipts_between(start, start + 1.0)), len(log.emits_between(start, start + 1.0)))
            for start in range(20)
        ]
        assert windows[:3] == [(3_143, 800), (3_200, 800), (3_202, 799)]  # pipeline fill, then 1:4
        assert sum(receipts + emits for receipts, emits in windows) == 79_944
        assert len(log.receipts_after(0.9 * end)) == 6_401
        # Roots named by emission: the 7 985th and the 7 999th.
        key = acked_grid.source_executors[0].id_key
        assert log.first_receipt_after(end / 2).root_id == root_event_id(key, 7_984)
        assert log.last_old_receipt(end / 2).root_id == root_event_id(key, 7_998)
        assert log.last_replay_receipt(end / 2) is None
        assert log.distinct_roots_received() == 15_988
        assert len(rate_timeline(log, kind="output", end=end, bin_s=5.0)) == 4
        assert len(latency_timeline(log, end=end, window_s=10.0)) == 2


class TestCostRule:
    """The engine's choice in the shape the end-to-end benchmark runs it in.

    ``bench_e2e`` advances every ``Simulator.run(until=T)`` of a cell in 128
    steps.  The 90 s warm-up becomes 0.7 s slices of 5.6 roots: below the
    stepper's measured crossover, so every one of its 720 ticks is declined
    as ``short-window`` -- in O(1), the kernel runs them -- while the 4.2 s
    slices (34 roots) after the migration are swept, one cascade a slice.
    Counts repeat exactly; the ceilings leave room for a tick moving sides.
    """

    @pytest.fixture
    def sliced(self, monkeypatch):
        run = Simulator.run

        def in_128_steps(sim, until=None, max_events=None):  # bench_e2e's slice_simulator_runs
            if until is None or max_events is not None:
                return run(sim, until=until, max_events=max_events)
            start = sim.now
            for step in range(1, 128):
                run(sim, until=start + (until - start) * step / 128)
            return run(sim, until=until)

        monkeypatch.setattr(Simulator, "run", in_128_steps)

    def test_warm_up_slices_decline_and_post_migration_slices_sweep(self, sliced):
        runtime = diamond_cell("dcr").runtime
        stepper = runtime.batch_stepper
        assert stepper.declines["short-window"] >= 720  # 90 s at 8 ev/s: all of the warm-up
        # The backlog an unpause leaves drains inside a sweep, and 13 ticks of
        # the slices the migration's timers cut short join ``short-window``.
        assert set(stepper.declines) == {"short-window", "source-paused"}
        assert stepper.declines["short-window"] == 733
        # 128 slices less the eight the migration takes: one cascade each.
        assert 115 <= stepper.cascades <= 128
        assert stepper.rounds <= 2 * len(stepper._sweep_plan().levels) * stepper.cascades
        assert runtime.sim.processed_events <= 15_500  # 14 768; 86 325 per event
        assert stepper.inline_events >= 79_000  # 80 175

    def test_a_sliced_dsm_cell_sweeps_its_backlog_drain(self, sliced):
        """The 340 s a restored DSM spout drains its backlog at the pending cap
        are 88 of the cell's slices: each one cascade (``source-backlog`` is
        gone), what declines is the migration and the replay stretch after it."""
        stepper = diamond_cell("dsm").runtime.batch_stepper
        assert stepper.cascades == 101
        assert set(stepper.declines) == {"short-window", "deferred-deliveries", "source-replays"}
        share = stepper.inline_events / (stepper.inline_events + stepper.runtime.sim.processed_events)
        assert share >= 0.6  # 0.70; 0.16 before

    @pytest.mark.parametrize("strategy", ["dsm", "dcr", "ccr"])
    def test_the_sliced_cell_is_the_per_event_cell(self, sliced, monkeypatch, strategy):
        """The cells above in the benchmark's shape, against the per-event
        engine (``batch_stepping = False``) sliced alike: log digest (event
        ids included), routed count, every acker counter but ``bulk_*``, and
        the spout's sequence, backlog and drain chain.  Every slice is a short
        window -- a DSM cell's drain is 88 held windows -- so this is the
        stepper's small-window path, end to end."""
        swept = diamond_cell(strategy).runtime
        strategy_cls = strategy_by_name(strategy)
        runtime_config = strategy_cls.runtime_config.__func__

        def per_event(cls, seed: int = 2018) -> RuntimeConfig:
            config = runtime_config(cls, seed=seed)
            config.batch_stepping = False
            return config

        monkeypatch.setattr(strategy_cls, "runtime_config", classmethod(per_event))
        classic = run_migration_experiment(
            dag="diamond", strategy=strategy, scaling="in",
            migrate_at_s=90.0, post_migration_s=540.0, seed=2018,
        ).runtime
        assert classic.batch_stepper is None and swept.batch_stepper.cascades > 100
        assert log_digest(swept.log) == log_digest(classic.log)
        assert swept.router.routed_count == classic.router.routed_count
        assert acker_facts(swept) == acker_facts(classic)
        assert spout_facts(swept) == spout_facts(classic)

    def test_the_same_cell_unsliced_is_two_cascades(self):
        stepper = diamond_cell("dcr").runtime.batch_stepper
        assert stepper.cascades == 2  # one up to the migration request, one after the restore
        assert "short-window" not in stepper.declines

    def test_a_declined_tick_reads_neither_the_heap_nor_the_executors(self, monkeypatch):
        """``short-window`` (and the structural reasons) cost O(1): a tick they
        decline walks neither the kernel heap nor the executors."""
        sim = Simulator()
        runtime = TopologyRuntime(
            topologies.diamond(), build_cluster(sim, worker_vms=6), sim=sim,
            config=RuntimeConfig.for_dcr(seed=2018),
        )
        runtime.deploy()
        runtime.start()
        sim.run(until=1.0)  # the structural verdict is taken once per placement epoch

        def refuse(*args, **kwargs):
            raise AssertionError("a declined tick scanned")

        class Unwalkable(dict):
            values = refuse

        monkeypatch.setattr(Simulator, "next_timer_time", refuse)
        monkeypatch.setattr(Simulator, "fast_entries", refuse)
        runtime.executors = Unwalkable(runtime.executors)
        for _ in range(9):
            sim.run(until=sim.now + 1.0)  # 8 roots a window
        stepper = runtime.batch_stepper
        assert stepper.cascades == 0 and stepper.declines == {"short-window": 80}


    def test_the_windowed_grid_sweeps_4_s_windows_and_declines_1_s_windows(self):
        """160 s of the Grid at the paper's 8 ev/s in 40 windows of 4 s, then 160 s
        in 160 windows of 1 s -- the regime ``repro figure`` / ``repro elastic``
        live in, where every monitor sample and controller tick cuts a cascade.
        32 roots a window are swept, one cascade each; 8 are declined tick by
        tick as ``short-window``; the receipts are the per-event engine's."""

        def windowed_grid(batch_stepping):
            sim = Simulator()
            config = fast_config("dcr")
            config.batch_stepping = batch_stepping
            runtime = TopologyRuntime(
                topologies.grid(), build_cluster(sim, worker_vms=11), sim=sim, config=config
            )
            runtime.deploy()
            runtime.start()
            for windows, step_s in ((40, 4.0), (160, 1.0)):
                for _ in range(windows):
                    sim.run(until=sim.now + step_s)
            return runtime

        runtime = windowed_grid(batch_stepping=True)
        counts = {"cascades": runtime.batch_stepper.cascades, "declines": dict(runtime.batch_stepper.declines)}
        receipts = len(runtime.log.sink_receipts)
        assert receipts > 9_000
        # One cascade a 4 s window (the first tick of the run rides the cold
        # start); every tick of the 1 s windows declined by the rule.
        assert 40 <= counts["cascades"] <= 42
        assert counts["declines"] == {"short-window": 160 * 8}
        assert len(windowed_grid(batch_stepping=False).log.sink_receipts) == receipts


class TestArrayRoundBudget:
    """The vectorized tier's array rounds repeat exactly as well.

    A cascade used to cost one array round per channel and one per task
    instance whatever the window held -- 65 on Grid (43 channels, 22
    instances) -- which is what kept the batch stepper behind the per-event
    engine at the paper's 8 ev/s.  The level sweep takes one service round and
    one shipping round per topological level while a level fits the block
    budget, and goes back to whole channels / instances only past it.
    """

    @staticmethod
    def grid(rate: float, latency_s: float, windows: int, step_s: float):
        config = RuntimeConfig.for_dcr(seed=2018)
        sim = Simulator()
        runtime = TopologyRuntime(
            topologies.grid(rate=rate, latency_s=latency_s),
            build_cluster(sim, worker_vms=11), sim=sim, config=config,
        )
        runtime.deploy()
        runtime.start()
        for _ in range(windows):
            sim.run(until=sim.now + step_s)
        return runtime.batch_stepper

    def test_steady_grid_takes_two_rounds_a_level(self):
        stepper = self.grid(rate=8.0, latency_s=0.1, windows=40, step_s=4.0)
        levels = len(stepper._sweep_plan().levels)
        assert levels == 9
        assert stepper.cascades >= 40
        assert stepper.rounds <= 2 * levels * stepper.cascades

    def test_a_100x_window_keeps_one_block_per_over_budget_channel(self, monkeypatch):
        blocks = []
        ship_block = batch._Sweep._ship_block
        serve_block = batch._Sweep._serve_block

        def spy_ship(sweep, level, i, j, parents, roots, ids, counts):
            blocks.append((j - i, sum(counts)))
            return ship_block(sweep, level, i, j, parents, roots, ids, counts)

        def spy_serve(sweep, block):
            blocks.append((len(block), sum(total for _, _, _, total in block)))
            return serve_block(sweep, block)

        monkeypatch.setattr(batch._Sweep, "_ship_block", spy_ship)
        monkeypatch.setattr(batch._Sweep, "_serve_block", spy_serve)
        stepper = self.grid(rate=800.0, latency_s=0.001, windows=1, step_s=12.0)
        assert stepper.cascades == 1 and stepper.rounds == len(blocks)
        budget = batch._BLOCK_ENTRIES
        over = [members for members, entries in blocks if entries > budget]
        assert over and set(over) == {1}, "an over-budget block is one whole channel / instance"
        assert any(members > 1 for members, _ in blocks), "smaller ones still share a round"
