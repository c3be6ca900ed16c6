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

from repro.dataflow import topologies
from repro.dataflow.event import reset_event_ids
from repro.engine import batch
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments import run_migration_experiment
from repro.sim import Simulator

from tests.conftest import build_cluster


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


class TestKernelEventBudget:
    """Kernel-event counts repeat exactly, so they gate what wall-clock cannot.

    The per-event engine got faster by executing fewer events: a throttled
    spout parks instead of polling ``max.spout.pending`` at 100 Hz (the DSM
    catch-up spent 29 % of its events on those polls), and a zero-time sink
    completes inside ``deliver()`` (two events per receipt became one).  The
    2x wall-clock gate of ``check_perf_regression.py`` would not notice
    either coming back; these counts do.  Diamond scale-in at the benchmark's
    timing: 143 516 / 96 396 / 96 276 events before, 97 136 / 86 325 / 86 205
    after.
    """

    @pytest.mark.parametrize(
        "strategy, budget", [("dsm", 100_000), ("dcr", 87_000), ("ccr", 87_000)]
    )
    def test_diamond_scale_in_stays_within_its_event_budget(self, strategy, budget):
        result = run_migration_experiment(
            dag="diamond",
            strategy=strategy,
            scaling="in",
            migrate_at_s=90.0,
            post_migration_s=540.0,
            seed=2018,
        )
        assert result.runtime.sim.processed_events <= budget


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
        reset_event_ids()
        config = RuntimeConfig.for_dcr(seed=2018)
        config.batch_stepping = True
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

        def spy_ship(sweep, level, i, j, parents, roots, counts):
            blocks.append((j - i, sum(counts)))
            return ship_block(sweep, level, i, j, parents, roots, counts)

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
