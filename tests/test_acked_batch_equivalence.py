"""Batch stepping under data acking: the acked equivalence matrix.

PR 6's equivalence contract (``tests/test_batch_equivalence.py``) covered the
unacked path only — the stepper used to disengage the moment acking was on.
Now it stays engaged and replays the acker XOR stream in bulk, under the same
contract: equivalent to the per-event kernel (``batch_stepping = False``)
*modulo event-id assignment order* -- identical emission/receipt times, replay counts, scaling decisions
and **every** acker counter but the two ``bulk_*`` break-outs (registered,
completed, failed, anchors, acks, late acks, pending trees), with root
identity mapped through emission order.

The completed / pending split and the anchor / ack / late-ack tallies used to
be left out of the equivalence class: the acker XORed bare sequential ids, so
which trees completed early (and which a kill caught pending) hung on the
literal id *values* -- the degree of freedom the modulo-ids contract gives up.
With ``acker.id_hash`` a tree's hash is zero only when nothing is outstanding,
whatever order the ids were drawn in, so the two engines agree through loss
windows too: an injected ``acker.fail``, a full DSM elastic run whose
migrations lose in-flight messages, and the DSM cells of the paper matrix.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.core.dsm import DefaultStormMigration
from repro.dataflow import topologies
from repro.dataflow.event import reset_event_ids
from repro.elastic import ControllerConfig
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments import run_elastic_experiment, run_migration_experiment
from repro.sim import Simulator
from repro.workloads import StepProfile

from tests.conftest import build_cluster, fast_config
from tests.test_batch_equivalence import (
    GOLDEN_CASES,
    check_golden,
    fingerprint_modulo_ids,
    log_modulo_ids,
)


# ------------------------------------------------------------------ builders
def build_acked_grid(batch_stepping: bool):
    """A deployed Grid runtime with acking on (DSM reliability profile)."""
    reset_event_ids()
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=11)
    config = fast_config("dsm")
    config.batch_stepping = batch_stepping
    runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()
    return sim, runtime


def run_acked_windows(batch_stepping: bool, windows: int, step_s: float):
    sim, runtime = build_acked_grid(batch_stepping)
    for _ in range(windows):
        sim.run(until=sim.now + step_s)
    return sim, runtime


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


def acked_fingerprint(runtime: TopologyRuntime):
    """The modulo-ids fingerprint plus the acker's side of the run."""
    return fingerprint_modulo_ids(runtime), acker_facts(runtime)


#: The sub-2 s windows hold fewer roots than the stepper's cost rule sweeps
#: (``batch._MIN_WINDOW_ROOTS``): they check that a declined window is the
#: kernel's, the 2.5 s and 3.3 s ones what the 0.5 s and 1.3 s ones used to.
WINDOWS = [(1, 10.0), (20, 2.5), (7, 3.3), (20, 0.5), (7, 1.3)]
WINDOW_IDS = ["cold-10s", "20x2.5s", "7x3.3s", "20x0.5s", "7x1.3s"]


# ------------------------------------------------------------ golden digests
#: Recorded at the parent of the level sweep (PR 17), acked runs: the
#: fingerprint of ``tests/test_batch_equivalence.py::golden_fingerprint`` --
#: digest, deliveries, kernel events, cascades, inline events, then the acker's
#: registered / completed / failed / anchors / acks / late acks / bulk anchors
#: / bulk acks and its pending trees.  The six Grid and Traffic rows below 100x
#: were re-recorded when the acker began hashing ids (PR 20): no tree completes
#: early by id value any more, so late acks read 0 (488 on Grid ``paper``), and
#: the ``rescale`` rows fail and replay every tree the kill lost (Grid 41 ->
#: 47), which moves their digests.  The ``paper`` and ``rescale`` rows were
#: re-recorded with the cost rule (PR 21): the tick a 30 s checkpoint timer
#: leaves a few roots before a window's end now runs per event, so ids are
#: drawn in another order, and ``rescale`` windows went from 1 s to 2.5 s.
GOLDEN_ACKED = {
    ('diamond', 'paper'): ('5ecfb501a1df65a2', 2888, 750, 9, 5275, 320, 315, 0, 2858, 2850, 0, 2506, 2490, 5),
    ('diamond', 'long'): ('1b4cb2948f8953f1', 98499, 9492, 45, 197983, 10800, 10795, 0, 97178, 97170, 0, 93784, 93777, 5),
    ('diamond', '100x'): ('7ef3cb2be3bd1eae', 172756, 2, 2, 364681, 19200, 19190, 0, 172756, 172739, 0, 172756, 172739, 10),
    ('diamond', 'rescale'): ('c54e25443576045f', 4021, 2920, 15, 5404, 442, 399, 42, 3970, 3969, 0, 2564, 2556, 1),
    ('grid', 'paper'): ('14ee6095f0e31d63', 7993, 2059, 9, 14097, 320, 313, 0, 7915, 7895, 0, 6923, 6895, 7),
    ('grid', 'long'): ('f79e03b1d098ba5d', 273348, 33635, 45, 522660, 10800, 10793, 0, 269915, 269895, 0, 256214, 256195, 7),
    ('grid', '100x'): ('f08570e3e3ebd62b', 479817, 2, 2, 978743, 19200, 19184, 0, 479817, 479766, 0, 479817, 479766, 16),
    ('grid', 'rescale'): ('8d5da5f33db74a6c', 11252, 8169, 15, 14324, 447, 398, 47, 11139, 11132, 0, 7027, 7016, 2),
    ('traffic', 'paper'): ('2810888328411043', 5430, 1331, 9, 9697, 320, 315, 0, 5392, 5378, 0, 4720, 4698, 5),
    ('traffic', 'long'): ('791bb361c29c5390', 185225, 15570, 45, 364833, 10800, 10795, 0, 183552, 183538, 0, 177210, 177197, 5),
    ('traffic', '100x'): ('00af354befb72715', 326296, 2, 2, 671734, 19200, 19188, 0, 326296, 326263, 0, 326296, 326263, 12),
    ('traffic', 'rescale'): ('b9b86a4ddcd3674e', 7575, 5230, 15, 9899, 443, 398, 43, 7513, 7510, 0, 4807, 4798, 2),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("dag,regime", GOLDEN_CASES)
    def test_acked_run_matches_the_recorded_fingerprint(self, dag, regime):
        check_golden(dag, regime, True, GOLDEN_ACKED[dag, regime])


# ------------------------------------------------- grid: the acked matrix
class TestAckedGridMatrix:
    """Per-event kernel vs the batch stepper on the acked Grid."""

    @pytest.mark.parametrize("windows,step_s", WINDOWS, ids=WINDOW_IDS)
    def test_vectorized_modulo_ids(self, windows, step_s):
        _, classic = run_acked_windows(False, windows, step_s)
        expected = acked_fingerprint(classic)
        _, batched = run_acked_windows(True, windows, step_s)
        assert acked_fingerprint(batched) == expected
        # The cascade actually carried the run under acking.
        assert (batched.batch_stepper.cascades >= 1) == (step_s >= 2.0)

    def test_windowed_run_reengages_every_window(self):
        # Every window boundary leaves events of pending trees in flight;
        # ingestion must adopt them and re-engage rather than declining for
        # the rest of the run.
        _, runtime = run_acked_windows(True, 20, 2.5)
        # (every second window opens on the 5 s checkpoint wave, and what is
        # left of it once the wave has passed is below the cost rule's floor)
        assert runtime.batch_stepper.cascades >= 10

    def test_bulk_apis_absorbed_the_stream(self):
        _, runtime = run_acked_windows(True, 1, 10.0)
        stats = runtime.acker.stats
        assert stats.bulk_anchors > 0
        assert stats.bulk_acks > 0
        # Classic runs never touch the bulk counters.
        _, classic = run_acked_windows(False, 1, 10.0)
        assert classic.acker.stats.bulk_anchors == 0
        assert classic.acker.stats.bulk_acks == 0


# ------------------------------------------------------ grid: injected loss
class TestAckedInjectedLoss:
    """An explicit fail of a just-emitted root: one replay, either engine.

    The failed root is picked positionally (newest still-pending emission at
    the injection time) so both engines lose the *same* tuple, whatever ids it
    carries; replay traffic then runs through the classic path (the scan
    declines replayed events) and the cascade re-engages after.
    """

    @staticmethod
    def run_with_fail(batch_stepping: bool):
        sim, runtime = build_acked_grid(batch_stepping)
        injected = []

        def inject():
            for emit in reversed(runtime.log.source_emits):
                if runtime.acker.is_pending(emit.root_id):
                    runtime.acker.fail(emit.root_id)
                    injected.append(emit.time)
                    return

        # 10 ms after the emission tick at t=3.0: that tree is one hop into
        # the pipeline in both engines, so the positional pick cannot diverge.
        sim.schedule_at(3.01, inject)
        # The replay's tree stays pending to its own timeout at 8 s (the lost
        # tree's stragglers ack into it), a timer that leaves the ticks before
        # it windows below the cost rule's floor: run on past it.
        sim.run(until=15.0)
        return runtime, injected

    def test_replay_counts_identical_across_the_matrix(self):
        classic, lost_c = self.run_with_fail(False)
        batched, lost_b = self.run_with_fail(True)
        assert lost_c == lost_b == [3.0]
        assert replay_count(classic) > 0
        assert acked_fingerprint(batched) == acked_fingerprint(classic)
        # Disengaged around the loss window, re-engaged after.
        assert batched.batch_stepper.cascades >= 2


# --------------------------------------------------------------- elastic run
class TestAckedElasticEquivalence:
    """Full DSM elastic run: migrations kill executors, losing in-flight
    messages (the paper's fig. 6 replay source).  The stepper must ride
    through it as the classic keyed kernel does: same scaling decisions, same
    log modulo ids, same trees failed and replayed."""

    @staticmethod
    def run_elastic(batch_stepping: bool):
        config = fast_config("dsm", seed=11)
        config.batch_stepping = batch_stepping
        return run_elastic_experiment(
            dag="traffic",
            strategy="dsm",
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
    def actions_of(result):
        return [
            (a.direction, a.from_tier, a.to_tier, a.decided_at, a.enacted_at, a.completed_at)
            for a in result.actions
        ]

    def test_elastic_dsm_run_matches_classic(self):
        classic = self.run_elastic(False)
        assert self.actions_of(classic), "the surge must trigger scaling"
        assert replay_count(classic.runtime) > 0, "DSM migrations must replay"

        batched = self.run_elastic(True)
        assert self.actions_of(batched) == self.actions_of(classic)
        assert log_modulo_ids(batched.log) == log_modulo_ids(classic.log)
        assert acker_facts(batched.runtime) == acker_facts(classic.runtime)
        assert batched.runtime.batch_stepper.cascades > 0


# ------------------------------------------------------- paper-matrix DSM cells
class TestPaperMatrixDsmCells:
    """The DSM cells of the figure matrix under ``batch_stepping=True``.

    These crashed in ``extend_receipts`` ("receipt times must be
    non-decreasing"): under DSM's spout-pending cap the *headroom*, not a
    timer or the run bound, ends a stretch's emission schedule, and the sweep
    used to keep serving queues up to the horizon -- past the tick the cap
    held back -- so that tick was later served against executors already
    advanced beyond it and its receipts landed before logged ones.  A capped
    stretch now ends at that tick.
    """

    @staticmethod
    def run_cell(monkeypatch, dag: str, batch_stepping: bool, scaling: str = "in"):
        def runtime_config(cls, seed: int = 2018) -> RuntimeConfig:
            config = RuntimeConfig.for_dsm(seed=seed)
            config.batch_stepping = batch_stepping
            return config

        monkeypatch.setattr(DefaultStormMigration, "runtime_config", classmethod(runtime_config))
        return run_migration_experiment(
            dag=dag, strategy="dsm", scaling=scaling, migrate_at_s=90.0, post_migration_s=540.0
        )

    @staticmethod
    def spout_facts(runtime: TopologyRuntime):
        """The spout as the run's end finds it, drain chain included."""
        source = runtime.source_executors[0]
        return (
            source._sequence, source.emitted_count, source.replayed_count, source.skipped_ticks,
            [payload["seq"] for payload in source._backlog], list(source._replay_queue),
            source.drain_parks, source.drain_wakes, source._drain_next,
            source.drain_poll and source.drain_poll.time, len(source._cache),
        )

    @pytest.mark.parametrize("scaling", ["in", "out"])
    @pytest.mark.parametrize("dag", ["linear", "diamond", "star", "grid", "traffic"])
    def test_matches_the_classic_keyed_kernel(self, monkeypatch, dag, scaling):
        """All ten DSM cells: the 340 s the restored spout drains its backlog at
        the pending cap are swept (emissions derived from the adopted trees'
        completions), and nothing observable tells the run from the per-event
        one but event ids and which engine absorbed an ack."""
        batched = self.run_cell(monkeypatch, dag, batch_stepping=True, scaling=scaling)
        classic = self.run_cell(monkeypatch, dag, batch_stepping=False, scaling=scaling)
        stepper = batched.runtime.batch_stepper
        assert stepper.cascades > 0 and "source-backlog" not in stepper.declines
        events = stepper.inline_events + batched.runtime.sim.processed_events
        assert stepper.inline_events >= 0.6 * events  # 0.81-0.88; 0.14-0.31 with the drain per event
        assert batched.runtime.router.routed_count == classic.runtime.router.routed_count
        assert self.spout_facts(batched.runtime) == self.spout_facts(classic.runtime)

        times = batched.runtime.log.receipt_columns()["time"]
        assert len(times) and bool((np.diff(times) >= 0).all())

        # Star and Grid used to sit a few replays apart: trees in flight at
        # the kill that one engine's bare sequential ids had XOR-collapsed to
        # zero (two of four sink receipts logged, never replayed) and the
        # other's had not.  A hashed id cancels only against itself.
        assert classic.metrics.replayed_message_count > 0, "a DSM migration must replay"
        assert batched.metrics.restore_duration_s == classic.metrics.restore_duration_s
        assert batched.metrics.replayed_message_count == classic.metrics.replayed_message_count
        assert log_modulo_ids(batched.log) == log_modulo_ids(classic.log)
        assert acker_facts(batched.runtime) == acker_facts(classic.runtime)
