"""Batch stepping under data acking: the acked equivalence matrix.

The stepper stays engaged under data acking and replays the acker XOR stream
in bulk, under the unacked suite's contract (``tests/test_batch_equivalence.py``):
the per-event kernel's log bit for bit (``batch_stepping = False``; event ids
are a function of the data, so they are equal too), the same replay counts
and scaling decisions, and **every** acker counter but the two ``bulk_*``
break-outs (registered, completed, failed, anchors, acks, late acks, pending
trees).  A tree's XOR is zero only when nothing is outstanding, so the two
engines agree through loss windows too: an injected ``acker.fail`` and every
cell of the paper matrix here, a full DSM elastic run whose migrations lose
in-flight messages in ``tests/test_batch_equivalence.py``.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.core import strategy_by_name
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments import run_migration_experiment
from repro.sim.shard import log_digest

from tests.test_batch_equivalence import (
    GOLDEN_CASES,
    acker_facts,
    build_grid,
    check_golden,
    fingerprint,
    replay_count,
    run_windows,
)


# ------------------------------------------------------------ golden digests
#: Acked runs: the fingerprint of
#: ``tests/test_batch_equivalence.py::golden_fingerprint`` -- digest,
#: deliveries, kernel events, cascades, inline events, then the acker's
#: registered / completed / failed / anchors / acks / late acks / bulk anchors
#: / bulk acks and its pending trees.  No tree completes early by id value
#: (late acks read 0), and the ``rescale`` rows fail and replay every tree the
#: kill lost.  The digests were re-recorded once when ids became a function of
#: the data; every count stayed as it was, and ``check_golden`` runs each row
#: per event too.
GOLDEN_ACKED = {
    ('diamond', 'paper'): ('419739d0ad184a53', 2888, 750, 9, 5275, 320, 315, 0, 2858, 2850, 0, 2506, 2490, 5),
    ('diamond', 'long'): ('9cbbc18d0be2ad33', 98499, 9492, 45, 197983, 10800, 10795, 0, 97178, 97170, 0, 93784, 93777, 5),
    ('diamond', '100x'): ('e4b8ebd9bbba47d1', 172756, 2, 2, 364681, 19200, 19190, 0, 172756, 172739, 0, 172756, 172739, 10),
    ('diamond', 'rescale'): ('65ee8af55a40b184', 4021, 2920, 15, 5404, 442, 399, 42, 3970, 3969, 0, 2564, 2556, 1),
    ('grid', 'paper'): ('99ed81272e26880b', 7993, 2059, 9, 14097, 320, 313, 0, 7915, 7895, 0, 6923, 6895, 7),
    ('grid', 'long'): ('9945bac92eb12e4c', 273348, 33635, 45, 522660, 10800, 10793, 0, 269915, 269895, 0, 256214, 256195, 7),
    ('grid', '100x'): ('9c95ccdc12c22c1d', 479817, 2, 2, 978743, 19200, 19184, 0, 479817, 479766, 0, 479817, 479766, 16),
    ('grid', 'rescale'): ('684bdc4d5724e2b7', 11252, 8169, 15, 14324, 447, 398, 47, 11139, 11132, 0, 7027, 7016, 2),
    ('traffic', 'paper'): ('bba91a72fd9c04f5', 5430, 1331, 9, 9697, 320, 315, 0, 5392, 5378, 0, 4720, 4698, 5),
    ('traffic', 'long'): ('ce274daf7b72c844', 185225, 15570, 45, 364833, 10800, 10795, 0, 183552, 183538, 0, 177210, 177197, 5),
    ('traffic', '100x'): ('e1c8dffdf6b7ced3', 326296, 2, 2, 671734, 19200, 19188, 0, 326296, 326263, 0, 326296, 326263, 12),
    ('traffic', 'rescale'): ('cdb9ea0dc2cab226', 7575, 5230, 15, 9899, 443, 398, 43, 7513, 7510, 0, 4807, 4798, 2),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("dag,regime", GOLDEN_CASES)
    def test_acked_run_matches_the_recorded_fingerprint(self, dag, regime):
        check_golden(dag, regime, True, GOLDEN_ACKED[dag, regime])


# ------------------------------------------------- grid: the acked matrix
class TestAckedGridMatrix:
    """The batch stepper on the acked Grid (its windowed runs against the
    per-event kernel's are ``TestVectorizedEquivalence``'s ``dsm`` cases)."""

    def test_windowed_run_reengages_every_window(self):
        # Every window boundary leaves events of pending trees in flight;
        # ingestion must adopt them and re-engage rather than declining for
        # the rest of the run.
        _, runtime = run_windows(True, 20, 2.5, "dsm")
        # (every second window opens on the 5 s checkpoint wave, and what is
        # left of it once the wave has passed is below the cost rule's floor)
        assert runtime.batch_stepper.cascades >= 10

    def test_bulk_apis_absorbed_the_stream(self):
        _, runtime = run_windows(True, 1, 10.0, "dsm")
        stats = runtime.acker.stats
        assert stats.bulk_anchors > 0
        assert stats.bulk_acks > 0
        # Classic runs never touch the bulk counters.
        _, classic = run_windows(False, 1, 10.0, "dsm")
        assert classic.acker.stats.bulk_anchors == 0
        assert classic.acker.stats.bulk_acks == 0


# ------------------------------------------------------ grid: injected loss
class TestAckedInjectedLoss:
    """An explicit fail of a just-emitted root: one replay, either engine.

    The failed root is the newest still-pending emission at the injection
    time, the same tuple (and id) in both engines; replay traffic then runs
    through the classic path (the scan declines replayed events) and the
    cascade re-engages after.
    """

    @staticmethod
    def run_with_fail(batch_stepping: bool):
        sim, runtime = build_grid(batch_stepping, "dsm")
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
        assert fingerprint(batched) == fingerprint(classic)
        # Disengaged around the loss window, re-engaged after.
        assert batched.batch_stepper.cascades >= 2


# ----------------------------------------------------------- paper-matrix cells
def spout_facts(runtime: TopologyRuntime):
    """The spout as the run's end finds it, drain chain included."""
    source = runtime.source_executors[0]
    return (
        source._sequence, source.emitted_count, source.replayed_count, source.skipped_ticks,
        [payload["seq"] for payload in source._backlog], list(source._replay_queue),
        source.drain_parks, source.drain_wakes, source._drain_next,
        source.drain_poll and source.drain_poll.time, len(source._cache),
    )


class TestPaperMatrixCells:
    """Every cell of the figure matrix at the paper's timing (migration at
    90 s, 540 s after), stepper against per-event kernel.

    The DSM cells once crashed in ``extend_receipts`` ("receipt times must be
    non-decreasing"): under DSM's spout-pending cap the *headroom*, not a
    timer or the run bound, ends a stretch's emission schedule, and the sweep
    used to keep serving queues up to the horizon -- past the tick the cap
    held back -- so that tick was later served against executors already
    advanced beyond it and its receipts landed before logged ones.  A capped
    stretch now ends at that tick.
    """

    @staticmethod
    def run_cell(monkeypatch, dag: str, strategy: str, scaling: str, batch_stepping: bool):
        strategy_cls = strategy_by_name(strategy)
        runtime_config = strategy_cls.runtime_config.__func__

        def configured(cls, seed: int = 2018) -> RuntimeConfig:
            config = runtime_config(cls, seed=seed)
            config.batch_stepping = batch_stepping
            return config

        with monkeypatch.context() as patch:
            patch.setattr(strategy_cls, "runtime_config", classmethod(configured))
            return run_migration_experiment(
                dag=dag, strategy=strategy, scaling=scaling,
                migrate_at_s=90.0, post_migration_s=540.0,
            )

    @pytest.mark.parametrize("scaling", ["in", "out"])
    @pytest.mark.parametrize("strategy", ["dsm", "dcr", "ccr"])
    @pytest.mark.parametrize("dag", ["linear", "diamond", "star", "grid", "traffic"])
    def test_stepper_log_is_the_per_event_log(self, monkeypatch, dag, strategy, scaling):
        """The log digest, event ids included, and everything else observable
        but which engine absorbed an ack.  In a DSM cell the 340 s the
        restored spout drains its backlog at the pending cap are swept
        (emissions derived from the adopted trees' completions)."""
        batched = self.run_cell(monkeypatch, dag, strategy, scaling, batch_stepping=True)
        classic = self.run_cell(monkeypatch, dag, strategy, scaling, batch_stepping=False)
        stepper = batched.runtime.batch_stepper
        assert stepper.cascades > 0
        assert log_digest(batched.log) == log_digest(classic.log)
        assert batched.runtime.router.routed_count == classic.runtime.router.routed_count
        assert spout_facts(batched.runtime) == spout_facts(classic.runtime)
        assert acker_facts(batched.runtime) == acker_facts(classic.runtime)
        assert batched.metrics.restore_duration_s == classic.metrics.restore_duration_s
        if strategy != "dsm":
            return
        events = stepper.inline_events + batched.runtime.sim.processed_events
        assert stepper.inline_events >= 0.6 * events  # 0.81-0.88; 0.14-0.31 with the drain per event
        times = batched.runtime.log.receipt_columns()["time"]
        assert len(times) and bool((np.diff(times) >= 0).all())
        assert classic.metrics.replayed_message_count > 0, "a DSM migration must replay"
