"""Unit tests for the event log, timelines, stabilization detector and §4 metrics."""

from __future__ import annotations

import pytest

from repro.core.metrics import compute_migration_metrics
from repro.core.strategy import MigrationReport
from repro.metrics.log import EventLog
from repro.metrics.timeline import latency_timeline, rate_timeline, stabilization_time
from repro.sim import Simulator


def make_log(sim=None):
    return EventLog(sim if sim is not None else Simulator())


def advance(sim, to):
    sim.schedule_at(to, lambda: None)
    sim.run()


class TestEventLog:
    def test_source_emit_records_first_emission_time(self):
        sim = Simulator()
        log = make_log(sim)
        log.record_source_emit(1, "src")
        advance(sim, 10.0)
        log.record_source_emit(1, "src", replay_count=1)
        assert [(e.root_id, e.time, e.replay_count) for e in log.source_emits] == [
            (1, 0.0, 0), (1, 10.0, 1)
        ]
        assert log.replay_emits == 1

    def test_sink_receipt_latency(self):
        sim = Simulator()
        log = make_log(sim)
        advance(sim, 5.0)
        log.record_sink_receipt(1, 11, "sink", root_emitted_at=4.0, replay_count=0)
        assert log.sink_receipts[0].latency_s == pytest.approx(1.0)

    def test_first_receipt_after(self):
        sim = Simulator()
        log = make_log(sim)
        for t in (1.0, 2.0, 3.0):
            advance(sim, t)
            log.record_sink_receipt(int(t), int(t) * 10, "sink", root_emitted_at=t - 0.5, replay_count=0)
        receipt = log.first_receipt_after(1.5)
        assert receipt is not None and receipt.time == pytest.approx(2.0)
        assert log.first_receipt_after(10.0) is None

    def test_last_old_receipt_and_last_replay_receipt(self):
        sim = Simulator()
        log = make_log(sim)
        log.record_source_emit(1, "src")
        log.record_source_emit(2, "src")
        advance(sim, 100.0)
        log.record_source_emit(3, "src")
        advance(sim, 110.0)
        log.record_sink_receipt(1, 10, "sink", root_emitted_at=0.0, replay_count=0)
        advance(sim, 120.0)
        log.record_sink_receipt(2, 20, "sink", root_emitted_at=0.0, replay_count=1)
        advance(sim, 130.0)
        log.record_sink_receipt(3, 30, "sink", root_emitted_at=100.0, replay_count=0)
        last_old = log.last_old_receipt(migration_time=50.0)
        assert last_old is not None and last_old.root_id == 2
        last_replay = log.last_replay_receipt(migration_time=50.0)
        assert last_replay is not None and last_replay.root_id == 2

    def test_drop_kill_and_lifecycle_records(self):
        sim = Simulator()
        log = make_log(sim)
        log.record_drop("a#0", "data", "killed", root_id=5)
        log.record_kill("a#0", queued_events_lost=3, pending_events_lost=1)
        log.record_lifecycle("a#0", "killed")
        assert [(d.executor_id, d.kind, d.reason, d.root_id) for d in log.drops] == [
            ("a#0", "data", "killed", 5)
        ]
        assert log.lost_in_kills() == 3
        assert log.lifecycle[0].status == "killed"

    def test_summary_counts(self):
        sim = Simulator()
        log = make_log(sim)
        log.record_source_emit(1, "src")
        log.record_sink_receipt(1, 10, "sink", root_emitted_at=0.0, replay_count=0)
        summary = log.summary()
        assert summary["source_emits"] == 1
        assert summary["sink_receipts"] == 1
        assert summary["distinct_roots_received"] == 1


class TestTimelines:
    def _fill(self, log, sim, rate, start, end):
        t = start
        root = 1000
        while t < end:
            sim.schedule_at(t, lambda: None)
            sim.run()
            log.record_sink_receipt(root, root, "sink", root_emitted_at=t - 0.5, replay_count=0)
            root += 1
            t += 1.0 / rate

    def test_rate_timeline_matches_known_rate(self):
        sim = Simulator()
        log = make_log(sim)
        self._fill(log, sim, rate=4.0, start=0.0, end=10.0)
        points = rate_timeline(log, kind="output", start=0.0, end=10.0, bin_s=1.0)
        assert len(points) == 10
        for point in points:
            assert point.rate == pytest.approx(4.0, abs=1.0)

    def test_rate_timeline_input_vs_output(self):
        sim = Simulator()
        log = make_log(sim)
        log.record_source_emit(1, "src")
        points_in = rate_timeline(log, kind="input", start=0.0, end=1.0, bin_s=1.0)
        points_out = rate_timeline(log, kind="output", start=0.0, end=1.0, bin_s=1.0)
        assert points_in[0].rate == pytest.approx(1.0)
        assert points_out[0].rate == pytest.approx(0.0)

    def test_rate_timeline_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            rate_timeline(make_log(), kind="sideways")

    def test_latency_timeline_windows(self):
        sim = Simulator()
        log = make_log(sim)
        for t in (1.0, 2.0, 11.0, 12.0):
            sim.schedule_at(t, lambda: None)
            sim.run()
            log.record_sink_receipt(int(t), int(t), "sink", root_emitted_at=t - (0.2 if t < 10 else 0.6), replay_count=0)
        points = latency_timeline(log, start=0.0, end=20.0, window_s=10.0)
        assert len(points) == 2
        assert points[0].latency_s == pytest.approx(0.2)
        assert points[1].latency_s == pytest.approx(0.6)
        assert points[0].samples == 2


class TestStabilization:
    def _steady_log(self, rate_by_interval):
        """Build a log with piecewise-constant output rates: [(start, end, rate), ...]."""
        sim = Simulator()
        log = make_log(sim)
        root = 1
        for start, end, rate in rate_by_interval:
            if rate <= 0:
                continue
            t = start
            while t < end:
                sim.schedule_at(t, lambda: None)
                sim.run()
                log.record_sink_receipt(root, root, "sink", root_emitted_at=t, replay_count=0)
                root += 1
                t += 1.0 / rate
        sim.schedule_at(rate_by_interval[-1][1], lambda: None)
        sim.run()
        return log

    def test_detects_stabilization_after_disruption(self):
        # Zero output for 50 s, then a steady 8 ev/s.
        log = self._steady_log([(0.0, 50.0, 0.0), (50.0, 200.0, 8.0)])
        stab = stabilization_time(log, expected_rate=8.0, after=0.0, end=200.0)
        assert stab is not None
        assert 45.0 <= stab <= 60.0

    def test_returns_none_when_never_stable(self):
        log = self._steady_log([(0.0, 200.0, 20.0)])  # always 2.5x expected
        assert stabilization_time(log, expected_rate=8.0, after=0.0, end=200.0) is None

    def test_out_of_band_rate_delays_stabilization(self):
        # 13 ev/s (out of the 20 % band) for 100 s, then 8 ev/s.
        log = self._steady_log([(0.0, 100.0, 13.0), (100.0, 260.0, 8.0)])
        stab = stabilization_time(log, expected_rate=8.0, after=0.0, end=260.0)
        assert stab is not None
        assert stab >= 95.0

    @pytest.mark.parametrize("rate, stable", [(9.2, True), (10.0, False)])
    def test_band_is_twenty_percent_of_the_expected_rate(self, rate, stable):
        log = self._steady_log([(0.0, 200.0, rate)])
        stab = stabilization_time(log, expected_rate=8.0, after=0.0, end=200.0)
        assert (stab is not None) is stable

    def test_window_is_sixty_seconds(self):
        # In band for 50 s only, then 2.5x: never stable.
        short = self._steady_log([(0.0, 50.0, 8.0), (50.0, 200.0, 20.0)])
        assert stabilization_time(short, expected_rate=8.0, after=0.0, end=200.0) is None
        # In band for 70 s: stable from the start.
        long = self._steady_log([(0.0, 70.0, 8.0), (70.0, 200.0, 20.0)])
        assert stabilization_time(long, expected_rate=8.0, after=0.0, end=200.0) == pytest.approx(0.0, abs=5.0)

    def test_rejects_nonpositive_expected_rate(self):
        with pytest.raises(ValueError):
            stabilization_time(make_log(), expected_rate=0.0, after=0.0)


class TestMigrationMetrics:
    def _report(self, strategy="dcr", requested_at=100.0):
        report = MigrationReport(strategy=strategy, requested_at=requested_at)
        report.rebalance_started_at = requested_at + 2.0
        report.rebalance_command_completed_at = requested_at + 9.0
        report.init_completed_at = requested_at + 20.0
        report.completed_at = requested_at + 20.0
        return report

    def test_restore_measured_from_request_to_first_post_rebalance_output(self):
        sim = Simulator()
        log = make_log(sim)
        log.record_source_emit(1, "src")
        advance(sim, 95.0)
        log.record_sink_receipt(1, 1, "sink", root_emitted_at=94.0, replay_count=0)  # pre-migration
        advance(sim, 125.0)
        log.record_sink_receipt(2, 2, "sink", root_emitted_at=124.0, replay_count=0)
        metrics = compute_migration_metrics(log, self._report(), expected_output_rate=8.0, end_time=400.0)
        assert metrics.restore_duration_s == pytest.approx(25.0)

    def test_receipts_before_rebalance_completion_do_not_count_as_restore(self):
        sim = Simulator()
        log = make_log(sim)
        advance(sim, 105.0)
        log.record_sink_receipt(1, 1, "sink", root_emitted_at=104.0, replay_count=0)  # during drain
        advance(sim, 130.0)
        log.record_sink_receipt(2, 2, "sink", root_emitted_at=129.0, replay_count=0)
        metrics = compute_migration_metrics(log, self._report(), expected_output_rate=8.0, end_time=400.0)
        assert metrics.restore_duration_s == pytest.approx(30.0)

    def test_catchup_only_counts_old_roots(self):
        sim = Simulator()
        log = make_log(sim)
        log.record_source_emit(1, "src")  # old root, t=0
        advance(sim, 150.0)
        log.record_source_emit(2, "src")  # new root
        advance(sim, 160.0)
        log.record_sink_receipt(2, 20, "sink", root_emitted_at=150.0, replay_count=0)
        advance(sim, 170.0)
        log.record_sink_receipt(1, 10, "sink", root_emitted_at=0.0, replay_count=0)
        metrics = compute_migration_metrics(log, self._report(), expected_output_rate=8.0, end_time=400.0)
        assert metrics.catchup_time_s == pytest.approx(70.0)

    def test_recovery_uses_replayed_receipts(self):
        sim = Simulator()
        log = make_log(sim)
        log.record_source_emit(1, "src")
        advance(sim, 140.0)
        log.record_source_emit(1, "src", replay_count=1)
        advance(sim, 165.0)
        log.record_sink_receipt(1, 10, "sink", root_emitted_at=140.0, replay_count=1)
        metrics = compute_migration_metrics(
            log, self._report(strategy="dsm"), expected_output_rate=8.0, end_time=400.0
        )
        assert metrics.recovery_time_s == pytest.approx(65.0)
        assert metrics.replayed_message_count == 1

    def test_dsm_drain_duration_is_zero(self):
        log = make_log()
        metrics = compute_migration_metrics(log, self._report(strategy="dsm"), expected_output_rate=8.0)
        assert metrics.drain_capture_duration_s == 0.0

    def test_rebalance_duration_from_report(self):
        log = make_log()
        metrics = compute_migration_metrics(log, self._report(), expected_output_rate=8.0)
        assert metrics.rebalance_duration_s == pytest.approx(7.0)

    def test_lost_in_kills_counts_only_post_request_kills(self):
        sim = Simulator()
        log = make_log(sim)
        advance(sim, 50.0)
        log.record_kill("a#0", queued_events_lost=5)
        advance(sim, 103.0)
        log.record_kill("b#0", queued_events_lost=2, pending_events_lost=4)
        metrics = compute_migration_metrics(log, self._report(), expected_output_rate=8.0)
        assert metrics.messages_lost_in_kills == 2

    def test_as_dict_contains_all_columns(self):
        log = make_log()
        metrics = compute_migration_metrics(log, self._report(), expected_output_rate=8.0,
                                             dataflow_name="tiny", scenario="scale-in")
        row = metrics.as_dict()
        for column in ("strategy", "dataflow", "scenario", "restore_s", "drain_capture_s",
                       "rebalance_s", "catchup_s", "recovery_s", "stabilization_s",
                       "replayed_messages", "lost_in_kills"):
            assert column in row
