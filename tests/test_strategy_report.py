"""Tests for the MigrationReport derived properties and the strategy base class."""

from __future__ import annotations

import pytest

from repro.core.strategy import MigrationReport, MigrationStrategy, STRATEGIES, register_strategy


class TestMigrationReport:
    def _report(self):
        return MigrationReport(strategy="dcr", requested_at=100.0)

    def test_incomplete_report_properties(self):
        report = self._report()
        assert not report.is_complete
        assert report.drain_capture_duration_s is None
        assert report.rebalance_duration_s is None
        assert report.protocol_duration_s is None

    def test_drain_capture_duration(self):
        report = self._report()
        report.rebalance_started_at = 102.5
        assert report.drain_capture_duration_s == pytest.approx(2.5)

    def test_rebalance_duration(self):
        report = self._report()
        report.rebalance_started_at = 102.0
        report.rebalance_command_completed_at = 109.3
        assert report.rebalance_duration_s == pytest.approx(7.3)

    def test_protocol_duration(self):
        report = self._report()
        report.completed_at = 130.0
        assert report.is_complete
        assert report.protocol_duration_s == pytest.approx(30.0)


class TestStrategyRegistry:
    def test_register_strategy_decorator(self):
        @register_strategy
        class _Dummy(MigrationStrategy):
            name = "dummy-test-strategy"

            def migrate(self, new_plan, on_complete=None):  # pragma: no cover - not exercised
                return self._new_report()

        try:
            assert STRATEGIES["dummy-test-strategy"] is _Dummy
        finally:
            STRATEGIES.pop("dummy-test-strategy", None)

    def test_base_runtime_config_is_neutral(self):
        config = MigrationStrategy.runtime_config(seed=4)
        assert config.seed == 4
        assert not config.reliability.ack_all_events
