"""Tests for the per-figure drivers and plain-text formatting helpers."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.dataflow.topologies import PAPER_ORDER
from repro.experiments.figures import (
    PAPER_FIG5,
    PAPER_FIG6,
    PAPER_FIG8,
    PAPER_REBALANCE_DURATION_S,
    STRATEGY_ORDER,
    statestore_micro,
    table1_rows,
)
from repro.experiments.formatting import (
    format_latency_series,
    format_rate_series,
    format_table,
    format_value,
    sparkline,
)
from repro.metrics.timeline import LatencyPoint, RatePoint


class TestPaperConstants:
    def test_fig5_covers_all_cells(self):
        for scaling in ("in", "out"):
            for dag in PAPER_ORDER:
                for strategy in STRATEGY_ORDER:
                    assert (scaling, dag, strategy) in PAPER_FIG5

    def test_fig6_covers_all_dags(self):
        for scaling in ("in", "out"):
            for dag in PAPER_ORDER:
                assert (scaling, dag) in PAPER_FIG6

    def test_fig8_covers_all_cells(self):
        for scaling in ("in", "out"):
            for dag in PAPER_ORDER:
                for strategy in STRATEGY_ORDER:
                    assert (scaling, dag, strategy) in PAPER_FIG8

    def test_paper_fig5_restore_ordering_dsm_worst(self):
        """Sanity-check the transcribed paper values themselves: DSM restore is always worst."""
        for scaling in ("in", "out"):
            for dag in PAPER_ORDER:
                dsm = PAPER_FIG5[(scaling, dag, "dsm")][0]
                dcr = PAPER_FIG5[(scaling, dag, "dcr")][0]
                ccr = PAPER_FIG5[(scaling, dag, "ccr")][0]
                assert dsm > dcr
                assert dsm > ccr


class TestTable1Driver:
    def test_rows_in_paper_order(self):
        assert [row["dag"] for row in table1_rows()] == PAPER_ORDER


class TestStateStoreMicro:
    def test_microbenchmark_close_to_paper(self):
        result = statestore_micro()
        assert result["events"] == 2000
        assert result["measured_ms"] == pytest.approx(result["paper_ms"], rel=0.25)


class TestFormatting:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(1.234) == "1.2"
        assert format_value("x") == "x"
        assert format_value(7) == "7"

    def test_format_table_alignment_and_content(self):
        rows = [{"dag": "grid", "restore_s": 15.5}, {"dag": "linear", "restore_s": None}]
        text = format_table(rows, title="Fig 5")
        lines = text.splitlines()
        assert lines[0] == "Fig 5"
        assert "dag" in lines[1] and "restore_s" in lines[1]
        assert "grid" in text and "15.5" in text and "-" in text

    def test_format_table_handles_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_sparkline_length_and_charset(self):
        line = sparkline([1, 2, 3, 4, 5, 4, 3, 2, 1], width=20)
        assert 0 < len(line) <= 20
        assert set(line) <= set("▁▂▃▄▅▆▇█")

    def test_sparkline_downsamples_long_series(self):
        line = sparkline(list(range(1000)), width=40)
        assert len(line) == 40

    def test_format_rate_and_latency_series(self):
        rate_points = [RatePoint(time=float(i), rate=8.0 + i) for i in range(10)]
        latency_points = [LatencyPoint(time=float(i), latency_s=0.5, samples=80) for i in range(10)]
        assert "ev/s" in format_rate_series("output", rate_points)
        assert "ms" in format_latency_series("dsm", latency_points)
        assert "(no data)" in format_rate_series("empty", [])


class TestParallelMatrix:
    """prefetch() fans hermetic cells across processes; results are identical."""

    KW = dict(migrate_at_s=30.0, post_migration_s=120.0, dags=["linear"])

    def test_parallel_prefetch_matches_serial(self):
        from repro.experiments.figures import (
            ExperimentMatrix,
            figure5_rows,
            figure6_rows,
            figure7_series,
            figure8_rows,
        )

        serial = ExperimentMatrix(**self.KW)
        parallel = ExperimentMatrix(**self.KW)
        computed = parallel.prefetch(scalings=("in",), processes=2)
        assert computed == 3  # one cell per strategy
        assert parallel.prefetch(scalings=("in",), processes=2) == 0  # cached

        assert figure5_rows(parallel, "in") == figure5_rows(serial, "in")
        assert figure6_rows(parallel, "in") == figure6_rows(serial, "in")
        assert figure8_rows(parallel, "in") == figure8_rows(serial, "in")
        assert figure7_series(parallel, dag="linear", scaling="in") == \
            figure7_series(serial, dag="linear", scaling="in")
        # The parallel matrix never had to materialize a full in-process run.
        assert parallel._cache == {}


class TestDsmAtLeastOnce:
    """DSM's guarantee, the one Fig. 6 counts the price of, as an invariant
    over the DSM scale-in cell of all five paper DAGs: a root the migration
    lost is failed by the acker and replayed until it arrives in full."""

    @pytest.fixture(scope="class")
    def cells(self, matrix):
        return {dag: matrix.run(dag, "dsm", "in").runtime for dag in PAPER_ORDER}

    @pytest.mark.parametrize("dag", PAPER_ORDER)
    def test_every_failed_tree_is_replayed(self, cells, dag):
        runtime = cells[dag]
        sources = runtime.source_executors
        failed = runtime.acker.stats.failed
        assert failed > 0, "a DSM migration loses in-flight messages"
        replayed = sum(source.replayed_count for source in sources)
        assert failed == replayed + sum(len(source._replay_queue) for source in sources)

    @pytest.mark.parametrize("dag", PAPER_ORDER)
    def test_every_root_arrives_in_full_or_is_still_owed(self, cells, dag):
        runtime = cells[dag]
        log = runtime.log
        per_emission = Counter((r.root_id, r.replay_count) for r in log.sink_receipts)
        best = Counter()  # root -> receipts of the emission that got furthest
        for (root_id, _), count in per_emission.items():
            best[root_id] = max(best[root_id], count)
        # What one emission of a root delivers when nothing is lost: the modal
        # count of the cell (4 on Star and Grid, 1 on Linear).
        full = Counter(best.values()).most_common(1)[0][0]
        queued = {root for source in runtime.source_executors for root in source._replay_queue}
        lost = [
            emit.root_id for emit in log.source_emits
            if emit.replay_count == 0 and best[emit.root_id] < full
            and not runtime.acker.is_pending(emit.root_id) and emit.root_id not in queued
        ]
        # With bare sequential ids two lost fan-out pairs of a tree cancelled
        # and the tree read complete: 2 Star roots and 11 Grid roots stopped here.
        assert lost == [], f"{len(lost)} roots neither delivered in full, pending nor queued"
