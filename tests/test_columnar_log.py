"""EventLog storage specifics: bulk appends, lazy views, interning.

The log's answers are pinned to naive reference scans by
``tests/test_log_equivalence.py``; these tests cover the column store's own
surface — the ``extend_*`` bulk-append API and what it refuses, the lazy
row/time views (bounds, slices, equality, iteration types) and the derived
state kept in sync across bulk and scalar appends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.log import EventLog
from repro.sim.shard import log_digest


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


def _scalar_filled():
    """Reference log filled one record at a time through the scalar API."""
    clock = _Clock()
    log = EventLog(clock)
    for i in range(8):
        clock.now = 1.0 + i * 0.5
        log.record_source_emit(root_id=100 + i, source="src", replay_count=1 if i == 3 else 0)
    for i in range(8):
        clock.now = 10.0 + i * 0.25
        log.record_sink_receipt(root_id=100 + i, event_id=500 + i,
                                sink="sink_a" if i % 2 == 0 else "sink_b",
                                root_emitted_at=1.0 + i * 0.5,
                                replay_count=1 if i == 3 else 0)
    clock.now = 20.0
    return log


def _bulk_filled():
    """The same records appended through the bulk extend_* API."""
    clock = _Clock()
    log = EventLog(clock)
    emit_times = [1.0 + i * 0.5 for i in range(8)]
    roots = [100 + i for i in range(8)]
    log.extend_emits(emit_times[:3], roots[:3], "src")
    log.extend_emits(emit_times[3:4], roots[3:4], "src", replay_count=1)
    log.extend_emits(emit_times[4:], roots[4:], "src")
    receipt_times = [10.0 + i * 0.25 for i in range(8)]
    events = [500 + i for i in range(8)]
    # Multi-sink slice via sink_indices, plus single-name slices around it.
    log.extend_receipts(receipt_times[:3], roots[:3], events[:3],
                        ["sink_a", "sink_b"], emit_times[:3],
                        sink_indices=[0, 1, 0])
    log.extend_receipts(receipt_times[3:4], roots[3:4], events[3:4],
                        "sink_b", emit_times[3:4], replay_count=1)
    log.extend_receipts(receipt_times[4:], roots[4:], events[4:],
                        ["sink_a", "sink_b"], emit_times[4:],
                        sink_indices=[0, 1, 0, 1])
    clock.now = 20.0
    return log


def test_bulk_extend_matches_scalar_records():
    scalar = _scalar_filled()
    bulk = _bulk_filled()
    assert log_digest(bulk) == log_digest(scalar)
    assert list(bulk.source_emits) == list(scalar.source_emits)
    assert list(bulk.sink_receipts) == list(scalar.sink_receipts)
    assert bulk.replay_emits == scalar.replay_emits == 1


class TestBulkAppendOrder:
    """Out-of-order and ragged blocks are refused whole: the time indexes
    stay sorted and no row reads uninitialized buffer."""

    def test_block_must_be_sorted(self):
        log = EventLog(_Clock())
        nan = float("nan")
        for method, args, message in [
            ("extend_emits", ([1.0, 3.0, 2.0], [1, 2, 3], "src"), "non-decreasing"),
            ("extend_receipts", ([5.0, 4.0], [1, 2], [10, 11], "sink", [1.0, 3.0]), "non-decreasing"),
            # NaN compares false with everything: "nothing decreases" is not enough.
            ("extend_emits", ([1.0, nan, 0.5], [1, 2, 3], "src"), "non-decreasing"),
            ("extend_emits", ([nan], [1], "src"), "non-decreasing"),
            ("extend_receipts", ([1.0, nan], [1, 2], [10, 11], "sink", [0.0, 0.0]), "non-decreasing"),
            # A column shorter than the times would leave np.empty garbage in its rows.
            ("extend_emits", ([1.0, 2.0, 3.0], [7], "src"), "equally long"),
            ("extend_receipts", ([1.0, 2.0], [1, 2], [10], "sink", [0.0, 0.0]), "equally long"),
            ("extend_receipts", ([1.0, 2.0], [1, 2], [10, 11], "sink", [0.0]), "equally long"),
            ("extend_receipts", ([1.0, 2.0], [1, 2], [10, 11], ["a", "b"], [0.0, 0.0], 0, [0]),
             "equally long"),
        ]:
            with pytest.raises(ValueError, match=message):
                getattr(log, method)(*args)
        assert len(log.source_emits) == len(log.sink_receipts) == 0

    def test_column_sets_are_checked_like_blocks(self):
        filled = _bulk_filled()
        emits, receipts = filled.emit_columns(), filled.receipt_columns()
        for bad_emits, bad_receipts in [
            ({**emits, "time": emits["time"][::-1]}, receipts),
            ({**emits, "time": [float("nan")] * len(emits["time"])}, receipts),
            ({**emits, "root": emits["root"][:-1]}, receipts),
            (emits, {**receipts, "time": receipts["time"][::-1]}),
            (emits, {**receipts, "emitted": receipts["emitted"][:1]}),
        ]:
            log = EventLog(_Clock())
            with pytest.raises(ValueError, match="non-decreasing|equally long"):
                log.extend_columns(bad_emits, bad_receipts)
            assert len(log.sink_receipts) == 0
        log = EventLog(_Clock())
        log.extend_columns(emits, receipts)
        assert log_digest(log) == log_digest(filled)
        assert log.replay_emits == filled.replay_emits == 1
        with pytest.raises(ValueError, match="last recorded emit"):
            log.extend_columns(emits, receipts)

    def test_block_must_start_at_or_after_the_last_record(self):
        log = EventLog(_Clock())
        log.record_source_emit(root_id=1, source="src", at_time=2.0)
        log.extend_receipts([2.0, 2.0], [1, 1], [10, 11], "sink", [2.0, 2.0])
        with pytest.raises(ValueError, match="last recorded emit"):
            log.extend_emits([1.5, 2.5], [2, 3], "src")
        with pytest.raises(ValueError, match="last recorded receipt"):
            log.extend_receipts([1.0], [1], [12], "sink", [2.0])
        assert (len(log.source_emits), len(log.sink_receipts)) == (1, 2)
        # Equal times are in order (ties are legal), as are empty blocks.
        log.extend_emits([2.0, 2.0], [2, 3], "src")
        log.extend_receipts([], [], [], "sink", [])
        assert log.emit_times_array.tolist() == [2.0, 2.0, 2.0]
        assert log.receipts_between(2.0, 2.5) == list(log.sink_receipts)


class TestViews:
    @pytest.fixture()
    def log(self):
        return _bulk_filled()

    def test_views_are_bounds_checked(self, log):
        # The backing buffers over-allocate; indexing past the live prefix
        # must raise, not expose stale garbage.
        assert len(log.emit_times_array) == 8
        with pytest.raises(IndexError):
            log.emit_times_array[8]
        with pytest.raises(IndexError):
            log.source_emits[8]
        assert log.emit_times_array[-1] == 4.5
        assert log.source_emits[-1].root_id == 107

    def test_view_slicing_and_equality(self, log):
        assert log.emit_times_array[2:4].tolist() == [2.0, 2.5]
        assert log.emit_times_array.tolist() == [1.0 + i * 0.5 for i in range(8)]
        assert log.receipt_times_array.tolist() == [r.time for r in log.sink_receipts]

    def test_time_arrays_are_float64_and_yield_python_floats(self, log):
        assert log.emit_times_array.dtype == np.float64
        assert log.receipt_times_array.dtype == np.float64
        assert all(type(t) is float for t in log.emit_times_array.tolist())
        assert all(type(t) is float for t in log.receipt_times_array.tolist())

    def test_bisect_works_against_arrays(self, log):
        import bisect

        assert bisect.bisect_left(log.emit_times_array, 2.5) == 3
        assert bisect.bisect_left(log.receipt_times_array, 10.5) == 2
        assert bisect.bisect_left(log.emit_times_array, 100.0) == 8
        assert log.emit_times_array.searchsorted(2.5, side="left") == 3

    def test_row_views_materialize_records(self, log):
        receipt = log.sink_receipts[3]
        assert receipt.sink == "sink_b"
        assert receipt.replay_count == 1
        assert [e.root_id for e in log.source_emits[:2]] == [100, 101]


class TestLazyDerivedState:
    def test_first_emit_keeps_earliest_on_replay(self):
        clock = _Clock()
        log = EventLog(clock)
        clock.now = 1.0
        log.record_source_emit(root_id=7, source="src")
        # Query forces the lazy map to sync; later appends must re-sync.
        assert log.is_old_root(7, migration_time=2.0)
        clock.now = 5.0
        log.record_source_emit(root_id=7, source="src", replay_count=1)
        log.extend_emits([6.0], [9], "src")
        assert log.is_old_root(7, migration_time=2.0)  # earliest emit wins
        assert not log.is_old_root(9, migration_time=2.0)

    def test_distinct_roots_syncs_across_bulk_appends(self):
        clock = _Clock()
        log = EventLog(clock)
        log.extend_receipts([1.0, 2.0], [1, 2], [10, 11], "sink", [0.5, 0.5])
        assert log.distinct_roots_received() == 2
        log.extend_receipts([3.0], [1], [12], "sink", [0.5])
        log.record_sink_receipt(root_id=3, event_id=13, sink="sink",
                                root_emitted_at=0.5, replay_count=0, at_time=4.0)
        assert log.distinct_roots_received() == 3
