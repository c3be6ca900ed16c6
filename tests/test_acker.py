"""Unit tests for the XOR-based acknowledgment service."""

from __future__ import annotations

import functools
import operator

import numpy as np
import pytest

from repro.dataflow.event import child_event_id
from repro.reliability.acker import AckerService
from repro.sim import Simulator


def make_acker(sim, timeout=30.0):
    completed = []
    failed = []
    acker = AckerService(sim, timeout_s=timeout, on_complete=completed.append, on_fail=failed.append)
    return acker, completed, failed


class TestCompletion:
    def test_single_event_tree_completes(self, sim):
        acker, completed, failed = make_acker(sim)
        acker.register(100)
        acker.anchor(100, 1)
        acker.ack(100, 1)
        assert completed == [100]
        assert failed == []
        assert not acker.is_pending(100)

    def test_linear_chain_completes(self, sim):
        acker, completed, _ = make_acker(sim)
        acker.register(100)
        acker.anchor(100, 1)
        acker.anchor(100, 2)
        acker.ack(100, 1)
        assert completed == []
        acker.ack(100, 2)
        assert completed == [100]

    def test_fanout_tree_completes_only_when_all_acked(self, sim):
        acker, completed, _ = make_acker(sim)
        acker.register(100)
        event_ids = [11, 22, 33, 44]
        for event_id in event_ids:
            acker.anchor(100, event_id)
        for event_id in event_ids[:-1]:
            acker.ack(100, event_id)
        assert completed == []
        acker.ack(100, event_ids[-1])
        assert completed == [100]

    def test_interleaved_anchor_and_ack(self, sim):
        acker, completed, _ = make_acker(sim)
        acker.register(100)
        acker.anchor(100, 1)
        acker.ack(100, 1)
        # A new anchor after the hash returned to zero would have completed the
        # tree already; completion fires once.
        assert completed == [100]

    def test_completion_cancels_timeout(self, sim):
        acker, completed, failed = make_acker(sim, timeout=10.0)
        acker.register(100)
        acker.anchor(100, 1)
        acker.ack(100, 1)
        sim.run(until=60.0)
        assert completed == [100]
        assert failed == []

    def test_multiple_roots_tracked_independently(self, sim):
        acker, completed, _ = make_acker(sim)
        acker.register(1)
        acker.register(2)
        acker.anchor(1, 10)
        acker.anchor(2, 20)
        acker.ack(2, 20)
        assert completed == [2]
        assert acker.is_pending(1)


class TestFailure:
    def test_timeout_fails_incomplete_tree(self, sim):
        acker, completed, failed = make_acker(sim, timeout=5.0)
        acker.register(100)
        acker.anchor(100, 1)
        sim.run(until=10.0)
        assert failed == [100]
        assert completed == []
        assert acker.stats.failed == 1

    def test_tree_with_no_anchors_fails_on_timeout(self, sim):
        acker, _, failed = make_acker(sim, timeout=5.0)
        acker.register(100)
        sim.run(until=10.0)
        assert failed == [100]

    def test_explicit_fail(self, sim):
        acker, _, failed = make_acker(sim)
        acker.register(100)
        acker.fail(100)
        assert failed == [100]
        assert not acker.is_pending(100)

    def test_ack_after_failure_is_counted_late(self, sim):
        acker, _, failed = make_acker(sim, timeout=5.0)
        acker.register(100)
        acker.anchor(100, 1)
        sim.run(until=10.0)
        acker.ack(100, 1)
        assert failed == [100]
        assert acker.stats.late_acks == 1

    def test_reregistration_after_failure_allows_replay_to_complete(self, sim):
        acker, completed, failed = make_acker(sim, timeout=5.0)
        acker.register(100)
        acker.anchor(100, 1)
        sim.run(until=6.0)
        assert failed == [100]
        # Replay: register the same root again and complete it this time.
        acker.register(100)
        acker.anchor(100, 2)
        acker.ack(100, 2)
        assert completed == [100]

    def test_two_lost_fanout_pairs_do_not_cancel(self, sim):
        # Sequential ids would: the two copies of one fan-out drew 2k and
        # 2k + 1, and 8 ^ 9 ^ 12 ^ 13 == 0 read a tree with four lost events
        # complete.  The copies' ids are their parent's step per channel.
        assert 8 ^ 9 ^ 12 ^ 13 == 0
        acker, completed, failed = make_acker(sim, timeout=5.0)
        acker.register(100)
        for parent in (8, 12):
            for channel in (0, 1):
                acker.anchor(100, child_event_id(parent, channel))
        sim.run(until=10.0)
        assert (acker.stats.failed, acker.stats.completed) == (1, 0)
        assert failed == [100] and completed == []

    def test_failed_roots_recorded(self, sim):
        acker, _, _ = make_acker(sim, timeout=2.0)
        for root in (1, 2, 3):
            acker.register(root)
        sim.run(until=5.0)
        assert sorted(acker.failed_roots) == [1, 2, 3]


class TestMaintenance:
    def test_invalid_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            AckerService(sim, timeout_s=0.0)

    def test_ack_for_unknown_root_is_ignored(self, sim):
        acker, completed, failed = make_acker(sim)
        acker.ack(999, 1)
        acker.anchor(999, 1)
        assert completed == []
        assert failed == []

    def test_stats_counters(self, sim):
        acker, _, _ = make_acker(sim)
        acker.register(1)
        acker.anchor(1, 5)
        acker.ack(1, 5)
        assert acker.stats.registered == 1
        assert acker.stats.anchors == 1
        assert acker.stats.acks == 1
        assert acker.stats.completed == 1


class TestBulkFolds:
    """The bulk APIs fold the same ids as the per-event calls."""

    #: Ids over the whole 64-bit range: the ``uint64`` array fold must agree
    #: with the Python-int one.
    IDS = [8, 9, 12, 13, 2**40 + 7, 2**62 + 1, 2**63 - 1, 2**63 + 5, 2**64 - 1]

    @staticmethod
    def fold(ids, how):
        """The XOR of ``ids`` as the per-event calls leave it, or as the level
        sweep folds it (``np.bitwise_xor`` over a ``uint64`` column)."""
        if how == "scalar-fold":
            return functools.reduce(operator.xor, ids, 0)
        return int(np.bitwise_xor.reduce(np.array(ids, dtype=np.uint64)))

    @pytest.mark.parametrize("how", ["scalar-fold", "array-fold"])
    def test_bulk_anchor_and_ack_match_the_per_event_calls(self, sim, how):
        ids = self.IDS
        one_by_one, _, _ = make_acker(sim)
        bulk, completed, _ = make_acker(sim)
        for acker in (one_by_one, bulk):
            acker.register(100)
        for event_id in ids:
            one_by_one.anchor(100, event_id)
        assert bulk.settle_trees([100], [self.fold(ids, how)], [len(ids)], [0]) == []
        assert bulk._pending[100].ack_hash == one_by_one._pending[100].ack_hash != 0
        assert bulk._pending[100].anchored_count == len(ids)
        assert bulk.settle_trees([100], [self.fold(ids[:-1], how)], [0], [len(ids) - 1]) == []
        assert completed == []
        bulk.ack(100, ids[-1])
        assert completed == [100]

    def test_a_settled_batch_completes_its_tree_once_and_counts_a_gone_trees_acks_late(self, sim):
        """A tree whose batch nets to zero completes inside the call (its
        position is returned); a tree no longer pending drops its anchors and
        counts its acks late, as the per-event calls do."""
        acker, completed, _ = make_acker(sim)
        acker.register(100)
        acker.anchor(100, 5)
        assert acker.settle_trees([100, 200], [5 ^ 7 ^ 7, 3], [1, 4], [2, 6]) == [0]
        assert completed == [100]
        stats = acker.stats
        assert (stats.anchors, stats.acks, stats.late_acks) == (2, 2, 6)
