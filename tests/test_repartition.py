"""Grouped-state re-partitioning: FIELDS re-keying invariants and round-trips.

Satellite coverage for the rescale tentpole: the stable key -> instance
mapping is preserved across no-op rescales, every key is owned by exactly one
instance after growing or shrinking a grouped task, and re-partitioned state
round-trips through the state store without losing or duplicating anything.
"""

from __future__ import annotations

import zlib

import pytest

from repro.dataflow.grouping import field_key_of, stable_field_index
from repro.dataflow.task import Task
from repro.reliability.repartition import (
    PARTITIONED_STATE_KEY,
    checkpoint_key,
    merge_states,
    repartition_task_state,
    split_pending_events,
    split_state,
)
from repro.reliability.statestore import StateStore
from repro.sim import Simulator

KEYS = [f"vehicle-{i}" for i in range(40)]


def keyed_states(num_instances: int, weight: int = 1):
    """Per-instance states as the old partitioning would have produced them."""
    states = [
        {PARTITIONED_STATE_KEY: {}, "processed": 0} for _ in range(num_instances)
    ]
    for key in KEYS:
        index = stable_field_index(key, num_instances)
        states[index][PARTITIONED_STATE_KEY][key] = weight
        states[index]["processed"] += weight
    return states


class TestStableFieldIndex:
    def test_matches_crc32(self):
        assert stable_field_index("vehicle-17", 3) == zlib.crc32(b"vehicle-17") % 3

    def test_same_key_same_instance_across_calls(self):
        for key in KEYS:
            assert stable_field_index(key, 5) == stable_field_index(key, 5)

    def test_noop_rescale_preserves_affinity(self):
        """Same instance count -> identical key mapping (no-op rescale invariant)."""
        before = {key: stable_field_index(key, 4) for key in KEYS}
        after = {key: stable_field_index(key, 4) for key in KEYS}
        assert before == after

    def test_field_key_extraction_prefers_named_keys(self):
        assert field_key_of({"key": "a", "seq": 1}) == "a"
        assert field_key_of({"id": 7}) == "7"
        assert field_key_of({"seq": 3}) == "3"
        assert field_key_of("plain") == "plain"


class TestMergeSplit:
    @pytest.mark.parametrize("old_n,new_n", [(3, 5), (5, 2), (4, 4), (1, 6), (6, 1)])
    def test_full_coverage_no_duplication(self, old_n, new_n):
        by_key, aggregates = merge_states(keyed_states(old_n))
        parts = split_state(by_key, aggregates, new_n)
        seen = {}
        for index, part in enumerate(parts):
            for key in part.get(PARTITIONED_STATE_KEY, {}):
                assert key not in seen, f"key {key} duplicated on {seen[key]} and {index}"
                seen[key] = index
                # Affinity: the state entry lives where the router sends the key.
                assert index == stable_field_index(key, new_n)
        assert set(seen) == set(KEYS)

    def test_aggregates_summed_once(self):
        by_key, aggregates = merge_states(keyed_states(3, weight=2))
        assert aggregates["processed"] == 2 * len(KEYS)
        parts = split_state(by_key, aggregates, 5)
        totals = [part.get("processed", 0) for part in parts]
        assert sum(totals) == 2 * len(KEYS)
        # Exactly one owner for the task-level aggregate.
        assert sum(1 for t in totals if t) == 1

    def test_round_trip_grow_then_shrink(self):
        original_by_key, original_aggs = merge_states(keyed_states(3))
        grown = split_state(original_by_key, original_aggs, 7)
        back_by_key, back_aggs = merge_states(grown)
        assert back_by_key == original_by_key
        assert back_aggs == original_aggs
        shrunk = split_state(back_by_key, back_aggs, 2)
        final_by_key, final_aggs = merge_states(shrunk)
        assert final_by_key == original_by_key
        assert final_aggs == original_aggs

    def test_bool_flags_not_summed(self):
        _, aggregates = merge_states([{"ready": True}, {"ready": True}])
        assert aggregates["ready"] is True


class TestPendingEvents:
    class _FakeEvent:
        def __init__(self, key):
            self.payload = {"key": key}

    def test_keyed_pending_follows_field_key(self):
        events = [self._FakeEvent(key) for key in KEYS]
        buckets = split_pending_events(events, 4, keyed=True)
        for index, bucket in enumerate(buckets):
            for event in bucket:
                assert stable_field_index(event.payload["key"], 4) == index
        assert sum(len(b) for b in buckets) == len(events)

    def test_unkeyed_pending_round_robins(self):
        events = [self._FakeEvent(f"k{i}") for i in range(10)]
        buckets = split_pending_events(events, 3, keyed=False)
        assert [len(b) for b in buckets] == [4, 3, 3]


class TestStatestoreRoundTrip:
    def _store_with_task(self, old_n, stateful_pending=0):
        sim = Simulator()
        store = StateStore(sim)
        task = Task(name="keyed", stateful=True)
        for index, state in enumerate(keyed_states(old_n)):
            pending = [self._event(f"p{index}-{i}") for i in range(stateful_pending)]
            store.put(
                checkpoint_key("flow", f"keyed#{index}"),
                {"state": state, "pending": pending, "checkpoint_id": 9},
                size_bytes=task.state_size_bytes,
            )
        return sim, store, task

    class _event:
        def __init__(self, key):
            self.payload = {"key": key}

    @pytest.mark.parametrize("old_n,new_n", [(3, 5), (3, 1)])
    def test_repartition_round_trips_through_store(self, old_n, new_n):
        sim, store, task = self._store_with_task(old_n)
        stats = repartition_task_state(store, "flow", task, old_n, new_n, keyed=True)
        assert stats.keyed_entries == len(KEYS)
        assert stats.writes == new_n

        merged = {}
        total_processed = 0
        for index in range(new_n):
            value = store.peek(checkpoint_key("flow", f"keyed#{index}"))
            assert value is not None and value["checkpoint_id"] == 9
            part = value["state"].get(PARTITIONED_STATE_KEY, {})
            for key in part:
                assert key not in merged
                assert stable_field_index(key, new_n) == index
            merged.update(part)
            total_processed += value["state"].get("processed", 0)
        assert set(merged) == set(KEYS)
        assert total_processed == len(KEYS)
        # Stale keys beyond the new count are gone.
        for index in range(new_n, old_n):
            assert checkpoint_key("flow", f"keyed#{index}") not in store.keys()

    def test_repartition_moves_pending_events_to_key_owners(self):
        sim, store, task = self._store_with_task(2, stateful_pending=3)
        repartition_task_state(store, "flow", task, 2, 3, keyed=True)
        recovered = 0
        for index in range(3):
            value = store.peek(checkpoint_key("flow", f"keyed#{index}"))
            for event in value["pending"]:
                assert stable_field_index(event.payload["key"], 3) == index
                recovered += 1
        assert recovered == 6

    def test_repartition_without_checkpoints_is_a_noop(self):
        sim = Simulator()
        store = StateStore(sim)
        task = Task(name="keyed", stateful=True)
        stats = repartition_task_state(store, "flow", task, 2, 4, keyed=True)
        assert stats.writes == 0 and len(store) == 0
