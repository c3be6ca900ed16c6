"""Unit tests for events, checkpoint control events and the id rule."""

from __future__ import annotations

import numpy as np

from repro.dataflow.event import (
    REPLAY_CHANNEL,
    CheckpointAction,
    Event,
    checkpoint_event_id,
    child_event_id,
    root_event_id,
    source_id_key,
)


class TestDataEvents:
    def test_root_event_is_its_own_root(self):
        event = Event.data("source", 42, payload={"seq": 1}, created_at=2.0)
        assert event.is_data and event.is_root
        assert event.root_id == event.event_id == 42
        assert event.root_emitted_at == 2.0

    def test_derive_keeps_root_and_gives_each_output_its_id(self):
        root = Event.data("source", 42, payload="p", created_at=1.0)
        child = root.derive("task-a", payload="q", created_at=1.5)
        assert child.root_id == root.root_id and child.event_id != root.event_id
        assert not child.is_root
        assert child.source_task == "task-a"
        assert child.root_emitted_at == 1.0
        assert len({root.derive("task-a", index=index).event_id for index in range(8)}) == 8

    def test_derive_preserves_replay_count_and_anchoring(self):
        root = Event.data("source", 42, replay_count=2, anchored=True)
        child = root.derive("task-a", created_at=3.0)
        assert child.replay_count == 2
        assert child.anchored
        assert child.is_replay

    def test_copy_for_edge_takes_its_id_and_keeps_the_root(self):
        event = Event.data("source", 42)
        copy = event.copy_for_edge(child_event_id(event.event_id, 1))
        assert copy.event_id == child_event_id(42, 1) != event.event_id
        assert copy.root_id == event.root_id
        assert copy.payload == event.payload

    def test_a_replay_is_the_root_salted_with_its_count(self):
        original = Event.data("source", 42, created_at=1.0)
        replays = [Event.data("source", 42, root_emitted_at=31.0, replay_count=n) for n in (1, 2)]
        assert {replay.root_id for replay in replays} == {original.root_id}
        assert len({original.event_id} | {replay.event_id for replay in replays}) == 3
        assert replays[0].event_id == child_event_id(42, REPLAY_CHANNEL, 1)
        assert replays[0].is_replay and not replays[0].is_root


class TestCheckpointEvents:
    def test_checkpoint_event_fields(self):
        event = Event.checkpoint(CheckpointAction.PREPARE, 7, "cs", "a#0", created_at=5.0)
        assert event.is_checkpoint and not event.is_data
        assert event.checkpoint_action is CheckpointAction.PREPARE
        assert event.checkpoint_id == 7
        assert event.anchored
        expected = checkpoint_event_id(7, CheckpointAction.PREPARE, "a#0")
        assert event.event_id == event.root_id == expected

    def test_ids_name_wave_action_and_target(self):
        ids = {
            Event.checkpoint(action, wave, "cs", target).event_id
            for action in CheckpointAction for wave in (1, 2) for target in ("a#0", "a#1")
        }
        assert len(ids) == len(CheckpointAction) * 4

    def test_copy_preserves_checkpoint_metadata(self):
        event = Event.checkpoint(CheckpointAction.INIT, 3, "cs", "a#0")
        event.payload = {"forward": False}
        copy = event.copy_for_edge(checkpoint_event_id(3, CheckpointAction.INIT, "b#0"))
        assert copy.checkpoint_action is CheckpointAction.INIT
        assert copy.checkpoint_id == 3
        assert copy.payload == {"forward": False}
        assert copy.root_id == event.root_id != copy.event_id


class TestIdRule:
    KEY = source_id_key(2018, "grid", "source#0")

    def test_ids_are_distinct_63_bit_values(self):
        roots = {root_event_id(self.KEY, sequence) for sequence in range(10_000)}
        roots.add(root_event_id(source_id_key(2018, "grid", "source#1"), 0))
        children = {
            child_event_id(9, channel, index) for channel in range(-2, 8) for index in range(4)
        }
        assert (len(roots), len(children)) == (10_001, 40)
        assert all(0 <= i < 2**63 for i in roots | children)

    def test_array_forms_equal_the_scalar_forms(self):
        sequences = np.arange(3, 700, dtype=np.uint64)
        roots = root_event_id(self.KEY, sequences)
        assert roots.tolist() == [root_event_id(self.KEY, int(s)) for s in sequences]
        channels = sequences % np.uint64(5)
        assert child_event_id(roots, channels).tolist() == [
            child_event_id(int(r), int(c)) for r, c in zip(roots.tolist(), channels.tolist())
        ]
