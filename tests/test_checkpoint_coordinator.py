"""Unit tests for the checkpoint coordinator (wave tracking, re-sends, periodic mode)."""

from __future__ import annotations

import pytest

from repro.dataflow.event import CheckpointAction
from repro.reliability.checkpoint import CheckpointCoordinator, WaveMode, WaveStatus
from repro.sim import Simulator


class FakeRuntime:
    """Minimal emitter/expected-provider pair for coordinator tests."""

    def __init__(self, sim, executors=("a#0", "b#0", "b#1")):
        self.sim = sim
        self.executors = set(executors)
        self.emitted = []
        self.emitted_targets = []

    def emit(self, wave):
        self.emitted.append((self.sim.now, wave.action, wave.checkpoint_id, wave.mode))
        self.emitted_targets.append(wave.targets)

    def expected(self):
        return set(self.executors)


def make_coordinator(sim, executors=("a#0", "b#0", "b#1")):
    runtime = FakeRuntime(sim, executors)
    coordinator = CheckpointCoordinator(sim, runtime.emit, runtime.expected)
    return coordinator, runtime


class TestWaveLifecycle:
    def test_wave_emits_once_on_start(self, sim):
        coordinator, runtime = make_coordinator(sim)
        wave = coordinator.start_wave(CheckpointAction.PREPARE, mode=WaveMode.BROADCAST)
        assert len(runtime.emitted) == 1
        assert runtime.emitted[0][1] is CheckpointAction.PREPARE
        assert wave.status is WaveStatus.IN_PROGRESS

    def test_wave_completes_when_all_expected_ack(self, sim):
        coordinator, runtime = make_coordinator(sim)
        done = []
        wave = coordinator.start_wave(CheckpointAction.PREPARE, on_complete=done.append)
        for executor in ("a#0", "b#0"):
            coordinator.notify_ack(executor, CheckpointAction.PREPARE, wave.checkpoint_id)
        assert not done
        coordinator.notify_ack("b#1", CheckpointAction.PREPARE, wave.checkpoint_id)
        assert done == [wave]
        assert wave.status is WaveStatus.COMPLETE
        assert wave.duration_s is not None

    def test_duplicate_acks_are_idempotent(self, sim):
        coordinator, _ = make_coordinator(sim)
        wave = coordinator.start_wave(CheckpointAction.COMMIT)
        for _ in range(3):
            coordinator.notify_ack("a#0", CheckpointAction.COMMIT, wave.checkpoint_id)
        assert wave.acked == {"a#0"}
        assert wave.status is WaveStatus.IN_PROGRESS

    def test_ack_for_wrong_action_is_ignored(self, sim):
        coordinator, _ = make_coordinator(sim)
        wave = coordinator.start_wave(CheckpointAction.PREPARE)
        coordinator.notify_ack("a#0", CheckpointAction.COMMIT, wave.checkpoint_id)
        assert wave.acked == set()

    def test_empty_expected_set_completes_immediately(self, sim):
        coordinator, _ = make_coordinator(sim, executors=())
        done = []
        wave = coordinator.start_wave(CheckpointAction.INIT, on_complete=done.append)
        assert wave.status is WaveStatus.COMPLETE
        assert done == [wave]

    def test_targeted_wave_expects_and_emits_only_its_targets(self, sim):
        """A recovery's INIT restores its victims without rolling survivors back."""
        coordinator, runtime = make_coordinator(sim)
        wave = coordinator.start_wave(
            CheckpointAction.INIT, mode=WaveMode.BROADCAST, resend_interval_s=1.0, targets={"b#1"}
        )
        assert wave.expected == {"b#1"}
        sim.run(until=1.5)
        assert runtime.emitted_targets == [{"b#1"}, {"b#1"}]  # the start and one re-send
        coordinator.notify_ack("b#1", CheckpointAction.INIT, wave.checkpoint_id)
        assert wave.status is WaveStatus.COMPLETE


class TestResend:
    def test_wave_resends_until_complete(self, sim):
        coordinator, runtime = make_coordinator(sim)
        wave = coordinator.start_wave(CheckpointAction.INIT, resend_interval_s=1.0)
        sim.run(until=3.5)
        assert len(runtime.emitted) == 4  # initial + 3 re-sends
        for executor in ("a#0", "b#0", "b#1"):
            coordinator.notify_ack(executor, CheckpointAction.INIT, wave.checkpoint_id)
        emitted_before = len(runtime.emitted)
        sim.run(until=10.0)
        assert len(runtime.emitted) == emitted_before
        assert wave.emit_count == emitted_before

    def test_resend_interval_of_ack_timeout_used_by_dsm(self, sim):
        coordinator, runtime = make_coordinator(sim)
        coordinator.start_wave(CheckpointAction.INIT, resend_interval_s=30.0)
        sim.run(until=65.0)
        assert len(runtime.emitted) == 3  # initial + re-sends at 30 s and 60 s


class TestFullCheckpointAndPeriodic:
    def test_run_checkpoint_chains_prepare_then_commit(self, sim):
        coordinator, runtime = make_coordinator(sim)
        finished = []
        cid = coordinator.run_checkpoint(on_complete=finished.append)
        # PREPARE emitted first; COMMIT only after all PREPARE acks.
        assert [action for _, action, _, _ in runtime.emitted] == [CheckpointAction.PREPARE]
        for executor in ("a#0", "b#0", "b#1"):
            coordinator.notify_ack(executor, CheckpointAction.PREPARE, cid)
        assert [action for _, action, _, _ in runtime.emitted] == [
            CheckpointAction.PREPARE,
            CheckpointAction.COMMIT,
        ]
        for executor in ("a#0", "b#0", "b#1"):
            coordinator.notify_ack(executor, CheckpointAction.COMMIT, cid)
        assert finished == [cid]
        assert [(w.action, w.checkpoint_id) for w in coordinator.history][-1] == (
            CheckpointAction.COMMIT, cid
        )

    def test_run_checkpoint_hands_over_the_prepare_before_a_sequential_commit(self, sim):
        coordinator, runtime = make_coordinator(sim)
        prepared = []

        def on_prepared(wave):
            prepared.append(wave)
            assert [action for _, action, _, _ in runtime.emitted] == [CheckpointAction.PREPARE]

        cid = coordinator.run_checkpoint(prepare_mode=WaveMode.BROADCAST, on_prepared=on_prepared)
        sim.run(until=2.0)
        for executor in ("a#0", "b#0", "b#1"):
            coordinator.notify_ack(executor, CheckpointAction.PREPARE, cid)
        assert prepared == [coordinator.wave(cid, CheckpointAction.PREPARE)]
        assert prepared[0].completed_at == 2.0
        assert [(action, mode) for _, action, _, mode in runtime.emitted] == [
            (CheckpointAction.PREPARE, WaveMode.BROADCAST),
            (CheckpointAction.COMMIT, WaveMode.SEQUENTIAL),
        ]

    def test_periodic_checkpointing_fires_repeatedly(self, sim):
        coordinator, runtime = make_coordinator(sim)
        coordinator.start_periodic(interval_s=10.0)

        def auto_ack():
            for _, action, cid, _ in list(runtime.emitted):
                for executor in ("a#0", "b#0", "b#1"):
                    coordinator.notify_ack(executor, action, cid)

        sim.every(1.0, auto_ack)
        sim.run(until=35.0)
        commits = [w for w in coordinator.history if w.action is CheckpointAction.COMMIT]
        assert len(commits) == 3

    def test_periodic_skips_tick_while_previous_in_flight(self, sim):
        coordinator, runtime = make_coordinator(sim)
        coordinator.start_periodic(interval_s=5.0)
        # Never ack: only the first PREPARE wave should ever be emitted.
        sim.run(until=30.0)
        prepares = [e for e in runtime.emitted if e[1] is CheckpointAction.PREPARE]
        assert len(prepares) == 1

    def test_double_start_periodic_rejected(self, sim):
        coordinator, _ = make_coordinator(sim)
        coordinator.start_periodic(interval_s=5.0)
        with pytest.raises(RuntimeError):
            coordinator.start_periodic(interval_s=5.0)

    def test_only_the_periodic_checkpoints_own_commit_closes_it(self, sim):
        """A checkpoint another caller runs to completion leaves the periodic one open."""
        coordinator, runtime = make_coordinator(sim)
        coordinator.start_periodic(interval_s=30.0)

        def other_checkpoint():
            cid = coordinator.run_checkpoint()
            for action in (CheckpointAction.PREPARE, CheckpointAction.COMMIT):
                for executor in ("a#0", "b#0", "b#1"):
                    coordinator.notify_ack(executor, action, cid)

        sim.schedule(30.0, other_checkpoint)
        sim.run(until=60.5)
        prepares = [cid for _, action, cid, _ in runtime.emitted if action is CheckpointAction.PREPARE]
        open_prepares = [
            cid for cid in prepares
            if coordinator.wave(cid, CheckpointAction.PREPARE).status is WaveStatus.IN_PROGRESS
        ]
        assert prepares == [1, 2]
        assert open_prepares == [1]

    def test_checkpoint_ids_increase(self, sim):
        coordinator, _ = make_coordinator(sim)
        first = coordinator.start_wave(CheckpointAction.INIT).checkpoint_id
        second = coordinator.run_checkpoint()
        third = coordinator.start_wave(CheckpointAction.INIT).checkpoint_id
        assert (second, third) == (first + 1, first + 2)
