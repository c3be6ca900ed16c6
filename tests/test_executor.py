"""Unit tests for executor processing, platform (checkpoint) logic and lifecycle.

These use a real deployed :class:`TopologyRuntime` on the tiny test dataflow so
that routing, acking and the checkpoint coordinator behave exactly as in the
full experiments.
"""

from __future__ import annotations

import pytest

from repro.dataflow.event import CheckpointAction, Event
from repro.engine.executor import CHECKPOINT_SOURCE_ID, ExecutorStatus
from repro.reliability.checkpoint import WaveMode

from tests.conftest import fanout_dataflow, make_runtime, tiny_dataflow


def started_runtime(dataflow=None, strategy="dcr", seed=7):
    runtime = make_runtime(dataflow=dataflow, strategy=strategy, seed=seed)
    runtime.start()
    return runtime


class TestDataProcessing:
    def test_events_flow_source_to_sink(self):
        runtime = started_runtime()
        runtime.sim.run(until=5.0)
        sink = runtime.sink_executors[0]
        assert sink.received_count > 0
        assert len(runtime.log.sink_receipts) == sink.received_count

    def test_processing_respects_task_latency(self):
        runtime = started_runtime()
        runtime.sim.run(until=5.0)
        # End-to-end latency must be at least the sum of the three task latencies.
        latencies = [r.latency_s for r in runtime.log.sink_receipts]
        assert min(latencies) >= 0.06

    def test_state_counts_processed_events(self):
        runtime = started_runtime()
        runtime.sim.run(until=5.0)
        executor = runtime.executor("a#0")
        assert executor.state.get("processed", 0) == executor.processed_count
        assert executor.processed_count > 0

    def test_shuffle_splits_load_between_instances(self):
        runtime = started_runtime()
        runtime.sim.run(until=10.0)
        b0 = runtime.executor("b#0").processed_count
        b1 = runtime.executor("b#1").processed_count
        assert b0 > 0 and b1 > 0
        assert abs(b0 - b1) <= 1

    def test_queue_drains_when_idle(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        runtime.sim.run(until=4.0)
        assert runtime.queue_backlog() == 0


class TestDelivery:
    def test_delivery_to_killed_executor_is_dropped(self):
        runtime = started_runtime()
        runtime.sim.run(until=1.0)
        executor = runtime.executor("b#0")
        executor.kill()
        event = Event.data("a", 1, payload={"x": 1}, created_at=runtime.sim.now)
        accepted = executor.deliver(event, "a#0")
        assert not accepted

    def test_kill_reports_lost_queued_events(self):
        runtime = started_runtime()
        executor = runtime.executor("c#0")
        for i in range(4):
            executor.input_queue.append((Event.data("b", i + 1, payload=i), "b#0"))
        queued_lost, _ = executor.kill()
        assert queued_lost == 4
        assert runtime.log.kills[-1].queued_events_lost == 4
        assert len(executor.input_queue) == 0

    def test_become_ready_resets_state_and_requires_init(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        executor = runtime.executor("a#0")
        assert executor.state.get("processed", 0) > 0
        executor.kill()
        executor.become_ready()
        assert executor.status is ExecutorStatus.RUNNING
        assert not executor.initialized
        assert executor.state.get("processed", 0) == 0

    def test_uninitialized_executor_buffers_data_events(self):
        runtime = started_runtime()
        executor = runtime.executor("a#0")
        executor.kill()
        executor.become_ready()
        event = Event.data("source", 1, payload={"x": 1}, created_at=runtime.sim.now)
        accepted = executor.deliver(event, "source#0")
        assert accepted
        assert len(executor.pre_init_buffer) == 1
        assert len(executor.input_queue) == 0


class TestPrepareAndCommit:
    def test_sequential_prepare_wave_reaches_all_tasks(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        done = []
        runtime.checkpoints.start_wave(CheckpointAction.PREPARE, mode=WaveMode.SEQUENTIAL, on_complete=done.append)
        runtime.sim.run(until=4.0)
        assert len(done) == 1
        assert done[0].acked == runtime.user_executor_id_set()

    def test_commit_persists_state_to_store(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        finished = []
        runtime.checkpoints.run_checkpoint(on_complete=finished.append)
        runtime.sim.run(until=5.0)
        assert finished
        for executor in runtime.user_executors:
            key = f"ckpt/{runtime.dataflow.name}/{executor.executor_id}"
            assert key in runtime.statestore.keys()

    def test_committed_state_matches_prepared_snapshot(self):
        runtime = started_runtime()
        runtime.sim.run(until=3.0)
        runtime.pause_sources()
        runtime.sim.run(until=3.5)
        executor = runtime.executor("a#0")
        processed_at_prepare = executor.state.get("processed", 0)
        finished = []
        runtime.checkpoints.run_checkpoint(on_complete=finished.append)
        runtime.sim.run(until=6.0)
        stored = runtime.statestore.peek(f"ckpt/{runtime.dataflow.name}/a#0")
        assert stored["state"].get("processed", 0) == processed_at_prepare

    def test_broadcast_prepare_enables_capture_mode(self):
        runtime = started_runtime(strategy="ccr")
        runtime.sim.run(until=2.0)
        runtime.checkpoints.start_wave(CheckpointAction.PREPARE, mode=WaveMode.BROADCAST)
        runtime.sim.run(until=2.2)
        assert all(e.capture_mode for e in runtime.user_executors)

    def test_capture_mode_holds_events_without_processing(self):
        runtime = started_runtime(strategy="ccr")
        runtime.sim.run(until=2.0)
        runtime.checkpoints.start_wave(CheckpointAction.PREPARE, mode=WaveMode.BROADCAST)
        runtime.sim.run(until=2.1)
        executor = runtime.executor("a#0")
        processed_before = executor.processed_count
        # Let the (unpaused) source keep emitting into the captured dataflow.
        runtime.sim.run(until=3.0)
        assert executor.processed_count == processed_before
        assert executor.captured_count > 0
        assert len(executor.pending_events) == executor.captured_count


class TestBarrierAlignment:
    def test_merge_task_waits_for_all_upstream_instances(self):
        runtime = started_runtime(dataflow=fanout_dataflow())
        runtime.sim.run(until=2.0)
        merge = runtime.executor("merge#0")
        expected = runtime.expected_control_senders(merge)
        # merge has two upstream tasks: left (2 instances) and right (1 instance).
        assert expected == {"left#0", "left#1", "right#0"}

    def test_entry_task_expects_checkpoint_source(self):
        runtime = started_runtime(dataflow=fanout_dataflow())
        split = runtime.executor("split#0")
        assert runtime.expected_control_senders(split) == {CHECKPOINT_SOURCE_ID}

    def test_sequential_wave_completes_on_fanout_dataflow(self):
        runtime = started_runtime(dataflow=fanout_dataflow())
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        done = []
        runtime.checkpoints.start_wave(CheckpointAction.PREPARE, mode=WaveMode.SEQUENTIAL, on_complete=done.append)
        runtime.sim.run(until=4.0)
        assert len(done) == 1


class TestInit:
    def test_init_restores_committed_state_after_restart(self):
        runtime = started_runtime()
        runtime.sim.run(until=3.0)
        runtime.pause_sources()
        finished = []
        cid = runtime.checkpoints.run_checkpoint(on_complete=finished.append)
        runtime.sim.run(until=5.0)
        assert finished
        executor = runtime.executor("a#0")
        committed = runtime.statestore.peek(f"ckpt/{runtime.dataflow.name}/a#0")["state"]["processed"]
        executor.kill()
        executor.become_ready()
        assert executor.state.get("processed", 0) == 0
        runtime.checkpoints.start_wave(CheckpointAction.INIT, cid, WaveMode.BROADCAST)
        runtime.sim.run(until=6.0)
        assert executor.initialized
        assert executor.state.get("processed") == committed

    def test_duplicate_init_is_ignored_but_acked(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        cid = runtime.checkpoints.run_checkpoint()
        runtime.sim.run(until=4.0)
        executor = runtime.executor("a#0")
        wave = runtime.checkpoints.start_wave(CheckpointAction.INIT, cid, WaveMode.BROADCAST, resend_interval_s=0.2)
        runtime.sim.run(until=6.0)
        assert executor.restored_count == 1
        assert wave.status.value == "complete"

    def test_init_flushes_pre_init_buffer_into_queue(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        cid = runtime.checkpoints.run_checkpoint()
        runtime.sim.run(until=4.0)
        executor = runtime.executor("a#0")
        executor.kill()
        executor.become_ready()
        for i in range(3):
            event = Event.data("source", i + 1, payload=i, created_at=runtime.sim.now)
            executor.deliver(event, "source#0")
        assert len(executor.pre_init_buffer) == 3
        runtime.checkpoints.start_wave(CheckpointAction.INIT, cid, WaveMode.BROADCAST)
        runtime.sim.run(until=6.0)
        assert len(executor.pre_init_buffer) == 0
        assert executor.processed_count >= 3


class TestSinkInlineService:
    """Zero-time sink service completes inside deliver(): no kernel event per receipt."""

    @staticmethod
    def sink_runtime(strategy="dcr"):
        from repro.dataflow.builder import TopologyBuilder
        from repro.engine.runtime import TopologyRuntime
        from repro.sim import Simulator
        from tests.conftest import build_cluster, fast_config

        builder = TopologyBuilder("sinkchain")
        builder.add_source("source", rate=4.0)
        builder.add_task("work", parallelism=1, latency_s=0.005)
        builder.add_sink("sink")
        builder.chain("source", "work", "sink")
        config = fast_config(strategy)
        sim = Simulator()
        runtime = TopologyRuntime(builder.build(), build_cluster(sim), sim=sim, config=config)
        runtime.deploy()
        for executor in runtime.executors.values():
            if executor.task.name != "source":
                executor.start()
        return runtime

    @staticmethod
    def data_event(i):
        return Event.data("work", i + 1, payload={"seq": i}, created_at=0.0)

    @staticmethod
    def records(runtime):
        return [(r.time, r.root_id, r.event_id, r.sink) for r in runtime.log.sink_receipts]

    def test_flood_into_idle_sink_executes_no_kernel_events(self):
        runtime = self.sink_runtime()
        sink = runtime.executor("sink#0")
        events = [self.data_event(i) for i in range(500)]
        expected = [(0.0, e.root_id, e.event_id, "sink") for e in events]
        for event in events:
            runtime.deliver("sink#0", event, "work#0")
        # Every receipt is already logged; nothing was scheduled for them.
        assert self.records(runtime) == expected
        assert runtime.sim.pending_events == 0
        runtime.sim.run()
        assert runtime.sim.processed_events == 0
        assert sink.inline_completions == sink.received_count == sink.processed_count == 500
        assert not sink._busy and not sink.input_queue

    def test_receipts_are_stamped_with_their_delivery_times(self):
        runtime = self.sink_runtime()
        events = [self.data_event(i) for i in range(500)]
        # Bursts of five same-time deliveries, 1 ms apart.
        times = [0.001 * (i // 5) for i in range(500)]
        expected = [(t, e.root_id, e.event_id, "sink") for t, e in zip(times, events)]
        for t, event in zip(times, events):
            runtime.sim.push_fast(t, runtime.deliver, ("sink#0", event, "work#0"))
        runtime.sim.run()
        assert self.records(runtime) == expected
        assert runtime.sim.processed_events == 500  # the deliveries themselves, nothing else

    def test_uninitialized_sink_buffers_until_init(self):
        runtime = self.sink_runtime()
        sink = runtime.executor("sink#0")
        sink.initialized = False
        runtime.deliver("sink#0", self.data_event(0), "work#0")
        runtime.sim.run()
        assert len(sink.pre_init_buffer) == 1
        assert sink.inline_completions == 0 and not runtime.log.sink_receipts

    def test_killed_sink_refuses_the_delivery(self):
        runtime = self.sink_runtime()
        sink = runtime.executor("sink#0")
        sink.kill()
        assert not sink.deliver(self.data_event(0), "work#0")
        assert sink.inline_completions == 0 and not runtime.log.sink_receipts

    def test_inline_service_acks_the_tree_at_delivery(self):
        runtime = self.sink_runtime(strategy="dsm")
        event = self.data_event(0)
        event.anchored = True
        runtime.acker.register(event.root_id)
        runtime.acker.anchor(event.root_id, event.event_id)
        runtime.deliver("sink#0", event, "work#0")
        assert runtime.acker.stats.completed == 1 and runtime.acker.pending_count == 0
