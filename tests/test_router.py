"""Unit tests for event routing: groupings, FIFO channels and anchoring."""

from __future__ import annotations

import pytest

from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.event import Event, child_event_id
from repro.dataflow.grouping import Grouping, stable_field_index
from repro.dataflow.task import Task

from tests.conftest import make_runtime, tiny_dataflow


def grouping_dataflow(grouping: Grouping):
    builder = TopologyBuilder(f"grouping-{grouping.value}")
    builder.add_source("source", rate=20.0)
    builder.add_task("up", parallelism=1, latency_s=0.01)
    builder.add_task("down", parallelism=3, latency_s=0.01)
    builder.add_sink("sink")
    builder.connect("source", "up")
    builder.connect("up", "down", grouping=grouping)
    builder.connect("down", "sink")
    return builder.build()


def run_with_grouping(grouping: Grouping, until: float = 5.0):
    runtime = make_runtime(dataflow=grouping_dataflow(grouping), worker_vms=4)
    runtime.start()
    runtime.sim.run(until=until)
    return runtime


class TestGroupings:
    def test_shuffle_balances_across_instances(self):
        runtime = run_with_grouping(Grouping.SHUFFLE)
        counts = [runtime.executor(f"down#{i}").processed_count for i in range(3)]
        assert all(c > 0 for c in counts)
        assert max(counts) - min(counts) <= 1

    def test_fields_grouping_is_deterministic_per_key(self):
        runtime = make_runtime(dataflow=grouping_dataflow(Grouping.FIELDS), worker_vms=4)
        router = runtime.router
        dataflow = runtime.dataflow
        edge = [e for e in dataflow.edges if e.grouping is Grouping.FIELDS][0]
        event = Event.data("up", 1, payload={"key": "vehicle-17"})
        first = router._select_targets("up#0", edge, event)
        second = router._select_targets("up#0", edge, event.copy_for_edge(2))
        assert first == second


class TestDeliverySemantics:
    def test_per_channel_fifo_ordering(self):
        """Deliveries on the same (sender, receiver) channel never reorder."""
        runtime = make_runtime()
        # An executor serves its input queue strictly in arrival order, so the
        # order each instance of ``b`` (fed by ``a#0`` alone) processes in is
        # the order its channel delivered in.
        task = runtime.dataflow.task("b")
        logic = task.logic

        def recording(payload, state):
            state.setdefault("order", []).append(payload["seq"])
            return logic(payload, state)

        task.logic = recording
        runtime.start()
        runtime.sim.run(until=5.0)
        for target in ("b#0", "b#1"):
            sequence = runtime.executor(target).state["order"]
            assert sequence and sequence == sorted(sequence)

    def test_anchoring_only_when_acking_enabled(self):
        dcr_runtime = make_runtime(strategy="dcr")
        dcr_runtime.start()
        dcr_runtime.sim.run(until=2.0)
        assert dcr_runtime.acker.stats.anchors == 0

        dsm_runtime = make_runtime(strategy="dsm")
        dsm_runtime.start()
        dsm_runtime.sim.run(until=2.0)
        assert dsm_runtime.acker.stats.anchors > 0

    def test_routed_count_increases(self):
        runtime = make_runtime()
        runtime.start()
        runtime.sim.run(until=2.0)
        assert runtime.router.routed_count > 0

    def test_send_direct_reaches_specific_executor(self):
        runtime = make_runtime()
        runtime.start()
        event = Event.data("source", 1, payload={"direct": True}, created_at=runtime.sim.now)
        runtime.router.send_direct("source#0", "c#0", event)
        runtime.sim.run(until=1.0)
        assert runtime.executor("c#0").processed_count >= 1


class TestOneOutputOverShuffleOrFields:
    """The data plane carries one output per service over SHUFFLE and FIELDS
    edges; anything else fails at once instead of fanning out."""

    def test_task_has_no_selectivity_field(self):
        with pytest.raises(TypeError):
            Task(name="t", selectivity=2.0)

    def test_add_task_has_no_selectivity_keyword(self):
        with pytest.raises(TypeError):
            TopologyBuilder("t").add_task("a", selectivity=2.0)

    @pytest.mark.parametrize("name", ["all", "global"])
    def test_only_shuffle_and_fields_groupings_exist(self, name):
        with pytest.raises(ValueError):
            Grouping(name)
        assert [grouping.value for grouping in Grouping] == ["shuffle", "fields"]

    def test_a_service_with_two_outputs_names_its_task(self):
        runtime = make_runtime()
        runtime.dataflow.task("b").logic = lambda payload, state: [payload, payload]
        runtime.start()
        with pytest.raises(ValueError, match="task 'b'"):
            runtime.sim.run(until=5.0)
        # The per-event path ran it: custom logic is never swept.
        assert runtime.batch_stepper.inline_events == 0

    def test_a_service_that_emits_nothing_ends_its_tree(self):
        runtime = make_runtime(strategy="dsm")
        runtime.dataflow.task("b").logic = lambda payload, state: []
        runtime.start()
        runtime.sim.run(until=3.0)
        assert runtime.executor("a#0").processed_count > 0
        assert sum(runtime.executor(f"b#{i}").processed_count for i in range(2)) > 0
        assert runtime.executor("c#0").processed_count == 0
        assert len(runtime.log.sink_receipts) == 0
        # Acking b's input with nothing anchored downstream closes the tree.
        assert runtime.acker.stats.completed > 0
        assert runtime.acker.stats.failed == 0

    @pytest.mark.parametrize("grouping", [Grouping.SHUFFLE, Grouping.FIELDS])
    def test_one_output_goes_once_down_every_out_edge(self, grouping):
        builder = TopologyBuilder(f"fan-{grouping.value}")
        builder.add_source("source", rate=20.0)
        builder.add_task("up", latency_s=0.01)
        builder.add_task("left", parallelism=3, latency_s=0.01)
        builder.add_task("right", latency_s=0.01)
        builder.add_sink("sink")
        builder.connect("source", "up")
        builder.fan_out("up", ["left", "right"], grouping=grouping)
        builder.fan_in(["left", "right"], "sink")
        runtime = make_runtime(dataflow=builder.build(), worker_vms=4)
        downs = [runtime.executor(f"left#{i}") for i in range(3)] + [runtime.executor("right#0")]
        for executor in downs:
            executor.start()
            executor._busy = True  # hold every delivery in its input queue
        event = Event.data("up", 42, payload={"key": "k7"}, created_at=0.0)
        runtime.router.route_one("up#0", "up", event)
        runtime.sim.run(until=1.0)
        queued = {
            executor.executor_id: [queued_event for queued_event, _ in executor.input_queue]
            for executor in downs
        }
        left = 0 if grouping is Grouping.SHUFFLE else stable_field_index("k7", 3)
        assert {executor_id: len(events) for executor_id, events in queued.items()} == {
            f"left#{i}": int(i == left) for i in range(3)
        } | {"right#0": 1}
        # Each delivery is the event's step over its position in the outbox:
        # left's instances are channels 0-2, right's is channel 3.
        assert queued[f"left#{left}"][0].event_id == child_event_id(42, left)
        assert queued["right#0"][0].event_id == child_event_id(42, 3)
        assert {events[0].root_id for events in queued.values() if events} == {42}

    def test_only_the_default_forwarder_is_swept(self):
        # A logic that forwards 1:1 like the default is still custom: the
        # sweep keys on the forwarder itself, not on what a logic returns.
        runtime = make_runtime(dataflow=tiny_dataflow(rate=20.0))
        runtime.dataflow.task("b").logic = lambda payload, state: [payload]
        runtime.start()
        for _ in range(4):
            runtime.sim.run(until=runtime.sim.now + 2.5)
        assert runtime.executor("c#0").processed_count > 0
        assert runtime.batch_stepper.declines.get("custom-logic", 0) > 0
        assert runtime.batch_stepper.inline_events == 0
