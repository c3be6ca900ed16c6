"""Unit tests for event routing: groupings, FIFO channels and anchoring."""

from __future__ import annotations

import pytest

from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.event import Event
from repro.dataflow.grouping import Grouping

from tests.conftest import make_runtime


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

    def test_all_grouping_duplicates_to_every_instance(self):
        runtime = run_with_grouping(Grouping.ALL)
        up_count = runtime.executor("up#0").processed_count
        counts = [runtime.executor(f"down#{i}").processed_count for i in range(3)]
        # Every instance sees (almost) every event emitted by the upstream task.
        for count in counts:
            assert count >= up_count - 3

    def test_global_grouping_uses_first_instance_only(self):
        runtime = run_with_grouping(Grouping.GLOBAL)
        assert runtime.executor("down#0").processed_count > 0
        assert runtime.executor("down#1").processed_count == 0
        assert runtime.executor("down#2").processed_count == 0

    def test_fields_grouping_is_deterministic_per_key(self):
        runtime = make_runtime(dataflow=grouping_dataflow(Grouping.FIELDS), worker_vms=4)
        router = runtime.router
        dataflow = runtime.dataflow
        edge = [e for e in dataflow.edges if e.grouping is Grouping.FIELDS][0]
        event = Event.data("up", payload={"key": "vehicle-17"})
        first = router._select_targets("up#0", edge, event)
        second = router._select_targets("up#0", edge, event.copy_for_edge())
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
        event = Event.data("source", payload={"direct": True}, created_at=runtime.sim.now)
        runtime.router.send_direct("source#0", "c#0", event)
        runtime.sim.run(until=1.0)
        assert runtime.executor("c#0").processed_count >= 1


class TestBatchedDeliveries:
    """The batched same-channel delivery path (multi-event route() calls)."""

    def _batch_runtime(self, grouping=Grouping.SHUFFLE):
        runtime = make_runtime(dataflow=grouping_dataflow(grouping), worker_vms=4)
        for executor in runtime.executors.values():
            if executor.task.kind.value != "source":
                executor.start()
        return runtime

    @staticmethod
    def _arrivals(runtime, until=5.0):
        """(time, executor, seq) of every delivery into a ``down`` executor, in order.

        The receivers are held busy, so each delivery lands in its input
        queue and nothing is served; the kernel is stepped and every queue
        growth recorded at the time of the step that caused it.
        """
        downs = [runtime.executor(f"down#{i}") for i in range(3)]
        for executor in downs:
            executor._busy = True
        seen = {executor.executor_id: 0 for executor in downs}
        arrivals = []
        while runtime.sim.step():
            assert runtime.sim.now <= until
            for executor in downs:
                queue = executor.input_queue
                while seen[executor.executor_id] < len(queue):
                    event, _sender = queue[seen[executor.executor_id]]
                    arrivals.append((runtime.sim.now, executor.executor_id, event.payload["seq"]))
                    seen[executor.executor_id] += 1
        return arrivals

    def test_batch_delivers_every_event_in_fifo_order(self):
        runtime = self._batch_runtime(Grouping.ALL)
        events = [Event.data("up", payload={"seq": i}, created_at=0.0) for i in range(16)]
        runtime.router.route("up#0", "up", events)
        batch = self._arrivals(runtime)
        # ALL grouping: every instance sees every event of the batch.
        assert len(batch) == 16 * 3
        for target in ("down#0", "down#1", "down#2"):
            sequence = [seq for _, executor_id, seq in batch if executor_id == target]
            assert sequence == list(range(16))
            times = [t for t, executor_id, _ in batch if executor_id == target]
            assert times == sorted(times)
            assert len(set(times)) == len(times)  # strictly increasing (FIFO spacing)

    def test_batch_uses_one_inflight_heap_entry_per_channel(self):
        runtime = self._batch_runtime(Grouping.ALL)
        before = runtime.sim.pending_events
        events = [Event.data("up", payload={"seq": i}, created_at=0.0) for i in range(16)]
        runtime.router.route("up#0", "up", events)
        scheduled = runtime.sim.pending_events - before
        # 48 deliveries ride on 3 batch callbacks (one per channel), not 48.
        assert scheduled == 3
        runtime.sim.run(until=5.0)
        assert sum(runtime.executor(f"down#{i}").processed_count for i in range(3)) == 48

    def test_batch_results_match_per_event_routing(self):
        """Routing a batch equals routing the same events one at a time."""

        def collect(route_batched):
            runtime = self._batch_runtime(Grouping.SHUFFLE)
            events = [Event.data("up", payload={"seq": i}, created_at=0.0) for i in range(12)]
            if route_batched:
                runtime.router.route("up#0", "up", events)
            else:
                for event in events:
                    runtime.router.route("up#0", "up", [event])
            return [(executor_id, seq) for _, executor_id, seq in self._arrivals(runtime)]

        batched = collect(True)
        assert len(batched) == 12
        assert batched == collect(False)
