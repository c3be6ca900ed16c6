"""The channel-record router against a dict-keyed reference router.

``ReferenceRouter`` below keeps the arithmetic the router had before the data
plane was compiled: route plans by task name, a shuffle counter by
``(sender, destination task)``, and the base latency, keyed jitter position and
FIFO time of a channel each in its own ``(sender, receiver)``-keyed dict
(every jitter value the scalar ``keyed_value`` of its ``(seed, position)``:
the router's streams draw ahead in blocks), with every delivery scheduled by executor *id* through ``runtime.deliver``.
The two routers are driven by the same generated schedule of ``route_one``
calls (single edge, fan-out, SHUFFLE / FIELDS, several events in one
instant), ``send_direct`` control events on the same channels,
``invalidate_caches()``, executor outages and ``rescale()`` retiring and
re-spawning an executor id with deliveries in flight.  Everything observable
must be bit-equal: delivery times, targets, event ids, senders, and the drop
and deferred records -- with and without acking.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.event import CheckpointAction, Event, EventKind, child_event_id
from repro.dataflow.graph import RescalePlan
from repro.dataflow.grouping import Grouping, field_key_of, stable_field_index
from repro.engine.executor import CHECKPOINT_SOURCE_ID, Executor, ExecutorStatus
from repro.engine.router import Router
from repro.engine.runtime import TopologyRuntime
from repro.sim import Simulator
from repro.sim.rng import keyed_value

from tests.conftest import build_cluster, fast_config, mutant, patched


# ---------------------------------------------------------------- reference
class ReferenceRouter:
    """The dict-keyed router: every fact looked up by name, every time."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.routed_count = 0
        self._route_plans = {}
        self._shuffle_counters = {}
        self._channel_base = {}
        self._keyed_jitter = {}
        self._last_delivery = {}
        network = runtime.cluster.network
        self._network = network
        self._jitter_fraction = network.jitter_fraction
        self._jitter_low = -self._jitter_fraction
        self._jitter_span = self._jitter_fraction - self._jitter_low

    def invalidate_caches(self):
        self._route_plans.clear()
        self._channel_base.clear()

    def _plan(self, task_name):
        plan = self._route_plans.get(task_name)
        if plan is None:
            dataflow = self.runtime.dataflow
            plan = self._route_plans[task_name] = tuple(
                (edge, tuple(dataflow.task(edge.dst).instance_ids()))
                for edge in dataflow.out_edges(task_name)
            )
        return plan

    def route_one(self, sender_id, task_name, event):
        runtime = self.runtime
        now = runtime.sim.now
        plan = self._plan(task_name)
        first = 0  # outbox position of the edge's first instance
        for edge, instances in plan:
            num = len(instances)
            if num == 1:
                target = instances[0]
            elif edge.grouping is Grouping.FIELDS:
                target = instances[stable_field_index(field_key_of(event.payload), num)]
            else:
                key = (sender_id, edge.dst)
                index = self._shuffle_counters.get(key, 0)
                self._shuffle_counters[key] = index + 1
                target = instances[index % num]
            event_id = child_event_id(event.event_id, first + instances.index(target))
            if len(plan) == 1:  # re-stamped with the id a copy would have carried
                event.event_id = event_id
                copy = event
            else:
                copy = event.copy_for_edge(event_id)
            if copy.anchored and runtime.ack_data_events and copy.kind is EventKind.DATA:
                runtime.acker.anchor(copy.root_id, copy.event_id)
            time = self._delivery_time(sender_id, target, now)
            self.routed_count += 1
            runtime.sim.push_fast(time, runtime.deliver, (target, copy, sender_id))
            first += num

    def send_direct(self, sender_id, target, event):
        runtime = self.runtime
        if event.anchored and event.is_data and runtime.ack_data_events:
            runtime.acker.anchor(event.root_id, event.event_id)
        time = self._delivery_time(sender_id, target, runtime.sim.now)
        self.routed_count += 1
        runtime.sim.push_fast(time, runtime.deliver, (target, event, sender_id))

    def _delivery_time(self, sender_id, target, now):
        channel = (sender_id, target)
        base = self._channel_base.get(channel)
        if base is None:
            runtime = self.runtime
            base = self._channel_base[channel] = self._network.base_latency(
                runtime.executor_vm(sender_id), runtime.executor_vm(target)
            )
        if self._jitter_fraction > 0:
            position = self._keyed_jitter.get(channel)
            if position is None:
                position = [self._network.keyed_jitter_stream(sender_id, target).seed, 0]
                self._keyed_jitter[channel] = position
            draw = keyed_value(*position)
            position[1] += 1
            latency = base * (1.0 + (self._jitter_low + self._jitter_span * draw))
            if latency < 0.0:
                latency = 0.0
        else:
            latency = base
        time = now + latency
        earliest = self._last_delivery.get(channel, 0.0) + 1e-9
        if earliest > time:
            time = earliest
        self._last_delivery[channel] = time
        return time


# ----------------------------------------------------------------- scenario
def groupings_dataflow():
    """Every shape of outbox: fan-out over either grouping, and each grouping
    on a single edge."""
    builder = TopologyBuilder("groupings")
    builder.add_source("src", rate=1.0)
    builder.add_task("up", parallelism=2, latency_s=0.01)
    builder.add_task("shuf", parallelism=3, latency_s=0.01)
    builder.add_task("keyed", parallelism=3, latency_s=0.01)
    builder.add_task("side", parallelism=2, latency_s=0.01)
    builder.add_task("tail", parallelism=2, latency_s=0.01)
    builder.add_task("one", parallelism=1, latency_s=0.01)
    builder.add_sink("sink")
    builder.connect("src", "up")
    builder.connect("up", "shuf", grouping=Grouping.SHUFFLE)
    builder.connect("up", "keyed", grouping=Grouping.FIELDS)
    builder.connect("up", "side", grouping=Grouping.SHUFFLE)
    builder.connect("shuf", "tail", grouping=Grouping.SHUFFLE)
    builder.connect("keyed", "tail", grouping=Grouping.FIELDS)
    builder.connect("side", "one")
    builder.connect("side", "tail", grouping=Grouping.SHUFFLE)
    builder.connect("tail", "sink")
    builder.connect("one", "sink")
    return builder.build()


#: (sender executor, its task) a schedule may route from.
SENDERS = (
    ("src#0", "src"), ("up#0", "up"), ("up#1", "up"), ("shuf#0", "shuf"), ("shuf#2", "shuf"),
    ("keyed#1", "keyed"), ("side#0", "side"), ("side#1", "side"), ("tail#0", "tail"),
    ("tail#1", "tail"),
)
#: (sender, receiver) pairs for ``send_direct``: channels data is routed on
#: too, the checkpoint source's own, and one to an executor that never exists.
DIRECT = (
    (CHECKPOINT_SOURCE_ID, "up#0"), ("up#0", "shuf#1"), ("shuf#0", "tail#1"), ("shuf#0", "tail#0"),
    ("side#1", "tail#1"), ("src#0", "up#1"), ("up#1", "ghost#0"),
)
VICTIM = "shuf#1"  # killed and revived in place (the transport defers its data)


def run_schedule(schedule, router_cls):
    """Drive one router through ``schedule``; returns everything observable."""
    sim = Simulator()
    config = fast_config("dsm" if schedule["acked"] else "dcr")
    config.reliability.periodic_checkpoint_interval_s = None
    runtime = TopologyRuntime(
        groupings_dataflow(), build_cluster(sim, worker_vms=10), sim=sim, config=config
    )
    runtime.router = router_cls(runtime)
    runtime.deploy()

    # Receivers are started and held busy: every accepted delivery lands in
    # an input queue and stays there to be read.
    # The generator never starts, so the schedule's routes are all there is.
    def hold(executor):
        executor.start()
        executor._busy = True

    tracked = []
    for executor in runtime.executors.values():
        if executor.task.name != "src":
            hold(executor)
            tracked.append(executor)
    seen = {}
    arrivals = []
    serial = [0]

    def route(sender, count, key):
        # ``count`` events routed one after another in one instant.
        sender_id, task_name = SENDERS[sender]
        for _ in range(count):
            serial[0] += 1
            event = Event.data(
                task_name, serial[0], payload={"key": f"k{key}", "n": serial[0]},
                created_at=sim.now, anchored=schedule["acked"],
            )
            if schedule["acked"]:
                runtime.acker.register(event.root_id)
            runtime.router.route_one(sender_id, task_name, event)
            key += 1

    def volley(sender, count):
        # The same channels several times in one instant, an invalidation
        # between sends: only the remembered FIFO time keeps them in order.
        for _ in range(count):
            route(sender, 1, 0)
            runtime.router.invalidate_caches()

    def direct(pair):
        sender_id, target = DIRECT[pair]
        event = Event.checkpoint(CheckpointAction.PREPARE, 1, sender_id, target, created_at=sim.now)
        runtime.router.send_direct(sender_id, target, event)

    def rescale():
        # Retire tail#1, or spawn a new executor under the same id.
        grow = runtime.dataflow.task("tail").parallelism == 1
        runtime.apply_rescale(RescalePlan({"tail": 2 if grow else 1}))
        if grow:
            hold(runtime.executor("tail#1"))
            tracked.append(runtime.executor("tail#1"))

    def outage():
        victim = runtime.executor(VICTIM)
        if victim.status is ExecutorStatus.RUNNING:
            victim.kill()
        else:
            victim.become_ready()
            victim.initialized = True
            victim._busy = True
            runtime._make_ready(VICTIM)  # hands over what the transport held

    actions = {
        "route": route, "volley": volley, "direct": direct, "rescale": rescale, "outage": outage,
        "invalidate": lambda: runtime.router.invalidate_caches(),
    }
    at_us = 0
    for gap_us, name, *args in schedule["ops"]:
        at_us += gap_us
        sim.schedule_at(at_us / 1e6, actions[name], *args)

    while sim.step():
        for generation, executor in enumerate(tracked):
            queue = executor.input_queue
            known = min(seen.get(generation, 0), len(queue))  # a kill empties it
            for event, sender_id in list(queue)[known:]:
                arrivals.append((
                    sim.now, executor.executor_id, generation, event.event_id, event.root_id,
                    event.kind.value, sender_id, (event.payload or {}).get("n"),
                ))
            seen[generation] = len(queue)
    log = runtime.log
    return {
        "arrivals": arrivals,
        "drops": [(d.time, d.executor_id, d.kind, d.reason, d.root_id) for d in log.drops],
        "deferred": [(d.time, d.executor_id, d.root_id) for d in log.deferred],
        "routed": runtime.router.routed_count,
        "anchors": runtime.acker.stats.anchors,
        "kernel_events": sim.processed_events,
    }


def check_schedule(schedule, router_cls=Router):
    expected = run_schedule(schedule, ReferenceRouter)
    observed = run_schedule(schedule, router_cls)
    for key in expected:
        assert observed[key] == expected[key], (key, schedule)
    return expected


# --------------------------------------------------------------- generation
#: Gaps from "same instant" to well past an inter-VM latency (1.5 ms), so
#: deliveries are in flight across most operations.
_GAP_US = st.sampled_from([0, 0, 50, 150, 400, 1200, 2500])
_OPS = st.one_of(
    st.tuples(_GAP_US, st.just("route"), st.integers(0, len(SENDERS) - 1), st.integers(1, 4),
              st.integers(0, 9)),
    st.tuples(_GAP_US, st.just("volley"), st.integers(0, len(SENDERS) - 1), st.integers(2, 6)),
    st.tuples(_GAP_US, st.just("direct"), st.integers(0, len(DIRECT) - 1)),
    st.tuples(_GAP_US, st.just("invalidate")),
    st.tuples(_GAP_US, st.just("rescale")),
    st.tuples(_GAP_US, st.just("outage")),
)
_SCHEDULES = st.fixed_dictionaries({
    "acked": st.booleans(),
    "ops": st.lists(_OPS, min_size=4, max_size=40),
})


@settings(max_examples=150, deadline=None)
@given(schedule=_SCHEDULES)
def test_channel_records_match_the_dict_keyed_router(schedule):
    check_schedule(schedule)


# ------------------------------------------------------------------- corpus
def _corpus():
    # One channel used eight times in one instant with an invalidation
    # between sends: only the remembered FIFO time keeps them in order.
    same_instant = [(0, "route", 6, 1, 0)]
    for _ in range(7):
        same_instant += [(0, "invalidate"), (0, "route", 6, 1, 0), (0, "direct", 0)]
    # A shuffle edge invalidated between sends: the cursor must carry on.
    carry_on = [(0, "route", 0, 1, 0), (100, "invalidate"), (100, "route", 0, 1, 0),
                (100, "invalidate"), (0, "route", 3, 3, 4), (50, "invalidate"), (0, "route", 3, 2, 1)]
    # Deliveries in flight to tail#1 when it is retired land on nobody; later
    # ones are in flight while the id is retired *and* re-spawned under them
    # and land on the new holder of the id.
    in_flight = [(0, "route", 7, 2, 0), (0, "route", 3, 4, 0), (0, "direct", 2), (100, "rescale"),
                 (0, "route", 3, 2, 0), (0, "route", 9, 1, 0), (2500, "rescale"),
                 (0, "route", 7, 1, 3), (0, "route", 3, 2, 0), (0, "direct", 4), (100, "rescale"),
                 (100, "rescale"), (2500, "route", 7, 3, 5)]
    # An outage in place: the transport defers data, drops control.
    deferred = [(0, "route", 1, 3, 0), (100, "outage"), (0, "route", 1, 4, 2), (0, "direct", 1),
                (0, "direct", 6), (2500, "outage"), (0, "route", 2, 2, 0)]
    for acked in (False, True):
        for ops in (same_instant, carry_on, in_flight, deferred):
            yield {"acked": acked, "ops": ops}


def test_the_corpus_passes_and_seeded_mutations_fail_it():
    observed = [check_schedule(schedule) for schedule in _corpus()]
    # The corpus reaches what it is there for.
    assert any(o["deferred"] for o in observed)
    reasons = {drop[3] for o in observed for drop in o["drops"]}
    assert {"unknown-executor", "killed"} <= reasons
    holders = {a[2] for o in observed for a in o["arrivals"] if a[1] == "tail#1"}
    assert len(holders) > 1  # deliveries reached a re-spawned holder of the id

    def corpus():
        for schedule in _corpus():
            check_schedule(schedule)

    # The FIFO time dropped with the placement-derived fields: a later send on
    # a channel can overtake an earlier one.
    amnesiac = mutant(Router, "invalidate_caches", "channel.deliver = None",
                      "channel.deliver = None; channel.last = 0.0")
    with patched(Router, "invalidate_caches", amnesiac), pytest.raises(AssertionError):
        corpus()

    # The shuffle cursors dropped with the outboxes: round-robin starts over.
    restarted = mutant(Router, "invalidate_caches", "self._outboxes.clear()",
                       "self._outboxes.clear(); self._cursors.clear()")
    with patched(Router, "invalidate_caches", restarted), pytest.raises(AssertionError):
        corpus()

    # A retired executor keeps the deliveries bound to it instead of handing
    # them to whoever holds its id now.
    stale = mutant(Executor, "_refuse", "runtime.executors.get(self.executor_id) is self", "True")
    with patched(Executor, "_refuse", stale), pytest.raises(AssertionError):
        corpus()
