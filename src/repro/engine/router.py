"""Event routing between executors.

The router implements Storm's stream groupings on top of the simulated
network: for every outgoing edge of a task it selects target instances of the
downstream task (shuffle round-robin by default), duplicates the event per
edge, applies the network transfer latency (intra- vs inter-VM), anchors the
copies with the acker service when acking is enabled, and enforces FIFO
delivery ordering per (sender executor, receiver executor) channel -- the
property checkpoint control events rely on to be the "rearguard" behind all
data events on a channel.

The compiled data plane
-----------------------
Routing is the inner loop of every experiment, so nothing on the per-event
hop is looked up by name.  Everything the router knows about one
(sender, receiver) pair lives in one persistent :class:`Channel` record:

* **semantics** -- the channel's FIFO time, its keyed jitter stream (counter
  included) -- which live as long as the router;
* **placement-derived fields** -- the un-jittered base latency (intra- or
  inter-VM) and the receiver's bound ``deliver``, the callback the kernel
  runs at the delivery time -- which :meth:`Router.invalidate_caches` drops
  whenever the runtime changes the executor set or the placement (deploy,
  rebalance, rescale, VM failure) and the next use re-derives.

A sender reaches its channels through its **outbox**: one entry per outgoing
edge of its task holding the grouping, the channel of every destination
instance and the edge's shuffle cursor (semantics again: it outlives the
outbox).  Outboxes are compiled on first use per placement epoch and dropped
by ``invalidate_caches()`` with the placement-derived fields.

Every delivery -- :meth:`Router.route_one`, the fan-out and multi-event
forms of :meth:`Router.route`, :meth:`Router.send_direct`, and the batch
stepper's inline and spill paths -- is stamped by :meth:`Channel.stamp`, the
one copy of the latency-jitter-FIFO arithmetic.  When a single ``route()``
call emits several events onto the same channel (a batch produced in one
tick), the router schedules *one* delivery callback carrying the
(time, event) list, which walks the channel's FIFO times itself instead of
holding one heap entry per event.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cloud import NetworkModel
from repro.dataflow.event import Event, EventKind, child_event_id
from repro.dataflow.graph import Edge
from repro.dataflow.grouping import Grouping, field_key_of, stable_field_index
from repro.sim.rng import KeyedStream

#: Back-compat alias: the stable CRC-32 FIELDS hash lives in
#: :mod:`repro.dataflow.grouping` so the state re-partitioner (reliability
#: layer) can re-key grouped state with the exact same mapping the router
#: uses for deliveries.
_stable_field_index = stable_field_index

_DATA = EventKind.DATA
_SHUFFLE = Grouping.SHUFFLE
_FIELDS = Grouping.FIELDS
_ALL = Grouping.ALL

#: Minimum spacing of two deliveries on one channel (FIFO tie-break).
FIFO_SPACING_S = 1e-9


class Channel:
    """Everything the data plane knows about one (sender, receiver) pair.

    ``last`` (the FIFO time) and ``stream`` (the keyed jitter stream, ``None``
    without jitter) are semantics and never reset.
    ``base`` and ``deliver`` are derived from the placement and the executor
    set; ``deliver is None`` marks them stale (see
    :meth:`Router.invalidate_caches`).
    """

    __slots__ = (
        "sender_id", "target_id", "last", "stream", "base", "deliver",
        "draw", "jitter_low", "jitter_span",
    )

    def __init__(
        self,
        sender_id: str,
        target_id: str,
        stream: Optional[KeyedStream],
        jitter_fraction: float,
    ) -> None:
        self.sender_id = sender_id
        self.target_id = target_id
        self.last = 0.0
        self.stream = stream
        self.base = 0.0
        self.deliver: Optional[Callable[[Event, str], object]] = None
        # Uniform [0, 1) draw of this channel's jitter (``None``: no jitter;
        # else the pop of the stream's draw-ahead block) and the transform
        # ``low + span * draw``: ``uniform(low, low + span)`` without the frame.
        self.draw = stream.ahead if stream is not None else None
        self.jitter_low = -jitter_fraction
        self.jitter_span = jitter_fraction - self.jitter_low

    def stamp(self, now: float) -> float:
        """Arrival time of a delivery sent at ``now``: jittered, then FIFO-ordered."""
        draw = self.draw
        if draw is None:
            latency = self.base
        else:
            try:
                u = draw()
            except IndexError:  # the block is spent: the stream refills it
                u = self.stream.random()
            # Parenthesized as uniform()'s `a + (b-a)*r` before the 1.0 add:
            # float addition is not associative, and the level sweep's array
            # form of this line (`_Sweep._ship_block`) must match it bit for bit.
            latency = self.base * (1.0 + (self.jitter_low + self.jitter_span * u))
            if latency < 0.0:
                latency = 0.0
        time = now + latency
        earliest = self.last + FIFO_SPACING_S
        if earliest > time:
            time = earliest
        self.last = time
        return time


#: One outgoing edge of a sender: grouping, instance count, the channel per
#: destination instance, and the edge's shuffle cursor (a one-element list
#: shared by every outbox ever compiled for this sender and destination task).
OutboxEdge = Tuple[Grouping, int, Tuple[Channel, ...], List[int]]
#: A stamped delivery: arrival time, channel, event.
Delivery = Tuple[float, Channel, Event]


class Router:
    """Routes events from an executor to the instances of downstream tasks."""

    def __init__(self, runtime: "TopologyRuntime") -> None:
        self.runtime = runtime
        self.routed_count = 0
        #: Telemetry tallies (plain ints, scraped post-hoc): route calls,
        #: outbox compilations, and coalesced same-channel batch callbacks.
        self.route_calls = 0
        self.plan_builds = 0
        self.batched_deliveries = 0
        #: (sender, receiver) -> channel record; never dropped.
        self._channels: Dict[Tuple[str, str], Channel] = {}
        #: (sender, destination task) -> shuffle cursor; never dropped.
        self._cursors: Dict[Tuple[str, str], List[int]] = {}
        #: sender -> compiled outbox; dropped by invalidate_caches().
        self._outboxes: Dict[str, Tuple[OutboxEdge, ...]] = {}
        #: Placement epoch, moved by invalidate_caches(): what the batch
        #: stepper compiles from the outboxes can tell it is stale.
        self.epoch = 0
        network: NetworkModel = runtime.cluster.network
        self._network = network
        # Each (sender, receiver) channel draws its jitter from its own keyed
        # stream: what one channel sees does not depend on how the others
        # interleave, which lets the level sweep draw a window's worth at once.
        self._jitter_fraction = network.jitter_fraction

    # ---------------------------------------------------------------- compile
    def invalidate_caches(self) -> None:
        """Drop everything derived from the placement and the executor set.

        Must be called whenever executors move between VMs or the executor
        set changes (deploy, rebalance, rescale, VM failure).  The outboxes
        go, and every channel forgets its base latency and bound receiver.
        Routing *state* -- per-channel FIFO times and keyed stream counters,
        shuffle cursors -- is deliberately preserved: it is semantics, not
        cache.
        """
        self._outboxes.clear()
        self.epoch += 1
        for channel in self._channels.values():
            channel.deliver = None

    def channel(self, sender_id: str, target_id: str) -> Channel:
        """The (sender, receiver) channel record, bound to the current placement."""
        key = (sender_id, target_id)
        channel = self._channels.get(key)
        if channel is None:
            stream = None
            if self._jitter_fraction > 0:
                stream = self._network.keyed_jitter_stream(sender_id, target_id)
            channel = self._channels[key] = Channel(sender_id, target_id, stream, self._jitter_fraction)
        if channel.deliver is None:
            runtime = self.runtime
            target = runtime.executors.get(target_id)
            channel.base = self._network.base_latency(
                runtime.executor_vm(sender_id), target.vm_id if target is not None else None
            )
            # No such executor (yet): deliver by id, which looks again at the
            # delivery time and records the drop if there still is none.
            channel.deliver = (
                target.deliver if target is not None else partial(runtime.deliver, target_id)
            )
        return channel

    def _cursor(self, sender_id: str, dst_task: str) -> List[int]:
        key = (sender_id, dst_task)
        cursor = self._cursors.get(key)
        if cursor is None:
            cursor = self._cursors[key] = [0]
        return cursor

    def outbox(self, sender_id: str, task_name: str) -> Tuple[OutboxEdge, ...]:
        """The sender's compiled outbox (``sender_id`` is an instance of ``task_name``)."""
        outbox = self._outboxes.get(sender_id)
        if outbox is None:
            dataflow = self.runtime.dataflow
            edges = []
            for edge in dataflow.out_edges(task_name):
                channels = tuple(
                    self.channel(sender_id, target)
                    for target in dataflow.task(edge.dst).instance_ids()
                )
                edges.append(
                    (edge.grouping, len(channels), channels, self._cursor(sender_id, edge.dst))
                )
            outbox = self._outboxes[sender_id] = tuple(edges)
            self.plan_builds += 1
        return outbox

    # --------------------------------------------------------------- routing
    def route_one(self, sender_id: str, task_name: str, event: Event) -> None:
        """Deliver one event on every outgoing edge of ``task_name``.

        The router takes **ownership** of the event: it is either duplicated
        per delivery (fan-out) or re-stamped with the id its copy would have
        carried and delivered directly (the dominant
        single-delivery case).  Callers must not touch an event after
        routing it.

        Target selection must stay in lock-step with :meth:`_select_targets`
        (the uncached reference used by direct callers and tests).
        """
        self.route_calls += 1
        outbox = self._outboxes.get(sender_id)
        if outbox is None:
            outbox = self.outbox(sender_id, task_name)
        if len(outbox) == 1:
            # Dominant shape: one out-edge, one target.
            grouping, num, channels, cursor = outbox[0]
            if num == 1:
                position = 0
            elif grouping is _SHUFFLE:
                index = cursor[0]
                cursor[0] = index + 1
                position = index % num
            elif grouping is _FIELDS:
                position = stable_field_index(field_key_of(event.payload), num)
            elif grouping is _ALL:  # fans out: take the general path below
                position = None
            else:  # GLOBAL
                position = 0
            if position is not None:
                runtime = self.runtime
                channel = channels[position]
                # Sole delivery of this event: re-stamp the original with the
                # id a copy would have carried, skip the allocation.
                event.event_id = event_id = child_event_id(event.event_id, position)
                if event.anchored and runtime.ack_data_events and event.kind is _DATA:
                    runtime.acker.anchor(event.root_id, event_id)
                self.routed_count += 1
                sim = runtime.sim
                sim.push_fast(channel.stamp(sim.now), channel.deliver, (event, sender_id))
                return
        # Fan-out: the deliveries of one event go on the heap one by one.
        sim = self.runtime.sim
        push_fast = sim.push_fast
        for time, channel, copy in self.fan_out(sender_id, outbox, (event,), sim.now):
            push_fast(time, channel.deliver, (copy, sender_id))

    def route(self, sender_id: str, task_name: str, events: Sequence[Event]) -> None:
        """Deliver each event on every outgoing edge (see :meth:`route_one`).

        Several events sent in one tick are grouped per channel, each group
        riding on one :meth:`deliver_batch` callback.
        """
        if not events:
            return
        if len(events) == 1:
            self.route_one(sender_id, task_name, events[0])
            return
        self.route_calls += 1
        sim = self.runtime.sim
        push_fast = sim.push_fast
        outbox = self.outbox(sender_id, task_name)
        batches: Dict[Channel, List[Tuple[float, Event]]] = {}
        for time, channel, event in self.fan_out(sender_id, outbox, events, sim.now):
            batches.setdefault(channel, []).append((time, event))
        for channel, pairs in batches.items():
            if len(pairs) == 1:
                push_fast(pairs[0][0], channel.deliver, (pairs[0][1], sender_id))
            else:
                # One callback walks the channel's FIFO-ordered times.
                self.batched_deliveries += 1
                push_fast(pairs[0][0], self.deliver_batch, (channel.deliver, sender_id, pairs, 0))

    def fan_out(
        self, sender_id: str, outbox: Tuple[OutboxEdge, ...], events: Sequence[Event], now: float
    ) -> List[Delivery]:
        """Select, copy, anchor and stamp every delivery of ``events`` sent at ``now``.

        The general form of routing (several edges, ALL grouping, several
        events): the caller decides how the stamped deliveries go on the
        heap.  Event ids, acker anchors and jitter draws happen here, edge by
        edge and event by event.  A delivery's id is the event's step over
        the channel's position in the outbox (edges in order, each edge's
        instances in order), which the level sweep's plan numbers alike.
        """
        runtime = self.runtime
        acker = runtime.acker
        ack_data = runtime.ack_data_events
        single_edge = len(outbox) == 1
        deliveries: List[Delivery] = []
        first = 0
        for grouping, num, channels, cursor in outbox:
            for event in events:
                if num == 1 or grouping is _ALL:
                    positions = range(num)
                elif grouping is _SHUFFLE:  # round-robin per (sender executor, destination task)
                    index = cursor[0]
                    cursor[0] = index + 1
                    positions = (index % num,)
                elif grouping is _FIELDS:
                    positions = (stable_field_index(field_key_of(event.payload), num),)
                else:  # GLOBAL
                    positions = (0,)
                if single_edge and len(positions) == 1:
                    # Sole delivery of this event: re-stamp instead of copying
                    # (see route_one).
                    channel = channels[positions[0]]
                    event.event_id = child_event_id(event.event_id, positions[0])
                    if event.anchored and ack_data and event.kind is _DATA:
                        acker.anchor(event.root_id, event.event_id)
                    deliveries.append((channel.stamp(now), channel, event))
                    continue
                for position in positions:
                    channel = channels[position]
                    copy = event.copy_for_edge(child_event_id(event.event_id, first + position))
                    if copy.anchored and ack_data and copy.kind is _DATA:
                        acker.anchor(copy.root_id, copy.event_id)
                    deliveries.append((channel.stamp(now), channel, copy))
            first += num
        self.routed_count += len(deliveries)
        return deliveries

    def deliver_batch(
        self,
        deliver: Callable[[Event, str], object],
        sender_id: str,
        pairs: List[Tuple[float, Event]],
        index: int,
    ) -> None:
        """Deliver one event of a same-channel batch, then re-arm for the next.

        Per-channel delivery times are strictly increasing (FIFO), so the
        pairs list is already time-sorted and a single in-flight heap entry
        suffices for the whole batch.
        """
        deliver(pairs[index][1], sender_id)
        next_index = index + 1
        if next_index < len(pairs):
            self.runtime.sim.push_fast(
                pairs[next_index][0], self.deliver_batch, (deliver, sender_id, pairs, next_index)
            )

    def send_direct(self, sender_id: str, target_executor_id: str, event: Event) -> None:
        """Deliver an event directly to a specific executor (checkpoint channels)."""
        runtime = self.runtime
        if event.anchored and event.is_data and runtime.ack_data_events:
            runtime.acker.anchor(event.root_id, event.event_id)
        channel = self.channel(sender_id, target_executor_id)
        self.routed_count += 1
        sim = runtime.sim
        sim.push_fast(channel.stamp(sim.now), channel.deliver, (event, sender_id))

    # ------------------------------------------------------- target selection
    def _select_targets(self, sender_executor_id: str, edge: Edge, event: Event) -> List[str]:
        """Uncached reference implementation of grouping target selection.

        :meth:`route_one` and :meth:`fan_out` apply the same rules to their
        compiled outbox; keep them in sync.
        """
        dst_task = self.runtime.dataflow.task(edge.dst)
        instances = dst_task.instance_ids()
        if len(instances) == 1:
            return [instances[0]]
        if edge.grouping is Grouping.ALL:
            return list(instances)
        if edge.grouping is Grouping.GLOBAL:
            return [instances[0]]
        if edge.grouping is Grouping.FIELDS:
            return [instances[_stable_field_index(field_key_of(event.payload), len(instances))]]
        # Shuffle grouping: round-robin per (sender executor, destination task).
        cursor = self._cursor(sender_executor_id, edge.dst)
        index = cursor[0]
        cursor[0] = index + 1
        return [instances[index % len(instances)]]
