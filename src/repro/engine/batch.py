"""Batch-stepping cascade: whole steady-state stretches in one kernel callback.

The classic kernel executes one Python callback per simulated event; a single
source tick costs two heap round-trips per hop (delivery, service completion)
plus the deliver -> queue -> ``_maybe_process`` -> ``_complete_data`` call
chain.  At steady state none of that machinery can change the outcome: every
executor is initialized and running, no control wave is in flight, and the
only cancellable timer pending is the source's own emit tick.

The :class:`BatchStepper` exploits this.  When the emit timer fires and the
runtime is *quiescent* (checked exhaustively below), the whole stretch of
simulated time up to the next cancellable timer (exclusive) or the ``run``
bound (inclusive) is swept inside one callback with array rounds: a
:class:`_SweepPlan` compiled once per placement epoch groups the task
instances into topological *levels*, and per level one service round (arrival
merge and Lindley queues of all its instances) and one shipping round (keyed
jitter, latency and FIFO bump of all its channels) run over arrays laid end
to end -- the same float operations per entry in the same order as the
per-event path, so times stay bit-identical.  Event ids are a function of the
data (:mod:`repro.dataflow.event`): the sweep carries an id column beside its
root indices and steps it per channel with the per-event path's own
:func:`~repro.dataflow.event.child_event_id`, so its spills, receipts and ack
folds carry the ids the per-event kernel gives them.  Work already in flight
(pending deliveries, services in progress, queued arrivals) is *adopted* into
the sweep, which is what lets it re-engage every window.  Entries that land
at or past the horizon are *spilled* back onto the real kernel heap in
classic form (``Executor.deliver`` / ``Executor._complete_data``), and
executor state is left exactly as the classic kernel would have it at the
horizon, so processing continues seamlessly -- a monitor sampling at the
horizon observes identical ``processed_count`` / ``busy_time_s`` / log
contents.  See :class:`_Sweep`.

Correctness rests on the keyed per-channel jitter streams: each channel
consumes its own sequence, a draw is a function of ``(seed, channel,
sequence)``, so the sweep draws the exact values the per-event kernel would
however the channels interleave.  The equivalence tests in
``tests/test_batch_equivalence.py`` pin the log digest and the executor
counters against the per-event kernel (``RuntimeConfig.batch_stepping =
False``), event ids included.

Batch stepping stays engaged when data acking is on: the sweep replays the
acker XOR stream symbolically.  A loss-free stretch anchors and acks every
event of a tuple tree inside one sweep, so the folds cancel by construction
and only events that cross the horizon fold their ids into the bulk acker APIs
(``register_block`` for the window's roots, ``settle_trees`` for the trees
its adopted work belongs to).
The cascade horizon is clamped to ``now + ack timeout`` so no tree a sweep
registers can time out mid-stretch.  Which ticks are swept is the engine's own
choice, tick by tick (:meth:`BatchStepper._cascade`): loss/replay windows,
fault injection and migrations always take the per-event path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, namedtuple
from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dataflow.event import Event, EventKind, child_event_id, root_event_id
from repro.dataflow.grouping import Grouping, field_key_of, stable_field_index
from repro.dataflow.task import TaskKind, default_logic
from repro.engine.executor import Executor, ExecutorStatus, SinkExecutor, SourceExecutor
from repro.engine.router import FIFO_SPACING_S, Channel
from repro.engine.scan import fixed_rate_ticks, maxplus_scan, sequential_sums
from repro.sim.rng import keyed_value_blocks

_RUNNING = ExecutorStatus.RUNNING
_DATA_KIND = EventKind.DATA
_ROOT_ID = attrgetter("root_id")
_EMITTED_AT = attrgetter("root_emitted_at")
_EVENT_ID = attrgetter("event_id")

# Unbound kernel-callback identities the sweep knows how to ingest when it
# adopts in-flight work (see _scan_inflight); a sink never schedules a
# completion (SinkExecutor).
_COMPLETE_DATA = Executor._complete_data
_DELIVERIES = (Executor.deliver, SinkExecutor.deliver)

#: Most entries one array round of the level sweep lays end to end: whole
#: channels (or task instances) of a level share a round while they fit, and
#: one that is longer than this takes a round of its own.  A shared round
#: saves the call overhead of some thirty numpy calls a channel, but only
#: while its temporaries stay small.  Measured here (best of 5, bit-equal
#: outputs; keyed mix, latency and FIFO scan of 7 channels in one round
#: against seven rounds): 4.5x faster at 34 entries a channel, 4.2x at 150,
#: 3.1x at 450, 2.1x at 1 000, 1.5x at 2 500, 1.2x at 4 000 -- and 1.5x
#: *slower* at 10 000, every float64 temporary far past glibc's 128 KiB mmap
#: threshold (16 384 entries) and page-faulted afresh (the issue that set the
#: rule saw the loss from 2 500 on).  8 192 entries keep a block's
#: temporaries at 64 KiB.
_BLOCK_ENTRIES = 8192

#: The cost rule's crossover: a tick whose window holds fewer roots than this
#: is declined as ``short-window`` and runs on the per-event kernel.  A cascade
#: costs ≈ 16 rounds of ≈ 30 numpy calls whatever it holds, the kernel ≈ 2 µs
#: an event.  Measured here (host ms a window at 8, 16, 24 roots, best of 7
#: runs of 40 windows; sweep forced / kernel): Linear 0.37 / 0.18, 0.44 / 0.36,
#: 0.38 / 0.52; Diamond 0.54 / 0.29, 0.69 / 0.68, 0.58 / 0.97; Grid 1.04 /
#: 0.69, 1.01 / 1.42, 1.03 / 2.06; acked Diamond 0.85 / 0.50, 0.93 / 1.01,
#: 1.10 / 1.54.  The lines cross between 11 (Grid) and 20 (Linear) roots.
_MIN_WINDOW_ROOTS = 16


class BatchStepper:
    """Runs quiescent steady-state stretches inline (see module docstring)."""

    def __init__(self, runtime: "TopologyRuntime") -> None:
        self.runtime = runtime
        #: Number of cascades executed (diagnostic).
        self.cascades = 0
        #: Simulated events materialized inline instead of via the kernel.
        self.inline_events = 0
        #: Simulated seconds the cascades covered.
        self.swept_s = 0.0
        #: Source ticks handed back to the classic per-event path, by reason.
        self.declines: Dict[str, int] = {}
        #: Array rounds of the sweep: one per block per level for the service
        #: queues and one for shipping (see :class:`_Sweep`).
        self.rounds = 0
        #: Max-plus scan segments the sweep handed to the scalar reference
        #: because the waiting frontier would not halve per round -- a loaded
        #: queue (see :mod:`repro.engine.scan`).
        self.scan_fallbacks = 0
        #: Sweep plans compiled: one per placement epoch the stepper ran in.
        self.plan_builds = 0
        self._plan: Optional[_SweepPlan] = None
        #: ``(router epoch, structural decline reason or None)``.
        self._structure: Optional[Tuple[int, Optional[str]]] = None

    # ------------------------------------------------------------ sweep plan
    def _sweep_plan(self) -> "_SweepPlan":
        """The compiled plan of the current placement epoch (see :class:`_SweepPlan`)."""
        plan = self._plan
        if plan is None or plan.epoch != self.runtime.router.epoch:
            plan = self._plan = _SweepPlan(self.runtime)
            self.plan_builds += 1
        return plan

    def drop_plan(self) -> None:
        """Forget what was compiled: task logic changed (a migration's logic update)."""
        self._plan = self._structure = None

    # ---------------------------------------------------------------- cascade
    def try_cascade(self, source: SourceExecutor) -> bool:
        """Whether the cascade consumed the source tick that just fired (emitted,
        swept or spilled the work downstream, armed the next emit timer); else
        the per-tick path runs it and the reason is tallied in :attr:`declines`."""
        reason = self._cascade(source)
        if reason is None:
            return True
        self.declines[reason] = self.declines.get(reason, 0) + 1
        return False

    def _cascade(self, source: SourceExecutor) -> Optional[str]:
        """Sweep the tick's stretch level by level; the decline reason
        (nothing mutated) when it could not, or should not.

        Every reason but ``short-window`` (the cost rule,
        :data:`_MIN_WINDOW_ROOTS`) names engine machinery the sweep does not
        replicate: while it is live the tick goes to the per-event path.  They
        are asked cheapest first, so a tick declined for the dataflow's
        structure, the source's state or the window costs O(1): only one that
        gets further walks the kernel heap, the executors and their queues.
        Plain data work in flight is no blocker: :func:`_scan_inflight` adopts it.

        Then the phases, each a function or a :class:`_Sweep` method: in-flight
        scan, emission schedule, ingestion, one service and one shipping round
        per level, the spills, the ack fold, the log commit -- and for a
        backlogged spout held at its pending cap the emission schedule last,
        from the fold's completion times.
        """
        runtime = self.runtime
        sim = runtime.sim
        limit = sim.run_until
        if limit is None:
            return "unbounded-run"  # no horizon to materialize up to
        if sim.runtimes > 1:
            return "shared-simulator"  # ingest would adopt the others' heap entries
        verdict = self._structure
        if verdict is None or verdict[0] != runtime.router.epoch:
            # Whether the dataflow can be swept at all: once per placement epoch.
            verdict = self._structure = (runtime.router.epoch, _structural_decline(runtime))
        if verdict[1] is not None:
            return verdict[1]
        if source.paused or source.status is not _RUNNING:
            return "source-paused"
        if source._replay_queue or source._replay_counts:
            # Queued, or emitted and its tree still pending: a replay
            # re-registers a tree, which the sweep's fold does not.
            return "source-replays"
        if runtime._deferred_deliveries:
            return "deferred-deliveries"
        now0 = sim.now
        rate = source.rate if source.profile is None else source.current_rate
        if (limit - now0) * rate < _MIN_WINDOW_ROOTS:
            return "short-window"
        acked = runtime.ack_data_events
        cap = runtime.reliability.max_spout_pending if acked else None
        pending = runtime.acker.pending_count
        draining = source.draining
        burst = runtime.timing.source_max_burst_rate
        if draining:
            # The drain chain is absorbed on its own grid (_emission_schedule),
            # which a spout generating at its burst rate does not keep, and a
            # tick the cap holds back must join the backlog.
            if max(rate, source.rate) >= burst or not (
                cap is None or runtime.reliability.throttled_ticks_generate_backlog
            ):
                return "throttled"
        elif cap is not None:
            if pending >= cap:
                return "throttled"  # the per-event path starts the drain chain
            if cap - pending < _MIN_WINDOW_ROOTS:
                return "short-window"  # the cap ends the stretch after that many roots
        horizon = sim.next_timer_time(skip=source.drain_poll)
        if horizon <= now0:
            return "timer-due"  # another timer is due immediately; do not pass it
        if acked:
            # Any tree a cascade registers schedules its timeout at ``tick +
            # timeout >= now0 + timeout``: clamped there, no timer the cascade
            # itself creates can fire inside the stretch (already-pending trees
            # bound ``horizon`` through their live timeout timers).
            horizon = min(horizon, now0 + runtime.acker.timeout_s)
        if (horizon - now0) * rate < _MIN_WINDOW_ROOTS:
            return "short-window"
        for executor in runtime.executors.values():
            if executor.status is not _RUNNING or not executor.initialized:
                return "executor-not-ready"
            if executor.capture_mode or executor.pre_init_buffer:
                return "executor-capturing"
        # Everything is running, hence placed: the plan can compile.
        plan = self._sweep_plan()
        inflight = _scan_inflight(runtime, acked)
        if isinstance(inflight, str):
            return inflight
        # A backlogged spout at its cap emits one entry per completed tree: a
        # closed loop, swept for as long as no root it emits can start service
        # (the first hop's slack).  Then the window's completions are those of
        # adopted work alone and the emissions follow from them.
        held = draining and cap is not None
        if held:
            slack = _first_hop_slack(plan, plan.by_id[source.executor_id], inflight[1])
            if slack is None:
                return "no-first-hop-slack"
            horizon = min(horizon, slack)
        headroom = None if draining or cap is None else cap - pending
        ticks, next_tick, idle_from, horizon = _generator_ticks(
            source, now0, limit, horizon, headroom, burst if draining else math.inf
        )
        bound = _bound(horizon, limit)
        chain = source.yield_drain() if draining else None
        sweep = _Sweep(runtime, plan, source, bound, acked)
        if held:
            sweep.ack_spans = []
            sweep.ingest(*inflight)
        else:
            emission = _emission_schedule(source, ticks, bound, cap, pending, chain)
            sweep.ingest(*inflight)
            sweep.emit(emission)
        for level in plan.levels:
            sweep.serve(level)
            sweep.ship(level)
        sweep.spill()
        completions = sweep.fold_acks() if acked else ()
        sweep.commit_receipts()
        if held:
            sweep.emit_held(
                _emission_schedule(source, ticks, bound, cap, pending, chain, completions)
            )

        # Re-arm the source exactly as _arm_emit_timer would.
        if idle_from is not None:
            source._emit_timer = sim.schedule_at(
                idle_from + runtime.timing.source_idle_recheck_s, source._arm_emit_timer
            )
        else:
            source._emit_timer = sim.schedule_at(next_tick, source._emit_tick)

        self.cascades += 1
        self.swept_s += min(horizon, limit) - now0
        self.inline_events += sweep.inline
        self.rounds += sweep.rounds
        self.scan_fallbacks += sweep.fallbacks
        return None


# ------------------------------------------------------ which engine ran it
def engine_counts(runtimes) -> Counter:
    """Simulated events (``stepper``, ``kernel``) and seconds (``swept_s`` of
    ``sim_s``) per engine and declined ticks by reason over ``runtimes``: a
    picklable tally that adds up across runs."""
    counts: Counter = Counter()
    for sim in {id(runtime.sim): runtime.sim for runtime in runtimes}.values():
        counts["kernel"] += sim.processed_events  # a shared simulator once
        counts["sim_s"] += sim.now
    for runtime in runtimes:
        if runtime.batch_stepper is not None:
            counts["stepper"] += runtime.batch_stepper.inline_events
            counts["swept_s"] += runtime.batch_stepper.swept_s
            counts.update(runtime.batch_stepper.declines)
    return counts


def engine_line(counts: Counter) -> str:
    """The line a ``repro`` run prints: "engine: stepper 97 % / kernel 3 % of
    96226 events, 91 % / 9 % of 630 s: short-window 128, source-paused 257"."""
    stepper, events = counts["stepper"], counts["stepper"] + counts["kernel"]
    share = round(100.0 * stepper / events) if events else 0
    swept = round(100.0 * counts["swept_s"] / counts["sim_s"]) if counts["sim_s"] else 0
    tallies = ("stepper", "kernel", "swept_s", "sim_s")
    reasons = [f"{name} {n}" for name, n in sorted(counts.items()) if name not in tallies]
    line = (
        f"engine: stepper {share} % / kernel {100 - share} % of {events} events, "
        f"{swept} % / {100 - swept} % of {counts['sim_s']:.0f} s"
    )
    return line + (": " + ", ".join(reasons) if reasons else "")


# ------------------------------------------------------------ the sweep plan
def _structural_decline(runtime: "TopologyRuntime") -> Optional[str]:
    """Why this dataflow can never be swept, if it cannot.

    The sweep replaces per-event ``task.logic`` calls with bulk counter
    updates, which is only sound for the default 1:1 dummy logic
    (:func:`repro.dataflow.task.default_logic` itself); duplicate task-pair
    edges would interleave their per-channel jitter draws per event; and an
    executor subclass may override anything.  The emission schedule is one spout's.
    """
    if len(runtime.source_executors) != 1:
        return "multi-source"
    dataflow = runtime.dataflow
    for task in dataflow.tasks:
        if task.kind is TaskKind.PROCESS and task.logic is not default_logic:
            return "custom-logic"
        dsts = [edge.dst for edge in dataflow.out_edges(task.name)]
        if len(dsts) != len(set(dsts)):
            return "duplicate-edges"
    for executor in runtime.executors.values():
        if type(executor) not in (Executor, SinkExecutor, SourceExecutor):
            return "unmodelled-executor"
    return None


#: One task instance as the level sweep sees it.  ``edges`` are its outgoing
#: edges in outbox order -- (grouping, instances, plan index of the first
#: instance's channel, the edge's shuffle cursor) -- and ``feeds`` the plan
#: indices of the channels into it, ascending.
_Node = namedtuple("_Node", "index executor task_name sink service edges feeds")

#: The task instances of one topological depth and the channels they send on:
#: the channels' plan indices (ascending), their records, and their base
#: latencies / positions in their sender's outbox (what a delivery's event id
#: steps over) as columns.
_Level = namedtuple("_Level", "nodes ids channels bases positions")

#: Latencies a channel draws ahead for the level sweep (see
#: :meth:`_SweepPlan.latencies`): a shipping round of a short window takes a
#: slice of them instead of a keyed mix and the jitter transform of its own,
#: some fourteen numpy calls a round.  A channel that ships more than this in
#: one round draws exactly what it ships and keeps nothing.  Measured here
#: (µs a window in the lookups and refills, sliced Diamond DCR cell, best of
#: 4): 83 drawing 64 ahead, 35-38 at 256, 26-37 at 1 024, 30 at 4 096; a
#: block is 8 KiB a channel at 1 024.
_DRAWS_AHEAD = 1024


class _SweepPlan:
    """What the level sweep needs of the topology, compiled once per placement epoch.

    Task instances are numbered in sweep order (topological task order, then
    instance order) and channels in shipping order (sender in sweep order,
    then outbox edge, then destination instance).  That numbering is the tie
    order of the arrival merge into an instance (ascending channel index) and
    the order spilled events go back on the kernel heap in.  A *level* is the
    set of instances whose task sits at one depth (longest path from a
    source): everything an instance receives was shipped by a shallower level.

    The plan holds the router's own :class:`Channel` records, whose base
    latency and bound receiver are placement-derived: it is stale once
    ``Router.invalidate_caches()`` moves the router's epoch.  Only compiled
    for a dataflow :func:`_structural_decline` passed.
    """

    def __init__(self, runtime: "TopologyRuntime") -> None:
        router = runtime.router
        dataflow = runtime.dataflow
        self.epoch = router.epoch
        self.nodes: List[_Node] = []
        self.by_id: Dict[str, _Node] = {}
        self.levels: List[_Level] = []
        self.channels: List[Channel] = []
        #: Sending node of each channel.
        self.senders: List[_Node] = []
        #: ``(low, span)`` of the jitter transform, ``None`` without jitter
        #: (it is all channels or none).
        self.jitter: Optional[Tuple[float, float]] = None
        #: service time -> its sequential sums from 0.0 (see :meth:`busy_after`).
        self.busy_sums: Dict[float, np.ndarray] = {}
        #: Per channel: ``(first sequence, latencies)`` drawn ahead (see
        #: :meth:`latencies`), or None.
        self.drawn: List[Optional[Tuple[int, np.ndarray]]] = []
        depth: Dict[str, int] = {}
        by_depth: List[List[_Node]] = []
        for name in dataflow.topological_order:
            depth[name] = 1 + max((depth[e.src] for e in dataflow.in_edges(name)), default=-1)
            if depth[name] == len(by_depth):
                by_depth.append([])
            for executor_id in dataflow.task(name).instance_ids():
                executor = runtime.executors[executor_id]
                node = self.by_id[executor_id] = _Node(
                    len(self.nodes), executor, name, type(executor) is SinkExecutor,
                    executor._service_time, [], [],
                )
                self.nodes.append(node)
                by_depth[depth[name]].append(node)
        positions: List[int] = []
        for node in self.nodes:
            for grouping, num, channels, cursor in router.outbox(
                node.executor.executor_id, node.task_name
            ):
                node.edges.append((grouping, num, len(self.channels), cursor))
                for channel in channels:
                    self.by_id[channel.target_id].feeds.append(len(self.channels))
                    positions.append(len(self.channels) - node.edges[0][2])
                    self.channels.append(channel)
                    self.senders.append(node)
        for nodes in by_depth:
            ids = [first + k for node in nodes for _, num, first, _ in node.edges for k in range(num)]
            sends = [self.channels[c] for c in ids]
            self.levels.append(_Level(
                nodes, ids, sends, np.array([c.base for c in sends]),
                np.array([positions[c] for c in ids], dtype=np.uint64),
            ))
        if self.channels and self.channels[0].stream is not None:
            self.jitter = (self.channels[0].jitter_low, self.channels[0].jitter_span)
        self.drawn = [None] * len(self.channels)

    def latencies(self, ids: Sequence[int], counts: Sequence[int]) -> List[np.ndarray]:
        """The next ``counts[k]`` jittered latencies of channel ``ids[k]``,
        from its stream's counter on: ``base * (1.0 + (low + span * draw))``,
        clamped at zero, as ``Channel.stamp`` computes it per delivery.

        A latency is a function of the channel's placement and ``(seed,
        sequence)``, so a block drawn ahead stays valid for the epoch whoever
        moves the counter; a channel whose counter left its block draws anew,
        all of them in one keyed mix.  Does not move the counters.
        """
        channels = self.channels
        drawn = self.drawn
        pieces: List[Optional[np.ndarray]] = []
        refill: List[Tuple[int, int, int, int, int]] = []
        for c, count in zip(ids, counts):
            counter = channels[c].stream.counter
            block = drawn[c]
            if block is not None and 0 <= counter - block[0] <= len(block[1]) - count:
                pieces.append(block[1][counter - block[0]:counter - block[0] + count])
            else:
                refill.append((len(pieces), c, counter, max(count, _DRAWS_AHEAD), count))
                pieces.append(None)
        if refill:
            _, cs, starts, sizes, _ = zip(*refill)
            factor = keyed_value_blocks([channels[c].stream.seed for c in cs], starts, sizes)
            low, span = self.jitter
            # ``base * (1.0 + (low + span * draw))``, as Channel.stamp parenthesizes it.
            factor *= span
            factor += low
            factor += 1.0
            factor *= (
                channels[cs[0]].base if len(cs) == 1
                else np.array([channels[c].base for c in cs]).repeat(sizes)
            )
            if low <= -1.0:  # else the factor is positive: nothing to clamp
                np.maximum(factor, 0.0, out=factor)
            offset = 0
            for k, c, start, size, count in refill:
                block = factor[offset:offset + size]
                offset += size
                drawn[c] = (start, block) if size > count else None
                pieces[k] = block[:count]
        return pieces

    def busy_after(self, executor: Executor, service: float, count: int) -> float:
        """``executor.busy_time_s`` after ``count`` more services.

        The kernel adds ``service`` to it once per event, so after ``n``
        events it is the ``n``-th sequential sum from 0.0: one table per
        service time answers for every instance whose past matches it (and
        the adds are done one by one for one whose past does not).
        """
        served = executor.processed_count
        sums = self.busy_sums.get(service)
        if sums is None or len(sums) <= served + count:
            sums = self.busy_sums[service] = sequential_sums(
                0.0, service, 5 * (served + count) // 4 + 64
            )
        if sums[served] != executor.busy_time_s:
            sums = sequential_sums(executor.busy_time_s, service, count)
            served = 0
        return float(sums[served + count])


# ------------------------------------------------- phases before the sweep
def _adoptable(event: Event, acked: bool) -> bool:
    """Whether the sweep models an in-flight event: plain data of a live tree."""
    return event.kind is _DATA_KIND and event.anchored is acked and not event.replay_count


def _receiver(deliver: Any, runtime: "TopologyRuntime") -> Optional[Executor]:
    """The live, non-source executor of ``runtime`` a delivery callback is bound to
    (``None``: the by-id fallback of a missing target, one a rescale retired)."""
    if getattr(deliver, "__func__", None) in _DELIVERIES:
        target = deliver.__self__
        if runtime.executors.get(target.executor_id) is target and type(target) is not SourceExecutor:
            return target
    return None


def _scan_inflight(runtime: "TopologyRuntime", acked: bool):
    """Classify the pending kernel work the sweep would have to adopt (pure).

    The kernel heap may hold pending data work.  Returns ``(deliveries,
    busy)`` -- ``(time, target, event, sender id)`` per pending delivery and
    ``executor -> (completion time, event)`` per service in progress -- or the
    decline reason on anything the sweep does not model (control handling,
    capture drains, state-store latencies, replayed events).  Every entry is
    this runtime's: a shared simulator declined before the scan.
    """
    deliveries: List[Tuple[float, Executor, Event, str]] = []
    busy: Dict[Executor, Tuple[float, Event]] = {}
    entries = runtime.sim.fast_entries()
    if not entries:
        return deliveries, busy
    for entry in entries:
        cb = entry[2]
        func = getattr(cb, "__func__", None)
        if func is _COMPLETE_DATA:
            executor = cb.__self__
            event = entry[3][0]
            if not _adoptable(event, acked) or not executor._busy or executor in busy:
                return "inflight-unmodelled"
            busy[executor] = (entry[0], event)
        elif func in _DELIVERIES:
            target = _receiver(cb, runtime)
            event, sender_id = entry[3]
            if target is None or not _adoptable(event, acked):
                return "inflight-unmodelled"
            deliveries.append((entry[0], target, event, sender_id))
        else:
            return "inflight-unmodelled"
    for executor in runtime.executors.values():
        if executor in busy:
            # _adoptable, inlined: a first hop can hold a hundred queued events.
            if not all(
                event.kind is _DATA_KIND and event.anchored is acked and not event.replay_count
                for event, _sender in executor.input_queue
            ):
                return "inflight-unmodelled"
        elif executor._busy or executor.input_queue:
            return "inflight-unmodelled"  # busy/queued without a modelled completion
    return deliveries, busy


def _first_hop_slack(plan: _SweepPlan, source: _Node, busy: Dict[Executor, tuple]) -> Optional[float]:
    """Until when no root emitted from now on can start service: the earliest
    time an instance the source sends to gets through the work it holds (the
    service in progress, then its queue, by the kernel's own adds).  ``None``
    when one of them holds fewer than :data:`_MIN_WINDOW_ROOTS` services or
    hears from anyone but the source, whose arrivals a root could overtake.
    """
    slack = math.inf
    for _grouping, num, first, _cursor in source.edges:
        for channel in plan.channels[first:first + num]:
            node = plan.by_id[channel.target_id]
            queued = len(node.executor.input_queue)
            if (
                node.executor not in busy
                or queued + 1 < _MIN_WINDOW_ROOTS
                or any(plan.senders[c] is not source for c in node.feeds)
            ):
                return None
            ends = sequential_sums(busy[node.executor][0], node.service, queued)
            slack = min(slack, float(ends[-1]))
    return slack


def _bound(horizon: float, limit: float) -> float:
    """Inline iff time < horizon and time <= limit: one exclusive bound."""
    return horizon if horizon <= limit else math.nextafter(limit, math.inf)


def _generator_ticks(
    source: SourceExecutor, now0: float, limit: float, hor: float,
    headroom: Optional[int], ceiling: float,
) -> Tuple[np.ndarray, Optional[float], Optional[float], float]:
    """The stretch's generator ticks: ``(ticks, next_tick, idle_from, horizon)``.

    At most ``headroom`` of them, at rates below ``ceiling``: a stretch one of
    the two ends before ``hor`` has its horizon pulled in to the tick held
    back, which must find the executors as the classic kernel would have them
    then.  ``idle_from`` is the tick a profile went idle at (the source then
    re-arms by idle recheck, not at ``next_tick``).
    """
    idle_from: Optional[float] = None
    next_tick: Optional[float] = None
    capped = False
    profile = source.profile
    if profile is None and source.rate > 0:
        ticks, next_tick, capped = fixed_rate_ticks(now0, 1.0 / source.rate, limit, hor, headroom)
    else:
        # Profile-driven sources re-evaluate the rate at every tick: the
        # exact scalar recurrence of ``_arm_emit_timer``.
        tick_times: List[float] = []
        tick = now0
        while True:
            rate = float(profile.rate_at(tick)) if profile is not None else source.rate
            if rate >= ceiling and tick_times:
                capped = True
                break
            tick_times.append(tick)
            if rate <= 0:
                idle_from = tick
                break
            source.rate = rate
            next_tick = tick + 1.0 / rate
            if next_tick > limit or next_tick >= hor:
                break
            if headroom is not None and len(tick_times) >= headroom:
                capped = True
                break
            tick = next_tick
        ticks = np.array(tick_times)
    return ticks, next_tick, idle_from, next_tick if capped else hor


#: No completions, roots or ids: what an instance that completed nothing ships.
_NOTHING = (np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint64))

#: What a window emits: the emission times, which of them left the backlog
#: (``False``: none) and the payloads already built, by root index (the
#: others are ``_payload(first_sequence + index)``).
_Emission = namedtuple("_Emission", "ticks backlogged payloads first_sequence")
_NO_EMISSION = _Emission(np.empty(0), False, {}, 0)


def _emission_schedule(
    source: SourceExecutor, ticks: np.ndarray, bound: float, cap: Optional[int], pending: int,
    chain: Optional[Tuple[float, float, bool]], completions: Sequence[float] = (),
) -> _Emission:
    """What the spout emits before ``bound``, given its generator ``ticks``;
    the source is left as the window's end finds it (sequence, backlog, drain
    chain -- the caller re-arms the emit timer).

    *Not draining* (no backlog, no drain chain): every tick emits.  The
    caller let the cap through pessimistically but exactly: pending can only
    shrink as trees complete mid-stretch, so a stretch of at most ``cap -
    pending`` ticks never reaches one the classic path would have throttled.

    *Draining*: the ticks, the drain chain's polls and the trees completing at
    ``completions`` (sorted; the caller swept them first, see
    :func:`_first_hop_slack`) are merged in time order, a tie in the order the
    kernel runs it -- the tick, armed a whole period ago, then the poll, then
    the completion.  A tick joins the backlog (starting a chain one period on
    if there is none), or emits if nothing holds it; a poll emits one backlog
    entry, or parks the chain while the cap holds, or ends a chain with
    nothing left; a completion re-arms a parked chain at its first grid point
    at or after it, the grid advanced by the sequential adds ``_wake_drain``
    and ``PeriodicTimer`` perform.  An uncapped spout whose chain has ended
    emits every remaining tick, as arrays again.
    """
    backlog = source._backlog
    first = source._sequence + 1 - len(backlog)
    if chain is None and not backlog:
        source._sequence += len(ticks)
        return _Emission(ticks, False, {}, first)
    fresh = 1.0 / max(source.rate, source.runtime.timing.source_max_burst_rate)
    poll, period, parked = chain or (None, fresh, False)
    emitted: List[float] = []
    payloads: Dict[int, Any] = {}
    gen = ticks.tolist()
    g = c = parks = wakes = 0
    n_gen, n_done = len(gen), len(completions)
    sequence, payload = source._sequence, source._payload
    inf = math.inf
    while True:
        tick = gen[g] if g < n_gen else inf
        done = completions[c] if c < n_done else inf
        due = poll if poll is not None and not parked and poll < bound else inf
        if tick <= due and tick <= done:
            if tick == inf or (poll is None and cap is None and not backlog):
                break
            g += 1
            sequence += 1
            if backlog or (cap is not None and pending >= cap):
                backlog.append(payload(sequence))
                if poll is None:
                    poll, period, parked = tick + fresh, fresh, False
            else:
                emitted.append(tick)
                pending += 1
        elif due <= done:
            poll = due + period
            if cap is not None and pending >= cap:
                parked = True
                parks += 1
            elif backlog:
                payloads[len(emitted)] = backlog.popleft()
                emitted.append(due)
                pending += 1
            else:
                poll = None
        else:
            c += 1
            pending -= 1
            if parked:
                while poll < done:
                    poll += period
                parked = False
                wakes += 1
    source._sequence = sequence + n_gen - g
    source.resume_drain(None if poll is None else (poll, period, parked), parks, wakes)
    backlogged = np.zeros(len(emitted) + len(gen) - g, dtype=bool)
    backlogged[list(payloads)] = True
    return _Emission(np.concatenate([emitted, ticks[g:]]), backlogged, payloads, first)


# ----------------------------------------------------------------- the sweep
class _Adopted:
    """The in-flight work one instance brings into the sweep, arrival side,
    on consecutive root indices: the ``seeded`` events that were in service
    or queued at entry first (merge key ``-inf``, so they sort first and stay
    in order; they complete at ``pinned``: the scheduled completion, then back
    to back), then the adopted deliveries (key: the delivery time).
    ``piece`` is the work as the arrival merge takes a channel's segment:
    ``(keys, root indices, None, ids)``.
    """

    __slots__ = ("piece", "seeded", "pinned")

    def __init__(self, seeded: int, pinned: List[float]) -> None:
        self.piece: tuple = ()
        self.seeded = seeded
        self.pinned = pinned


class _Sweep:
    """The state the phases of one cascade share.

    Sweep root indices ``0 .. base-1`` are the adopted in-flight events, in
    the order :meth:`ingest` took them over (``adopted[r]``: the event, which
    descends from an earlier root, and its sender); ``base ..`` are the roots
    the window emits (:meth:`emit`: id ``rids[r]``, emitted at ``emitted[r]``,
    payload generated on demand from the sequence number).  An entry is swept
    iff its time is below ``bound``; the rest is handed back by :meth:`spill`.

    Every entry carries its event's id beside its root index (a ``uint64``
    column, stepped per channel by :meth:`_ship_block`).  Under acking, the
    ids of events wholly inside the sweep never reach the acker -- their
    anchor/ack XOR contributions cancel by construction, so only per-root-index
    *counts* are kept (``anchors`` / ``acks``), and trees that live and die
    inside the sweep never materialize a ``PendingTree``.  Ids are folded
    exactly where the classic path would leave them observable: every event
    that leaves the sweep folds its id into ``residue`` (a new root's becomes
    the registered tree's hash, an adopted one's anchors in its tree), and an
    adopted event that completes in the sweep acks its own id.
    :meth:`fold_acks` commits it all through the acker's bulk APIs.
    """

    def __init__(
        self, runtime: "TopologyRuntime", plan: _SweepPlan, source: SourceExecutor,
        bound: float, acked: bool,
    ) -> None:
        self.runtime = runtime
        self.plan = plan
        self.source = source
        self.acked = acked
        self.bound = bound
        #: ``(event, sender id)`` per adopted event.
        self.adopted: List[Tuple[Event, str]] = []
        #: node index -> the in-flight work it brought.
        self.arrived: Dict[int, _Adopted] = {}
        #: The first emitted root's index, and what the window emits.
        self.base = 0
        self.emission = _NO_EMISSION
        self.rids = _NOTHING[1]
        self.emitted = _NOTHING[0]
        self.field_cache: Dict[int, np.ndarray] = {}
        #: Per plan channel: the in-bound ``(deliveries, roots, parent
        #: completion times, ids)`` it shipped, or None.
        self.segments: List[Optional[tuple]] = [None] * len(plan.channels)
        #: node index -> the in-bound ``(completions, roots, ids)`` it sends
        #: on; a root event's id is its root's.
        self.outputs: Dict[int, tuple] = {}
        #: Work crossing the bound: ``(node index, channel index or the
        #: channel count for a queue, ...)``, materialized by :meth:`spill`.
        self.spills: List[tuple] = []
        self.receipts: List[Tuple[np.ndarray, np.ndarray, np.ndarray, SinkExecutor]] = []
        #: Per root index: symbolic anchor and ack counts, the XOR of the ids
        #: and the count of the events that left the sweep (acked runs only).
        self.anchors = self.acks = self.residue = self.spilled = None
        #: ``(completions, roots, in-bound spans)`` per service round, the
        #: acks' times -- kept only for a window whose emissions follow from
        #: them (holding a round's arrays costs the next round its warm pages).
        self.ack_spans: Optional[List[tuple]] = None
        #: Root indices of the adopted events a queue spill handed back.
        self.respilled: Set[int] = set()
        #: The adopted events' ids, by root index.
        self.adopted_ids = _NOTHING[2]
        #: Root indices and ids of the events that left the sweep since the
        #: last :meth:`_fold_left`, and the roots of those never anchored.
        self.left_roots: List[int] = []
        self.left_ids: List[int] = []
        self.left_anchored: List[int] = []
        #: ``rids`` / ``emitted`` as lists, for the events that leave the sweep.
        self.columns: Optional[Tuple[list, list]] = None
        self.inline = 0
        self.rounds = self.fallbacks = 0

    def payload_of(self, r: int) -> Any:
        """Root ``r``'s payload, built once and only when something reads it
        (a spilled event, an unresolved tree's replay cache, FIELDS
        grouping): a loss-free stretch resolves most roots unread."""
        if r < self.base:
            return self.adopted[r][0].payload
        r -= self.base
        payloads = self.emission.payloads
        payload = payloads.get(r)
        if payload is None:
            payload = payloads[r] = self.source._payload(self.emission.first_sequence + r)
        return payload

    def field_indices(self, num: int) -> np.ndarray:
        """FIELDS target instance of every sweep root, for ``num`` instances."""
        cached = self.field_cache.get(num)
        if cached is None:
            count = len(self.rids)
            cached = self.field_cache[num] = np.fromiter(
                (stable_field_index(field_key_of(self.payload_of(r)), num) for r in range(count)),
                dtype=np.intp,
                count=count,
            )
        return cached

    # ------------------------------------------------------------- ingestion
    def ingest(self, deliveries: List[tuple], busy: Dict[Executor, tuple]) -> None:
        """Commit the in-flight scan: the sweep now owns all pending data work.

        Pending deliveries inside the bound join their target's arrival merge
        (their jitter was drawn -- and the channel FIFO state advanced -- when
        they were routed); the rest go straight back on the kernel heap
        unchanged.  Each busy executor is seeded with its fixed in-service
        completion time plus its queued arrivals, in order.  This fixes the
        adopted root indices ``0 .. base-1``.
        """
        adopted = self.adopted
        keys: List[float] = []
        if deliveries or busy:
            sim = self.runtime.sim
            by_id = self.plan.by_id
            bound = self.bound
            sim.remove_fast_entries()
            arriving: Dict[int, List[tuple]] = {}
            for when, target, event, sender_id in deliveries:
                if when < bound:
                    arriving.setdefault(by_id[target.executor_id].index, []).append(
                        (when, event, sender_id)
                    )
                else:
                    sim.schedule_at_fast(when, target.deliver, (event, sender_id))
            seeding: Dict[int, tuple] = {}
            for executor, (when, event) in busy.items():
                node = by_id[executor.executor_id]
                queue = executor.input_queue
                count = 1 + len(queue)
                if count > _MIN_WINDOW_ROOTS:
                    # A long queue is served back to back: what is behind the
                    # first service to cross the bound stays where it is (the
                    # spill queues whatever arrives behind it).
                    pinned = sequential_sums(when, node.service, count - 1)
                    count = min(count, 1 + int(pinned.searchsorted(bound)))
                    pinned = pinned[:count]
                else:
                    pinned = [when]
                    for _ in range(count - 1):
                        pinned.append(pinned[-1] + node.service)
                seeded = [(event, "")] + [queue.popleft() for _ in range(count - 1)]
                seeding[node.index] = (pinned, seeded)
                executor._busy = False  # re-established by the spill if needed
            # Each instance's work gets consecutive root indices, seeded first.
            for index in {**arriving, **seeding}:
                pinned, seeded = seeding.get(index, ([], ()))
                self.arrived[index] = work = _Adopted(len(seeded), pinned)
                lo = len(adopted)
                adopted.extend(seeded)
                keys.extend([-math.inf] * len(seeded))
                for when, event, sender_id in arriving.get(index, ()):
                    adopted.append((event, sender_id))
                    keys.append(when)
                work.piece = (lo, len(adopted))
        self.base = n = len(adopted)
        if self.acked:
            self.anchors = np.zeros(n, dtype=np.int64)
            self.acks = np.zeros(n, dtype=np.int64)
            self.residue = np.zeros(n, dtype=np.uint64)
            self.spilled = np.zeros(n, dtype=np.int64)
        if not n:
            return
        self.inline += n - sum(work.seeded for work in self.arrived.values())
        events = list(map(itemgetter(0), adopted))
        self.rids = np.fromiter(map(_ROOT_ID, events), np.int64, n)
        self.emitted = np.fromiter(map(_EMITTED_AT, events), np.float64, n)
        arrivals = np.array(keys, dtype=np.float64)
        # Ids are 63-bit: the int64 conversion is the cheap one.
        self.adopted_ids = ids = np.fromiter(map(_EVENT_ID, events), np.int64, n).view(np.uint64)
        roots = np.arange(n)
        for work in self.arrived.values():
            lo, hi = work.piece
            work.piece = (arrivals[lo:hi], roots[lo:hi], None, ids[lo:hi])

    def emit(self, emission: _Emission) -> None:
        """Append what the window emits to the root indices (``base ..``): the
        roots' ids, their log rows and their counters, and the spout's output."""
        source = self.source
        ticks = emission.ticks
        n = len(ticks)
        self.emission = emission
        self.inline += n
        if not n:
            return
        first = source.emitted_count
        root_ids = root_event_id(source.id_key, np.arange(first, first + n, dtype=np.uint64))
        rids = root_ids.view(np.int64)
        # Bulk append (record_source_emit with replay_count=0, at_time=tick).
        self.runtime.log.extend_emits(ticks, rids, source.task.name, from_backlog=emission.backlogged)
        source.emitted_count = first + n
        base = self.base
        self.outputs[self.plan.by_id[source.executor_id].index] = (
            ticks, np.arange(base, base + n), root_ids
        )
        if base:
            self.rids = np.concatenate([self.rids, rids])
            self.emitted = np.concatenate([self.emitted, ticks])
        else:
            self.rids, self.emitted = rids, ticks
        self.columns = None
        if self.acked:
            self.anchors, self.acks, self.residue, self.spilled = (
                np.concatenate([counts, np.zeros(n, dtype=counts.dtype)]) if base
                else np.zeros(n, dtype=counts.dtype)
                for counts in (self.anchors, self.acks, self.residue, self.spilled)
            )
        self.field_cache.clear()
    # --------------------------------------------------------- service rounds
    def serve(self, level: _Level) -> None:
        """Run the service queues of one level, whole instances to a block."""
        segments = self.segments
        arrived = self.arrived
        block: List[tuple] = []
        size = 0
        for node in level.nodes:
            work = arrived.get(node.index)
            feeds = [c for c in node.feeds if segments[c] is not None]
            total = sum([len(segments[c][0]) for c in feeds], len(work.piece[0]) if work else 0)
            if not total:
                continue
            if block and size + total > _BLOCK_ENTRIES:
                self._serve_block(block)
                block, size = [], 0
            block.append((node, work, feeds, total))
            size += total
        if block:
            self._serve_block(block)

    def _serve_block(self, block: List[tuple]) -> None:
        """One array round over the arrival merges and Lindley queues of ``block``.

        The arrivals of every instance are laid end to end (adopted work
        first, then the feeding channels in plan order), each instance's
        merged by a stable sort on arrival time -- so ties keep that order --
        and all served by one segmented max-plus scan over ``arrival +
        service``.  Seeded work is pinned first: the event in service
        completes at its already scheduled time and the queued ones drain back
        to back after it (``tc = t + service`` chains, the exact classic
        recurrence), which is also what the first new arrival waits for.
        """
        self.rounds += 1
        segments = self.segments
        parts: List[tuple] = []
        pieces: List[Any] = []  # what each part is: adopted work, or the channel
        offsets: List[int] = []
        counts: List[int] = []
        pins: List[Tuple[int, List[float]]] = []
        unmerged: List[Tuple[int, int]] = []
        offset = 0
        for node, work, feeds, total in block:
            lo = offset
            loose = len(feeds)
            if work is not None:
                if work.seeded:
                    pins.append((offset, work.pinned))
                loose += len(work.piece[0]) - work.seeded  # adopted deliveries, unsorted
                parts.append(work.piece)
                pieces.append(work)
                offsets.append(offset)
                offset += len(work.piece[0])
            for c in feeds:
                parts.append(segments[c])
                pieces.append(c)
                offsets.append(offset)
                offset += len(segments[c][0])
            counts.append(total)
            if loose > 1:
                unmerged.append((lo, offset))
        if len(parts) > 1:
            arrivals = np.concatenate([part[0] for part in parts])
            rts = np.concatenate([part[1] for part in parts])
            eids = np.concatenate([part[3] for part in parts])
        else:
            arrivals, rts, _, eids = parts[0]
        order = None
        if unmerged:
            # Each piece is sorted already, which a stable sort merges cheaply.
            order = np.arange(offset)
            for lo, hi in unmerged:
                merged = arrivals[lo:hi].argsort(kind="stable")
                merged += lo
                order[lo:hi] = merged
            arrivals = arrivals[order]
            rts = rts[order]
            eids = eids[order]
        services = [node.service for node, _, _, _ in block]
        step = services[0]
        if services.count(step) < len(services):
            step = np.array(services).repeat(counts)
        values = arrivals + step
        for lo, pinned in pins:
            values[lo:lo + len(pinned)] = pinned
        completions, fell_back = maxplus_scan(values, step, counts)
        self.fallbacks += fell_back

        lookup = (order, offsets, pieces)
        bound = self.bound
        done: List[Tuple[int, int]] = []
        hi = 0
        for node, _work, _feeds, total in block:
            lo, hi = hi, hi + total
            end = hi
            if not completions[hi - 1] < bound:
                end = lo + int(completions[lo:hi].searchsorted(bound))
                # The service at ``end`` crosses the bound (see _spill_queue).
                self.spills.append(
                    (node.index, len(segments), node, end, hi, completions, rts, eids, lookup)
                )
            if end > lo:
                executor = node.executor
                if node.sink:
                    executor.received_count += end - lo
                    self.receipts.append((completions[lo:end], rts[lo:end], eids[lo:end], executor))
                else:
                    self.outputs[node.index] = (completions[lo:end], rts[lo:end], eids[lo:end])
                    state = executor.state
                    state["processed"] = state.get("processed", 0) + end - lo
                    executor.busy_time_s = self.plan.busy_after(executor, node.service, end - lo)
                executor.processed_count += end - lo
                self.inline += end - lo
                done.append((lo, end))
        if self.acked:
            # Every in-sweep completion acks its event (the classic path acks
            # at both process and sink completions): symbolically -- the
            # count cancels the ship-time anchor.
            self._count(self.acks, rts, done)
            if self.ack_spans is not None:
                self.ack_spans.append((completions, rts, done))

    @staticmethod
    def _count(counters: np.ndarray, rts: np.ndarray, spans: List[Tuple[int, int]]) -> None:
        """``counters[r] += 1`` for every root entry of ``rts`` inside ``spans``."""
        if sum(end - lo for lo, end in spans) != len(rts):
            rts = np.concatenate([rts[lo:end] for lo, end in spans]) if spans else rts[:0]
        counters += np.bincount(rts, minlength=len(counters))

    # -------------------------------------------------------- shipping rounds
    def ship(self, level: _Level) -> None:
        """Route what one level completed (the array form of the target
        selection of ``Router.route_one`` / ``fan_out``), whole channels to a
        block."""
        outputs = self.outputs
        if not level.ids or not any(node.index in outputs for node in level.nodes):
            return
        parents, roots, ids = [], [], []
        nothing = _NOTHING
        for node in level.nodes:
            completions, rts, eids = outputs.get(node.index, nothing)
            for grouping, num, _first, cursor in node.edges:
                if num == 1:
                    parents.append(completions)
                    roots.append(rts)
                    ids.append(eids)
                elif grouping is Grouping.FIELDS:
                    targets = self.field_indices(num)[rts]
                    for k in range(num):
                        mask = targets == k
                        parents.append(completions[mask])
                        roots.append(rts[mask])
                        ids.append(eids[mask])
                else:  # shuffle round-robin per (sender executor, dst task)
                    start = cursor[0]
                    cursor[0] = start + len(rts)
                    # Event i goes to instance (start + i) % num, so instance
                    # k's events are the strided slice starting at
                    # (k - start) % num -- views, no masks, no copies.
                    for k in range(num):
                        parents.append(completions[(k - start) % num::num])
                        roots.append(rts[(k - start) % num::num])
                        ids.append(eids[(k - start) % num::num])
        counts = [len(piece) for piece in parents]
        i = 0
        while i < len(counts):
            j, size = i + 1, counts[i]
            while j < len(counts) and size + counts[j] <= _BLOCK_ENTRIES:
                size += counts[j]
                j += 1
            if size:
                self._ship_block(level, i, j, parents[i:j], roots[i:j], ids[i:j], counts[i:j])
            i = j

    def _ship_block(self, level: _Level, i: int, j: int, parents, roots, ids, counts) -> None:
        """One array round over channels ``i .. j-1`` of ``level`` (the array
        form of ``Channel.stamp`` and of the router's id step): keyed jitter,
        latency, FIFO bump, delivery ids, bound split."""
        self.rounds += 1
        channels = level.channels[i:j]
        # Per entry: its parent's time and id, the channel's base latency and
        # outbox position (what the delivery's event id steps over).
        if j - i == 1:
            parent_times, sent_ids, positions = parents[0], ids[0], level.positions[i:j]
        else:
            parent_times = np.concatenate(parents)
            sent_ids = np.concatenate(ids)
            positions = level.positions[i:j].repeat(counts)
        jitter = self.plan.jitter
        if jitter is None:
            latency = level.bases[i] if j - i == 1 else level.bases[i:j].repeat(counts)
        else:
            drawn = self.plan.latencies(
                [c for c, n in zip(level.ids[i:j], counts) if n], [n for n in counts if n]
            )
            latency = drawn[0] if len(drawn) == 1 else np.concatenate(drawn)
        # Per-channel FIFO: d[i] = max(raw[i], d[i-1] + spacing).
        deliveries, fell_back = maxplus_scan(
            parent_times + latency, FIFO_SPACING_S, counts, [channel.last for channel in channels]
        )
        self.fallbacks += fell_back
        self.runtime.router.routed_count += len(deliveries)
        eids = child_event_id(sent_ids, positions)

        bound = self.bound
        segments = self.segments
        shipped: List[Tuple[int, int]] = []
        hi = inline = 0
        for c, channel, n, sent, sent_roots in zip(level.ids[i:j], channels, counts, parents, roots):
            if not n:
                continue
            lo, hi = hi, hi + n
            if jitter is not None:
                channel.stream.counter += n
            channel.last = tail = float(deliveries[hi - 1])
            # The views handed on are the sender's own, not the block's copies.
            if tail < bound:
                segments[c] = (deliveries[lo:hi], sent_roots, sent, eids[lo:hi])
                inline += n
                shipped.append((lo, hi))
                continue
            cut = int(deliveries[lo:hi].searchsorted(bound))
            # Beyond the bound: classic deliveries (see _spill_shipped).
            self.spills.append(
                (self.plan.senders[c].index, c, deliveries[lo + cut:hi], sent_roots[cut:],
                 sent[cut:], eids[lo + cut:hi])
            )
            if cut:
                segments[c] = (
                    deliveries[lo:lo + cut], sent_roots[:cut], sent[:cut], eids[lo:lo + cut]
                )
                inline += cut
                shipped.append((lo, lo + cut))
        self.inline += inline
        if self.acked:
            # Symbolic anchors: each in-bound shipped event will also be acked
            # (in-sweep or converted on spill), so no id is drawn here — only
            # the per-root count advances.
            self._count(self.anchors, roots[0] if j - i == 1 else np.concatenate(roots), shipped)

    # ----------------------------------------------------------------- spills
    def spill(self) -> None:
        """Hand the work that crossed the bound back to the kernel, in classic form.

        Runs after the level sweep, instance by instance in plan order -- an
        instance's shipped events in channel order, then its queue -- so the
        spilled events go on the kernel heap in one fixed order.
        """
        spills, self.spills = self.spills, []
        spills.sort(key=itemgetter(0, 1))
        for _node_index, c, *work in spills:
            if c < len(self.segments):
                self._spill_shipped(c, *work)
            else:
                self._spill_queue(*work)

    def _new_event(
        self, r: int, task_name: str, created_at: float, anchor: int, event_id: int
    ) -> Event:
        """Materialize a sweep-born event that leaves the sweep, as ``event_id``.

        Under acking its id joins its root's ``residue`` (booked now, folded
        by :meth:`_fold_left`), and ``anchor`` is what it adds to the root's
        symbolic anchor count (a shipped spill was never counted: 1; a queued
        one was counted at ship time: 0).
        """
        if self.acked:
            self.left_roots.append(r)
            self.left_ids.append(event_id)
            if anchor:
                self.left_anchored.append(r)
        columns = self.columns
        if columns is None:
            columns = self.columns = (self.rids.tolist(), self.emitted.tolist())
        return Event(
            event_id, columns[0][r], _DATA_KIND, task_name, self.payload_of(r), created_at,
            columns[1][r], None, None, 0, self.acked,
        )

    def _fold_left(self) -> None:
        """Fold the ids and counts of the events that left the sweep into
        their roots' ``residue`` / ``spilled`` / ``anchors``."""
        if not self.left_roots:
            return
        rs = np.array(self.left_roots, dtype=np.intp)
        ids = np.array(self.left_ids, dtype=np.int64).view(np.uint64)
        np.bitwise_xor.at(self.residue, rs, ids)
        size = len(self.spilled)
        self.spilled += np.bincount(rs, minlength=size)
        if self.left_anchored:
            self.anchors += np.bincount(self.left_anchored, minlength=size)
        self.left_roots, self.left_ids, self.left_anchored = [], [], []

    def _spill_shipped(self, c: int, deliveries, roots, parent_times, ids) -> None:
        channel = self.plan.channels[c]
        task_name = self.plan.senders[c].task_name
        push_fast = self.runtime.sim.push_fast  # at or past the bound, hence not in the past
        deliver, sender_id = channel.deliver, channel.sender_id
        for when, r, created_at, event_id in zip(
            deliveries.tolist(), roots.tolist(), parent_times.tolist(), ids.tolist()
        ):
            event = self._new_event(r, task_name, created_at, 1, event_id)
            push_fast(when, deliver, (event, sender_id))

    def _spill_queue(
        self, node: _Node, first: int, end: int, completions, rts, ids, lookup
    ) -> None:
        """Leave ``node`` busy with the service that crosses the bound on the
        kernel heap and the later arrivals queued, exactly as the classic
        kernel would have them at this point.  Adopted positions still hold
        their Event objects; sweep-born arrivals are materialized from the
        sweep arrays."""
        order, offsets, pieces = lookup
        entries = []
        for position in range(first, end):
            # Back through the merge to the piece the entry arrived in.
            merged = position if order is None else int(order[position])
            piece = bisect_right(offsets, merged) - 1
            origin = pieces[piece]
            r = int(rts[position])
            if type(origin) is _Adopted:
                entries.append(self.adopted[r])
                self.respilled.add(r)
            else:
                created_at = float(self.segments[origin][2][merged - offsets[piece]])
                event = self._new_event(
                    r, self.plan.senders[origin].task_name, created_at, 0, int(ids[position])
                )
                entries.append((event, self.plan.channels[origin].sender_id))
        executor = node.executor
        executor._busy = True
        self.runtime.sim.schedule_at_fast(
            float(completions[first]), executor._complete_data, (entries[0][0],)
        )
        executor.input_queue.extend(entries[1:])

    # ------------------------------------------------------------ the commits
    def fold_acks(self) -> List[float]:
        """Commit the ack stream: the emitted roots' trees (:meth:`_register`),
        then the adopted events' trees, each settled once with the net of the
        window.  Where the acks' times were kept, returns when each adopted
        tree that completed did (the last of its acks, as the per-event path
        acks one by one), in order."""
        self._fold_left()
        self._register()
        base = self.base
        if not base:
            return []
        # Per adopted index: the ids that left the sweep and, for an event
        # that completed in it (all but the ones a queue spill handed back),
        # its own id, acked; then per tree, XOR-folded and counted at once.
        folds = self.adopted_ids.copy()
        if self.respilled:
            folds[list(self.respilled)] = 0
        folds ^= self.residue[:base]
        trees = self.rids[:base]
        order = trees.argsort(kind="stable")
        trees = trees[order]
        heads = np.empty(base, dtype=bool)
        heads[0] = True
        np.not_equal(trees[1:], trees[:-1], out=heads[1:])
        starts = heads.nonzero()[0]
        completed = self.runtime.acker.settle_trees(
            trees[starts].tolist(),
            np.bitwise_xor.reduceat(folds[order], starts).tolist(),
            np.add.reduceat(self.anchors[order], starts).tolist(),
            np.add.reduceat(self.acks[order], starts).tolist(),
        )
        if self.ack_spans is None or not completed:
            return []
        # The last ack of each tree: the latest in-sweep completion of its events.
        tree_of = np.empty(base, dtype=np.intp)
        tree_of[order] = heads.cumsum() - 1
        times = np.concatenate([times[lo:end] for times, _, spans in self.ack_spans for lo, end in spans])
        owners = tree_of[np.concatenate([rts[lo:end] for _, rts, spans in self.ack_spans for lo, end in spans])]
        last = np.full(len(starts), -math.inf)
        np.maximum.at(last, owners, times)
        return sorted(last[completed].tolist())

    def _register(self) -> None:
        """Commit the emitted roots' trees: one that was anchored and acked
        whole inside the sweep resolved to zero by construction -- stats only,
        no PendingTree, no timer; the rest materialize with their exact classic
        end-of-stretch state (hash = XOR of the ids still outstanding) and
        back-dated timeout timers, and their payloads join the replay cache."""
        base = self.base
        if len(self.rids) == base:
            return
        acker = self.runtime.acker
        anchors = self.anchors[base:]
        acks = self.acks[base:]
        resolved = (self.spilled[base:] == 0) & (anchors > 0)
        acker.absorb_resolved(
            int(np.count_nonzero(resolved)), int(anchors[resolved].sum()), int(acks[resolved].sum())
        )
        unresolved = (~resolved).nonzero()[0]
        if unresolved.size:
            roots = self.rids[base:][unresolved].tolist()
            acker.register_block(
                roots,
                self.emitted[base:][unresolved].tolist(),
                self.residue[base:][unresolved].tolist(),
                anchors[unresolved].tolist(),
                acks[unresolved].tolist(),
            )
            self.source.cache_block(roots, [self.payload_of(base + r) for r in unresolved.tolist()])

    def emit_held(self, emission: _Emission) -> None:
        """Emit what a backlogged spout at its cap sent during the window, now
        that the window's completions are known, through the sweep's own
        first hop: :meth:`emit`, the spout level's shipping round (keyed
        jitter, FIFO, shuffle cursor, ids), :meth:`spill` and :meth:`_register`
        for the trees.  The first hop is busy past the bound
        (:func:`_first_hop_slack`), so every delivery leaves the sweep as the
        kernel's, as the per-event path sends it: one before the bound joins
        that queue's tail when the kernel gets to it, a later one is in flight.
        """
        self.emit(emission)
        self.bound = self.runtime.sim.now  # nothing the spout sends is served in the window
        self.ship(self.plan.levels[0])
        self.spill()
        self._fold_left()
        self._register()

    def commit_receipts(self) -> None:
        """Merge the sinks' receipts into the log in global time order: one
        fancy-index per root column, no per-event object."""
        receipts = self.receipts
        if not receipts:
            return
        times, roots, ids, sink = receipts[0]
        names: Any = sink.task.name
        which = None
        if len(receipts) > 1:
            times = np.concatenate([rec[0] for rec in receipts])
            roots = np.concatenate([rec[1] for rec in receipts])
            ids = np.concatenate([rec[2] for rec in receipts])
            order = times.argsort(kind="stable")
            times, roots, ids = times[order], roots[order], ids[order]
            if any(rec[3] is not sink for rec in receipts):
                which = np.arange(len(receipts)).repeat([len(rec[0]) for rec in receipts])[order]
                names = [rec[3].task.name for rec in receipts]
        self.runtime.log.extend_receipts(
            times,
            self.rids[roots],
            ids.view(np.int64),
            names,
            self.emitted[roots],
            sink_indices=which,
        )
