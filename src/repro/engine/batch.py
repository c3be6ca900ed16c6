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
per-event path, so times stay bit-identical and only the order event ids are
drawn in differs.  Work already in flight (pending deliveries, services in
progress, queued arrivals) is *adopted* into the sweep, which is what lets it
re-engage every window.  Entries that land at or past the horizon are
*spilled* back onto the real kernel heap in classic form
(``Executor.deliver`` / ``Executor._complete_data``), and executor state is
left exactly as the classic kernel would have it at the horizon, so
processing continues seamlessly -- a monitor sampling at the horizon observes
identical ``processed_count`` / ``busy_time_s`` / log contents.  See
:class:`_Sweep`.

Correctness rests on the keyed per-channel jitter streams: each channel
consumes its own sequence, a draw is a function of ``(seed, channel,
sequence)``, so the sweep draws the exact values the per-event kernel would
however the channels interleave.  The equivalence tests in
``tests/test_batch_equivalence.py`` pin both the logged streams and the
executor counters against the per-event kernel
(``RuntimeConfig.batch_stepping = False``), modulo event ids.

Batch stepping stays engaged when data acking is on: the sweep replays the
acker XOR stream symbolically.  A loss-free stretch anchors and acks every
event of a tuple tree inside one sweep, so the folds cancel by construction
and only events that cross the horizon fold real ids into the bulk acker APIs
(``register_block`` / ``anchor_batch`` / ``ack_batch`` / ``settle_batch``).
The cascade horizon is clamped to ``now + ack timeout`` so no tree a sweep
registers can time out mid-stretch.  Which ticks are swept is the engine's own
choice, tick by tick (:meth:`BatchStepper._cascade`): loss/replay windows,
fault injection and migrations always take the per-event path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, namedtuple
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dataflow.event import (
    Event,
    EventKind,
    next_event_id,
    reserve_event_ids,
)
from repro.dataflow.grouping import Grouping, field_key_of, stable_field_index
from repro.dataflow.task import TaskKind
from repro.engine.executor import Executor, ExecutorStatus, SinkExecutor, SourceExecutor
from repro.engine.router import FIFO_SPACING_S, Channel, Router
from repro.engine.scan import fixed_rate_ticks, maxplus_scan, sequential_sums
from repro.reliability.acker import id_hash
from repro.sim.rng import keyed_value_blocks

_RUNNING = ExecutorStatus.RUNNING
_DATA_KIND = EventKind.DATA

# Unbound kernel-callback identities the sweep knows how to ingest when it
# adopts in-flight work (see _scan_inflight).
_COMPLETIONS = (Executor._complete_data, SinkExecutor._complete_data)
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
        from the fold's completion times.  Ids are drawn in sweep order: roots
        first, then spilled events, then receipts.
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
        emission = _NO_EMISSION
        if not held:
            emission = _emission_schedule(source, ticks, bound, cap, pending, chain)
        sweep = _Sweep(runtime, plan, source, emission, bound, acked)
        if held:
            sweep.ack_spans = []
        sweep.ingest(*inflight)
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
    updates, which is only sound for the default 1:1 dummy logic (tagged by
    :func:`repro.dataflow.task.default_logic`); duplicate task-pair edges
    would interleave their per-channel jitter draws per event; and an executor
    subclass may override anything.  The emission schedule is one spout's.
    """
    if len(runtime.source_executors) != 1:
        return "multi-source"
    dataflow = runtime.dataflow
    for task in dataflow.tasks:
        if task.kind is TaskKind.PROCESS and getattr(task.logic, "default_selectivity", None) != 1:
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
#: the channels' plan indices (ascending), their records, and their
#: keyed-stream seeds / base latencies as columns.
_Level = namedtuple("_Level", "nodes ids channels seeds bases")


class _SweepPlan:
    """What the level sweep needs of the topology, compiled once per placement epoch.

    Task instances are numbered in sweep order (topological task order, then
    instance order) and channels in shipping order (sender in sweep order,
    then outbox edge, then destination instance).  That numbering is the tie
    order of the arrival merge into an instance (ascending channel index) and
    the order spilled events draw their ids in.  A *level* is the set of
    instances whose task sits at one depth (longest path from a source):
    everything an instance receives was shipped by a shallower level.

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
        for node in self.nodes:
            for grouping, num, channels, cursor in router.outbox(
                node.executor.executor_id, node.task_name
            ):
                node.edges.append((grouping, num, len(self.channels), cursor))
                for channel in channels:
                    self.by_id[channel.target_id].feeds.append(len(self.channels))
                    self.channels.append(channel)
                    self.senders.append(node)
        for nodes in by_depth:
            ids = [first + k for node in nodes for _, num, first, _ in node.edges for k in range(num)]
            sends = [self.channels[c] for c in ids]
            seeds = [c.stream.seed if c.stream is not None else 0 for c in sends]
            self.levels.append(_Level(nodes, ids, sends, seeds, np.array([c.base for c in sends])))
        if self.channels and self.channels[0].stream is not None:
            self.jitter = (self.channels[0].jitter_low, self.channels[0].jitter_span)

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
        if func in _COMPLETIONS:
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
        elif func is Router.deliver_batch:
            deliver, sender_id, pairs, index = entry[3]
            target = _receiver(deliver, runtime)
            if target is None:
                return "inflight-unmodelled"
            for when, event in pairs[index:]:
                if not _adoptable(event, acked):
                    return "inflight-unmodelled"
                deliveries.append((when, target, event, sender_id))
        else:
            return "inflight-unmodelled"
    for executor in runtime.executors.values():
        if executor in busy:
            if not all(_adoptable(event, acked) for event, _sender in executor.input_queue):
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
    inf = math.inf
    while True:
        tick = gen[g] if g < len(gen) else inf
        done = completions[c] if c < len(completions) else inf
        due = poll if poll is not None and not parked and poll < bound else inf
        if tick <= due and tick <= done:
            if tick == inf or (poll is None and cap is None and not backlog):
                break
            g += 1
            source._sequence += 1
            if backlog or (cap is not None and pending >= cap):
                backlog.append(source._payload(source._sequence))
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
    source.resume_drain(None if poll is None else (poll, period, parked), parks, wakes)
    source._sequence += len(gen) - g
    backlogged = np.zeros(len(emitted) + len(gen) - g, dtype=bool)
    backlogged[list(payloads)] = True
    return _Emission(np.concatenate([emitted, ticks[g:]]), backlogged, payloads, first)


# ----------------------------------------------------------------- the sweep
class _Adopted:
    """The in-flight work one instance brings into the sweep, arrival side.

    ``keys`` are the merge keys (``-inf`` for the ``seeded`` events that were
    in service or queued at entry, so they sort first and stay in order; the
    delivery time for adopted deliveries), ``roots`` the sweep root indices and
    ``fixed`` the already-scheduled completion time of the event in service.
    """

    __slots__ = ("keys", "roots", "seeded", "fixed")

    def __init__(self) -> None:
        self.keys: List[float] = []
        self.roots: List[int] = []
        self.seeded = 0
        self.fixed = 0.0


class _Sweep:
    """The state the phases of one cascade share.

    Sweep root indices ``0 .. n_roots-1`` are the roots this cascade emits (id
    ``rids[r]``, emitted at ``ticks[r]``, payload generated on demand from the
    sequence number); adopted in-flight events descend from earlier roots and
    extend the index space with their own root id / emission time / payload
    (``adopted[r - n_roots]``).  Once :meth:`ingest` has fixed the index
    space, ``rids`` / ``emitted`` cover all of it.  An entry is swept iff its
    time is below ``bound``; the rest is handed back by :meth:`spill`.

    Under acking, events wholly inside the sweep never draw an id -- their
    anchor/ack XOR contributions cancel by construction, so only per-root-index
    *counts* are kept (``anchors`` / ``acks``), and trees that live and die
    inside the sweep never materialize a ``PendingTree``.  Real ids appear
    exactly where the classic path would leave them observable: spilled events
    fold into ``residue`` (new roots: becomes the registered tree's hash) or
    ``anchor_pairs`` (pre-existing trees); adopted in-flight events keep their
    original ids -- ``ack_pairs`` removes them from their trees when they
    complete in-sweep, and the original object is handed back if they spill
    again.  :meth:`fold_acks` commits it all through the acker's bulk APIs.
    """

    def __init__(
        self, runtime: "TopologyRuntime", plan: _SweepPlan, source: SourceExecutor,
        emission: _Emission, bound: float, acked: bool,
    ) -> None:
        self.runtime = runtime
        self.plan = plan
        self.source = source
        self.acked = acked
        self.bound = bound
        self.ticks = self.emitted = ticks = emission.ticks
        self.n_roots = n_roots = len(ticks)
        self.first_sequence = emission.first_sequence
        rid0 = reserve_event_ids(n_roots)
        self.rids = np.arange(rid0, rid0 + n_roots, dtype=np.int64)
        # Bulk append (record_source_emit with replay_count=0, at_time=tick):
        # fresh root ids are never already emitted.  A pure array copy — no
        # per-event record.
        runtime.log.extend_emits(
            ticks, self.rids, source.task.name, from_backlog=emission.backlogged
        )
        source.emitted_count += n_roots
        #: ``(event, sender id, hand the object back on a spill)`` per adopted event.
        self.adopted: List[Tuple[Event, str, bool]] = []
        #: node index -> the in-flight work it brought.
        self.arrived: Dict[int, _Adopted] = {}
        self.payloads: Dict[int, Any] = emission.payloads
        self.field_cache: Dict[int, np.ndarray] = {}
        #: Per plan channel: the in-bound ``(deliveries, roots, parent
        #: completion times)`` it shipped, or None.
        self.segments: List[Optional[tuple]] = [None] * len(plan.channels)
        #: node index -> the in-bound ``(completions, roots)`` it sends on.
        self.outputs = {plan.by_id[source.executor_id].index: (ticks, np.arange(n_roots))}
        #: Work crossing the bound: ``(node index, channel index or the
        #: channel count for a queue, ...)``, materialized by :meth:`spill`.
        self.spills: List[tuple] = []
        self.receipts: List[Tuple[np.ndarray, np.ndarray, SinkExecutor]] = []
        self.anchors = self.acks = self.residue = self.spilled = None
        self.anchor_pairs: List[Tuple[int, int]] = []
        self.ack_pairs: List[Tuple[int, int]] = []
        #: ``(completions, roots, in-bound spans)`` per service round, the
        #: acks' times -- kept only for a window whose emissions follow from
        #: them (holding a round's arrays costs the next round its warm pages).
        self.ack_spans: Optional[List[tuple]] = None
        #: Root indices of the adopted events a queue spill handed back.
        self.respilled: Set[int] = set()
        self.inline = n_roots
        self.routed = self.rounds = self.fallbacks = 0

    def payload_of(self, r: int) -> Any:
        """Root ``r``'s payload, built once and only when something reads it
        (a spilled event, an unresolved tree's replay cache, FIELDS
        grouping): a loss-free stretch resolves most roots unread."""
        if r >= self.n_roots:
            return self.adopted[r - self.n_roots][0].payload
        payload = self.payloads.get(r)
        if payload is None:
            payload = self.payloads[r] = self.source._payload(self.first_sequence + r)
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
        root-index space, so the per-root columns are sized here.
        """
        n_roots = self.n_roots
        adopted = self.adopted
        if deliveries or busy:
            sim = self.runtime.sim
            by_id = self.plan.by_id
            sim.remove_fast_entries()
            for when, target, event, sender_id in deliveries:
                if when < self.bound:
                    work = self.arrived.setdefault(by_id[target.executor_id].index, _Adopted())
                    work.keys.append(when)
                    work.roots.append(n_roots + len(adopted))
                    # Under acking the event's id is already folded into its
                    # pending tree: keep the object in case it spills again.
                    adopted.append((event, sender_id, self.acked))
                    self.inline += 1
                else:
                    sim.schedule_at_fast(when, target.deliver, (event, sender_id))
            for executor, (when, event) in busy.items():
                node = by_id[executor.executor_id]
                work = self.arrived.setdefault(node.index, _Adopted())
                queue = executor.input_queue
                count = 1 + len(queue)
                if count > _MIN_WINDOW_ROOTS:
                    # A long queue is served back to back: what is behind the
                    # first service to cross the bound stays where it is (the
                    # spill queues whatever arrives behind it).
                    ends = sequential_sums(when, node.service, count - 1)
                    count = min(count, 1 + int(np.searchsorted(ends, self.bound)))
                work.seeded = count
                work.fixed = when
                work.keys[0:0] = [-math.inf] * count
                work.roots[0:0] = range(n_roots + len(adopted), n_roots + len(adopted) + count)
                adopted.append((event, "", True))
                adopted.extend((*queue.popleft(), True) for _ in range(count - 1))
                executor._busy = False  # re-established by the spill if needed
        if adopted:
            self.rids = np.concatenate([self.rids, [event.root_id for event, _, _ in adopted]])
            self.emitted = np.concatenate(
                [self.ticks, [event.root_emitted_at for event, _, _ in adopted]]
            )
        if self.acked:
            self.anchors = np.zeros(len(self.rids), dtype=np.int64)
            self.acks = np.zeros(len(self.rids), dtype=np.int64)
            self.residue = np.zeros(n_roots, dtype=np.uint64)
            self.spilled = np.zeros(n_roots, dtype=np.int64)

    # --------------------------------------------------------- service rounds
    def serve(self, level: _Level) -> None:
        """Run the service queues of one level, whole instances to a block."""
        segments = self.segments
        block: List[tuple] = []
        size = 0
        for node in level.nodes:
            work = self.arrived.get(node.index) if self.arrived else None
            feeds = [c for c in node.feeds if segments[c] is not None]
            total = sum([len(segments[c][0]) for c in feeds], len(work.keys) if work else 0)
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
        keys, roots, counts, pieces, offsets = [], [], [], [], []
        pins: List[int] = []
        pinned: List[float] = []
        unmerged: List[Tuple[int, int]] = []
        offset = 0
        for node, work, feeds, total in block:
            loose = len(feeds)
            if work is not None:
                completes = work.fixed
                for position in range(offset, offset + work.seeded):
                    pins.append(position)
                    pinned.append(completes)
                    completes = completes + node.service
                loose += len(work.keys) - work.seeded
                keys.append(work.keys)
                roots.append(work.roots)
                pieces.append(work)
                offsets.append(offset)
                offset += len(work.keys)
            for c in feeds:
                keys.append(segments[c][0])
                roots.append(segments[c][1])
                pieces.append(c)
                offsets.append(offset)
                offset += len(segments[c][0])
            counts.append(total)
            if loose > 1:
                unmerged.append((offset - total, offset))
        arrivals = np.concatenate(keys) if len(keys) > 1 else np.asarray(keys[0], dtype=np.float64)
        rts = np.concatenate(roots) if len(roots) > 1 else np.asarray(roots[0], dtype=np.intp)
        order = None
        if unmerged:
            # Each piece is sorted already, which a stable sort merges cheaply.
            order = np.arange(offset)
            for lo, hi in unmerged:
                order[lo:hi] = np.argsort(arrivals[lo:hi], kind="stable") + lo
            arrivals = arrivals[order]
            rts = rts[order]
        services = [node.service for node, _, _, _ in block]
        step = services[0]
        if services.count(step) < len(services):
            step = np.repeat(np.array(services), counts)
        values = arrivals + step
        if pins:
            values[pins] = pinned
        completions, fell_back = maxplus_scan(values, step, counts)
        self.fallbacks += fell_back

        lookup = (order, offsets, pieces)
        done: List[Tuple[int, int]] = []
        hi = 0
        for node, _work, _feeds, total in block:
            lo, hi = hi, hi + total
            end = hi
            if not completions[hi - 1] < self.bound:
                end = lo + int(np.searchsorted(completions[lo:hi], self.bound))
                # The service at ``end`` crosses the bound (see _spill_queue).
                self.spills.append(
                    (node.index, len(segments), node, end, hi, completions, rts, lookup)
                )
            if end > lo:
                executor = node.executor
                if node.sink:
                    executor.received_count += end - lo
                    self.receipts.append((completions[lo:end], rts[lo:end], executor))
                else:
                    self.outputs[node.index] = (completions[lo:end], rts[lo:end])
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
        if sum(end - lo for lo, end in spans) == len(rts):
            spans = [(0, len(rts))]  # nothing to leave out: one call for the block
        for lo, end in spans:
            np.add.at(counters, rts[lo:end], 1)

    # -------------------------------------------------------- shipping rounds
    def ship(self, level: _Level) -> None:
        """Route what one level completed (the array form of ``Router.fan_out``
        target selection), whole channels to a block."""
        outputs = self.outputs
        if not level.ids or not any(node.index in outputs for node in level.nodes):
            return
        parents, roots = [], []
        nothing = (self.ticks[:0], self.rids[:0])
        for node in level.nodes:
            completions, rts = outputs.get(node.index, nothing)
            for grouping, num, _first, cursor in node.edges:
                if num == 1 or grouping is Grouping.ALL:
                    parents.extend([completions] * num)
                    roots.extend([rts] * num)
                elif grouping is Grouping.GLOBAL:
                    parents.extend([completions] + [nothing[0]] * (num - 1))
                    roots.extend([rts] + [nothing[1]] * (num - 1))
                elif grouping is Grouping.FIELDS:
                    targets = self.field_indices(num)[rts]
                    for k in range(num):
                        mask = targets == k
                        parents.append(completions[mask])
                        roots.append(rts[mask])
                else:  # shuffle round-robin per (sender executor, dst task)
                    start = cursor[0]
                    cursor[0] = start + len(rts)
                    # Event i goes to instance (start + i) % num, so instance
                    # k's events are the strided slice starting at
                    # (k - start) % num -- views, no masks, no copies.
                    for k in range(num):
                        parents.append(completions[(k - start) % num::num])
                        roots.append(rts[(k - start) % num::num])
        counts = [len(piece) for piece in parents]
        i = 0
        while i < len(counts):
            j, size = i + 1, counts[i]
            while j < len(counts) and size + counts[j] <= _BLOCK_ENTRIES:
                size += counts[j]
                j += 1
            if size:
                self._ship_block(level, i, j, parents[i:j], roots[i:j], counts[i:j])
            i = j

    def _ship_block(self, level: _Level, i: int, j: int, parents, roots, counts) -> None:
        """One array round over channels ``i .. j-1`` of ``level`` (the array
        form of ``Channel.stamp``): keyed jitter, latency, FIFO bump, bound split."""
        self.rounds += 1
        channels = level.channels[i:j]
        if j - i == 1:
            parent_times, latency = parents[0], level.bases[i]
        else:
            parent_times = np.concatenate(parents)
            latency = np.repeat(level.bases[i:j], counts)
        jitter = self.plan.jitter
        if jitter is not None:
            draws = keyed_value_blocks(
                level.seeds[i:j], [channel.stream.counter for channel in channels], counts
            )
            latency = latency * (1.0 + (jitter[0] + jitter[1] * draws))
            if jitter[0] <= -1.0:  # else the factor is positive: nothing to clamp
                np.maximum(latency, 0.0, out=latency)
        # Per-channel FIFO: d[i] = max(raw[i], d[i-1] + spacing).
        deliveries, fell_back = maxplus_scan(
            parent_times + latency, FIFO_SPACING_S, counts, [channel.last for channel in channels]
        )
        self.fallbacks += fell_back
        self.routed += len(deliveries)

        shipped: List[Tuple[int, int]] = []
        hi = 0
        for c, channel, n, sent, sent_roots in zip(level.ids[i:j], channels, counts, parents, roots):
            if not n:
                continue
            lo, hi = hi, hi + n
            if jitter is not None:
                channel.stream.counter += n
            channel.last = tail = float(deliveries[hi - 1])
            cut = n  # the views handed on are the sender's own, not the block's copies
            if not tail < self.bound:
                cut = int(np.searchsorted(deliveries[lo:hi], self.bound))
                # Beyond the bound: classic deliveries (see _spill_shipped).
                self.spills.append(
                    (self.plan.senders[c].index, c, deliveries[lo + cut:hi], sent_roots[cut:],
                     sent[cut:])
                )
            if cut:
                self.segments[c] = (deliveries[lo:lo + cut], sent_roots[:cut], sent[:cut])
                self.inline += cut
                shipped.append((lo, lo + cut))
        if self.acked:
            # Symbolic anchors: each in-bound shipped event will also be acked
            # (in-sweep or converted on spill), so no id is drawn here — only
            # the per-root count advances.
            self._count(self.anchors, roots[0] if j - i == 1 else np.concatenate(roots), shipped)

    # ----------------------------------------------------------------- spills
    def spill(self) -> None:
        """Hand the work that crossed the bound back to the kernel, in classic form.

        Runs after the level sweep, instance by instance in plan order -- an
        instance's shipped events in channel order, then its queue -- because
        that is the order the spilled events draw their ids in.
        """
        self.runtime.router.routed_count += self.routed
        self.spills.sort(key=itemgetter(0, 1))
        for _node_index, c, *work in self.spills:
            if c < len(self.segments):
                self._spill_shipped(c, *work)
            else:
                self._spill_queue(*work)

    def _new_event(self, r: int, task_name: str, created_at: float, anchor: int) -> Event:
        """Materialize a sweep-born event that leaves the sweep, with a fresh id.

        ``anchor`` is what the event's id does to a new root's symbolic anchor
        count (a shipped spill was never counted: +1; a queued one was counted
        at ship time: 0) -- on a pre-existing tree the anchor turns real.
        """
        event_id = next_event_id()
        root_id = int(self.rids[r])
        if self.acked:
            if r < self.n_roots:
                # A new root's spilled event: its real id is part of the tree
                # hash register_block will materialize.
                self.residue[r] ^= id_hash(event_id)
                self.spilled[r] += 1
                self.anchors[r] += anchor
            else:
                self.anchors[r] += anchor - 1
                self.anchor_pairs.append((root_id, event_id))
        return Event(
            event_id, root_id, _DATA_KIND, task_name, self.payload_of(r), created_at,
            float(self.emitted[r]), None, None, 0, self.acked,
        )

    def _spill_shipped(self, c: int, deliveries, roots, parent_times) -> None:
        channel = self.plan.channels[c]
        task_name = self.plan.senders[c].task_name
        schedule_at_fast = self.runtime.sim.schedule_at_fast
        for when, r, created_at in zip(deliveries.tolist(), roots.tolist(), parent_times.tolist()):
            event = self._new_event(r, task_name, created_at, 1)
            schedule_at_fast(when, channel.deliver, (event, channel.sender_id))

    def _spill_queue(self, node: _Node, first: int, end: int, completions, rts, lookup) -> None:
        """Leave ``node`` busy with the service that crosses the bound on the
        kernel heap and the later arrivals queued, exactly as the classic
        kernel would have them at this point.  Adopted positions still hold
        their original Event objects; sweep-born arrivals are materialized
        from the sweep arrays."""
        order, offsets, pieces = lookup
        entries = []
        for position in range(first, end):
            # Back through the merge to the piece the entry arrived in.
            merged = position if order is None else int(order[position])
            piece = bisect_right(offsets, merged) - 1
            origin = pieces[piece]
            r = int(rts[position])
            if type(origin) is _Adopted:
                event, sender_id, original = self.adopted[r - self.n_roots]
                self.respilled.add(r)
                if not original:  # an unacked delivery re-enters as a fresh copy
                    event = self._new_event(r, event.source_task, event.created_at, 0)
            else:
                sender_id = self.plan.channels[origin].sender_id
                created_at = float(self.segments[origin][2][merged - offsets[piece]])
                event = self._new_event(r, self.plan.senders[origin].task_name, created_at, 0)
            entries.append((event, sender_id))
        executor = node.executor
        executor._busy = True
        self.runtime.sim.schedule_at_fast(
            float(completions[first]), executor._complete_data, (entries[0][0],)
        )
        executor.input_queue.extend(entries[1:])

    # ------------------------------------------------------------ the commits
    def fold_acks(self) -> List[float]:
        """Commit the ack stream: one bulk acker update per category.  Where the
        acks' times were kept, returns when each adopted tree that completed did
        (the last of its acks, as the per-event path acks one by one), in order."""
        acker = self.runtime.acker
        n_roots = self.n_roots
        tracked = ()
        if self.ack_spans is not None:
            tracked = [root for root in set(self.rids[n_roots:].tolist()) if acker.is_pending(root)]
        # New roots whose every event was anchored *and* acked inside the
        # sweep resolved to zero by construction — stats only, no
        # PendingTree, no timer.  The rest materialize with their exact
        # classic end-of-stretch state (hash = XOR of outstanding spilled
        # ids) and back-dated timeout timers.
        new_anchors = self.anchors[:n_roots]
        new_acks = self.acks[:n_roots]
        resolved = (self.spilled == 0) & (new_anchors > 0)
        acker.absorb_resolved(
            int(np.count_nonzero(resolved)),
            int(new_anchors[resolved].sum()),
            int(new_acks[resolved].sum()),
        )
        unresolved = np.flatnonzero(~resolved)
        if unresolved.size:
            u_roots = self.rids[unresolved].tolist()
            acker.register_block(
                u_roots,
                self.ticks[unresolved].tolist(),
                self.residue[unresolved].tolist(),
                new_anchors[unresolved].tolist(),
                new_acks[unresolved].tolist(),
            )
            self.source.cache_block(u_roots, [self.payload_of(r) for r in unresolved.tolist()])
        # An adopted event that completed in-sweep (all but the ones a queue
        # spill handed back) is acked by the id already folded into its tree,
        # not by count.
        for r, (event, _, _) in enumerate(self.adopted, n_roots):
            if r not in self.respilled:
                self.acks[r] -= 1
                self.ack_pairs.append((event.root_id, event.event_id))
        # Pre-existing trees: real anchors first (spilled ids enter the
        # hashes), then the cancelled symbolic pairs, then the real acks —
        # so no tree's hash can transiently return to zero before all its
        # outstanding ids are in place.  Completions fire the classic
        # on_complete (source drops its cached payloads).
        if self.anchor_pairs:
            acker.anchor_batch(self.anchor_pairs)
        if self.adopted:
            acker.settle_batch(
                self.rids[n_roots:].tolist(),
                self.anchors[n_roots:].tolist(),
                self.acks[n_roots:].tolist(),
            )
        if self.ack_pairs:
            acker.ack_batch(self.ack_pairs)
        done = [root for root in tracked if not acker.is_pending(root)]
        if not done:
            return []
        acks = [(times[lo:end], rts[lo:end]) for times, rts, spans in self.ack_spans for lo, end in spans]
        times = np.concatenate([span[0] for span in acks])
        roots = self.rids[np.concatenate([span[1] for span in acks])]
        order = np.argsort(times)
        last = dict(zip(roots[order].tolist(), times[order].tolist()))  # the latest ack wins
        return sorted(last[root] for root in done)

    def emit_held(self, emission: _Emission) -> None:
        """Emit what a backlogged spout at its cap sent during the window, now
        that the window's completions are known: per emission, at its time,
        through the per-event path's own ``_emit_new`` -- ids, tree, timeout
        timer, replay cache, keyed jitter, FIFO and shuffle cursor are its.
        The first hop is busy past the bound (:func:`_first_hop_slack`), so a
        delivery it schedules before the bound joins that queue's tail when
        the kernel gets to it, and one past it is in flight as it would be.
        """
        sim = self.runtime.sim
        now0 = sim.now
        source = self.source
        backlogged = emission.backlogged.tolist()
        for r, tick in enumerate(emission.ticks.tolist()):
            payload = emission.payloads.get(r)
            if payload is None:
                payload = source._payload(emission.first_sequence + r)
            sim.now = tick
            source._emit_new(payload, backlogged[r])
        sim.now = now0
        self.inline += len(emission.ticks)

    def commit_receipts(self) -> None:
        """Merge the sinks' receipts into the log in global time order: one
        fancy-index per root column, one bulk id reservation, no per-event
        object."""
        receipts = self.receipts
        if not receipts:
            return
        times, roots, sink = receipts[0]
        names: Any = sink.task.name
        which = None
        if len(receipts) > 1:
            times = np.concatenate([rec[0] for rec in receipts])
            roots = np.concatenate([rec[1] for rec in receipts])
            which = np.repeat(np.arange(len(receipts)), [len(rec[0]) for rec in receipts])
            names = [rec[2].task.name for rec in receipts]
            order = np.argsort(times, kind="stable")
            times, roots, which = times[order], roots[order], which[order]
        eid0 = reserve_event_ids(len(times))
        self.runtime.log.extend_receipts(
            times,
            self.rids[roots],
            np.arange(eid0, eid0 + len(times), dtype=np.int64),
            names,
            self.emitted[roots],
            sink_indices=which,
        )
