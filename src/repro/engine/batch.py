"""Batch-stepping cascade: whole steady-state stretches in one kernel callback.

The classic kernel executes one Python callback per simulated event; a single
source tick costs two heap round-trips per hop (delivery, service completion)
plus the deliver -> queue -> ``_maybe_process`` -> ``_complete_data`` call
chain.  At steady state none of that machinery can change the outcome: every
executor is initialized and idle, no control wave is in flight, and the only
cancellable timer pending is the source's own emit tick.

The :class:`BatchStepper` exploits this.  When the emit timer fires and the
runtime is *quiescent* (checked exhaustively below), the whole stretch of
simulated time up to the next cancellable timer (exclusive) or the ``run``
bound (inclusive) is materialized inside one callback: a private heap of
``(time, seq, kind, ...)`` entries replays exactly the entries the kernel
would have processed -- source ticks, channel deliveries, service completions
-- with the handlers inlined (Lindley-style per-executor service clocks on
the real executor objects, keyed per-channel jitter draws, direct event-log
appends with explicit timestamps).  Entries that land at or past the horizon
are *spilled* back onto the real kernel heap in classic form
(``Executor.deliver`` / ``Executor._complete_data``), and executor state is
left exactly as the classic kernel would have it at the horizon, so
processing continues seamlessly -- a monitor sampling at the horizon observes
identical ``processed_count`` / ``busy_time_s`` / log contents.

Correctness requires the keyed per-channel jitter streams
(``RuntimeConfig.keyed_network_jitter``, implied by ``batch_stepping``):
with the shared stream, collapsing the cross-channel interleaving would
permute every jitter draw.  With keyed streams each channel consumes its own
sequence, so the cascade draws the exact values the classic kernel draws in
keyed mode.  Event ids are drawn in cascade pop order, which mirrors the
classic pop order entry for entry; the equivalence tests in
``tests/test_batch_equivalence.py`` pin both the logged streams and the
executor counters.

Batch stepping stays engaged when data acking is on.  The heap tier calls the
real :class:`~repro.reliability.acker.AckerService` at exactly the classic
code points (register at each emit pop, anchor at each route, ack at each
completion pop), evaluates the real spout-pending throttle per tick, and
spills everything at or past a mid-cascade drain-timer horizon back to the
kernel -- so it remains bit-exact.  The vectorized tier replays the acker XOR
stream symbolically: a loss-free steady-state stretch anchors and acks every
event of a tuple tree inside one sweep, so the per-tree ``bitwise_xor`` folds
cancel to zero by construction and whole trees resolve without ever
materializing a :class:`~repro.reliability.acker.PendingTree`; only events
that cross the horizon fold real ids into the bulk acker APIs
(``register_block`` / ``anchor_batch`` / ``ack_batch`` / ``settle_batch``).
The cascade horizon is clamped to ``now + ack timeout`` so no tree a sweep
registers can time out mid-stretch, and the cascade declines whenever the
runtime is not quiescent (control waves, backlogs, replays in flight,
restarts, captures, multiple sources), falling back to the classic per-event
path for that tick -- loss/replay windows, fault injection and migrations
always take the reference path.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

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
from repro.engine.router import FIFO_SPACING_S, Channel
from repro.engine.scan import (
    fixed_rate_ticks,
    maxplus_scan,
    sequential_sums,
    service_completions,
)
from repro.sim.rng import keyed_value_block

_EMIT = 0
_ARRIVE = 1
_COMPLETE = 2

_RUNNING = ExecutorStatus.RUNNING
_DATA_KIND = EventKind.DATA

# Unbound kernel-callback identities the vectorized tier knows how to ingest
# when it adopts in-flight work (see _cascade_vectorized).
_COMPLETIONS = (Executor._complete_data, SinkExecutor._complete_data)
_DELIVERIES = (Executor.deliver, SinkExecutor.deliver)


class BatchStepper:
    """Runs quiescent steady-state stretches inline (see module docstring)."""

    def __init__(self, runtime: "TopologyRuntime") -> None:
        self.runtime = runtime
        #: Number of cascades executed (diagnostic).
        self.cascades = 0
        #: Simulated events materialized inline instead of via the kernel.
        self.inline_events = 0
        #: Cascades swept with the vectorized (numpy) tier (diagnostic).
        self.vector_cascades = 0
        #: Source ticks handed back to the classic per-event path, by reason.
        self.declines: Dict[str, int] = {}
        #: Max-plus scans the vectorized tier handed to the scalar reference
        #: because the waiting frontier would not halve per round -- a loaded
        #: queue (see :mod:`repro.engine.scan`).
        self.scan_fallbacks = 0
        self._vector_capable_cache: Optional[bool] = None

    # ------------------------------------------------------- vectorized sweep
    def _vector_capable(self) -> bool:
        """Whether the dataflow admits the array sweep at all (cached).

        The sweep replaces per-event ``task.logic`` calls with bulk counter
        updates, which is only sound for the default 1:1 dummy logic (tagged
        by :func:`repro.dataflow.task.default_logic`).  Duplicate task-pair
        edges would interleave their per-channel jitter draws per event,
        which the per-edge arrays cannot reproduce, so they also force the
        per-event tier.  Topology structure and task logic are fixed for the
        runtime's lifetime (rescales change parallelism only), hence cached.
        """
        cached = self._vector_capable_cache
        if cached is None:
            runtime = self.runtime
            cached = runtime.config.batch_vectorize
            if cached:
                dataflow = runtime.dataflow
                for task in dataflow.tasks:
                    if (
                        task.kind is TaskKind.PROCESS
                        and getattr(task.logic, "default_selectivity", None) != 1
                    ):
                        cached = False
                        break
                    dsts = [edge.dst for edge in dataflow.out_edges(task.name)]
                    if len(dsts) != len(set(dsts)):
                        cached = False
                        break
            self._vector_capable_cache = cached
        return cached

    # ------------------------------------------------------------- quiescence
    def _blocker(self, source: SourceExecutor, allow_inflight: bool = False) -> Optional[str]:
        """Why the cascade may not replace per-event processing right now.

        Returns ``None`` when the runtime is quiescent, else the decline
        reason.  Every condition corresponds to a piece of engine machinery
        whose behaviour the inline handlers do not replicate: if any is live,
        the tick falls back to the classic path (and may cascade again later).

        ``allow_inflight`` relaxes the strict-idle conditions (no pending
        fast-path kernel entries, all executors idle with empty queues) for
        the vectorized tier, which can *adopt* in-flight data work -- pending
        deliveries, in-service completions, queued arrivals -- into its sweep.
        That is what lets cascades re-engage mid-stream: at steady state the
        pipeline is never empty between two source ticks, so the strict check
        only ever passes on the very first tick of a run.  The per-event heap
        tier has no ingestion path and always requires the strict form.
        """
        runtime = self.runtime
        sim = runtime.sim
        if sim.run_until is None:
            return "unbounded-run"  # no horizon to materialize up to
        sources = runtime.source_executors
        if len(sources) != 1 or sources[0] is not source:
            return "multi-source"
        if source.paused or source.status is not _RUNNING:
            return "source-paused"
        if source._backlog or source._replay_queue:
            return "source-backlog"
        if source._drain_next is not None:
            # Parked drain chain: a tree completing inside the cascade would
            # have to re-arm it against the kernel clock, which sits at entry.
            return "throttled"
        if runtime._deferred_deliveries:
            return "deferred-deliveries"
        if not allow_inflight and sim.has_fast_entries():
            return "inflight-work"  # deliveries/completions already in flight
        for executor in runtime.executors.values():
            if executor.status is not _RUNNING or not executor.initialized:
                return "executor-not-ready"
            if executor.capture_mode or executor.pre_init_buffer:
                return "executor-capturing"
            if not allow_inflight and (executor._busy or executor.input_queue):
                return "inflight-work"
        return None

    # ---------------------------------------------------------------- cascade
    def try_cascade(self, source: SourceExecutor) -> bool:
        """Handle the source tick that just fired, if quiescence allows.

        Returns True when the cascade consumed the tick (emissions performed,
        downstream work either completed inline or spilled, and the next emit
        timer armed); False to fall back to the classic per-tick path, with
        the reason tallied in :attr:`declines`.
        """
        reason = self._cascade(source)
        if reason is None:
            return True
        self.declines[reason] = self.declines.get(reason, 0) + 1
        return False

    def _cascade(self, source: SourceExecutor) -> Optional[str]:
        """Run the tick's cascade; the decline reason when it could not."""
        vectorized = self._vector_capable()
        reason = self._blocker(source)
        strict = reason is None
        if not strict:
            if vectorized:
                reason = self._blocker(source, allow_inflight=True)
            if reason is not None:
                return reason
        runtime = self.runtime
        sim = runtime.sim
        limit = sim.run_until
        horizon = sim.next_timer_time()
        now0 = sim.now
        if horizon is not None and horizon <= now0:
            return "timer-due"  # another timer is due immediately; do not pass it
        if now0 > limit:  # pragma: no cover - defensive; run() never does this
            return "past-run-bound"
        acked = runtime.ack_data_events
        if acked:
            # Any tree a cascade registers schedules its timeout at
            # ``tick + timeout >= now0 + timeout``; clamping the horizon there
            # guarantees no timer the cascade itself creates can fire inside
            # the stretch (already-pending trees bound ``horizon`` through
            # their live timeout timers).
            timeout_at = now0 + runtime.acker.timeout_s
            if horizon is None or timeout_at < horizon:
                horizon = timeout_at

        if vectorized:
            reason = self._cascade_vectorized(source, now0, limit, horizon, acked)
            if reason is None:
                return None
            if not strict:
                return reason  # in-flight work present; only the vectorized tier ingests it

        log = runtime.log
        timing = runtime.timing
        acker = runtime.acker
        reliability = runtime.reliability
        record_receipt = log.record_sink_receipt
        record_emit = log.record_source_emit
        schedule_at_fast = sim.schedule_at_fast
        push = heapq.heappush
        pop = heapq.heappop

        heap: List[tuple] = [(now0, 0, _EMIT, None, None, None)]
        seq = 1
        inline = 0

        while heap:
            t, _, kind, a, b, c = pop(heap)
            if acked and horizon is not None and t >= horizon:
                # A drain timer armed mid-cascade (throttle/backlog tick)
                # pulled the horizon in: hand this entry back to the kernel in
                # classic form so the drain tick observes classic state.
                if kind == _ARRIVE:
                    schedule_at_fast(t, a.deliver, (b, c))
                elif kind == _COMPLETE:
                    schedule_at_fast(t, a._complete_data, (b,))
                else:
                    source._emit_timer = sim.schedule_at(t, source._emit_tick)
                continue
            inline += 1
            if kind == _ARRIVE:
                executor = a
                if executor._busy or executor.input_queue:
                    executor.input_queue.append((b, c))
                    continue
                executor._busy = True
                tc = t + executor._service_time
                if tc <= limit and (horizon is None or tc < horizon):
                    push(heap, (tc, seq, _COMPLETE, executor, b, None))
                    seq += 1
                else:
                    # Completion crosses the horizon: hand it back to the
                    # kernel in classic form (the executor stays busy, exactly
                    # as if deliver() had scheduled this).
                    schedule_at_fast(tc, executor._complete_data, (b,))
            elif kind == _COMPLETE:
                executor = a
                event = b
                if type(executor) is SinkExecutor:
                    # Sink service: record the receipt (explicit timestamp --
                    # cascade pops are globally time-ordered, so the indexed
                    # log stays monotone) and ack the tree.
                    executor.received_count += 1
                    record_receipt(
                        root_id=event.root_id,
                        event_id=event.event_id,
                        sink=executor.task.name,
                        root_emitted_at=event.root_emitted_at,
                        replay_count=event.replay_count,
                        at_time=t,
                    )
                    executor.processed_count += 1
                    if acked and event.anchored:
                        acker.ack(event.root_id, event.event_id)
                else:
                    task = executor.task
                    acked_ev = acked and event.anchored
                    if acked_ev:
                        # The 1:1 restamp below mutates event_id; capture the
                        # (root, id) pair the classic path acks after routing.
                        ack_root = event.root_id
                        ack_id = event.event_id
                    outputs = task.logic(event.payload, executor.state)
                    if outputs:
                        if len(outputs) == 1:
                            # 1:1 selectivity: mutate the event into its own
                            # child (same id-draw position as the classic
                            # path, see Executor._complete_data).
                            payload = outputs[0]
                            event.event_id = next_event_id()
                            event.source_task = task.name
                            if payload is not None:
                                event.payload = payload
                            event.created_at = t
                            children = (event,)
                        else:
                            children = [
                                event.derive(task.name, payload, t) for payload in outputs
                            ]
                        seq = self._route_inline(
                            executor.executor_id, task.name, children, t,
                            heap, seq, limit, horizon,
                        )
                    if acked_ev:
                        acker.ack(ack_root, ack_id)
                    executor.processed_count += 1
                    executor.busy_time_s += executor._service_time
                # Drain the input queue exactly as _maybe_process would.
                queue = executor.input_queue
                if queue:
                    next_event, _sender = queue.popleft()
                    tc = t + executor._service_time
                    if tc <= limit and (horizon is None or tc < horizon):
                        push(heap, (tc, seq, _COMPLETE, executor, next_event, None))
                        seq += 1
                    else:
                        schedule_at_fast(tc, executor._complete_data, (next_event,))
                else:
                    executor._busy = False
            else:  # _EMIT: one source generation tick (mirrors _emit_tick)
                source._sequence += 1
                payload = source._payload(source._sequence)
                if acked and source._throttled():
                    # Storm's max.spout.pending, evaluated against the live
                    # pending count (trees register and complete in pop
                    # order, so the trajectory is exactly the classic one).
                    if reliability.throttled_ticks_generate_backlog:
                        source._backlog.append(payload)
                    else:
                        source.skipped_ticks += 1
                    horizon = self._inline_drain_timer(source, t, now0, horizon)
                elif acked and (source._backlog or source._replay_queue):
                    # Preserve ordering behind the backlog a throttled tick
                    # started, exactly as _tick() would.
                    source._backlog.append(payload)
                    horizon = self._inline_drain_timer(source, t, now0, horizon)
                else:
                    event = Event.data(
                        source_task=source.task.name,
                        payload=payload,
                        created_at=t,
                        anchored=acked,
                    )
                    if acked:
                        acker.register(event.root_id, at_time=t)
                        source._cache[event.root_id] = payload
                    source.emitted_count += 1
                    record_emit(event.root_id, source.task.name, replay_count=0,
                                from_backlog=False, at_time=t)
                    seq = self._route_inline(
                        source.executor_id, source.task.name, (event,), t,
                        heap, seq, limit, horizon,
                    )
                # Re-arm: same rate evaluation _arm_emit_timer performs at t.
                profile = source.profile
                rate = float(profile.rate_at(t)) if profile is not None else source.rate
                if rate <= 0:
                    source._emit_timer = sim.schedule_at(
                        t + timing.source_idle_recheck_s, source._arm_emit_timer
                    )
                else:
                    source.rate = rate
                    tn = t + 1.0 / rate
                    if tn <= limit and (horizon is None or tn < horizon):
                        push(heap, (tn, seq, _EMIT, None, None, None))
                        seq += 1
                    else:
                        source._emit_timer = sim.schedule_at(tn, source._emit_tick)

        self.cascades += 1
        self.inline_events += inline
        return None

    def _inline_drain_timer(
        self, source: SourceExecutor, t: float, now0: float, horizon: Optional[float]
    ) -> Optional[float]:
        """Arm the source's backlog drain timer from inside a cascade.

        Mirrors ``SourceExecutor._ensure_drain_timer`` evaluated at simulated
        time ``t`` (the kernel clock still sits at ``now0``, hence the
        start-delay offset).  Returns the new cascade horizon: the timer's
        first fire pulls it in, so every materialized entry at or past it is
        spilled back to the kernel and the drain tick observes classic state.
        """
        drain = source._drain_timer
        if drain is not None and drain.active:
            return horizon
        runtime = self.runtime
        period = 1.0 / max(source.rate, runtime.timing.source_max_burst_rate)
        source._drain_timer = runtime.sim.every(
            period, source._drain_tick, start_delay=(t - now0) + period
        )
        first = t + period
        if horizon is None or first < horizon:
            return first
        return horizon

    # ------------------------------------------------------- vectorized tier
    def _cascade_vectorized(
        self,
        source: SourceExecutor,
        now0: float,
        limit: float,
        horizon: Optional[float],
        acked: bool,
    ) -> Optional[str]:
        """Sweep the whole stretch with per-task-instance arrays (numpy).

        Instead of replaying individual kernel entries, each task instance is
        processed once with struct-of-arrays arithmetic: per-channel jitter
        draws come from :func:`keyed_value_block` (bit-identical to the scalar
        stream), and the sequential recurrences -- channel FIFO bumps, Lindley
        service queues, busy-time sums, the fixed-rate tick schedule -- run as
        the exact array kernels of :mod:`repro.engine.scan` (which keep the
        per-event loop as their reference and saturated-queue fallback).  All
        simulated times, log record streams and executor counters are
        bit-identical to the classic keyed kernel; only the *event-id
        assignment order* differs (ids are drawn in sweep order: roots first,
        then spilled events, then receipts).  Work crossing the horizon is
        reconstructed into classic kernel state exactly as the per-event tier
        does.

        Unlike the per-event tier, this tier also runs under *relaxed*
        quiescence: pending kernel deliveries, in-service completions and
        queued arrivals are adopted into the sweep (their times are already
        fixed, so the merge stays exact), which is what lets cascades
        re-engage between control-plane windows when the pipeline is never
        fully drained.

        Under data acking (``acked``) the sweep additionally replays the acker
        XOR stream: events that are both anchored and acked inside the stretch
        cancel symbolically (per-root counters, no id ever drawn), events that
        cross the horizon fold real ids into per-root residuals, and the
        whole stream commits through the acker's bulk APIs — trees that live
        and die inside the sweep never materialize a ``PendingTree`` at all.
        The emission schedule is capped at the spout-pending headroom
        (pending only shrinks mid-stretch, so the cap is provably
        throttle-free; a capped stretch ends at the tick the cap held back)
        and adopted in-flight events keep their original objects/ids so their
        trees' hashes stay exact.

        Returns the decline reason (nothing mutated) when an executor subclass
        it does not model is present, or when in-flight work includes anything
        beyond plain data events of live trees (control waves, sink batches,
        state-store latencies, replayed events, events of timed-out trees);
        :meth:`try_cascade` then falls back to the per-event tier or the
        classic path.  Returns ``None`` once the stretch is swept.
        """
        runtime = self.runtime
        executors = runtime.executors
        for executor in executors.values():
            kind = type(executor)
            if kind is not Executor and kind is not SinkExecutor and kind is not SourceExecutor:
                return "unmodelled-executor"
        acker = runtime.acker
        if acked:
            headroom = source.pending_headroom()
            if headroom == 0:
                return "throttled"  # the classic/heap paths handle a throttled tick exactly
        else:
            headroom = None
        sim = runtime.sim
        router = runtime.router

        # ---- In-flight scan (pure, nothing mutated until it fully succeeds).
        # Under relaxed quiescence the kernel heap may hold pending data work;
        # classify every fast-path entry, declining on anything the sweep does
        # not model (control handling, capture drains, sink batch completions,
        # state-store latencies, acked/replayed events).
        inflight: List[Tuple[float, Executor, Event, str]] = []
        busy_completions: Dict[Any, Tuple[float, Event]] = {}
        pending_entries = sim.fast_entries()
        if pending_entries:
            batch_cb = router.deliver_batch

            def receiver_of(deliver) -> Optional[Executor]:
                """The live, non-source executor a delivery callback is bound to."""
                if getattr(deliver, "__func__", None) not in _DELIVERIES:
                    return None  # the by-id fallback of a target that did not exist
                target = deliver.__self__
                if executors.get(target.executor_id) is not target:
                    return None  # retired by a rescale
                return None if type(target) is SourceExecutor else target

            for entry in pending_entries:
                cb = entry[2]
                func = getattr(cb, "__func__", None)
                if func in _COMPLETIONS:
                    executor = cb.__self__
                    event = entry[3][0]
                    if (
                        event.kind is not _DATA_KIND
                        or event.anchored is not acked
                        or event.replay_count
                        or not executor._busy
                        or executor in busy_completions
                    ):
                        return "inflight-unmodelled"
                    busy_completions[executor] = (entry[0], event)
                elif func in _DELIVERIES:
                    target = receiver_of(cb)
                    event, sender_id = entry[3]
                    if (
                        target is None
                        or event.kind is not _DATA_KIND
                        or event.anchored is not acked
                        or event.replay_count
                    ):
                        return "inflight-unmodelled"
                    inflight.append((entry[0], target, event, sender_id))
                elif cb == batch_cb:
                    deliver, sender_id, pairs, index = entry[3]
                    target = receiver_of(deliver)
                    if target is None:
                        return "inflight-unmodelled"
                    for when, event in pairs[index:]:
                        if (
                            event.kind is not _DATA_KIND
                            or event.anchored is not acked
                            or event.replay_count
                        ):
                            return "inflight-unmodelled"
                        inflight.append((when, target, event, sender_id))
                else:
                    return "inflight-unmodelled"
            for executor in executors.values():
                if executor in busy_completions:
                    for event, _sender in executor.input_queue:
                        if (
                            event.kind is not _DATA_KIND
                            or event.anchored is not acked
                            or event.replay_count
                        ):
                            return "inflight-unmodelled"
                elif executor._busy or executor.input_queue:
                    return "inflight-unmodelled"  # busy/queued without a modelled completion

        dataflow = runtime.dataflow
        hor = float("inf") if horizon is None else horizon

        # ---- Phase A: the emission schedule.
        # The headroom cap is pessimistic but exact: pending can only shrink
        # as trees complete mid-stretch, so a stretch emitting at most
        # ``limit - pending`` roots never reaches a tick the classic path
        # would have throttled.
        idle_from: Optional[float] = None
        next_tick: Optional[float] = None
        capped = False
        profile = source.profile
        if profile is None and source.rate > 0:
            ticks, next_tick, capped = fixed_rate_ticks(
                now0, 1.0 / source.rate, limit, hor, headroom
            )
        else:
            # Profile-driven sources re-evaluate the rate at every tick: the
            # exact scalar recurrence of ``_arm_emit_timer``.
            tick_times: List[float] = []
            tick = now0
            while True:
                tick_times.append(tick)
                rate = float(profile.rate_at(tick)) if profile is not None else source.rate
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
        if capped:
            # The cap, not a timer or the run bound, ended emission: the next
            # tick fires at ``next_tick`` and must find the executors as the
            # classic kernel would have them then, so the sweep ends there.
            hor = next_tick
        if hor <= limit:
            cut_value, cut_side = hor, "left"  # inline iff time < horizon
        else:
            cut_value, cut_side = limit, "right"  # inline iff time <= limit
        side_right = cut_side == "right"

        n_roots = len(ticks)
        log = runtime.log
        source_name = source.task.name
        seqno = source._sequence
        source._sequence = seqno + n_roots
        rid0 = reserve_event_ids(n_roots)
        rid_arr = np.arange(rid0, rid0 + n_roots, dtype=np.int64)
        # Bulk append (record_source_emit with replay_count=0, at_time=tick):
        # fresh root ids are never already emitted.  A pure array copy — no
        # per-event record.
        log.extend_emits(ticks, rid_arr, source_name)
        source.emitted_count += n_roots
        inline_count = n_roots

        #: Sweep root indices ``0 .. n_roots-1`` are the roots this cascade
        #: emits (id ``rid0 + r``, emitted at ``ticks[r]``, payload generated
        #: on demand from the sequence number); adopted in-flight events
        #: descend from earlier roots and extend the index space with their
        #: own root id / emission time / payload.  Once ingestion has fixed
        #: the index space, ``rid_arr`` / ``emitted_arr`` cover all of it.
        adopted_root_ids: List[int] = []
        adopted_emitted: List[float] = []
        adopted_payloads: List[Any] = []
        payload_memo: Dict[int, Any] = {}

        def adopt(event: Event) -> int:
            """Register an in-flight event as an extra sweep root index."""
            idx = n_roots + len(adopted_root_ids)
            adopted_root_ids.append(event.root_id)
            adopted_emitted.append(event.root_emitted_at)
            adopted_payloads.append(event.payload)
            return idx

        def payload_of(r: int) -> Any:
            """Root ``r``'s payload, built once and only when something reads it
            (a spilled event, an unresolved tree's replay cache, FIELDS
            grouping): a loss-free stretch resolves most roots unread."""
            if r >= n_roots:
                return adopted_payloads[r - n_roots]
            if r in payload_memo:
                return payload_memo[r]
            payload = payload_memo[r] = source._payload(seqno + 1 + r)
            return payload

        #: Acked-mode bookkeeping.  Events wholly inside the sweep never draw
        #: an id: their anchor/ack XOR contributions cancel by construction,
        #: so only per-root-index *counts* are kept (``anch_counts`` /
        #: ``ack_counts``, allocated after ingestion fixes the index space).
        #: Real ids appear exactly where the classic path would leave them
        #: observable: spilled events fold into ``resid`` (new roots, becomes
        #: the registered tree's hash) or ``anchor_pairs`` (pre-existing
        #: trees); adopted in-flight events keep their original ids —
        #: ``ack_pairs`` removes them from their trees when they complete
        #: in-sweep, ``adopted_by_id`` hands the original object back if they
        #: spill again.
        if acked:
            adopted_by_id: Dict[int, Event] = {}
            anchor_pairs: List[Tuple[int, int]] = []
            ack_pairs: List[Tuple[int, int]] = []
        else:
            adopted_by_id = None
            anchor_pairs = ack_pairs = None
        anch_counts = ack_counts = resid = spill_counts = None

        # ---- Phase B: route/serve every task instance in topological order.
        schedule_at_fast = sim.schedule_at_fast

        #: target executor id -> per-channel (deliveries, root idx, parent
        #: completion times, sender id, event ids or None) arrays, appended in
        #: topological order.  The ids slot is non-None only for adopted
        #: in-flight events under acking (sweep-born events stay symbolic).
        arrivals: Dict[str, List[Tuple[Any, Any, Any, str, Any]]] = {}
        field_cache: Dict[int, Any] = {}

        def field_indices(num: int):
            cached = field_cache.get(num)
            if cached is None:
                n_total = n_roots + len(adopted_root_ids)
                cached = np.fromiter(
                    (
                        stable_field_index(field_key_of(payload_of(r)), num)
                        for r in range(n_total)
                    ),
                    dtype=np.intp,
                    count=n_total,
                )
                field_cache[num] = cached
            return cached

        def ship(channel: Channel, task_name: str, parent_c, roots) -> None:
            """One channel's deliveries (the array form of ``Channel.stamp``):
            jitter, FIFO bump, bound split."""
            nonlocal inline_count
            n = len(parent_c)
            sender_id = channel.sender_id
            target = channel.target_id
            stream = channel.stream
            if stream is not None:
                start = stream.counter
                stream.counter = start + n
                draws = keyed_value_block(stream.seed, start, n)
                lat = channel.base * (1.0 + (channel.jitter_low + channel.jitter_span * draws))
                np.maximum(lat, 0.0, out=lat)
                raw = parent_c + lat
            else:
                raw = parent_c + channel.base
            # Per-channel FIFO: d[i] = max(raw[i], d[i-1] + spacing).
            deliveries, fell_back = maxplus_scan(raw, FIFO_SPACING_S, channel.last)
            self.scan_fallbacks += fell_back
            tail = float(deliveries[-1])
            channel.last = tail
            router.routed_count += n
            if (tail <= cut_value) if side_right else (tail < cut_value):
                cut = n  # whole channel in bound: skip the searchsorted
            else:
                cut = int(np.searchsorted(deliveries, cut_value, side=cut_side))
            if cut:
                arrivals.setdefault(target, []).append(
                    (deliveries[:cut], roots[:cut], parent_c[:cut], sender_id, None)
                )
                inline_count += cut
                if acked:
                    # Symbolic anchors: each in-bound shipped event will also
                    # be acked (in-sweep or converted on spill), so no id is
                    # drawn here — only the per-root count advances.
                    np.add.at(anch_counts, roots[:cut], 1)
            for i in range(cut, n):  # beyond the bound: classic deliveries
                r = int(roots[i])
                root_id = int(rid_arr[r])
                eid_new = next_event_id()
                if acked:
                    if r < n_roots:
                        # A new root's spilled event: its real id is part of
                        # the tree hash register_block will materialize.
                        resid[r] ^= eid_new
                        spill_counts[r] += 1
                        anch_counts[r] += 1
                    else:
                        anchor_pairs.append((root_id, eid_new))
                event = Event(
                    eid_new, root_id, _DATA_KIND, task_name,
                    payload_of(r), float(parent_c[i]), float(emitted_arr[r]),
                    None, None, 0, acked,
                )
                schedule_at_fast(float(deliveries[i]), channel.deliver, (event, sender_id))

        def route_stream(sender_id: str, task_name: str, completions, roots) -> None:
            """Mirror Router.fan_out target selection on whole arrays."""
            n = len(completions)
            for grouping, num, channels, cursor in router.outbox(sender_id, task_name):
                if num == 1 or grouping is Grouping.GLOBAL:
                    ship(channels[0], task_name, completions, roots)
                elif grouping is Grouping.ALL:
                    for channel in channels:
                        ship(channel, task_name, completions, roots)
                elif grouping is Grouping.FIELDS:
                    tidx = field_indices(num)[roots]
                    for k in range(num):
                        mask = tidx == k
                        if mask.any():
                            ship(channels[k], task_name, completions[mask], roots[mask])
                else:  # shuffle round-robin per (sender executor, dst task)
                    start = cursor[0]
                    cursor[0] = start + n
                    # Event i goes to instance (start + i) % num, so instance
                    # k's events are the strided slice starting at
                    # (k - start) % num -- views, no masks, no copies.
                    for k in range(num):
                        i0 = (k - start) % num
                        if i0 < n:
                            ship(channels[k], task_name, completions[i0::num], roots[i0::num])

        # ---- Commit the ingestion: the sweep now owns all in-flight work.
        # Pending deliveries inside the bound become one-element arrival
        # channels (their jitter was drawn -- and the channel FIFO state
        # advanced -- when they were routed); the rest go straight back on the
        # kernel heap unchanged.  Each busy executor is seeded with its fixed
        # in-service completion time plus its queued arrivals, in order.
        #: executor id -> (in-service completion time, [(event, sender) ...],
        #: adopted root indices), list position 0 being the in-service event.
        seeded: Dict[str, Tuple[float, List[Tuple[Event, str]], List[int]]] = {}
        if pending_entries:
            sim.remove_fast_entries()
            for when, target, event, sender_id in inflight:
                if when <= limit and when < hor:
                    idx = adopt(event)
                    if acked:
                        # The event's id is already folded into its pending
                        # tree: carry it so the in-sweep ack removes exactly
                        # it, and keep the object in case it spills past the
                        # bound again.
                        ids_arr = np.array([event.event_id], dtype=np.uint64)
                        adopted_by_id[int(event.event_id)] = event
                    else:
                        ids_arr = None
                    arrivals.setdefault(target.executor_id, []).append(
                        (
                            np.array([when]),
                            np.array([idx], dtype=np.intp),
                            np.array([event.created_at]),
                            sender_id,
                            ids_arr,
                        )
                    )
                    inline_count += 1
                else:
                    schedule_at_fast(when, target.deliver, (event, sender_id))
            for executor, (when, event) in busy_completions.items():
                entries: List[Tuple[Event, str]] = [(event, "")]
                entries.extend(executor.input_queue)
                executor.input_queue.clear()
                executor._busy = False  # re-established by the spill if needed
                seeded[executor.executor_id] = (
                    when, entries, [adopt(ev) for ev, _ in entries]
                )

        # Ingestion fixed the root-index space: per-root columns can now be
        # sized once (ship and the executor loop mutate the counters in place).
        emitted_arr = ticks
        if adopted_root_ids:
            rid_arr = np.concatenate([rid_arr, np.asarray(adopted_root_ids, dtype=np.int64)])
            emitted_arr = np.concatenate([ticks, np.asarray(adopted_emitted, dtype=np.float64)])
        if acked:
            anch_counts = np.zeros(len(rid_arr), dtype=np.int64)
            ack_counts = np.zeros(len(rid_arr), dtype=np.int64)
            resid = np.zeros(n_roots, dtype=np.uint64)
            spill_counts = np.zeros(n_roots, dtype=np.int64)

        route_stream(source.executor_id, source_name, ticks, np.arange(n_roots))

        sink_recs: List[Tuple[Any, Any, SinkExecutor]] = []
        for name in dataflow.topological_order:
            task = dataflow.task(name)
            if task.kind is TaskKind.SOURCE:
                continue
            for eid in task.instance_ids():
                chans = arrivals.get(eid)
                seed = seeded.get(eid)
                if not chans and seed is None:
                    continue
                executor = executors[eid]
                service = executor._service_time
                if chans:
                    if len(chans) == 1:
                        arr, roots, parents, sole_sender, aids = chans[0]
                        senders = None
                    else:
                        arr = np.concatenate([c[0] for c in chans])
                        roots = np.concatenate([c[1] for c in chans])
                        parents = np.concatenate([c[2] for c in chans])
                        senders = np.repeat(
                            np.arange(len(chans)), [len(c[0]) for c in chans]
                        )
                        if acked and any(c[4] is not None for c in chans):
                            aids = np.concatenate(
                                [
                                    c[4]
                                    if c[4] is not None
                                    else np.zeros(len(c[0]), dtype=np.uint64)
                                    for c in chans
                                ]
                            )
                        else:
                            aids = None
                        order = np.argsort(arr, kind="stable")
                        arr = arr[order]
                        roots = roots[order]
                        parents = parents[order]
                        senders = senders[order]
                        if aids is not None:
                            aids = aids[order]
                        sole_sender = None
                    n = len(arr)
                else:
                    arr = roots = parents = senders = sole_sender = aids = None
                    n = 0
                if seed is not None:
                    # Seeded prefix: the in-service completion is pinned at
                    # its already-scheduled time, the queued arrivals drain
                    # back to back after it (``tc = t + service`` chains, the
                    # exact classic recurrence).  Every seeded completion
                    # precedes every new-arrival completion in time, so the
                    # concatenation below stays sorted.
                    t_fixed, sevents, sidx = seed
                    m = len(sevents)
                    sc = sequential_sums(t_fixed, service, m - 1)
                    busy_until = float(sc[-1])
                    sids = (
                        np.fromiter(
                            (ev.event_id for ev, _ in sevents), dtype=np.uint64, count=m
                        )
                        if acked
                        else None
                    )
                else:
                    sevents = sidx = sids = None
                    m = 0
                    busy_until = None
                if n:
                    if service == 0.0:
                        if busy_until is not None and arr[0] < busy_until:
                            # Arrivals landing while the seeded work drains
                            # complete the instant it finishes (exact: a
                            # selection, no arithmetic).
                            ncomp = np.maximum(arr, busy_until)
                        else:
                            ncomp = arr  # `tc = t + 0.0` is exact
                    else:
                        ncomp, fell_back = service_completions(arr, service, busy_until)
                        self.scan_fallbacks += fell_back
                else:
                    ncomp = None
                if m and n:
                    completions = np.concatenate([sc, ncomp])
                    all_roots = np.concatenate([np.asarray(sidx, dtype=np.intp), roots])
                    if acked:
                        all_ids = np.concatenate(
                            [sids, aids if aids is not None else np.zeros(n, dtype=np.uint64)]
                        )
                    else:
                        all_ids = None
                elif m:
                    completions = sc
                    all_roots = np.asarray(sidx, dtype=np.intp)
                    all_ids = sids
                else:
                    completions = ncomp
                    all_roots = roots
                    all_ids = aids
                total = m + n
                if service == 0.0 and m == 0:
                    k = total  # inline arrivals complete at their own (in-bound) times
                else:
                    # Seeded completion times were inherited from the kernel
                    # heap and may already sit past the bound, so the cut
                    # applies even when the service time is zero.
                    tail = float(completions[total - 1])
                    if (tail <= cut_value) if side_right else (tail < cut_value):
                        k = total
                    else:
                        k = int(np.searchsorted(completions, cut_value, side=cut_side))
                inline_count += k
                if acked and k:
                    # Every in-sweep completion acks its event (the classic
                    # path acks at both process and sink completions):
                    # symbolic for sweep-born events — the count cancels the
                    # ship-time anchor — and a real-id ack for adopted events,
                    # whose ids are already in their trees' hashes.
                    np.add.at(ack_counts, all_roots[:k], 1)
                    if all_ids is not None:
                        real = np.flatnonzero(all_ids[:k])
                        real_roots = all_roots[real]
                        np.subtract.at(ack_counts, real_roots, 1)
                        ack_pairs.extend(
                            zip(rid_arr[real_roots].tolist(), all_ids[real].tolist())
                        )
                if type(executor) is SinkExecutor:
                    if k:
                        sink_recs.append((completions[:k], all_roots[:k], executor))
                        executor.received_count += k
                        executor.processed_count += k
                else:
                    if k:
                        route_stream(eid, name, completions[:k], all_roots[:k])
                        executor.processed_count += k
                        state = executor.state
                        state["processed"] = state.get("processed", 0) + k
                        # k sequential adds, like the kernel's one per event.
                        executor.busy_time_s = float(
                            sequential_sums(executor.busy_time_s, service, k)[-1]
                        )
                if k < total:
                    # The k-th service crosses the bound: leave the executor
                    # busy with its completion on the kernel heap and the
                    # later arrivals queued, exactly as the classic kernel
                    # would have them at this point.  Seeded positions still
                    # hold their original Event objects; new arrivals are
                    # materialized from the sweep arrays.
                    def event_at(i: int) -> Tuple[Event, str]:
                        if i < m:
                            return sevents[i]
                        j = i - m
                        r = int(roots[j])
                        sid = (
                            sole_sender
                            if senders is None
                            else chans[int(senders[j])][3]
                        )
                        if aids is not None and aids[j]:
                            # Adopted event crossing the bound again: hand the
                            # original object back so the id folded into its
                            # tree stays the one the classic path will ack.
                            return adopted_by_id[int(aids[j])], sid
                        root_id = int(rid_arr[r])
                        eid_new = next_event_id()
                        if acked:
                            if r < n_roots:
                                resid[r] ^= eid_new
                                spill_counts[r] += 1
                            else:
                                # Convert the ship-time symbolic anchor into a
                                # real one on the pre-existing tree.
                                anch_counts[r] -= 1
                                anchor_pairs.append((root_id, eid_new))
                        event = Event(
                            eid_new, root_id, _DATA_KIND,
                            executors[sid].task.name, payload_of(r),
                            float(parents[j]), float(emitted_arr[r]), None, None, 0, acked,
                        )
                        return event, sid

                    executor._busy = True
                    in_service, _in_sender = event_at(k)
                    schedule_at_fast(
                        float(completions[k]), executor._complete_data, (in_service,)
                    )
                    queue_append = executor.input_queue.append
                    for i in range(k + 1, total):
                        queue_append(event_at(i))

        # ---- Commit the ack stream: one bulk acker update per category.
        if acked:
            # New roots whose every event was anchored *and* acked inside the
            # sweep resolved to zero by construction — stats only, no
            # PendingTree, no timer.  The rest materialize with their exact
            # classic end-of-stretch state (hash = XOR of outstanding spilled
            # ids) and back-dated timeout timers.
            new_anchors = anch_counts[:n_roots]
            new_acks = ack_counts[:n_roots]
            resolved = (spill_counts == 0) & (new_anchors > 0)
            acker.absorb_resolved(
                int(np.count_nonzero(resolved)),
                int(new_anchors[resolved].sum()),
                int(new_acks[resolved].sum()),
            )
            unresolved = np.flatnonzero(~resolved)
            if unresolved.size:
                u_roots = (rid0 + unresolved).tolist()
                acker.register_block(
                    u_roots,
                    ticks[unresolved].tolist(),
                    resid[unresolved].tolist(),
                    new_anchors[unresolved].tolist(),
                    new_acks[unresolved].tolist(),
                )
                source.cache_block(u_roots, [payload_of(r) for r in unresolved.tolist()])
            # Pre-existing trees: real anchors first (spilled ids enter the
            # hashes), then the cancelled symbolic pairs, then the real acks —
            # so no tree's hash can transiently return to zero before all its
            # outstanding ids are in place.  Completions fire the classic
            # on_complete (source drops its cached payloads).
            if anchor_pairs:
                acker.anchor_batch(anchor_pairs)
            if adopted_root_ids:
                acker.settle_batch(
                    adopted_root_ids,
                    anch_counts[n_roots:].tolist(),
                    ack_counts[n_roots:].tolist(),
                )
            if ack_pairs:
                acker.ack_batch(ack_pairs)

        # ---- Phase C: receipts merged into the log in global time order.
        if sink_recs:
            # Per-root fields are gathered with one numpy fancy-index and the
            # receipt ids come from one bulk reservation plus ``np.arange``;
            # ``extend_receipts`` appends the arrays directly — zero per-event
            # objects.
            if len(sink_recs) == 1:
                times, roots, sink = sink_recs[0]
                eid0 = reserve_event_ids(len(times))
                log.extend_receipts(
                    times,
                    rid_arr[roots],
                    np.arange(eid0, eid0 + len(times), dtype=np.int64),
                    sink.task.name,
                    emitted_arr[roots],
                )
            else:
                all_times = np.concatenate([rec[0] for rec in sink_recs])
                all_roots = np.concatenate([rec[1] for rec in sink_recs])
                which = np.repeat(
                    np.arange(len(sink_recs)), [len(rec[0]) for rec in sink_recs]
                )
                names = [rec[2].task.name for rec in sink_recs]
                order = np.argsort(all_times, kind="stable")
                roots_sorted = all_roots[order]
                eid0 = reserve_event_ids(len(all_times))
                log.extend_receipts(
                    all_times[order],
                    rid_arr[roots_sorted],
                    np.arange(eid0, eid0 + len(all_times), dtype=np.int64),
                    names,
                    emitted_arr[roots_sorted],
                    sink_indices=which[order],
                )

        # ---- Re-arm the source exactly as _arm_emit_timer would.
        if idle_from is not None:
            source._emit_timer = sim.schedule_at(
                idle_from + runtime.timing.source_idle_recheck_s, source._arm_emit_timer
            )
        else:
            source._emit_timer = sim.schedule_at(next_tick, source._emit_tick)

        self.cascades += 1
        self.vector_cascades += 1
        self.inline_events += inline_count
        return None

    # ---------------------------------------------------------------- routing
    def _route_inline(
        self,
        sender_id: str,
        task_name: str,
        events,
        now: float,
        heap: List[tuple],
        seq: int,
        limit: float,
        horizon: Optional[float],
    ) -> int:
        """Route ``events`` at simulated time ``now`` without the kernel.

        The deliveries are the router's own (:meth:`Router.fan_out`: same
        grouping selection, id re-stamp or per-edge copy, acker anchor, jitter
        draw and FIFO bump as a kernel-path ``route()``); in-bound ones
        become cascade ARRIVE entries, the rest spill to the kernel as
        classic deliveries.
        """
        runtime = self.runtime
        router = runtime.router
        executors = runtime.executors
        schedule_at_fast = runtime.sim.schedule_at_fast
        push = heapq.heappush
        outbox = router.outbox(sender_id, task_name)
        for d, channel, event in router.fan_out(sender_id, outbox, events, now):
            if d <= limit and (horizon is None or d < horizon):
                push(heap, (d, seq, _ARRIVE, executors[channel.target_id], event, sender_id))
                seq += 1
            else:
                schedule_at_fast(d, channel.deliver, (event, sender_id))
        return seq
