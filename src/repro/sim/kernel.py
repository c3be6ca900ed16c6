"""Discrete-event simulation kernel.

The kernel is intentionally small: a virtual clock, a priority queue of
scheduled callbacks, and helpers for periodic timers.  Components of the
Storm-like engine (executors, ackers, checkpoint coordinators, the cloud
substrate) interact only through the ``schedule*`` methods, which keeps the
whole system deterministic and single-threaded.

Two scheduling paths exist:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  :class:`Timer` handle that can be cancelled before it fires.  Cancelled
  handles stay in the heap until their time comes up; the kernel counts them
  and compacts the heap when they pile up (long elastic runs re-arm and
  cancel many periodic timers).
* :meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_at_fast` are the
  **fire-and-forget fast path** used by the engine's hot loops (event
  deliveries, service completions, state-store latencies).  They allocate no
  handle and accept no kwargs, which roughly halves the per-event scheduling
  cost; the trade-off is that such events cannot be cancelled.

Times are expressed in **seconds of simulated time** as floats.  Sub-millisecond
resolution is routinely used (e.g. state-store write latency).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple


#: Compaction trigger: cancelled entries must exceed this count *and* half the
#: heap before the kernel rebuilds the heap without them.
_COMPACT_MIN_CANCELLED = 64


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the simulation kernel."""


class Timer:
    """Handle to a scheduled callback.

    A ``Timer`` is returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled before it fires.  After
    the callback has run (or the timer has been cancelled) the handle is inert.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: dict,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    @property
    def active(self) -> bool:
        """Whether the timer is still pending (not cancelled, not fired)."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Timer(t={self.time:.6f}, {name}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self, start_time: float = 0.0) -> None:
        if not math.isfinite(start_time):
            raise SimulationError("start_time must be finite")
        #: Current simulated time in seconds.  A plain attribute (not a
        #: property): it is read on every scheduling call and inside every
        #: callback, and the descriptor dispatch was measurable.  Treat as
        #: read-only outside the kernel.
        self.now = float(start_time)
        # Heap entries are either ``(time, seq, Timer)`` (cancellable path) or
        # ``(time, seq, callback, args)`` (fire-and-forget fast path).  The
        # seq is unique, so tuple comparison never reaches the third element.
        self._queue: List[tuple] = []
        self._counter = itertools.count()
        self._running = False
        self._stopped = False
        self._processed = 0
        self._cancelled_in_heap = 0
        #: Upper time bound of the in-flight run() call (``None`` when
        #: unbounded or idle).  Read-only; lets a callback (e.g. the
        #: batch-stepping cascade) bound the work it materializes without
        #: being handed the bound explicitly.
        self.run_until: Optional[float] = None
        #: Lifetime tally scraped by the telemetry layer (a plain int: the
        #: kernel never calls into a registry on the hot path).
        self.compactions = 0
        #: Dataflow runtimes created on this simulator: the batch cascade
        #: adopts every fast entry on the heap, so it wants to be alone.
        self.runtimes = 0

    # ------------------------------------------------------------------ clock
    @property
    def processed_events(self) -> int:
        """Number of callbacks that have been executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not yet executed, *live* events.

        Cancelled timers still sitting in the heap are not counted (they will
        never fire).
        """
        return len(self._queue) - self._cancelled_in_heap

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Timer:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative and finite.  Returns a :class:`Timer`
        handle that may be cancelled before it fires.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args, **kwargs)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Timer:
        """Schedule ``callback`` at an absolute simulated time."""
        if not math.isfinite(time):
            raise SimulationError("scheduled time must be finite")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, which is before now={self.now:.6f}"
            )
        if not callable(callback):
            raise SimulationError(f"callback must be callable, got {callback!r}")
        timer = Timer(time, next(self._counter), callback, args, kwargs, self)
        heapq.heappush(self._queue, (time, timer.seq, timer))
        return timer

    def schedule_fast(self, delay: float, callback: Callable[..., Any], args: Tuple[Any, ...] = ()) -> None:
        """Fire-and-forget :meth:`schedule`: no Timer handle, no kwargs.

        This is the engine's hot path for events that are never cancelled
        (deliveries, service completions, store latencies).  Positional
        arguments are passed as a tuple.  The callback cannot be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        if not math.isfinite(time):
            raise SimulationError(f"scheduled time must be finite, got {time}")
        heapq.heappush(self._queue, (time, next(self._counter), callback, args))

    def schedule_at_fast(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...] = ()) -> None:
        """Fire-and-forget :meth:`schedule_at`: no Timer handle, no kwargs."""
        if not math.isfinite(time):
            raise SimulationError(f"scheduled time must be finite, got {time}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, which is before now={self.now:.6f}"
            )
        heapq.heappush(self._queue, (time, next(self._counter), callback, args))

    def push_fast(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """Unchecked :meth:`schedule_at_fast`, for the engine's per-event hop.

        Only for callers whose ``time`` is ``now`` plus a finite non-negative
        constant by construction (a service time, a channel latency, a FIFO
        bump past an earlier delivery): the two validity checks are then dead
        weight on the hottest call in a run.
        """
        heapq.heappush(self._queue, (time, next(self._counter), callback, args))

    def every(
        self,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
        start_at: Optional[float] = None,
        **kwargs: Any,
    ) -> "PeriodicTimer":
        """Schedule ``callback`` to run every ``period`` seconds until cancelled.

        The first firing happens after ``start_delay`` seconds (default: one
        full period), or at the absolute time ``start_at`` when given -- a
        caller resuming a chain it suspended passes the grid point it
        computed, so the resumed chain fires at bit-identical times.
        """
        return PeriodicTimer(
            self, period, callback, args, kwargs, start_delay=start_delay, start_at=start_at
        )

    # ------------------------------------------------------- heap inspection
    def next_timer_time(self, skip: Optional[Timer] = None) -> float:
        """Earliest pending *cancellable* (Timer) entry time; infinity if none.

        Fast-path (fire-and-forget) entries are ignored, and so is ``skip`` (a
        timer the caller is about to take over).  Used by the batch cascade to
        find the horizon below which no control-plane callback can preempt it.
        """
        return min(
            [
                entry[0] for entry in self._queue
                if len(entry) == 3 and not entry[2].cancelled and entry[2] is not skip
            ],
            default=math.inf,
        )

    def fast_entries(self) -> List[tuple]:
        """All pending fire-and-forget entries ``(time, seq, callback, args)``.

        Returned in heap (arbitrary) order without removing them; callers that
        need chronological order must sort by ``(time, seq)`` themselves.  Used
        by the batch cascade to inspect in-flight work before ingesting it.
        """
        return [entry for entry in self._queue if len(entry) == 4]

    def remove_fast_entries(self) -> None:
        """Drop every fire-and-forget entry from the heap (timers survive).

        Only meaningful right after :meth:`fast_entries`, when the caller has
        taken ownership of all in-flight fast-path work (the batch cascade
        replays it inside its own sweep).  In place: run() keeps a local
        reference to the heap list.
        """
        live = [entry for entry in self._queue if len(entry) != 4]
        self._queue[:] = live
        heapq.heapify(self._queue)

    # -------------------------------------------------- cancellation plumbing
    def _note_cancelled(self) -> None:
        """A pending Timer was cancelled; compact the heap if they pile up."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled timers (pop order is unchanged).

        In place: run() keeps a local reference to the heap list, so the list
        object must survive compaction.
        """
        live = [entry for entry in self._queue if len(entry) == 4 or not entry[2].cancelled]
        self._queue[:] = live
        heapq.heapify(self._queue)
        self._cancelled_in_heap = 0
        self.compactions += 1

    # ---------------------------------------------------------------- running
    def step(self, until: float = math.inf) -> bool:
        """Execute the next pending event, unless it lies beyond ``until``.

        Returns ``True`` if an event was executed, ``False`` if there was
        none to execute (only cancelled timers, nothing at all, or nothing
        up to ``until``).
        """
        queue = self._queue
        while queue and queue[0][0] <= until:
            entry = heapq.heappop(queue)
            if len(entry) == 4:
                self.now = entry[0]
                self._processed += 1
                entry[2](*entry[3])
                return True
            timer = entry[2]
            if timer.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self.now = timer.time
            timer.fired = True
            self._processed += 1
            timer.callback(*timer.args, **timer.kwargs)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once simulated time would advance beyond this value.  The
            clock is left at ``until`` (if provided and finite) or at the time
            of the last executed event.  Infinity is the same as no bound; NaN
            and a bound before ``now`` are refused (:class:`SimulationError`),
            as :meth:`schedule_at` refuses the past.
        max_events:
            Safety valve: stop after this many callbacks.

        The loop body is the whole-experiment hot path: entries are popped
        inline (no step() call) with the heap and heappop bound to locals and
        the processed counter accumulated locally (flushed on exit -- the
        ``processed_events`` property is a between-runs statistic, not a
        mid-callback one).  A missing ``until`` is infinity, so the bounded
        and unbounded forms share the body; counting callbacks inside it
        costs every run 3 % (measured), so ``max_events`` takes one
        :meth:`step` per callback instead.  Compaction swaps heap contents in
        place, so the local ``queue`` binding stays valid throughout.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is not None:
            if math.isnan(until):
                raise SimulationError("run bound must be a number, got nan")
            if until < self.now:
                raise SimulationError(
                    f"cannot run until t={until:.6f}, which is before now={self.now:.6f}"
                )
            if until == math.inf:
                until = None  # unbounded: the clock stays at the last event
        self._running = True
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        processed = self._processed
        bound = math.inf if until is None else until
        self.run_until = until
        try:
            if max_events is None:
                while queue and not self._stopped:
                    entry = queue[0]
                    if entry[0] > bound:
                        break
                    heappop(queue)
                    if len(entry) == 4:
                        # Fast-path entry: (time, seq, callback, args).
                        self.now = entry[0]
                        processed += 1
                        entry[2](*entry[3])
                    else:
                        timer = entry[2]
                        if timer.cancelled:
                            self._cancelled_in_heap -= 1
                            continue
                        self.now = entry[0]
                        timer.fired = True
                        processed += 1
                        timer.callback(*timer.args, **timer.kwargs)
            else:
                for _ in range(max_events):
                    if self._stopped or not self.step(bound):
                        break
                processed = self._processed
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._processed = processed
            self._running = False
            self.run_until = None

    def stop(self) -> None:
        """Request the current :meth:`run` invocation to stop after the current event."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={self.pending_events})"


class PeriodicTimer:
    """Repeating timer built on top of :class:`Simulator`.

    Used for the checkpoint coordinator's periodic checkpoint waves, the
    aggressive 1-second INIT re-sends of DCR/CCR, source-task event generation,
    and metric sampling.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
        start_delay: Optional[float] = None,
        start_at: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        if start_delay is not None and start_at is not None:
            raise SimulationError("give start_delay or start_at, not both")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._args = args
        self._kwargs = kwargs or {}
        self._cancelled = False
        self.fire_count = 0
        if start_at is not None:
            self._timer = sim.schedule_at(start_at, self._fire)
        else:
            self._timer = sim.schedule(period if start_delay is None else start_delay, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fire_count += 1
        self._callback(*self._args, **self._kwargs)
        if not self._cancelled:
            self._timer = self._sim.schedule(self.period, self._fire)

    def cancel(self) -> None:
        """Stop future firings.  Idempotent."""
        self._cancelled = True
        if self._timer is not None:
            self._timer.cancel()

    @property
    def active(self) -> bool:
        """Whether the periodic timer will continue to fire."""
        return not self._cancelled

    @property
    def pending(self) -> Timer:
        """The kernel timer of the next firing."""
        return self._timer
