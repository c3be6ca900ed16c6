"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import inspect
import math

import pytest

from repro.sim import PeriodicTimer, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_execute_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "last")
        sim.run()
        assert fired == ["early", "late", "last"]

    def test_ties_execute_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(4.25, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(4.25)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_non_callable_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, "not-callable")

    def test_a_callback_takes_positional_arguments_only(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda *args: seen.append(args), 1, "x")
        sim.run()
        assert seen == [(1, "x")]
        with pytest.raises(TypeError):
            sim.schedule(1.0, lambda **kw: None, a=1)
        with pytest.raises(TypeError):
            sim.schedule_at(1.0, lambda **kw: None, a=1)

    def test_callback_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(1.0, chain, 1)
        sim.run()
        assert fired == [1, 2, 3, 4, 5]
        assert sim.now == pytest.approx(5.0)


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == pytest.approx(5.0)
        assert sim.pending_events == 1

    def test_run_until_then_continue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_max_events_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_counts_callbacks_and_respects_until(self):
        sim = Simulator()
        fired = []
        cancelled = sim.schedule(0.5, fired.append, "never")
        cancelled.cancel()  # skipped, not counted
        for i in range(5):
            sim.push_fast(float(i + 1), fired.append, (i,))
        sim.run(until=2.5, max_events=4)
        assert fired == [0, 1]  # the time bound ends the run first
        assert sim.now == 2.5 and sim.processed_events == 2
        sim.run(max_events=2)
        assert fired == [0, 1, 2, 3] and sim.processed_events == 4

    def test_an_infinite_bound_is_no_bound_on_a_swept_runtime(self):
        """``run(until=inf)`` is ``run()``: the clock stays at the last event
        and the stepper, which has no horizon to sweep to, declines the tick
        (it used to overflow computing an emission schedule to infinity, and
        the per-event engine left ``now`` at infinity)."""
        from repro.dataflow import topologies
        from repro.engine.config import RuntimeConfig
        from repro.engine.runtime import TopologyRuntime
        from tests.conftest import build_cluster

        sim = Simulator()
        runtime = TopologyRuntime(
            topologies.diamond(), build_cluster(sim, worker_vms=6), sim=sim,
            config=RuntimeConfig.for_dcr(seed=2018),
        )
        runtime.deploy()
        runtime.start()
        sim.run(until=30.0)
        assert runtime.batch_stepper.cascades > 0
        sim.run(until=math.inf, max_events=500)
        assert 30.0 < sim.now < math.inf and sim.run_until is None
        assert runtime.batch_stepper.declines["unbounded-run"] > 0
        sim.schedule(1.0, lambda: None)  # the clock is still usable

    def test_a_nan_bound_is_refused(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until=math.nan)
        assert sim.now == 0.0 and sim.pending_events == 1
        sim.run()  # still usable: the refusal left nothing running

    def test_a_bound_before_now_is_refused(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError, match="before now"):
            sim.run(until=4.0)
        assert sim.now == 5.0
        sim.run(until=5.0)  # the present is not the past

    def test_step_stops_at_its_bound(self):
        sim = Simulator()
        fired = []
        sim.push_fast(1.0, fired.append, ("a",))
        assert sim.step(until=0.5) is False and fired == []
        assert sim.step(until=1.0) is True and fired == ["a"]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestTimerCancellation:
    def test_cancelled_timer_does_not_fire(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, fired.append, "x")
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        sim.run()
        assert not timer.fired

    def test_fired_reflects_lifecycle(self):
        sim = Simulator()
        ran = sim.schedule(1.0, lambda: None)
        dropped = sim.schedule(1.0, lambda: None)
        dropped.cancel()
        assert not ran.fired and not ran.cancelled
        sim.run()
        assert ran.fired and not ran.cancelled
        assert dropped.cancelled and not dropped.fired


class TestPeriodicTimer:
    def test_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now))
        sim.run(until=5.5)
        assert fired == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])

    def test_args_are_passed_and_nothing_else_is_settable(self):
        sim = Simulator()
        fired = []
        sim.every(2.0, fired.append, "tick")
        sim.run(until=5.0)
        assert fired == ["tick", "tick"]
        # The first firing is one period away or at ``start_at``; a callback
        # takes positional arguments only.
        assert list(inspect.signature(Simulator.every).parameters) == [
            "self", "period", "callback", "args", "start_at",
        ]
        with pytest.raises(TypeError):
            sim.every(2.0, fired.append, start_delay=0.5)
        with pytest.raises(TypeError):
            sim.every(2.0, fired.append, value="tick")

    def test_absolute_start_resumes_a_chain_on_its_grid(self):
        # A chain cancelled after its third firing and resumed with
        # start_at = the next grid point fires at bit-identical times.
        def firings(suspend):
            sim = Simulator()
            sim.run(until=0.3)
            fired = []
            timer = sim.every(0.01, lambda: fired.append(sim.now))
            if suspend:
                sim.run(until=0.335)
                timer.cancel()
                grid = fired[-1] + 0.01
                sim.run(until=0.3651)
                while grid < sim.now:
                    grid += 0.01
                sim.every(0.01, lambda: fired.append(sim.now), start_at=grid)
            sim.run(until=0.45)
            return fired

        whole, resumed = firings(False), firings(True)
        assert resumed == [t for t in whole if t < 0.335 or t >= 0.3651]
        assert len(resumed) < len(whole)

    def test_start_at_before_now_is_refused(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(1.0, lambda: None, start_at=-1.0)

    def test_cancel_stops_firing(self):
        sim = Simulator()
        fired = []
        timer = sim.every(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.5, timer.cancel)
        sim.run(until=10.0)
        assert fired == pytest.approx([1.0, 2.0])
        assert not timer.active

    def test_active_until_cancelled(self):
        sim = Simulator()
        timer = sim.every(1.0, lambda: None)
        sim.run(until=2.5)
        assert timer.active
        timer.cancel()
        assert not timer.active
        assert sim.pending_events == 0

    def test_zero_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_callback_cancelling_itself(self):
        sim = Simulator()
        fired = []
        holder = {}

        def once():
            fired.append(sim.now)
            holder["timer"].cancel()

        holder["timer"] = sim.every(1.0, once)
        sim.run(until=10.0)
        assert fired == pytest.approx([1.0])


class TestFastPathScheduling:
    def test_the_scheduling_entry_points(self):
        """One cancellable pair, one fire-and-forget entry, one periodic."""
        sim = Simulator()
        names = {name for name in dir(sim) if name.startswith(("schedule", "push", "every"))}
        assert names == {"schedule", "schedule_at", "push_fast", "every"}
        for gone in ("schedule_fast", "schedule_at_fast", "stop", "_stopped"):
            with pytest.raises(AttributeError):
                getattr(sim, gone)

    def test_push_fast_runs_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.push_fast(2.0, fired.append, ("late",))
        sim.push_fast(1.0, fired.append, ("early",))
        sim.run()
        assert fired == ["early", "late"]

    def test_push_fast_takes_an_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.run(until=1.0)
        sim.push_fast(3.5, fired.append, ("x",))
        sim.run()
        assert fired == ["x"]
        assert sim.now == pytest.approx(3.5)

    def test_fast_and_timer_entries_interleave_by_schedule_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "timer-first")
        sim.push_fast(1.0, fired.append, ("fast-second",))
        sim.schedule(1.0, fired.append, "timer-third")
        sim.run()
        assert fired == ["timer-first", "fast-second", "timer-third"]

    def test_fast_events_count_as_processed_and_pending(self):
        sim = Simulator()
        sim.push_fast(1.0, lambda: None, ())
        sim.push_fast(2.0, lambda: None, ())
        assert sim.pending_events == 2
        sim.run()
        assert sim.processed_events == 2
        assert sim.pending_events == 0

    def test_step_executes_fast_entries(self):
        sim = Simulator()
        fired = []
        sim.push_fast(1.0, fired.append, ("a",))
        assert sim.step() is True
        assert fired == ["a"]


class TestPendingEventAccounting:
    def test_pending_events_excludes_cancelled_timers(self):
        """Bugfix: cancelled timers still in the heap are not 'pending'."""
        sim = Simulator()
        timers = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        timers[0].cancel()
        timers[3].cancel()
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0
        assert sim.processed_events == 3

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        sim.run()
        timer.cancel()  # inert: already fired
        assert sim.pending_events == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert other.fired

    def test_periodic_timer_cancellation_does_not_leak_heap_entries(self):
        """Bugfix: long runs that re-arm and cancel periodic timers compact."""
        sim = Simulator()

        def churn():
            # Re-create a periodic timer every tick, cancelling the old one:
            # this is the elastic controller's re-arm pattern that used to
            # leave one dead heap entry per cancellation.
            if holder["drain"] is not None:
                holder["drain"].cancel()
            holder["drain"] = sim.every(50.0, lambda: None)

        holder = {"drain": None}
        driver = sim.every(0.01, churn)
        sim.run(until=20.0)
        driver.cancel()
        # ~2000 cancelled drain timers were created; compaction must keep the
        # heap near the live count instead of accumulating them all.
        assert sim.pending_events <= 2
        assert len(sim._queue) < 200

    def test_compaction_preserves_order_and_results(self):
        sim = Simulator()
        fired = []
        timers = [sim.schedule(1000.0 + i, fired.append, i) for i in range(300)]
        # Cancel all but every 29th; crossing the threshold triggers compaction.
        survivors = []
        for i, timer in enumerate(timers):
            if i % 29 == 0:
                survivors.append(i)
            else:
                timer.cancel()
        assert sim.pending_events == len(survivors)
        assert len(sim._queue) < 300  # compaction actually shrank the heap
        sim.run()
        assert fired == survivors
