"""Unit tests for source executors (rate, pause, backlog, replay, throttle) and sinks."""

from __future__ import annotations

import pytest

from tests.conftest import make_runtime, tiny_dataflow


def started_runtime(strategy="dcr", seed=7):
    runtime = make_runtime(strategy=strategy, seed=seed)
    runtime.start()
    return runtime


class TestSourceRate:
    def test_emission_rate_matches_configuration(self):
        runtime = started_runtime()
        runtime.sim.run(until=10.0)
        source = runtime.source_executors[0]
        # 10 ev/s for 10 s of simulated time.
        assert source.emitted_count == pytest.approx(100, abs=2)

    def test_emissions_are_logged(self):
        runtime = started_runtime()
        runtime.sim.run(until=5.0)
        assert len(runtime.log.source_emits) == runtime.source_executors[0].emitted_count

    def test_stop_halts_generation(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.stop_sources()
        emitted = runtime.source_executors[0].emitted_count
        runtime.sim.run(until=5.0)
        assert runtime.source_executors[0].emitted_count == emitted


class TestPauseAndBacklog:
    def test_pause_stops_emission_and_builds_backlog(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        source = runtime.source_executors[0]
        emitted_at_pause = source.emitted_count
        runtime.sim.run(until=5.0)
        assert source.emitted_count == emitted_at_pause
        assert source.backlog_size == pytest.approx(30, abs=2)

    def test_unpause_drains_backlog(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        runtime.sim.run(until=4.0)
        source = runtime.source_executors[0]
        backlog = source.backlog_size
        assert backlog > 0
        runtime.unpause_sources()
        runtime.sim.run(until=6.0)
        assert source.backlog_size == 0
        backlog_emits = [e for e in runtime.log.source_emits if e.from_backlog]
        assert len(backlog_emits) >= backlog

    def test_backlog_drains_faster_than_nominal_rate(self):
        runtime = started_runtime()
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        runtime.sim.run(until=6.0)
        runtime.unpause_sources()
        runtime.sim.run(until=7.0)
        # 40 backlogged events must drain within roughly a second at the burst
        # rate (200 ev/s in the fast test config), far above the 10 ev/s rate.
        emits_in_burst = runtime.log.emits_between(6.0, 7.0)
        assert len(emits_in_burst) > 20

    def test_unpause_without_pause_is_a_noop(self):
        runtime = started_runtime()
        runtime.sim.run(until=1.0)
        runtime.unpause_sources()
        runtime.sim.run(until=2.0)
        assert runtime.source_executors[0].emitted_count == pytest.approx(20, abs=2)


class TestReplayAndThrottle:
    def test_failed_roots_are_replayed_when_acking_enabled(self):
        runtime = started_runtime(strategy="dsm")
        runtime.sim.run(until=2.0)
        # Kill a middle task so downstream trees cannot complete.
        runtime.executor("b#0").kill()
        runtime.executor("b#1").kill()
        runtime.sim.run(until=12.0)  # past the 5 s fast ack timeout
        replays = [e for e in runtime.log.source_emits if e.replay_count > 0]
        assert replays
        assert runtime.source_executors[0].replayed_count == len(replays)

    def test_no_replays_without_acking(self):
        runtime = started_runtime(strategy="dcr")
        runtime.sim.run(until=2.0)
        runtime.executor("b#0").kill()
        runtime.executor("b#1").kill()
        runtime.sim.run(until=12.0)
        assert runtime.log.replay_emits == 0

    def test_completed_roots_are_dropped_from_replay_cache(self):
        runtime = started_runtime(strategy="dsm")
        runtime.sim.run(until=5.0)
        source = runtime.source_executors[0]
        # All roots processed end-to-end should have been acked and evicted;
        # only the most recent in-flight ones may remain cached.
        assert len(source._cache) < 10

    def test_max_spout_pending_throttles_emission(self):
        runtime = started_runtime(strategy="dsm")
        runtime.reliability.max_spout_pending = 10
        runtime.sim.run(until=1.0)
        # Break the dataflow so nothing acks; pending grows to the small cap.
        runtime.executor("a#0").kill()
        runtime.sim.run(until=4.9)  # before the 5 s ack timeout fires
        assert runtime.acker.pending_count <= 10
        source = runtime.source_executors[0]
        # By default the throttle is work-conserving: ticks go to the backlog.
        assert source.backlog_size > 0
        assert source.skipped_ticks == 0
        assert source.emitted_count < 49

    def test_throttled_ticks_can_be_skipped(self):
        runtime = started_runtime(strategy="dsm")
        runtime.reliability.max_spout_pending = 10
        runtime.reliability.throttled_ticks_generate_backlog = False
        runtime.sim.run(until=1.0)
        runtime.executor("a#0").kill()
        runtime.sim.run(until=4.9)
        source = runtime.source_executors[0]
        # A purely rate-limited spout never generates the throttled ticks.
        assert source.skipped_ticks > 0
        assert source.backlog_size == 0

    def test_replay_preserves_root_identity(self):
        runtime = started_runtime(strategy="dsm")
        runtime.sim.run(until=2.0)
        runtime.executor("b#0").kill()
        runtime.executor("b#1").kill()
        runtime.sim.run(until=12.0)
        replays = [e for e in runtime.log.source_emits if e.replay_count > 0]
        first_emits = {e.root_id for e in runtime.log.source_emits if e.replay_count == 0}
        assert all(r.root_id in first_emits for r in replays)


class TestSink:
    def test_sink_records_latency_relative_to_emission(self):
        runtime = started_runtime()
        runtime.sim.run(until=5.0)
        for receipt in runtime.log.sink_receipts:
            assert receipt.latency_s > 0.0
            assert receipt.time > receipt.root_emitted_at

    def test_sink_receives_every_root_exactly_once_in_steady_state(self):
        runtime = started_runtime()
        runtime.sim.run(until=10.0)
        roots_received = [r.root_id for r in runtime.log.sink_receipts]
        assert len(roots_received) == len(set(roots_received))


# --------------------------------------------------------------------------
# Wake-on-ack: the event-driven spout throttle against the polling loop
# --------------------------------------------------------------------------
# A throttled spout used to poll ``max.spout.pending`` at every point of its
# drain grid; it now parks and is re-armed by the events that can change the
# poll's outcome.  ``PollingSpout`` keeps the old loop as the reference, and
# the two are run over generated schedules.  On the per-event kernel
# everything observable must be bit-equal, only the kernel-event count may
# differ -- by exactly the polls the reference spent finding the spout still
# throttled.  Under batch stepping the reference stays on the per-event kernel
# (the stepper sweeps no executor subclass) and the two must agree on
# everything but the acker's ``bulk_*`` break-outs (which engine absorbed an
# ack), event ids included.  The stepper's cost rule declines a window of fewer than
# ``_MIN_WINDOW_ROOTS`` roots: at a pending cap of 1 or 4, or below ≈ 11 ev/s
# under the 1.5 s ack timeout, its leg is the kernel plus the rule, and only
# the schedules the rule lets through are required to have cascaded.
#
# Cascades also start mid-backlog: an uncapped spout's drain is part of the
# sweep, and one held at its cap is swept while the first hop holds more work
# than the window (``batch._first_hop_slack``), its emissions derived from the
# completions of the trees the sweep adopted.  A 6 s ack timeout and a cap of
# 40 keep a 40 ev/s spout on such a drain for seconds after a pause; the
# ``wide`` dataflow's two first-hop instances complete out of phase, two trees
# inside one 10 ms poll.

import inspect
import math
import textwrap
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dataflow.event as event_module
import repro.engine.batch as batch_module
import repro.engine.executor as executor_module
import repro.engine.router as router_module
import repro.engine.runtime as runtime_module
from repro.dataflow import topologies
from repro.engine.executor import ExecutorStatus, SourceExecutor
from repro.engine.runtime import TopologyRuntime
from repro.reliability.acker import AckerService
from repro.sim import Simulator
from repro.sim.shard import log_digest
from repro.dataflow.builder import TopologyBuilder
from repro.workloads.profiles import StepProfile
from tests.conftest import build_cluster, fast_config
from tests.test_batch_equivalence import acker_facts

BURST_RATE = 100.0  # the 10 ms drain grid of the paper's timing model
DURATION_S = 6.0
ACK_TIMEOUT_S = 1.5


class PollingSpout(SourceExecutor):
    """The reference: a throttled poll does nothing and the chain keeps ticking.

    It also counts what the event-driven spout must account for: throttled
    polls, and *streaks* of them -- maximal runs with none of the events in
    between that re-arm a parked chain (a tree completing or failing, a
    pause, a kill).  The event-driven spout parks once per streak and skips
    the streak's other polls.  Polls of a spout generating at or above its
    burst rate are left out: there both spouts keep polling.
    """

    __slots__ = ("throttled_polls", "throttled_streaks", "_in_streak")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.throttled_polls = 0
        self.throttled_streaks = 0
        self._in_streak = False

    def _drain_tick(self):
        if self.paused or self.status is not ExecutorStatus.RUNNING:
            self._stop_drain_timer()
            return
        if self._throttled():
            if self._emit_timer is not None and self.rate >= BURST_RATE:
                # The regime that keeps polling either way.
                self._in_streak = False
                return
            self.throttled_polls += 1
            if not self._in_streak:
                self._in_streak = True
                self.throttled_streaks += 1
            return
        self._in_streak = False
        if self._replay_queue:
            self._emit_replay(self._replay_queue.popleft())
            return
        if self._backlog:
            self._emit_new(self._backlog.popleft(), from_backlog=True)
            return
        self._stop_drain_timer()

    def _wake_drain(self):  # never parked; called exactly where a parked chain re-arms
        self._in_streak = False

    def _stop_drain_timer(self):
        self._in_streak = False
        super()._stop_drain_timer()


def mutant_spout(method, old, new):
    """``SourceExecutor`` with ``method`` recompiled after a seeded text replacement."""
    source = textwrap.dedent(inspect.getsource(getattr(SourceExecutor, method)))
    assert old in source, f"mutation site {old!r} is gone from SourceExecutor.{method}"
    namespace = dict(vars(executor_module))
    exec(compile(source.replace(old, new), f"<mutant {method}>", "exec"), namespace)
    return type("MutantSpout", (SourceExecutor,), {"__slots__": (), method: namespace[method]})


def wide_dataflow(rate):
    """``tiny_dataflow``'s executor ids over a two-instance first hop."""
    builder = TopologyBuilder("wide")
    builder.add_source("source", rate=rate)
    builder.add_task("a", parallelism=2, latency_s=0.04, stateful=True)
    builder.add_task("b", parallelism=2, latency_s=0.02, stateful=True)
    builder.add_task("c", parallelism=1, latency_s=0.01)
    builder.add_sink("sink")
    builder.chain("source", "a", "b", "c", "sink")
    return builder.build()


def revive(runtime, executor_id):
    """Bring a killed executor back in place, initialized."""
    executor = runtime.executor(executor_id)
    if executor.status is ExecutorStatus.KILLED:
        executor.become_ready()
        executor.initialized = True
        runtime._make_ready(executor_id)  # hands over what the transport held


def run_schedule(spout_cls, schedule, stepper=False):
    """Run one generated schedule with ``spout_cls`` as the source executor, on
    the per-event kernel or with the batch stepper taking the ticks it wants."""
    config = fast_config("dsm", ack_timeout_s=schedule.get("timeout", ACK_TIMEOUT_S))
    config.timing.source_max_burst_rate = BURST_RATE
    config.reliability.max_spout_pending = schedule["pending"]
    config.reliability.throttled_ticks_generate_backlog = schedule["backlog"]
    config.batch_stepping = stepper
    sim = Simulator()
    dataflow = (wide_dataflow if schedule.get("dag") == "wide" else tiny_dataflow)(
        rate=schedule["rate"]
    )
    # A "rate" action is a step of the source's rate profile: the emit tick
    # after it re-arms at the new rate.
    steps = [(at_ms / 1000.0, args[0]) for at_ms, name, *args in schedule["actions"] if name == "rate"]
    if steps:
        dataflow.task("source").profile = StepProfile(steps=[(0.0, schedule["rate"])] + steps)
    runtime = TopologyRuntime(dataflow, build_cluster(sim), sim=sim, config=config)
    runtime_module.SourceExecutor = spout_cls
    try:
        runtime.deploy()
    finally:
        runtime_module.SourceExecutor = SourceExecutor
    source = runtime.source_executors[0]
    assert type(source) is spout_cls

    def kill(executor_id):
        executor = runtime.executor(executor_id)
        if executor.status is ExecutorStatus.RUNNING:
            executor.kill()

    actions = {
        "kill": kill,
        "revive": lambda executor_id: revive(runtime, executor_id),
        "pause": lambda: source.pause(),
        "unpause": lambda: source.unpause(),
        "source_kill": lambda: kill(source.executor_id),
        "source_ready": lambda: source.become_ready(),
        "stop": lambda: source.stop(),
    }
    for at_ms, name, *args in schedule["actions"]:
        if name != "rate":
            sim.schedule_at(at_ms / 1000.0, actions[name], *args)
    runtime.start()
    sim.run(until=DURATION_S)
    log = runtime.log
    observed = {
        "emits": [(e.time, e.root_id, e.replay_count, e.from_backlog) for e in log.source_emits],
        "receipts": [(r.time, r.root_id, r.event_id, r.replay_count) for r in log.sink_receipts],
        "lifecycle": [(r.time, r.executor_id, r.status) for r in log.lifecycle],
        "counters": (source.emitted_count, source.replayed_count, source.skipped_ticks,
                     source.backlog_size, len(source._replay_queue), source._sequence,
                     runtime.router.routed_count),
        # The drain chain as the run's end finds it: parked at / polling next at.
        "chain": (source._drain_next, source.drain_poll and source.drain_poll.time),
        "acker": (acker_facts(runtime), list(runtime.acker.failed_roots)),
        "digest": log_digest(log),
    }
    return observed, runtime


def check_schedule(schedule, spout_cls=SourceExecutor):
    """The differential property for one schedule, on both engines; returns
    the cascades the stepper ran (0 when ``spout_cls`` never got to it)."""
    # On the per-event kernel everything observable is bit-equal.
    expected, reference = run_schedule(PollingSpout, schedule)
    observed, runtime = run_schedule(spout_cls, schedule)
    del expected["chain"]  # the reference never parks; the stepper's leg checks it
    chain = observed.pop("chain")
    for key in expected:
        assert observed[key] == expected[key], (key, schedule)
    polling = reference.source_executors[0]
    spout = runtime.source_executors[0]
    # One park per streak of throttled polls, never a wake without a park.
    assert spout.drain_parks == polling.throttled_streaks, schedule
    assert spout.drain_wakes <= spout.drain_parks
    # Every other poll of a streak is a kernel event that did not run.
    saved = reference.sim.processed_events - runtime.sim.processed_events
    assert saved == polling.throttled_polls - polling.throttled_streaks, schedule
    if spout_cls is not SourceExecutor:
        return 0  # the stepper sweeps no executor subclass: its leg would be the kernel again
    # Under batch stepping the reference is still the polling spout on the
    # per-event kernel, and the two agree -- through the loss windows too,
    # where the same trees must fail and be replayed at the same times.
    observed, runtime = run_schedule(spout_cls, schedule, stepper=True)
    assert observed.pop("chain") == chain, ("chain", "stepper", schedule)
    for key in expected:
        assert observed[key] == expected[key], (key, "stepper", schedule)
    parks = runtime.source_executors[0].drain_parks
    assert parks == reference.source_executors[0].throttled_streaks, ("stepper", schedule)
    return runtime.batch_stepper.cascades


_AT_MS = st.integers(min_value=100, max_value=int(DURATION_S * 1000) - 100)
_EXECUTORS = st.sampled_from(["a#0", "b#0", "b#1", "c#0"])


@st.composite
def _action_lists(draw):
    actions = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(
            ["outage", "pause", "long_pause", "source_outage", "stop", "rate", "source_ready"]
        ))
        at = draw(_AT_MS)
        if kind == "outage":  # trees through the victim time out and replay
            victim = draw(_EXECUTORS)
            actions.append((at, "kill", victim))
            actions.append((at + draw(st.integers(50, 2500)), "revive", victim))
        elif kind == "pause":  # gaps from inside one 10 ms poll period upwards
            actions.append((at, "pause"))
            actions.append((at + draw(st.integers(1, 400)), "unpause"))
        elif kind == "long_pause":  # a backlog that takes seconds to drain at the cap
            actions.append((at, "pause"))
            actions.append((at + draw(st.integers(500, 2500)), "unpause"))
        elif kind == "source_outage":
            actions.append((at, "source_kill"))
            actions.append((at + draw(st.integers(1, 400)), "source_ready"))
        elif kind == "rate":
            actions.append((at, "rate", draw(st.sampled_from(_RATES))))
        else:
            actions.append((at, kind))
    return sorted(a for a in actions if a[0] < DURATION_S * 1000)


#: 10/20/50 ev/s put emit ticks on drain-grid points; at 100 and 200 the two
#: chains share a period and tie at every tick.
_RATES = (8.0, 10.0, 20.0, 40.0, 50.0, 100.0, 200.0)

_SCHEDULES = st.fixed_dictionaries({
    "pending": st.sampled_from([1, 4, 40, 96, None]),
    "backlog": st.booleans(),
    "rate": st.sampled_from(_RATES),
    "timeout": st.sampled_from([ACK_TIMEOUT_S, 6.0]),
    "dag": st.sampled_from(["tiny", "wide"]),
    "actions": _action_lists(),
})


@settings(max_examples=40, deadline=None)
@given(schedule=_SCHEDULES)
def test_wake_on_ack_matches_the_polling_spout(schedule):
    cascades = check_schedule(schedule)
    first_action_s = min((action[0] / 1000.0 for action in schedule["actions"]), default=math.inf)
    # The first emit tick finds the runtime as it was started, and its window
    # runs to the first action or the ack timeout, whichever is first.
    window_s = min(first_action_s - 1.0 / schedule["rate"], schedule["timeout"])
    floor = batch_module._MIN_WINDOW_ROOTS
    if window_s * schedule["rate"] >= floor and (schedule["pending"] or floor) >= floor:
        # ... which the cost rule lets through: the stepper leg did compare
        # the stepper, not the kernel with itself.
        assert cascades > 0, ("stepper never engaged", schedule)


#: Schedules that open with a pause long enough to leave a drain of seconds,
#: whatever else happens during it.
_DRAINS = st.fixed_dictionaries({
    "pending": st.sampled_from([24, 40, 96, None]),
    "backlog": st.just(True),
    "rate": st.sampled_from([20.0, 40.0, 50.0]),
    "timeout": st.just(6.0),
    "dag": st.sampled_from(["tiny", "wide"]),
    "actions": st.builds(
        lambda at, gap, rest: sorted([(at, "pause"), (at + gap, "unpause")] + rest),
        st.integers(300, 1500), st.integers(800, 2500), _action_lists(),
    ),
})


@settings(max_examples=25, deadline=None)
@given(schedule=_DRAINS)
def test_a_swept_drain_matches_the_polling_spout(schedule):
    check_schedule(schedule)


#: Fixed schedules the generated ones shrink towards: a spout held at a cap of
#: one or four by a saturated pipeline (parks and wakes on every tree), an
#: outage that loses every pending tree, so only their timeouts -- ``replay``
#: -- can re-arm the chain, and two spouts driven past the pipeline's capacity
#: at the paper's cap of 96, where trees time out while their events are still
#: queued and the stragglers of a failed tree ack into its replay (late acks:
#: a replay's ids are salted apart from the first emission's).
#: The last two put an outage and a pause inside windows the stepper sweeps.
_CORPUS = (
    {"pending": 1, "backlog": True, "rate": 50.0, "actions": []},
    {"pending": 4, "backlog": False, "rate": 20.0,
     "actions": [(1000, "kill", "a#0"), (4000, "revive", "a#0")]},
    {"pending": 4, "backlog": True, "rate": 50.0,
     "actions": [(1503, "pause"), (1507, "unpause"), (2000, "kill", "b#0"), (2600, "revive", "b#0"),
                 (3001, "source_kill"), (3005, "source_ready"), (5000, "stop")]},
    {"pending": 96, "backlog": True, "rate": 200.0, "actions": []},
    {"pending": 96, "backlog": False, "rate": 8.0,
     "actions": [(100, "pause"), (100, "rate", 100.0), (101, "unpause")]},
    {"pending": 96, "backlog": True, "rate": 20.0,
     "actions": [(1000, "kill", "b#1"), (3200, "revive", "b#1")]},
    {"pending": 96, "backlog": False, "rate": 50.0,
     "actions": [(1503, "pause"), (1507, "unpause"), (2000, "kill", "c#0"), (2600, "revive", "c#0"),
                 (3001, "source_kill"), (3005, "source_ready"), (5000, "stop")]},
)


#: Cascades that start mid-backlog.  A pause leaves a 40 ev/s spout 60 entries
#: it drains at its cap of 40 behind a first hop that serves 50 a second: the
#: drain is swept window by window and runs dry inside one; the ``wide`` first
#: hop's two instances complete trees inside one 10 ms poll; a pause and a
#: source kill end drain windows early; an uncapped spout drains at the burst
#: rate inside an ordinary window; and the last runs the paper's cap of 96
#: against the 1.5 s ack timeout, which bounds every window.
_DRAIN_CORPUS = (
    {"pending": 40, "backlog": True, "rate": 40.0, "timeout": 6.0,
     "actions": [(1000, "pause"), (2500, "unpause")]},
    {"pending": 40, "backlog": True, "rate": 40.0, "timeout": 6.0, "dag": "wide",
     "actions": [(1000, "pause"), (2500, "unpause")]},
    {"pending": 40, "backlog": True, "rate": 40.0, "timeout": 6.0, "dag": "wide",
     "actions": [(500, "pause"), (2000, "unpause"), (3503, "pause"), (3507, "unpause"),
                 (4501, "source_kill"), (4505, "source_ready")]},
    {"pending": 96, "backlog": True, "rate": 50.0, "timeout": 6.0,
     "actions": [(500, "pause"), (2500, "unpause")]},
    {"pending": None, "backlog": True, "rate": 20.0, "timeout": 6.0,
     "actions": [(1000, "pause"), (2500, "unpause")]},
    {"pending": 96, "backlog": True, "rate": 40.0,
     "actions": [(1000, "pause"), (2500, "unpause")]},
)


def mutant(function, old, new):
    """A module-level function or a method recompiled after a seeded text replacement."""
    source = textwrap.dedent(inspect.getsource(function))
    assert old in source, f"mutation site {old!r} is gone from {function.__qualname__}"
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source.replace(old, new), f"<mutant {function.__name__}>", "exec"), namespace)
    return namespace[function.__name__]


def test_mid_backlog_cascades_match_and_seeded_mutations_fail(monkeypatch):
    held = []
    emit_held = batch_module._Sweep.emit_held
    monkeypatch.setattr(
        batch_module._Sweep, "emit_held",
        lambda sweep, emission: (held.append(len(emission.ticks)), emit_held(sweep, emission)),
    )

    def corpus():
        swept = []
        for schedule in _DRAIN_CORPUS:
            held.clear()
            swept.append((check_schedule(schedule), len(held)))
        return swept

    swept = corpus()
    assert all(cascades > 0 for cascades, _ in swept)
    # Windows whose emissions followed the adopted trees' completions: every
    # capped schedule has them, the uncapped one needs none.
    assert [windows > 0 for _, windows in swept] == [True, True, True, True, False, True]

    # Emitting when the tree completes instead of at the drain grid's next poll.
    off_grid = mutant(
        batch_module._emission_schedule,
        "while poll < done:\n                    poll += period", "poll = done",
    )
    # A poll that emits two entries.
    greedy = mutant(
        batch_module._emission_schedule,
        "emitted.append(due)", "emitted.append(due); backlog and emitted.append(due)",
    )
    for schedule in (off_grid, greedy):
        with monkeypatch.context() as patch:
            patch.setattr(batch_module, "_emission_schedule", schedule)
            with pytest.raises(AssertionError, match="stepper"):
                corpus()
    # No clamp to the first hop's slack: a root emitted in the window is served
    # in it, and its tree completes without the schedule having heard of it.
    unclamped = mutant(
        batch_module.BatchStepper._cascade, "horizon = min(horizon, slack)", "pass"
    )
    monkeypatch.setattr(batch_module.BatchStepper, "_cascade", unclamped)
    with pytest.raises(AssertionError, match="stepper"):
        corpus()


def test_the_corpus_passes_and_seeded_mutations_fail_it():
    engaged = [check_schedule(schedule) > 0 for schedule in _CORPUS]
    # A cap below the cost rule's floor never holds a window worth a sweep.
    assert engaged == [schedule["pending"] == 96 for schedule in _CORPUS]
    assert engaged.count(True) >= 4

    def corpus_with(spout_cls):
        for schedule in _CORPUS:
            check_schedule(schedule, spout_cls)

    # Waking at `now` instead of the grid point: the chain leaves its grid.
    off_grid = mutant_spout("_wake_drain", "start_at=grid", "start_at=now")
    with pytest.raises(AssertionError):
        corpus_with(off_grid)

    # No wake from `replay`: once every pending tree has failed, nothing
    # completes any more and the parked spout never emits again.
    deaf_to_failures = mutant_spout("replay", "self._wake_drain()", "pass")
    with pytest.raises(AssertionError):
        corpus_with(deaf_to_failures)

    # Waking while still throttled (every throttled emit tick re-arms the
    # chain): same logs, but the polls come back.
    restless = mutant_spout(
        "_ensure_drain_timer", "return  # parked", "self._wake_drain(); return  # parked"
    )
    with pytest.raises(AssertionError):
        corpus_with(restless)


# --------------------------------------------------------------------------
# Ids cannot XOR-collapse
# --------------------------------------------------------------------------
# The acker calls a tree complete when the XOR of its ids is zero, which is
# right only if no set of a tree's outstanding ids cancels by value.  The
# reference acker XORs one bit per distinct id instead, so it cannot collapse;
# DSM runs that lose what every executor holds must match it on either
# engine.  A per-hop step merely additive in the outbox position brings back
# the cancellation of sequential ids (``8 ^ 9 ^ 12 ^ 13 == 0``: the ids ``k ..
# k + 3`` of Grid's four-way fan-out XOR to zero for every even ``k``) and is
# caught.


class SetAcker(AckerService):
    """The XOR acker over one bit per distinct id: nothing to alias."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bits = {}

    def anchor(self, root_id, event_id):
        super().anchor(root_id, self.bits.setdefault(event_id, 1 << len(self.bits)))

    def ack(self, root_id, event_id):
        super().ack(root_id, self.bits.setdefault(event_id, 1 << len(self.bits)))


def run_lossy(dag, stepper=False, acker_cls=AckerService):
    """A DSM run of a paper dataflow whose user executors are all down from
    10 s to 12 s, as a rebalance takes them: what they held is lost."""
    config = fast_config("dsm")
    config.batch_stepping = stepper
    sim = Simulator()
    runtime = TopologyRuntime(
        getattr(topologies, dag)(), build_cluster(sim, worker_vms=11), sim=sim, config=config
    )
    runtime.acker = acker_cls(sim, 5.0, runtime._tree_completed, runtime._tree_failed)
    runtime.deploy()
    for victim in runtime.user_executors:
        sim.schedule_at(10.0, victim.kill)
        sim.schedule_at(12.0, revive, runtime, victim.executor_id)
    runtime.start()
    sim.run(until=40.0)
    return runtime


def check_no_collapse(dag):
    reference = run_lossy(dag, acker_cls=SetAcker)
    assert acker_facts(reference)[2] > 0, ("the outage must replay", dag)
    for stepper in (False, True):
        runtime = run_lossy(dag, stepper)
        log = runtime.log
        receipts = Counter((r.root_id, r.replay_count, r.event_id) for r in log.sink_receipts)
        assert max(receipts.values()) == 1, ("a tree's receipt ids repeat", dag, stepper)
        assert acker_facts(runtime) == acker_facts(reference), ("acker", dag, stepper)
        assert log_digest(log) == log_digest(reference.log), ("log", dag, stepper)
        assert not stepper or runtime.batch_stepper.cascades > 0, dag


def test_ids_cannot_xor_collapse_and_an_additive_step_does(monkeypatch):
    dags = ("diamond", "grid", "traffic")
    for dag in dags:
        check_no_collapse(dag)
    additive = mutant(
        event_module.child_event_id,
        "z = parent ^ channel * _MIX2\n    if index:\n        z ^= index * _MIX1\n    z *= _GOLDEN",
        "z = parent * _GOLDEN + channel + index",
    )
    for module in (event_module, router_module, batch_module):
        monkeypatch.setattr(module, "child_event_id", additive)
    with pytest.raises(AssertionError, match="acker"):
        for dag in dags:
            check_no_collapse(dag)


def test_a_stalled_throttled_spout_schedules_no_timer():
    runtime = started_runtime(strategy="dsm")
    runtime.reliability.max_spout_pending = 1
    sim = runtime.sim
    source = runtime.source_executors[0]
    sim.run(until=1.0)
    runtime.executor("a#0").kill()  # the pipeline stalls: nothing acks any more
    sim.run(until=3.0)

    def drain_polls_in_heap():
        return [
            entry for entry in sim._queue
            if len(entry) == 3 and not entry[2].cancelled
            and getattr(getattr(entry[2].callback, "__self__", None), "_callback", None)
            == source._drain_tick
        ]

    assert source._throttled() and source.backlog_size > 0
    assert source._drain_timer is None and source.drain_parks >= 1
    assert drain_polls_in_heap() == []
    events_while_stalled = sim.processed_events
    sim.run(until=4.0)
    # One second of stall costs the emit ticks and nothing else (was +200 polls).
    assert sim.processed_events - events_while_stalled <= 12
    # The pending tree times out (5 s after its emission): replay re-arms the chain.
    sim.run(until=7.0)
    assert source.drain_wakes >= 1
    assert source.replayed_count >= 1
