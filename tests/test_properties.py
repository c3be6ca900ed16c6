"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.cluster.cloud import CloudProvider, Cluster
from repro.cluster.placement import PlacementPlan, placement_diff
from repro.cluster.placement import round_robin_plan
from repro.cluster.vm import D2
from repro.dataflow.builder import TopologyBuilder
from repro.metrics.log import EventLog
from repro.metrics.timeline import rate_timeline
from repro.reliability.acker import AckerService
from repro.sim import RandomSource, Simulator


# --------------------------------------------------------------------- kernel
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_simulator_executes_events_in_nondecreasing_time_order(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert sim.now == max(delays)


@given(
    period=st.floats(min_value=0.1, max_value=10.0),
    horizon=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_periodic_timer_fire_count_matches_period(period, horizon):
    sim = Simulator()
    fired = []
    sim.every(period, fired.append, None)
    sim.run(until=horizon)
    # Floating-point accumulation of the period may shift the last firing
    # across the horizon, so allow off-by-one.
    assert abs(len(fired) - horizon / period) <= 1.0


# ----------------------------------------------------------------------- acker
@given(event_ids=st.lists(st.integers(min_value=1, max_value=2**62), min_size=1, max_size=100, unique=True))
@settings(max_examples=100, deadline=None)
def test_acker_completes_iff_every_anchored_event_is_acked(event_ids):
    sim = Simulator()
    completed = []
    acker = AckerService(sim, timeout_s=1000.0, on_complete=completed.append)
    acker.register(777)
    for event_id in event_ids:
        acker.anchor(777, event_id)
    for event_id in event_ids[:-1]:
        acker.ack(777, event_id)
    assert completed == []
    acker.ack(777, event_ids[-1])
    assert completed == [777]


@given(
    event_ids=st.lists(st.integers(min_value=1, max_value=2**62), min_size=2, max_size=60, unique=True),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_acker_does_not_complete_with_any_missing_ack(event_ids, data):
    """Dropping any single ack keeps the tree pending (XOR collisions aside, ids are unique)."""
    missing = data.draw(st.sampled_from(event_ids))
    sim = Simulator()
    completed = []
    acker = AckerService(sim, timeout_s=1000.0, on_complete=completed.append)
    acker.register(1)
    for event_id in event_ids:
        acker.anchor(1, event_id)
    for event_id in event_ids:
        if event_id != missing:
            acker.ack(1, event_id)
    assert completed == []
    assert acker.is_pending(1)


# ------------------------------------------------------------------ placement
@given(
    n_executors=st.integers(min_value=1, max_value=12),
    n_vms=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_round_robin_schedule_is_a_valid_assignment(n_executors, n_vms, seed):
    sim = Simulator()
    provider = CloudProvider(sim)
    cluster = Cluster(provider.provision(D2, n_vms))
    executors = [f"t{i}#0" for i in range(n_executors)]
    if n_executors > cluster.total_slots:
        return  # covered by the explicit error test
    plan = round_robin_plan(executors, cluster)
    # Every executor placed exactly once, on distinct slots that exist.
    assert sorted(plan.executors) == sorted(executors)
    slots = list(plan.assignments.values())
    assert len(slots) == len(set(slots))
    for slot_id in slots:
        cluster.find_slot(slot_id)
    # Round-robin balance: VM loads differ by at most one when slots allow it.
    placed = Counter(plan.vm_of(executor) for executor in executors)
    loads = [placed[vm.vm_id] for vm in cluster.vms]
    if n_executors <= n_vms:
        assert max(loads) <= 1


@given(
    executors=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4), min_size=1, max_size=10, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_placement_diff_partitions_new_plan_executors(executors):
    old = PlacementPlan()
    new = PlacementPlan()
    for index, executor in enumerate(executors):
        old.assign(executor, f"vm{index % 3}:slot{index}", f"vm{index % 3}")
    for index, executor in enumerate(executors):
        # Move every other executor to a different slot.
        if index % 2 == 0:
            new.assign(executor, f"vm{(index + 1) % 3}:slot{index + 100}", f"vm{(index + 1) % 3}")
        else:
            new.assign(executor, f"vm{index % 3}:slot{index}", f"vm{index % 3}")
    migrating, staying, new_only = placement_diff(old, new)
    assert migrating | staying | new_only == set(new.executors)
    assert migrating & staying == set()
    assert new_only == set()


# ------------------------------------------------------------------- dataflow
@given(chain_length=st.integers(min_value=1, max_value=30), rate=st.floats(min_value=1.0, max_value=64.0))
@settings(max_examples=50, deadline=None)
def test_chain_dataflow_rate_is_conserved(chain_length, rate):
    builder = TopologyBuilder("chain")
    builder.add_source("src", rate=rate)
    names = [f"t{i}" for i in range(chain_length)]
    for name in names:
        builder.add_task(name)
    builder.add_sink("sink")
    builder.chain("src", *names, "sink")
    dataflow = builder.build()
    rates = dataflow.input_rates()
    for name in names:
        assert abs(rates[name] - rate) < 1e-9
    assert abs(dataflow.output_rate() - rate) < 1e-9
    assert dataflow.critical_path_length() == chain_length


@given(
    fanout=st.integers(min_value=1, max_value=6),
    rate=st.floats(min_value=1.0, max_value=32.0),
    events_per_instance=st.floats(min_value=1.0, max_value=16.0),
)
@settings(max_examples=50, deadline=None)
def test_auto_parallelism_covers_input_rate(fanout, rate, events_per_instance):
    builder = TopologyBuilder("fan")
    builder.add_source("src", rate=rate)
    builder.add_task("split", capacity_ev_s=events_per_instance)
    branches = [f"b{i}" for i in range(fanout)]
    for name in branches:
        builder.add_task(name, capacity_ev_s=events_per_instance)
    builder.add_task("merge", capacity_ev_s=events_per_instance)
    builder.add_sink("sink")
    builder.connect("src", "split")
    builder.fan_out("split", branches)
    builder.fan_in(branches, "merge")
    builder.connect("merge", "sink")
    dataflow = builder.build(auto_parallelism=True)
    rates = dataflow.input_rates()
    for task in dataflow.user_tasks:
        capacity = task.parallelism * events_per_instance
        assert capacity + 1e-6 >= rates[task.name]
        # Never over-provision by more than one instance.
        assert (task.parallelism - 1) * events_per_instance < rates[task.name] + 1e-6


# -------------------------------------------------------------------- metrics
@given(times=st.lists(st.floats(min_value=0.0, max_value=99.0), min_size=0, max_size=300))
@settings(max_examples=60, deadline=None)
def test_rate_timeline_conserves_event_count(times):
    sim = Simulator()
    log = EventLog(sim)
    for index, time in enumerate(sorted(times)):
        sim.schedule_at(time, lambda: None)
        sim.run()
        log.record_sink_receipt(index, index, "sink", root_emitted_at=max(0.0, time - 1.0), replay_count=0)
    points = rate_timeline(log, kind="output", start=0.0, end=100.0, bin_s=1.0)
    assert sum(p.rate * 1.0 for p in points) == len(times)


@given(seed=st.integers(min_value=0, max_value=10_000), name=st.text(min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_random_source_streams_are_reproducible(seed, name):
    first = [RandomSource(seed).uniform(name, 0.0, 1.0) for _ in range(3)]
    second = [RandomSource(seed).uniform(name, 0.0, 1.0) for _ in range(3)]
    assert first == second
    assert all(0.0 <= value <= 1.0 for value in first)
