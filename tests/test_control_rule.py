"""The elastic control rule, tested as the function it is.

:func:`repro.elastic.policy.decide` is the one copy of the control decision
(band check, ``confirm_samples`` hysteresis, cooldown, drain-aware scale-in
guard, with the forecast deadband and the SLO override in front -- the
override's own behaviours are in ``tests/test_predictive.py::TestSloOverride``).
This module holds it to that:

* a table of sample streams, one per outcome, with three seeded mutations of
  ``decide`` that must each fail it;
* live vs replay: ``decide`` folded over a run's recorded monitor samples
  reaches the live controller's first action;
* a source guard: no module but ``elastic/policy.py`` writes the rule's state
  or reads its knobs, so a second copy of the rule cannot grow back unseen.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.cluster.cloud import CloudProvider, Cluster
from repro.core.metrics import compute_migration_metrics
from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.elastic import (
    AllocationPlanner,
    ControllerConfig,
    ControlState,
    EwmaPolicy,
    ForecastPolicy,
    FullReplacePlacement,
    HoltWintersPolicy,
    IncrementalPlacement,
    ReactivePolicy,
    build_controller,
    policy,
)
from repro.cli import build_parser
from repro.core.ccr import CaptureCheckpointResume
from repro.elastic.arbiter import ScaleArbiter
from repro.engine.config import TimingConfig
from repro.experiments.chaos import run_chaos_experiment
from repro.experiments.elastic import run_elastic_experiment
from repro.experiments.predictive import run_predictive_experiment
from repro.multi import ClusterManager
from repro.sim import Simulator
from repro.workloads.profiles import DiurnalProfile

from tests.conftest import make_runtime, monitor_sample, mutant, patched

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


# ------------------------------------------------------------------ the table
@dataclass
class Step:
    """One sample fed to the rule and what must come out."""

    sample: Dict[str, object]
    outcome: str
    busy: bool = False
    #: Attributes the returned ``Decision`` / the ``ControlState`` must show.
    decision: Dict[str, object] = field(default_factory=dict)
    state: Dict[str, object] = field(default_factory=dict)


@dataclass
class Row:
    """One sample stream through a fresh rule over the Grid (8 ev/s baseline)."""

    name: str
    steps: List[Step]
    config: Dict[str, object] = field(default_factory=dict)
    state: Dict[str, object] = field(default_factory=dict)
    elastic_parallelism: bool = False
    forecast: Callable[[], ForecastPolicy] = ReactivePolicy


#: Half-confirmed scale-out the skip and in-band rows start from.
HALF_CONFIRMED = {"pending_tier": "expanded", "pending_count": 1}

TABLE = [
    Row(
        "a paused sample is only recorded: the forecast is fed, the rest is untouched",
        forecast=EwmaPolicy,
        state={**HALF_CONFIRMED, "breach_streak": 1, "previous_backlog": 7},
        steps=[
            Step({"time": 15.0, "offered": 8.0, "queued": 90, "paused": True}, "sources-paused",
                 decision={"target": None, "forecast_rate_ev_s": None},
                 state={**HALF_CONFIRMED, "breach_streak": 1, "previous_backlog": 7}),
            # Half of the paused sample's 8 ev/s is in the EWMA the next one plans
            # on, and the count resumes from where the pause found it.
            Step({"time": 30.0, "offered": 24.0}, "enact",
                 decision={"forecast_rate_ev_s": 16.0, "pending_count": 2}),
        ],
    ),
    Row(
        "a migration in flight outranks paused sources as the skip reason",
        state=HALF_CONFIRMED,
        steps=[
            Step({"offered": 24.0, "paused": True}, "migration-in-flight", busy=True,
                 state=HALF_CONFIRMED),
            Step({"offered": 24.0}, "migration-in-flight", busy=True, state=HALF_CONFIRMED),
        ],
    ),
    Row(
        "an in-band sample clears the pending confirmation",
        state=HALF_CONFIRMED,
        steps=[
            Step({"offered": 8.0}, "in-band",
                 decision={"direction": None, "pending_count": 0},
                 state={"pending_tier": None, "pending_count": 0}),
        ],
    ),
    Row(
        "the first out-of-band sample waits; the confirm_samples-th enacts",
        config={"confirm_samples": 3},
        steps=[
            Step({"time": 15.0, "offered": 24.0}, "hysteresis", decision={"pending_count": 1}),
            Step({"time": 30.0, "offered": 24.0}, "hysteresis", decision={"pending_count": 2}),
            Step({"time": 45.0, "offered": 24.0}, "enact",
                 decision={"pending_count": 3, "direction": "out"},
                 # Spending the confirmation is the caller's move (an arbiter may defer).
                 state={"pending_tier": "expanded", "pending_count": 3}),
        ],
    ),
    Row(
        "a target tier that flips restarts the count at 1",
        config={"confirm_samples": 3},
        steps=[
            Step({"time": 15.0, "offered": 24.0}, "hysteresis", decision={"pending_count": 1}),
            Step({"time": 30.0, "offered": 24.0}, "hysteresis", decision={"pending_count": 2}),
            Step({"time": 45.0, "offered": 2.0}, "hysteresis",
                 decision={"pending_count": 1}, state={"pending_tier": "consolidated"}),
            Step({"time": 60.0, "offered": 2.0}, "hysteresis", decision={"pending_count": 2}),
            Step({"time": 75.0, "offered": 2.0}, "enact",
                 decision={"pending_count": 3, "direction": "in"}),
        ],
    ),
    Row(
        "a cooldown keeps the confirmation; the first sample past it enacts",
        state={"cooldown_until": 100.0},
        steps=[
            Step({"time": 70.0, "offered": 24.0}, "hysteresis"),
            Step({"time": 85.0, "offered": 24.0}, "cooldown", state={"pending_count": 2}),
            Step({"time": 100.0, "offered": 24.0}, "enact", decision={"pending_count": 3}),
        ],
    ),
    Row(
        "the drain guard holds a scale-in and releases it, still confirmed, once absorbed",
        state={"tier": "expanded"},
        steps=[
            Step({"time": 15.0, "offered": 8.0, "queued": 1000}, "hysteresis"),
            Step({"time": 30.0, "offered": 8.0, "queued": 30, "source_backlog": 11},
                 "drain-guard", decision={"direction": "in"}, state={"pending_count": 2}),
            # Exactly 5 s of offered load is no longer *above* the guard.
            Step({"time": 45.0, "offered": 8.0, "queued": 40}, "enact",
                 decision={"direction": "in", "pending_count": 3}),
        ],
    ),
    Row(
        "below 1 ev/s offered the drain guard measures the backlog against 1 ev/s",
        state={"tier": "expanded"},
        steps=[
            Step({"time": 15.0, "offered": 0.5, "queued": 6}, "hysteresis"),
            Step({"time": 30.0, "offered": 0.5, "queued": 6}, "drain-guard",
                 decision={"direction": "in"}),
            # 5 events is 5 s of the floor's 1 ev/s (10 s of the offered 0.5).
            Step({"time": 45.0, "offered": 0.5, "queued": 5}, "enact",
                 decision={"direction": "in", "pending_count": 3}),
        ],
    ),
    Row(
        "the drain guard never holds a scale-out",
        steps=[
            Step({"time": 15.0, "offered": 24.0, "queued": 5000}, "hysteresis"),
            Step({"time": 30.0, "offered": 24.0, "queued": 5000}, "enact",
                 decision={"direction": "out"}),
        ],
    ),
    Row(
        "an EWMA forecast inside the deadband snaps to the observed rate",
        forecast=EwmaPolicy,
        steps=[
            Step({"time": 15.0, "offered": 8.0}, "in-band", decision={"forecast_rate_ev_s": 8.0}),
            # EWMA 7.9 is within 5 % of the observed 7.8: planned at 7.8 exactly.
            Step({"time": 30.0, "offered": 7.8}, "in-band", decision={"forecast_rate_ev_s": 7.8}),
            # EWMA 15.95 against an observed 24 is a real lag: left as forecast.
            Step({"time": 45.0, "offered": 24.0}, "hysteresis",
                 decision={"forecast_rate_ev_s": pytest.approx(15.95), "horizon_s": 60.0}),
        ],
    ),
    Row(
        "a same-tier grow is a scale-out: labelled by its slot delta, never drain-guarded",
        elastic_parallelism=True,
        state={"tier": "expanded"},
        steps=[
            # expanded -> expanded with more instances; the offline planner read it as "in".
            Step({"time": 15.0, "offered": 48.0, "queued": 5000}, "hysteresis",
                 state={"tier": "expanded", "pending_tier": "expanded"}),
            Step({"time": 30.0, "offered": 48.0, "queued": 5000}, "enact",
                 decision={"direction": "out"}),
        ],
    ),
]


def check_row(row: Row) -> None:
    state = ControlState(**row.state)
    planner = AllocationPlanner(topologies.grid(), elastic_parallelism=row.elastic_parallelism)
    config = ControllerConfig(**row.config)
    forecast = row.forecast()
    for index, step in enumerate(row.steps):
        where = f"{row.name!r}, step {index}"
        # Through the module attribute, so a patched-in mutant is what runs.
        decision = policy.decide(
            state, monitor_sample(**step.sample), config=config, planner=planner,
            forecast=forecast, horizon_s=60.0, busy=step.busy,
        )
        assert decision.outcome == step.outcome, where
        for name, expected in step.decision.items():
            assert getattr(decision, name) == expected, f"{where}: decision.{name}"
        for name, expected in step.state.items():
            assert getattr(state, name) == expected, f"{where}: state.{name}"


def check_table() -> None:
    for row in TABLE:
        check_row(row)


@pytest.mark.parametrize("row", TABLE, ids=lambda row: row.name)
def test_table_row(row):
    check_row(row)


def test_seeded_mutations_of_the_rule_fail_the_table():
    # The confirm_samples-th agreeing sample still waits.
    patient = mutant(policy, "decide", "state.pending_count < config.confirm_samples",
                     "state.pending_count <= config.confirm_samples")
    with patched(policy, "decide", patient), pytest.raises(AssertionError):
        check_table()

    # A skipped sample never reaches the forecast policy: its series has gaps.
    gappy = mutant(policy, "decide",
                   "    forecast.observe(sample.time, sample.offered_rate)\n",
                   "    if not (busy or sample.sources_paused):\n"
                   "        forecast.observe(sample.time, sample.offered_rate)\n")
    with patched(policy, "decide", gappy), pytest.raises(AssertionError):
        check_table()

    # The drain guard holds scale-outs too.
    timid = mutant(policy, "decide", 'direction == "in" and backlog >', "backlog >")
    with patched(policy, "decide", timid), pytest.raises(AssertionError):
        check_table()


# ------------------------------------------------------------ live vs replay
def first_replayed_action(samples, dataflow):
    """Fold the rule over recorded samples as a fresh controller would tick it.

    Placement-only sizing from the baseline tier with the reactive forecast,
    as the live run's defaults do; returns the first enacted decision as
    ``(time, direction, from_tier, to_tier, offered_rate, vm_counts)``.
    """
    config = ControllerConfig()
    planner = AllocationPlanner(dataflow)
    forecast = ReactivePolicy()
    state = ControlState()
    for sample in samples:
        decision = policy.decide(
            state, sample, config=config, planner=planner, forecast=forecast, horizon_s=0.0
        )
        if decision.outcome == "enact":
            target = decision.target
            return (sample.time, decision.direction, state.tier, target.tier,
                    sample.offered_rate, tuple(sorted(target.vm_counts.items())))
    return None


@pytest.mark.parametrize(
    "dag, profile, duration_s, decided_at",
    [("grid", "surge", 600.0, 210.0), ("traffic", "surge", 900.0, 300.0),
     ("linear", "diurnal", 900.0, 45.0)],
)
def test_replay_reaches_the_live_controllers_first_action(dag, profile, duration_s, decided_at):
    """Only the first action: after it the live loop skips ticks while its
    migration is in flight, which a fold over recorded samples cannot see."""
    result = run_elastic_experiment(
        dag=dag, strategy="ccr", profile=profile, duration_s=duration_s, seed=2018
    )
    live = result.controller.actions[0]
    replayed = first_replayed_action(result.monitor.samples, topologies.by_name(dag))
    assert replayed == (
        live.decided_at, live.direction, live.from_tier, live.to_tier, live.observed_rate,
        tuple(sorted(live.target.vm_counts.items())),
    )
    assert replayed[0] == decided_at


# ------------------------------------------------------- one rule, fewer knobs
def test_controller_config_lost_the_knobs_nothing_set():
    assert len(dataclasses.fields(ControllerConfig)) == 4
    for knob in ("placement", "forecast_policy", "wait_for_provisioning", "forecast_horizon_s",
                 "capacity_feedback", "evacuation_horizon_s", "forecast_deadband", "slo_confirm_samples",
                 "slo_headroom", "drain_guard_backlog_s"):
        with pytest.raises(TypeError):
            ControllerConfig(**{knob: 1})


def test_planner_forecast_and_arbiter_lost_the_knobs_nothing_set():
    """A task's capacity is its own ``capacity_ev_s`` or 8 ev/s, the pressure
    band is fixed, Holt's policy has no season and every tenant weighs 1.
    Each knob is passed the default it used to have."""
    arbiter = ScaleArbiter(Cluster(), budget_slots=8)
    callables = {
        AllocationPlanner: dict(task_capacities_ev_s={}, instance_capacity_ev_s=8.0,
                                expand_pressure=1.2, consolidate_pressure=0.95),
        build_controller: dict(task_capacities_ev_s={}),
        run_elastic_experiment: dict(task_capacities_ev_s={}),
        HoltWintersPolicy: dict(gamma=0.3, season_period_s=None, season_buckets=24),
        arbiter.register_tenant: dict(weight=1.0),
    }
    required = {
        AllocationPlanner: (topologies.linear(),),
        build_controller: (None, None, None),
        arbiter.register_tenant: ("tenant",),
    }
    for fn, knobs in callables.items():
        for knob, value in knobs.items():
            with pytest.raises(TypeError):
                fn(*required.get(fn, ()), **{knob: value})
    assert {fn: len(inspect.signature(fn).parameters) for fn in callables} == {
        AllocationPlanner: 2,
        build_controller: 9,
        run_elastic_experiment: 12,
        HoltWintersPolicy: 2,
        arbiter.register_tenant: 3,
    }


def test_arbiter_timing_and_flags_lost_the_knobs_nothing_set():
    """One migration at a time, a service time that is the task's latency,
    and the elastic loop's and multi run's defaults from the command line.
    Each knob is passed the default it used to have."""
    for fn, args, knob in ((ScaleArbiter, (Cluster(), 8), {"max_concurrent_migrations": 1}),
                           (ClusterManager, (8,), {"max_concurrent_migrations": 1}),
                           (TimingConfig, (), {"data_event_overhead_s": 0.0})):
        with pytest.raises(TypeError):
            fn(*args, **knob)
    assert len(inspect.signature(ScaleArbiter).parameters) == 2
    assert len(inspect.signature(ClusterManager).parameters) == 5
    assert len(dataclasses.fields(TimingConfig)) == 13
    parser = build_parser()
    for argv in (["elastic", "--check-interval", "15"], ["elastic", "--confirm-samples", "2"],
                 ["elastic", "--cooldown", "60"], ["multi", "--audit-json", "audit.json"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_a_single_fleet_has_one_placer():
    """A controller given no place stage places incrementally; whether a
    shrink re-uses free shared slots follows from being given a shared
    fleet's exclusions, the policy's one parameter."""
    assert list(inspect.signature(IncrementalPlacement).parameters) == ["excluded_vms_fn"]
    with pytest.raises(TypeError):
        IncrementalPlacement(reuse_free_slots=False)
    assert not hasattr(IncrementalPlacement, "name") and not hasattr(FullReplacePlacement, "name")
    assert not hasattr(policy, "PLACEMENT_POLICIES") and not hasattr(policy, "placement_policy_by_name")
    runtime = make_runtime()
    controller = build_controller(runtime, CloudProvider(runtime.sim), CaptureCheckpointResume)
    assert type(controller.place) is IncrementalPlacement
    assert controller.place._excluded_vms_fn is None


def test_the_lower_layers_lost_the_knobs_nothing_set():
    """The kernel's clock starts at 0, a dataflow is sized at 8 ev/s per
    instance, every other Linear task is stateful, a keyed source cycles 64
    keys, a day starts at midnight, stability is the paper's 20 % for 60 s, a
    cloud bills by the minute, and the predict / chaos runners take
    no placement or mode list.  Each knob is passed the default (or the one
    value) it used to have."""
    for fn, args, knob in (
        (Simulator, (), {"start_time": 0.0}),
        (topologies.linear, (), {"stateful_every": 2}),
        (topologies.keyed_payload_factory, ("veh",), {"num_keys": 64}),
        (DiurnalProfile, (), {"phase_s": 0.0}),
        (ClusterManager, (8,), {"billing_granularity_s": 60.0}),
        (CloudProvider, (Simulator(),), {"billing_granularity_s": 60.0}),
        (topologies.linear().total_instances, (), {"include_sources_and_sinks": False}),
        (TopologyBuilder("t").build, (), {"events_per_instance": 8.0}),
        (topologies.linear().apply_auto_parallelism, (), {"events_per_instance": 8.0}),
        (compute_migration_metrics, (None, None, 8.0), {"stabilization_tolerance": 0.2}),
        (compute_migration_metrics, (None, None, 8.0), {"stabilization_window_s": 60.0}),
        (ClusterManager(8).add_tenant, ("t", topologies.linear()), {"profile_duration_s": 900.0}),
        (run_predictive_experiment, (), {"placement": "incremental"}),
        (run_chaos_experiment, (), {"modes": ("notice", "oblivious")}),
    ):
        with pytest.raises(TypeError):
            fn(*args, **knob)
    parser = build_parser()
    for argv in (["predict", "--placement", "incremental"], ["predict", "--profile", "step"],
                 ["chaos", "--modes", "notice,oblivious"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


#: The rule's carried state: written nowhere but in ``elastic/policy.py``.
RULE_STATE = {"pending_tier", "pending_count", "breach_streak", "previous_backlog"}
#: The rule's constants: named nowhere but there.
RULE_KNOBS = {"DRAIN_GUARD_BACKLOG_S", "FORECAST_DEADBAND", "SLO_CONFIRM_SAMPLES", "SLO_HEADROOM"}


def test_the_rule_lives_in_one_module():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative == "elastic/policy.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        offenders += [
            f"{relative}:{node.lineno} writes .{node.attr}"
            for node in attributes
            if node.attr in RULE_STATE and not isinstance(node.ctx, ast.Load)
        ]
        names = [
            (node.lineno, name)
            for node in ast.walk(tree)
            for name in (
                [node.attr] if isinstance(node, ast.Attribute)
                else [node.id] if isinstance(node, ast.Name)
                else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
        ]
        offenders += [
            f"{relative}:{lineno} names {name}" for lineno, name in names if name in RULE_KNOBS
        ]
    assert offenders == [], (
        "the control rule is repro.elastic.policy.decide and nothing else: " + "; ".join(offenders)
    )
