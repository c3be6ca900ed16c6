"""The predictive, SLO-aware control plane: the rule's SLO override and end-to-end runs.

Covers the forecast / SLO side of :func:`repro.elastic.policy.decide` and the
placement policies (the debounce half of the rule is tabled in
``tests/test_control_rule.py``):

* the SLO-breach override escalates an in-band plan only on a *sustained*
  breach with a *growing* backlog (a post-migration drain must not trigger);
* an overloaded-but-in-band dataflow scales out on the latency trigger alone;
* the acceptance scenario: on the Grid 2x step surge, a predictive policy
  provisions *before* the surge lands and accrues measurably fewer
  SLO-violation seconds than the reactive baseline;
* incremental placement keeps unchanged task instances on their VMs and
  shrinks the forced-restart set (with a migration backlog window no larger
  than full replacement's);
* same-seed predictive runs are bit-identical.
"""

from __future__ import annotations

import functools

import pytest

from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.elastic import (
    AllocationPlanner,
    ControllerConfig,
    ControlState,
    ElasticityMonitor,
    FullReplacePlacement,
    MonitorSample,
    ReactivePolicy,
    decide,
)
from repro.experiments import elastic as elastic_runner
from repro.experiments.elastic import run_elastic_experiment
from repro.experiments.predictive import (
    best_predictive,
    run_predictive_experiment,
    violation_improvement_s,
)
from repro.workloads.profiles import StepProfile

from tests.conftest import fast_config, make_runtime, monitor_sample, patched
from tests.test_determinism import _log_records


def slow_chain(rate: float = 8.0, latency_s: float = 0.2):
    """A chain whose task is slower than the paper's assumed 8 ev/s.

    One instance serves only ``1 / latency_s`` = 5 ev/s, so the default
    1-per-8 sizing under-provisions: at 8 ev/s offered the input rate stays
    in band while the backlog (and sink latency) grows without bound -- the
    exact overload the SLO trigger exists for.
    """
    builder = TopologyBuilder("slowchain")
    builder.add_source("source", rate=rate)
    builder.add_task("work", parallelism=1, latency_s=latency_s, stateful=True)
    builder.add_sink("sink")
    builder.chain("source", "work", "sink")
    return builder.build()


class TestSloOverride:
    """The rule's overload-aware escalation."""

    def make_rule(self):
        """``decide`` over a fresh state: Traffic planner, reactive forecast, 2 s SLO."""
        return functools.partial(
            decide,
            ControlState(),
            config=ControllerConfig(slo_latency_s=2.0),
            planner=AllocationPlanner(topologies.traffic()),
            forecast=ReactivePolicy(),
            horizon_s=60.0,
        )

    def test_in_band_without_breach_stays_put(self):
        rule = self.make_rule()
        decision = rule(monitor_sample(latency=0.5))
        assert decision.target.tier == "baseline"
        assert not decision.slo_escalated

    def test_sustained_breach_with_growing_backlog_escalates(self):
        rule = self.make_rule()
        first = rule(monitor_sample(time=15.0, latency=5.0, queued=100))
        assert not first.slo_escalated, "one breached sample must not trigger"
        second = rule(monitor_sample(time=30.0, latency=6.0, queued=200))
        assert second.slo_escalated
        assert second.target.tier == "expanded"

    def test_plateaued_backlog_still_escalates(self):
        """A saturated deployment (backlog stuck high, latency breached) is
        overload, not a drain: the override must still fire."""
        rule = self.make_rule()
        rule(monitor_sample(time=15.0, latency=5.0, queued=300))
        decision = rule(monitor_sample(time=30.0, latency=6.0, queued=300))
        assert decision.slo_escalated

    def test_draining_backlog_does_not_escalate(self):
        """High latency while the backlog shrinks is a recovery, not overload."""
        rule = self.make_rule()
        rule(monitor_sample(time=15.0, latency=5.0, queued=300))
        decision = rule(monitor_sample(time=30.0, latency=6.0, queued=200))
        assert not decision.slo_escalated

    def test_recovery_resets_the_streak(self):
        rule = self.make_rule()
        rule(monitor_sample(time=15.0, latency=5.0, queued=100))
        rule(monitor_sample(time=30.0, latency=0.5, queued=150))
        decision = rule(monitor_sample(time=45.0, latency=5.0, queued=200))
        assert not decision.slo_escalated, "the streak must restart after a clean sample"

    def test_out_of_band_plan_is_not_double_escalated(self):
        rule = self.make_rule()
        rule(monitor_sample(time=15.0, offered=24.0, latency=5.0, queued=100))
        decision = rule(monitor_sample(time=30.0, offered=24.0, latency=6.0, queued=200))
        assert decision.target.tier == "expanded"
        assert not decision.slo_escalated, "the rate trigger already did the job"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(slo_latency_s=-1.0)


class TestMeasuredCapacities:
    """The heterogeneous-latency loop: what the monitor measures, declared
    as the task's capacity, sizes it."""

    def test_feedback_resizes_the_slow_task(self):
        """Saturated at 8 ev/s, the 0.2 s task delivers 5 ev/s at the sink.
        Declared as its capacity, the planner demands 2 instances where the
        default (8 ev/s) claimed 1 was enough."""
        runtime = make_runtime(slow_chain(rate=8.0, latency_s=0.2))
        dataflow = runtime.dataflow
        assert AllocationPlanner(dataflow).required_instances_by_task(8.0)["work"] == 1
        monitor = ElasticityMonitor(runtime, interval_s=10.0)
        runtime.start()
        runtime.sim.run(until=10.0)
        monitor.sample_now()
        runtime.sim.run(until=40.0)
        measured = monitor.sample_now().output_rate
        assert measured == pytest.approx(5.0, rel=0.05)
        dataflow.task("work").capacity_ev_s = measured
        assert AllocationPlanner(dataflow).required_instances_by_task(8.0)["work"] == 2


class TestSloViolationSeconds:
    def test_accounts_breached_intervals_and_outages(self):
        runtime = make_runtime(slow_chain(rate=4.0))
        monitor = ElasticityMonitor(runtime, interval_s=10.0)

        def sample(time, latency, output, queued):
            monitor.samples.append(MonitorSample(
                time=time, input_rate=4.0, offered_rate=4.0, output_rate=output,
                avg_latency_s=latency, queue_backlog=queued, source_backlog=0,
                sources_paused=False,
            ))

        sample(10.0, 0.5, 4.0, 0)    # healthy
        sample(20.0, 3.0, 4.0, 10)   # breached
        sample(30.0, None, 0.0, 50)  # outage: nothing flowing, backlog stuck
        sample(40.0, None, 0.0, 0)   # idle: nothing offered, nothing stuck
        sample(50.0, 1.9, 4.0, 0)    # healthy again
        assert monitor.slo_violation_seconds(2.0) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            monitor.slo_violation_seconds(0.0)


class TestSloEndToEnd:
    def test_in_band_overload_scales_out_on_latency_alone(self):
        """Offered rate never leaves the band, yet the dataflow is drowning
        (real service rate 5 ev/s < offered 8 ev/s): the latency trigger must
        fire and the escalated action must carry capacity."""
        result = run_elastic_experiment(
            strategy="ccr",
            profile="constant",
            duration_s=200.0,
            seed=9,
            dataflow=slow_chain(rate=8.0, latency_s=0.2),
            config=fast_config("ccr", seed=9),
            controller_config=ControllerConfig(
                check_interval_s=10.0, confirm_samples=1, cooldown_s=10.0,
                slo_latency_s=2.0,
            ),
            provisioning_latency_s=1.0,
            elastic_parallelism=True,
        )
        escalated = [a for a in result.actions if a.slo_escalated]
        assert escalated, "the sustained latency breach must trigger a scale-out"
        action = escalated[0]
        assert action.direction == "out"
        # The input rate alone would not have triggered: it stayed in band.
        assert action.observed_rate == pytest.approx(8.0, rel=0.1)
        assert action.target.rescale is not None, "the escalation must add capacity"

    def test_no_slo_configured_never_escalates(self):
        result = run_elastic_experiment(
            strategy="ccr",
            profile="constant",
            duration_s=120.0,
            seed=9,
            dataflow=slow_chain(rate=8.0, latency_s=0.2),
            config=fast_config("ccr", seed=9),
            controller_config=ControllerConfig(
                check_interval_s=10.0, confirm_samples=1, cooldown_s=10.0,
            ),
            provisioning_latency_s=1.0,
            elastic_parallelism=True,
        )
        assert all(not a.slo_escalated for a in result.actions)
        assert result.actions == [], "without the SLO trigger the overload goes unseen"


#: Tasks declared with 2x headroom: at a 2x surge they keep their instance
#: count, so an incremental placer can leave them running in place.
GRID_HEADROOM_CAPS = {
    "parse": 32.0, "anomaly_detect": 32.0, "alert_filter": 32.0,
    "alert_enrich": 32.0, "alert_notify": 32.0,
}


def _grid_surge_run(placement: str, duration_s: float = 300.0):
    """The surge under the controller's default (incremental) placer, or
    under ``full-replace``: the paper's re-fleet, handed to the controller
    through ``build_controller(placement=...)`` as a shared-fleet tenant's is."""
    config = ControllerConfig(check_interval_s=15.0, confirm_samples=2, cooldown_s=60.0)
    build = elastic_runner.build_controller
    if placement == "full-replace":
        build = functools.partial(build, placement=FullReplacePlacement())
    dataflow = topologies.by_name("grid")
    for name, capacity in GRID_HEADROOM_CAPS.items():
        dataflow.task(name).capacity_ev_s = capacity
    base = sum(float(s.rate) for s in dataflow.sources)
    profile = StepProfile(steps=[(0.0, base), (120.0, base * 2), (360.0, base)])
    with patched(elastic_runner, "build_controller", build):
        return run_elastic_experiment(
            dag="grid", strategy="ccr", profile=profile, duration_s=duration_s, seed=2018,
            dataflow=dataflow, controller_config=config, elastic_parallelism=True,
        )


class TestIncrementalPlacement:
    """Acceptance: the incremental placer shrinks the forced-restart set."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {p: _grid_surge_run(p) for p in ("full-replace", "incremental")}

    def test_unchanged_instances_keep_their_vms(self, runs):
        result = runs["incremental"]
        action = result.actions[0]
        assert action.direction == "out"
        assert action.kept_vm_ids, "a grow must retain the current fleet"
        rebalance = result.runtime.rebalances[0]
        staying_user = {
            e for e in rebalance.staying
            if not e.startswith("source") and not e.startswith("sink")
        }
        expected = {f"{name}#0" for name in GRID_HEADROOM_CAPS}
        assert expected <= staying_user, (
            "instances of tasks whose parallelism did not change must stay put"
        )
        # And they genuinely kept their slots on retained VMs.
        for executor_id in expected:
            vm = result.runtime.executor(executor_id).vm_id
            assert vm in action.kept_vm_ids

    def test_forced_restart_set_shrinks(self, runs):
        full = runs["full-replace"].runtime.rebalances[0]
        incremental = runs["incremental"].runtime.rebalances[0]
        assert len(incremental.migrating) < len(full.migrating)
        assert len(incremental.staying) > len(full.staying)

    def test_only_the_delta_is_provisioned(self, runs):
        full_action = runs["full-replace"].actions[0]
        incremental_action = runs["incremental"].actions[0]
        assert len(incremental_action.provisioned_vm_ids) < len(full_action.provisioned_vm_ids)
        assert incremental_action.kept_vm_ids
        assert full_action.kept_vm_ids == []

    def test_backlog_window_no_larger_than_full_replace(self, runs):
        def peak_after_decision(result):
            start = result.actions[0].decided_at
            return max(
                s.queue_backlog + s.source_backlog
                for s in result.samples if s.time >= start
            )

        assert peak_after_decision(runs["incremental"]) <= peak_after_decision(
            runs["full-replace"]
        )


class TestPredictiveAcceptance:
    """Acceptance: a predictive policy beats reactive on the Grid 2x surge."""

    @pytest.fixture(scope="class")
    def comparison(self):
        return run_predictive_experiment(
            dag="grid", strategy="ccr", profile="surge",
            policies=("reactive", "lookahead"), duration_s=600.0, seed=2018,
        )

    def test_predictive_provisions_before_the_surge_lands(self, comparison):
        lookahead = comparison.runs["lookahead"]
        assert lookahead.lead_s is not None
        assert lookahead.lead_s > 0, (
            "the lookahead policy must decide its scale-out before the surge"
        )
        reactive = comparison.runs["reactive"]
        assert reactive.lead_s is not None and reactive.lead_s < 0, (
            "the reactive baseline can only react after the surge"
        )

    def test_predictive_has_measurably_fewer_slo_violation_seconds(self, comparison):
        saved = violation_improvement_s(comparison, "lookahead")
        assert saved is not None
        # Measurable: at least two whole control intervals of violation saved.
        assert saved >= 30.0, (
            f"lookahead saved only {saved}s of SLO violations vs reactive"
        )
        best = best_predictive(comparison)
        assert best is not None and best.label == "lookahead"

    def test_headline_json_shape(self, comparison, tmp_path):
        path = comparison.write_headline_json(tmp_path / "BENCH_predictive.json")
        import json

        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-bench-predictive/2"
        benchmarks = payload["benchmarks"]
        assert set(benchmarks) == {
            "predict_reactive_slo_violation_s", "predict_lookahead_slo_violation_s",
        }
        for seconds in benchmarks.values():
            assert seconds >= 0.0


def test_headline_names_keep_the_policy_name(tmp_path):
    """A policy's name goes into its headline key as it is: ``holt-winters``
    keeps its hyphen."""
    import json

    comparison = run_predictive_experiment(
        dag="linear", policies=("reactive", "holt-winters"), duration_s=300.0
    )
    path = comparison.write_headline_json(tmp_path / "BENCH_predictive.json")
    assert json.loads(path.read_text())["benchmarks"] == {
        "predict_reactive_slo_violation_s": 120.0,
        "predict_holt-winters_slo_violation_s": 75.0,
    }


class TestPredictiveDeterminism:
    def test_same_seed_predictive_runs_are_identical(self):
        def run_once():
            return run_elastic_experiment(
                dag="traffic", strategy="ccr", profile="surge", duration_s=300.0,
                seed=2018,
                controller_config=ControllerConfig(
                    check_interval_s=15.0, confirm_samples=2, cooldown_s=60.0,
                    slo_latency_s=30.0,
                ),
                elastic_parallelism=True,
                forecast_policy="ewma",
            )

        first = run_once()
        second = run_once()
        assert _log_records(first.log) == _log_records(second.log)
        assert [a.decided_at for a in first.actions] == [a.decided_at for a in second.actions]


class TestPredictCLI:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["predict"])
        assert args.command == "predict"
        assert args.dag == "grid"
        assert args.profile == "surge"
        assert args.slo == 30.0
        assert not hasattr(args, "placement")
        assert "reactive" in args.policies and "lookahead" in args.policies

    def test_unknown_policy_rejected(self, capsys):
        from repro.cli import main

        exit_code = main(["predict", "--policies", "crystal-ball"])
        assert exit_code == 2
        assert "unknown forecast policy" in capsys.readouterr().err

    def test_predict_command_runs_end_to_end(self, capsys, tmp_path):
        from repro.cli import main

        json_path = tmp_path / "predictive.json"
        exit_code = main([
            "predict", "--dag", "grid", "--duration", "420",
            "--policies", "reactive,lookahead", "--json", str(json_path),
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Forecast policies" in output
        assert "reactive" in output and "lookahead" in output
        assert json_path.exists()
