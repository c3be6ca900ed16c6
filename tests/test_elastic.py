"""The closed elasticity loop: planner, monitor, controller, end-to-end runs.

The acceptance scenario mirrors the paper's motivation: the Traffic dataflow
under a rush-hour :class:`StepProfile` surge must scale out and back in
*automatically* (no manual ``migrate_at``), with every strategy (DSM, DCR,
CCR), and the vacated VMs must stop billing.
"""

from __future__ import annotations

import pytest

from repro.cluster.vm import D1, D2, D3
from repro.dataflow import topologies
from repro.dataflow.builder import TopologyBuilder
from repro.elastic import (
    AllocationPlanner,
    ControllerConfig,
    ElasticityMonitor,
)
from repro.elastic.planner import CONSOLIDATE_PRESSURE, EXPAND_PRESSURE
from repro.experiments.elastic import run_elastic_experiment
from repro.workloads import BurstProfile, StepProfile

from tests.conftest import fast_config, make_runtime


def small_chain(parallelism: int = 1, rate: float = 8.0):
    """A fast source->work->sink chain for controller unit tests.

    With one instance and the paper's 8 ev/s the chain sits exactly at
    pressure 1.0 (baseline tier), like the paper dataflows do.
    """
    builder = TopologyBuilder("chain")
    builder.add_source("source", rate=rate)
    builder.add_task("work", parallelism=parallelism, latency_s=0.005, stateful=True)
    builder.add_sink("sink")
    builder.chain("source", "work", "sink")
    return builder.build()


class TestAllocationPlanner:
    def test_baseline_rate_stays_on_d2(self):
        dataflow = topologies.traffic()
        planner = AllocationPlanner(dataflow)
        target = planner.plan(8.0)
        assert target.tier == "baseline"
        assert target.pressure == pytest.approx(1.0)
        assert target.vm_counts == {D2.name: 7}  # Table 1: 13 slots -> 7 D2s

    def test_surge_rate_expands_to_one_slot_d1s(self):
        dataflow = topologies.traffic()
        planner = AllocationPlanner(dataflow)
        target = planner.plan(24.0)
        assert target.tier == "expanded"
        assert target.pressure > 1.2
        assert target.vm_counts == {D1.name: 13}

    def test_low_rate_consolidates_onto_d3s(self):
        dataflow = topologies.traffic()
        planner = AllocationPlanner(dataflow)
        target = planner.plan(4.0)
        assert target.tier == "consolidated"
        assert target.vm_counts == {D3.name: 4}  # ceil(13 / 4)

    def test_required_instances_floors_at_one_per_task(self):
        dataflow = topologies.traffic()
        planner = AllocationPlanner(dataflow)
        assert planner.required_instances(0.01) == len(dataflow.user_tasks)

    def test_thresholds_validated(self):
        """The fixed pressure band straddles 1.0 and both edges are
        inclusive: 20 hosted instances, 8 ev/s each."""
        assert CONSOLIDATE_PRESSURE < 1.0 < EXPAND_PRESSURE
        planner = AllocationPlanner(small_chain(parallelism=20))
        assert planner.plan(8.0 * 19).tier == "consolidated"  # pressure 0.95
        assert planner.plan(8.0 * 20).tier == "baseline"
        assert planner.plan(8.0 * 23).tier == "baseline"  # 1.15
        assert planner.plan(8.0 * 24).tier == "expanded"  # 1.2


class TestElasticityMonitor:
    def test_samples_measure_rates_incrementally(self):
        runtime = make_runtime(small_chain(rate=10.0))
        runtime.start()
        monitor = ElasticityMonitor(runtime, interval_s=5.0)
        runtime.sim.run(until=5.0)
        first = monitor.sample_now()
        runtime.sim.run(until=10.0)
        second = monitor.sample_now()
        assert first.input_rate == pytest.approx(10.0, rel=0.1)
        assert second.input_rate == pytest.approx(10.0, rel=0.1)
        assert second.output_rate > 0
        assert second.avg_latency_s is not None and second.avg_latency_s < 1.0
        # Incremental reads: the two samples together cover all emissions.
        total = (first.input_rate + second.input_rate) * 5.0
        assert total == pytest.approx(len(runtime.log.source_emits), abs=2)

    def test_paused_sources_are_flagged(self):
        runtime = make_runtime(small_chain())
        runtime.start()
        monitor = ElasticityMonitor(runtime, interval_s=5.0)
        runtime.sim.run(until=5.0)
        runtime.pause_sources()
        runtime.sim.run(until=10.0)
        sample = monitor.sample_now()
        assert sample.sources_paused
        assert sample.source_backlog > 0


class TestControllerHysteresis:
    """Short bursts must not flap the allocation when hysteresis is on."""

    BURST = dict(base_rate=8.0, burst_multiplier=3.0, burst_period_s=60.0, burst_duration_s=15.0)

    def run_with(self, confirm_samples: int):
        return run_elastic_experiment(
            strategy="ccr",
            profile=BurstProfile(**self.BURST),
            duration_s=150.0,
            seed=3,
            dataflow=small_chain(),
            config=fast_config("ccr", seed=3),
            controller_config=ControllerConfig(
                check_interval_s=10.0, confirm_samples=confirm_samples, cooldown_s=5.0
            ),
            provisioning_latency_s=1.0,
        )

    def test_no_flapping_with_hysteresis(self):
        result = self.run_with(confirm_samples=3)
        assert result.actions == []

    def test_trigger_happy_controller_does_flap(self):
        # The same bursts with no hysteresis cause repeated out/in migrations,
        # demonstrating that confirm_samples is what prevents the flapping.
        result = self.run_with(confirm_samples=1)
        directions = [a.direction for a in result.actions]
        assert "out" in directions and "in" in directions
        assert len(result.actions) >= 2


class TestElasticEndToEnd:
    """Acceptance: Traffic DAG + StepProfile surge -> automatic out then in."""

    @pytest.mark.parametrize("strategy", ["dsm", "dcr", "ccr"])
    def test_surge_scales_out_then_in_and_releases_vms(self, strategy):
        profile = StepProfile(steps=[(0.0, 8.0), (60.0, 24.0), (140.0, 8.0)])
        result = run_elastic_experiment(
            dag="traffic",
            strategy=strategy,
            profile=profile,
            duration_s=220.0,
            seed=11,
            dataflow=topologies.traffic(latency_s=0.02),
            config=fast_config(strategy, seed=11),
            controller_config=ControllerConfig(
                check_interval_s=5.0, confirm_samples=2, cooldown_s=30.0
            ),
            provisioning_latency_s=2.0,
        )

        outs, ins = result.scale_outs(), result.scale_ins()
        assert len(outs) >= 1, "the surge must trigger a scale-out"
        assert len(ins) >= 1, "the surge's end must trigger a scale-in"
        assert all(a.is_complete for a in result.actions)

        # Incremental placement (the default) grows in place: the surge tier
        # fits on the initial D2 fleet's spare slots, so the scale-out keeps
        # the fleet and provisions nothing (full-replace would have re-fleeted
        # onto a fresh D1-per-slot allocation here).
        first_out = outs[0]
        assert first_out.provisioned_vm_ids == []
        assert first_out.deprovisioned_vm_ids == []

        # The consolidating scale-in re-fleets (a private fleet has no shared
        # free slots to absorb into): a fresh baseline-sized D2 fleet replaces
        # the original one, whose billing is finalized.
        assert set(ins[-1].deprovisioned_vm_ids) == set(result.initial_vm_ids)
        finalized = {
            r.vm_id for r in result.provider.billing_records if r.deprovisioned_at is not None
        }
        assert set(result.initial_vm_ids) <= finalized
        final_fleet = result.runtime.cluster.describe()
        assert "D1" not in final_fleet
        assert final_fleet[D2.name] == 7

        # The dataflow kept flowing after the last migration completed.
        last_done = result.actions[-1].completed_at
        assert len(result.log.receipts_after(last_done + 10.0)) > 0


class TestMultiSourceProfiles:
    """Preset profiles scale per source; a single profile instance would not."""

    @staticmethod
    def two_source_dataflow():
        builder = TopologyBuilder("twosrc")
        builder.add_source("src_a", rate=8.0)
        builder.add_source("src_b", rate=8.0)
        builder.add_task("merge", parallelism=2, latency_s=0.005, stateful=True)
        builder.add_sink("sink")
        builder.fan_in(["src_a", "src_b"], "merge")
        builder.connect("merge", "sink")
        return builder.build()

    def test_constant_preset_is_steady_state_for_two_sources(self):
        # Regression: the total-rate profile used to be attached to *each*
        # source, doubling the offered load and triggering a spurious scale-out.
        result = run_elastic_experiment(
            strategy="ccr",
            profile="constant",
            duration_s=60.0,
            seed=5,
            dataflow=self.two_source_dataflow(),
            config=fast_config("ccr", seed=5),
            controller_config=ControllerConfig(
                check_interval_s=5.0, confirm_samples=1, cooldown_s=5.0
            ),
            provisioning_latency_s=1.0,
        )
        assert result.actions == []
        assert result.monitor.latest.input_rate == pytest.approx(16.0, rel=0.1)

    def test_profile_instance_rejected_for_multi_source(self):
        with pytest.raises(ValueError, match="multi-source"):
            run_elastic_experiment(
                profile=StepProfile(steps=[(0.0, 8.0)]),
                duration_s=30.0,
                dataflow=self.two_source_dataflow(),
                config=fast_config("ccr"),
            )


class TestElasticCLI:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["elastic"])
        assert args.command == "elastic"
        assert args.dag == "traffic"
        assert args.strategy == "ccr"
        assert args.profile == "surge"
        assert args.confirm_samples == 2

    def test_unknown_profile_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["elastic", "--profile", "tsunami"])

    def test_elastic_command_runs_end_to_end(self, capsys):
        from repro.cli import main

        exit_code = main([
            "elastic", "--dag", "linear", "--strategy", "ccr", "--profile", "surge",
            "--duration", "300", "--check-interval", "10", "--cooldown", "30", "--seed", "7",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Scaling actions" in output
        assert "scale-out" in output
        assert "total:" in output


class TestOfferedRate:
    """The drain-corrected load signal scaling decisions plan on."""

    def test_offered_rate_tracks_generation_through_pause_and_drain(self):
        runtime = make_runtime(small_chain(rate=10.0))
        runtime.start()
        monitor = ElasticityMonitor(runtime, interval_s=10.0)

        runtime.sim.run(until=10.0)
        steady = monitor.sample_now()
        assert steady.offered_rate == pytest.approx(steady.input_rate, rel=0.05)

        # Paused: nothing is emitted, but the load is still being offered.
        runtime.pause_sources()
        runtime.sim.run(until=20.0)
        paused = monitor.sample_now()
        assert paused.input_rate == 0.0
        assert paused.offered_rate == pytest.approx(10.0, rel=0.15)

        # Draining: the wire carries the backlog burst on top of fresh load,
        # but the offered rate stays the generation rate.
        runtime.unpause_sources()
        runtime.sim.run(until=30.0)
        draining = monitor.sample_now()
        assert draining.input_rate > 15.0
        assert draining.offered_rate == pytest.approx(10.0, rel=0.15)

    def test_drain_burst_does_not_trigger_spurious_scale_out(self):
        """A pause builds a backlog whose drain burst used to read as a
        surge; planning on the offered rate keeps the controller quiet."""
        from repro.cluster.cloud import CloudProvider
        from repro.elastic import AllocationPlanner, ElasticityController
        from repro.core.strategy import strategy_by_name

        runtime = make_runtime(small_chain(rate=8.0))
        runtime.start()
        provider = CloudProvider(runtime.sim, provisioning_latency_s=1.0)
        monitor = ElasticityMonitor(runtime, interval_s=5.0)
        controller = ElasticityController(
            runtime, provider, monitor, AllocationPlanner(runtime.dataflow),
            strategy_by_name("ccr"),
            config=ControllerConfig(check_interval_s=5.0, confirm_samples=1, cooldown_s=5.0),
        )
        controller.start()
        runtime.sim.schedule(12.0, runtime.pause_sources)
        runtime.sim.schedule(27.0, runtime.unpause_sources)
        runtime.sim.run(until=90.0)
        controller.stop()
        runtime.stop_sources()

        # The drain burst after t=27 pushed the *wire* rate well above the
        # expand threshold in at least one sample, yet no scale-out happened.
        assert any(s.input_rate > 12.0 for s in monitor.samples if not s.sources_paused)
        assert [a for a in controller.actions if a.direction == "out"] == []


class TestDrainAwareScaleInGuard:
    def test_guard_config_validated(self):
        with pytest.raises(ValueError):
            ControllerConfig(drain_guard_backlog_s=-1.0)

    def test_scale_in_held_until_backlog_absorbed(self):
        """After a surge ends, the consolidation must wait for the drain:
        with the guard on, every scale-in lands only once the backlog is
        below the guard threshold."""
        profile = StepProfile(steps=[(0.0, 8.0), (30.0, 24.0), (80.0, 8.0)])
        result = run_elastic_experiment(
            dag="traffic",
            strategy="ccr",
            profile=profile,
            duration_s=260.0,
            seed=11,
            dataflow=topologies.traffic(latency_s=0.02),
            config=fast_config("ccr", seed=11),
            controller_config=ControllerConfig(
                check_interval_s=5.0, confirm_samples=2, cooldown_s=10.0,
                drain_guard_backlog_s=5.0,
            ),
            provisioning_latency_s=2.0,
        )
        ins = result.scale_ins()
        assert ins, "the surge's end must eventually consolidate"
        guard = 5.0
        for action in ins:
            decided = action.decided_at
            sample = max(
                (s for s in result.samples if s.time <= decided),
                key=lambda s: s.time,
            )
            backlog = sample.queue_backlog + sample.source_backlog
            assert backlog <= guard * max(sample.offered_rate, 1.0), (
                f"scale-in at t={decided} enacted with {backlog} backlogged events"
            )

    def test_guard_disabled_consolidates_mid_drain(self):
        """Regression guard for the guard: with drain_guard_backlog_s=None the
        old behaviour (consolidating while a backlog drains) is reachable,
        proving the guard is what prevents it."""
        controller_kwargs = dict(
            check_interval_s=5.0, confirm_samples=1, cooldown_s=5.0,
        )
        profile = StepProfile(steps=[(0.0, 8.0), (20.0, 32.0), (60.0, 8.0)])

        def run(guard):
            return run_elastic_experiment(
                strategy="dcr",
                profile=profile,
                duration_s=150.0,
                seed=17,
                dataflow=small_chain(rate=8.0),
                config=fast_config("dcr", seed=17),
                controller_config=ControllerConfig(
                    drain_guard_backlog_s=guard, **controller_kwargs
                ),
                provisioning_latency_s=1.0,
            )

        unguarded = run(None)
        guarded = run(5.0)

        def earliest_in(result):
            ins = result.scale_ins()
            return min((a.decided_at for a in ins), default=None)

        unguarded_at = earliest_in(unguarded)
        guarded_at = earliest_in(guarded)
        assert unguarded_at is not None, "without the guard the drain is consolidated into"
        if guarded_at is not None:
            assert guarded_at >= unguarded_at
