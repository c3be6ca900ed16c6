"""Rate-profile semantics and profile-driven source emission.

Complements the basic profile checks in ``test_workloads.py`` with the
boundary/ordering cases the elastic loop depends on, the named presets, and
the engine-level behaviour: a source whose emission rate follows its profile
over simulated time, re-arming the emit timer on rate changes.
"""

from __future__ import annotations

import pytest

from repro.dataflow.builder import TopologyBuilder
from repro.engine.runtime import TopologyRuntime
from repro.workloads import (
    PROFILE_PRESETS,
    BurstProfile,
    ConstantRateProfile,
    DiurnalProfile,
    RampProfile,
    StepProfile,
    profile_by_name,
)

from tests.conftest import build_cluster, fast_config
from repro.sim import Simulator


class TestRatesAreValidatedAtConstruction:
    """A negative or NaN rate fails loudly instead of idling the source."""

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    @pytest.mark.parametrize(
        "build",
        [
            lambda rate: ConstantRateProfile(rate=rate),
            lambda rate: StepProfile(steps=[(0.0, 8.0), (10.0, rate)]),
            lambda rate: RampProfile(start_rate=rate, end_rate=8.0, ramp_start_s=0.0, ramp_end_s=1.0),
            lambda rate: RampProfile(start_rate=8.0, end_rate=rate, ramp_start_s=0.0, ramp_end_s=1.0),
            lambda rate: BurstProfile(base_rate=rate),
            lambda rate: BurstProfile(burst_multiplier=rate),
            lambda rate: DiurnalProfile(base_rate=rate),
            lambda rate: DiurnalProfile(peak_multiplier=rate),
        ],
        ids=["constant", "step", "ramp-start", "ramp-end", "burst-base", "burst-multiplier",
             "diurnal-base", "diurnal-peak"],
    )
    def test_negative_and_nan_rates_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    def test_zero_is_the_idle_rate(self):
        assert ConstantRateProfile(rate=0.0).rate_at(1.0) == 0.0
        assert StepProfile(steps=[(0.0, 0.0)]).rate_at(1.0) == 0.0
        assert BurstProfile(base_rate=0.0).rate_at(1.0) == 0.0


class TestStepProfileBoundaries:
    def test_rate_before_first_step_is_first_rate(self):
        profile = StepProfile(steps=[(60.0, 16.0), (120.0, 4.0)])
        assert profile.rate_at(0.0) == 16.0
        assert profile.rate_at(59.999) == 16.0

    def test_boundary_time_belongs_to_the_new_level(self):
        profile = StepProfile(steps=[(0.0, 8.0), (100.0, 24.0)])
        assert profile.rate_at(99.999) == 8.0
        assert profile.rate_at(100.0) == 24.0

    def test_unsorted_steps_are_ordered_by_time(self):
        profile = StepProfile(steps=[(200.0, 2.0), (0.0, 8.0), (100.0, 16.0)])
        assert [s[0] for s in profile.steps] == [0.0, 100.0, 200.0]
        assert profile.rate_at(150.0) == 16.0
        assert profile.rate_at(200.0) == 2.0


class TestRampProfileEndpoints:
    def test_exact_endpoints(self):
        profile = RampProfile(start_rate=8.0, end_rate=32.0, ramp_start_s=100.0, ramp_end_s=300.0)
        assert profile.rate_at(100.0) == 8.0
        assert profile.rate_at(300.0) == 32.0

    def test_flat_before_and_after_the_ramp(self):
        profile = RampProfile(start_rate=8.0, end_rate=32.0, ramp_start_s=100.0, ramp_end_s=300.0)
        assert profile.rate_at(0.0) == 8.0
        assert profile.rate_at(1e9) == 32.0

    def test_midpoint(self):
        profile = RampProfile(start_rate=8.0, end_rate=24.0, ramp_start_s=0.0, ramp_end_s=100.0)
        assert profile.rate_at(50.0) == pytest.approx(16.0)


class TestBurstProfilePhaseMath:
    def test_burst_covers_exactly_the_burst_duration(self):
        profile = BurstProfile(base_rate=8.0, burst_multiplier=4.0,
                               burst_period_s=100.0, burst_duration_s=10.0)
        assert profile.rate_at(0.0) == 32.0
        assert profile.rate_at(9.999) == 32.0
        # The boundary instant belongs to the base phase.
        assert profile.rate_at(10.0) == 8.0
        assert profile.rate_at(99.999) == 8.0

    def test_phase_wraps_every_period(self):
        profile = BurstProfile(base_rate=8.0, burst_multiplier=4.0,
                               burst_period_s=100.0, burst_duration_s=10.0)
        for k in range(5):
            assert profile.rate_at(k * 100.0 + 5.0) == 32.0
            assert profile.rate_at(k * 100.0 + 50.0) == 8.0

    def test_non_positive_period_means_no_bursts(self):
        profile = BurstProfile(base_rate=8.0, burst_multiplier=4.0,
                               burst_period_s=0.0, burst_duration_s=10.0)
        assert profile.rate_at(0.0) == 8.0
        assert profile.rate_at(123.0) == 8.0


class TestNamedPresets:
    def test_all_presets_constructible(self):
        for name in PROFILE_PRESETS:
            profile = profile_by_name(name, base_rate=8.0, duration_s=600.0)
            assert profile.rate_at(0.0) > 0

    def test_surge_rises_and_returns(self):
        profile = profile_by_name("surge", base_rate=8.0, duration_s=600.0)
        assert profile.rate_at(0.0) == pytest.approx(8.0)
        assert profile.rate_at(300.0) == pytest.approx(24.0)
        assert profile.rate_at(599.0) == pytest.approx(8.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            profile_by_name("tsunami")


# --------------------------------------------------------------------------
# Engine level: profile-driven emission.
# --------------------------------------------------------------------------
def profiled_runtime(profile, rate: float = 10.0) -> TopologyRuntime:
    """A deployed source->task->sink runtime whose source follows ``profile``."""
    builder = TopologyBuilder("profiled")
    builder.add_source("source", rate=rate, profile=profile)
    builder.add_task("work", parallelism=1, latency_s=0.001)
    builder.add_sink("sink")
    builder.chain("source", "work", "sink")
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=1)
    runtime = TopologyRuntime(builder.build(), cluster, sim=sim, config=fast_config("dcr"))
    runtime.deploy()
    runtime.start()
    return runtime


class TestProfileDrivenSource:
    def test_emission_follows_step_profile(self):
        profile = StepProfile(steps=[(0.0, 10.0), (10.0, 40.0), (20.0, 10.0)])
        runtime = profiled_runtime(profile)
        runtime.sim.run(until=30.0)
        log = runtime.log
        low1 = len(log.emits_between(0.0, 10.0))
        high = len(log.emits_between(10.5, 19.5))
        low2 = len(log.emits_between(20.5, 29.5))
        assert low1 == pytest.approx(100, abs=2)
        assert high == pytest.approx(9.0 * 40.0, abs=4)
        assert low2 == pytest.approx(9.0 * 10.0, abs=2)

    def test_source_rate_attribute_tracks_profile(self):
        profile = StepProfile(steps=[(0.0, 10.0), (5.0, 20.0)])
        runtime = profiled_runtime(profile)
        source = runtime.source_executors[0]
        runtime.sim.run(until=1.0)
        assert source.rate == pytest.approx(10.0)
        runtime.sim.run(until=6.0)
        assert source.rate == pytest.approx(20.0)

    def test_zero_rate_idles_then_resumes(self):
        profile = StepProfile(steps=[(0.0, 10.0), (5.0, 0.0), (10.0, 10.0)])
        runtime = profiled_runtime(profile)
        runtime.sim.run(until=15.0)
        quiet = len(runtime.log.emits_between(5.5, 9.9))
        resumed = len(runtime.log.emits_between(10.5, 14.9))
        assert quiet == 0
        assert resumed > 30

    def test_fixed_rate_source_unchanged_by_refactor(self):
        runtime = profiled_runtime(None, rate=10.0)
        runtime.sim.run(until=10.0)
        # Ticks at 0.1, 0.2, ..., 10.0 -> exactly 100 emissions.
        assert len(runtime.log.source_emits) == 100

    def test_stop_cancels_emit_and_drain_timers(self):
        """Regression: stop() used to leave a live drain timer emitting backlog."""
        runtime = profiled_runtime(None, rate=10.0)
        source = runtime.source_executors[0]
        runtime.sim.run(until=2.0)
        runtime.pause_sources()
        runtime.sim.run(until=4.0)  # backlog accumulates while paused
        assert source.backlog_size > 0
        runtime.unpause_sources()   # drain timer is now live
        runtime.stop_sources()
        emitted_at_stop = len(runtime.log.source_emits)
        runtime.sim.run(until=20.0)
        assert len(runtime.log.source_emits) == emitted_at_stop
        assert source._emit_timer is None
        assert source._drain_timer is None
