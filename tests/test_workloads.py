"""Unit tests for workload payload factories and rate profiles."""

from __future__ import annotations

import pytest

from repro.workloads import (
    BurstProfile,
    ConstantRateProfile,
    RampProfile,
    StepProfile,
    gps_payload_factory,
)


class TestPayloadFactories:
    def test_gps_payload_structure(self):
        factory = gps_payload_factory(vehicle_count=100)
        payload = factory(257)
        assert payload["key"] == "vehicle-57"
        assert payload["speed_kmph"] >= 0.0
        assert 0 <= payload["heading_deg"] < 360
        assert payload["segment"].startswith("seg-")

    def test_factories_are_deterministic_given_seed(self):
        a = gps_payload_factory(seed=5)
        b = gps_payload_factory(seed=5)
        assert [a(i) for i in range(10)] == [b(i) for i in range(10)]

    def test_different_seeds_give_different_values(self):
        a = gps_payload_factory(seed=1)
        b = gps_payload_factory(seed=2)
        assert [a(i)["speed_kmph"] for i in range(20)] != [b(i)["speed_kmph"] for i in range(20)]


class TestRateProfiles:
    def test_constant_profile(self):
        profile = ConstantRateProfile(rate=8.0)
        assert profile.rate_at(0.0) == 8.0
        assert profile.rate_at(1e6) == 8.0

    def test_step_profile_changes_at_boundaries(self):
        profile = StepProfile(steps=[(0.0, 8.0), (100.0, 16.0), (200.0, 4.0)])
        assert profile.rate_at(50.0) == 8.0
        assert profile.rate_at(100.0) == 16.0
        assert profile.rate_at(150.0) == 16.0
        assert profile.rate_at(250.0) == 4.0

    def test_step_profile_sorts_steps(self):
        profile = StepProfile(steps=[(100.0, 16.0), (0.0, 8.0)])
        assert profile.rate_at(10.0) == 8.0

    def test_step_profile_requires_steps(self):
        with pytest.raises(ValueError):
            StepProfile(steps=[])

    def test_ramp_profile_interpolates(self):
        profile = RampProfile(start_rate=8.0, end_rate=16.0, ramp_start_s=100.0, ramp_end_s=200.0)
        assert profile.rate_at(50.0) == 8.0
        assert profile.rate_at(150.0) == pytest.approx(12.0)
        assert profile.rate_at(300.0) == 16.0

    def test_burst_profile_periodic_bursts(self):
        profile = BurstProfile(base_rate=8.0, burst_multiplier=4.0, burst_period_s=100.0, burst_duration_s=10.0)
        assert profile.rate_at(5.0) == 32.0
        assert profile.rate_at(50.0) == 8.0
        assert profile.rate_at(105.0) == 32.0
