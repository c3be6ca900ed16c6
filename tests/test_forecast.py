"""Unit tests for the forecast stage: policies on synthetic rate series.

Pins down the properties the predictive control plane relies on:

* EWMA's lag after a step is bounded by ``(old - new) * (1 - alpha)^n``;
* Holt's trend smoothing extrapolates a steady ramp ahead of the last
  observation (where the provisioning lead time comes from);
* the profile-lookahead oracle is *exact* on step profiles;
* the reactive policy is the identity forecast.
"""

from __future__ import annotations

import math

import pytest

from repro.elastic.forecast import (
    FORECAST_POLICIES,
    EwmaPolicy,
    HoltWintersPolicy,
    ProfileLookaheadPolicy,
    ReactivePolicy,
    forecast_policy_by_name,
)
from repro.workloads.profiles import DiurnalProfile, StepProfile, profile_by_name

INTERVAL = 15.0


def feed(policy, rates, start=0.0, interval=INTERVAL):
    """Observe a series of rates at a fixed sampling interval; return last time."""
    t = start
    for rate in rates:
        t += interval
        policy.observe(t, rate)
    return t


class TestReactivePolicy:
    def test_identity_forecast(self):
        policy = ReactivePolicy()
        assert policy.forecast(0.0, 60.0) == 0.0
        t = feed(policy, [8.0, 9.5, 12.0])
        assert policy.forecast(t, 60.0) == 12.0
        # Horizon-independent: the future is always the last sample.
        assert policy.forecast(t, 600.0) == 12.0


class TestEwmaPolicy:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            EwmaPolicy(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaPolicy(alpha=1.5)

    def test_step_lag_bound(self):
        """After n samples of a step 8 -> 24, the remaining lag is exactly
        ``(24 - 8) * (1 - alpha)^n``."""
        alpha = 0.5
        policy = EwmaPolicy(alpha=alpha)
        t = feed(policy, [8.0] * 5)
        assert policy.forecast(t, 60.0) == pytest.approx(8.0)
        for n in range(1, 6):
            t += INTERVAL
            policy.observe(t, 24.0)
            expected = 24.0 - (24.0 - 8.0) * (1.0 - alpha) ** n
            assert policy.forecast(t, 60.0) == pytest.approx(expected)

    def test_forecast_stays_between_old_and_new_level(self):
        policy = EwmaPolicy(alpha=0.3)
        t = feed(policy, [8.0] * 3 + [24.0] * 4)
        level = policy.forecast(t, 60.0)
        assert 8.0 < level < 24.0


class TestHoltWintersPolicy:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            HoltWintersPolicy(alpha=0.0)
        with pytest.raises(ValueError):
            HoltWintersPolicy(beta=1.5)

    def test_trend_capture_on_ramp(self):
        """A steady ramp is extrapolated ahead: the forecast leads the last
        observation, and a one-interval horizon is close to the true next
        value of the ramp."""
        policy = HoltWintersPolicy(alpha=0.5, beta=0.3)
        slope_per_sample = 2.0
        rates = [8.0 + slope_per_sample * i for i in range(12)]
        t = feed(policy, rates)
        last = rates[-1]
        one_ahead = policy.forecast(t, INTERVAL)
        assert one_ahead > last, "a positive trend must lead the last observation"
        assert one_ahead == pytest.approx(last + slope_per_sample, rel=0.25)
        # Longer horizons extrapolate further.
        assert policy.forecast(t, 4 * INTERVAL) > one_ahead

    def test_flat_series_has_no_spurious_trend(self):
        policy = HoltWintersPolicy()
        t = feed(policy, [8.0] * 10)
        assert policy.forecast(t, 60.0) == pytest.approx(8.0, rel=0.01)

    def test_forecast_never_negative(self):
        policy = HoltWintersPolicy(alpha=0.9, beta=0.9)
        t = feed(policy, [32.0, 16.0, 4.0, 1.0])
        assert policy.forecast(t, 10 * INTERVAL) >= 0.0


class TestProfileLookaheadPolicy:
    def test_exact_on_step_profiles(self):
        profile = StepProfile(steps=[(0.0, 8.0), (300.0, 24.0), (600.0, 8.0)])
        policy = ProfileLookaheadPolicy(profile)
        # Exactness: the forecast IS the profile read at now + horizon.
        assert policy.forecast(200.0, 60.0) == 8.0
        assert policy.forecast(250.0, 60.0) == 24.0   # sees the step coming
        assert policy.forecast(299.0, 1.0) == 24.0
        assert policy.forecast(550.0, 60.0) == 8.0    # sees the step ending
        assert policy.forecast(0.0, 0.0) == 8.0

    def test_requires_profile(self):
        with pytest.raises(ValueError):
            ProfileLookaheadPolicy(None)  # type: ignore[arg-type]


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(FORECAST_POLICIES) == {"reactive", "ewma", "holt-winters", "lookahead"}

    def test_by_name_constructs(self):
        assert isinstance(forecast_policy_by_name("reactive"), ReactivePolicy)
        assert isinstance(forecast_policy_by_name("ewma", alpha=0.2), EwmaPolicy)
        profile = StepProfile(steps=[(0.0, 8.0)])
        lookahead = forecast_policy_by_name("lookahead", profile=profile)
        assert lookahead.profile is profile

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            forecast_policy_by_name("crystal-ball")

    def test_lookahead_requires_profile(self):
        with pytest.raises(ValueError):
            forecast_policy_by_name("lookahead")


class TestDiurnalProfile:
    def test_shape(self):
        profile = DiurnalProfile(base_rate=8.0, peak_multiplier=3.0, period_s=100.0)
        assert profile.rate_at(0.0) == pytest.approx(8.0)
        assert profile.rate_at(50.0) == pytest.approx(24.0)   # peak at half period
        assert profile.rate_at(100.0) == pytest.approx(8.0)   # back at the trough
        assert profile.rate_at(250.0) == pytest.approx(24.0)  # periodic
        rates = [profile.rate_at(t) for t in range(0, 100, 5)]
        assert min(rates) >= 8.0 - 1e-9 and max(rates) <= 24.0 + 1e-9

    def test_preset_registered(self):
        profile = profile_by_name("diurnal", base_rate=8.0, duration_s=600.0)
        assert isinstance(profile, DiurnalProfile)
        assert profile.period_s == pytest.approx(300.0)  # two cycles per run
        assert math.isclose(profile.rate_at(0.0), 8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(period_s=0.0)
        with pytest.raises(ValueError):
            DiurnalProfile(peak_multiplier=0.5)
