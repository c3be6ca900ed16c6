"""Demand forecasters for the predictive control plane.

A :class:`ForecastPolicy` is the forecast the elastic control rule
(:func:`~repro.elastic.policy.decide`) plans on: it consumes the monitor's
offered-rate samples and predicts the rate ``horizon_s`` seconds ahead, so
the planner can size capacity for the load that will be there *when the new
VMs come up* instead of the load that was there when the sample was taken.

Four policies are provided:

* :class:`ReactivePolicy` -- the identity forecast (predicts the last
  observed rate).  The rule then is the plain threshold-plus-hysteresis
  controller; it is the default.
* :class:`EwmaPolicy` -- exponentially weighted moving average.  Smooths
  burst noise; deliberately *lags* level shifts (the lag is bounded by
  ``(1 - alpha)^n``), so it trades reaction speed for stability.
* :class:`HoltWintersPolicy` -- Holt's double exponential smoothing (level +
  trend; registered as ``holt-winters``, without a seasonal component).  A
  steady ramp is extrapolated ``horizon_s`` ahead, which is what buys
  provisioning lead time on gradual surges.
* :class:`ProfileLookaheadPolicy` -- reads the workload's own
  :class:`~repro.workloads.profiles.RateProfile` at ``now + horizon``.  This
  is the oracle bound: operators with a published schedule (TV events,
  market opens) can front-run the surge exactly.

Policies are deterministic and allocate nothing per observation beyond a few
floats, so they add no noise to same-seed reproducibility.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Type

from repro.workloads.profiles import RateProfile


class ForecastPolicy(ABC):
    """Predicts the offered input rate a fixed horizon ahead."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    def observe(self, time_s: float, rate_ev_s: float) -> None:
        """Feed one monitor observation (simulated time, offered ev/s)."""

    @abstractmethod
    def forecast(self, now_s: float, horizon_s: float) -> float:
        """Predicted offered rate at ``now_s + horizon_s`` (ev/s, >= 0)."""

    def describe(self) -> str:
        """Human-readable one-liner for experiment reports."""
        return self.name


class ReactivePolicy(ForecastPolicy):
    """Identity forecast: the future is the last observed sample.

    With it the control rule plans on the rate it just observed: the plain
    reactive threshold controller.
    """

    name = "reactive"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def observe(self, time_s: float, rate_ev_s: float) -> None:
        self._last = rate_ev_s

    def forecast(self, now_s: float, horizon_s: float) -> float:
        return self._last if self._last is not None else 0.0


class EwmaPolicy(ForecastPolicy):
    """Exponentially weighted moving average of the offered rate.

    The forecast is the smoothed *level* (EWMA carries no trend, so the
    horizon does not enter).  After ``n`` samples of a new constant rate the
    remaining lag is ``(old - new) * (1 - alpha)^n`` -- the bound the unit
    tests pin down.
    """

    name = "ewma"

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.level: Optional[float] = None

    def observe(self, time_s: float, rate_ev_s: float) -> None:
        if self.level is None:
            self.level = rate_ev_s
        else:
            self.level = self.alpha * rate_ev_s + (1.0 - self.alpha) * self.level

    def forecast(self, now_s: float, horizon_s: float) -> float:
        return max(0.0, self.level) if self.level is not None else 0.0


class HoltWintersPolicy(ForecastPolicy):
    """Holt's linear trend smoothing (no seasonal component).

    Level and trend are updated per observation; the forecast extrapolates
    ``level + trend * steps`` where ``steps`` is the horizon expressed in
    (smoothed) sampling intervals.
    """

    name = "holt-winters"

    def __init__(self, alpha: float = 0.5, beta: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self.alpha = alpha
        self.beta = beta
        self.level: Optional[float] = None
        self.trend = 0.0
        self._last_time: Optional[float] = None
        #: Smoothed sampling interval, used to convert the horizon to steps.
        self._dt: Optional[float] = None

    def observe(self, time_s: float, rate_ev_s: float) -> None:
        if self._last_time is not None:
            dt = time_s - self._last_time
            if dt > 0:
                self._dt = dt if self._dt is None else 0.3 * dt + 0.7 * self._dt
        self._last_time = time_s
        if self.level is None:
            self.level = rate_ev_s
            return
        previous_level = self.level
        self.level = self.alpha * rate_ev_s + (1.0 - self.alpha) * (self.level + self.trend)
        self.trend = self.beta * (self.level - previous_level) + (1.0 - self.beta) * self.trend

    def forecast(self, now_s: float, horizon_s: float) -> float:
        if self.level is None:
            return 0.0
        steps = horizon_s / self._dt if self._dt else 0.0
        return max(0.0, self.level + self.trend * steps)


class ProfileLookaheadPolicy(ForecastPolicy):
    """Oracle forecast: read the workload's own rate profile ahead of now.

    Models an operator who *knows* the schedule (a published event calendar,
    a contracted batch window): capacity is provisioned for the rate the
    profile will offer when the horizon elapses.  Exact on step profiles --
    the lookahead-exactness unit test pins this down.
    """

    name = "lookahead"

    def __init__(self, profile: RateProfile) -> None:
        if profile is None:
            raise ValueError("ProfileLookaheadPolicy needs the workload's RateProfile")
        self.profile = profile

    def forecast(self, now_s: float, horizon_s: float) -> float:
        return max(0.0, float(self.profile.rate_at(now_s + horizon_s)))


#: Registry of the forecast policies by the name
#: :func:`~repro.experiments.elastic.run_elastic_experiment` takes.
#: ``lookahead`` is special-cased by :func:`forecast_policy_by_name` because
#: it needs the workload's profile.
FORECAST_POLICIES: Dict[str, Type[ForecastPolicy]] = {
    ReactivePolicy.name: ReactivePolicy,
    EwmaPolicy.name: EwmaPolicy,
    HoltWintersPolicy.name: HoltWintersPolicy,
    ProfileLookaheadPolicy.name: ProfileLookaheadPolicy,
}


def forecast_policy_by_name(
    name: str, profile: Optional[RateProfile] = None, **kwargs
) -> ForecastPolicy:
    """Construct a registered forecast policy by name.

    ``profile`` is required by (and only consumed for) ``lookahead``; other
    keyword arguments are forwarded to the policy constructor.
    """
    try:
        policy_cls = FORECAST_POLICIES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown forecast policy {name!r}; choose from {sorted(FORECAST_POLICIES)}"
        ) from None
    if policy_cls is ProfileLookaheadPolicy:
        if profile is None:
            raise ValueError(
                "the 'lookahead' forecast policy needs the workload's RateProfile; "
                "pass profile= (the closed-loop runner, "
                "repro.experiments.elastic.run_elastic_experiment, passes the run's own)"
            )
        return ProfileLookaheadPolicy(profile, **kwargs)
    return policy_cls(**kwargs)
