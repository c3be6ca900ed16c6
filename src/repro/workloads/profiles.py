"""Input-rate profiles.

The paper's evaluation keeps the source rate fixed at 8 events/second; these
profiles exist so examples (and downstream users) can model the *dynamism*
that motivates migration in the first place -- input-rate changes that make
the current placement sub-optimal and trigger a scale-in or scale-out.

A profile maps simulated time to an instantaneous event rate; a source
reads it at every emission, and :data:`PROFILE_PRESETS` names the shapes the
CLI and the scenario runners accept.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataflow -> workloads)
    from repro.dataflow.graph import Dataflow


def _require_rate(name: str, value: float) -> None:
    """Reject a negative or NaN rate at construction.

    A source idles on ``rate <= 0`` (NaN compares false and would do worse),
    so a mistyped rate would otherwise show up as a silently empty run.  Zero
    stays legal: it is the idle rate.
    """
    if not value >= 0:
        raise ValueError(f"{name} must be a non-negative rate, got {value!r}")


class RateProfile(ABC):
    """Time-varying input rate (events/second)."""

    @abstractmethod
    def rate_at(self, time_s: float) -> float:
        """Instantaneous rate at the given simulated time."""


@dataclass
class ConstantRateProfile(RateProfile):
    """Fixed rate, as used in all the paper's experiments (8 ev/s)."""

    rate: float = 8.0

    def __post_init__(self) -> None:
        _require_rate("rate", self.rate)

    def rate_at(self, time_s: float) -> float:
        return self.rate


@dataclass
class StepProfile(RateProfile):
    """Rate that jumps between levels at given times.

    ``steps`` is a list of ``(start_time, rate)`` pairs sorted by time; the
    rate before the first step is the first rate.
    """

    steps: List[Tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("StepProfile needs at least one step")
        for _start, rate in self.steps:
            _require_rate("step rate", rate)
        self.steps = sorted(self.steps, key=lambda s: s[0])

    def rate_at(self, time_s: float) -> float:
        rate = self.steps[0][1]
        for start, step_rate in self.steps:
            if time_s >= start:
                rate = step_rate
            else:
                break
        return rate


@dataclass
class RampProfile(RateProfile):
    """Linear ramp from ``start_rate`` to ``end_rate`` over ``[ramp_start, ramp_end]``."""

    start_rate: float
    end_rate: float
    ramp_start_s: float
    ramp_end_s: float

    def __post_init__(self) -> None:
        _require_rate("start_rate", self.start_rate)
        _require_rate("end_rate", self.end_rate)

    def rate_at(self, time_s: float) -> float:
        if time_s <= self.ramp_start_s:
            return self.start_rate
        if time_s >= self.ramp_end_s:
            return self.end_rate
        fraction = (time_s - self.ramp_start_s) / (self.ramp_end_s - self.ramp_start_s)
        return self.start_rate + fraction * (self.end_rate - self.start_rate)


@dataclass
class BurstProfile(RateProfile):
    """A base rate with periodic multiplicative bursts.

    Models the "spiky" streams (e.g. social-media or alert storms) that make
    latency-sensitive applications want rapid elasticity.
    """

    base_rate: float = 8.0
    burst_multiplier: float = 4.0
    burst_period_s: float = 300.0
    burst_duration_s: float = 30.0

    def __post_init__(self) -> None:
        _require_rate("base_rate", self.base_rate)
        _require_rate("burst_multiplier", self.burst_multiplier)

    def rate_at(self, time_s: float) -> float:
        if self.burst_period_s <= 0:
            return self.base_rate
        phase = time_s % self.burst_period_s
        if phase < self.burst_duration_s:
            return self.base_rate * self.burst_multiplier
        return self.base_rate


@dataclass
class DiurnalProfile(RateProfile):
    """A smooth day/night cycle: sinusoidal between base and peak rate.

    Models the diurnal load pattern of user-facing services (quiet nights,
    busy daytimes) that predictive scaling policies are built for.  The rate starts at ``base_rate`` (t = 0 is midnight), peaks
    at ``base_rate * peak_multiplier`` half a period later, and returns --
    ``rate(t) = base * (1 + (peak_mult - 1) * (1 - cos(2*pi*t/period)) / 2)``.
    """

    base_rate: float = 8.0
    peak_multiplier: float = 3.0
    period_s: float = 86400.0

    def __post_init__(self) -> None:
        _require_rate("base_rate", self.base_rate)
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not self.peak_multiplier >= 1.0:
            raise ValueError("peak_multiplier must be at least 1")

    def rate_at(self, time_s: float) -> float:
        swing = (self.peak_multiplier - 1.0) * 0.5
        cycle = 1.0 - math.cos(2.0 * math.pi * time_s / self.period_s)
        return self.base_rate * (1.0 + swing * cycle)


# --------------------------------------------------------------- named presets
#: Factories for the named profiles the CLI and the elastic scenario runner
#: accept.  Each takes ``(base_rate, duration_s)`` and returns a profile whose
#: interesting dynamics fit inside ``[0, duration_s]``.
PROFILE_PRESETS: Dict[str, Callable[[float, float], RateProfile]] = {
    "constant": lambda base, duration: ConstantRateProfile(rate=base),
    # A rush-hour style surge: 1x -> 3x -> back to 1x.  The step times leave
    # room before and after the surge for the controller to observe steady
    # state, scale out, and scale back in.
    "surge": lambda base, duration: StepProfile(
        steps=[(0.0, base), (duration * 0.30, base * 3.0), (duration * 0.60, base)]
    ),
    # A linear climb to 3x that stays high (scale-out only).
    "ramp": lambda base, duration: RampProfile(
        start_rate=base, end_rate=base * 3.0,
        ramp_start_s=duration * 0.25, ramp_end_s=duration * 0.60,
    ),
    # Short periodic spikes, the classic hysteresis stress test.
    "burst": lambda base, duration: BurstProfile(
        base_rate=base, burst_multiplier=4.0,
        burst_period_s=max(duration / 4.0, 1.0),
        burst_duration_s=max(duration / 40.0, 0.5),
    ),
    # Two compressed day/night cycles per run: ramps a trend forecaster
    # can extrapolate and a lookahead oracle can front-run.
    "diurnal": lambda base, duration: DiurnalProfile(
        base_rate=base, peak_multiplier=3.0, period_s=max(duration / 2.0, 1.0),
    ),
}


def profile_by_name(name: str, base_rate: float = 8.0, duration_s: float = 900.0) -> RateProfile:
    """Construct one of the named preset profiles, scaled to a run duration."""
    try:
        factory = PROFILE_PRESETS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown rate profile {name!r}; choose from {sorted(PROFILE_PRESETS)}"
        ) from None
    return factory(base_rate, duration_s)


def attach_profile(
    dataflow: Dataflow, profile: Optional[Union[str, RateProfile]], duration_s: float
) -> Optional[RateProfile]:
    """Attach a rate profile to the dataflow's sources; return the total-rate profile.

    A preset name is instantiated per source at that source's own base rate
    (so the *total* offered rate follows the preset's shape); sources that
    already carry a profile keep it.  A :class:`RateProfile` instance
    describes one source's rate, so it is only accepted for single-source
    dataflows.  ``None`` keeps the sources' declared rates and returns ``None``.
    """
    if profile is None:
        return None
    sources = dataflow.sources
    if isinstance(profile, str):
        for source in sources:
            if source.profile is None:
                source.profile = profile_by_name(
                    profile, base_rate=float(source.rate), duration_s=duration_s
                )
        return profile_by_name(
            profile, base_rate=sum(float(s.rate) for s in sources), duration_s=duration_s
        )
    if len(sources) > 1:
        raise ValueError(
            "a RateProfile instance is ambiguous for a multi-source dataflow; "
            "attach per-source profiles to the SourceTasks and pass a preset "
            "name (or 'constant') instead"
        )
    sources[0].profile = profile
    return profile
