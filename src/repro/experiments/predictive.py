"""Predictive scenario runner: reactive vs forecast-driven scaling policies.

The control rule's demand forecaster is pluggable; this runner
quantifies what each policy buys.  The same dataflow rides the same profile
once per policy -- ``reactive`` (the original threshold loop), ``ewma``,
``holt-winters`` and the ``lookahead`` oracle -- with identical seeds (the
policy is deliberately not mixed into the random streams), and each run is
scored on:

* **SLO-violation seconds** -- how long the mean sink latency spent above the
  configured SLO (the metric rapid elasticity exists to minimize);
* **provisioning lead time** -- how far *before* the surge lands the first
  scale-out was decided (positive = the fleet was growing before the load
  arrived; reactive policies are always negative by at least the detection
  lag);
* **cost** -- the cloud bill, because front-running a surge keeps extra
  capacity billed for longer (the trade-off the comparison table surfaces).

All runs enable capacity-adding parallelism rescale and the SLO-breach
override, so the comparison isolates the *forecast* stage.  The ``repro
predict`` CLI subcommand prints the comparison table and can emit the
headline numbers as JSON (``--json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.dataflow import topologies
from repro.elastic import ControllerConfig
from repro.experiments.elastic import ElasticRunResult, run_elastic_experiment
from repro.metrics.log import mean_latency
from repro.workloads.profiles import RampProfile, RateProfile, StepProfile, profile_by_name

#: Policies compared by default, in report order.
DEFAULT_POLICIES: Tuple[str, ...] = ("reactive", "ewma", "holt-winters", "lookahead")


@dataclass
class PredictiveRunSummary:
    """How one forecast policy fared on the shared scenario."""

    policy: str
    result: ElasticRunResult
    slo_latency_s: float
    #: Seconds of the run whose mean sink latency exceeded the SLO.
    slo_violation_s: float
    #: Mean end-to-end sink latency over the whole run (``inf`` if wedged).
    mean_sink_latency_s: float
    peak_backlog: int
    #: Simulated time the first scale-out was decided (None: never).
    first_scale_out_at: Optional[float]
    #: ``surge_start - first_scale_out_at``; positive = provisioned before
    #: the surge landed.  None when the scenario has no step surge or the
    #: policy never scaled out.
    provision_lead_s: Optional[float]
    scale_actions: int
    total_cost: float

    def as_dict(self) -> Dict[str, object]:
        """Row for table formatting."""
        return {
            "policy": self.policy,
            "slo_violation_s": round(self.slo_violation_s, 1),
            "lead_s": round(self.provision_lead_s, 1) if self.provision_lead_s is not None else "-",
            "mean_latency_s": (
                round(self.mean_sink_latency_s, 3)
                if self.mean_sink_latency_s != float("inf") else "inf"
            ),
            "peak_backlog": self.peak_backlog,
            "scale_actions": self.scale_actions,
            "cost": round(self.total_cost, 4),
        }


@dataclass
class PredictiveComparisonResult:
    """Everything produced by one reactive-vs-predictive comparison."""

    dag: str
    strategy: str
    profile: str
    duration_s: float
    slo_latency_s: float
    #: Step-surge window when the scenario has one (None for diurnal).
    surge_start_s: Optional[float]
    surge_end_s: Optional[float]
    #: Policy name -> its run summary, in requested order.
    runs: Dict[str, PredictiveRunSummary] = field(default_factory=dict)
    #: Policy name -> the run's :class:`repro.obs.Telemetry` (telemetry runs
    #: only; empty otherwise).
    telemetries: Dict[str, object] = field(default_factory=dict)

    @property
    def reactive(self) -> Optional[PredictiveRunSummary]:
        """The reactive baseline run, if it was part of the comparison."""
        return self.runs.get("reactive")

    def violation_improvement_s(self, policy: str) -> Optional[float]:
        """SLO-violation seconds saved vs the reactive baseline (>0 = better)."""
        baseline = self.reactive
        if baseline is None or policy not in self.runs:
            return None
        return baseline.slo_violation_s - self.runs[policy].slo_violation_s

    def best_predictive(self) -> Optional[PredictiveRunSummary]:
        """The non-reactive policy with the fewest SLO-violation seconds."""
        candidates = [s for name, s in self.runs.items() if name != "reactive"]
        if not candidates:
            return None
        return min(candidates, key=lambda s: s.slo_violation_s)

    def headline_benchmarks(self) -> Dict[str, float]:
        """Per-policy SLO-violation seconds, the unit in the name."""
        return {
            f"predict_{summary.policy}_slo_violation_s": summary.slo_violation_s
            for summary in self.runs.values()
        }

    def write_headline_json(
        self, path: Union[str, Path], timestamp: Optional[str] = None
    ) -> Path:
        """Write the headline numbers as ``{name: value}`` JSON."""
        from ..metrics.metadata import run_metadata

        payload = run_metadata(
            "repro-bench-predictive/2",
            timestamp=timestamp,
            dag=self.dag,
            strategy=self.strategy,
            profile=self.profile,
            slo_latency_s=self.slo_latency_s,
            benchmarks=self.headline_benchmarks(),
        )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path


def _summarize(
    policy: str,
    result: ElasticRunResult,
    slo_latency_s: float,
    surge_start_s: Optional[float],
) -> PredictiveRunSummary:
    backlogs = [s.queue_backlog + s.source_backlog for s in result.samples]
    outs = result.scale_outs()
    first_out = min((a.decided_at for a in outs), default=None)
    lead: Optional[float] = None
    if surge_start_s is not None and first_out is not None:
        lead = surge_start_s - first_out
    return PredictiveRunSummary(
        policy=policy,
        result=result,
        slo_latency_s=slo_latency_s,
        slo_violation_s=result.monitor.slo_violation_seconds(slo_latency_s),
        mean_sink_latency_s=mean_latency(result.log.sink_receipts, empty=float("inf")),
        peak_backlog=max(backlogs) if backlogs else 0,
        first_scale_out_at=first_out,
        provision_lead_s=lead,
        scale_actions=len(result.actions),
        total_cost=result.total_cost,
    )


def _scenario_profile(
    name: str, base_rate: float, duration_s: float, surge_multiplier: float
) -> Tuple[RateProfile, Optional[float], Optional[float]]:
    """The scenario's total-rate profile plus its surge window (if step-like)."""
    if name in ("surge", "step"):
        start, end = duration_s * 0.25, duration_s * 0.60
        profile: RateProfile = StepProfile(
            steps=[(0.0, base_rate), (start, base_rate * surge_multiplier), (end, base_rate)]
        )
        return profile, start, end
    if name == "ramp":
        start, end = duration_s * 0.25, duration_s * 0.60
        return (
            RampProfile(
                start_rate=base_rate, end_rate=base_rate * surge_multiplier,
                ramp_start_s=start, ramp_end_s=end,
            ),
            start,
            end,
        )
    # Named presets (diurnal, burst, ...) have no single surge instant.
    return profile_by_name(name, base_rate=base_rate, duration_s=duration_s), None, None


def run_predictive_experiment(
    dag: str = "grid",
    strategy: str = "ccr",
    profile: str = "surge",
    policies: Sequence[str] = DEFAULT_POLICIES,
    surge_multiplier: float = 2.0,
    duration_s: float = 600.0,
    seed: int = 2018,
    slo_latency_s: float = 30.0,
    instance_capacity_ev_s: float = 8.0,
    controller_config: Optional[ControllerConfig] = None,
    elastic_parallelism: bool = True,
    placement: str = "incremental",
    telemetry: bool = False,
) -> PredictiveComparisonResult:
    """Compare forecast policies head to head on one dynamism scenario.

    Each policy rides the same profile (step ``surge``/``ramp`` scaled by
    ``surge_multiplier``, or a named preset such as ``diurnal``) with the
    same seed-derived random streams, capacity-adding rescale, the
    SLO-breach override armed at ``slo_latency_s``, and (by default) the
    incremental placer -- so the runs differ *only* in the forecast policy.
    """
    if not policies:
        raise ValueError("need at least one policy to compare")
    if surge_multiplier <= 1.0:
        raise ValueError("surge_multiplier must be > 1 (otherwise there is no surge)")
    if controller_config is None:
        controller_config = ControllerConfig(
            check_interval_s=15.0, confirm_samples=2, cooldown_s=60.0
        )
    base_config = replace(
        controller_config,
        slo_latency_s=slo_latency_s,
        placement=placement,
    )

    comparison: Optional[PredictiveComparisonResult] = None
    for policy in policies:
        dataflow = topologies.by_name(dag)
        base_rate = sum(float(source.rate) for source in dataflow.sources)
        rate_profile, surge_start, surge_end = _scenario_profile(
            profile, base_rate, duration_s, surge_multiplier
        )
        if comparison is None:
            comparison = PredictiveComparisonResult(
                dag=dag,
                strategy=strategy,
                profile=profile,
                duration_s=duration_s,
                slo_latency_s=slo_latency_s,
                surge_start_s=surge_start,
                surge_end_s=surge_end,
            )
        result = run_elastic_experiment(
            dag=dag,
            strategy=strategy,
            profile=rate_profile,
            duration_s=duration_s,
            seed=seed,
            dataflow=dataflow,
            controller_config=replace(base_config, forecast_policy=policy),
            instance_capacity_ev_s=instance_capacity_ev_s,
            elastic_parallelism=elastic_parallelism,
            forecast_policy=policy,
            telemetry=telemetry,
        )
        comparison.runs[policy] = _summarize(policy, result, slo_latency_s, surge_start)
        if result.telemetry is not None:
            result.telemetry.meta.update(policy=policy, scenario="predict")
            comparison.telemetries[policy] = result.telemetry
    assert comparison is not None
    return comparison
