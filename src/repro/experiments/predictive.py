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

from typing import Optional, Sequence, Tuple

from repro.dataflow import topologies
from repro.elastic import ControllerConfig
from repro.elastic.forecast import FORECAST_POLICIES
from repro.experiments.compare import Comparison, RunRow
from repro.experiments.elastic import run_elastic_experiment, surge_profile
from repro.experiments.scenarios import check_names
from repro.workloads.profiles import RampProfile, RateProfile, profile_by_name

#: Policies compared by default, in report order.
DEFAULT_POLICIES: Tuple[str, ...] = ("reactive", "ewma", "holt-winters", "lookahead")


def _scenario_profile(
    name: str, base_rate: float, duration_s: float, surge_multiplier: float
) -> RateProfile:
    """The scenario's total-rate profile: a step ``surge``/``step`` or a
    ``ramp`` over 25 %-60 % of the run, or a named preset."""
    start, end = duration_s * 0.25, duration_s * 0.60
    if name in ("surge", "step"):
        return surge_profile(base_rate, surge_multiplier, start, end)
    if name == "ramp":
        return RampProfile(
            start_rate=base_rate, end_rate=base_rate * surge_multiplier,
            ramp_start_s=start, ramp_end_s=end,
        )
    # Named presets (diurnal, burst, ...) have no single surge instant.
    return profile_by_name(name, base_rate=base_rate, duration_s=duration_s)


def run_predictive_experiment(
    dag: str = "grid",
    strategy: str = "ccr",
    profile: str = "surge",
    policies: Sequence[str] = DEFAULT_POLICIES,
    surge_multiplier: float = 2.0,
    duration_s: float = 600.0,
    seed: int = 2018,
    slo_latency_s: float = 30.0,
    placement: str = "incremental",
) -> Comparison:
    """Compare forecast policies head to head on one dynamism scenario.

    Each policy rides the same profile (step ``surge``/``ramp`` scaled by
    ``surge_multiplier``, or a named preset such as ``diurnal``) with the
    same seed-derived random streams, capacity-adding rescale, the
    SLO-breach override armed at ``slo_latency_s``, and (by default) the
    incremental placer -- so the runs differ *only* in the forecast policy.
    A policy list that is empty, names an unknown policy or names one twice
    raises ``ValueError`` before any run.
    """
    check_names("policies", policies, FORECAST_POLICIES, "forecast policy", unique=True)
    if surge_multiplier <= 1.0:
        raise ValueError("surge_multiplier must be > 1 (otherwise there is no surge)")

    def _one_run(policy: str) -> RunRow:
        dataflow = topologies.by_name(dag)
        base_rate = sum(float(source.rate) for source in dataflow.sources)
        return RunRow(policy, run_elastic_experiment(
            dag=dag,
            strategy=strategy,
            profile=_scenario_profile(profile, base_rate, duration_s, surge_multiplier),
            duration_s=duration_s,
            seed=seed,
            dataflow=dataflow,
            controller_config=ControllerConfig(
                slo_latency_s=slo_latency_s, placement=placement, forecast_policy=policy
            ),
            elastic_parallelism=True,
            forecast_policy=policy,
        ))

    return Comparison([_one_run(policy) for policy in policies], label="policy",
                      scenario="predict", meta=dict(
        schema="repro-bench-predictive/2",
        dag=dag,
        strategy=strategy,
        profile=profile,
        slo_latency_s=slo_latency_s,
        benchmarks={"slo_violation_s": "slo_violation_s"},
    ))


def best_predictive(comparison: Comparison) -> Optional[RunRow]:
    """The non-reactive policy with the fewest SLO-violation seconds."""
    return min((row for row in comparison.rows if row.label != "reactive"),
               key=lambda row: row.slo_violation_s, default=None)


def violation_improvement_s(comparison: Comparison, policy: str) -> Optional[float]:
    """SLO-violation seconds saved vs the reactive baseline (>0 = better)."""
    runs = comparison.runs
    if "reactive" not in runs or policy not in runs:
        return None
    return runs["reactive"].slo_violation_s - runs[policy].slo_violation_s


def verdict(comparison: Comparison) -> Optional[str]:
    """Whether the best predictive policy beat reactive; None unless both rode."""
    best = best_predictive(comparison)
    saved = None if best is None else violation_improvement_s(comparison, best.label)
    if saved is None:
        return None
    if saved > 0:
        return (f"Best predictive policy ({best.label}): {saved:.0f}s fewer SLO-violation "
                f"seconds than reactive ({best.slo_violation_s:.0f}s vs "
                f"{comparison.runs['reactive'].slo_violation_s:.0f}s).")
    return ("No predictive policy beat the reactive baseline on this scenario "
            "(try a longer horizon, a stronger surge, or the lookahead oracle).")
