"""Rescale scenario runner: capacity-adding vs placement-only scale-out.

The paper's migration strategies move a *fixed* set of executors between VMs,
so its scale-out adds machines without adding processing capacity.  This
runner quantifies what that scoping costs: the same dataflow rides the same
surge profile twice under the closed elasticity loop --

* **capacity-adding** -- the planner runs with ``elastic_parallelism``
  enabled, so the scale-out migration also *rescales* task instance counts
  (router re-keying + grouped-state re-partitioning) to match the surged
  rate;
* **placement-only** -- the paper's behaviour: the same slots are repacked
  onto one-slot D1 VMs while every task keeps its original parallelism.

Both runs share the same seed-derived random streams (the
``elastic_parallelism`` flag is not mixed into the seed), so the comparison
isolates the rescale decision.  When a surge pushes task input rates past
the deployed instances' service capacity, the placement-only run builds an
unbounded backlog while the capacity-adding run absorbs it -- the headline
the ``repro rescale`` CLI subcommand (and the acceptance test) checks.
"""

from __future__ import annotations

from repro.dataflow import topologies
from repro.experiments.compare import Comparison, RunRow
from repro.experiments.elastic import ElasticRunResult, run_elastic_experiment, surge_profile


def run_rescale_experiment(
    dag: str = "grid",
    strategy: str = "ccr",
    surge_multiplier: float = 2.0,
    duration_s: float = 600.0,
    seed: int = 2018,
) -> Comparison:
    """Compare capacity-adding and placement-only scale-out on one surge.

    The surge is a step profile: baseline rate until 25% of the run,
    ``surge_multiplier`` times that until 60%, then back to baseline.  The
    ``capacity`` run lets the elastic controller rescale task parallelism
    mid-migration; the ``placement`` run reproduces the paper's fixed-slot
    scaling.  The rows are windowed from the surge start to the end of the
    run, which includes the post-surge drain (a backlog the placement-only
    run accumulated keeps hurting its latency long after the surge ends).
    The controller runs at its default configuration: it plans on the
    monitor's offered rate (a post-surge drain burst does not read as fresh
    load), and the drain-aware guard holds any scale-in until the backlog the
    surge built has been absorbed.
    """
    if surge_multiplier <= 1.0:
        raise ValueError("surge_multiplier must be > 1 (otherwise there is no surge)")
    surge_start_s = duration_s * 0.25
    surge_end_s = duration_s * 0.60

    def _one_run(elastic_parallelism: bool) -> ElasticRunResult:
        dataflow = topologies.by_name(dag)
        base_rate = sum(float(source.rate) for source in dataflow.sources)
        return run_elastic_experiment(
            dag=dag,
            strategy=strategy,
            profile=surge_profile(base_rate, surge_multiplier, surge_start_s, surge_end_s),
            duration_s=duration_s,
            seed=seed,
            dataflow=dataflow,
            elastic_parallelism=elastic_parallelism,
        )

    rows = [
        RunRow(mode, _one_run(elastic_parallelism), window_start_s=surge_start_s)
        for mode, elastic_parallelism in (("capacity", True), ("placement", False))
    ]
    return Comparison(rows, label="mode", scenario="rescale")


def latency_improvement(comparison: Comparison) -> float:
    """``placement mean latency / capacity mean latency`` (>1 = rescale wins)."""
    capacity, placement = comparison.rows
    if capacity.mean_latency_s <= 0:
        return float("inf")
    return placement.mean_latency_s / capacity.mean_latency_s


def capacity_wins(comparison: Comparison) -> bool:
    """Whether capacity-adding scaling strictly beat placement-only scaling.

    Judged on mean sink latency and the backlog left at the end of the run
    (did the deployment actually absorb the surge?).  The transient peak is
    deliberately not part of the verdict: a drain-style protocol restarting
    twice as many executors briefly spikes its backlog during the migration
    window even when it goes on to win outright.
    """
    capacity, placement = comparison.rows
    return (
        capacity.mean_latency_s < placement.mean_latency_s
        and capacity.final_backlog < placement.final_backlog
    )


def verdict(comparison: Comparison) -> str:
    """The line ``repro rescale`` ends on."""
    if not capacity_wins(comparison):
        return ("Placement-only scaling was not beaten on this configuration "
                "(try a stronger --surge or a longer --duration).")
    capacity, placement = comparison.rows
    return (f"Capacity-adding rescale wins: {latency_improvement(comparison):.2f}x lower mean "
            f"sink latency, and {placement.final_backlog - capacity.final_backlog} "
            f"fewer backlogged events left at the end of the run than placement-only scaling.")
