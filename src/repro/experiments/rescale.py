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

from dataclasses import dataclass
from typing import Dict

from repro.dataflow import topologies
from repro.experiments.elastic import ElasticRunResult, run_elastic_experiment, surge_profile
from repro.metrics.log import mean_latency


@dataclass
class RescaleRunSummary:
    """Aggregated surge-window behaviour of one elastic run."""

    #: ``capacity`` (rescale enabled) or ``placement`` (paper scoping).
    mode: str
    result: ElasticRunResult
    #: Mean end-to-end sink latency over [surge start, end of run] (seconds);
    #: ``inf`` when nothing reached a sink in the window (fully wedged).
    mean_sink_latency_s: float
    #: Largest total backlog observed by the monitor (executor queues plus
    #: source backlogs) from the surge start onwards.
    peak_backlog: int
    #: Backlog still outstanding at the last monitor sample.
    final_backlog: int
    #: Sink receipts in the measurement window.
    receipts: int
    #: Total user-task instances deployed when the run ended.
    final_instances: int

    def as_dict(self) -> Dict[str, object]:
        """Row for table formatting."""
        return {
            "mode": self.mode,
            "mean_latency_s": round(self.mean_sink_latency_s, 3),
            "peak_backlog": self.peak_backlog,
            "final_backlog": self.final_backlog,
            "receipts": self.receipts,
            "final_instances": self.final_instances,
            "scale_actions": len(self.result.actions),
            "cost": round(self.result.total_cost, 4),
        }


@dataclass
class RescaleComparisonResult:
    """Everything produced by one capacity-vs-placement comparison."""

    dag: str
    strategy: str
    surge_multiplier: float
    duration_s: float
    surge_start_s: float
    surge_end_s: float
    capacity: RescaleRunSummary
    placement: RescaleRunSummary

    @property
    def latency_improvement(self) -> float:
        """``placement mean latency / capacity mean latency`` (>1 = rescale wins)."""
        if self.capacity.mean_sink_latency_s <= 0:
            return float("inf")
        return self.placement.mean_sink_latency_s / self.capacity.mean_sink_latency_s

    @property
    def capacity_wins(self) -> bool:
        """Whether capacity-adding scaling strictly beat placement-only scaling.

        Judged on mean sink latency and the backlog left at the end of the
        run (did the deployment actually absorb the surge?).  The transient
        peak is deliberately not part of the verdict: a drain-style protocol
        restarting twice as many executors briefly spikes its backlog during
        the migration window even when it goes on to win outright.
        """
        return (
            self.capacity.mean_sink_latency_s < self.placement.mean_sink_latency_s
            and self.capacity.final_backlog < self.placement.final_backlog
        )


def _summarize(result: ElasticRunResult, mode: str, window_start_s: float) -> RescaleRunSummary:
    receipts = result.log.receipts_after(window_start_s)
    window_samples = [s for s in result.samples if s.time >= window_start_s]
    backlogs = [s.queue_backlog + s.source_backlog for s in window_samples]
    return RescaleRunSummary(
        mode=mode,
        result=result,
        mean_sink_latency_s=mean_latency(receipts, empty=float("inf")),
        peak_backlog=max(backlogs) if backlogs else 0,
        final_backlog=backlogs[-1] if backlogs else 0,
        receipts=len(receipts),
        final_instances=result.dataflow.total_instances(),
    )


def run_rescale_experiment(
    dag: str = "grid",
    strategy: str = "ccr",
    surge_multiplier: float = 2.0,
    duration_s: float = 600.0,
    seed: int = 2018,
) -> RescaleComparisonResult:
    """Compare capacity-adding and placement-only scale-out on one surge.

    The surge is a step profile: baseline rate until 25% of the run,
    ``surge_multiplier`` times that until 60%, then back to baseline.  The
    capacity-adding run lets the elastic controller rescale task parallelism
    mid-migration; the placement-only run reproduces the paper's fixed-slot
    scaling.  Summary metrics are measured from the surge start to the end of
    the run, which includes the post-surge drain (a backlog the placement-only
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

    capacity_result = _one_run(elastic_parallelism=True)
    placement_result = _one_run(elastic_parallelism=False)

    return RescaleComparisonResult(
        dag=dag,
        strategy=strategy,
        surge_multiplier=surge_multiplier,
        duration_s=duration_s,
        surge_start_s=surge_start_s,
        surge_end_s=surge_end_s,
        capacity=_summarize(capacity_result, "capacity", surge_start_s),
        placement=_summarize(placement_result, "placement", surge_start_s),
    )
