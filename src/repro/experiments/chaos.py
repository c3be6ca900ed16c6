"""Chaos comparison: one eviction storm on a spot fleet, ridden in two recovery modes.

The elasticity papers' migration machinery assumes *planned* reconfiguration;
a spot-heavy fleet adds the unplanned kind.  A chaos run is a closed-loop run
(:func:`repro.experiments.elastic.run_elastic_experiment`) given a
:class:`~repro.experiments.elastic.Storm`: the dataflow is deployed on spot
worker VMs, a deterministic eviction storm
(:class:`~repro.cluster.chaos.ChaosSchedule`) fires at the fleet, and
:func:`run_chaos_experiment` rides the same storm once per *recovery mode*:

* ``notice`` — the controller receives each eviction **notice** and drains the
  doomed VM inside the window (:meth:`ElasticityController.handle_eviction_notice`):
  replacement capacity is shopped on the spot/on-demand market, executors are
  migrated off live with the configured strategy, and the VM is released
  before the cloud reclaims it;
* ``oblivious`` — the notice is ignored; the VM dies at the deadline with its
  executors on board and recovery is entirely unplanned
  (:meth:`ElasticityController.handle_vm_failure`): failed trees are replayed
  through the acker, rescue capacity is provisioned on-demand, and keyed
  state is restored from the last committed checkpoint.

Both modes share the storm schedule, the seeds and every random stream — the
comparison isolates what the notice window is worth, scored on **restore
latency** (unavailability after each reclaim), **replayed messages** and the
**cloud bill**.  The ``repro chaos`` CLI subcommand prints the table and can
emit the headline numbers as JSON (``--json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.engine.config import RuntimeConfig
from repro.experiments.elastic import STORM_MODES, ElasticRunResult, Storm, run_elastic_experiment
from repro.experiments.scenarios import check_names
from repro.metrics.metadata import write_headline_json

#: Recovery modes compared by default, in report order: every one there is.
DEFAULT_MODES: Tuple[str, ...] = STORM_MODES


@dataclass
class ChaosRunSummary:
    """How one recovery mode fared on the shared storm."""

    mode: str
    result: ElasticRunResult
    faults: int
    killed: int
    evaded: int
    #: Mean unavailability per fault after the cloud's reclaim moment.
    mean_restore_s: float
    #: Mean evacuation drain time (notice -> drained); None when none ran.
    mean_drain_s: Optional[float]
    replayed_messages: int
    events_lost: int
    provisioning_failures: int
    total_cost: float

    def as_dict(self) -> Dict[str, object]:
        """Row for table formatting."""
        return {
            "mode": self.mode,
            "killed": self.killed,
            "evaded": self.evaded,
            "restore_s": round(self.mean_restore_s, 2),
            "drain_s": round(self.mean_drain_s, 2) if self.mean_drain_s is not None else "-",
            "replays": self.replayed_messages,
            "events_lost": self.events_lost,
            "cost": round(self.total_cost, 4),
        }


@dataclass
class ChaosComparisonResult:
    """Everything produced by one notice-vs-oblivious storm comparison."""

    dag: str
    strategy: str
    duration_s: float
    storm_count: int
    notice_s: float
    #: Mode name -> its run summary, in requested order.
    runs: Dict[str, ChaosRunSummary] = field(default_factory=dict)

    @property
    def notice(self) -> Optional[ChaosRunSummary]:
        return self.runs.get("notice")

    @property
    def oblivious(self) -> Optional[ChaosRunSummary]:
        return self.runs.get("oblivious")

    def headline_benchmarks(self) -> Dict[str, float]:
        """Per-mode restore latency, replay count and bill, the unit in the name."""
        benchmarks: Dict[str, float] = {}
        for summary in self.runs.values():
            key = summary.mode.replace("-", "_")
            benchmarks[f"chaos_{key}_restore_s"] = summary.mean_restore_s
            benchmarks[f"chaos_{key}_replays"] = summary.replayed_messages
            benchmarks[f"chaos_{key}_cost_usd"] = summary.total_cost
        return benchmarks

    def write_headline_json(
        self, path: Union[str, Path], timestamp: Optional[str] = None
    ) -> Path:
        """Write the headline numbers as ``{name: value}`` JSON."""
        return write_headline_json(
            path,
            "repro-bench-chaos/2",
            timestamp=timestamp,
            dag=self.dag,
            strategy=self.strategy,
            duration_s=self.duration_s,
            storm_count=self.storm_count,
            notice_s=self.notice_s,
            benchmarks=self.headline_benchmarks(),
        )


def run_chaos_run(
    dag: str = "grid-keyed",
    strategy: str = "dsm",
    mode: str = "notice",
    duration_s: float = 600.0,
    seed: int = 2018,
    storm_count: int = 3,
    storm_start_s: float = 150.0,
    storm_spacing_s: float = 120.0,
    notice_s: float = 120.0,
    config: Optional[RuntimeConfig] = None,
) -> ElasticRunResult:
    """Ride one eviction storm in one recovery mode.

    The dataflow is deployed on a **spot** D2 worker fleet (the on-demand D3
    util VM hosting sources and sinks is off-limits to the injector, as the
    infrastructure VMs are in the paper's setup), periodic checkpoints are
    forced on for every strategy (unplanned recovery needs a committed
    checkpoint to restore from), and ``storm_count`` evictions fire from
    ``storm_start_s`` on, ``storm_spacing_s`` apart, with ``notice_s`` of
    warning.  In ``"notice"`` mode the warning is wired to the controller; in
    ``"oblivious"`` mode it is dropped and the VM simply dies at the deadline.

    The autoscaling loop is *not* started: the run isolates fault handling.
    Pass ``config`` to override the runtime configuration (e.g. the batch
    stepper's on/off equivalence check); its seed is the cell's.
    Raises ``ValueError`` unless ``notice_s`` and ``storm_spacing_s`` are
    ``>= 0`` and ``0 <= storm_start_s < duration_s``.
    """
    return run_elastic_experiment(
        dag=dag,
        strategy=strategy,
        profile=None,
        duration_s=duration_s,
        seed=seed,
        config=config,
        storm=Storm(
            mode=mode,
            count=storm_count,
            start_s=storm_start_s,
            spacing_s=storm_spacing_s,
            notice_s=notice_s,
        ),
    )


def _summarize(result: ElasticRunResult) -> ChaosRunSummary:
    latencies = result.restore_latencies()
    drains = [
        rec.evacuation_latency_s
        for rec in result.evacuations
        if rec.evacuation_latency_s is not None
    ]
    return ChaosRunSummary(
        mode=result.spec.storm.mode,
        result=result,
        faults=len(result.injector.records),
        killed=len(result.injector.killed),
        evaded=len(result.injector.evaded),
        mean_restore_s=sum(latencies) / len(latencies) if latencies else 0.0,
        mean_drain_s=sum(drains) / len(drains) if drains else None,
        replayed_messages=result.replayed_messages,
        events_lost=sum(r.events_lost for r in result.recoveries),
        provisioning_failures=result.provider.provisioning_failures
        + sum(r.provisioning_failures for r in result.recoveries),
        total_cost=result.total_cost,
    )


def run_chaos_experiment(
    dag: str = "grid-keyed",
    strategy: str = "dsm",
    modes: Sequence[str] = DEFAULT_MODES,
    duration_s: float = 600.0,
    seed: int = 2018,
    storm_count: int = 3,
    storm_start_s: float = 150.0,
    storm_spacing_s: float = 120.0,
    notice_s: float = 120.0,
) -> ChaosComparisonResult:
    """Ride the same eviction storm once per recovery mode and compare.

    Every mode shares the storm schedule, the seeds and all random streams;
    the runs differ only in whether the eviction *notice* reaches the
    controller.  Scored on restore latency, replayed messages and the bill.
    Bad storm parameters, and a mode list that is empty, names an unknown
    mode or names one twice, raise ``ValueError`` before any run (see
    :func:`run_chaos_run`).
    """
    check_names("modes", modes, STORM_MODES, "recovery mode", unique=True)
    comparison = ChaosComparisonResult(
        dag=dag,
        strategy=strategy,
        duration_s=duration_s,
        storm_count=storm_count,
        notice_s=notice_s,
    )
    for mode in modes:
        result = run_chaos_run(
            dag=dag,
            strategy=strategy,
            mode=mode,
            duration_s=duration_s,
            seed=seed,
            storm_count=storm_count,
            storm_start_s=storm_start_s,
            storm_spacing_s=storm_spacing_s,
            notice_s=notice_s,
        )
        comparison.runs[mode] = _summarize(result)
    return comparison
