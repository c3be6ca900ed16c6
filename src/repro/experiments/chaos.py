"""Chaos scenario runner: eviction storms on a spot fleet, two recovery modes.

The elasticity papers' migration machinery assumes *planned* reconfiguration;
a spot-heavy fleet adds the unplanned kind.  This runner deploys a dataflow on
spot worker VMs, fires a deterministic eviction storm
(:class:`~repro.cluster.chaos.ChaosSchedule`) at the fleet, and rides the same
storm once per *recovery mode*:

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

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.chaos import ChaosSchedule, FaultInjector
from repro.cluster.cloud import SPOT, CloudProvider, ProvisioningModel, SpotMarket
from repro.core.strategy import strategy_by_name
from repro.dataflow import topologies
from repro.dataflow.graph import Dataflow
from repro.elastic import (
    AllocationPlanner,
    ControllerConfig,
    ElasticityController,
    ElasticityMonitor,
    EvacuationRecord,
    RecoveryRecord,
)
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments.scenarios import deploy_baseline
from repro.metrics.log import EventLog
from repro.sim import RandomSource, Simulator, cell_seed
from repro.sim.shard import log_digest

#: Recovery modes compared by default, in report order.
DEFAULT_MODES: Tuple[str, ...] = ("notice", "oblivious")


@dataclass
class ChaosScenarioSpec:
    """Parameters of one chaos run (one mode riding the storm)."""

    dag: str = "grid-keyed"
    strategy: str = "dsm"
    mode: str = "notice"
    duration_s: float = 600.0
    seed: int = 2018
    storm_count: int = 3
    storm_start_s: float = 150.0
    storm_spacing_s: float = 120.0
    notice_s: float = 120.0
    jitter_s: float = 15.0

    def __post_init__(self) -> None:
        # A storm outside the run leaves nothing to judge, and the scheduler
        # would silently clamp a negative start or spacing to "now".
        if self.notice_s < 0:
            raise ValueError(f"notice_s must be >= 0, got {self.notice_s:g}")
        if self.storm_spacing_s < 0:
            raise ValueError(f"storm_spacing_s must be >= 0, got {self.storm_spacing_s:g}")
        if not 0 <= self.storm_start_s < self.duration_s:
            raise ValueError(
                f"storm_start_s must be in [0, duration_s={self.duration_s:g}), "
                f"got {self.storm_start_s:g}"
            )


@dataclass
class ChaosRunResult:
    """Everything produced by one chaos run."""

    spec: ChaosScenarioSpec
    dataflow: Dataflow
    runtime: TopologyRuntime
    provider: CloudProvider
    controller: ElasticityController
    injector: FaultInjector
    initial_vm_ids: List[str] = field(default_factory=list)

    @property
    def log(self) -> EventLog:
        """The run's raw event log."""
        return self.runtime.log

    @property
    def telemetry(self):
        """The run's :class:`repro.obs.Telemetry`, or ``None`` when off."""
        return self.runtime.telemetry

    @property
    def total_cost(self) -> float:
        """Total accrued cloud cost at the end of the run."""
        return self.provider.total_cost()

    @property
    def replayed_messages(self) -> int:
        """Source emissions that were replays of failed tuple trees."""
        return self.log.replay_emits

    @property
    def recoveries(self) -> List[RecoveryRecord]:
        """Unplanned-failure recoveries the controller ran, in time order."""
        return self.controller.recoveries

    @property
    def evacuations(self) -> List[EvacuationRecord]:
        """Eviction-notice evacuations the controller ran, in time order."""
        return self.controller.evacuations

    def digest(self) -> str:
        """Stable content hash of the event log (determinism checks)."""
        return log_digest(self.log)

    def control_sequence(self) -> List[str]:
        """The controller's fault reactions as a comparable action trace."""
        entries = []
        for rec in self.recoveries:
            entries.append(
                (rec.failed_at, f"recover {rec.vm_id} kind={rec.kind} "
                                f"lost={','.join(rec.lost_executors)} "
                                f"restored={rec.restored_at!r}")
            )
        for rec in self.evacuations:
            entries.append(
                (rec.notice_at, f"evacuate {rec.vm_id} deadline={rec.deadline!r} "
                                f"market={rec.replacement_market} evaded={rec.evaded} "
                                f"completed={rec.completed_at!r}")
            )
        return [text for _, text in sorted(entries, key=lambda pair: pair[0])]

    def unfinished(self) -> List[str]:
        """What the run left open at its end, in a printable form.

        Each recovery that never restored its executors, each evacuation that
        neither evaded its eviction nor completed, and ``"sources paused"``
        when the dataflow ended paused.  Empty for a run that ended clean;
        otherwise :meth:`restore_latencies` may charge an outage only up to
        the end of the run, not to a restore.
        """
        left = [f"recovery {rec.vm_id}" for rec in self.recoveries if rec.restored_at is None]
        left += [f"evacuation {rec.vm_id}" for rec in self.evacuations
                 if not rec.evaded and rec.completed_at is None]
        if self.runtime.sources_paused:
            left.append("sources paused")
        return left

    def restore_latencies(self) -> List[float]:
        """Per-fault unavailability after the cloud's reclaim moment.

        A *killed* fault is charged from the kill until the controller's
        recovery finished restoring the lost executors (to the end of the run
        if it never did).  An *evaded* eviction drained before the deadline,
        so the reclaim found nothing: zero unavailability — which is exactly
        the headline the notice window buys.
        """
        latencies: List[float] = []
        for fault in self.injector.records:
            if fault.outcome == "killed":
                recovery = next(
                    (r for r in self.recoveries
                     if r.vm_id == fault.vm_id and r.failed_at == fault.killed_at),
                    None,
                )
                if recovery is not None and recovery.restored_at is not None:
                    latencies.append(recovery.restored_at - fault.killed_at)
                else:
                    latencies.append(self.spec.duration_s - fault.killed_at)
            elif fault.outcome == "evaded":
                evacuation = next(
                    (r for r in reversed(self.evacuations)
                     if r.vm_id == fault.vm_id and r.completed_at is not None),
                    None,
                )
                if evacuation is None:
                    latencies.append(0.0)
                else:
                    latencies.append(max(0.0, evacuation.completed_at - fault.deadline))
        return latencies


@dataclass
class ChaosRunSummary:
    """How one recovery mode fared on the shared storm."""

    mode: str
    result: ChaosRunResult
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
        from ..metrics.metadata import run_metadata

        payload = run_metadata(
            "repro-bench-chaos/2",
            timestamp=timestamp,
            dag=self.dag,
            strategy=self.strategy,
            duration_s=self.duration_s,
            storm_count=self.storm_count,
            notice_s=self.notice_s,
            benchmarks=self.headline_benchmarks(),
        )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path


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
    jitter_s: float = 15.0,
    config: Optional[RuntimeConfig] = None,
    controller_config: Optional[ControllerConfig] = None,
    spot_market: Optional[SpotMarket] = None,
    provisioning: Optional[ProvisioningModel] = None,
    schedule: Optional[ChaosSchedule] = None,
    telemetry: bool = False,
) -> ChaosRunResult:
    """Ride one eviction storm in one recovery mode.

    The dataflow is deployed on a **spot** D2 worker fleet (the on-demand D3
    util VM hosting sources and sinks is off-limits to the injector, as the
    infrastructure VMs are in the paper's setup), periodic checkpoints are
    forced on for every strategy (unplanned recovery needs a committed
    checkpoint to restore from), and the storm's evictions fire with
    ``notice_s`` of warning.  In ``"notice"`` mode the warning is wired to
    the controller; in ``"oblivious"`` mode it is dropped and the VM simply
    dies at the deadline.

    The autoscaling loop is *not* started: the run isolates fault handling.
    Pass ``config`` to override the runtime configuration (e.g. the batch
    stepper's on/off equivalence check) and ``schedule`` to replace the
    default storm.
    Raises ``ValueError`` unless ``notice_s`` and ``storm_spacing_s`` are
    ``>= 0`` and ``0 <= storm_start_s < duration_s``.
    """
    if mode not in ("notice", "oblivious"):
        raise ValueError(f"unknown chaos mode {mode!r}; choose 'notice' or 'oblivious'")
    spec = ChaosScenarioSpec(
        dag=dag,
        strategy=strategy,
        mode=mode,
        duration_s=duration_s,
        seed=seed,
        storm_count=storm_count,
        storm_start_s=storm_start_s,
        storm_spacing_s=storm_spacing_s,
        notice_s=notice_s,
        jitter_s=jitter_s,
    )
    # Independent randomness per (dag, strategy) cell.  The recovery ``mode``
    # is deliberately *not* mixed in: both modes ride the same storm with the
    # same streams, so the comparison isolates what the notice is worth.
    mixed = cell_seed(seed, "chaos", dag, strategy)
    strategy_cls = strategy_by_name(strategy)
    if config is None:
        config = strategy_cls.runtime_config(seed=mixed)
    else:
        # The caller's config is a template of feature flags (e.g. the batch
        # stepper's equivalence check); the seed always comes from the cell
        # mix so flag variants share their random streams.
        config = config.copy()
        config.seed = mixed
    if telemetry:
        config.telemetry = True
    if config.reliability.periodic_checkpoint_interval_s is None:
        # Unplanned recovery restores keyed state from the last *committed*
        # checkpoint; without a periodic wave DCR/CCR would only checkpoint
        # during migrations and a kill before the first one loses state.
        config.reliability.periodic_checkpoint_interval_s = 30.0

    sim = Simulator()
    dataflow = topologies.by_name(dag)

    provider = CloudProvider(
        sim,
        spot_market=spot_market if spot_market is not None
        else SpotMarket(discount=0.35, eviction_rate_per_hour=0.5, notice_s=notice_s),
        provisioning=provisioning if provisioning is not None
        else ProvisioningModel(base_latency_s=30.0, jitter_fraction=0.2,
                               straggler_prob=0.05, straggler_multiplier=4.0,
                               failure_prob=0.02),
        rng=RandomSource(mixed),
    )
    runtime, initial_vms = deploy_baseline(dataflow, config, provider, worker_market=SPOT)

    controller_config = controller_config if controller_config is not None else ControllerConfig()
    monitor = ElasticityMonitor(runtime, interval_s=controller_config.check_interval_s)
    planner = AllocationPlanner(dataflow)
    controller = ElasticityController(
        runtime, provider, monitor, planner, strategy_cls, config=controller_config
    )

    injector = FaultInjector(
        sim,
        runtime.cluster,
        provider,
        seed=mixed,
        on_notice=controller.handle_eviction_notice if mode == "notice" else None,
        on_kill=controller.handle_vm_failure,
        target_markets=(SPOT,),
    )
    if schedule is None:
        schedule = ChaosSchedule.eviction_storm(
            count=storm_count,
            start_s=storm_start_s,
            spacing_s=storm_spacing_s,
            notice_s=notice_s,
            jitter_s=jitter_s,
            seed=mixed,
        )
    injector.arm(schedule)

    try:
        sim.run(until=duration_s)
    finally:
        runtime.stop_sources()

    if runtime.telemetry is not None:
        runtime.telemetry.meta.update(
            scenario="chaos",
            dag=dag,
            strategy=strategy,
            mode=mode,
            seed=seed,
            duration_s=duration_s,
            storm_count=storm_count,
            notice_s=notice_s,
        )
        runtime.telemetry.finalize(
            runtime=runtime, controller=controller, provider=provider, injector=injector
        )
    return ChaosRunResult(
        spec=spec,
        dataflow=dataflow,
        runtime=runtime,
        provider=provider,
        controller=controller,
        injector=injector,
        initial_vm_ids=[vm.vm_id for vm in initial_vms],
    )


def _summarize(result: ChaosRunResult) -> ChaosRunSummary:
    latencies = result.restore_latencies()
    drains = [
        rec.evacuation_latency_s
        for rec in result.evacuations
        if rec.evacuation_latency_s is not None
    ]
    return ChaosRunSummary(
        mode=result.spec.mode,
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
    jitter_s: float = 15.0,
    config: Optional[RuntimeConfig] = None,
    telemetry: bool = False,
) -> ChaosComparisonResult:
    """Ride the same eviction storm once per recovery mode and compare.

    Every mode shares the storm schedule, the seeds and all random streams;
    the runs differ only in whether the eviction *notice* reaches the
    controller.  Scored on restore latency, replayed messages and the bill.
    Bad storm parameters raise ``ValueError`` before any run (see
    :func:`run_chaos_run`).
    """
    if not modes:
        raise ValueError("need at least one recovery mode to compare")
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
            jitter_s=jitter_s,
            config=config,
            telemetry=telemetry,
        )
        comparison.runs[mode] = _summarize(result)
    return comparison
