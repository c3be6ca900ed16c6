"""Closed-loop runner: every single-fleet run under the elasticity control stack.

Where :mod:`repro.experiments.scenarios` reproduces the paper's *manual*
experiments (one migration, requested at a fixed time), this runner closes
the loop the paper motivates.  :func:`run_elastic_experiment` deploys a
dataflow on the paper's baseline allocation, builds its control stack
(:func:`~repro.elastic.controller.build_controller`), runs it and returns an
:class:`ElasticRunResult`; every single-fleet closed-loop run goes through it:

* an **elastic** run: the sources follow a
  :class:`~repro.workloads.profiles.RateProfile`, the
  :class:`~repro.elastic.controller.ElasticityController` watches the observed
  rate and migrates the dataflow between D1/D2/D3 allocations with any of the
  registered strategies, and vacated VMs are deprovisioned so the per-minute
  bill tracks the load (the predictive and rescale comparisons are such runs);
* a **chaos** run (:func:`repro.experiments.chaos.run_chaos_run`): the same
  run given a :class:`Storm`.  The workers are bought on the spot market, the
  storm is armed on a :class:`~repro.cluster.chaos.FaultInjector`, and the
  autoscaling loop is not started, so the run isolates fault handling.

The result carries the full timeline (monitor samples), the controller's
:class:`~repro.elastic.controller.Reconfiguration` records (every enacted
scaling action with its :class:`~repro.core.strategy.MigrationReport`, every
fault reaction) and the final cloud bill; :meth:`ElasticRunResult.trace`
reads the run's trace from those records.  A run is hermetic: every event id is a
function of the run's own data (:mod:`repro.dataflow.event`), so which DSM
trees a migration loses and replays does not depend on what ran earlier in
the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.cluster.chaos import EVICT, FaultEvent, FaultInjector
from repro.cluster.cloud import ON_DEMAND, SPOT, CloudProvider, ProvisioningModel, SpotMarket
from repro.core.strategy import STRATEGIES, strategy_by_name
from repro.dataflow import topologies
from repro.dataflow.graph import Dataflow
from repro.elastic import (
    FORECAST_POLICIES,
    ControllerConfig,
    ElasticityController,
    ElasticityMonitor,
    MonitorSample,
    Reconfiguration,
    build_controller,
    forecast_policy_by_name,
)
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments.scenarios import check_names, deploy_baseline
from repro.metrics.log import EventLog
from repro.obs import Telemetry
from repro.sim import KeyedStream, Simulator, cell_seed, keyed_seed
from repro.sim.shard import log_digest
from repro.workloads.profiles import PROFILE_PRESETS, RateProfile, StepProfile, attach_profile

#: Seconds of keyed jitter added to each eviction of a :class:`Storm`.
STORM_JITTER_S = 15.0
#: Provisioning on a storm's spot fleet: replacement capacity draws straggler
#: and failed-attempt tails.
SPOT_PROVISIONING = ProvisioningModel(
    base_latency_s=30.0, jitter_fraction=0.2, straggler_prob=0.05,
    straggler_multiplier=4.0, failure_prob=0.02,
)
#: The recovery modes a storm can be ridden in, in report order.
STORM_MODES: Tuple[str, ...] = ("notice", "oblivious")
#: Periodic checkpoint wave forced on a storm's run when its strategy has none:
#: unplanned recovery restores keyed state from the last *committed* checkpoint.
STORM_CHECKPOINT_INTERVAL_S = 30.0


def surge_profile(
    base_rate: float, multiplier: float, start_s: float, end_s: float
) -> StepProfile:
    """A step surge: ``base_rate``, ``multiplier`` times it over ``[start_s, end_s)``, then back."""
    return StepProfile(
        steps=[(0.0, base_rate), (start_s, base_rate * multiplier), (end_s, base_rate)]
    )


@dataclass(frozen=True)
class Storm:
    """A spot-eviction storm, and the recovery mode a run rides it in.

    ``count`` evictions, the first at ``start_s`` and then every
    ``spacing_s`` (plus up to :data:`STORM_JITTER_S` of keyed jitter), each
    with ``notice_s`` of warning.  In ``"notice"`` mode the warning reaches
    the controller, which drains the doomed VM; in ``"oblivious"`` mode it is
    dropped and the VM dies at its deadline.  :class:`ElasticScenarioSpec`
    checks the values against the run.
    """

    mode: str
    count: int
    start_s: float
    spacing_s: float
    notice_s: float

    def schedule(self, seed: int) -> List[FaultEvent]:
        """The storm's evictions, each jittered from ``seed``."""
        return [
            FaultEvent(
                at_s=self.start_s + i * self.spacing_s
                + KeyedStream(keyed_seed(seed, "chaos-storm", i)).uniform(0.0, STORM_JITTER_S),
                kind=EVICT,
                notice_s=self.notice_s,
            )
            for i in range(self.count)
        ]


@dataclass
class ElasticScenarioSpec:
    """Parameters of one closed-loop run: an elastic run, or with a storm a chaos run."""

    dag: str = "traffic"
    strategy: str = "ccr"
    #: The sources' rate profile (a preset name, or a profile's class name);
    #: ``None`` when they keep their declared rates.
    profile: Optional[str] = "surge"
    duration_s: float = 900.0
    seed: int = 2018
    #: Whether the controller may change task parallelism (capacity-adding
    #: scaling) instead of only repacking fixed slots (the paper's scoping).
    elastic_parallelism: bool = False
    #: Demand forecaster the control rule plans on (``reactive`` is the
    #: original threshold behaviour).
    forecast_policy: str = "reactive"
    #: The eviction storm of a chaos run; ``None`` for an elastic run.
    storm: Optional[Storm] = None

    def __post_init__(self) -> None:
        check_names("strategy", [self.strategy], STRATEGIES, "migration strategy")
        check_names("forecast_policy", [self.forecast_policy], FORECAST_POLICIES, "forecast policy")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s:g}")
        storm = self.storm
        if storm is None:
            return
        if storm.mode not in STORM_MODES:
            raise ValueError(f"unknown chaos mode {storm.mode!r}; choose from {list(STORM_MODES)}")
        if storm.count < 1:
            raise ValueError(f"storm_count must be >= 1, got {storm.count}")
        # A storm outside the run leaves nothing to judge, and the scheduler
        # would silently clamp a negative start or spacing to "now".  The
        # messages name run_chaos_run's parameters.
        if storm.notice_s < 0:
            raise ValueError(f"notice_s must be >= 0, got {storm.notice_s:g}")
        if storm.spacing_s < 0:
            raise ValueError(f"storm_spacing_s must be >= 0, got {storm.spacing_s:g}")
        if not 0 <= storm.start_s < self.duration_s:
            raise ValueError(
                f"storm_start_s must be in [0, duration_s={self.duration_s:g}), "
                f"got {storm.start_s:g}"
            )

    @property
    def run_seed(self) -> int:
        """The run's seed: independent random streams per cell.

        An elastic cell is ``(dag, strategy, profile)``; a chaos cell is
        ``(dag, strategy)``.  Deliberately *not* mixed in: the
        ``elastic_parallelism`` flag and the forecast policy (their variants
        share their random streams, so a comparison isolates the rescale or
        the policy) and the recovery mode (both modes ride the same storm).
        """
        if self.storm is None:
            return cell_seed(self.seed, "elastic", self.dag, self.strategy, str(self.profile))
        return cell_seed(self.seed, "chaos", self.dag, self.strategy)

    def trace_meta(self) -> Dict[str, object]:
        """The run's description in a trace header."""
        meta: Dict[str, object] = dict(
            scenario="elastic" if self.storm is None else "chaos",
            dag=self.dag,
            strategy=self.strategy,
            seed=self.seed,
            duration_s=self.duration_s,
        )
        if self.storm is None:
            meta["profile"] = self.profile
        else:
            meta.update(mode=self.storm.mode, storm_count=self.storm.count,
                        notice_s=self.storm.notice_s)
        return meta


@dataclass
class ElasticRunResult:
    """Everything produced by one closed-loop run (elastic or chaos).

    The fault views (:attr:`recoveries`, :attr:`evacuations`,
    :meth:`control_sequence`, :meth:`restore_latencies`) are empty on a run
    no fault hit.
    """

    spec: ElasticScenarioSpec
    dataflow: Dataflow
    runtime: TopologyRuntime
    provider: CloudProvider
    controller: ElasticityController
    #: The storm's fault injector; ``None`` on a run without a storm.
    injector: Optional[FaultInjector] = None
    #: The total-rate profile the sources followed; ``None`` when they kept
    #: their declared rates.
    profile: Optional[RateProfile] = None
    initial_vm_ids: List[str] = field(default_factory=list)

    @property
    def log(self) -> EventLog:
        """The run's raw event log."""
        return self.runtime.log

    @property
    def monitor(self) -> ElasticityMonitor:
        """The monitor the controller samples."""
        return self.controller.monitor

    @property
    def actions(self) -> List[Reconfiguration]:
        """All scaling actions the controller enacted, in time order."""
        return self.controller.actions

    @property
    def samples(self) -> List[MonitorSample]:
        """The monitor's timeline of observations."""
        return self.monitor.samples

    @property
    def total_cost(self) -> float:
        """Total accrued cloud cost at the end of the run."""
        return self.provider.total_cost()

    @property
    def recoveries(self) -> List[Reconfiguration]:
        """Unplanned-failure recoveries the controller ran, in time order."""
        return self.controller.recoveries

    @property
    def evacuations(self) -> List[Reconfiguration]:
        """Eviction-notice evacuations the controller ran, in time order."""
        return self.controller.evacuations

    def scale_outs(self) -> List[Reconfiguration]:
        """Actions that expanded the allocation."""
        return [a for a in self.actions if a.direction == "out"]

    def scale_ins(self) -> List[Reconfiguration]:
        """Actions that consolidated the allocation."""
        return [a for a in self.actions if a.direction == "in"]

    def digest(self) -> str:
        """Stable content hash of the event log (determinism checks)."""
        return log_digest(self.log)

    def trace(self) -> Telemetry:
        """The run's trace, read from its records; a fresh one on every call."""
        return Telemetry.from_run(
            {None: self.controller}, provider=self.provider, injector=self.injector,
            meta=self.spec.trace_meta(),
        )

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
        for fault in self.injector.records if self.injector is not None else []:
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


def run_elastic_experiment(
    dag: str = "traffic",
    strategy: str = "ccr",
    profile: Optional[Union[str, RateProfile]] = "surge",
    duration_s: float = 900.0,
    seed: int = 2018,
    dataflow: Optional[Dataflow] = None,
    config: Optional[RuntimeConfig] = None,
    controller_config: Optional[ControllerConfig] = None,
    provisioning_latency_s: float = 30.0,
    elastic_parallelism: bool = False,
    forecast_policy: str = "reactive",
    storm: Optional[Storm] = None,
) -> ElasticRunResult:
    """Run one closed-loop experiment.

    The dataflow is deployed on the paper's baseline allocation (D2 VMs plus
    the dedicated source/sink util VM), its sources follow ``profile`` (a
    preset name, a :class:`RateProfile` instance, or ``None`` for their
    declared rates), and the controller scales the deployment with the
    chosen strategy whenever the observed rate leaves the current tier's
    band.  Runs until ``duration_s``.  A ``config`` is used as given (its seed
    included); without one the strategy's config is seeded from the cell.

    With ``elastic_parallelism=True`` the controller issues combined
    rescale + migrate decisions: a scale-out adds task instances (real
    capacity) instead of only repacking the same slots onto more VMs, and a
    scale-in retires them.  Task parallelism of the supplied ``dataflow``
    may then be mutated by the run.  Every task is sized at the paper's
    8 ev/s per instance unless it declares its own ``capacity_ev_s``.

    ``forecast_policy`` names the control rule's demand forecaster (see
    :data:`~repro.elastic.forecast.FORECAST_POLICIES`); the ``lookahead``
    policy is bound to the run's total-rate profile automatically.

    Given a ``storm`` the run is a chaos run (see
    :func:`repro.experiments.chaos.run_chaos_run`, which describes one): the
    D2 workers are bought on the spot market, periodic checkpoints are forced
    on, the storm is armed and the autoscaling loop is not started.  A
    ``config`` is then a template whose seed is replaced by the cell's, so
    flag variants (e.g. the batch stepper's equivalence check) share their
    random streams.

    An unknown ``strategy`` or ``forecast_policy``, ``dag`` when no
    ``dataflow`` is given, or preset ``profile`` name raises ``ValueError``
    naming the parameter before anything is deployed.
    """
    if dataflow is None:
        check_names("dag", [dag], topologies.ALL_TOPOLOGIES, "dataflow")
    if isinstance(profile, str):
        check_names("profile", [profile], PROFILE_PRESETS, "rate profile")
    spec = ElasticScenarioSpec(
        dag=dag,
        strategy=strategy,
        profile=profile if profile is None or isinstance(profile, str) else type(profile).__name__,
        duration_s=duration_s,
        seed=seed,
        elastic_parallelism=elastic_parallelism,
        forecast_policy=forecast_policy,
        storm=storm,
    )
    strategy_cls = strategy_by_name(strategy)
    if config is None:
        config = strategy_cls.runtime_config(seed=spec.run_seed)
    elif storm is not None:
        config = config.copy()
        config.seed = spec.run_seed
    if storm is not None and config.reliability.periodic_checkpoint_interval_s is None:
        # Without a periodic wave DCR/CCR would only checkpoint during
        # migrations, and a kill before the first one would lose state.
        config.reliability.periodic_checkpoint_interval_s = STORM_CHECKPOINT_INTERVAL_S

    sim = Simulator()
    dataflow = dataflow if dataflow is not None else topologies.by_name(dag)
    # The caller's dataflow must come back unchanged: remember each source's
    # profile and restore it after the run.  Without this, a reused dataflow
    # kept the *first* run's profile forever (sources that already carry a
    # profile keep it) while the result claimed the newly requested one.
    original_profiles = [(source, source.profile) for source in dataflow.sources]
    rate_profile = attach_profile(dataflow, profile, duration_s)
    # Resolved here, where the run's total-rate profile is known (the
    # lookahead oracle reads it).
    forecast = forecast_policy_by_name(forecast_policy, profile=rate_profile)

    if storm is None:
        provider = CloudProvider(sim, provisioning_latency_s=provisioning_latency_s)
    else:
        provider = CloudProvider(
            sim,
            provisioning_latency_s=provisioning_latency_s,
            spot_market=SpotMarket(discount=0.35, eviction_rate_per_hour=0.5),
            provisioning=SPOT_PROVISIONING,
            seed=config.seed,
        )
    # Initial deployment is always the paper's default packing (Table 1: D2s),
    # whatever tier the profile's first rate will steer the controller toward;
    # the util VM hosting sources and sinks is on-demand and off-limits to a
    # storm, as the infrastructure VMs are in the paper's setup.
    runtime, initial_vms = deploy_baseline(
        dataflow, config, provider, worker_market=ON_DEMAND if storm is None else SPOT
    )
    controller = build_controller(
        runtime,
        provider,
        strategy_cls,
        controller_config,
        elastic_parallelism=elastic_parallelism,
        forecast_policy=forecast,
    )
    injector = None
    if storm is None:
        controller.start()
    else:
        injector = FaultInjector(
            sim,
            runtime.cluster,
            on_kill=controller.handle_vm_failure,
            seed=config.seed,
            on_notice=controller.handle_eviction_notice if storm.mode == "notice" else None,
        )
        injector.arm(storm.schedule(config.seed))

    try:
        sim.run(until=duration_s)
    finally:
        controller.stop()
        runtime.stop_sources()
        # Hand the dataflow back the way we received it (see above); the
        # executors captured their profiles at start, so the completed
        # result is unaffected.
        for source, original_profile in original_profiles:
            source.profile = original_profile

    return ElasticRunResult(
        spec=spec,
        dataflow=dataflow,
        runtime=runtime,
        provider=provider,
        controller=controller,
        injector=injector,
        profile=rate_profile,
        initial_vm_ids=[vm.vm_id for vm in initial_vms],
    )
