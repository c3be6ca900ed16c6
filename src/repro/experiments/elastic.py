"""Elastic scenario runner: a profile-driven run under the autoscaling loop.

Where :mod:`repro.experiments.scenarios` reproduces the paper's *manual*
experiments (one migration, requested at a fixed time), this runner closes
the loop the paper motivates: the sources follow a
:class:`~repro.workloads.profiles.RateProfile`, the
:class:`~repro.elastic.controller.ElasticityController` watches the observed
rate and migrates the dataflow between D1/D2/D3 allocations with any of the
registered strategies, and vacated VMs are deprovisioned so the per-minute
bill tracks the load.

The result carries the full timeline (monitor samples), every enacted
:class:`~repro.elastic.controller.ScalingAction` with its
:class:`~repro.core.strategy.MigrationReport`, and the final cloud bill.
A run is hermetic: every event id is a function of the run's own data
(:mod:`repro.dataflow.event`), so which DSM trees a migration loses and
replays does not depend on what ran earlier in the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.cluster.cloud import CloudProvider
from repro.core.strategy import strategy_by_name
from repro.dataflow import topologies
from repro.dataflow.graph import Dataflow
from repro.elastic import (
    AllocationPlanner,
    ControllerConfig,
    ElasticityController,
    ElasticityMonitor,
    ForecastPolicy,
    MonitorSample,
    ScalingAction,
    forecast_policy_by_name,
)
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments.scenarios import deploy_baseline
from repro.metrics.log import EventLog
from repro.metrics.timeline import LatencyPoint, RatePoint, latency_timeline, rate_timeline
from repro.sim import Simulator, cell_seed
from repro.workloads.profiles import RateProfile, profile_by_name


@dataclass
class ElasticScenarioSpec:
    """Parameters of one elastic (closed-loop) experiment."""

    dag: str = "traffic"
    strategy: str = "ccr"
    profile: str = "surge"
    duration_s: float = 900.0
    seed: int = 2018
    #: Whether the controller may change task parallelism (capacity-adding
    #: scaling) instead of only repacking fixed slots (the paper's scoping).
    elastic_parallelism: bool = False
    #: Demand forecaster the control rule plans on (``reactive`` is the
    #: original threshold behaviour).  Deliberately not mixed into the seed:
    #: runs differing only in policy share their random streams, so the
    #: comparison isolates the policy.
    forecast_policy: str = "reactive"


@dataclass
class ElasticRunResult:
    """Everything produced by one elastic experiment."""

    spec: ElasticScenarioSpec
    dataflow: Dataflow
    runtime: TopologyRuntime
    provider: CloudProvider
    monitor: ElasticityMonitor
    controller: ElasticityController
    profile: RateProfile
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
    def actions(self) -> List[ScalingAction]:
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

    def scale_outs(self) -> List[ScalingAction]:
        """Actions that expanded the allocation."""
        return [a for a in self.actions if a.direction == "out"]

    def scale_ins(self) -> List[ScalingAction]:
        """Actions that consolidated the allocation."""
        return [a for a in self.actions if a.direction == "in"]

    def input_timeline(self, bin_s: float = 5.0) -> List[RatePoint]:
        """Source emission rate over the whole run."""
        return rate_timeline(self.log, kind="input", bin_s=bin_s)

    def output_timeline(self, bin_s: float = 5.0) -> List[RatePoint]:
        """Sink receipt rate over the whole run."""
        return rate_timeline(self.log, kind="output", bin_s=bin_s)

    def latency_timeline(self, window_s: float = 10.0) -> List[LatencyPoint]:
        """Average end-to-end latency over consecutive windows."""
        return latency_timeline(self.log, window_s=window_s)


def run_elastic_experiment(
    dag: str = "traffic",
    strategy: str = "ccr",
    profile: Union[str, RateProfile] = "surge",
    duration_s: float = 900.0,
    seed: int = 2018,
    dataflow: Optional[Dataflow] = None,
    config: Optional[RuntimeConfig] = None,
    controller_config: Optional[ControllerConfig] = None,
    instance_capacity_ev_s: float = 8.0,
    provisioning_latency_s: float = 30.0,
    billing_granularity_s: float = 60.0,
    elastic_parallelism: bool = False,
    task_capacities_ev_s: Optional[dict] = None,
    forecast_policy: Optional[Union[str, ForecastPolicy]] = None,
    telemetry: bool = False,
) -> ElasticRunResult:
    """Run one closed-loop elastic experiment.

    The dataflow is deployed on the paper's baseline allocation (D2 VMs plus
    the dedicated source/sink util VM), its sources follow ``profile`` (a
    preset name or a :class:`RateProfile` instance), and the controller
    scales the deployment with the chosen strategy whenever the observed
    rate leaves the current tier's band.  Runs until ``duration_s``.

    With ``elastic_parallelism=True`` the controller issues combined
    rescale + migrate decisions: a scale-out adds task instances (real
    capacity) instead of only repacking the same slots onto more VMs, and a
    scale-in retires them.  Task parallelism of the supplied ``dataflow``
    may then be mutated by the run.  ``task_capacities_ev_s`` optionally maps
    task names to per-instance service rates for heterogeneous sizing.

    ``forecast_policy`` selects the control rule's demand forecaster: a
    registered name, a :class:`ForecastPolicy` instance, or ``None`` to use
    the controller config's choice.  The ``lookahead`` policy is bound to the
    run's total-rate profile automatically.
    """
    profile_name = profile if isinstance(profile, str) else type(profile).__name__
    if isinstance(forecast_policy, ForecastPolicy):
        policy_name = forecast_policy.name
    elif forecast_policy is not None:
        policy_name = forecast_policy
    elif controller_config is not None:
        policy_name = controller_config.forecast_policy
    else:
        policy_name = "reactive"
    spec = ElasticScenarioSpec(
        dag=dag,
        strategy=strategy,
        profile=profile_name,
        duration_s=duration_s,
        seed=seed,
        elastic_parallelism=elastic_parallelism,
        forecast_policy=policy_name,
    )
    strategy_cls = strategy_by_name(strategy)
    if config is None:
        # Independent randomness per (dag, strategy, profile) cell.  The
        # ``elastic_parallelism`` flag is deliberately *not* mixed in: the
        # capacity-adding and placement-only variants of a cell share their
        # random streams, so comparisons between them isolate the rescale.
        config = strategy_cls.runtime_config(
            seed=cell_seed(seed, "elastic", dag, strategy, profile_name)
        )
    if telemetry and not config.telemetry:
        config = config.copy()
        config.telemetry = True

    sim = Simulator()
    dataflow = dataflow if dataflow is not None else topologies.by_name(dag)

    # Attach rate profiles to the source tasks before executors exist.  A
    # preset name is instantiated per source at that source's own base rate
    # (so the *total* offered rate follows the preset's shape); sources that
    # already carry a profile keep it.  A RateProfile instance describes one
    # source's rate, so it is only accepted for single-source dataflows.
    sources = dataflow.sources
    base_rate = sum(float(getattr(s, "rate", 0.0)) for s in sources)
    # The caller's dataflow must come back unchanged: remember each source's
    # profile and restore it after the run.  Without this, a reused dataflow
    # kept the *first* run's profile forever (the is-None guard skipped it on
    # the next call) while the result claimed the newly requested one.
    original_profiles = [(source, source.profile) for source in sources]
    if isinstance(profile, str):
        rate_profile = profile_by_name(profile, base_rate=base_rate, duration_s=duration_s)
        for source in sources:
            if source.profile is None:
                source.profile = profile_by_name(
                    profile, base_rate=float(source.rate), duration_s=duration_s
                )
    else:
        if len(sources) > 1:
            raise ValueError(
                "a RateProfile instance is ambiguous for a multi-source dataflow; "
                "attach per-source profiles to the SourceTasks and pass a preset "
                "name (or 'constant') instead"
            )
        rate_profile = profile
        sources[0].profile = rate_profile

    provider = CloudProvider(
        sim,
        provisioning_latency_s=provisioning_latency_s,
        billing_granularity_s=billing_granularity_s,
    )
    planner = AllocationPlanner(
        dataflow,
        instance_capacity_ev_s=instance_capacity_ev_s,
        task_capacities_ev_s=task_capacities_ev_s,
        elastic_parallelism=elastic_parallelism,
    )
    # Initial deployment is always the paper's default packing (Table 1: D2s),
    # whatever tier the profile's first rate will steer the controller toward.
    runtime, initial_vms = deploy_baseline(dataflow, config, provider)

    monitor = ElasticityMonitor(
        runtime,
        interval_s=(controller_config or ControllerConfig()).check_interval_s,
    )
    # Resolve the forecast policy to an instance here, where the run's
    # total-rate profile is known (the lookahead oracle reads it).
    resolved_policy: Optional[ForecastPolicy] = None
    if isinstance(forecast_policy, ForecastPolicy):
        resolved_policy = forecast_policy
    elif policy_name != "reactive" or forecast_policy is not None:
        resolved_policy = forecast_policy_by_name(policy_name, profile=rate_profile)
    controller = ElasticityController(
        runtime,
        provider,
        monitor,
        planner,
        strategy_cls,
        config=controller_config,
        initial_tier="baseline",
        forecast_policy=resolved_policy,
    )
    controller.start()

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

    if runtime.telemetry is not None:
        runtime.telemetry.meta.update(
            scenario="elastic",
            dag=dag,
            strategy=strategy,
            profile=profile_name,
            seed=seed,
            duration_s=duration_s,
        )
        runtime.telemetry.finalize(
            runtime=runtime, controller=controller, provider=provider
        )
    return ElasticRunResult(
        spec=spec,
        dataflow=dataflow,
        runtime=runtime,
        provider=provider,
        monitor=monitor,
        controller=controller,
        profile=rate_profile,
        initial_vm_ids=[vm.vm_id for vm in initial_vms],
    )
