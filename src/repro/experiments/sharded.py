"""Partition-parallel steady-state runs: the concrete shard worker + driver.

The paper's workloads are keyed (vehicles, meters): events of different keys
never interact in the dummy-logic dataflows, so the key space can be split
into ``N`` partitions and each partition simulated in its own process against
a private replica of the dataflow — the model-level analogue of running one
tenant per partition.  Shard ``i`` of ``N`` simulates the global source
sequences ``i, i+N, i+2N, ...``: its source emits at ``rate / N`` and its
payload factory is remapped so local sequence ``s`` produces the payload of
global sequence ``s*N + i`` (keys and values match what the unsharded source
would have generated for exactly those events).

Determinism contract: a shard's log is a pure function of its
:class:`~repro.sim.shard.ShardSpec` — the worker resets the global event-id
counter on entry and derives all randomness from the spec's shard seed — and
the merge is a pure function of the shard logs.  Worker-pool size therefore
cannot affect the merged :class:`~repro.metrics.log.EventLog`, which the
shard-determinism tests assert byte-for-byte via
:func:`~repro.sim.shard.log_digest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.cloud import CloudProvider, Cluster, NetworkModel
from repro.core.strategy import strategy_by_name
from repro.dataflow import topologies
from repro.dataflow.event import reset_event_ids
from repro.dataflow.task import SourceTask
from repro.elastic.controller import ControllerConfig
from repro.elastic.forecast import ReactivePolicy
from repro.elastic.monitor import ElasticityMonitor, MonitorSample
from repro.elastic.planner import AllocationPlanner
from repro.elastic.policy import ControlState, decide
from repro.engine.batch import engine_counts
from repro.experiments.scenarios import deploy_baseline
from repro.metrics.log import EventLog
from repro.sim import RandomSource, Simulator
from repro.sim.shard import (
    ShardResult,
    ShardSpec,
    log_digest,
    merge_monitor_samples,
    merge_shard_results,
    run_shards,
    shard_worker_count,
)
from repro.workloads.profiles import profile_by_name


def plan_shards(
    dag: str = "grid",
    shards: int = 4,
    duration_s: float = 10.0,
    seed: int = 2018,
    strategy: str = "dcr",
    profile: Optional[str] = None,
    sample_interval_s: float = 0.0,
) -> List[ShardSpec]:
    """The shard specs of one partitioned run (one spec per key partition)."""
    return [
        ShardSpec(
            index=index,
            shards=shards,
            dag=dag,
            strategy=strategy,
            duration_s=duration_s,
            seed=seed,
            profile=profile,
            sample_interval_s=sample_interval_s,
        )
        for index in range(shards)
    ]


def _partitioned_factory(base, index: int, shards: int):
    """Remap a payload factory onto shard ``index``'s global subsequence."""
    if base is None:
        return None

    def _factory(sequence: int):
        return base(sequence * shards + index)

    return _factory


def run_steady_shard(spec: ShardSpec) -> ShardResult:
    """Simulate one key partition's steady-state run, hermetically.

    Module-level so ``multiprocessing`` pickles it by reference.  Builds the
    same stack as a scenario warm-up (util VM for sources/sinks, Table-1 D2
    fleet for the user tasks), but with the source scaled down to the
    partition's share of the stream.
    """
    reset_event_ids()
    strategy_cls = strategy_by_name(spec.strategy)
    config = strategy_cls.runtime_config(seed=spec.shard_seed)

    dataflow = topologies.by_name(spec.dag)
    for task in dataflow.sources:
        if isinstance(task, SourceTask):
            task.rate = task.rate / spec.shards
            task.payload_factory = _partitioned_factory(
                task.payload_factory, spec.index, spec.shards
            )
            if spec.profile is not None:
                # Each shard's sources follow the preset at 1/shards of the
                # amplitude, so the merged offered rate follows the preset.
                task.profile = profile_by_name(
                    spec.profile, base_rate=float(task.rate), duration_s=spec.duration_s
                )

    sim = Simulator()
    provider = CloudProvider(sim)
    # The network's RNG is the source of every steady-state jitter draw; seed
    # it from the shard so partitions draw independent jitter and the run's
    # master seed is actually observable in the merged log.
    cluster = Cluster(network=NetworkModel(rng=RandomSource(spec.shard_seed)))
    runtime, _ = deploy_baseline(dataflow, config, provider, cluster=cluster)
    monitor: Optional[ElasticityMonitor] = None
    if spec.sample_interval_s > 0:
        monitor = ElasticityMonitor(runtime, interval_s=spec.sample_interval_s)
        monitor.start()
    sim.run(until=spec.duration_s)
    log = runtime.log
    # The result ships plain field arrays: neither the pickle nor the merge
    # touches a per-record object.
    return ShardResult(
        index=spec.index,
        summary=log.summary(),
        emit_columns=log.emit_columns(),
        receipt_columns=log.receipt_columns(),
        samples=list(monitor.samples) if monitor is not None else [],
        engine=engine_counts([runtime]),
    )


@dataclass
class ShardedRunResult:
    """A partitioned run: per-shard results plus the merged, bit-stable log."""

    specs: List[ShardSpec]
    results: List[ShardResult]
    log: EventLog
    workers: int

    @property
    def digest(self) -> str:
        """Content hash of the merged log (worker-count invariant)."""
        return log_digest(self.log)


def run_sharded_experiment(
    dag: str = "grid",
    shards: int = 4,
    workers: Optional[int] = None,
    duration_s: float = 10.0,
    seed: int = 2018,
    strategy: str = "dcr",
) -> ShardedRunResult:
    """Run a steady-state experiment partitioned across a process pool.

    ``workers=None`` resolves via ``REPRO_SIM_SHARDS`` (see
    :func:`~repro.sim.shard.shard_worker_count`); ``workers=1`` runs every
    shard inline, which must — and is tested to — produce a byte-identical
    merged log.
    """
    specs = plan_shards(
        dag=dag,
        shards=shards,
        duration_s=duration_s,
        seed=seed,
        strategy=strategy,
    )
    if workers is None:
        workers = shard_worker_count(shards)
    results = run_shards(specs, run_steady_shard, workers=workers)
    return ShardedRunResult(
        specs=specs,
        results=results,
        log=merge_shard_results(results),
        workers=workers,
    )


# --------------------------------------------------------------------------
# Sharded elastic runs: partitioned simulation, centralized controller tick
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PlannedAction:
    """One scaling decision of the centralized control-rule replay.

    Plan-only: the sharded run records what the controller *would* enact at
    each confirmed decision point, without feeding the migration back into
    the (already running) shards.
    """

    #: Simulated time of the decision (after hysteresis confirmed it).
    decided_at: float
    #: ``out`` (adding capacity) or ``in`` (consolidating).
    direction: str
    from_tier: str
    to_tier: str
    #: Merged offered rate (ev/s) that confirmed the decision.
    observed_rate: float
    #: VM fleet the planner sized for the target tier.
    vm_counts: Tuple[Tuple[str, int], ...]


def plan_control_actions(
    samples: List[MonitorSample],
    dataflow,
    config: Optional[ControllerConfig] = None,
) -> List[PlannedAction]:
    """Replay the elastic control rule over merged samples.

    This is the centralized tick of a sharded elastic run: each shard runs
    its own monitor, the merge aggregates the per-shard samples
    (:func:`~repro.sim.shard.merge_monitor_samples`), and this function feeds
    them to :func:`~repro.elastic.policy.decide` -- the very function the
    live :class:`~repro.elastic.controller.ElasticityController` ticks --
    sizing against the *unsharded* dataflow from the baseline tier, with the
    reactive (identity) forecast.  Differences from the closed loop are
    inherent to planning offline: an action completes the instant it is
    decided (the cooldown runs from the decision time; there is no enactment
    to wait for, so no tick is skipped as busy) and actions do not change the
    running shards -- which is why the planner is placement-only: a replay
    cannot apply a rescale.  The output is a pure function of the samples,
    hence worker-count invariant.
    """
    if config is None:
        config = ControllerConfig()
    planner = AllocationPlanner(dataflow)
    forecast = ReactivePolicy()
    state = ControlState()
    actions: List[PlannedAction] = []
    for sample in samples:
        decision = decide(
            state, sample, config=config, planner=planner, forecast=forecast, horizon_s=0.0
        )
        if decision.outcome != "enact":
            continue
        target = decision.target
        actions.append(PlannedAction(
            decided_at=sample.time,
            direction=decision.direction,
            from_tier=state.tier,
            to_tier=target.tier,
            observed_rate=sample.offered_rate,
            vm_counts=tuple(sorted(target.vm_counts.items())),
        ))
        state.acquired()
        state.settle(target.tier, sample.time + config.cooldown_s)
    return actions


@dataclass
class ShardedElasticRunResult:
    """A sharded elastic run: merged log + timeline + planned scaling actions."""

    specs: List[ShardSpec]
    results: List[ShardResult]
    log: EventLog
    workers: int
    samples: List[MonitorSample] = field(default_factory=list)
    actions: List[PlannedAction] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """Content hash of the merged log (worker-count invariant)."""
        return log_digest(self.log)

    @property
    def action_sequence(self) -> List[Tuple]:
        """The controller decisions as comparable tuples (for identity checks)."""
        return [
            (a.decided_at, a.direction, a.from_tier, a.to_tier, a.observed_rate, a.vm_counts)
            for a in self.actions
        ]


def run_sharded_elastic_experiment(
    dag: str = "grid",
    shards: int = 4,
    workers: Optional[int] = None,
    duration_s: float = 300.0,
    seed: int = 2018,
    strategy: str = "dcr",
    profile: str = "surge",
    controller_config: Optional[ControllerConfig] = None,
) -> ShardedElasticRunResult:
    """Run a profile-driven elastic experiment partitioned across a pool.

    First rung of sharded elasticity: the keyed partitions are simulated in
    parallel (each source follows ``profile`` at ``1/shards`` amplitude,
    each shard samples a private monitor on the controller's check
    interval), then the *centralized* controller tick consumes the merged
    samples and replays the control rule against the unsharded dataflow
    (:func:`plan_control_actions`).  Both the merged log and the
    planned action sequence are byte-identical for 1 vs N workers.
    """
    config = controller_config if controller_config is not None else ControllerConfig()
    specs = plan_shards(
        dag=dag,
        shards=shards,
        duration_s=duration_s,
        seed=seed,
        strategy=strategy,
        profile=profile,
        sample_interval_s=config.check_interval_s,
    )
    if workers is None:
        workers = shard_worker_count(shards)
    results = run_shards(specs, run_steady_shard, workers=workers)
    samples = merge_monitor_samples([result.samples for result in results])
    actions = plan_control_actions(samples, topologies.by_name(dag), config=config)
    return ShardedElasticRunResult(
        specs=specs,
        results=results,
        log=merge_shard_results(results),
        workers=workers,
        samples=samples,
        actions=actions,
    )
