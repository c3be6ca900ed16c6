"""Partitioned steady-state runs: the concrete shard worker.

The paper's workloads are keyed (vehicles, meters): events of different keys
never interact in the dummy-logic dataflows, so the key space can be split
into ``N`` partitions and each partition simulated on its own against a
private replica of the dataflow.  Shard ``i`` of ``N`` simulates the global
source sequences ``i, i+N, i+2N, ...``: its source emits at ``rate / N`` and
its payload factory is remapped so local sequence ``s`` produces the payload
of global sequence ``s*N + i`` (keys and values match what the unsharded
source would have generated for exactly those events).

Determinism contract: a shard's log is a pure function of its
:class:`~repro.sim.shard.ShardSpec` — the worker derives all randomness, and
with the runtime seed every event id, from the spec's shard seed — and
the merge (:func:`~repro.sim.shard.merge_shard_results`) is a pure function of
the shard logs, which the shard tests assert byte-for-byte via
:func:`~repro.sim.shard.log_digest`.
"""

from __future__ import annotations

from typing import List

from repro.cluster.cloud import CloudProvider, Cluster, NetworkModel
from repro.core.strategy import strategy_by_name
from repro.dataflow import topologies
from repro.dataflow.task import SourceTask
from repro.engine.batch import engine_counts
from repro.experiments.scenarios import deploy_baseline
from repro.sim import Simulator
from repro.sim.shard import ShardResult, ShardSpec


def plan_shards(
    dag: str = "grid",
    shards: int = 4,
    duration_s: float = 10.0,
    seed: int = 2018,
    strategy: str = "dcr",
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

    Builds the same stack as a scenario warm-up (util VM for sources/sinks,
    Table-1 D2 fleet for the user tasks), but with the source scaled down to
    the partition's share of the stream.
    """
    strategy_cls = strategy_by_name(spec.strategy)
    config = strategy_cls.runtime_config(seed=spec.shard_seed)

    dataflow = topologies.by_name(spec.dag)
    for task in dataflow.sources:
        if isinstance(task, SourceTask):
            task.rate = task.rate / spec.shards
            task.payload_factory = _partitioned_factory(
                task.payload_factory, spec.index, spec.shards
            )

    sim = Simulator()
    provider = CloudProvider(sim)
    # The network's seed keys every steady-state jitter draw; take it from the
    # shard so partitions draw independent jitter and the run's master seed
    # is actually observable in the merged log.
    cluster = Cluster(network=NetworkModel(seed=spec.shard_seed))
    runtime, _ = deploy_baseline(dataflow, config, provider, cluster=cluster)
    sim.run(until=spec.duration_s)
    log = runtime.log
    # The result ships plain field arrays: the merge touches no per-record
    # object.
    return ShardResult(
        index=spec.index,
        summary=log.summary(),
        emit_columns=log.emit_columns(),
        receipt_columns=log.receipt_columns(),
        engine=engine_counts([runtime]),
    )
