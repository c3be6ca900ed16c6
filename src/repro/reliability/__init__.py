"""Reliability substrates: acking, checkpointing and state persistence.

These are the Storm capabilities the paper builds on:

* :mod:`repro.reliability.acker` -- the XOR-hash acknowledgment service that
  provides at-least-once processing by replaying root events whose causal tree
  does not complete within a timeout (30 s by default).
* :mod:`repro.reliability.statestore` -- the Redis-like external key-value
  store used to persist checkpointed task state (and, for CCR, captured
  in-flight events), with a latency model calibrated to the paper's
  micro-benchmark (2000 events checkpointed in about 100 ms).
* :mod:`repro.reliability.checkpoint` -- the checkpoint coordinator that
  drives PREPARE / COMMIT / INIT waves, either periodically (DSM)
  or just-in-time during migration (DCR / CCR), sequentially along dataflow
  edges or broadcast directly to every task (CCR).  It is the one owner of a
  wave: its targets (a recovery's INIT reaches only the victims), the COMMIT
  that follows a PREPARE, and the id of the open periodic checkpoint.
* :mod:`repro.reliability.repartition` -- grouped-state re-partitioning for
  runtime parallelism changes: re-keys checkpointed ``by_key`` state (and
  CCR's captured pending events) to a rescaled task's new instance set using
  the router's stable FIELDS hash.
"""

from repro.reliability.acker import AckerService, AckerStats, PendingTree
from repro.reliability.checkpoint import (
    CheckpointCoordinator,
    CheckpointWave,
    WaveMode,
    WaveStatus,
)
from repro.reliability.repartition import (
    PARTITIONED_STATE_KEY,
    RepartitionStats,
    merge_states,
    repartition_rescaled_tasks,
    repartition_task_state,
    split_pending_events,
    split_state,
    task_is_keyed,
)
from repro.reliability.statestore import (
    StateStore,
    StateStoreStats,
    StoredValue,
    checkpoint_key,
)

__all__ = [
    "AckerService",
    "AckerStats",
    "CheckpointCoordinator",
    "CheckpointWave",
    "PARTITIONED_STATE_KEY",
    "PendingTree",
    "RepartitionStats",
    "StateStore",
    "StateStoreStats",
    "StoredValue",
    "WaveMode",
    "WaveStatus",
    "checkpoint_key",
    "merge_states",
    "repartition_rescaled_tasks",
    "repartition_task_state",
    "split_pending_events",
    "split_state",
    "task_is_keyed",
]
