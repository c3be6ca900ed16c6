"""Partition-parallel simulation: shard specs, worker pool, deterministic merge.

A *shard* is one hermetic simulation of an independent keyed partition of the
workload: it owns its own :class:`~repro.sim.kernel.Simulator`, cluster and
runtime, resets the global event-id counter on entry (exactly as
``ExperimentMatrix.prefetch`` does for figure cells) and returns only
picklable column arrays.  Because shards never interact, they can run in any
order on any number of worker processes — the merged
:class:`~repro.metrics.log.EventLog` depends only on the shard *specs*, never
on the pool size or completion order.

Merge determinism
-----------------
Each shard numbers its events from 1 (hermetic reset), so ids collide across
shards.  The merge namespaces every id into ``shard_index * SHARD_ID_STRIDE +
local_id`` — a pure function of the spec — and orders the union of the
per-shard record streams by ``(time, namespaced id)``.  Both steps are
deterministic, which is what makes an N-worker merged log byte-identical to
the 1-worker merged log for the same specs (asserted via :func:`log_digest`).

The merge is pure array work: the shard logs' columns are concatenated,
id-offset, and reordered with one stable ``np.lexsort`` on ``(time,
namespaced id)``, then appended to the merged
:class:`~repro.metrics.log.EventLog` in one bulk call, without touching a
single per-record Python object.  Shard streams are sorted by ``(time, id)``
within a shard (ids are assigned in record order and times are monotone), so
the lexsort is the order a per-record interleave of the streams produces.

This module deliberately knows nothing about dataflows or clusters: the
concrete shard runner lives in :mod:`repro.experiments.sharded`, and is passed
in as a module-level callable so ``multiprocessing`` can pickle it by
reference.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as _np

from repro.sim.rng import keyed_seed

#: Environment variable naming the default worker-process count for sharded
#: runs (``0`` or unset: one worker per shard, capped at the CPU count;
#: positive values are clamped to both; anything else is refused).
SHARDS_ENV_VAR = "REPRO_SIM_SHARDS"

#: Id namespace stride: merged ids are ``shard_index * stride + local_id``.
#: 2**40 leaves room for a trillion events per shard while keeping the
#: namespaced ids exact in float-free integer arithmetic.
SHARD_ID_STRIDE = 1 << 40


@dataclass(frozen=True)
class ShardSpec:
    """Parameters of one keyed partition's hermetic simulation.

    ``index``/``shards`` identify the partition (shard ``index`` simulates the
    global source sequences congruent to ``index`` modulo ``shards``); the
    rest describe the run every shard performs on its sub-stream.
    """

    index: int
    shards: int
    dag: str = "grid"
    strategy: str = "dcr"
    duration_s: float = 10.0
    seed: int = 2018
    #: Rate-profile preset driving the shard's sources (``None``: constant
    #: rate).  Every shard follows the same shape at ``1/shards`` of the
    #: amplitude, so the merged offered rate follows the preset.
    profile: Optional[str] = None
    #: Interval at which a per-shard monitor samples rates/backlogs/latency
    #: (``0``: no sampling).  Sharded elastic runs set this to the central
    #: controller's check interval; all shards then sample at identical
    #: times, which is what lets the merge aggregate samples positionally.
    sample_interval_s: float = 0.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not 0 <= self.index < self.shards:
            raise ValueError(f"shard index {self.index} outside [0, {self.shards})")

    @property
    def shard_seed(self) -> int:
        """Master seed for this shard's runtime (independent across shards)."""
        return keyed_seed(self.seed, "shard", f"{self.index}/{self.shards}")


@dataclass
class ShardResult:
    """Picklable outcome of one shard: its emission/receipt columns.

    ``emit_columns`` / ``receipt_columns`` are what the shard log's
    :meth:`~repro.metrics.log.EventLog.emit_columns` /
    :meth:`~repro.metrics.log.EventLog.receipt_columns` return (time-ordered
    numpy field arrays plus the interned name table; ``None``: the shard
    shipped no log).  ``summary`` is
    :meth:`~repro.metrics.log.EventLog.summary`; ``samples`` carries the
    shard's monitor timeline when the spec asked for sampling.
    """

    index: int
    summary: Dict[str, float] = field(default_factory=dict)
    emit_columns: Optional[Dict[str, Any]] = None
    receipt_columns: Optional[Dict[str, Any]] = None
    samples: List = field(default_factory=list)
    #: Which engine ran the shard (:func:`repro.engine.batch.engine_counts`).
    engine: Dict[str, int] = field(default_factory=dict)

    @property
    def emit_count(self) -> int:
        """Number of source emissions the shard recorded."""
        return 0 if self.emit_columns is None else len(self.emit_columns["time"])

    @property
    def receipt_count(self) -> int:
        """Number of sink receipts the shard recorded."""
        return 0 if self.receipt_columns is None else len(self.receipt_columns["time"])


def resolve_worker_env(name: str, tasks: int) -> int:
    """Worker count for a parallel fan-out of ``tasks``, from the variable ``name``.

    A positive integer is honored but clamped to the number of tasks and the
    CPU count (oversubscribing a pool only adds scheduling noise); ``0``, unset
    or empty mean "auto": one worker per task up to the CPU count.  Anything
    else is a typo to report, not a pool size to guess: ``ValueError``.
    """
    cpus = os.cpu_count() or 1
    raw = (os.environ.get(name) or "").strip() or "0"
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer (0 = auto), got {raw!r}")
    return max(1, min(value or tasks, tasks, cpus))


def shard_worker_count(shards: int) -> int:
    """Resolve the worker-process count for a sharded run.

    ``REPRO_SIM_SHARDS`` wins when set to a positive integer (clamped to the
    shard count and the CPU count); ``0`` or unset mean "auto" — one worker
    per shard, capped at the machine's CPU count.
    """
    return resolve_worker_env(SHARDS_ENV_VAR, shards)


def run_shards(
    specs: Sequence[ShardSpec],
    runner: Callable[[ShardSpec], ShardResult],
    workers: Optional[int] = None,
) -> List[ShardResult]:
    """Run every shard through ``runner``, fanning out across a process pool.

    ``runner`` must be a module-level callable (picklable by reference) that
    performs a hermetic simulation — including the event-id reset.  With one
    worker (or one shard) everything runs inline in this process, which is
    both the sequential baseline for determinism tests and the fallback when
    process pools are unavailable.  Results are returned in shard order
    regardless of completion order.
    """
    if workers is None:
        workers = shard_worker_count(len(specs))
    if workers <= 1 or len(specs) <= 1:
        results = [runner(spec) for spec in specs]
    else:
        with multiprocessing.Pool(processes=min(workers, len(specs))) as pool:
            results = pool.map(runner, list(specs))
    return sorted(results, key=lambda result: result.index)


def merge_shard_results(results: Sequence[ShardResult]):
    """Deterministically merge per-shard columns into one event log.

    Ids are namespaced by shard (see :data:`SHARD_ID_STRIDE`) and the
    per-shard streams — already time-ordered — are ordered by
    ``(time, namespaced id)`` with one stable ``np.lexsort`` per stream, so
    the output is a pure function of the shard results, bit-stable across
    worker counts and repeat runs.
    """
    # Imported here: repro.metrics.log imports repro.sim, so a module-level
    # import would make this module unimportable from repro.metrics.
    from repro.metrics.log import EventLog
    from repro.sim.kernel import Simulator

    log = EventLog(Simulator())
    # The log's own (empty) columns lead each stream: they carry the dtypes,
    # so a merge of no rows still yields well-typed arrays.
    emit_parts = [(0, log.emit_columns())]
    receipt_parts = [(0, log.receipt_columns())]
    for result in sorted(results, key=lambda result: result.index):
        offset = result.index * SHARD_ID_STRIDE
        if result.emit_columns is not None:
            emit_parts.append((offset, result.emit_columns))
        if result.receipt_columns is not None:
            receipt_parts.append((offset, result.receipt_columns))
    log.extend_columns(
        _merged_columns(emit_parts, name_key="source", id_keys=("root",)),
        # Receipts order by (time, namespaced event id).
        _merged_columns(receipt_parts, name_key="sink", id_keys=("event", "root")),
    )
    return log


def _merged_columns(parts, name_key: str, id_keys) -> Dict[str, Any]:
    """Concatenate per-shard column sets into one, sorted by ``(time, id_keys[0])``.

    ``parts`` pairs each set with its shard's id offset, added to every
    ``id_keys`` column.  The name tables are concatenated too (the log
    interns them, duplicates and all), each set's ``name_key`` codes shifted
    to where its table starts.
    """
    names: List[str] = []
    pieces: Dict[str, List] = {}
    for offset, columns in parts:
        for key, values in columns.items():
            if key == name_key:
                values = _np.asarray(values, dtype=_np.int32) + len(names)
            elif key in id_keys:
                values = _np.asarray(values, dtype=_np.int64) + offset
            if key != "names":
                pieces.setdefault(key, []).append(values)
        names.extend(columns["names"])
    merged = {key: _np.concatenate(arrays) for key, arrays in pieces.items()}
    # lexsort's last key is primary: order by time, then namespaced id.
    order = _np.lexsort((merged[id_keys[0]], merged["time"]))
    merged = {key: values[order] for key, values in merged.items()}
    merged["names"] = names
    return merged


def merge_monitor_samples(sample_lists: Sequence[Sequence]) -> List:
    """Aggregate per-shard monitor timelines into one cluster-wide timeline.

    Sharded elastic runs sample every shard on the same schedule (see
    :attr:`ShardSpec.sample_interval_s`), so samples group cleanly by
    timestamp.  Within a group: rates and backlogs sum across shards;
    ``avg_latency_s`` is the receipt-weighted mean of the shard means
    (``output_rate`` is receipts-per-interval with a common interval, hence
    proportional to each shard's receipt count); sources count as paused
    only when paused on *every* shard.  Groups are combined in shard order,
    so the result is a pure function of the shard results — worker-count
    invariant like the log merge.
    """
    from repro.elastic.monitor import MonitorSample

    buckets: Dict[float, List] = {}
    for samples in sample_lists:
        for sample in samples:
            buckets.setdefault(sample.time, []).append(sample)
    merged: List[MonitorSample] = []
    for time in sorted(buckets):
        group = buckets[time]
        latency_weight = sum(
            s.output_rate for s in group if s.avg_latency_s is not None
        )
        if latency_weight > 0:
            avg_latency: Optional[float] = (
                sum(
                    s.output_rate * s.avg_latency_s
                    for s in group
                    if s.avg_latency_s is not None
                )
                / latency_weight
            )
        else:
            avg_latency = None
        merged.append(MonitorSample(
            time=time,
            input_rate=sum(s.input_rate for s in group),
            offered_rate=sum(s.offered_rate for s in group),
            output_rate=sum(s.output_rate for s in group),
            avg_latency_s=avg_latency,
            queue_backlog=sum(s.queue_backlog for s in group),
            source_backlog=sum(s.source_backlog for s in group),
            sources_paused=all(s.sources_paused for s in group),
        ))
    return merged


def log_digest(log) -> str:
    """Stable content hash of a log's emission/receipt records.

    Floats are rendered with ``repr`` (shortest round-trip form), so two logs
    share a digest iff every record field is bit-identical — the check behind
    the "N workers == 1 worker" acceptance criterion.  The lines
    (``E time root source replay backlog`` / ``R time root event sink emitted
    replay``) are formatted straight from the columns: ``tolist`` yields the
    native floats/ints the records carry, skipping row materialization.
    """
    hasher = hashlib.sha256()
    cols = log.emit_columns()
    names = cols["names"]
    for time, root, code, replay, backlog in zip(
        cols["time"].tolist(), cols["root"].tolist(), cols["source"].tolist(),
        cols["replay"].tolist(), cols["backlog"].tolist(),
    ):
        hasher.update(
            f"E {time!r} {root} {names[code]} {replay} {int(backlog)}\n".encode("utf-8")
        )
    cols = log.receipt_columns()
    names = cols["names"]
    for time, root, event, code, emitted, replay in zip(
        cols["time"].tolist(), cols["root"].tolist(), cols["event"].tolist(),
        cols["sink"].tolist(), cols["emitted"].tolist(), cols["replay"].tolist(),
    ):
        hasher.update(
            f"R {time!r} {root} {event} {names[code]} "
            f"{emitted!r} {replay}\n".encode("utf-8")
        )
    return hasher.hexdigest()
