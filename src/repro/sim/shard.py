"""Partitioned simulation: shard specs, the inline runner, deterministic merge.

A *shard* is one hermetic simulation of an independent keyed partition of the
workload: it owns its own :class:`~repro.sim.kernel.Simulator`, cluster and
runtime, resets the global event-id counter on entry (exactly as
``ExperimentMatrix.prefetch`` does for figure cells) and returns its log as
column arrays.  Because shards never interact, the merged
:class:`~repro.metrics.log.EventLog` depends only on the shard *specs*, never
on the order the shards ran in.

Merge determinism
-----------------
Each shard numbers its events from 1 (hermetic reset), so ids collide across
shards.  The merge namespaces every id into ``shard_index * SHARD_ID_STRIDE +
local_id`` — a pure function of the spec — and orders the union of the
per-shard record streams by ``(time, namespaced id)``.  Both steps are
deterministic, so the merged log of the same specs is byte-identical however
the results are ordered (asserted via :func:`log_digest`).

The merge is pure array work: the shard logs' columns are concatenated,
id-offset, and reordered with one stable ``np.lexsort`` on ``(time,
namespaced id)``, then appended to the merged
:class:`~repro.metrics.log.EventLog` in one bulk call, without touching a
single per-record Python object.  Shard streams are sorted by ``(time, id)``
within a shard (ids are assigned in record order and times are monotone), so
the lexsort is the order a per-record interleave of the streams produces.

This module deliberately knows nothing about dataflows or clusters: the
concrete shard runner lives in :mod:`repro.experiments.sharded` and is passed
in as a callable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as _np

from repro.sim.rng import keyed_seed

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
    """Outcome of one shard: its emission/receipt columns.

    ``emit_columns`` / ``receipt_columns`` are what the shard log's
    :meth:`~repro.metrics.log.EventLog.emit_columns` /
    :meth:`~repro.metrics.log.EventLog.receipt_columns` return (time-ordered
    numpy field arrays plus the interned name table; ``None``: the shard
    shipped no log).  ``summary`` is
    :meth:`~repro.metrics.log.EventLog.summary`.
    """

    index: int
    summary: Dict[str, float] = field(default_factory=dict)
    emit_columns: Optional[Dict[str, Any]] = None
    receipt_columns: Optional[Dict[str, Any]] = None
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


def run_shards(
    specs: Sequence[ShardSpec],
    runner: Callable[[ShardSpec], ShardResult],
    workers: int = 1,
) -> List[ShardResult]:
    """Run every shard through ``runner`` in this process, in spec order.

    ``workers`` is accepted only as ``1``: shards always run inline, because a
    process pool never beat that (shipping whole log columns back costs more
    than the parallel simulation saves).
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (shards run inline), got {workers!r}")
    return [runner(spec) for spec in specs]


def merge_shard_results(results: Sequence[ShardResult]):
    """Deterministically merge per-shard columns into one event log.

    Ids are namespaced by shard (see :data:`SHARD_ID_STRIDE`) and the
    per-shard streams — already time-ordered — are ordered by
    ``(time, namespaced id)`` with one stable ``np.lexsort`` per stream, so
    the output is a pure function of the shard results, bit-stable across
    input orders and repeat runs.
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


def log_digest(log) -> str:
    """Stable content hash of a log's emission/receipt records.

    Floats are rendered with ``repr`` (shortest round-trip form), so two logs
    share a digest iff every record field is bit-identical.  The lines
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
