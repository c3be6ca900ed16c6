"""Partitioned simulation: shard specs, the inline runner, deterministic merge.

A *shard* is one hermetic simulation of an independent keyed partition of the
workload: it owns its own :class:`~repro.sim.kernel.Simulator`, cluster and
runtime, seeded from its spec, and returns its log as column arrays.  Event
ids are a function of each run's data, its seed included
(:mod:`repro.dataflow.event`), so shards never share one and nothing is reset
between them.  Because shards never interact, the merged
:class:`~repro.metrics.log.EventLog` depends only on the shard *specs*, never
on the order the shards ran in.

Merge determinism
-----------------
The merge keeps every id as its shard drew it and orders the union of the
per-shard record streams by ``(time, shard index, record position)``: a pure
function of the shard results, so the merged log of the same specs is
byte-identical however the results are ordered (asserted via
:func:`log_digest`).

The merge is pure array work: the shard logs' columns are concatenated in
shard-index order and reordered with one stable ``np.argsort`` on time, then
appended to the merged :class:`~repro.metrics.log.EventLog` in one bulk call,
without touching a single per-record Python object.  Each shard's stream is
time-ordered already, so the stable sort keeps a shard's records in place and
breaks a tie between shards by index.

This module deliberately knows nothing about dataflows or clusters: the
concrete shard runner lives in :mod:`repro.experiments.sharded` and is passed
in as a callable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as _np

from repro.sim.rng import keyed_seed

#: Rows :func:`log_digest` formats per ``%`` call and ``hasher.update``.
#: Digest of ``bench_e2e``'s 80 k-record log (seed 2018, 2-vCPU Xeon, best of
#: 15): 98-108 ms formatted per record; 66-71 ms with 2 048, 4 096 or 8 192-row
#: blocks alike; 73-84 ms and +15.5 MiB peak memory as one whole-log block.
DIGEST_BLOCK_ROWS = 4096


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

    The per-shard streams — already time-ordered — are laid end to end in
    shard-index order and ordered by time with one stable ``np.argsort`` per
    stream: ``(time, shard index, record position)``, so the output is a pure
    function of the shard results, bit-stable across input orders and repeat
    runs.
    """
    # Imported here: repro.metrics.log imports repro.sim, so a module-level
    # import would make this module unimportable from repro.metrics.
    from repro.metrics.log import EventLog
    from repro.sim.kernel import Simulator

    log = EventLog(Simulator())
    # The log's own (empty) columns lead each stream: they carry the dtypes,
    # so a merge of no rows still yields well-typed arrays.
    emit_parts = [log.emit_columns()]
    receipt_parts = [log.receipt_columns()]
    for result in sorted(results, key=lambda result: result.index):
        if result.emit_columns is not None:
            emit_parts.append(result.emit_columns)
        if result.receipt_columns is not None:
            receipt_parts.append(result.receipt_columns)
    log.extend_columns(
        _merged_columns(emit_parts, name_key="source"),
        _merged_columns(receipt_parts, name_key="sink"),
    )
    return log


def _merged_columns(parts, name_key: str) -> Dict[str, Any]:
    """Concatenate per-shard column sets, in order, into one sorted stably by time.

    The name tables are concatenated too (the log interns them, duplicates
    and all), each set's ``name_key`` codes shifted to where its table starts.
    """
    names: List[str] = []
    pieces: Dict[str, List] = {}
    for columns in parts:
        for key, values in columns.items():
            if key == name_key:
                values = _np.asarray(values, dtype=_np.int32) + len(names)
            if key != "names":
                pieces.setdefault(key, []).append(values)
        names.extend(columns["names"])
    merged = {key: _np.concatenate(arrays) for key, arrays in pieces.items()}
    order = _np.argsort(merged["time"], kind="stable")
    merged = {key: values[order] for key, values in merged.items()}
    merged["names"] = names
    return merged


def log_digest(log) -> str:
    """Stable content hash of a log's emission/receipt records.

    Hashes one line per record, every emission before every receipt::

        E <time> <root> <source> <replay> <backlog 0/1>
        R <time> <root> <event> <sink> <emitted> <replay>

    Floats are rendered with ``repr`` (shortest round-trip form), so two logs
    share a digest iff every record field is bit-identical.  The format is
    frozen: digests are pinned in the tests and ``bench_e2e`` checks this
    function against its own per-record formatter, so any change to the bytes
    (a column-bytes hash included) breaks them.

    The bytes are built from the columns, not per record.  Emission times and
    receipts' ``emitted`` times repeat (a root's emission time is on every
    receipt of its tree), so they are keyed by their int64 bit pattern —
    bits, not values, because ``repr`` tells ``-0.0`` from ``0.0`` — and
    ``repr`` runs once per distinct pattern.  Receipt times seldom repeat, so
    they go through ``%r`` as they are.  Rows are then formatted
    :data:`DIGEST_BLOCK_ROWS` at a time, one ``%`` and one ``update`` per
    block.
    """
    hasher = hashlib.sha256()
    emits, receipts = log.emit_columns(), log.receipt_columns()
    n_emits = len(emits["time"])
    shared = _np.concatenate((emits["time"], receipts["emitted"]))
    bits, inverse = _np.unique(shared.view(_np.int64), return_inverse=True)
    table = _np.array([repr(value) for value in bits.view(_np.float64).tolist()], dtype=object)
    text = table[inverse]
    emit_names = _np.array(emits["names"], dtype=object)
    sink_names = _np.array(receipts["names"], dtype=object)
    _hash_rows(hasher, "E %s %d %s %d %d\n", (
        text[:n_emits], emits["root"], emit_names[emits["source"]],
        emits["replay"], emits["backlog"],
    ))
    _hash_rows(hasher, "R %r %d %d %s %s %d\n", (
        receipts["time"], receipts["root"], receipts["event"],
        sink_names[receipts["sink"]], text[n_emits:], receipts["replay"],
    ))
    return hasher.hexdigest()


def _hash_rows(hasher, line: str, columns) -> None:
    """Feed ``line % row`` for every row of the parallel ``columns``, a block per update."""
    for start in range(0, len(columns[0]), DIGEST_BLOCK_ROWS):
        block = [column[start:start + DIGEST_BLOCK_ROWS].tolist() for column in columns]
        rows = len(block[0])
        hasher.update(((line * rows) % tuple(chain.from_iterable(zip(*block)))).encode("utf-8"))
