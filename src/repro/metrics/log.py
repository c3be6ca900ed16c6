"""The event log: raw observations collected by the engine during a run.

The engine appends a record for every source emission, sink receipt, dropped
event, executor kill and lifecycle transition.  Experiments and metrics are
computed entirely from this log (plus the strategy's phase timestamps), which
mirrors the paper's methodology of logging event timestamps on the VMs and
analysing them offline.

Storage and indexes
-------------------
:class:`EventLog` stores the two hot streams (emits, receipts) as numpy
struct-of-arrays: one growable float64/int64 column per field, with task
names interned into a shared string table.  The log is append-only and
simulated time never goes backwards, so both streams are monotone in time and
every windowed query (``receipts_after`` / ``receipts_between`` /
``emits_between`` / ``first_receipt_after``, the recovery-metric scans) is a
binary search plus a contiguous range.  Both sides of the log run on the
columns:

* **writes** -- a per-event ``record_*`` call stages one tuple (see
  :class:`_Table`); the batch stepper's vectorized cascade hands whole arrays
  to :meth:`EventLog.extend_emits` / :meth:`EventLog.extend_receipts` and the
  shard merge whole column sets to :meth:`EventLog.extend_columns`, appended
  with numpy copies, no per-event Python object;
* **reads** -- time lookups are ``np.searchsorted`` on the live column prefix;
  window queries return a *lazy window* (a :class:`_RowsView` over
  ``[lo, hi)``: O(1) ``len``, list-compatible ``==`` / iteration / truthiness,
  rows materialized only for the indexes and slices actually touched, slices
  returning plain lists); first-emit-per-root is one
  ``np.unique(..., return_index=True)`` over the emit-root column, cached
  behind a sync cursor; the recovery scans are boolean masks over column
  slices.

Reductions over a window (:func:`mean_latency`, :func:`replay_emits_since`)
read the columns too, with one rule: a float reduction that can reach a
control decision or a committed output is a *sequential* Python ``sum`` over
``(time - emitted).tolist()``, never ``np.sum`` / ``np.mean`` -- numpy sums
pairwise, which moves the low bits and with them scaling-action sequences and
the committed ``results/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as _np

from repro.sim import Simulator


@dataclass(frozen=True, slots=True)
class SourceEmit:
    """One event emission by a source task (first emission, backlog drain or replay)."""

    time: float
    root_id: int
    source: str
    replay_count: int
    from_backlog: bool


@dataclass(frozen=True, slots=True)
class SinkReceipt:
    """One event received by a sink task."""

    time: float
    root_id: int
    event_id: int
    sink: str
    root_emitted_at: float
    replay_count: int

    @property
    def latency_s(self) -> float:
        """End-to-end latency measured from the root's original emission."""
        return self.time - self.root_emitted_at


@dataclass(frozen=True, slots=True)
class DropRecord:
    """An event dropped because its destination executor could not accept it."""

    time: float
    executor_id: str
    kind: str
    reason: str
    root_id: Optional[int] = None


@dataclass(frozen=True, slots=True)
class DeferredRecord:
    """A data event held by the transport while its destination executor restarts."""

    time: float
    executor_id: str
    root_id: Optional[int] = None


@dataclass(frozen=True, slots=True)
class KillRecord:
    """An executor kill, with the number of queued events lost."""

    time: float
    executor_id: str
    queued_events_lost: int
    pending_events_lost: int


@dataclass(frozen=True, slots=True)
class LifecycleRecord:
    """An executor lifecycle transition (started, killed, restarted, ready, initialized)."""

    time: float
    executor_id: str
    status: str


class _Column:
    """One growable numpy column (amortized-doubling append buffer)."""

    __slots__ = ("data", "n")

    def __init__(self, dtype, capacity: int = 256) -> None:
        self.data = _np.empty(capacity, dtype=dtype)
        self.n = 0

    def view(self):
        """The live prefix of the buffer (zero-copy)."""
        return self.data[: self.n]

    def _grow(self, need: int) -> None:
        capacity = len(self.data)
        while capacity < need:
            capacity *= 2
        grown = _np.empty(capacity, dtype=self.data.dtype)
        grown[: self.n] = self.data[: self.n]
        self.data = grown

    def extend(self, values) -> None:
        arr = _np.asarray(values, dtype=self.data.dtype)
        need = self.n + arr.size
        if need > len(self.data):
            self._grow(need)
        self.data[self.n:need] = arr
        self.n = need

    def extend_fill(self, value, count: int) -> None:
        need = self.n + count
        if need > len(self.data):
            self._grow(need)
        self.data[self.n:need] = value
        self.n = need


#: Per-record writes are staged as tuples and land in the columns this many
#: rows at a time (and before any read): the stage stays a few tens of
#: kilobytes however long the run, so the process high-water mark does not move.
_STAGE_BLOCK = 512


class _Table:
    """The named parallel columns of one record stream, with a staged write path.

    A per-event ``record_*`` call appends **one tuple** to ``stage`` instead
    of storing a numpy scalar into each column; :meth:`flush` transposes the
    stage into one ``extend`` per column.  Nothing reads ``columns`` without
    flushing first: the log exposes each column as a property that does (see
    :func:`_flushed_column`), so every reader, in or out of this module, sees
    all recorded rows.
    """

    __slots__ = ("stream", "fields", "columns", "stage")

    def __init__(self, stream: str, **dtypes) -> None:
        self.stream = stream
        self.fields = tuple(dtypes)
        self.columns = tuple(_Column(dtype) for dtype in dtypes.values())
        self.stage: List[tuple] = []

    def flush(self) -> None:
        stage = self.stage
        if stage:
            for column, values in zip(self.columns, zip(*stage)):
                column.extend(values)
            stage.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Compact copies of the columns, by field name."""
        self.flush()
        return {key: column.view().copy() for key, column in zip(self.fields, self.columns)}

    def append_block(self, values: Sequence[Any]) -> int:
        """Append one block of rows, whole or not at all; returns its row count.

        ``values`` holds one entry per column, in column order: an array-like
        of the block's rows, or a scalar that fills the column.  The block is
        refused with ``ValueError`` unless every array has the time column's
        length (a short column would leave rows of uninitialized buffer) and
        its times are non-decreasing from the last recorded one on (every
        windowed query binary-searches them).  The order test is written
        positively so a NaN time, which compares false with everything,
        fails it.
        """
        self.flush()
        columns = self.columns
        arrays = [
            _np.asarray(value, dtype=column.data.dtype)
            for column, value in zip(columns, values)
        ]
        times = arrays[0]
        count = times.size
        if any(array.ndim and array.size != count for array in arrays):
            raise ValueError(
                f"{self.stream} columns must be equally long, got "
                f"{[array.size for array in arrays if array.ndim]}"
            )
        recorded = columns[0]
        last = recorded.data[recorded.n - 1] if recorded.n else -_np.inf
        if count and not (times[0] >= last and (times[1:] >= times[:-1]).all()):
            raise ValueError(
                f"{self.stream} times must be non-decreasing and start at or after the "
                f"last recorded {self.stream} time"
            )
        for column, array in zip(columns, arrays):
            if array.ndim:
                column.extend(array)
            else:
                column.extend_fill(array, count)
        return count


def _flushed_column(table: str, index: int) -> property:
    """Column ``index`` of the log's ``table``, read through a flush of its stage."""

    def column(log: "EventLog") -> _Column:
        rows = getattr(log, table)
        if rows.stage:
            rows.flush()
        return rows.columns[index]

    return property(column)


class _RowsView(Sequence):
    """Lazy record window ``[lo, hi)`` over the log's columns.

    ``hi=None`` tracks the live end of the log: that is the whole-log view
    behind ``source_emits`` / ``sink_receipts``.  A window query returns the
    same view with both bounds fixed (the log is append-only, so they stay
    valid).  Either way it is list-compatible -- O(1) ``len``, truthiness,
    iteration, ``==`` against lists -- and only the indexes and slices
    actually touched become dataclass rows; slices return plain lists.
    """

    __slots__ = ("_log", "_lo", "_hi")

    def __init__(self, log: "EventLog", lo: int = 0, hi: Optional[int] = None) -> None:
        self._log = log
        self._lo = lo
        self._hi = hi if hi is None else max(hi, lo)  # inverted window: empty

    def _live_end(self) -> int:
        raise NotImplementedError

    def _materialize(self, rows) -> List:
        """Records at ``rows``: a slice or an index array into the columns."""
        raise NotImplementedError

    def __len__(self) -> int:
        return (self._live_end() if self._hi is None else self._hi) - self._lo

    def __getitem__(self, index):
        lo = self._lo
        n = len(self)
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step == 1:
                return self._materialize(slice(lo + start, lo + max(start, stop)))
            return self._materialize(_np.arange(lo + start, lo + stop, step))
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        return self._materialize(slice(lo + index, lo + index + 1))[0]

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other):
        if isinstance(other, _RowsView):
            other = other[:]
        if isinstance(other, (list, tuple)):
            return self[:] == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} records>"


class _EmitRowsView(_RowsView):
    __slots__ = ()

    def _live_end(self) -> int:
        return self._log._emit_time.n

    def _materialize(self, rows) -> List[SourceEmit]:
        log = self._log
        names = log._names
        return [
            SourceEmit(time=t, root_id=rid, source=names[code],
                       replay_count=replay, from_backlog=backlog)
            for t, rid, code, replay, backlog in zip(
                log._emit_time.data[rows].tolist(),
                log._emit_root.data[rows].tolist(),
                log._emit_source.data[rows].tolist(),
                log._emit_replay.data[rows].tolist(),
                log._emit_backlog.data[rows].tolist(),
            )
        ]


class _ReceiptRowsView(_RowsView):
    __slots__ = ()

    def _live_end(self) -> int:
        return self._log._receipt_time.n

    def _materialize(self, rows) -> List[SinkReceipt]:
        log = self._log
        names = log._names
        return [
            SinkReceipt(time=t, root_id=rid, event_id=eid, sink=names[code],
                        root_emitted_at=emitted, replay_count=replay)
            for t, rid, eid, code, emitted, replay in zip(
                log._receipt_time.data[rows].tolist(),
                log._receipt_root.data[rows].tolist(),
                log._receipt_event.data[rows].tolist(),
                log._receipt_sink.data[rows].tolist(),
                log._receipt_emitted.data[rows].tolist(),
                log._receipt_replay.data[rows].tolist(),
            )
        ]

    def _latencies(self, start: int = 0) -> List[float]:
        """``time - root_emitted_at`` of ``self[start:]``, without the rows."""
        log = self._log
        rows = slice(self._lo + start, self._lo + len(self))
        return (log._receipt_time.data[rows] - log._receipt_emitted.data[rows]).tolist()


class EventLog:
    """Accumulates raw run observations and answers the queries metrics need.

    Emits and receipts live in growable numpy columns; ``source_emits``,
    ``sink_receipts`` and the time indexes are lazy views that materialize
    rows only on access, and every query runs on the columns.  The per-root
    derived state (first emit time of every root, distinct roots received) is
    a pair of sorted arrays built by ``np.unique`` the first time a query
    needs them and merged forward from a sync cursor afterwards, so the bulk
    write path never touches a Python dict per event.  Cold streams (drops,
    deferred, kills, lifecycle) are plain record lists — they are rare and
    carry string payloads.

    Per-event writes are staged (one tuple per record, see :class:`_Table`)
    and land in the columns every ``_STAGE_BLOCK`` rows and before any read.
    """

    # Emit columns.
    _emit_time = _flushed_column("_emits", 0)
    _emit_root = _flushed_column("_emits", 1)
    _emit_source = _flushed_column("_emits", 2)
    _emit_replay = _flushed_column("_emits", 3)
    _emit_backlog = _flushed_column("_emits", 4)
    # Receipt columns.
    _receipt_time = _flushed_column("_receipts", 0)
    _receipt_root = _flushed_column("_receipts", 1)
    _receipt_event = _flushed_column("_receipts", 2)
    _receipt_sink = _flushed_column("_receipts", 3)
    _receipt_emitted = _flushed_column("_receipts", 4)
    _receipt_replay = _flushed_column("_receipts", 5)

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.drops: List[DropRecord] = []
        self.deferred: List[DeferredRecord] = []
        self.kills: List[KillRecord] = []
        self.lifecycle: List[LifecycleRecord] = []
        self.replay_emits: int = 0
        # Interned task-name table shared by the source and sink columns.
        self._names: List[str] = []
        self._name_codes: Dict[str, int] = {}
        # Field order = the class-level properties = the staged tuples; the
        # names are the keys of emit_columns() / receipt_columns().
        self._emits = _Table(
            "emit", time=_np.float64, root=_np.int64, source=_np.int32,
            replay=_np.int64, backlog=_np.bool_,
        )
        self._receipts = _Table(
            "receipt", time=_np.float64, root=_np.int64, event=_np.int64,
            sink=_np.int32, emitted=_np.float64, replay=_np.int64,
        )
        # Lazy query state: sorted distinct roots (with each root's first emit
        # time), valid up to the sync cursors into the columns.
        self._first_emit_roots = _np.empty(0, dtype=_np.int64)
        self._first_emit_times = _np.empty(0, dtype=_np.float64)
        self._first_emit_synced = 0
        self._received_roots = _np.empty(0, dtype=_np.int64)
        self._roots_synced = 0
        #: Whole-log record views (the monotone time indexes parallel to them
        #: are :attr:`emit_times_array` / :attr:`receipt_times_array`).
        self.source_emits: Sequence[SourceEmit] = _EmitRowsView(self)
        self.sink_receipts: Sequence[SinkReceipt] = _ReceiptRowsView(self)

    # ------------------------------------------------------------- internals
    def _code(self, name: str) -> int:
        code = self._name_codes.get(name)
        if code is None:
            code = len(self._names)
            self._name_codes[name] = code
            self._names.append(name)
        return code

    def _first_emits(self):
        """``(roots, times)``: sorted distinct emitted roots, first emit time of each."""
        n = self._emit_time.n
        synced = self._first_emit_synced
        if synced < n:
            # Known roots go first and emits are time-ordered, so the first
            # occurrence np.unique reports is each root's earliest emission.
            roots = _np.concatenate((self._first_emit_roots, self._emit_root.data[synced:n]))
            times = _np.concatenate((self._first_emit_times, self._emit_time.data[synced:n]))
            self._first_emit_roots, first = _np.unique(roots, return_index=True)
            self._first_emit_times = times[first]
            self._first_emit_synced = n
        return self._first_emit_roots, self._first_emit_times

    def _receipt_index(self, time: float) -> int:
        """Index of the first receipt at or after ``time``."""
        return int(self._receipt_time.view().searchsorted(time, side="left"))

    def _emit_index(self, time: float) -> int:
        """Index of the first emission at or after ``time``."""
        return int(self._emit_time.view().searchsorted(time, side="left"))

    def _last_hit_index(self, start: int, mask) -> Optional[int]:
        """Index of the latest receipt hit by the boolean ``mask`` over the
        receipts from index ``start`` on; among hits of that same time, the
        earliest-recorded one."""
        hits = _np.flatnonzero(mask)
        if not hits.size:
            return None
        times = self._receipt_time.data
        last = start + int(hits[-1])
        # Receipts sharing the winner's time are contiguous: the earliest
        # recorded match among them is the first hit at or after their start.
        tied_from = max(start, int(times[:last].searchsorted(times[last], side="left")))
        return start + int(hits[hits.searchsorted(tied_from - start, side="left")])

    # -------------------------------------------------------------- recording
    def record_source_emit(
        self,
        root_id: int,
        source: str,
        replay_count: int = 0,
        from_backlog: bool = False,
        at_time: Optional[float] = None,
    ) -> None:
        """Record that a source emitted (or re-emitted) a root event.

        ``at_time`` serves the batch-stepping cascade, which materializes
        many ticks inside one kernel callback: each emission is stamped with
        its exact tick time.  Stamped times must be non-decreasing (the
        emit-time column is binary-searched).
        """
        stage = self._emits.stage
        stage.append((
            self.sim.now if at_time is None else at_time,
            root_id, self._code(source), replay_count, from_backlog,
        ))
        if len(stage) >= _STAGE_BLOCK:
            self._emits.flush()
        if replay_count > 0:
            self.replay_emits += 1

    def record_sink_receipt(
        self,
        root_id: int,
        event_id: int,
        sink: str,
        root_emitted_at: float,
        replay_count: int,
        at_time: Optional[float] = None,
    ) -> None:
        """Record that a sink received an event (now, or at an explicit time).

        ``at_time`` lets the batch-stepping cascade stamp each receipt with
        its exact completion time.  Callers must keep stamped times
        non-decreasing (the receipt-time column is binary-searched).
        """
        stage = self._receipts.stage
        stage.append((
            self.sim.now if at_time is None else at_time,
            root_id, event_id, self._code(sink), root_emitted_at, replay_count,
        ))
        if len(stage) >= _STAGE_BLOCK:
            self._receipts.flush()

    def record_drop(self, executor_id: str, kind: str, reason: str, root_id: Optional[int] = None) -> None:
        """Record that an event could not be delivered to an executor."""
        self.drops.append(
            DropRecord(time=self.sim.now, executor_id=executor_id, kind=kind, reason=reason, root_id=root_id)
        )

    def record_deferred(self, executor_id: str, root_id: Optional[int] = None) -> None:
        """Record that the transport is holding a data event for a restarting executor."""
        self.deferred.append(DeferredRecord(time=self.sim.now, executor_id=executor_id, root_id=root_id))

    def record_kill(self, executor_id: str, queued_events_lost: int, pending_events_lost: int = 0) -> None:
        """Record an executor kill and the in-flight events lost with it."""
        self.kills.append(
            KillRecord(time=self.sim.now, executor_id=executor_id,
                       queued_events_lost=queued_events_lost, pending_events_lost=pending_events_lost)
        )

    def record_lifecycle(self, executor_id: str, status: str) -> None:
        """Record an executor lifecycle transition."""
        self.lifecycle.append(LifecycleRecord(time=self.sim.now, executor_id=executor_id, status=status))

    # ----------------------------------------------------------- bulk appends
    def extend_emits(
        self,
        times: Sequence[float],
        root_ids: Sequence[int],
        source: str,
        replay_count: int = 0,
        from_backlog: bool = False,
    ) -> None:
        """Bulk-append one source's fresh emission cohort.

        ``times`` must be non-decreasing and start at or after the last
        recorded emit time, and ``root_ids`` must be as long (``ValueError``
        otherwise: an out-of-order or ragged block would corrupt every
        windowed query); ``root_ids`` must be first emissions (the batch
        stepper's roots of one window).  Accepts any sequence,
        including numpy arrays.
        """
        count = self._emits.append_block(
            (times, root_ids, self._code(source), replay_count, from_backlog)
        )
        if replay_count > 0:
            self.replay_emits += count

    def extend_receipts(
        self,
        times: Sequence[float],
        root_ids: Sequence[int],
        event_ids: Sequence[int],
        sinks: Any,
        root_emitted_ats: Sequence[float],
        replay_count: int = 0,
        sink_indices: Optional[Sequence[int]] = None,
    ) -> None:
        """Bulk-append sink receipts already sorted by time.

        ``sinks`` is a single sink name applied to every record, or — when
        ``sink_indices`` is given — a list of names indexed per record.
        ``times`` must be non-decreasing and start at or after the last
        recorded receipt time, and every column as long (``ValueError``
        otherwise).
        """
        if sink_indices is None:
            sink_codes: Any = self._code(sinks)
        else:
            codes = _np.asarray([self._code(name) for name in sinks], dtype=_np.int32)
            sink_codes = codes[_np.asarray(sink_indices, dtype=_np.intp)]
        self._receipts.append_block(
            (times, root_ids, event_ids, sink_codes, root_emitted_ats, replay_count)
        )

    def extend_columns(self, emits: Dict[str, Any], receipts: Dict[str, Any]) -> None:
        """Bulk-append whole column sets, as :meth:`emit_columns` /
        :meth:`receipt_columns` return them (the shard merge's write path).

        Each set's ``names`` table is re-interned into this log's.  Same
        contract as :meth:`extend_emits` / :meth:`extend_receipts`, per
        stream: equally long columns, times non-decreasing from the last
        recorded one on.
        """
        self._emits.append_block(self._recoded(self._emits, emits, "source"))
        self.replay_emits += int(_np.count_nonzero(_np.asarray(emits["replay"]) > 0))
        self._receipts.append_block(self._recoded(self._receipts, receipts, "sink"))

    def _recoded(self, table: _Table, columns: Dict[str, Any], name_key: str) -> List:
        """``columns`` in ``table``'s field order, its name codes translated to this log's."""
        codes = _np.asarray([self._code(name) for name in columns["names"]], dtype=_np.int32)
        return [
            codes[_np.asarray(columns[key], dtype=_np.intp)] if key == name_key else columns[key]
            for key in table.fields
        ]

    # ---------------------------------------------------------------- queries
    def receipts_after(self, time: float) -> Sequence[SinkReceipt]:
        """Sink receipts at or after the given time, in time order."""
        return _ReceiptRowsView(self, self._receipt_index(time), self._receipt_time.n)

    def receipts_between(self, start: float, end: float) -> Sequence[SinkReceipt]:
        """Sink receipts in ``[start, end)`` (empty when ``end <= start``)."""
        return _ReceiptRowsView(self, self._receipt_index(start), self._receipt_index(end))

    def emits_between(self, start: float, end: float) -> Sequence[SourceEmit]:
        """Source emissions in ``[start, end)`` (empty when ``end <= start``)."""
        return _EmitRowsView(self, self._emit_index(start), self._emit_index(end))

    def first_receipt_after(self, time: float) -> Optional[SinkReceipt]:
        """Earliest sink receipt at or after the given time, if any."""
        index = self._receipt_index(time)
        return self.sink_receipts[index] if index < len(self.sink_receipts) else None

    def last_old_receipt(self, migration_time: float) -> Optional[SinkReceipt]:
        """Latest sink receipt (after migration) of a root emitted before the migration.

        Among equal-time candidates the *earliest-recorded* one is returned,
        matching the historical ``max(..., key=time)`` behaviour (``max``
        keeps the first of ties in iteration order).
        """
        start = self._receipt_index(migration_time)
        roots, times = self._first_emits()
        if not roots.size:
            return None
        received = self._receipt_root.data[start:self._receipt_time.n]
        slots = roots.searchsorted(received)
        # A root above every emitted root lands one past the end; any valid
        # slot will do for it, the equality test rejects it.
        slots[slots == roots.size] = 0
        index = self._last_hit_index(
            start, (roots[slots] == received) & (times[slots] < migration_time)
        )
        return None if index is None else self.sink_receipts[index]

    def last_replay_receipt(self, migration_time: float) -> Optional[SinkReceipt]:
        """Latest sink receipt of a replayed (previously failed) event after the migration.

        Same tie handling as :meth:`last_old_receipt`.
        """
        start = self._receipt_index(migration_time)
        index = self._last_hit_index(
            start, self._receipt_replay.data[start:self._receipt_time.n] > 0
        )
        return None if index is None else self.sink_receipts[index]

    def lost_in_kills(self) -> int:
        """Total number of queued events lost across all executor kills."""
        return sum(k.queued_events_lost for k in self.kills)

    def distinct_roots_received(self) -> int:
        """Number of distinct root events observed at the sinks."""
        n = self._receipt_time.n
        if self._roots_synced < n:
            self._received_roots = _np.unique(_np.concatenate(
                (self._received_roots, self._receipt_root.data[self._roots_synced:n])
            ))
            self._roots_synced = n
        return self._received_roots.size

    def summary(self) -> Dict[str, float]:
        """Coarse counters describing the run (useful in example output)."""
        return {
            "source_emits": len(self.source_emits),
            "replay_emits": self.replay_emits,
            "sink_receipts": len(self.sink_receipts),
            "distinct_roots_received": self.distinct_roots_received(),
            "drops": len(self.drops),
            "kills": len(self.kills),
            "events_lost_in_kills": self.lost_in_kills(),
        }

    # -------------------------------------------------------- array accessors
    @property
    def emit_times_array(self):
        """Emit times as a float64 array view (zero-copy, monotone)."""
        return self._emit_time.view()

    @property
    def receipt_times_array(self):
        """Receipt times as a float64 array view (zero-copy, monotone)."""
        return self._receipt_time.view()

    @property
    def receipt_emitted_array(self):
        """Per-receipt root emission times (parallel to the receipt times)."""
        return self._receipt_emitted.view()

    def emit_columns(self) -> Dict[str, Any]:
        """Compact copies of the emit columns (for shard transport/merging)."""
        return {**self._emits.snapshot(), "names": list(self._names)}

    def receipt_columns(self) -> Dict[str, Any]:
        """Compact copies of the receipt columns (for shard transport/merging)."""
        return {**self._receipts.snapshot(), "names": list(self._names)}


#: The name ``bench_e2e/workloads.py`` imports.
ColumnarEventLog = EventLog


# --------------------------------------------------------------------------
# Reductions over a window
# --------------------------------------------------------------------------

def mean_latency(
    receipts: Sequence[SinkReceipt], start: int = 0, empty: Optional[float] = None
) -> Optional[float]:
    """Mean end-to-end latency of ``receipts[start:]`` (``empty`` when there are none).

    ``receipts`` is a whole-log ``sink_receipts``, the lazy window a query
    returned, or a plain list of rows (a slice of either).  The sum is
    sequential, in record order: this value drives scaling decisions and
    committed summaries, and a pairwise ``np.sum`` would move its low bits.
    """
    if isinstance(receipts, _ReceiptRowsView):
        latencies = receipts._latencies(start)
    else:
        latencies = [receipt.latency_s for receipt in receipts[start:]]
    return sum(latencies) / len(latencies) if latencies else empty


def replay_emits_since(log: EventLog, time: float) -> int:
    """Source emissions at or after ``time`` that were replays of failed trees."""
    return int(_np.count_nonzero(log._emit_replay.data[log._emit_index(time):log._emit_time.n]))
