"""Equivalence tests for the EventLog and the single-pass timelines.

The log answers every query from numpy columns (binary-searched windows, lazy
row views, cached per-root arrays).  These tests pin it to naive reference
implementations -- the seed's original list comprehensions, which scan plain
record lists and know nothing of the indexes -- on

* a recorded Grid steady-state run,
* a recorded closed-loop elastic run (migrations, replays, kills),
* a sharded-run merge,
* synthetic logs exercising empty windows, exact-boundary windows and
  equal-time ties,
* hypothesis-generated logs (per-event and bulk appends interleaved with
  queries, replayed and never-emitted roots, ties across the cut), where the
  log must answer every query exactly like the naive scans over a record-list
  reference filled with the same records, its lazy windows must behave like
  the lists those scans return, and its :func:`~repro.sim.shard.log_digest`
  must equal a digest formatted from the reference rows, and
* hand-built logs at the digest's formatting edges (signed zeros and other
  ``repr`` shapes, block boundaries, duplicate merged name tables), one of
  them pinned to a literal.

A fixed corpus of such logs must pass, and three seeded mutations of the log's
index code must each fail it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import topologies
from repro.core.strategy import strategy_by_name
from repro.engine.runtime import TopologyRuntime
from repro.experiments.elastic import run_elastic_experiment
from repro.experiments.sharded import plan_shards, run_steady_shard
from repro.metrics.log import (
    EventLog,
    SinkReceipt,
    SourceEmit,
    mean_latency,
    replay_emits_since,
)
from repro.metrics.timeline import RatePoint, latency_timeline, rate_timeline
from repro.sim import Simulator
from repro.sim.shard import (
    DIGEST_BLOCK_ROWS,
    ShardResult,
    log_digest,
    merge_shard_results,
    run_shards,
)

from tests.conftest import build_cluster, fast_config, mutant, patched


# ----------------------------------------------------------- naive references
def naive_receipts_after(log, time):
    return [r for r in log.sink_receipts if r.time >= time]


def naive_receipts_between(log, start, end):
    return [r for r in log.sink_receipts if start <= r.time < end]


def naive_emits_between(log, start, end):
    return [e for e in log.source_emits if start <= e.time < end]


def naive_first_receipt_after(log, time):
    candidates = naive_receipts_after(log, time)
    return min(candidates, key=lambda r: r.time) if candidates else None


def naive_first_emit_times(log):
    first = {}
    for emit in log.source_emits:
        first.setdefault(emit.root_id, emit.time)
    return first


def naive_last_old_receipt(log, migration_time):
    first = naive_first_emit_times(log)
    old = [
        r
        for r in log.sink_receipts
        if r.time >= migration_time and first.get(r.root_id, math.inf) < migration_time
    ]
    return max(old, key=lambda r: r.time) if old else None


def naive_last_replay_receipt(log, migration_time):
    replays = [r for r in log.sink_receipts if r.time >= migration_time and r.replay_count > 0]
    return max(replays, key=lambda r: r.time) if replays else None


def naive_distinct_roots_received(log):
    return len({r.root_id for r in log.sink_receipts})


def naive_bin_rates(times, start, end, bin_s):
    if end <= start or bin_s <= 0:
        return []
    num_bins = int(math.ceil((end - start) / bin_s))
    counts = [0] * num_bins
    for t in times:
        if start <= t < end:
            counts[int((t - start) / bin_s)] += 1
    return [
        RatePoint(time=start + (i + 0.5) * bin_s, rate=count / bin_s)
        for i, count in enumerate(counts)
    ]


def naive_rate_timeline(log, kind, start, end, bin_s):
    times = [e.time for e in log.source_emits] if kind == "input" else [r.time for r in log.sink_receipts]
    return naive_bin_rates(times, start, end if end is not None else log.sim.now, bin_s)


def naive_latency_timeline(log, start, end, window_s):
    if end is None:
        end = log.sim.now
    if end <= start or window_s <= 0:
        return []
    num_windows = int(math.ceil((end - start) / window_s))
    sums = [0.0] * num_windows
    counts = [0] * num_windows
    for receipt in log.sink_receipts:
        if start <= receipt.time < end:
            index = int((receipt.time - start) / window_s)
            sums[index] += receipt.latency_s
            counts[index] += 1
    return [
        (start + (i + 0.5) * window_s, sums[i] / counts[i], counts[i])
        for i in range(num_windows)
        if counts[i]
    ]


# ------------------------------------------------------------------ fixtures
@pytest.fixture(scope="module")
def grid_log_columnar():
    """Event log of a 60 s Grid steady-state run (no migrations)."""
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=11)
    runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=fast_config("dcr"))
    runtime.deploy()
    runtime.start()
    sim.run(until=60.0)
    return runtime.log


@pytest.fixture(scope="module")
def elastic_log_columnar():
    """Event log of a closed-loop elastic run (migration, kills, replays)."""
    return run_elastic_experiment(
        dag="traffic", strategy="dsm", profile="surge", duration_s=300.0,
        seed=11, config=strategy_by_name("dsm").runtime_config(seed=11),
    ).log


@pytest.fixture(scope="module")
def merged_log_columnar():
    """Merged log of one sharded Grid run."""
    specs = plan_shards(dag="grid", shards=3, duration_s=10.0, seed=2018)
    return merge_shard_results(run_shards(specs, run_steady_shard))


def interesting_times(log):
    """Query times covering empty, boundary and mid-run windows."""
    end = log.sim.now
    times = [0.0, -5.0, end, end + 10.0, end / 2, end / 3]
    receipt_times = log.receipt_times_array.tolist()
    if receipt_times:
        first = receipt_times[0]
        last = receipt_times[-1]
        # Exact record times probe the inclusive/exclusive boundaries.
        times += [first, last, (first + last) / 2.0]
    return times


LOG_FIXTURES = ["grid_log_columnar", "elastic_log_columnar", "merged_log_columnar"]


# ---------------------------------------------------------------- log queries
@pytest.mark.parametrize("log_fixture", LOG_FIXTURES)
class TestIndexedQueriesMatchNaive:
    def test_receipts_after(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for t in interesting_times(log):
            assert log.receipts_after(t) == naive_receipts_after(log, t)

    def test_receipts_between(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        times = interesting_times(log)
        for start in times:
            for width in (0.0, 0.5, 10.0, 1e9):
                assert log.receipts_between(start, start + width) == naive_receipts_between(
                    log, start, start + width
                )
        # Inverted window: empty either way.
        assert log.receipts_between(50.0, 10.0) == naive_receipts_between(log, 50.0, 10.0) == []

    def test_emits_between(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for start in interesting_times(log):
            assert log.emits_between(start, start + 10.0) == naive_emits_between(log, start, start + 10.0)

    def test_first_receipt_after(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for t in interesting_times(log):
            assert log.first_receipt_after(t) == naive_first_receipt_after(log, t)

    def test_last_old_receipt(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for t in interesting_times(log):
            assert log.last_old_receipt(t) == naive_last_old_receipt(log, t)

    def test_last_replay_receipt(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for t in interesting_times(log):
            assert log.last_replay_receipt(t) == naive_last_replay_receipt(log, t)

    def test_distinct_roots_received(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        assert log.distinct_roots_received() == naive_distinct_roots_received(log)

    def test_time_arrays_parallel_to_records(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        receipt_times = log.receipt_times_array.tolist()
        emit_times = log.emit_times_array.tolist()
        assert receipt_times == [r.time for r in log.sink_receipts]
        assert emit_times == [e.time for e in log.source_emits]
        assert receipt_times == sorted(receipt_times)
        assert emit_times == sorted(emit_times)


# ------------------------------------------------------------------ timelines
@pytest.mark.parametrize("log_fixture", LOG_FIXTURES)
class TestTimelinesMatchNaive:
    def test_rate_timeline(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for kind in ("input", "output"):
            for start, end, bin_s in [
                (0.0, None, 1.0),
                (0.0, None, 5.0),
                (30.0, 60.0, 2.5),
                (59.9, 60.0, 0.05),
                (0.0, 0.0, 1.0),   # empty window
                (80.0, 20.0, 1.0),  # inverted window
            ]:
                assert rate_timeline(log, kind=kind, start=start, end=end, bin_s=bin_s) == \
                    naive_rate_timeline(log, kind, start, end, bin_s)

    def test_latency_timeline(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        for start, end, window_s in [(0.0, None, 10.0), (25.0, 55.0, 5.0), (0.0, 0.0, 10.0)]:
            points = latency_timeline(log, start=start, end=end, window_s=window_s)
            assert [(p.time, p.latency_s, p.samples) for p in points] == \
                naive_latency_timeline(log, start, end, window_s)


# ----------------------------------------------------------- synthetic ties
class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


def test_tie_times_and_boundaries_synthetic():
    """Equal-time records and exact-boundary queries match the naive scans."""
    # Three roots emitted before t=10, received in tied clusters after it.
    clock = _Clock()
    log = EventLog(clock)  # type: ignore[arg-type]
    for root in (1, 2, 3):
        clock.now = float(root)
        log.record_source_emit(root_id=root, source="source")
    for now, root, replay in [(10.0, 1, 0), (10.0, 2, 1), (10.0, 3, 1), (12.0, 9, 0), (12.0, 2, 1)]:
        clock.now = now
        log.record_sink_receipt(root_id=root, event_id=root * 100 + int(now), sink="sink",
                                root_emitted_at=float(root), replay_count=replay)
    clock.now = 15.0
    for t in (0.0, 1.0, 9.999, 10.0, 10.0000001, 12.0, 15.0, 20.0):
        assert log.receipts_after(t) == naive_receipts_after(log, t)
        assert log.first_receipt_after(t) == naive_first_receipt_after(log, t)
        assert log.last_old_receipt(t) == naive_last_old_receipt(log, t)
        assert log.last_replay_receipt(t) == naive_last_replay_receipt(log, t)
        assert log.receipts_between(t, 12.0) == naive_receipts_between(log, t, 12.0)
    assert log.distinct_roots_received() == naive_distinct_roots_received(log)


def test_empty_log_queries():
    """All queries behave on a freshly created, empty log."""
    log = EventLog(_Clock())  # type: ignore[arg-type]
    assert log.receipts_after(0.0) == []
    assert log.receipts_between(0.0, 100.0) == []
    assert log.emits_between(0.0, 100.0) == []
    assert log.first_receipt_after(0.0) is None
    assert log.last_old_receipt(0.0) is None
    assert log.last_replay_receipt(0.0) is None
    assert log.distinct_roots_received() == 0
    assert rate_timeline(log, kind="output", end=10.0) == naive_rate_timeline(log, "output", 0.0, 10.0, 1.0)
    assert latency_timeline(log, end=10.0) == []


# ------------------------------------------------- generated logs (hypothesis)
class _ReferenceRows:
    """The log as two plain record lists: appends only, no index, no numpy.

    The naive scans above read these; the log under test, filled with the
    same records, must answer every query as they do.
    """

    def __init__(self) -> None:
        self.source_emits = []
        self.sink_receipts = []

    def record_source_emit(self, root_id, source, replay_count=0, from_backlog=False, at_time=None):
        self.source_emits.append(SourceEmit(at_time, root_id, source, replay_count, from_backlog))

    def record_sink_receipt(self, root_id, event_id, sink, root_emitted_at, replay_count,
                            at_time=None):
        self.sink_receipts.append(
            SinkReceipt(at_time, root_id, event_id, sink, root_emitted_at, replay_count)
        )

    def extend_emits(self, times, root_ids, source, replay_count=0, from_backlog=False):
        for time, root_id in zip(times, root_ids):
            self.record_source_emit(root_id, source, replay_count, from_backlog, at_time=time)

    def extend_receipts(self, times, root_ids, event_ids, sinks, root_emitted_ats,
                        replay_count=0, sink_indices=None):
        names = [sinks] * len(times) if sink_indices is None else [sinks[i] for i in sink_indices]
        for time, root_id, event_id, sink, emitted in zip(
            times, root_ids, event_ids, names, root_emitted_ats
        ):
            self.record_sink_receipt(root_id, event_id, sink, emitted, replay_count, at_time=time)


def naive_digest(rows):
    """``log_digest`` of the reference rows, in its documented line format."""
    hasher = hashlib.sha256()
    for e in rows.source_emits:
        hasher.update(f"E {e.time!r} {e.root_id} {e.source} {e.replay_count} "
                      f"{int(e.from_backlog)}\n".encode("utf-8"))
    for r in rows.sink_receipts:
        hasher.update(f"R {r.time!r} {r.root_id} {r.event_id} {r.sink} "
                      f"{r.root_emitted_at!r} {r.replay_count}\n".encode("utf-8"))
    return hasher.hexdigest()


#: Time steps on a half-second grid, so equal-time ties (within a stream and
#: across the query cut) are common.
_STEP = st.sampled_from([0.0, 0.0, 0.5, 1.0])
#: Roots 0-7 can be emitted (and re-emitted: replays); 8-11 and 1000+ only ever
#: show up at a sink, below and above every emitted root id.
_EMIT_ROOT = st.integers(0, 7)
_RECEIPT_ROOT = st.integers(0, 11) | st.integers(100, 104) | st.integers(1000, 1003)
_QUERY_TIME = st.integers(-2, 30).map(lambda k: k * 0.5)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), _STEP, _EMIT_ROOT, st.integers(0, 2)),
        st.tuples(st.just("emits"), st.lists(_STEP, min_size=1, max_size=5)),
        st.tuples(st.just("receipt"), _STEP, _RECEIPT_ROOT, st.integers(0, 2)),
        st.tuples(
            st.just("receipts"),
            st.lists(st.tuples(_STEP, _RECEIPT_ROOT, st.integers(0, 1)), min_size=1, max_size=5),
            st.integers(0, 1),
        ),
        st.tuples(st.just("query"), _QUERY_TIME, st.sampled_from([0.0, 0.5, 3.0, 1e9])),
    ),
    max_size=40,
)


def _assert_list_semantics(window, reference):
    """A lazy window is indistinguishable from the list a naive scan returns."""
    n = len(reference)
    assert len(window) == n
    assert bool(window) == bool(reference)
    assert (window == []) == (reference == [])
    assert window == reference and list(window) == reference
    assert [row for row in window] == reference
    for k in (1, 2, 3, 97):
        sample = window[::k] + window[-1:]
        assert type(sample) is list and sample == reference[::k] + reference[-1:]
    assert window[::-2] == reference[::-2]
    assert window[1:-1] == reference[1:-1]
    assert window[n + 3:] == [] and window[2:1] == []
    for index in range(-n, n):
        assert window[index] == reference[index]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            window[index]


def _assert_same_answers(log, rows, time, width):
    for got, expected in (
        (log.receipts_after(time), naive_receipts_after(rows, time)),
        (log.receipts_between(time, time + width), naive_receipts_between(rows, time, time + width)),
        (log.emits_between(time, time + width), naive_emits_between(rows, time, time + width)),
        (log.receipts_between(time + width, time), []),  # inverted (or empty)
        (log.sink_receipts, rows.sink_receipts),
        (log.source_emits, rows.source_emits),
    ):
        _assert_list_semantics(got, expected)
    assert log.first_receipt_after(time) == naive_first_receipt_after(rows, time)
    assert log.last_old_receipt(time) == naive_last_old_receipt(rows, time)
    assert log.last_replay_receipt(time) == naive_last_replay_receipt(rows, time)
    assert log.distinct_roots_received() == naive_distinct_roots_received(rows)
    replays = [emit.time for emit in rows.source_emits if emit.replay_count > 0]
    assert log.summary() == {
        "source_emits": len(rows.source_emits),
        "replay_emits": len(replays),
        "sink_receipts": len(rows.sink_receipts),
        "distinct_roots_received": naive_distinct_roots_received(rows),
        "drops": 0, "kills": 0, "events_lost_in_kills": 0,
    }
    assert replay_emits_since(log, time) == sum(1 for t in replays if t >= time)
    # Bit-equal, not approximately equal: the mean is a sequential sum on both.
    assert mean_latency(log.receipts_after(time)) == mean_latency(naive_receipts_after(rows, time))
    assert mean_latency(log.sink_receipts, start=2, empty=-1.0) \
        == mean_latency(rows.sink_receipts, start=2, empty=-1.0)
    assert log.emit_times_array.tolist() == [emit.time for emit in rows.source_emits]
    assert log.receipt_times_array.tolist() == [receipt.time for receipt in rows.sink_receipts]


def check_ops(ops):
    """Fill the log and the reference rows alike; compare at every query and at the end.

    Queries run *between* appends, so the log's cached per-root arrays have
    to resync from their cursors, through per-event and bulk appends alike.
    """
    stores = (EventLog(_Clock()), _ReferenceRows())  # type: ignore[arg-type]
    emit_now = receipt_now = 0.0
    fresh_root = 100  # bulk emit cohorts carry first emissions only
    event_id = 0
    for op in ops:
        if op[0] == "emit":
            _, step, root, replay = op
            emit_now += step
            for store in stores:
                store.record_source_emit(root, "src", replay_count=replay, at_time=emit_now)
        elif op[0] == "emits":
            times = []
            for step in op[1]:
                emit_now += step
                times.append(emit_now)
            roots = list(range(fresh_root, fresh_root + len(times)))
            fresh_root += len(times)
            for store in stores:
                store.extend_emits(times, roots, "bulk_src")
        elif op[0] == "receipt":
            _, step, root, replay = op
            receipt_now += step
            event_id += 1
            for store in stores:
                store.record_sink_receipt(root, event_id, "sink_a", root * 0.25, replay,
                                          at_time=receipt_now)
        elif op[0] == "receipts":
            _, records, replay = op
            times, roots, which = [], [], []
            for step, root, sink in records:
                receipt_now += step
                times.append(receipt_now)
                roots.append(root)
                which.append(sink)
            events = list(range(event_id + 1, event_id + 1 + len(times)))
            event_id += len(times)
            emitted = [root * 0.25 for root in roots]
            for store in stores:
                store.extend_receipts(times, roots, events, ["sink_a", "sink_b"], emitted,
                                      replay_count=replay, sink_indices=which)
        else:
            _, time, width = op
            _assert_same_answers(*stores, time, width)
    for time in (-1.0, 0.0, receipt_now / 2, receipt_now, receipt_now + 5.0):
        _assert_same_answers(*stores, time, 1.0)
    assert log_digest(stores[0]) == naive_digest(stores[1])


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_generated_logs_answer_alike_on_both_backends(ops):
    """Every query agrees between the log and the naive scans over the
    reference rows, at every point of the log's life."""
    check_ops(ops)


# ------------------------------------------------------------------- corpus
#: Root 3 is emitted at 0.5 and replayed at 2.0; receipts tie at 1.0 (queried
#: exactly) and at 2.0, where two replayed receipts share the latest time.
_CORPUS = [
    [("emit", 0.5, 3, 0), ("emit", 0.5, 7, 0), ("query", 1.0, 0.5), ("emit", 1.0, 3, 1),
     ("receipt", 1.0, 3, 0), ("receipt", 0.0, 7, 0), ("receipts", [(0.0, 9, 1), (1.0, 3, 0)], 0),
     ("query", 1.0, 1.0), ("receipt", 0.0, 7, 1), ("receipt", 0.0, 3, 2), ("query", 2.0, 3.0)],
    [("emits", [0.5, 0.0, 1.0]), ("receipts", [(1.0, 100, 0), (0.0, 101, 1), (0.5, 102, 0)], 1),
     ("query", 1.0, 0.5), ("emit", 0.0, 100, 1), ("receipt", 0.0, 100, 1), ("query", 1.5, 0.0)],
]


def test_the_corpus_passes_and_seeded_mutations_fail_it():
    def corpus():
        for ops in _CORPUS:
            check_ops(ops)

    corpus()

    # A window opens after the records at its start time instead of at them.
    late = mutant(EventLog, "_receipt_index", 'side="left"', 'side="right"')
    with patched(EventLog, "_receipt_index", late), pytest.raises(AssertionError):
        corpus()

    # A replayed root's first emission is forgotten for its latest one.
    forgetful = mutant(EventLog, "_first_emits", "times[first]",
                       "times[::-1][_np.unique(roots[::-1], return_index=True)[1]]")
    with patched(EventLog, "_first_emits", forgetful), pytest.raises(AssertionError):
        corpus()

    # Among tied latest hits the last-recorded wins instead of the first.
    last_of_ties = mutant(EventLog, "_last_hit_index",
                          'int(hits[hits.searchsorted(tied_from - start, side="left")])',
                          "int(hits[-1])")
    with patched(EventLog, "_last_hit_index", last_of_ties), pytest.raises(AssertionError):
        corpus()


# ------------------------------------------------------------- digest edges
#: Floats whose ``repr`` takes every shape: both signed zeros, a subnormal, the
#: switches into and out of exponent notation and a 17-digit sum.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-05, 0.0001, 0.1 + 0.2, 1e16, 1e22]


def _edge_log():
    """Emits at every edge float, one a backlogged replay; receipts at signed
    zeros whose ``emitted`` times are partly no emit time at all."""
    log = EventLog(Simulator())
    log.extend_emits(_EDGE_FLOATS, list(range(len(_EDGE_FLOATS))), "spout")
    log.record_source_emit(3, "spout_b", replay_count=2, from_backlog=True, at_time=1e22)
    log.extend_receipts(
        [-0.0, 0.0, 5e-324, 0.5, 1e22], [0, 1, 2, 3, 3], [11, 12, 13, 14, 15],
        ["sink_a", "sink_b"], [0.0, -0.0, 0.7, 1e16, 2.5e-07],
        replay_count=1, sink_indices=[0, 1, 0, 1, 1],
    )
    return log


def _sized_log(emits, receipts):
    """``emits`` emissions and ``receipts`` receipts on a 0.1 s grid (many
    17-digit reprs); every 7th receipt's ``emitted`` is off the emit grid."""
    log = EventLog(Simulator())
    grid = np.arange(max(emits, receipts)) * 0.1
    log.extend_emits(grid[:emits], np.arange(emits), "spout", replay_count=1)
    index = np.arange(receipts)
    emitted = grid[index // 3] + (index % 7 == 0) * 1e-9
    log.extend_receipts(grid[:receipts] + 0.05, index // 3, index, ["sink_a", "sink_b"],
                        emitted, sink_indices=index % 2)
    return log


def _shard(index, emits, receipts, names):
    """A hand-built shard result: ``emits`` / ``receipts`` rows over ``names``."""
    times = np.arange(max(emits, receipts)) * 0.25 + index * 0.1
    return ShardResult(
        index=index,
        emit_columns={
            "time": times[:emits], "root": np.arange(emits, dtype=np.int64),
            "source": np.full(emits, names.index("spout"), dtype=np.int32),
            "replay": np.zeros(emits, dtype=np.int64), "backlog": np.zeros(emits, dtype=bool),
            "names": list(names),
        },
        receipt_columns={
            "time": times[:receipts] + 1.0, "root": np.arange(receipts, dtype=np.int64),
            "event": np.arange(receipts, dtype=np.int64) + 100,
            "sink": np.full(receipts, names.index("sink"), dtype=np.int32),
            "emitted": times[:receipts], "replay": np.zeros(receipts, dtype=np.int64),
            "names": list(names),
        },
    )


class TestDigestFormatting:
    """``log_digest`` formats whole blocks of columns; every line must be the
    one the per-record reference formats."""

    def test_edge_floats_replays_and_backlog(self):
        log = _edge_log()
        assert log_digest(log) == naive_digest(log)

    def test_edge_log_digest_is_pinned(self):
        # Recorded from the per-record formatter the block formatting replaced.
        assert log_digest(_edge_log()) == (
            "58672e01e76600d8f605b04767ed5b629c1a70e2f0f23b7c38fa50b9c71555da"
        )

    @pytest.mark.parametrize("emits, receipts", [
        (0, 0), (5, 0), (0, 5),
        (DIGEST_BLOCK_ROWS - 1, DIGEST_BLOCK_ROWS - 1),
        (DIGEST_BLOCK_ROWS, DIGEST_BLOCK_ROWS),
        (DIGEST_BLOCK_ROWS + 1, DIGEST_BLOCK_ROWS + 1),
        (DIGEST_BLOCK_ROWS + 1, DIGEST_BLOCK_ROWS - 1),
    ])
    def test_row_counts_around_the_block(self, emits, receipts):
        log = _sized_log(emits, receipts)
        assert log_digest(log) == naive_digest(log)

    def test_merged_shards_with_duplicate_name_tables(self):
        log = merge_shard_results([
            _shard(0, 6, 5, ["spout", "sink"]), _shard(1, 4, 7, ["sink", "spout"]),
        ])
        assert log_digest(log) == naive_digest(log)

    @pytest.mark.parametrize("log_fixture", LOG_FIXTURES)
    def test_recorded_logs(self, log_fixture, request):
        log = request.getfixturevalue(log_fixture)
        assert log_digest(log) == naive_digest(log)
