"""Equivalence tests for the EventLog backends and single-pass timelines.

The fast-path overhaul replaced the EventLog's linear scans with binary
searches over parallel monotone time arrays, and gave the timelines a
single-pass binning path; the columnar overhaul then moved the whole record
store into numpy arrays behind the same query API.  These tests pin both
backends to naive reference implementations (the seed's original list
comprehensions) and to each other on

* a recorded Grid steady-state run,
* a recorded closed-loop elastic run (migrations, replays, kills),
* a sharded-run merge (both the heapq fallback and the lexsort array path),
  and
* synthetic logs exercising empty windows, exact-boundary windows and
  equal-time ties, and
* hypothesis-generated logs (per-event and bulk appends interleaved with
  queries, replayed and never-emitted roots, ties across the cut), where the
  columnar backend must answer every query exactly like the row store and its
  lazy windows must behave like the lists the row store returns,

asserting byte-identical results everywhere — including
:func:`~repro.sim.shard.log_digest` equality between the classic and
columnar backends for every recorded scenario.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import topologies
from repro.dataflow.event import reset_event_ids
from repro.core.strategy import strategy_by_name
from repro.engine.runtime import TopologyRuntime
from repro.experiments.elastic import run_elastic_experiment
from repro.experiments.sharded import run_sharded_experiment
from repro.metrics.log import (
    HAVE_COLUMNAR,
    ColumnarEventLog,
    EventLog,
    mean_latency,
    replay_emits_since,
)
from repro.metrics.timeline import RatePoint, latency_timeline, rate_timeline
from repro.sim import Simulator
from repro.sim.shard import (
    _merge_shard_results_columnar,
    _merge_shard_results_python,
    log_digest,
)

from tests.conftest import build_cluster, fast_config

#: Log backends under test; the columnar one needs numpy.
BACKENDS = ["classic"] + (["columnar"] if HAVE_COLUMNAR else [])

needs_columnar = pytest.mark.skipif(not HAVE_COLUMNAR, reason="numpy unavailable")


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


def naive_last_old_receipt(log, migration_time):
    old = [
        r
        for r in log.sink_receipts
        if r.time >= migration_time and log.is_old_root(r.root_id, migration_time)
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
def _grid_log(columnar: bool):
    """Event log of a 60 s Grid steady-state run (no migrations)."""
    # Root/event ids are process-global; restart them so the classic and
    # columnar runs see identical id streams (digests hash the ids).
    reset_event_ids()
    sim = Simulator()
    cluster = build_cluster(sim, worker_vms=11)
    config = fast_config("dcr")
    config.columnar_log = columnar
    runtime = TopologyRuntime(topologies.grid(), cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()
    sim.run(until=60.0)
    return runtime.log


def _elastic_log(columnar: bool):
    """Event log of a closed-loop elastic run (migration, kills, replays).

    The config is passed explicitly so the classic and columnar runs differ
    in nothing but the log backend.
    """
    config = strategy_by_name("dsm").runtime_config(seed=11)
    config.columnar_log = columnar
    result = run_elastic_experiment(
        dag="traffic", strategy="dsm", profile="surge", duration_s=300.0,
        seed=11, config=config,
    )
    return result.log


@pytest.fixture(scope="module")
def shard_results():
    """Per-shard results of one sharded Grid run, merged by both paths below."""
    return run_sharded_experiment(dag="grid", shards=3, duration_s=10.0,
                                  seed=2018, workers=1).results


@pytest.fixture(scope="module")
def grid_log():
    return _grid_log(columnar=False)


@pytest.fixture(scope="module")
def grid_log_columnar():
    if not HAVE_COLUMNAR:
        pytest.skip("numpy unavailable")
    return _grid_log(columnar=True)


@pytest.fixture(scope="module")
def elastic_log():
    return _elastic_log(columnar=False)


@pytest.fixture(scope="module")
def elastic_log_columnar():
    if not HAVE_COLUMNAR:
        pytest.skip("numpy unavailable")
    return _elastic_log(columnar=True)


@pytest.fixture(scope="module")
def merged_log(shard_results):
    """Sharded-run merge through the per-record heapq fallback."""
    return _merge_shard_results_python(shard_results)


@pytest.fixture(scope="module")
def merged_log_columnar(shard_results):
    """The same merge through the lexsort array path."""
    if not HAVE_COLUMNAR:
        pytest.skip("numpy unavailable")
    return _merge_shard_results_columnar(shard_results)


def interesting_times(log):
    """Query times covering empty, boundary and mid-run windows."""
    end = log.sim.now
    times = [0.0, -5.0, end, end + 10.0, end / 2, end / 3]
    if log.receipt_times:
        first = log.receipt_times[0]
        last = log.receipt_times[-1]
        # Exact record times probe the inclusive/exclusive boundaries.
        times += [first, last, (first + last) / 2.0]
    return times


LOG_FIXTURES = [
    "grid_log", "grid_log_columnar",
    "elastic_log", "elastic_log_columnar",
    "merged_log", "merged_log_columnar",
]


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
        assert log.receipt_times == [r.time for r in log.sink_receipts]
        assert log.emit_times == [e.time for e in log.source_emits]
        assert list(log.receipt_times) == sorted(log.receipt_times)
        assert list(log.emit_times) == sorted(log.emit_times)


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


# ------------------------------------------- classic vs columnar byte identity
@needs_columnar
class TestBackendByteIdentity:
    """The columnar backend must be indistinguishable from the classic one.

    ``log_digest`` hashes every record field with ``repr`` semantics, so
    digest equality is byte-level equivalence of the full record streams.
    """

    def test_grid_digest(self, grid_log, grid_log_columnar):
        assert log_digest(grid_log_columnar) == log_digest(grid_log)

    def test_elastic_digest(self, elastic_log, elastic_log_columnar):
        assert log_digest(elastic_log_columnar) == log_digest(elastic_log)

    def test_sharded_merge_digest(self, merged_log, merged_log_columnar):
        assert log_digest(merged_log_columnar) == log_digest(merged_log)

    def test_grid_records_compare_equal(self, grid_log, grid_log_columnar):
        assert list(grid_log_columnar.source_emits) == list(grid_log.source_emits)
        assert list(grid_log_columnar.sink_receipts) == list(grid_log.sink_receipts)
        assert grid_log_columnar.emit_times == grid_log.emit_times
        assert grid_log_columnar.receipt_times == grid_log.receipt_times

    def test_elastic_counters_match(self, elastic_log, elastic_log_columnar):
        assert elastic_log_columnar.replay_emits == elastic_log.replay_emits
        assert elastic_log_columnar.distinct_roots_received() == \
            elastic_log.distinct_roots_received()


# ----------------------------------------------------------- synthetic ties
class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


def _make_log(backend: str, clock) -> EventLog:
    if backend == "columnar":
        return ColumnarEventLog(clock)  # type: ignore[arg-type]
    return EventLog(clock)  # type: ignore[arg-type]


def _tie_log(backend: str):
    """Three roots emitted before t=10, received in tied clusters after it."""
    clock = _Clock()
    log = _make_log(backend, clock)
    for root in (1, 2, 3):
        clock.now = float(root)
        log.record_source_emit(root_id=root, source="source")
    for now, root, replay in [(10.0, 1, 0), (10.0, 2, 1), (10.0, 3, 1), (12.0, 9, 0), (12.0, 2, 1)]:
        clock.now = now
        log.record_sink_receipt(root_id=root, event_id=root * 100 + int(now), sink="sink",
                                root_emitted_at=float(root), replay_count=replay)
    clock.now = 15.0
    return log


@pytest.mark.parametrize("backend", BACKENDS)
def test_tie_times_and_boundaries_synthetic(backend):
    """Equal-time records and exact-boundary queries match the naive scans."""
    log = _tie_log(backend)
    for t in (0.0, 1.0, 9.999, 10.0, 10.0000001, 12.0, 15.0, 20.0):
        assert log.receipts_after(t) == naive_receipts_after(log, t)
        assert log.first_receipt_after(t) == naive_first_receipt_after(log, t)
        assert log.last_old_receipt(t) == naive_last_old_receipt(log, t)
        assert log.last_replay_receipt(t) == naive_last_replay_receipt(log, t)
        assert log.receipts_between(t, 12.0) == naive_receipts_between(log, t, 12.0)
    assert log.distinct_roots_received() == naive_distinct_roots_received(log)


@needs_columnar
def test_tie_log_digests_identical():
    """Tied/boundary timestamps hash identically across backends."""
    assert log_digest(_tie_log("columnar")) == log_digest(_tie_log("classic"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_log_queries(backend):
    """All queries behave on a freshly created, empty log."""
    log = _make_log(backend, _Clock())
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
    """A lazy window is indistinguishable from the list the row store returns."""
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


def _assert_same_answers(columnar, rows, time, width):
    for got, expected in (
        (columnar.receipts_after(time), rows.receipts_after(time)),
        (columnar.receipts_between(time, time + width), rows.receipts_between(time, time + width)),
        (columnar.emits_between(time, time + width), rows.emits_between(time, time + width)),
        (columnar.receipts_between(time + width, time), []),  # inverted (or empty)
        (columnar.sink_receipts, rows.sink_receipts),
        (columnar.source_emits, rows.source_emits),
    ):
        _assert_list_semantics(got, expected)
    assert columnar.first_receipt_after(time) == rows.first_receipt_after(time)
    assert columnar.last_old_receipt(time) == rows.last_old_receipt(time) \
        == naive_last_old_receipt(rows, time)
    assert columnar.last_replay_receipt(time) == rows.last_replay_receipt(time) \
        == naive_last_replay_receipt(rows, time)
    assert columnar.distinct_roots_received() == rows.distinct_roots_received() \
        == naive_distinct_roots_received(rows)
    for root in (0, 3, 7, 9, 100, 1002, -1):
        assert columnar.root_first_emit_time(root) == rows.root_first_emit_time(root)
        assert columnar.is_old_root(root, time) == rows.is_old_root(root, time)
    assert columnar.summary() == rows.summary()
    assert replay_emits_since(columnar, time) == replay_emits_since(rows, time)
    # Bit-equal, not approximately equal: the mean is a sequential sum on both.
    assert mean_latency(columnar.receipts_after(time)) == mean_latency(rows.receipts_after(time))
    assert mean_latency(columnar.sink_receipts, start=2, empty=-1.0) \
        == mean_latency(rows.sink_receipts, start=2, empty=-1.0)
    assert columnar.emit_times == rows.emit_times
    assert columnar.receipt_times == rows.receipt_times


@needs_columnar
@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_generated_logs_answer_alike_on_both_backends(ops):
    """Every query agrees between the backends, at every point of the log's life.

    Queries run *between* appends, so the columnar backend's cached per-root
    arrays have to resync from their cursors, through per-event and bulk
    appends alike.
    """
    logs = [ColumnarEventLog(_Clock()), EventLog(_Clock())]
    emit_now = receipt_now = 0.0
    fresh_root = 100  # bulk emit cohorts carry first emissions only
    event_id = 0
    for op in ops:
        if op[0] == "emit":
            _, step, root, replay = op
            emit_now += step
            for log in logs:
                log.record_source_emit(root, "src", replay_count=replay, at_time=emit_now)
        elif op[0] == "emits":
            times = []
            for step in op[1]:
                emit_now += step
                times.append(emit_now)
            roots = list(range(fresh_root, fresh_root + len(times)))
            fresh_root += len(times)
            for log in logs:
                log.extend_emits(times, roots, "bulk_src")
        elif op[0] == "receipt":
            _, step, root, replay = op
            receipt_now += step
            event_id += 1
            for log in logs:
                log.record_sink_receipt(root, event_id, "sink_a", root * 0.25, replay,
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
            for log in logs:
                log.extend_receipts(times, roots, events, ["sink_a", "sink_b"], emitted,
                                    replay_count=replay, sink_indices=which)
        else:
            _, time, width = op
            _assert_same_answers(*logs, time, width)
    for time in (-1.0, 0.0, receipt_now / 2, receipt_now, receipt_now + 5.0):
        _assert_same_answers(*logs, time, 1.0)
    assert log_digest(logs[0]) == log_digest(logs[1])
