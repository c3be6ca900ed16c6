"""The batch cascade's array kernels against the per-event loops they replace.

``repro.engine.scan`` promises *bit-identical* results to the loops the
vectorized cascade used to run per event.  Those loops live on here, verbatim,
as the oracles: the Lindley service scan, the channel FIFO bump, the busy-time
adds and the emit-timer recurrence.  Every comparison is on the raw bytes of
the float arrays -- no tolerance anywhere.

The generated inputs aim at the places a re-association or an off-by-one in
the wait test would show: arrivals that tie with the previous completion
exactly or sit one ulp either side of it, simultaneous arrivals, a server
seeded busy until before/after the first arrival, single-element inputs and
saturated queues (which must take the scalar fallback and still agree).  The
level sweep lays many such recurrences end to end: the segmented cases check
every segment against the reference run on it alone -- its own seed, empty and
one-element segments, a saturated segment beside an idle one (only that one
may fall back).  A lone segment below a size cutoff is the scalar loop's and
anything else the vector rounds': blocks either side of it check that rule.
The mutation tests seed faults into the kernels and the rule (an off-by-one
cutoff, a seed dropped in the scalar branch) and check that the same
assertions catch each of them.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import scan
from repro.engine.scan import (
    fixed_rate_ticks,
    maxplus_scan,
    maxplus_scan_reference,
    sequential_sums,
)

SERVICES = (0.0, 0.001, 0.1)
INF = float("inf")


# ------------------------------------------------------------------- oracles
def lindley_loop(arr, service, prev_init=None):
    """The service-queue scan as ``_cascade_vectorized`` ran it per event."""
    n = len(arr)
    ncomp = np.empty(n)
    prev = float("-inf") if prev_init is None else prev_init
    for i in range(n):
        value = arr[i]
        prev = (value if value > prev else prev) + service
        ncomp[i] = prev
    return ncomp


def fifo_bump_loop(raw, last):
    """The per-channel FIFO bump as ``ship()`` ran it per event."""
    deliveries = raw.copy()
    prev = last
    for i in range(len(deliveries)):
        earliest = prev + 1e-9
        if earliest > deliveries[i]:
            deliveries[i] = earliest
        prev = deliveries[i]
    return deliveries


def busy_loop(busy, service, k):
    for _ in range(k):
        busy += service
    return busy


def tick_loop(now0, rate, limit, hor, headroom):
    """Phase A's emission schedule as the scalar emit-timer recurrence."""
    tick_times = []
    tick = now0
    while True:
        tick_times.append(tick)
        after = tick + 1.0 / rate
        if after > limit or after >= hor:
            return tick_times, after, False
        if headroom is not None and len(tick_times) >= headroom:
            return tick_times, after, True
        tick = after


# ------------------------------------------------- one recurrence at a time
def one_segment(kernel=maxplus_scan):
    """``kernel`` on a single recurrence: ``(values, step, seed) -> (y, fell back)``."""

    def scan_one(values, step, seed=None):
        out, fallbacks = kernel(values, step, [len(values)], None if seed is None else [seed])
        return out, bool(fallbacks)

    return scan_one


def service_completions(arrivals, service, busy_until=None, scan_one=one_segment()):
    """``C[i] = max(A[i], C[i-1]) + s`` as the sweep serves a queue: the scan over ``A + s``."""
    return scan_one(arrivals + service, service, busy_until)


# ---------------------------------------------------------------- assertions
def same_bits(got, expected):
    return np.asarray(got, dtype=np.float64).tobytes() == np.asarray(
        expected, dtype=np.float64
    ).tobytes()


def check_service_case(arrivals, service, busy_until, kernel=service_completions):
    expected = lindley_loop(arrivals, service, busy_until)
    before = arrivals.copy()
    got, fell_back = kernel(arrivals, service, busy_until)
    assert same_bits(got, expected)
    assert same_bits(arrivals, before), "the kernel modified its input"
    if same_bits(expected, arrivals + service):
        # Nothing waited (ties included): that is decided in one vector
        # round, never by walking the queue.
        assert not fell_back
    return fell_back


def check_fifo_case(raw, last, kernel=one_segment()):
    got, _ = kernel(raw, 1e-9, last)
    assert same_bits(got, fifo_bump_loop(raw, last))
    assert same_bits(maxplus_scan_reference(raw, 1e-9, last), got)


def check_sums_case(start, step, count, kernel=sequential_sums):
    sums = kernel(start, step, count)
    assert len(sums) == count + 1
    value = start
    for k in range(count + 1):
        assert sums[k] == value
        value = value + step
    assert float(sums[-1]) == busy_loop(start, step, count)


# ---------------------------------------------------------------- generators
#: How an arrival relates to the completion time of the one before it.
RELATIONS = ("tie", "ulp-after", "ulp-before", "idle-gap", "simultaneous", "random")


def build_arrivals(relations, gaps, service, busy_until):
    """Sorted arrivals placed against the running completion time, exactly."""
    arrivals = []
    prev_arrival = 1.0
    completion = prev_arrival if busy_until is None else busy_until
    for relation, gap in zip(relations, gaps):
        if relation == "tie":
            arrival = completion
        elif relation == "ulp-after":
            arrival = math.nextafter(completion, INF)
        elif relation == "ulp-before":
            arrival = math.nextafter(completion, -INF)
        elif relation == "idle-gap":
            arrival = completion + gap
        elif relation == "simultaneous":
            arrival = prev_arrival
        else:
            arrival = prev_arrival + gap
        arrival = max(arrival, prev_arrival)  # arrivals stay sorted
        arrivals.append(arrival)
        completion = (arrival if arrival > completion else completion) + service
        prev_arrival = arrival
    return np.array(arrivals)


queue_shapes = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(RELATIONS), st.floats(min_value=0.0, max_value=0.5)),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=1, max_value=8),  # repeats: reach past the scalar cutoff
    st.sampled_from(SERVICES),
    st.sampled_from((None, "before", "after")),
)


# --------------------------------------------------------------- properties
@given(shape=queue_shapes)
@settings(max_examples=300, deadline=None)
def test_service_completions_match_the_lindley_loop(shape):
    motif, repeats, service, seeded = shape
    relations = [relation for relation, _ in motif] * repeats
    gaps = [gap for _, gap in motif] * repeats
    busy_until = {None: None, "before": 0.25, "after": 1.75}[seeded]
    arrivals = build_arrivals(relations, gaps, service, busy_until)
    check_service_case(arrivals, service, busy_until)


@given(
    parents=st.lists(st.floats(min_value=0.0, max_value=2e-9), min_size=1, max_size=60),
    repeats=st.integers(min_value=1, max_value=6),
    last=st.sampled_from((0.0, 5.0, 5.0 + 3e-9, 6.0)),
)
@settings(max_examples=200, deadline=None)
def test_fifo_bump_matches_the_per_event_loop(parents, repeats, last):
    # Jittered deliveries are not sorted: consecutive raws within a few
    # nanoseconds of each other, in either order, around the 1e-9 spacing.
    raw = 5.0 + np.cumsum(np.array(parents * repeats) - 0.9e-9)
    check_fifo_case(raw, last)


@given(
    start=st.floats(min_value=0.0, max_value=1e4),
    step=st.sampled_from(SERVICES + (1.0 / 800.0, 1.0 / 3.0)),
    count=st.integers(min_value=0, max_value=400),
)
@settings(max_examples=100, deadline=None)
def test_sequential_sums_are_repeated_addition(start, step, count):
    check_sums_case(start, step, count)


@given(
    now0=st.floats(min_value=0.0, max_value=500.0),
    rate=st.sampled_from((8.0, 800.0, 3.0, 0.7)),
    span=st.floats(min_value=0.0, max_value=4.0),
    bound=st.sampled_from(("limit", "limit-on-tick", "horizon", "horizon-on-tick")),
    headroom=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
)
@settings(max_examples=300, deadline=None)
def test_fixed_rate_ticks_match_the_emit_timer_loop(now0, rate, span, bound, headroom):
    edge = now0 + span
    if bound.endswith("on-tick"):
        # Put the bound exactly on a tick: `<= limit` keeps it, `< horizon` drops it.
        edge = float(sequential_sums(now0, 1.0 / rate, int(span * rate) + 1)[-1])
    limit, hor = (edge, INF) if bound.startswith("limit") else (edge + 1.0, edge)
    if hor <= now0:
        hor = math.nextafter(now0, INF)  # the cascade never starts on a due timer
    ticks, next_tick, capped = fixed_rate_ticks(now0, 1.0 / rate, limit, hor, headroom)
    want_ticks, want_next, want_capped = tick_loop(now0, rate, limit, hor, headroom)
    assert same_bits(ticks, want_ticks)
    assert next_tick == want_next
    assert capped == want_capped


# ------------------------------------------------------------------ segments
def check_segments(segments, step, seeds, kernel=maxplus_scan):
    """Every segment must come out as the reference computes it alone.

    Returns the fallback count; a fallback is only allowed where the segment
    itself has an entry that waits.
    """
    counts = [len(segment) for segment in segments]
    values = np.concatenate([np.asarray(segment, dtype=np.float64) for segment in segments])
    steps = step
    if not np.isscalar(step):  # one step per segment: the kernel takes one per entry
        steps = np.repeat(np.asarray(step, dtype=np.float64), counts)
    before = values.copy()
    got, fallbacks = kernel(values, steps, counts, seeds)
    assert same_bits(values, before), "the kernel modified its input"
    offset = 0
    waiting = 0
    for j, segment in enumerate(segments):
        alone = maxplus_scan_reference(
            values[offset:offset + len(segment)],
            step if np.isscalar(step) else step[j],
            None if seeds is None else seeds[j],
        )
        assert same_bits(got[offset:offset + len(segment)], alone), f"segment {j}"
        waiting += not same_bits(alone, values[offset:offset + len(segment)])
        offset += len(segment)
    assert fallbacks <= waiting
    return fallbacks


segment_shapes = st.lists(
    st.tuples(
        st.sampled_from(("empty", "one", "idle", "busy", "saturated")),
        st.integers(min_value=2, max_value=150),
        st.sampled_from((None, "before", "tie", "after")),
    ),
    min_size=1,
    max_size=7,
)


@given(shapes=segment_shapes, service=st.sampled_from(SERVICES[1:]), mixed=st.booleans())
@settings(max_examples=200, deadline=None)
def test_segmented_scan_matches_the_reference_per_segment(shapes, service, mixed):
    segments, seeds, steps = [], [], []
    for index, (shape, size, seeded) in enumerate(shapes):
        step = service * (1 + index % 3) if mixed else service
        size = {"empty": 0, "one": 1}.get(shape, size)
        gap = {"idle": 4.0 * step, "busy": 1.01 * step, "saturated": 0.1 * step}.get(shape, 0.0)
        arrivals = 10.0 * index + gap * np.arange(size)
        if shape == "busy":
            arrivals[size // 3::5] -= 0.5 * step  # short busy periods in an idle queue
        start = arrivals[0] if size else 0.0
        seeds.append(
            {None: -INF, "before": start - 1.0, "tie": start, "after": start + 2.5 * step}[seeded]
        )
        segments.append(np.sort(arrivals) + step)
        steps.append(step)
    check_segments(segments, steps if mixed else service, seeds)
    if all(seed == -INF for seed in seeds):
        check_segments(segments, steps if mixed else service, None)


def test_a_saturated_segment_beside_idle_ones_falls_back_alone():
    idle = 1.0 + np.arange(300) * 0.5 + 0.1
    saturated = 1.0 + np.arange(300) * 0.01 + 0.1
    assert check_segments([idle, saturated, idle], 0.1, [-INF, 0.5, 0.9]) == 1
    assert check_segments([saturated, idle, saturated], 0.1, None) == 2
    assert check_segments([idle, [], idle[:1], []], 0.1, [-INF, 7.0, 5.0, 9.0]) == 0
    # FIFO bumps: a channel whose last delivery is ahead of its first new one.
    raw = 5.0 + np.cumsum(np.full(200, 0.4e-9))
    assert check_segments([raw, raw + 1.0, raw], 1e-9, [0.0, 6.5, 5.0 + 3e-9]) <= 3


def test_seeded_mutations_of_the_segment_handling_fail():
    def corpus(kernel):
        busy = 1.0 + np.arange(200) * 0.101 + 0.1
        busy[50::5] -= 0.05
        # The first segment ends waiting (its last three arrive together)
        # and the second, an idle queue, starts at that very time; seeds that
        # matter sit beside seeds that do not.
        ends_waiting = busy.copy()
        ends_waiting[-3:] = ends_waiting[-3]
        idle = ends_waiting[-1] + np.arange(200) * 0.5
        check_segments([ends_waiting, idle], 0.1, None, kernel)
        check_segments([busy, busy + 0.05, busy], 0.1, [0.0, busy[0] + 0.3, 0.0], kernel)
        check_segments([busy, [], busy[:1], busy], 0.1, [busy[0] + 0.3, 9.0, 0.0, 0.0], kernel)

    corpus(maxplus_scan)
    # The frontier crosses a segment start: a wait leaks into the next queue.
    leaky = mutated(maxplus_scan, ("successors[~is_head[successors]]", "successors[successors < n]"))
    with pytest.raises(AssertionError):
        corpus(leaky)
    # A segment seeded with its neighbour's seed.
    shifted = mutated(maxplus_scan, ("if seeds is None else seeds\n",
                                     "if seeds is None else list(seeds[1:]) + list(seeds[:1])\n"))
    with pytest.raises(AssertionError):
        corpus(shifted)


# ------------------------------------------------------------ fixed examples
def test_single_arrival():
    for service in SERVICES:
        for busy_until in (None, 0.5, 2.0):
            check_service_case(np.array([1.0]), service, busy_until)
    check_fifo_case(np.array([1.0]), 0.0)
    check_fifo_case(np.array([1.0]), 1.0)


def test_a_saturated_queue_takes_the_scalar_fallback_and_agrees():
    arrivals = 1.0 + np.arange(500) * 0.01  # service 0.1: every entry waits
    assert check_service_case(arrivals, 0.1, None) is True
    assert check_service_case(arrivals, 0.1, 3.0) is True
    # Sparse waits converge in a few rounds instead.
    sparse = 1.0 + np.arange(500) * 0.25
    sparse[100::7] -= 0.2
    assert check_service_case(sparse, 0.1, None) is False
    assert not same_bits(lindley_loop(sparse, 0.1), sparse + 0.1)


def test_a_long_busy_period_in_an_idle_queue_agrees():
    # One 40-long run of simultaneous arrivals inside 400 idle ones: more
    # rounds than the frontier is allowed, so the fallback finishes it.
    arrivals = np.sort(np.concatenate([1.0 + np.arange(400) * 0.5, np.full(40, 50.0)]))
    check_service_case(arrivals, 0.1, None)


# ----------------------------------------------------------------- mutations
def mutated(function, *replacements):
    """``function`` recompiled from its source with seeded text replacements."""
    source = inspect.getsource(function)
    for old, new in replacements:
        assert old in source, f"mutation site {old!r} is gone from {function.__name__}"
        source = source.replace(old, new)
    namespace = dict(vars(scan))
    exec(compile(source, f"<mutant {function.__name__}>", "exec"), namespace)
    return namespace[function.__name__]


def edge_corpus(kernel):
    """The fixed cases the properties shrink towards, against ``kernel``."""
    for service in SERVICES[1:]:
        for busy_until in (None, 0.25, 1.75):
            ties = build_arrivals(["tie"] * 200, [0.0] * 200, service, busy_until)
            check_service_case(ties, service, busy_until, kernel)
            for relations in (RELATIONS, RELATIONS[::-1]):  # the server / the arrival leads
                mixed = build_arrivals(list(relations) * 40, [0.3] * 240, service, busy_until)
                check_service_case(mixed, service, busy_until, kernel)


def test_the_edge_corpus_passes_and_seeded_mutations_fail_it():
    edge_corpus(service_completions)

    # `>` -> `>=` on the wait test: an arrival that ties with the previous
    # completion would count as waiting and walk the whole queue.
    lax_scan = mutated(
        maxplus_scan, ("prevs > values", "prevs >= values"), ("pushed > y[", "pushed >= y[")
    )
    with pytest.raises(AssertionError):
        edge_corpus(lambda a, s, b=None: service_completions(a, s, b, one_segment(lax_scan)))

    # A dropped seed: the server forgets the work it was seeded with.
    amnesiac = mutated(maxplus_scan, ("if seeds is None else seeds\n", "\n"))
    with pytest.raises(AssertionError):
        edge_corpus(lambda a, s, b=None: service_completions(a, s, b, one_segment(amnesiac)))

    # `k * service` for the busy sum: one rounding instead of k.
    check_sums_case(0.0, 0.1, 10)
    with pytest.raises(AssertionError):
        check_sums_case(
            0.0, 0.1, 10, kernel=lambda start, step, count: start + step * np.arange(count + 1)
        )


# ------------------------------------------------------------- the size rule
#: A block of one segment and fewer entries than this is run by the scalar
#: loop; a longer one, or one of several segments, by the vector rounds.
CUTOFF = scan._SCALAR_BELOW

block_shapes = st.tuples(
    st.sampled_from((CUTOFF - 2, CUTOFF - 1, CUTOFF, CUTOFF + 1)),
    st.lists(
        st.tuples(
            st.sampled_from(("empty", "idle", "busy", "saturated")),
            st.integers(min_value=1, max_value=100),  # weight of the block it takes
            st.sampled_from((None, "before", "tie", "after")),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(SERVICES[1:]),
    st.booleans(),
)


def boundary_block(total, shapes, service, mixed):
    """``total`` entries split over ``shapes`` (empty ones take none), each
    segment an idle, busy or saturated queue with its own seed and step."""
    weights = [0 if shape == "empty" else weight for shape, weight, _ in shapes]
    if not any(weights):
        weights[0] = 1
    sizes = [total * weight // sum(weights) for weight in weights]
    sizes[max(range(len(sizes)), key=weights.__getitem__)] += total - sum(sizes)
    segments, seeds, steps = [], [], []
    for index, ((shape, _, seeded), size) in enumerate(zip(shapes, sizes)):
        step = service * (1 + index % 3) if mixed else service
        gap = {"idle": 4.0 * step, "busy": 1.01 * step, "saturated": 0.1 * step}.get(shape, step)
        arrivals = 10.0 * index + gap * np.arange(size)
        if shape == "busy":
            arrivals[size // 3::5] -= 0.5 * step
        start = arrivals[0] if size else 0.0
        seeds.append(
            {None: -INF, "before": start - 1.0, "tie": start, "after": start + 2.5 * step}[seeded]
        )
        segments.append(np.sort(arrivals) + step)
        steps.append(step)
    return segments, (steps if mixed else service), seeds


@given(shape=block_shapes)
@settings(max_examples=200, deadline=None)
def test_blocks_either_side_of_the_scalar_cutoff_match_the_reference(shape):
    total, shapes, service, mixed = shape
    segments, steps, seeds = boundary_block(total, shapes, service, mixed)
    assert sum(len(segment) for segment in segments) == total
    check_segments(segments, steps, seeds)
    check_segments(segments, steps, None)


def rule_corpus(kernel):
    """Blocks on the cutoff, against ``kernel``: a saturated queue of
    ``CUTOFF - 1`` entries alone is the scalar loop's (no fallback), one of
    ``CUTOFF`` takes the rounds and falls back, and so does a short one beside
    another segment; seeded segments, an empty one and a saturated one beside
    idle ones sit on both sides of it."""
    saturated = 1.0 + np.arange(CUTOFF) * 0.01 + 0.1
    assert check_segments([saturated[:-1]], 0.1, [0.5], kernel) == 0
    assert check_segments([saturated], 0.1, [0.5], kernel) == 1
    assert check_segments([saturated[:-1], []], 0.1, [0.5, 9.0], kernel) == 1
    for total in (CUTOFF - 1, CUTOFF):
        third = total // 3
        idle = 30.0 + np.arange(third) * 0.5
        busy = 60.0 + np.arange(total - 2 * third) * 0.101
        busy[::4] -= 0.05
        check_segments([np.sort(busy)], 0.1, [61.0], kernel)
        check_segments(
            [saturated[:third], [], idle, np.sort(busy)], 0.1, [2.0, 9.0, 29.0, 61.0], kernel
        )
        check_segments(
            [idle, saturated[:total - 2 * third], idle + 100.0], [0.1, 0.2, 0.3],
            [-INF, 1.0, 140.0], kernel,
        )


def test_seeded_mutations_of_the_size_rule_fail():
    rule_corpus(maxplus_scan)
    # Off by one: a lone segment of exactly the cutoff is the scalar loop's.
    inclusive = mutated(maxplus_scan, ("n < _SCALAR_BELOW", "n <= _SCALAR_BELOW"))
    with pytest.raises(AssertionError):
        rule_corpus(inclusive)
    # A short block of several segments taken for a lone one.
    lonely = mutated(maxplus_scan, ("len(counts) == 1 and n < _SCALAR_BELOW", "n < _SCALAR_BELOW"))
    with pytest.raises(AssertionError):
        rule_corpus(lonely)
    # The scalar branch drops the segment's seed: the queue forgets its work.
    forgetful = mutated(maxplus_scan, ("None if seeds is None else seeds[0]", "None"))
    with pytest.raises(AssertionError):
        rule_corpus(forgetful)
