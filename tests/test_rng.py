"""Unit tests for the named random-stream source and the keyed channel draws."""

from __future__ import annotations

import inspect
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RandomSource, rng
from repro.sim.rng import KeyedStream, keyed_value, keyed_value_blocks


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.uniform("x", 0, 1) for _ in range(5)] == [b.uniform("x", 0, 1) for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.uniform("x", 0, 1) for _ in range(5)] != [b.uniform("x", 0, 1) for _ in range(5)]

    def test_streams_are_independent(self):
        """Drawing from one stream must not perturb another."""
        a = RandomSource(42)
        b = RandomSource(42)
        expected = [b.uniform("target", 0, 1) for _ in range(5)]
        for _ in range(100):
            a.uniform("other", 0, 1)
        observed = [a.uniform("target", 0, 1) for _ in range(5)]
        assert observed == expected

    def test_stream_is_cached(self):
        rng = RandomSource(3)
        assert rng.stream("s") is rng.stream("s")

    def test_gauss_with_zero_sigma_returns_mu(self):
        assert RandomSource(1).gauss("g", 5.0, 0.0) == 5.0

    def test_uniform_draws_stay_in_their_bounds(self):
        source = RandomSource(9)
        draws = [source.uniform("u", 2.0, 3.0) for _ in range(1000)]
        assert all(2.0 <= d < 3.0 for d in draws)
        assert len(set(draws)) == len(draws)

    def test_gauss_draws_from_the_named_stream(self):
        source = RandomSource(7)
        expected = RandomSource(7).stream("g")
        draws = [source.gauss("g", 5.0, 2.0) for _ in range(5)]
        assert draws == [expected.gauss(5.0, 2.0) for _ in range(5)]
        assert len(set(draws)) == 5
        # A non-positive sigma is a constant and draws nothing.
        assert source.gauss("g", 5.0, -1.0) == 5.0
        assert source.gauss("g", 5.0, 2.0) == expected.gauss(5.0, 2.0)


class TestKeyedStream:
    def test_uniform_scales_the_keyed_draw_at_the_counter(self):
        stream = KeyedStream(11, counter=40)
        assert stream.uniform(2.0, 6.0) == 2.0 + 4.0 * keyed_value(11, 40)
        assert stream.counter == 41
        stream.counter = 5
        assert stream.uniform(-1.0, 1.0) == -1.0 + 2.0 * keyed_value(11, 5)


# ---------------------------------------------------------------------------
# The level sweep draws the jitter of all channels of a block in one mix.  The
# multi-stream block must be the per-stream blocks laid end to end, and those
# the scalar draws, bit for bit (floats are compared with ``==`` on lists: no
# tolerance anywhere).

streams = st.lists(
    st.tuples(
        st.one_of(st.integers(min_value=0, max_value=(1 << 64) - 1),
                  st.sampled_from((0, 1, (1 << 64) - 1, 0x9E3779B97F4A7C15))),
        st.one_of(st.integers(min_value=0, max_value=10_000),
                  st.sampled_from((0, (1 << 32) - 1, (1 << 63) - 70))),
        st.sampled_from((0, 1, 2, 7, 64)),
    ),
    min_size=1,
    max_size=8,
)


def check_streams(cases, kernel=keyed_value_blocks):
    seeds, starts, counts = zip(*cases)
    draws = kernel(seeds, starts, counts).tolist()
    per_stream = [keyed_value_blocks(*zip(case)).tolist() for case in cases]  # one at a time
    assert draws == [value for block in per_stream for value in block]
    assert draws == [
        keyed_value(seed, start + i) for seed, start, count in cases for i in range(count)
    ]
    assert all(0.0 <= value < 1.0 for value in draws)


class TestKeyedValueBlocks:
    @given(cases=streams)
    @settings(max_examples=200, deadline=None)
    def test_streams_laid_end_to_end_match_the_scalar_draws(self, cases):
        check_streams(cases)

    def test_a_sequence_off_by_one_at_a_stream_start_fails(self):
        cases = [(2018, 0, 5), (7, 40, 3), (7, 43, 4)]
        check_streams(cases)
        source = inspect.getsource(keyed_value_blocks)
        site = "(start + 1 - offset)"
        assert site in source, f"mutation site {site!r} is gone from keyed_value_blocks"
        namespace = dict(vars(rng))
        exec(compile(source.replace(site, "(start + 1 - offset + (offset > 0))"),
                     "<mutant keyed_value_blocks>", "exec"), namespace)
        with pytest.raises(AssertionError):
            check_streams(cases, namespace["keyed_value_blocks"])


# ---------------------------------------------------------------------------
# A KeyedStream draws ahead in blocks, and the level sweep moves every
# channel's ``counter`` past the draws it made itself after each cascade.  The
# block is a cache of ``keyed_value(seed, position)``: whatever draws and
# counter writes interleave, draw ``n`` of a stream is the scalar value at
# position ``n``, and ``counter`` reads the position of the next draw.

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("draw"), st.integers(min_value=1, max_value=150)),
        # writes: a short hop (mostly inside the block), a jump, an absolute position
        st.tuples(st.just("skip"), st.integers(min_value=0, max_value=70)),
        st.tuples(st.just("skip"), st.integers(min_value=100, max_value=5000)),
        st.tuples(st.just("seek"), st.integers(min_value=0, max_value=400)),
    ),
    min_size=1,
    max_size=30,
)


def check_interleaving(seed, ops, stream_cls=KeyedStream):
    stream = stream_cls(seed)
    position = 0
    for op, amount in ops:
        if op == "draw":
            drawn = [stream.random() for _ in range(amount)]
            assert drawn == [keyed_value(seed, position + i) for i in range(amount)], (op, position)
            position += amount
        elif op == "skip":  # the sweep's write-back: ``counter += n``
            stream.counter += amount
            position += amount
        else:
            stream.counter = position = amount
        assert stream.counter == position


#: Draws off the end of a block, writes that land inside it, on its last entry
#: and one past it, a write back to a position already drawn, and the scalar
#: run of a repositioned stream ending mid-draw.
_INTERLEAVINGS = (
    [("draw", 200)],
    [("draw", 9), ("skip", 3), ("draw", 80), ("skip", 60), ("draw", 5)],
    [("draw", 8), ("draw", 1), ("skip", 63), ("draw", 2), ("skip", 62), ("draw", 3)],
    [("draw", 30), ("seek", 12), ("draw", 30), ("seek", 0), ("draw", 100)],
    [("skip", 1000), ("draw", 3), ("skip", 4000), ("draw", 3), ("skip", 2), ("draw", 90)],
)


class TestKeyedStreamBlocks:
    @given(seed=st.integers(min_value=0, max_value=(1 << 64) - 1), ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_draws_and_counter_writes_interleaved_match_the_scalar_draws(self, seed, ops):
        check_interleaving(seed, ops)

    def test_the_corpus_passes_and_a_stale_block_fails_it(self):
        for ops in _INTERLEAVINGS:
            check_interleaving(2018, ops)
        # A write that keeps the block but not its place in it: the next draws
        # repeat values already handed out.
        setter = KeyedStream.counter.fset
        source = textwrap.dedent(inspect.getsource(setter))
        site = "del self._block[keep:]"
        assert site in source, f"mutation site {site!r} is gone from KeyedStream.counter"
        namespace = dict(vars(rng))
        exec(compile(source.replace("@counter.setter", "").replace(site, "pass"),
                     "<mutant counter>", "exec"), namespace)
        mutant = type("StaleStream", (KeyedStream,), {
            "__slots__": (), "counter": property(KeyedStream.counter.fget, namespace["counter"]),
        })
        with pytest.raises(AssertionError):
            for ops in _INTERLEAVINGS:
                check_interleaving(2018, ops, mutant)

    def test_a_write_inside_the_block_keeps_it_and_one_outside_starts_with_scalars(self, monkeypatch):
        calls = []
        mix = rng._mix  # one call a block
        monkeypatch.setattr(rng, "_mix", lambda z: calls.append(len(z)) or mix(z))
        stream = KeyedStream(7)
        for _ in range(rng._SCALAR_DRAWS + 1):  # the scalar run, then the first block
            stream.random()
        assert len(calls) == 1
        stream.counter += rng._BLOCK_DRAWS // 2  # the sweep's write-back, inside the block
        stream.random()
        assert len(calls) == 1
        stream.counter += 10 * rng._BLOCK_DRAWS  # ... and far outside it
        for _ in range(rng._SCALAR_DRAWS):
            stream.random()
        assert len(calls) == 1, "a repositioned stream paid a block for a handful of draws"
        stream.random()
        assert len(calls) == 2
