"""Unit tests for the Redis-like state store and its latency model."""

from __future__ import annotations

import math

import pytest

from repro.reliability.statestore import StateStore
from repro.sim import Simulator


class TestLatencyModel:
    def test_write_latency_scales_with_size(self, sim):
        store = StateStore(sim)
        assert store.write_latency(10_000) > store.write_latency(100)

    @pytest.mark.parametrize("field, value", [
        ("base_latency_s", math.nan),
        ("base_latency_s", -0.001),
        ("per_byte_latency_s", math.inf),
    ])
    def test_a_latency_that_is_no_delay_is_refused(self, sim, field, value):
        # Completions ride the kernel's unchecked fast path.
        with pytest.raises(ValueError, match=field):
            StateStore(sim, **{field: value})

    def test_base_latency_applies_to_empty_write(self, sim):
        store = StateStore(sim, base_latency_s=0.002, per_byte_latency_s=0.0)
        assert store.write_latency(0) == pytest.approx(0.002)

    def test_paper_microbenchmark_2000_events_about_100ms(self, sim):
        """The paper: checkpointing 2000 events to Redis takes about 100 ms."""
        store = StateStore(sim)
        size = store.checkpoint_size_bytes(state_size_bytes=0, pending_events=2000)
        latency_ms = store.write_latency(size) * 1000.0
        assert 80.0 <= latency_ms <= 120.0

    def test_put_schedules_completion_after_latency(self, sim):
        store = StateStore(sim)
        completed_at = []
        latency = store.put("k", {"v": 1}, 1000, on_complete=lambda: completed_at.append(sim.now))
        sim.run()
        assert completed_at == [pytest.approx(latency)]

    def test_get_completion_receives_value(self, sim):
        store = StateStore(sim)
        store.put("k", {"v": 42}, 100)
        received = []
        store.get("k", on_complete=received.append)
        sim.run()
        assert received == [{"v": 42}]

    def test_get_missing_key_returns_default(self, sim):
        store = StateStore(sim)
        received = []
        store.get("missing", on_complete=received.append, default="fallback")
        sim.run()
        assert received == ["fallback"]


class TestStorageSemantics:
    def test_put_overwrites(self, sim):
        store = StateStore(sim)
        store.put("k", "v1", 10)
        store.put("k", "v2", 10)
        assert store.peek("k") == "v2"
        assert store.keys() == ["k"]

    def test_delete(self, sim):
        store = StateStore(sim)
        store.put("k", "v", 10)
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert "k" not in store.keys()

    def test_keys_and_len(self, sim):
        store = StateStore(sim)
        store.put("a", 1, 1)
        store.put("b", 2, 1)
        assert sorted(store.keys()) == ["a", "b"]
        assert len(store) == 2

    def test_stats_track_operations(self, sim):
        store = StateStore(sim)
        store.put("a", 1, 500)
        store.get("a")
        store.get("missing")
        store.delete("a")
        assert store.stats.puts == 1
        assert store.stats.gets == 2
        assert store.stats.deletes == 1
        assert store.stats.bytes_written == 500
        assert store.stats.bytes_read == 500

    def test_checkpoint_size_includes_pending_events(self, sim):
        store = StateStore(sim)
        base = store.checkpoint_size_bytes(state_size_bytes=256, pending_events=0)
        with_pending = store.checkpoint_size_bytes(state_size_bytes=256, pending_events=10)
        assert with_pending == base + 10 * StateStore.EVENT_SIZE_BYTES
