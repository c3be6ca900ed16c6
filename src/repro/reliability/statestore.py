"""Redis-like external key-value store with a latency model.

Storm persists checkpointed task state to Redis; the DCR strategy persists
just the user state, while CCR additionally persists each task's captured
pending-event list.  The only property of Redis the paper's results depend on
is its write/read latency, for which the paper reports a micro-benchmark:
"it takes just 100 ms to checkpoint 2000 events to Redis from Storm".

The default latency model is calibrated to that number: with ~100 bytes per
event, 2000 events are ~200 kB, so the per-byte cost is 0.5 µs/byte on top of
a 0.5 ms base round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.kernel import Simulator, checked_delay


def checkpoint_key(dataflow_name: str, executor_id: str) -> str:
    """Canonical state-store key an executor's checkpoint lives under.

    Shared by the executor's COMMIT/INIT path and the rescale
    re-partitioner: both must address exactly the same keys, or a rescale
    would silently restore fresh state.
    """
    return f"ckpt/{dataflow_name}/{executor_id}"


@dataclass
class StoredValue:
    """A value held by the store: the last one put under its key."""

    value: Any
    size_bytes: int


@dataclass
class StateStoreStats:
    """Operation counters and byte totals for the store."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    total_write_latency_s: float = 0.0
    total_read_latency_s: float = 0.0


class StateStore:
    """In-process key-value store with simulated network/IO latency.

    All operations are asynchronous with respect to simulated time: the caller
    provides an ``on_complete`` callback which is invoked after the modelled
    latency has elapsed.  The value itself is stored immediately (the store is
    not a source of inconsistency in the paper's protocols; only its latency
    matters).
    """

    #: Nominal serialized size of one captured event (bytes); calibrated so the
    #: paper's 2000-event / 100 ms micro-benchmark holds.
    EVENT_SIZE_BYTES = 100

    def __init__(
        self,
        sim: Simulator,
        base_latency_s: float = 0.0005,
        per_byte_latency_s: float = 5.0e-7,
    ) -> None:
        self.sim = sim
        # Every latency rides the unchecked push_fast: checked here, once.
        self.base_latency_s = checked_delay(base_latency_s, "base_latency_s")
        self.per_byte_latency_s = checked_delay(per_byte_latency_s, "per_byte_latency_s")
        self._data: Dict[str, StoredValue] = {}
        self.stats = StateStoreStats()

    # -------------------------------------------------------------- latency
    def write_latency(self, size_bytes: int) -> float:
        """Modelled latency for writing ``size_bytes`` bytes."""
        return self.base_latency_s + max(0, size_bytes) * self.per_byte_latency_s

    def read_latency(self, size_bytes: int) -> float:
        """Modelled latency for reading ``size_bytes`` bytes."""
        return self.base_latency_s + max(0, size_bytes) * self.per_byte_latency_s

    # ------------------------------------------------------------ operations
    def put(
        self,
        key: str,
        value: Any,
        size_bytes: int,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> float:
        """Store ``value`` under ``key``; returns the modelled write latency.

        ``on_complete`` is scheduled after the latency has elapsed.
        """
        self._data[key] = StoredValue(value=value, size_bytes=size_bytes)
        latency = self.write_latency(size_bytes)
        self.stats.puts += 1
        self.stats.bytes_written += max(0, size_bytes)
        self.stats.total_write_latency_s += latency
        if on_complete is not None:
            self.sim.push_fast(self.sim.now + latency, on_complete, ())
        return latency

    def get(
        self,
        key: str,
        on_complete: Optional[Callable[[Any], None]] = None,
        default: Any = None,
    ) -> float:
        """Read the value under ``key``; returns the modelled read latency.

        ``on_complete(value)`` is scheduled after the latency has elapsed; the
        ``default`` is passed if the key is absent.
        """
        stored = self._data.get(key)
        size = stored.size_bytes if stored else 0
        value = stored.value if stored else default
        latency = self.read_latency(size)
        self.stats.gets += 1
        self.stats.bytes_read += size
        self.stats.total_read_latency_s += latency
        if on_complete is not None:
            self.sim.push_fast(self.sim.now + latency, on_complete, (value,))
        return latency

    def delete(self, key: str) -> bool:
        """Remove ``key`` from the store (no latency modelled); returns whether it existed."""
        self.stats.deletes += 1
        return self._data.pop(key, None) is not None

    # ------------------------------------------------------------ inspection
    def peek(self, key: str, default: Any = None) -> Any:
        """Read a value synchronously without latency (for tests and metrics)."""
        stored = self._data.get(key)
        return stored.value if stored else default

    def keys(self) -> List[str]:
        """All stored keys."""
        return list(self._data.keys())

    def __len__(self) -> int:
        return len(self._data)

    # --------------------------------------------------------------- helpers
    def checkpoint_size_bytes(self, state_size_bytes: int, pending_events: int = 0) -> int:
        """Serialized size of a checkpoint with optional captured events (CCR)."""
        return max(0, state_size_bytes) + max(0, pending_events) * self.EVENT_SIZE_BYTES
