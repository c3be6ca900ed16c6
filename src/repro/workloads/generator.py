"""Synthetic event payload factories.

A payload factory is a callable ``(sequence_number) -> payload`` plugged into a
:class:`~repro.dataflow.task.SourceTask`.  :func:`gps_payload_factory`
generates deterministic pseudo-realistic GPS probe events, the domain of the
paper's Traffic DAG.  Payload contents never affect the migration protocols
(the paper uses dummy task logic), but they make the examples and the
fields-grouping path realistic.

Every stochastic payload field is drawn from a *keyed* stream
(:func:`~repro.sim.rng.keyed_value` indexed by the sequence number), not from
a stateful ``random.Random``: ``factory(seq)`` is a pure function of
``(seed, seq)``, independent of how many payloads were generated before it or
in what order.  That is what lets a key-partition shard (see
:mod:`repro.sim.shard`) generate the subsequence ``i, i+N, i+2N, ...`` and
obtain byte-identical payloads to the unsharded run — and it keeps per-factory
memory constant instead of growing a stream table.  The ``partition`` argument
builds that remapping in: shard ``index`` of ``count`` sees local sequence
``s`` as global sequence ``s * count + index``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim import keyed_seed, keyed_value

#: Type of a source payload factory.
PayloadFactory = Callable[[int], Dict[str, Any]]

#: ``(index, count)`` pair naming one key partition of a sharded run.
Partition = Optional[Tuple[int, int]]


def _global_sequence(sequence: int, partition: Partition) -> int:
    """Map a factory-local sequence onto the global stream's sequence."""
    if partition is None:
        return sequence
    index, count = partition
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"invalid partition {partition!r}")
    return sequence * count + index


def _keyed_gauss(seed: int, sequence: int, mu: float, sigma: float) -> float:
    """The ``sequence``-th Gaussian draw of channel ``seed`` (Box-Muller).

    Consumes the two keyed uniforms ``2*sequence`` and ``2*sequence + 1``, so
    the draw depends only on ``(seed, sequence)``.
    """
    u1 = keyed_value(seed, 2 * sequence)
    u2 = keyed_value(seed, 2 * sequence + 1)
    return mu + sigma * math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


def gps_payload_factory(
    vehicle_count: int = 500, seed: int = 11, partition: Partition = None
) -> PayloadFactory:
    """GPS probe events as used by the Traffic application DAG.

    Vehicles move around a small grid of road segments; each event carries the
    vehicle id (the fields-grouping key), its segment, speed and heading.
    """
    speed_seed = keyed_seed(seed, "payload", "gps-speed")

    def _factory(sequence: int) -> Dict[str, Any]:
        sequence = _global_sequence(sequence, partition)
        vehicle_id = sequence % vehicle_count
        segment = (sequence // vehicle_count + vehicle_id) % 64
        speed = max(0.0, _keyed_gauss(speed_seed, sequence, 38.0, 12.0))
        return {
            "seq": sequence,
            "key": f"vehicle-{vehicle_id}",
            "segment": f"seg-{segment}",
            "speed_kmph": round(speed, 1),
            "heading_deg": (vehicle_id * 37 + sequence) % 360,
        }

    return _factory
