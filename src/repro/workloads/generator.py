"""Synthetic event payload factories.

A payload factory is a callable ``(sequence_number) -> payload`` plugged into a
:class:`~repro.dataflow.task.SourceTask`.  The factories here generate
deterministic pseudo-realistic payloads for the domains the paper's
application DAGs model: GPS probe events (Traffic) and smart-meter readings
(Grid), plus a generic sensor observation.  Payload contents never affect the
migration protocols (the paper uses dummy task logic), but they make the
examples and the fields-grouping path realistic.

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


def sensor_payload_factory(
    sensor_count: int = 100, seed: int = 7, partition: Partition = None
) -> PayloadFactory:
    """Generic sensor observation: cycling sensor ids with a noisy sinusoidal value."""
    noise_seed = keyed_seed(seed, "payload", "sensor-noise")

    def _factory(sequence: int) -> Dict[str, Any]:
        sequence = _global_sequence(sequence, partition)
        sensor_id = sequence % sensor_count
        base = 50.0 + 25.0 * math.sin(sequence / 40.0)
        noise = _keyed_gauss(noise_seed, sequence, 0.0, 2.0)
        return {
            "seq": sequence,
            "key": f"sensor-{sensor_id}",
            "value": round(base + noise, 3),
        }

    return _factory


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


def smart_meter_payload_factory(
    meter_count: int = 1000, seed: int = 13, partition: Partition = None
) -> PayloadFactory:
    """Smart-meter readings as used by the Grid application DAG.

    Each event carries the meter id (the fields-grouping key), the interval
    energy consumption in kWh, and an ambient temperature reading so the
    weather branch has something to work with.
    """
    meter_seed = keyed_seed(seed, "payload", "meter-noise")
    temp_seed = keyed_seed(seed, "payload", "temp-noise")

    def _factory(sequence: int) -> Dict[str, Any]:
        sequence = _global_sequence(sequence, partition)
        meter_id = sequence % meter_count
        hour_of_day = (sequence // 3600) % 24
        diurnal = 0.4 + 0.3 * math.sin((hour_of_day - 6) / 24.0 * 2 * math.pi)
        usage = max(0.01, diurnal + _keyed_gauss(meter_seed, sequence, 0.0, 0.05))
        temperature = (
            24.0
            + 8.0 * math.sin(sequence / 500.0)
            + _keyed_gauss(temp_seed, sequence, 0.0, 0.5)
        )
        return {
            "seq": sequence,
            "key": f"meter-{meter_id}",
            "kwh": round(usage, 4),
            "temperature_c": round(temperature, 2),
        }

    return _factory
