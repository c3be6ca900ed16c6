"""Named, independently seeded random streams.

Every stochastic component of the simulation (worker start-up jitter, network
transfer latency, rebalance duration, event payload generation) draws from its
own named stream.  Streams are derived deterministically from a single master
seed, so:

* the same master seed always produces the same experiment, and
* adding a new consumer of randomness does not shift the values observed by
  existing consumers (which would happen if all components shared one
  ``random.Random``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def keyed_seed(master_seed: int, name: str, key: str) -> int:
    """Stable 64-bit seed for the ``(master_seed, name, key)`` channel."""
    digest = hashlib.sha256(f"{master_seed}:{name}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def keyed_value(seed: int, sequence: int) -> float:
    """The ``sequence``-th uniform [0, 1) draw of the keyed channel ``seed``.

    A splitmix64-style integer mix: stateless (value depends only on the two
    arguments), so callers can hold a bare ``(seed, counter)`` pair — or no
    state at all — instead of a ``random.Random`` per channel.  The top 53
    bits become the float, matching ``random.random()``'s resolution.
    """
    z = (seed + (sequence + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z ^= z >> 31
    return (z >> 11) * 2.0 ** -53


#: uint64-boxed mix constants for :func:`keyed_value_blocks` (scalar->uint64
#: conversion per call was measurable on small blocks).
_NP_CONSTS = tuple(np.uint64(c) for c in (_GOLDEN, _MIX1, _MIX2, 30, 27, 31, 11))


def keyed_value_blocks(seeds: Sequence[int], starts: Sequence[int], counts: Sequence[int]):
    """Vectorized :func:`keyed_value` over several channels at once.

    Returns, laid end to end, the draws ``starts[j] .. starts[j]+counts[j]-1``
    of every channel ``seeds[j]``.  The integer mix runs on ``uint64`` arrays,
    whose wraparound is exactly the ``& _MASK64`` of the scalar path, and
    ``(z >> 11) * 2**-53`` is exact in float64, so every element is
    bit-identical to the corresponding scalar :func:`keyed_value` call.
    """
    golden, mix1, mix2, s30, s27, s31, s11 = _NP_CONSTS
    # z = seed + (sequence + 1) * GOLDEN (mod 2**64), and entry p of the
    # result draws sequence starts[j] + p - offset[j]: a constant per channel
    # plus p * GOLDEN (integers mod 2**64 re-associate freely).
    keys, offset = [], 0
    for seed, start, count in zip(seeds, starts, counts):
        keys.append((seed + (start + 1 - offset) * _GOLDEN) & _MASK64)
        offset += count
    z = np.arange(offset, dtype=np.uint64) * golden
    if len(keys) == 1:
        z += np.uint64(keys[0])
    else:
        z += np.repeat(np.array(keys, dtype=np.uint64), counts)
    z = (z ^ (z >> s30)) * mix1
    z = (z ^ (z >> s27)) * mix2
    z ^= z >> s31
    return (z >> s11) * 2.0 ** -53


class KeyedStream:
    """A per-channel draw sequence over :func:`keyed_value`.

    Unlike :meth:`RandomSource.stream`, nothing is registered anywhere: the
    object is two integers, and an equivalent stream can be reconstructed
    from ``(seed, counter)`` at any point.  Per-event channel names therefore
    cost nothing once the caller drops the object.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0) -> None:
        self.seed = seed
        self.counter = counter

    def random(self) -> float:
        """Next uniform [0, 1) draw."""
        value = keyed_value(self.seed, self.counter)
        self.counter += 1
        return value

    def uniform(self, low: float, high: float) -> float:
        """Next uniform draw scaled to [low, high)."""
        return low + (high - low) * self.random()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyedStream(seed={self.seed}, counter={self.counter})"


class RandomSource:
    """Factory for deterministic, named ``random.Random`` streams."""

    def __init__(self, master_seed: int = 2018) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream seed is a stable hash of ``(master_seed, name)``.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
            seed = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(seed)
        return self._streams[name]

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw a uniform sample from the named stream."""
        return self.stream(name).uniform(low, high)

    def gauss(self, name: str, mu: float, sigma: float) -> float:
        """Draw a Gaussian sample from the named stream (sigma may be 0)."""
        if sigma <= 0:
            return mu
        return self.stream(name).gauss(mu, sigma)

    def expovariate(self, name: str, rate: float) -> float:
        """Draw an exponential sample with the given rate from the named stream."""
        return self.stream(name).expovariate(rate)

    def randint(self, name: str, low: int, high: int) -> int:
        """Draw an integer uniformly in ``[low, high]`` from the named stream."""
        return self.stream(name).randint(low, high)

    def fork(self, name: str) -> "RandomSource":
        """Create a child :class:`RandomSource` with a seed derived from ``name``."""
        digest = hashlib.sha256(f"{self.master_seed}:fork:{name}".encode("utf-8")).digest()
        return RandomSource(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(master_seed={self.master_seed}, streams={sorted(self._streams)})"
