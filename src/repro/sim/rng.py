"""Named, independently seeded random streams.

Every stochastic component of the simulation draws from its own stream,
derived deterministically from a single master seed, so:

* the same master seed always produces the same experiment, and
* adding a new consumer of randomness does not shift the values observed by
  existing consumers (which would happen if all components shared one
  ``random.Random``).

Keyed channels (:class:`KeyedStream`: network jitter, provisioning, fault
targets, payloads) take an int seed; :class:`RandomSource` serves the
runtime's two stateful draws (rebalance duration, worker start-up delay).
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


def cell_seed(seed: int, *parts: str) -> int:
    """Master seed of one experiment cell named by ``parts``, reproducibly.

    Distinct cells (a ``dag:strategy:scaling`` matrix cell, an elastic run, a
    chaos storm, a tenant) draw independent streams from one user seed.
    """
    digest = hashlib.sha256(":".join(parts).encode("utf-8")).digest()
    return seed * 1_000_003 + int.from_bytes(digest[:4], "big")


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


#: The mix constants as 0-d ``uint64`` arrays: a ufunc takes one of those
#: faster than a Python int or a numpy scalar (measured, 68 entries: 0.66 /
#: 1.28 / 0.90 µs a shift), which on small blocks is most of the cost.
_NP_CONSTS = tuple(np.array(c, dtype=np.uint64) for c in (_GOLDEN, _MIX1, _MIX2, 30, 27, 31, 11))


def splitmix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a ``uint64`` array, in place (the caller owns
    ``z``): the wraparound is the scalar ``& _MASK64``, so bit-identical."""
    _, mix1, mix2, s30, s27, s31, _ = _NP_CONSTS
    z ^= z >> s30
    z *= mix1
    z ^= z >> s27
    z *= mix2
    z ^= z >> s31
    return z


def _mix(z: np.ndarray) -> np.ndarray:
    """:func:`keyed_value`'s draw from a fresh ``uint64`` array of keys (consumed):
    :func:`splitmix`, then the top 53 bits, ``* 2**-53`` being exact."""
    z = splitmix(z)
    z >>= _NP_CONSTS[6]
    return z * 2.0 ** -53


def keyed_value_blocks(seeds: Sequence[int], starts: Sequence[int], counts: Sequence[int]):
    """Vectorized :func:`keyed_value` over several channels at once.

    Returns, laid end to end, the draws ``starts[j] .. starts[j]+counts[j]-1``
    of every channel ``seeds[j]``, each bit-identical to the scalar call.
    """
    # z = seed + (sequence + 1) * GOLDEN (mod 2**64), and entry p of the
    # result draws sequence starts[j] + p - offset[j]: a constant per channel
    # plus p * GOLDEN (integers mod 2**64 re-associate freely).
    keys, offset = [], 0
    for seed, start, count in zip(seeds, starts, counts):
        keys.append((seed + (start + 1 - offset) * _GOLDEN) & _MASK64)
        offset += count
    z = np.arange(offset, dtype=np.uint64) * _NP_CONSTS[0]
    if len(keys) == 1:
        z += np.uint64(keys[0])
    else:
        z += np.repeat(np.array(keys, dtype=np.uint64), counts)
    return _mix(z)


#: Draws a stream computes ahead, and the scalar draws a new or repositioned
#: one makes first (the level sweep moves every channel's counter after each
#: cascade: the few per-event hops between two cascades, and the one-draw
#: streams of the chaos and provisioning models, must not pay for a block).
#: Measured here (best of 5, µs a draw through ``ahead``): scalar 0.58; blocks
#: of 16 / 64 / 256 0.47 / 0.16 / 0.07, a shared ``random.Random`` 0.05.  Past
#: 64 a run's wall time stops moving (``closed_loop`` 0.868 / 0.853 / 0.862 s
#: at 64 / 128 / 256) while its peak RSS keeps growing (+0.4 / +0.8 / +2.0 MiB).
_BLOCK_DRAWS = 64
_SCALAR_DRAWS = 8
#: ``(k + 1) * GOLDEN`` for the block's draws ``k``, last one first.
_BLOCK_STEPS = np.arange(_BLOCK_DRAWS, 0, -1, dtype=np.uint64) * _NP_CONSTS[0]


class KeyedStream:
    """A per-channel draw sequence over :func:`keyed_value`.

    Nothing is registered anywhere: the stream *is* ``(seed, counter)``, and
    ``counter``, the sequence number of the next draw, may be read and written
    freely (the level sweep draws a channel's values itself and moves it past
    them).  The draw-ahead block is a cache of that pure function -- a write
    that lands inside it keeps it -- held reversed, so the next draw is
    ``list.pop``: :attr:`ahead`, which ``Channel.stamp`` calls directly, falling
    back to :meth:`random` on the ``IndexError`` of a spent block.
    """

    __slots__ = ("seed", "ahead", "_block", "_end", "_scalars")

    def __init__(self, seed: int, counter: int = 0) -> None:
        self.seed = seed
        #: Draws ``counter .. _end - 1``, last one first.
        self._block: list = []
        self.ahead = self._block.pop
        self._end = counter
        self._scalars = _SCALAR_DRAWS

    @property
    def counter(self) -> int:
        """Sequence number of the next draw."""
        return self._end - len(self._block)

    @counter.setter
    def counter(self, position: int) -> None:
        keep = self._end - position
        if 0 <= keep <= len(self._block) and self._block:
            del self._block[keep:]
        else:
            self._block.clear()
            self._end = position
            self._scalars = _SCALAR_DRAWS

    def random(self) -> float:
        """Next uniform [0, 1) draw."""
        block = self._block
        if block:
            return block.pop()
        position = self._end
        if self._scalars:
            self._scalars -= 1
            self._end = position + 1
            return keyed_value(self.seed, position)
        key = np.uint64((self.seed + position * _GOLDEN) & _MASK64)
        block.extend(_mix(_BLOCK_STEPS + key).tolist())
        self._end = position + _BLOCK_DRAWS
        return block.pop()

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(master_seed={self.master_seed}, streams={sorted(self._streams)})"
