"""Deterministic discrete-event simulation kernel.

Every timed behaviour in the reproduction -- event processing latency, queue
draining, checkpoint waves, ack timeouts, VM/worker restart delays -- is driven
by a single :class:`~repro.sim.kernel.Simulator` instance.  Wall-clock time is
never consulted, which makes every experiment bit-for-bit reproducible given a
seed.

Public classes
--------------
``Simulator``
    The event loop: a priority queue of scheduled callbacks and a virtual
    clock.
``Timer``
    Handle returned by :meth:`Simulator.schedule`; can be cancelled.
``PeriodicTimer``
    Convenience wrapper that re-schedules a callback at a fixed period until
    cancelled (used for periodic checkpoints, INIT re-sends, rate generators).
``RandomSource``
    Named, independently seeded ``random.Random`` streams so that adding a new
    consumer of randomness does not perturb existing experiments.
"""

from repro.sim.kernel import PeriodicTimer, SimulationError, Simulator, Timer
from repro.sim.rng import KeyedStream, RandomSource, cell_seed, keyed_seed, keyed_value

__all__ = [
    "KeyedStream",
    "PeriodicTimer",
    "RandomSource",
    "SimulationError",
    "Simulator",
    "Timer",
    "cell_seed",
    "keyed_seed",
    "keyed_value",
]
