"""CCR: Capture, Checkpoint and Resume.

CCR removes DCR's main cost -- the time spent draining every in-flight message
through every downstream task -- with two changes (§3.2 of the paper):

1. **Broadcast checkpoint channel.**  PREPARE (and later INIT) events are sent
   directly from the checkpoint source to *every* task over a hub-and-spoke
   channel, so they land at the end of each task's input queue without having
   to traverse the preceding tasks.
2. **Capture instead of drain.**  When a task processes the broadcast PREPARE
   it enables a *capture flag*: the one event it may currently be executing
   completes (its outputs are captured rather than emitted), and every further
   data event found on the input queue is appended to a pending-event list
   without being processed.  The COMMIT wave still sweeps sequentially through
   the dataflow (guaranteeing it is behind all in-flight data), and persists
   the user state *plus* the pending-event list to the state store.  Only the
   broadcast PREPARE captures: a sequential wave, a periodic checkpoint's
   included, never does (a Storm periodic checkpoint has no capture), so CCR
   runs on DCR's runtime configuration and no flag switches capture on.

After the zero-timeout rebalance, INIT is broadcast (re-sent every second);
each task restores its state, replays its captured events locally -- emitting
their outputs downstream -- and only then are the sources unpaused.  The
dataflow therefore resumes from exactly where it stopped: the drain time of
DCR is overlapped with the refill time after the rebalance.

A mid-migration rescale (inherited from DCR) happens after the COMMIT wave:
the captured pending events persisted with each instance's checkpoint are
re-routed to the *new* owner instances (by field key for FIELDS-grouped
tasks) along with the re-partitioned state, so the local replay after INIT
happens exactly where future deliveries of the same keys will land.
"""

from __future__ import annotations

from repro.core.dcr import DrainCheckpointRestore
from repro.core.strategy import register_strategy
from repro.reliability.checkpoint import WaveMode


@register_strategy
class CaptureCheckpointResume(DrainCheckpointRestore):
    """Capture in-flight events instead of draining them; broadcast PREPARE/INIT."""

    name = "ccr"

    #: PREPARE and INIT are broadcast directly to every task instance; the
    #: coordinator's COMMIT always sweeps sequentially along the edges.
    prepare_mode = WaveMode.BROADCAST
    init_mode = WaveMode.BROADCAST
