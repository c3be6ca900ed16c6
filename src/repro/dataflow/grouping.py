"""Stream groupings: how events are distributed among a downstream task's instances.

The two of Storm's groupings the dataflows here use: the paper's experiments
wire every edge with shuffle grouping, and the keyed variants route by a
payload key (fields grouping) so the same key always reaches the same
instance.  Checkpoint control events do not ride a grouping: the checkpoint
source sends them to each instance directly (``Router.send_direct``) and each
task forwards them downstream (``TopologyRuntime.forward_control``).

This module also owns the **stable FIELDS hash**: the key -> instance mapping
must be identical wherever it is computed (the router selecting delivery
targets, the state re-partitioner re-keying grouped state during a rescale),
so both import it from here rather than each rolling their own.
"""

from __future__ import annotations

import zlib
from enum import Enum
from typing import Any


class Grouping(Enum):
    """Distribution policy for one dataflow edge."""

    #: Round-robin across the downstream task's instances (Storm's default for
    #: the experiments; load-balances evenly).
    SHUFFLE = "shuffle"
    #: Hash of a payload key selects the instance; needed by keyed stateful
    #: tasks so the same key always lands on the same instance.
    FIELDS = "fields"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def stable_field_index(key: str, num_instances: int) -> int:
    """Stable FIELDS-grouping instance index for ``key``.

    Uses CRC-32 rather than the builtin ``hash()``: string hashing is
    randomized per process (``PYTHONHASHSEED``), which would send keyed
    streams to different instances run-to-run and make placements, figures
    and state re-partitioning irreproducible.
    """
    return zlib.crc32(key.encode("utf-8")) % num_instances


def field_key_of(payload: Any) -> str:
    """Extract the FIELDS-grouping key from an event payload.

    Dict payloads are keyed by their ``key``/``id``/``seq`` entry (first one
    present); any other payload is keyed by its string form.  The router and
    the rescale re-partitioner must agree on this rule, which is why it lives
    here.
    """
    if isinstance(payload, dict):
        for candidate in ("key", "id", "seq"):
            if candidate in payload:
                return str(payload[candidate])
    return str(payload)
