"""Storm-style acknowledgment service (XOR causal trees).

Every root event emitted by a source registers its id with the acker.  Each
causally derived event XORs its id into the tree's hash when it is anchored
(emitted) and again when it is acked (processed); once every event has been
anchored and acked exactly once the hash returns to zero and the tree is
*complete*.  As in Storm, whose tuple ids are random 64-bit values, that
needs ids under which no set of a tree's outstanding ids XORs to zero: they
come from :mod:`repro.dataflow.event`, a mix of the data that names each
event (sequential ids would cancel by value -- ``8 ^ 9 ^ 12 ^ 13 == 0``).
If the hash is still non-zero when the timeout expires (30 s by default) the
tree has *failed* and the source replays the cached root event.

This is exactly the mechanism the paper's DSM baseline relies on for
reliability, and the source of its large catch-up and recovery times: events
in flight when the rebalance kills executors never complete their trees and
are replayed only after the 30 s timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim import Simulator, Timer


@dataclass(slots=True)
class PendingTree:
    """Tracking state for one root event's causal tree."""

    root_id: int
    registered_at: float
    ack_hash: int = 0
    anchored_count: int = 0
    acked_count: int = 0
    timeout_timer: Optional[Timer] = None

    @property
    def complete(self) -> bool:
        """Whether every anchored event has been acked (hash returned to zero)."""
        return self.ack_hash == 0 and self.anchored_count > 0


@dataclass
class AckerStats:
    """Counters kept by the acker service."""

    registered: int = 0
    completed: int = 0
    failed: int = 0
    anchors: int = 0
    acks: int = 0
    late_acks: int = 0
    #: Anchors/acks that went through the bulk (batched) APIs rather than the
    #: per-event calls.  Both are also counted in ``anchors``/``acks``; these
    #: two break out how much of the ack stream the batch cascade absorbed.
    bulk_anchors: int = 0
    bulk_acks: int = 0


class AckerService:
    """Tracks causal trees of root events and detects completion or timeout.

    Callbacks
    ---------
    ``on_complete(root_id)``
        Invoked when a tree completes; the source uses this to drop the cached
        root event.
    ``on_fail(root_id)``
        Invoked when a tree times out; the source uses this to replay the root.
    """

    def __init__(
        self,
        sim: Simulator,
        timeout_s: float = 30.0,
        on_complete: Optional[Callable[[int], None]] = None,
        on_fail: Optional[Callable[[int], None]] = None,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError("ack timeout must be positive")
        self.sim = sim
        self.timeout_s = timeout_s
        self.on_complete = on_complete
        self.on_fail = on_fail
        self._pending: Dict[int, PendingTree] = {}
        self.stats = AckerStats()
        self.failed_roots: List[int] = []

    # ----------------------------------------------------------- registration
    def register(self, root_id: int) -> None:
        """Start tracking a new root event (or a replayed instance of it)."""
        if root_id in self._pending:
            # A replay of a root that is somehow still tracked: reset the tree.
            existing = self._pending[root_id]
            if existing.timeout_timer is not None:
                existing.timeout_timer.cancel()
        tree = PendingTree(root_id=root_id, registered_at=self.sim.now)
        tree.timeout_timer = self.sim.schedule(self.timeout_s, self._check_timeout, root_id)
        self._pending[root_id] = tree
        self.stats.registered += 1

    def register_block(
        self,
        root_ids: Sequence[int],
        registered_at: Sequence[float],
        ack_hashes: Sequence[int],
        anchored_counts: Sequence[int],
        acked_counts: Sequence[int],
    ) -> None:
        """Materialize pending trees for roots a batch sweep left unresolved
        (Python numbers, as ``ndarray.tolist`` gives them).

        Each tree lands with the exact hash/counter state the classic path
        would have accumulated by the end of the stretch (the hash is the XOR
        fold of the root's still-outstanding event ids)
        and a timeout timer at ``registered_at + timeout``, back-dated: the
        kernel clock still sits at the sweep's entry point.  The symbolic
        anchors/acks that cancelled inside the sweep are included in the
        counts, so the per-tree counters and the aggregate stats stay
        classic-consistent.
        """
        pending = self._pending
        schedule_at = self.sim.schedule_at
        check = self._check_timeout
        timeout = self.timeout_s
        for root_id, at, ack_hash, anchored, acked in zip(
            root_ids, registered_at, ack_hashes, anchored_counts, acked_counts
        ):
            pending[root_id] = PendingTree(
                root_id, at, ack_hash, anchored, acked, schedule_at(at + timeout, check, root_id)
            )
        total_anchored = sum(anchored_counts)
        total_acked = sum(acked_counts)
        n = len(root_ids)
        stats = self.stats
        stats.registered += n
        stats.anchors += total_anchored
        stats.acks += total_acked
        stats.bulk_anchors += total_anchored
        stats.bulk_acks += total_acked

    def absorb_resolved(self, count: int, anchors: int = 0, acks: int = 0) -> None:
        """Account for trees that registered *and* completed inside one batch sweep.

        A loss-free steady-state stretch resolves such trees to zero without
        ever materializing a :class:`PendingTree` or a timeout timer — only
        the counters advance (``anchors``/``acks`` are the symbolic pairs
        whose XOR contributions cancelled inside the sweep)."""
        if count <= 0 and not anchors and not acks:
            return
        stats = self.stats
        stats.registered += count
        stats.completed += count
        stats.anchors += anchors
        stats.acks += acks
        stats.bulk_anchors += anchors
        stats.bulk_acks += acks

    def is_pending(self, root_id: int) -> bool:
        """Whether the given root is still being tracked."""
        return root_id in self._pending

    @property
    def pending_count(self) -> int:
        """Number of trees currently being tracked."""
        return len(self._pending)

    # ------------------------------------------------------------ ack / anchor
    def anchor(self, root_id: int, event_id: int) -> None:
        """Record that ``event_id`` was emitted as part of ``root_id``'s tree."""
        tree = self._pending.get(root_id)
        if tree is None:
            return
        tree.ack_hash ^= event_id
        tree.anchored_count += 1
        self.stats.anchors += 1

    def ack(self, root_id: int, event_id: int) -> None:
        """Record that ``event_id`` has been fully processed by its task."""
        tree = self._pending.get(root_id)
        if tree is None:
            self.stats.late_acks += 1
            return
        tree.ack_hash ^= event_id
        tree.acked_count += 1
        self.stats.acks += 1
        if tree.complete:
            self._complete(root_id)

    def fail(self, root_id: int) -> None:
        """Explicitly fail a tree (e.g. user logic error), triggering a replay."""
        if root_id in self._pending:
            self._fail(root_id)

    # ------------------------------------------------------------- bulk API
    def settle_trees(
        self,
        root_ids: Sequence[int],
        folds: Sequence[int],
        anchored_counts: Sequence[int],
        acked_counts: Sequence[int],
    ) -> List[int]:
        """Apply many anchors and acks to trees that existed before a batch
        sweep, one update per tree.

        Per tree: ``folds`` is the XOR of the ids anchored and acked (XOR is
        commutative, so the order of the per-event calls does not matter --
        a pair anchored *and* acked inside the sweep cancelled and is only
        counted), ``anchored_counts`` / ``acked_counts`` their numbers.  The
        same state and counters as the per-event :meth:`anchor` / :meth:`ack`
        calls once the tree's whole batch is in, which is when completion is
        checked (the per-event path anchors children before their parent
        acks, so its hash cannot reach zero earlier either).  A tree no longer
        pending drops its anchors and counts its acks as late, as those calls
        do.  Returns the positions of the trees that completed.
        """
        pending = self._pending
        stats = self.stats
        total_anchored = total_acked = late = 0
        completed: List[int] = []
        for position, (root_id, fold, anchored, acked) in enumerate(
            zip(root_ids, folds, anchored_counts, acked_counts)
        ):
            tree = pending.get(root_id)
            if tree is None:
                late += acked
                continue
            tree.ack_hash ^= fold
            tree.anchored_count += anchored
            tree.acked_count += acked
            total_anchored += anchored
            total_acked += acked
            if tree.ack_hash == 0 and tree.anchored_count > 0:
                self._complete(root_id)
                completed.append(position)
        stats.late_acks += late
        stats.anchors += total_anchored
        stats.acks += total_acked
        stats.bulk_anchors += total_anchored
        stats.bulk_acks += total_acked
        return completed

    # --------------------------------------------------------------- internal
    def _complete(self, root_id: int) -> None:
        tree = self._pending.pop(root_id, None)
        if tree is None:
            return
        if tree.timeout_timer is not None:
            tree.timeout_timer.cancel()
        self.stats.completed += 1
        if self.on_complete is not None:
            self.on_complete(root_id)

    def _fail(self, root_id: int) -> None:
        tree = self._pending.pop(root_id, None)
        if tree is None:
            return
        if tree.timeout_timer is not None:
            tree.timeout_timer.cancel()
        self.stats.failed += 1
        self.failed_roots.append(root_id)
        if self.on_fail is not None:
            self.on_fail(root_id)

    def _check_timeout(self, root_id: int) -> None:
        tree = self._pending.get(root_id)
        if tree is None:
            return
        if tree.complete:
            self._complete(root_id)
        else:
            self._fail(root_id)

