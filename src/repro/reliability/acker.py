"""Storm-style acknowledgment service (XOR causal trees).

Every root event emitted by a source registers a 64-bit id with the acker.
Each causally derived event XORs the hash of its id (:func:`id_hash`) into
the tree's hash when it is anchored (emitted) and again when it is acked
(processed); once every event has been anchored and acked exactly once the
hash returns to zero and the tree is *complete*.  If the hash is still
non-zero when the timeout expires (30 s by default) the tree has *failed* and
the source replays the cached root event.

This is exactly the mechanism the paper's DSM baseline relies on for
reliability, and the source of its large catch-up and recovery times: events
in flight when the rebalance kills executors never complete their trees and
are replayed only after the 30 s timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro.sim import Simulator, Timer

#: An odd 64-bit multiplier (2**64 / golden ratio): see :func:`id_hash`.
_ODD = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def id_hash(event_id: int) -> int:
    """What ``event_id`` contributes to its tree's hash when anchored or acked.

    Storm draws random 64-bit ids so that the XOR of a tree's outstanding ids
    is zero only when none is outstanding.  Ids here are small and sequential
    -- the two copies of one fan-out draw ``2k`` and ``2k + 1`` -- and XORed
    bare, any two lost fan-out pairs of a tree cancel (``8 ^ 9 ^ 12 ^ 13 ==
    0``): a tree with four un-acked events reads *complete* and is never
    replayed.  One wrapping multiply by an odd constant is a bijection on
    64-bit values (no two ids can cancel) whose carries scatter the low bits
    that made the pairs alike.  Python ints: numpy raises on a ``uint64``
    scalar overflow (:func:`id_hashes` is the array form, which wraps).
    """
    return (event_id * _ODD) & _MASK64


def id_hashes(event_ids: _np.ndarray) -> _np.ndarray:
    """:func:`id_hash` of every id of a ``uint64`` array (a wrapping multiply)."""
    return event_ids * _np.uint64(_ODD)


@dataclass
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
        """Materialize pending trees for roots a batch sweep left unresolved.

        Each tree lands with the exact hash/counter state the classic path
        would have accumulated by the end of the stretch (the hash is the XOR
        fold of the :func:`id_hash` of the root's still-outstanding event ids)
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
        total_anchored = 0
        total_acked = 0
        for root_id, at, ack_hash, anchored, acked in zip(
            root_ids, registered_at, ack_hashes, anchored_counts, acked_counts
        ):
            root_id = int(root_id)
            tree = PendingTree(
                root_id=root_id,
                registered_at=float(at),
                ack_hash=int(ack_hash),
                anchored_count=int(anchored),
                acked_count=int(acked),
            )
            tree.timeout_timer = schedule_at(float(at) + timeout, check, root_id)
            pending[root_id] = tree
            total_anchored += tree.anchored_count
            total_acked += tree.acked_count
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
        tree.ack_hash ^= id_hash(event_id)
        tree.anchored_count += 1
        self.stats.anchors += 1

    def ack(self, root_id: int, event_id: int) -> None:
        """Record that ``event_id`` has been fully processed by its task."""
        tree = self._pending.get(root_id)
        if tree is None:
            self.stats.late_acks += 1
            return
        tree.ack_hash ^= id_hash(event_id)
        tree.acked_count += 1
        self.stats.acks += 1
        if tree.complete:
            self._complete(root_id)

    def fail(self, root_id: int) -> None:
        """Explicitly fail a tree (e.g. user logic error), triggering a replay."""
        if root_id in self._pending:
            self._fail(root_id)

    # ------------------------------------------------------------- bulk APIs
    @staticmethod
    def _folds(pairs: Sequence[Tuple[int, int]]) -> Iterator[Tuple[int, int, int]]:
        """Reduce ``(root_id, event_id)`` pairs to per-root ``(root, xor of
        the id hashes, count)``.

        The XOR fold is order-independent, so the whole stream collapses with
        one ``np.bitwise_xor.reduceat`` over a root-sorted view; the scalar
        dict fold is the exact same reduction for tiny batches, where the
        sort setup costs more than it saves.  The two yield their trees in
        different orders (sorted roots vs insertion), so moving the cutoff
        can move ``on_complete`` order.
        """
        n = len(pairs)
        if n >= 8:
            arr = _np.asarray(pairs, dtype=_np.uint64)
            order = _np.argsort(arr[:, 0], kind="stable")
            roots = arr[order, 0]
            ids = id_hashes(arr[order, 1])
            starts = _np.flatnonzero(_np.r_[True, roots[1:] != roots[:-1]])
            xors = _np.bitwise_xor.reduceat(ids, starts)
            counts = _np.diff(_np.r_[starts, n])
            for root, x, cnt in zip(roots[starts], xors, counts):
                yield int(root), int(x), int(cnt)
            return
        folds: Dict[int, List[int]] = {}
        for root_id, event_id in pairs:
            entry = folds.get(root_id)
            if entry is None:
                folds[root_id] = [id_hash(event_id), 1]
            else:
                entry[0] ^= id_hash(event_id)
                entry[1] += 1
        for root_id, (x, cnt) in folds.items():
            yield int(root_id), int(x), int(cnt)

    def anchor_batch(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Anchor many ``(root_id, event_id)`` pairs in one XOR fold per tree.

        Equivalent to calling :meth:`anchor` once per pair (XOR is
        commutative); pairs whose root is no longer pending are dropped, just
        as the per-event path drops them.
        """
        if not pairs:
            return
        pending = self._pending
        applied = 0
        for root_id, fold, count in self._folds(pairs):
            tree = pending.get(root_id)
            if tree is None:
                continue
            tree.ack_hash ^= fold
            tree.anchored_count += count
            applied += count
        self.stats.anchors += applied
        self.stats.bulk_anchors += applied

    def ack_batch(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Ack many ``(root_id, event_id)`` pairs in one XOR fold per tree.

        Completion is checked once per affected tree, after its whole fold has
        been applied — callers must apply :meth:`anchor_batch` first so no
        tree's hash can transiently return to zero mid-batch (the classic path
        has the same ordering: children anchor before their parent acks).
        """
        if not pairs:
            return
        pending = self._pending
        stats = self.stats
        applied = 0
        for root_id, fold, count in self._folds(pairs):
            tree = pending.get(root_id)
            if tree is None:
                stats.late_acks += count
                continue
            tree.ack_hash ^= fold
            tree.acked_count += count
            applied += count
            if tree.complete:
                self._complete(root_id)
        stats.acks += applied
        stats.bulk_acks += applied

    def settle_batch(
        self,
        root_ids: Sequence[int],
        anchored_counts: Sequence[int],
        acked_counts: Sequence[int],
    ) -> None:
        """Apply anchor/ack *pairs whose XOR contributions already cancelled*.

        A batch sweep that both anchors and acks the same event never needs to
        touch the tree's hash — the two XORs annihilate — but the per-tree
        counters and the completion check still have to advance exactly as the
        per-event path would have advanced them.  Used for trees that existed
        before the sweep and had in-sweep traffic routed through them.
        """
        pending = self._pending
        stats = self.stats
        total_anchored = 0
        total_acked = 0
        for root_id, anchored, acked in zip(root_ids, anchored_counts, acked_counts):
            tree = pending.get(int(root_id))
            if tree is None:
                stats.late_acks += int(acked)
                continue
            tree.anchored_count += int(anchored)
            tree.acked_count += int(acked)
            total_anchored += int(anchored)
            total_acked += int(acked)
            if tree.complete:
                self._complete(int(root_id))
        stats.anchors += total_anchored
        stats.acks += total_acked
        stats.bulk_anchors += total_anchored
        stats.bulk_acks += total_acked

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

    # ------------------------------------------------------------ maintenance
    def flush(self) -> int:
        """Drop all pending trees without failing them; returns how many were dropped.

        Used when acking is turned off mid-run (DCR/CCR do not ack data events).
        """
        count = len(self._pending)
        for tree in self._pending.values():
            if tree.timeout_timer is not None:
                tree.timeout_timer.cancel()
        self._pending.clear()
        return count
