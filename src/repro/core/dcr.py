"""DCR: Drain, Checkpoint and Restore.

DCR addresses DSM's performance problems with three ideas (§3.1 of the paper):

1. **Drain** -- pause the source tasks and let all in-flight messages execute
   to completion before anything is killed.  The PREPARE event, flowing
   sequentially along the dataflow edges behind the data, is the *rearguard*
   that guarantees the drain: when a task sees it (from every upstream
   instance), it has processed everything that was in flight.
2. **Just-in-time checkpoint** -- the PREPARE/COMMIT wave is run once, right
   before the rebalance, so the freshest state is persisted and no periodic
   checkpointing overhead is paid during normal operation.  Acking is needed
   only for the checkpoint control events themselves.
3. **Restore** -- after the zero-timeout rebalance, INIT events flow
   sequentially through the rebalanced dataflow and are aggressively re-sent
   every second (duplicates are ignored by already-initialized tasks), so the
   restore is not hostage to the 30 s ack timeout the way DSM's is.  Once all
   tasks have acked an INIT, the sources are unpaused and the backlog that
   accumulated during the migration flows through the new deployment.

There are no lost messages and therefore no replays: old (pre-migration)
events never interleave with new ones.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.strategy import MigrationReport, MigrationStrategy, PlanInput, register_strategy
from repro.dataflow.graph import RescalePlan
from repro.engine.config import RuntimeConfig
from repro.reliability.checkpoint import CheckpointWave, WaveMode


@register_strategy
class DrainCheckpointRestore(MigrationStrategy):
    """Pause sources, drain the dataflow, JIT-checkpoint, rebalance, restore."""

    name = "dcr"

    #: How the PREPARE wave reaches the tasks (CCR broadcasts it and INIT);
    #: the COMMIT always sweeps sequentially, behind any in-flight event.
    prepare_mode = WaveMode.SEQUENTIAL

    @classmethod
    def runtime_config(cls, seed: int = 2018) -> RuntimeConfig:
        """DCR needs neither data acking nor periodic checkpoints."""
        return RuntimeConfig.for_dcr(seed=seed)

    def migrate(
        self,
        new_plan: PlanInput,
        on_complete: Optional[Callable[[MigrationReport], None]] = None,
        rescale: Optional[RescalePlan] = None,
    ) -> MigrationReport:
        """Enact the migration; optionally rescale tasks.

        ``rescale`` changes task instance counts at DCR's natural clean
        boundary: after the drain + just-in-time checkpoint (state persisted
        under the old partitioning), the checkpoints are re-keyed to the new
        instance set and the rebalance deploys it, so old events are processed
        entirely by the old parallelism and new events by the new.
        """
        report = self._new_report()
        self._on_complete = on_complete
        self._stage_enactment(new_plan, rescale)

        # Pause the sources so the PREPARE wave is the last thing behind the
        # in-flight data, then give in-transit source emissions a moment to
        # land in the entry queues before emitting the wave.
        self.runtime.pause_sources()
        report.sources_paused_at = self.runtime.sim.now
        self.runtime.sim.schedule(self.runtime.timing.quiesce_delay_s, self._start_drain)
        return report

    # ------------------------------------------------------------- internals
    def _start_drain(self) -> None:
        report = self.report
        assert report is not None
        report.drain_started_at = self.runtime.sim.now
        report.checkpoint_id = self.runtime.checkpoints.run_checkpoint(
            prepare_mode=self.prepare_mode,
            on_complete=self._after_commit,
            on_prepared=self._prepared,
        )

    def _prepared(self, wave: CheckpointWave) -> None:
        report = self.report
        assert report is not None
        report.prepare_completed_at = wave.completed_at

    def _after_commit(self, _checkpoint_id: int) -> None:
        report = self.report
        assert report is not None
        report.commit_completed_at = self.runtime.sim.now
        # Safe point for a parallelism change: the dataflow is drained (DCR)
        # or captured (CCR) and the freshest state was just persisted, so the
        # checkpoints can be re-keyed to the new instance set before the
        # rebalance deploys it.  The redistribution's modelled store latency
        # gates the rebalance -- moving a lot of grouped state is not free.
        store_latency_s = self._enact_rescale()
        if store_latency_s > 0:
            self.runtime.sim.schedule(store_latency_s, self._rebalance)
        else:
            self._rebalance()

    def _restored(self) -> None:
        report = self.report
        assert report is not None
        self.runtime.unpause_sources()
        report.sources_unpaused_at = self.runtime.sim.now
