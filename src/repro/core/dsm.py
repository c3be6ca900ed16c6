"""DSM: Default Storm Migration (the paper's baseline).

DSM performs reliable rebalancing using only Storm's out-of-the-box
capabilities:

* acking is enabled for **all** data events, so any event whose causal tree
  does not complete within the 30 s timeout is replayed by the source;
* **periodic checkpointing** (every 30 s) keeps a recent copy of each stateful
  task's state in the external store;
* on a migration request, Storm's ``rebalance`` command is invoked
  **immediately** with a zero timeout: migrating tasks are killed (losing
  their queued events), redeployed on the new slots, and re-initialized from
  the *last periodic* checkpoint via an INIT wave.

The INIT wave is re-sent only when its acks time out (30 s), which is what
produces the characteristic ~30 s jumps in DSM's restore time observed by the
paper.  The source is never paused, so new events keep flowing into the
broken dataflow, fail, and are replayed -- the cause of DSM's long catch-up,
recovery and stabilization times.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.strategy import MigrationReport, MigrationStrategy, PlanInput, register_strategy
from repro.dataflow.graph import RescalePlan
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime


@register_strategy
class DefaultStormMigration(MigrationStrategy):
    """Baseline migration: immediate rebalance, recovery via acking + periodic checkpoints."""

    name = "dsm"

    def __init__(self, runtime: TopologyRuntime, init_resend_interval_s: float = 1.0) -> None:
        # Storm re-sends a lost INIT only when its acks time out, whatever
        # interval the caller asks for.
        super().__init__(runtime, runtime.reliability.ack_timeout_s)

    @classmethod
    def runtime_config(cls, seed: int = 2018) -> RuntimeConfig:
        """DSM needs acking of all events and periodic checkpointing enabled."""
        return RuntimeConfig.for_dsm(seed=seed)

    def migrate(
        self,
        new_plan: PlanInput,
        on_complete: Optional[Callable[[MigrationReport], None]] = None,
        rescale: Optional[RescalePlan] = None,
    ) -> MigrationReport:
        report = self._new_report()
        self._on_complete = on_complete
        self._stage_enactment(new_plan, rescale)

        # A parallelism change is enacted the Storm way: immediately, with no
        # drain.  The *last periodic* checkpoint is re-keyed ("state-send") to
        # the new owners, in-flight events to re-partitioned instances are
        # lost at the kill, and the acker replays their roots -- the same
        # recovery path DSM already relies on for plain placement changes.
        # The state-send's store latency overlaps the (much longer) rebalance
        # and worker-restart window, so it is not awaited here.
        self._enact_rescale()

        # The rebalance is initiated immediately on the user request; the
        # consequences (lost events, stale state) are recovered afterwards:
        # the checkpoint framework re-initializes the restarted tasks from the
        # last committed (periodic) checkpoint.
        self._rebalance()
        return report
