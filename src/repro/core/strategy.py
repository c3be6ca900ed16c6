"""Migration strategy framework.

A migration strategy enacts an already-planned reschedule of a running
dataflow (the new placement of executors onto VMs) while managing reliability
and timeliness.  The paper proposes two strategies (DCR and CCR) and compares
them against Storm's out-of-the-box behaviour (DSM).  All three are
implemented as orchestrations of the runtime's existing capabilities --
pausing sources, emitting checkpoint waves, invoking ``rebalance`` and
re-sending INIT events -- mirroring the paper's implementation as extensions
of Storm rather than a new engine.

The strategy records a :class:`MigrationReport` of phase timestamps, from
which (together with the run's event log) the §4 metrics are computed in
:mod:`repro.core.metrics`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type, Union

from repro.cluster.placement import PlacementPlan
from repro.dataflow.event import CheckpointAction
from repro.dataflow.graph import RescalePlan
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import RebalanceRecord, RescaleRecord, RuntimeError_, TopologyRuntime
from repro.reliability.checkpoint import CheckpointWave, WaveMode
from repro.reliability.repartition import repartition_rescaled_tasks

#: Placement input accepted by :meth:`MigrationStrategy.migrate`: either a
#: ready plan, or a factory called *after* any rescale has been applied --
#: necessary because a rescale changes the executor set the plan must cover.
PlanInput = Union[PlacementPlan, Callable[[TopologyRuntime], PlacementPlan]]


@dataclass
class MigrationReport:
    """Phase timestamps and bookkeeping for one migration enactment.

    All times are absolute simulated times in seconds; durations are derived
    by :func:`repro.core.metrics.compute_migration_metrics`.
    """

    strategy: str
    requested_at: float
    sources_paused_at: Optional[float] = None
    drain_started_at: Optional[float] = None
    prepare_completed_at: Optional[float] = None
    commit_completed_at: Optional[float] = None
    rebalance_started_at: Optional[float] = None
    rebalance_command_completed_at: Optional[float] = None
    init_completed_at: Optional[float] = None
    sources_unpaused_at: Optional[float] = None
    completed_at: Optional[float] = None
    checkpoint_id: Optional[int] = None
    rebalance_record: Optional[RebalanceRecord] = None
    rescale_record: Optional[RescaleRecord] = None

    @property
    def is_complete(self) -> bool:
        """Whether the migration protocol has finished (INIT acked everywhere)."""
        return self.completed_at is not None

    @property
    def drain_capture_duration_s(self) -> Optional[float]:
        """Time from the migration request until the rebalance command is issued.

        This is the paper's Drain (DCR) / Capture (CCR) duration; it is not
        applicable to DSM (which rebalances immediately) and is reported as 0.
        """
        if self.rebalance_started_at is None:
            return None
        return self.rebalance_started_at - self.requested_at

    @property
    def rebalance_duration_s(self) -> Optional[float]:
        """Duration of the Storm rebalance command itself."""
        if self.rebalance_started_at is None or self.rebalance_command_completed_at is None:
            return None
        return self.rebalance_command_completed_at - self.rebalance_started_at

    @property
    def protocol_duration_s(self) -> Optional[float]:
        """Time from request until the strategy's protocol completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.requested_at


class MigrationStrategy(ABC):
    """Base class for dataflow migration strategies."""

    #: Short name used in reports, figures and the strategy registry.
    name: str = "base"
    #: How the restore's INIT wave reaches the rebalanced tasks.
    init_mode = WaveMode.SEQUENTIAL

    def __init__(self, runtime: TopologyRuntime, init_resend_interval_s: float = 1.0) -> None:
        self.runtime = runtime
        self.init_resend_interval_s = init_resend_interval_s
        self.report: Optional[MigrationReport] = None
        self._on_complete: Optional[Callable[[MigrationReport], None]] = None

    # ----------------------------------------------------------- configuration
    @classmethod
    def runtime_config(cls, seed: int = 2018) -> RuntimeConfig:
        """The runtime configuration this strategy requires (acking, checkpoints, capture)."""
        return RuntimeConfig(seed=seed)

    # ------------------------------------------------------------------- API
    @abstractmethod
    def migrate(
        self,
        new_plan: PlanInput,
        on_complete: Optional[Callable[[MigrationReport], None]] = None,
        rescale: Optional[RescalePlan] = None,
    ) -> MigrationReport:
        """Enact the migration to ``new_plan``, optionally rescaling parallelism.

        ``new_plan`` is either a :class:`PlacementPlan` or a callable
        ``runtime -> PlacementPlan`` invoked once any ``rescale`` has been
        applied (a rescale changes the executor set the plan must place).
        ``rescale`` gives per-task target instance counts enacted at the
        strategy's safe point: DCR/CCR rescale after the COMMIT wave (state
        freshly persisted, dataflow drained/captured); DSM rescales
        immediately before its rebalance and lets the acker replay whatever
        was lost.

        Returns the (initially incomplete) :class:`MigrationReport`, which is
        filled in asynchronously as the protocol progresses under the
        simulated clock.  ``on_complete`` fires when the protocol finishes.
        """

    # --------------------------------------------------------------- helpers
    def _new_report(self) -> MigrationReport:
        """Open this migration's report; refused while another is in flight."""
        runtime = self.runtime
        active = runtime.migration
        if active is not None and not active.is_complete:
            raise RuntimeError_(
                f"a {active.strategy} migration requested at t={active.requested_at:.3f}s is "
                f"still in flight at t={runtime.sim.now:.3f}s; wait for its report to complete"
            )
        self.report = runtime.migration = MigrationReport(strategy=self.name, requested_at=runtime.sim.now)
        return self.report

    def _stage_enactment(self, new_plan: PlanInput, rescale: Optional[RescalePlan]) -> None:
        """Validate and remember the placement input and optional rescale."""
        if rescale is not None:
            rescale.validate(self.runtime.dataflow)
        self._plan_input: PlanInput = new_plan
        self._rescale: Optional[RescalePlan] = rescale

    def _enact_rescale(self) -> float:
        """Apply the staged rescale (executors + statestore re-partitioning), if any.

        Called by the concrete strategies at their safe point, immediately
        before resolving the placement plan and rebalancing.  Returns the
        modelled store latency of the state redistribution (0.0 when there
        is nothing to rescale): DCR/CCR delay their rebalance by it, DSM
        lets it overlap the worker-restart window (Storm-style background
        state-send).
        """
        rescale = getattr(self, "_rescale", None)
        if rescale is None or rescale.is_noop(self.runtime.dataflow):
            return 0.0
        record = self.runtime.apply_rescale(rescale)
        store_latency_s = sum(
            stats.store_latency_s for stats in repartition_rescaled_tasks(self.runtime, record)
        )
        if self.report is not None:
            self.report.rescale_record = record
        return store_latency_s

    def _resolve_plan(self) -> PlacementPlan:
        """Materialize the staged placement plan (post-rescale for factories)."""
        plan_input = self._plan_input
        if callable(plan_input):
            return plan_input(self.runtime)
        return plan_input

    def _rebalance(self) -> None:
        """Issue the rebalance; the restore follows its command."""
        report = self.report
        assert report is not None
        new_plan = self._resolve_plan()
        report.rebalance_started_at = self.runtime.sim.now
        report.rebalance_record = self.runtime.rebalance(new_plan, on_command_complete=self._restore)

    def _restore(self, _record: RebalanceRecord) -> None:
        """Re-initialise the rebalanced tasks with an INIT wave, re-sent
        every ``init_resend_interval_s`` until each task has acted.

        It restores the migration's own checkpoint (DCR/CCR), or, when the
        strategy took none (DSM), the last committed one under a fresh id.
        """
        report = self.report
        assert report is not None
        report.rebalance_command_completed_at = self.runtime.sim.now
        wave = self.runtime.checkpoints.start_wave(
            CheckpointAction.INIT,
            report.checkpoint_id,
            self.init_mode,
            on_complete=self._after_init,
            resend_interval_s=self.init_resend_interval_s,
        )
        report.checkpoint_id = wave.checkpoint_id

    def _after_init(self, _wave: CheckpointWave) -> None:
        report = self.report
        assert report is not None
        report.init_completed_at = self.runtime.sim.now
        self._restored()
        self._finish()

    def _restored(self) -> None:
        """Hook: every task has acted on the INIT, the report not yet complete."""

    def _finish(self) -> None:
        if self.report is not None and self.report.completed_at is None:
            self.report.completed_at = self.runtime.sim.now
        if self._on_complete is not None and self.report is not None:
            self._on_complete(self.report)


#: Registry of available strategies, populated by the concrete modules.
STRATEGIES: Dict[str, Type[MigrationStrategy]] = {}


def register_strategy(cls: Type[MigrationStrategy]) -> Type[MigrationStrategy]:
    """Class decorator adding a strategy to the :data:`STRATEGIES` registry."""
    STRATEGIES[cls.name] = cls
    return cls


def strategy_by_name(name: str) -> Type[MigrationStrategy]:
    """Look up a strategy class by its short name (``dsm``, ``dcr``, ``ccr``)."""
    try:
        return STRATEGIES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown migration strategy {name!r}; choose from {sorted(STRATEGIES)}") from None
