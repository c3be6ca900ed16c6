"""The topology runtime: deployment, execution and rebalance of a dataflow.

This is the reproduction's stand-in for the Storm nimbus + supervisors +
workers: it places executors on cluster slots, wires the router, the acker
service, the state store and the checkpoint coordinator together, drives
event flow against the simulated clock, and implements the ``rebalance``
command (kill migrating executors, reassign slots, restart workers with a
modelled start-up delay).

Migration strategies (:mod:`repro.core`) orchestrate the runtime; they never
touch executors directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.cloud import Cluster
from repro.cluster.placement import PlacementPlan, placement_diff, round_robin_plan
from repro.dataflow.event import CheckpointAction, Event, checkpoint_event_id
from repro.dataflow.graph import Dataflow, RescalePlan
from repro.dataflow.task import TaskKind
from repro.engine.config import RuntimeConfig
from repro.engine.executor import (
    CHECKPOINT_SOURCE_ID,
    Executor,
    ExecutorStatus,
    SinkExecutor,
    SourceExecutor,
)
from repro.engine.batch import BatchStepper
from repro.engine.router import Router
from repro.metrics.log import EventLog
from repro.reliability.acker import AckerService
from repro.reliability.checkpoint import CheckpointCoordinator, CheckpointWave, WaveMode
from repro.reliability.statestore import StateStore
from repro.sim import RandomSource, Simulator


class RuntimeError_(RuntimeError):
    """Raised for invalid runtime operations (e.g. rebalance before deploy)."""


@dataclass
class RebalanceRecord:
    """Bookkeeping for one invocation of the rebalance command."""

    started_at: float
    command_duration_s: float
    migrating: Set[str]
    staying: Set[str]
    loaded: bool
    command_completed_at: Optional[float] = None
    executor_ready_at: Dict[str, float] = field(default_factory=dict)

    @property
    def all_ready_at(self) -> Optional[float]:
        """Time at which the last migrated executor became ready, if known."""
        if not self.executor_ready_at:
            return self.command_completed_at
        return max(self.executor_ready_at.values())


@dataclass
class RescaleRecord:
    """Bookkeeping for one enacted parallelism change."""

    applied_at: float
    #: task name -> (old parallelism, new parallelism), only tasks that changed.
    changes: Dict[str, Tuple[int, int]]
    #: Executor ids created by the rescale (they restore state via INIT).
    spawned: List[str] = field(default_factory=list)
    #: Executor ids retired by the rescale (killed, slots released).
    retired: List[str] = field(default_factory=list)
    #: Surviving instances of rescaled tasks: they must restart too, because
    #: their in-memory keyed state belongs to the *old* FIELDS partitioning.
    restarting: Set[str] = field(default_factory=set)


@dataclass
class VMFailureRecord:
    """Bookkeeping for one VM lost to a crash or spot eviction."""

    vm_id: str
    failed_at: float
    #: Executor ids that were hosted on the VM when it died.
    lost: List[str]
    #: Data events dropped with the executors (their queued/pending backlog).
    events_lost: int
    #: Tuple trees failed fast through the acker (acking runs only).
    trees_failed: int


class TopologyRuntime:
    """Deploys and runs one dataflow on a cluster under the simulated clock.

    ``scheduler`` is the one placement choice, a planner of
    :mod:`repro.cluster.placement` for the deployment and every full re-fleet
    (default: Storm's :func:`~repro.cluster.placement.round_robin_plan`).
    """

    def __init__(
        self,
        dataflow: Dataflow,
        cluster: Cluster,
        sim: Optional[Simulator] = None,
        config: Optional[RuntimeConfig] = None,
        scheduler: Optional[Callable[..., PlacementPlan]] = None,
    ) -> None:
        self.dataflow = dataflow
        self.cluster = cluster
        self.sim = sim if sim is not None else Simulator()
        self.sim.runtimes += 1
        self.config = config if config is not None else RuntimeConfig()
        self.timing = self.config.timing
        self.reliability = self.config.reliability
        self.scheduler = scheduler if scheduler is not None else round_robin_plan
        self.rng = RandomSource(self.config.seed)

        self.log = EventLog(self.sim)
        self.statestore = StateStore(
            self.sim,
            base_latency_s=self.timing.statestore_base_latency_s,
            per_byte_latency_s=self.timing.statestore_per_byte_latency_s,
        )
        self.acker = AckerService(
            self.sim,
            timeout_s=self.reliability.ack_timeout_s,
            on_complete=self._tree_completed,
            on_fail=self._tree_failed,
        )
        self.checkpoints = CheckpointCoordinator(
            self.sim, self._emit_checkpoint_wave, self.user_executor_id_set
        )
        self.router = Router(self)
        #: Batch-stepping cascade: materializes quiescent steady-state
        #: stretches inline, tick by tick where its rule says so (``None``:
        #: every tick runs per event).  Engaged under data acking too: it
        #: replays the acker XOR stream in bulk and disengages around the
        #: windows where per-event ack timing is observable.
        self.batch_stepper = None
        if self.config.batch_stepping:
            self.batch_stepper = BatchStepper(self)
        self.executors: Dict[str, Executor] = {}
        self._user_executors_cache: Optional[List[Executor]] = None
        self._source_executors_cache: Optional[List[SourceExecutor]] = None
        self._sink_executors_cache: Optional[List[SinkExecutor]] = None
        self.placement: Optional[PlacementPlan] = None
        self.deployed = False
        self.rebalances: List[RebalanceRecord] = []
        self.rescales: List[RescaleRecord] = []
        # Survivors of a rescaled task that the next rebalance must restart
        # even if their slot does not change (their in-memory state is keyed
        # by the old instance count).
        self._forced_restarts: Set[str] = set()
        self._util_vm_id: Optional[str] = None
        # Data events addressed to an executor that is currently restarting are
        # held here by the (reconnecting) transport and delivered once the
        # executor is ready, mirroring Storm's buffering messaging clients.
        self._deferred_deliveries: Dict[str, List[Tuple[Event, str]]] = {}
        #: Report of the latest migration: while incomplete, a second is refused.
        self.migration = None
        #: Records of VM failures handled by :meth:`fail_vm`.
        self.vm_failures: List[VMFailureRecord] = []

    # ------------------------------------------------------------ properties
    @property
    def ack_data_events(self) -> bool:
        """Whether data events are tracked by the acker service."""
        return self.reliability.ack_all_events

    @property
    def source_executors(self) -> List[SourceExecutor]:
        """All source executors (cached like :attr:`user_executors`: the acker
        callbacks ask once per completed tree, the batch stepper once per tick)."""
        if self._source_executors_cache is None:
            self._source_executors_cache = [
                e for e in self.executors.values() if isinstance(e, SourceExecutor)
            ]
        return list(self._source_executors_cache)

    @property
    def sink_executors(self) -> List[SinkExecutor]:
        """All sink executors (cached like :attr:`user_executors`)."""
        if self._sink_executors_cache is None:
            self._sink_executors_cache = [
                e for e in self.executors.values() if isinstance(e, SinkExecutor)
            ]
        return list(self._sink_executors_cache)

    @property
    def user_executors(self) -> List[Executor]:
        """Executors of processing (user) tasks, in topological task order.

        The list is cached (checkpoint waves and control-barrier queries ask
        for it on hot paths) and invalidated whenever the executor set can
        change (deploy, rebalance).
        """
        if self._user_executors_cache is None:
            result = []
            for name in self.dataflow.topological_order:
                task = self.dataflow.task(name)
                if task.kind is not TaskKind.PROCESS:
                    continue
                for executor_id in task.instance_ids():
                    executor = self.executors.get(executor_id)
                    if executor is not None:
                        result.append(executor)
            self._user_executors_cache = result
        return list(self._user_executors_cache)

    def _invalidate_executor_cache(self) -> None:
        """Drop the cached executor lists (executor set may have changed)."""
        self._user_executors_cache = None
        self._source_executors_cache = None
        self._sink_executors_cache = None

    def user_executor_id_set(self) -> Set[str]:
        """Ids of all user-task executors (the expected acking set for checkpoint waves)."""
        return {e.executor_id for e in self.user_executors}

    @property
    def sources_paused(self) -> bool:
        """Whether every source executor is currently paused."""
        sources = self.source_executors
        return bool(sources) and all(s.paused for s in sources)

    def executor_vm(self, executor_id: str) -> Optional[str]:
        """VM currently hosting the given executor (None for virtual senders)."""
        executor = self.executors.get(executor_id)
        return executor.vm_id if executor is not None else None

    @property
    def util_vm_id(self) -> Optional[str]:
        """Id of the dedicated source/sink VM, if one exists."""
        return self._util_vm_id

    # ------------------------------------------------------------ deployment
    def _create_executors(self) -> None:
        for task in self.dataflow.tasks:
            for index, executor_id in enumerate(task.instance_ids()):
                if task.kind is TaskKind.SOURCE:
                    executor: Executor = SourceExecutor(executor_id, task, index, self)
                elif task.kind is TaskKind.SINK:
                    executor = SinkExecutor(executor_id, task, index, self)
                else:
                    executor = Executor(executor_id, task, index, self)
                self.executors[executor_id] = executor
        self._invalidate_executor_cache()

    def _find_util_vm(self) -> Optional[str]:
        for vm in self.cluster.vms:
            if vm.tags.get("role") == self.config.util_vm_role:
                return vm.vm_id
        return None

    def deploy(self) -> PlacementPlan:
        """Create executors and place them on the cluster (initial schedule)."""
        if self.deployed:
            raise RuntimeError_("dataflow is already deployed")
        self._create_executors()
        self._util_vm_id = self._find_util_vm()

        ordered_ids: List[str] = []
        pinned: Dict[str, str] = {}
        for name in self.dataflow.topological_order:
            task = self.dataflow.task(name)
            for executor_id in task.instance_ids():
                ordered_ids.append(executor_id)
                if task.kind in (TaskKind.SOURCE, TaskKind.SINK) and self._util_vm_id is not None:
                    pinned[executor_id] = self._util_vm_id

        exclude = [self._util_vm_id] if self._util_vm_id is not None else []
        plan = self.scheduler(ordered_ids, self.cluster, pinned=pinned, exclude_vms=exclude)
        self._apply_placement(plan, plan.executors)
        self.placement = plan
        self.deployed = True

        if self.reliability.periodic_checkpoint_interval_s:
            self.checkpoints.start_periodic(self.reliability.periodic_checkpoint_interval_s)
        return plan

    def _apply_placement(self, plan: PlacementPlan, executor_ids: List[str]) -> None:
        for executor_id in executor_ids:
            slot_id = plan.slot_of(executor_id)
            slot = self.cluster.find_slot(slot_id)
            slot.assign(executor_id)
            self.executors[executor_id].place(slot_id, plan.vm_of(executor_id))
        # Executors moved: the router's outboxes and channel bindings are stale.
        self.router.invalidate_caches()

    def start(self) -> None:
        """Start all executors (sources begin emitting)."""
        if not self.deployed:
            raise RuntimeError_("deploy() must be called before start()")
        for executor in self.executors.values():
            executor.start()

    def run(self, until: float) -> None:
        """Advance the simulation until the given simulated time."""
        self.sim.run(until=until)

    def stop_sources(self) -> None:
        """Stop all source generators (end of experiment)."""
        for source in self.source_executors:
            source.stop()

    # --------------------------------------------------------------- pausing
    def pause_sources(self) -> None:
        """Pause every source (no new events are emitted; a backlog accumulates)."""
        for source in self.source_executors:
            source.pause()

    def unpause_sources(self) -> None:
        """Resume every source; backlogs drain at the configured burst rate."""
        for source in self.source_executors:
            source.unpause()

    # ------------------------------------------------------------ event flow
    def ack_processed(self, event: Event) -> None:
        """Acknowledge a fully processed data event to the acker service."""
        # Cheapest check first: `anchored` is a plain attribute and False for
        # every event when acking is off (the common configuration).
        if event.anchored and self.ack_data_events and event.is_data:
            self.acker.ack(event.root_id, event.event_id)

    def deliver(self, executor_id: str, event: Event, sender_id: str) -> None:
        """Deliver an event to whichever executor holds ``executor_id`` now.

        The by-id form of delivery.  Routed deliveries do not pass through
        here: the kernel runs the target executor's own ``deliver`` (bound
        into the channel record when the router compiled it).  This is the
        path for a target that did not exist when its channel was bound, for
        an executor that a rescale retired while a delivery to it was in
        flight (see ``Executor._refuse``), and for direct callers.
        """
        executor = self.executors.get(executor_id)
        if executor is None:
            self.log.record_drop(executor_id, event.kind.value, "unknown-executor", event.root_id)
        else:
            executor.deliver(event, sender_id)

    def _undeliverable(self, executor: Executor, event: Event, sender_id: str) -> None:
        """Hold or drop a delivery that ``executor`` (not running) refused.

        Data events addressed to an executor that is restarting (killed by a
        rebalance but part of the current placement) are held by the transport
        and re-delivered once the executor is ready, as Storm's reconnecting
        messaging clients do.  Checkpoint control events are *not* held: their
        loss is recovered by the coordinator's re-send logic, which is what
        produces the INIT re-send waves the paper observes.
        """
        executor_id = executor.executor_id
        if event.is_data and self.placement is not None and executor_id in self.placement:
            self._deferred_deliveries.setdefault(executor_id, []).append((event, sender_id))
            self.log.record_deferred(executor_id, event.root_id)
        else:
            self.log.record_drop(executor_id, event.kind.value, executor.status.value, event.root_id)

    # --------------------------------------------------------- acker callbacks
    def _tree_completed(self, root_id: int) -> None:
        for source in self.source_executors:
            source.tree_completed(root_id)

    def _tree_failed(self, root_id: int) -> None:
        for source in self.source_executors:
            source.replay(root_id)

    # ---------------------------------------------------- checkpoint plumbing
    def _emit_checkpoint_wave(self, wave: CheckpointWave) -> None:
        action, mode = wave.action, wave.mode
        meta = {
            "forward": mode is WaveMode.SEQUENTIAL,
            # Only CCR's hub-and-spoke PREPARE (paper §3.2) starts capture; a
            # sequential wave, the periodic checkpoint's included, never does.
            "capture": action is CheckpointAction.PREPARE and mode is WaveMode.BROADCAST,
        }
        if wave.targets is not None:
            targets = sorted(wave.targets)
        elif mode is WaveMode.SEQUENTIAL:
            targets = [
                executor_id
                for task in self.dataflow.entry_tasks
                for executor_id in task.instance_ids()
            ]
        else:
            targets = [e.executor_id for e in self.user_executors]
        for target in targets:
            event = Event.checkpoint(
                action, wave.checkpoint_id, CHECKPOINT_SOURCE_ID, target, created_at=self.sim.now
            )
            event.payload = dict(meta)
            self.router.send_direct(CHECKPOINT_SOURCE_ID, target, event)

    def forward_control(self, executor: Executor, event: Event) -> None:
        """Forward a control event to every instance of downstream user tasks."""
        for successor in self.dataflow.successors(executor.task.name):
            successor_task = self.dataflow.task(successor)
            if successor_task.kind is not TaskKind.PROCESS:
                continue
            for target in successor_task.instance_ids():
                copy = event.copy_for_edge(
                    checkpoint_event_id(event.checkpoint_id, event.checkpoint_action, target)
                )
                self.router.send_direct(executor.executor_id, target, copy)

    def control_ack(self, executor: Executor, event: Event) -> None:
        """Report an executor's acknowledgment of a control event to the coordinator."""
        self.checkpoints.notify_ack(executor.executor_id, event.checkpoint_action, event.checkpoint_id)

    def expected_control_senders(self, executor: Executor) -> Set[str]:
        """Senders a task must hear a sequential control event from before acting.

        Entry tasks expect the checkpoint source; other tasks expect a copy
        from every instance of every upstream user task (barrier alignment).
        """
        senders: Set[str] = set()
        for predecessor in self.dataflow.predecessors(executor.task.name):
            predecessor_task = self.dataflow.task(predecessor)
            if predecessor_task.kind is TaskKind.PROCESS:
                senders.update(predecessor_task.instance_ids())
            elif predecessor_task.kind is TaskKind.SOURCE:
                senders.add(CHECKPOINT_SOURCE_ID)
        if not senders:
            senders.add(CHECKPOINT_SOURCE_ID)
        return senders

    # ---------------------------------------------------------------- rescale
    def apply_rescale(self, plan: RescalePlan) -> RescaleRecord:
        """Change task parallelism at runtime: spawn/retire executor instances.

        For every task whose instance count changes, the runtime

        * **retires** trailing instances on a shrink: they are killed, their
          slots released and their ids removed from the current placement;
        * **spawns** fresh instances on a grow (status STARTING); the next
          rebalance places them and they initialize through the INIT wave;
        * marks the surviving instances for a **forced restart** at the next
          rebalance: their in-memory state was partitioned for the old
          instance count, so they must restore from the re-partitioned
          checkpoint like everyone else;
        * invalidates the router's route plans, so FIELDS groupings re-key to
          the new instance count, and drops retired executors from any
          in-flight checkpoint waves (they can no longer acknowledge).

        Migration strategies decide *when* this is safe to call (DCR/CCR:
        after the COMMIT wave, with the dataflow drained/captured; DSM:
        immediately, accepting the event loss its acker recovers).  The
        statestore re-partitioning itself is a separate step
        (:func:`repro.reliability.repartition.repartition_task_state`).
        """
        if not self.deployed or self.placement is None:
            raise RuntimeError_("cannot rescale before deploy()")
        plan.validate(self.dataflow)
        changes = plan.changes(self.dataflow)
        record = RescaleRecord(applied_at=self.sim.now, changes=changes)
        for task_name in sorted(changes):
            old_count, new_count = changes[task_name]
            task = self.dataflow.task(task_name)
            if new_count < old_count:
                for index in range(new_count, old_count):
                    executor_id = f"{task_name}#{index}"
                    executor = self.executors.pop(executor_id, None)
                    if executor is not None and executor.status is not ExecutorStatus.KILLED:
                        executor.kill()
                    for event, _sender in self._deferred_deliveries.pop(executor_id, []):
                        self.log.record_drop(executor_id, event.kind.value, "retired", event.root_id)
                    self._release_slot_of(executor_id)
                    self.placement.assignments.pop(executor_id, None)
                    self.log.record_lifecycle(executor_id, "retired")
                    record.retired.append(executor_id)
            else:
                for index in range(old_count, new_count):
                    executor_id = f"{task_name}#{index}"
                    self.executors[executor_id] = Executor(executor_id, task, index, self)
                    self.log.record_lifecycle(executor_id, "spawned")
                    record.spawned.append(executor_id)
            survivors = {f"{task_name}#{i}" for i in range(min(old_count, new_count))}
            record.restarting |= survivors
            self.dataflow.set_parallelism(task_name, new_count)
        self._forced_restarts |= record.restarting
        self.checkpoints.discard_executors(set(record.retired))
        self._invalidate_executor_cache()
        self.router.invalidate_caches()
        self.rescales.append(record)
        return record

    def _release_slot_of(self, executor_id: str) -> None:
        """Free the slot the current placement gives ``executor_id``, if it holds it.

        A VM that left the cluster took the slot with it, and a slot holding
        another tenant's executor of the same id is not ours to free.
        """
        slot_id = self.placement.assignments.get(executor_id)
        vm_id = self.placement.slot_to_vm.get(slot_id)
        if vm_id in self.cluster:
            slot = self.cluster.vm(vm_id).find_slot(slot_id)
            if slot is not None and self.placement.owns(slot):
                slot.release()

    # --------------------------------------------------------------- rebalance
    def rebalance(
        self,
        new_plan: PlacementPlan,
        on_command_complete: Optional[Callable[[RebalanceRecord], None]] = None,
    ) -> RebalanceRecord:
        """Enact Storm's ``rebalance`` command with a zero timeout.

        Migrating executors are killed immediately (their queued events are
        lost), slots are reassigned per ``new_plan``, and each migrated
        executor becomes ready again after a modelled worker start-up delay.
        ``on_command_complete`` fires when the rebalance command itself
        returns, which is when the migration strategies send their INIT waves.
        """
        if not self.deployed or self.placement is None:
            raise RuntimeError_("cannot rebalance before deploy()")
        # Every live executor must be covered: an executor missing from the
        # new plan would silently lose its placement and drop all deliveries
        # forever -- the classic mistake being a plan computed *before* a
        # rescale grew the executor set (pass a plan factory instead).
        uncovered = sorted(set(self.executors) - set(new_plan.assignments))
        if uncovered:
            raise RuntimeError_(
                f"rebalance plan does not place live executors {uncovered}; "
                "plans must cover the current (post-rescale) executor set"
            )

        migrating, staying, new_executors = placement_diff(self.placement, new_plan)
        migrating = set(migrating) | set(new_executors)
        staying = set(staying)
        # Survivors of a rescale restart even when their slot is unchanged:
        # their in-memory state belongs to the old instance partitioning.
        forced = self._forced_restarts & set(new_plan.assignments)
        self._forced_restarts = set()
        migrating |= forced
        staying -= forced
        loaded = not self.sources_paused and self.ack_data_events
        record = RebalanceRecord(
            started_at=self.sim.now,
            command_duration_s=max(
                2.0,
                self.rng.gauss(
                    "rebalance-duration",
                    self.timing.rebalance_command_mean_s,
                    self.timing.rebalance_command_stddev_s,
                ),
            ),
            migrating=set(migrating),
            staying=set(staying),
            loaded=loaded,
        )
        self.rebalances.append(record)

        # Kill migrating executors and release their slots immediately.  The
        # iteration is sorted so kill/lifecycle records (and everything
        # downstream of them) are reproducible across processes: ``migrating``
        # is a set of strings, whose order varies with PYTHONHASHSEED.
        for executor_id in sorted(migrating):
            executor = self.executors.get(executor_id)
            if executor is None:
                continue
            # STARTING executors were never live; KILLED ones already died
            # (e.g. with a failed VM) — killing again would double-count
            # losses in the log.
            if executor.status not in (ExecutorStatus.STARTING, ExecutorStatus.KILLED):
                executor.kill()
            self._release_slot_of(executor_id)

        # Apply the new placement for migrating executors (sorted: see above).
        for executor_id in sorted(migrating):
            if executor_id not in new_plan.assignments:
                continue
            slot_id = new_plan.slot_of(executor_id)
            slot = self.cluster.find_slot(slot_id)
            if slot.executor_id != executor_id:
                slot.assign(executor_id)
            self.executors[executor_id].place(slot_id, new_plan.vm_of(executor_id))

        self.placement = new_plan
        self._invalidate_executor_cache()
        self.router.invalidate_caches()
        self.sim.schedule(record.command_duration_s, self._complete_rebalance, record, on_command_complete)
        return record

    def _complete_rebalance(
        self, record: RebalanceRecord, on_command_complete: Optional[Callable[[RebalanceRecord], None]]
    ) -> None:
        record.command_completed_at = self.sim.now
        self._schedule_worker_starts(record)
        if on_command_complete is not None:
            on_command_complete(record)

    def _schedule_worker_starts(self, record: RebalanceRecord) -> None:
        """Schedule the readiness of every migrated executor.

        Workers restart in parallel once the rebalance command completes: each
        executor becomes ready after a base delay plus a uniformly distributed
        extra delay whose spread grows with the number of migrating executors
        (code distribution and coordination contention).  If the rebalance
        happened while the dataflow was live (DSM does not pause the sources),
        restart is further slowed by a load multiplier plus a
        per-migrating-executor penalty.
        """
        timing = self.timing
        total_migrating = len(record.migrating)
        spread = (
            timing.worker_start_spread_base_s
            + timing.worker_start_spread_per_executor_s * total_migrating
        )
        for executor_id in sorted(record.migrating):
            delay = timing.worker_start_base_s + self.rng.uniform(
                f"worker-start:{executor_id}", 0.0, spread
            )
            if record.loaded:
                delay = delay * timing.loaded_start_multiplier + (
                    timing.loaded_start_per_executor_s * total_migrating
                )
            ready_at = self.sim.now + delay
            record.executor_ready_at[executor_id] = ready_at
            self.sim.schedule(delay, self._make_ready, executor_id)

    def _make_ready(self, executor_id: str) -> None:
        executor = self.executors.get(executor_id)
        if executor is None:
            return
        executor.become_ready()
        for event, sender_id in self._deferred_deliveries.pop(executor_id, []):
            executor.deliver(event, sender_id)

    # -------------------------------------------------------------- vm failure
    def fail_vm(self, vm_id: str) -> VMFailureRecord:
        """Tear down a VM the cloud reclaimed: kill its executors, fail their trees.

        Models *unplanned* loss (crash or spot eviction) as opposed to the
        planned kills of a rebalance: every executor of this dataflow hosted
        on the VM is killed in place — queued and in-memory events are gone —
        its slot is released, and the VM is removed from the cluster (unless
        another dataflow still occupies it on a shared fleet).  Under data
        acking, the tuple trees of the dropped events are failed *fast*
        through the acker, so sources replay them without waiting out the ack
        timeout; trees whose events were on the wire when the VM died still
        recover via the timeout.  In-flight checkpoint waves stop expecting
        the dead executors, so a concurrent migration cannot wedge on them.

        The victims stay in ``self.executors`` with status KILLED and keep
        their (now slotless) placement entries; recovery re-places them via
        :meth:`rebalance` and restores their keyed state with an INIT wave
        targeted at them alone.
        """
        if not self.deployed or self.placement is None:
            raise RuntimeError_("cannot fail a VM before deploy()")
        vm = self.cluster.vm(vm_id)
        if vm_id == self.util_vm_id:
            raise RuntimeError_(
                f"VM {vm_id} has the 'util' role: it hosts the sources and sinks, which nothing "
                "re-places -- the run would carry on emitting and receiving nothing"
            )
        lost = sorted(slot.executor_id for slot in vm.occupied_slots if self.placement.owns(slot))
        record = VMFailureRecord(
            vm_id=vm_id, failed_at=self.sim.now, lost=lost, events_lost=0, trees_failed=0
        )
        roots: Set[int] = set()
        for executor_id in lost:
            executor = self.executors[executor_id]
            if self.ack_data_events:
                for event, _sender in list(executor.input_queue) + list(executor.pre_init_buffer):
                    if event.is_data and event.anchored:
                        roots.add(event.root_id)
                for event in executor.pending_events:
                    if event.anchored:
                        roots.add(event.root_id)
            # The transport's buffered deliveries die with the connection.
            for event, _sender in self._deferred_deliveries.pop(executor_id, []):
                if self.ack_data_events and event.is_data and event.anchored:
                    roots.add(event.root_id)
            if executor.status is not ExecutorStatus.KILLED:
                queued, pending = executor.kill()
                record.events_lost += queued + pending
            self.log.record_lifecycle(executor_id, "vm-lost")
            slot_id = self.placement.assignments.get(executor_id)
            if slot_id is not None:
                try:
                    self.cluster.find_slot(slot_id).release()
                except KeyError:
                    pass
        self.checkpoints.discard_executors(set(lost))
        if not vm.occupied_slots:
            self.cluster.remove_vm(vm_id)
        self._invalidate_executor_cache()
        self.router.invalidate_caches()
        # Fail-fast last: replays routed to the dead executors are deferred by
        # the transport and re-delivered once recovery re-places them.
        for root_id in sorted(roots):
            if self.acker.is_pending(root_id):
                self.acker.fail(root_id)
                record.trees_failed += 1
        self.vm_failures.append(record)
        return record

    # -------------------------------------------------------------- inspection
    def executor(self, executor_id: str) -> Executor:
        """Return the executor with the given id."""
        return self.executors[executor_id]

    def queue_backlog(self) -> int:
        """Total number of events queued across all executors (diagnostic)."""
        return sum(len(e.input_queue) for e in self.executors.values())
