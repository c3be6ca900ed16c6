"""Scenario runner: one migration experiment, end to end.

Reproduces the paper's experiment setup (§5):

* a dedicated 4-slot D3 VM hosts the source and sink tasks (they are never
  migrated, so end-to-end statistics can be logged without clock skew);
* the dataflow is initially deployed on ``⌈slots/2⌉`` D2 VMs (2 slots each),
  per Table 1;
* for **scale-in** the dataflow migrates to ``⌈slots/4⌉`` D3 VMs (4 slots),
  for **scale-out** to ``slots`` D1 VMs (1 slot each) -- the slot count never
  changes, only the VMs they are packed onto;
* the migration is requested a fixed time after submission (3 minutes in the
  paper) to let the dataflow reach a stable state first, and the run continues
  long enough afterwards to observe catch-up, recovery and stabilization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, List, Optional, Sequence, Tuple

from repro.cluster.cloud import ON_DEMAND, CloudProvider, Cluster
from repro.cluster.vm import D1, D2, D3, VirtualMachine
from repro.core.metrics import MigrationMetrics, compute_migration_metrics
from repro.core.strategy import STRATEGIES, MigrationReport, strategy_by_name
from repro.dataflow import topologies
from repro.dataflow.graph import Dataflow
from repro.elastic.planner import plan_user_tasks_on
from repro.engine.config import RuntimeConfig
from repro.engine.runtime import TopologyRuntime
from repro.metrics.log import EventLog
from repro.sim import Simulator, cell_seed


@dataclass(frozen=True)
class VMCounts:
    """Number of VMs of each flavour a dataflow needs (derived from Table 1)."""

    slots: int
    default_d2: int
    scale_in_d3: int
    scale_out_d1: int


def vm_counts_for(dataflow: Dataflow) -> VMCounts:
    """VM counts for a dataflow, following the paper's provisioning rule.

    For the five paper dataflows this reproduces Table 1 exactly; for custom
    dataflows (e.g. ``linear(50)``) the same ``⌈slots/slots_per_vm⌉`` rule is
    applied.
    """
    slots = dataflow.total_instances()
    return VMCounts(
        slots=slots,
        default_d2=int(math.ceil(slots / D2.slots)),
        scale_in_d3=int(math.ceil(slots / D3.slots)),
        scale_out_d1=slots,
    )


def check_names(
    parameter: str, names: Sequence[str], known: Collection[str], noun: str, unique: bool = False
) -> None:
    """Raise ``ValueError`` naming ``parameter`` unless ``names`` lists at
    least one ``noun``, each of them one of ``known`` (and, if ``unique``,
    none twice: a repeated run would show as one row of its comparison)."""
    if not names:
        raise ValueError(f"{parameter} needs at least one {noun}")
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"{parameter}: unknown {noun}(s) {unknown}; choose from {sorted(known)}")
    repeated = sorted({name for name in names if names.count(name) > 1}) if unique else []
    if repeated:
        raise ValueError(f"{parameter} names {repeated} more than once")


@dataclass
class ScenarioSpec:
    """Parameters of one migration experiment."""

    dag: str = "grid"
    strategy: str = "ccr"
    scaling: str = "in"
    migrate_at_s: float = 120.0
    post_migration_s: float = 480.0
    seed: int = 2018

    def __post_init__(self) -> None:
        check_names("strategy", [self.strategy], STRATEGIES, "migration strategy")
        if self.scaling not in ("in", "out"):
            raise ValueError(f"scaling must be 'in' or 'out', got {self.scaling!r}")
        # Migrating at t <= 0 would move a pipeline that never warmed up.
        for name in ("migrate_at_s", "post_migration_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name):g}")

    @property
    def scenario_name(self) -> str:
        """Human-readable scenario label, e.g. ``scale-in``."""
        return f"scale-{self.scaling}"


@dataclass
class MigrationRunResult:
    """Everything produced by one migration experiment."""

    spec: ScenarioSpec
    dataflow: Dataflow
    runtime: TopologyRuntime
    report: MigrationReport
    metrics: MigrationMetrics
    initial_vm_ids: List[str]
    target_vm_ids: List[str]

    @property
    def log(self) -> EventLog:
        """The run's raw event log."""
        return self.runtime.log


def deploy_baseline(
    dataflow: Dataflow,
    config: RuntimeConfig,
    provider: CloudProvider,
    cluster: Optional[Cluster] = None,
    worker_market: str = ON_DEMAND,
) -> Tuple[TopologyRuntime, List[VirtualMachine]]:
    """Deploy and start a dataflow on the paper's baseline allocation (§5).

    Provisions, in this order, one on-demand D3 tagged ``util`` for the
    sources and sinks and the Table-1 default of ``⌈slots/2⌉`` D2 workers
    (bought on ``worker_market``), adds them to ``cluster`` (a fresh one
    unless given, e.g. with a seeded network model), then deploys and starts
    a runtime on the provider's simulator.  Returns the runtime and the
    worker VMs.
    """
    cluster = cluster if cluster is not None else Cluster()
    util_vm = provider.provision(D3, 1, name_prefix="util")[0]
    util_vm.tags["role"] = "util"
    cluster.add_vm(util_vm)
    worker_vms = provider.provision(
        D2, vm_counts_for(dataflow).default_d2, name_prefix="d2", market=worker_market
    )
    for vm in worker_vms:
        cluster.add_vm(vm)
    runtime = TopologyRuntime(dataflow, cluster, sim=provider.sim, config=config)
    runtime.deploy()
    runtime.start()
    return runtime, worker_vms


def build_experiment(
    spec: ScenarioSpec, dataflow: Optional[Dataflow] = None
) -> Tuple[TopologyRuntime, CloudProvider, List[str]]:
    """Provision the paper's baseline cluster, deploy and start the dataflow.

    Returns the runtime (its simulator not yet run), the cloud provider the
    target VMs are bought from, and the initial worker VM ids.
    """
    strategy_cls = strategy_by_name(spec.strategy)
    # Different (dag, strategy, scaling) cells draw independent random values
    # while the whole matrix stays reproducible.
    config = strategy_cls.runtime_config(
        seed=cell_seed(spec.seed, spec.dag, spec.strategy, spec.scaling)
    )
    dataflow = dataflow if dataflow is not None else topologies.by_name(spec.dag)
    provider = CloudProvider(Simulator())
    runtime, initial_vms = deploy_baseline(dataflow, config, provider)
    return runtime, provider, [vm.vm_id for vm in initial_vms]


def run_migration_experiment(
    dag: str = "grid",
    strategy: str = "ccr",
    scaling: str = "in",
    migrate_at_s: float = 120.0,
    post_migration_s: float = 480.0,
    seed: int = 2018,
    dataflow: Optional[Dataflow] = None,
    max_spout_pending: Optional[int] = None,
    **strategy_options: float,
) -> MigrationRunResult:
    """Run one complete migration experiment and compute its §4 metrics.

    ``max_spout_pending`` (the spout's flow-control cap) and
    ``strategy_options`` (keywords of the strategy class, e.g.
    ``init_resend_interval_s``) override one mechanism for the ablations.

    Every run is hermetic: event ids are a function of the run's data (seed,
    source, emission sequence, channel; :mod:`repro.dataflow.event`), not of
    what ran earlier in the process.  They used to come from a process-global
    counter, and DSM results then depended on the absolute ids in flight when
    the rebalance killed executors: the acker's XOR tree hash could return to
    zero over *lost* sequential ids, so whether a tree timed out and replayed
    varied with whatever had drawn ids before.

    An unknown ``strategy``, or ``dag`` when no ``dataflow`` is given, raises
    ``ValueError`` naming the parameter before anything is deployed.
    """
    if dataflow is None:
        check_names("dag", [dag], topologies.ALL_TOPOLOGIES, "dataflow")
    spec = ScenarioSpec(
        dag=dag,
        strategy=strategy,
        scaling=scaling,
        migrate_at_s=migrate_at_s,
        post_migration_s=post_migration_s,
        seed=seed,
    )
    runtime, provider, initial_vm_ids = build_experiment(spec, dataflow=dataflow)
    if max_spout_pending is not None:
        runtime.reliability.max_spout_pending = max_spout_pending

    # Warm-up: run until the migration request time.
    runtime.sim.run(until=spec.migrate_at_s)

    # The new schedule has been planned (outside the scope of the strategies):
    # provision the target VMs (scale-in D3s or scale-out D1s) and place the
    # user tasks on them; sources and sinks keep their util-VM slots.
    counts = vm_counts_for(runtime.dataflow)
    if spec.scaling == "in":
        vm_type, count, prefix = D3, counts.scale_in_d3, "d3"
    else:
        vm_type, count, prefix = D1, counts.scale_out_d1, "d1"
    target_vm_ids = []
    for vm in provider.provision(vm_type, count, name_prefix=prefix):
        runtime.cluster.add_vm(vm)
        target_vm_ids.append(vm.vm_id)
    new_plan = plan_user_tasks_on(runtime, target_vm_ids)

    strategy_cls = strategy_by_name(spec.strategy)
    migration = strategy_cls(runtime, **strategy_options)
    report = migration.migrate(new_plan)

    # Observe the post-migration behaviour (catch-up, recovery, stabilization).
    runtime.sim.run(until=spec.migrate_at_s + spec.post_migration_s)

    metrics = compute_migration_metrics(
        runtime.log,
        report,
        expected_output_rate=runtime.dataflow.output_rate(),
        dataflow_name=runtime.dataflow.name,
        scenario=spec.scenario_name,
        end_time=runtime.sim.now,
    )
    return MigrationRunResult(
        spec=spec,
        dataflow=runtime.dataflow,
        runtime=runtime,
        report=report,
        metrics=metrics,
        initial_vm_ids=initial_vm_ids,
        target_vm_ids=target_vm_ids,
    )
