"""Experiment harness: scenario runner and per-figure drivers.

:mod:`repro.experiments.scenarios` assembles the full stack (cloud, cluster,
dataflow, runtime, strategy) for one migration experiment exactly as the paper
describes its setup (Table 1 VM counts, 8 ev/s sources, dedicated source/sink
VM, migration a fixed time after submission) and returns the metrics, report
and raw event log.

:mod:`repro.experiments.figures` contains one driver per table/figure of the
paper's evaluation and the table (``PRODUCERS``) that renders each committed
``results/<stem>.txt`` from them, the reproduced rows next to the paper's
published values; ``repro figure`` prints and re-records from it.

:mod:`repro.experiments.elastic` goes beyond the paper's manual experiments.
Its :func:`~repro.experiments.elastic.run_elastic_experiment` builds and runs
every single-fleet closed-loop run and returns one
:class:`~repro.experiments.elastic.ElasticRunResult`: profile-driven sources
plus the :mod:`repro.elastic` autoscaling loop, which triggers migrations
automatically as the input rate changes, or -- given a
:class:`~repro.experiments.elastic.Storm` -- the same stack on a spot fleet
riding an eviction storm with the loop off.  The rescale, predictive and chaos
comparisons below are built from such runs.

:mod:`repro.experiments.compare` holds what the comparison commands share:
one :class:`~repro.experiments.compare.RunRow` per compared run derives every
scorecard column (restore, drain, replays, windowed latency and backlog,
cost, SLO-violation seconds, lead, deferrals, the engine line), and a
:class:`~repro.experiments.compare.Comparison` of rows prints one table and
writes one headline JSON.  Each comparison module below returns one and
states its verdict (``verdict``), the line its command ends on.

:mod:`repro.experiments.rescale` compares capacity-adding scale-out (runtime
parallelism rescale during the migration) against the paper's placement-only
scaling on the same surge profile.

:mod:`repro.experiments.multi` hosts several dataflows as tenants of one
shared, budget-arbitrated fleet (offset surges, bin-packed placement) and
compares each tenant (a row per tenant) against its private-fleet baseline; the
:class:`~repro.multi.ClusterManager` builds each tenant's control stack with
the same helper the single-fleet runner uses.

:mod:`repro.experiments.predictive` compares the control rule's forecast
policies (reactive / EWMA / Holt-Winters / profile lookahead) on one
dynamism scenario, scoring SLO-violation seconds, provisioning lead time and
cost.

:mod:`repro.experiments.sharded` simulates one key partition of a steady
run hermetically; :mod:`repro.sim.shard` merges the per-shard logs into one
bit-stable :class:`~repro.metrics.log.EventLog`.

:mod:`repro.experiments.chaos` rides a deterministic spot-eviction storm once
per recovery mode (notice-aware drain vs oblivious unplanned recovery) and
compares restore latency, replayed messages and the cloud bill;
:func:`~repro.experiments.chaos.run_chaos_run` only describes the storm.

Each input rule has one owner: the runner that receives the value (or the
spec or config it builds).  A bad value raises ``ValueError`` naming the
parameter before anything is simulated -- a non-positive ``duration_s``
(:class:`~repro.experiments.elastic.ElasticScenarioSpec`,
:func:`~repro.experiments.multi.run_multi_experiment`), bad migration timing
(:class:`~repro.experiments.scenarios.ScenarioSpec`, which
:class:`~repro.experiments.figures.ExperimentMatrix` builds too), and a
dataflow, policy or mode list that is empty, names an unknown entry or
repeats a compared one (:func:`~repro.experiments.scenarios.check_names`) --
and ``repro.cli.main`` turns it into one ``repro <cmd>: error: ...`` line
and exit status 2.
"""

from repro.experiments.scenarios import (
    MigrationRunResult,
    ScenarioSpec,
    build_experiment,
    run_migration_experiment,
    vm_counts_for,
)
from repro.experiments.elastic import (
    ElasticRunResult,
    ElasticScenarioSpec,
    Storm,
    run_elastic_experiment,
)
from repro.experiments.compare import Comparison, RunRow
from repro.experiments.rescale import run_rescale_experiment
from repro.experiments.multi import (
    ManagedRunResult,
    MultiExperimentResult,
    run_multi_experiment,
)
from repro.experiments.predictive import run_predictive_experiment
from repro.experiments.sharded import plan_shards, run_steady_shard
from repro.experiments.chaos import run_chaos_experiment, run_chaos_run
from repro.experiments.figures import ExperimentMatrix
from repro.experiments.formatting import format_table

__all__ = [
    "Comparison",
    "ElasticRunResult",
    "ElasticScenarioSpec",
    "ExperimentMatrix",
    "ManagedRunResult",
    "MigrationRunResult",
    "MultiExperimentResult",
    "RunRow",
    "ScenarioSpec",
    "Storm",
    "build_experiment",
    "plan_shards",
    "format_table",
    "run_chaos_experiment",
    "run_chaos_run",
    "run_elastic_experiment",
    "run_migration_experiment",
    "run_multi_experiment",
    "run_predictive_experiment",
    "run_rescale_experiment",
    "run_steady_shard",
    "vm_counts_for",
]
