"""Chaos comparison: one eviction storm on a spot fleet, ridden in two recovery modes.

The elasticity papers' migration machinery assumes *planned* reconfiguration;
a spot-heavy fleet adds the unplanned kind.  A chaos run is a closed-loop run
(:func:`repro.experiments.elastic.run_elastic_experiment`) given a
:class:`~repro.experiments.elastic.Storm`: the dataflow is deployed on spot
worker VMs, a deterministic eviction storm (:meth:`Storm.schedule
<repro.experiments.elastic.Storm.schedule>`, armed on a
:class:`~repro.cluster.chaos.FaultInjector`) fires at the fleet, and
:func:`run_chaos_experiment` rides the same storm once per *recovery mode*:

* ``notice`` — the controller receives each eviction **notice** and drains the
  doomed VM inside the window (:meth:`ElasticityController.handle_eviction_notice`):
  replacement capacity is shopped on the spot/on-demand market, executors are
  migrated off live with the configured strategy, and the VM is released
  before the cloud reclaims it;
* ``oblivious`` — the notice is ignored; the VM dies at the deadline with its
  executors on board and recovery is entirely unplanned
  (:meth:`ElasticityController.handle_vm_failure`): failed trees are replayed
  through the acker, rescue capacity is provisioned on-demand, and keyed
  state is restored from the last committed checkpoint.

Both modes share the storm schedule, the seeds and every random stream — the
comparison isolates what the notice window is worth, scored on **restore
latency** (unavailability after each reclaim), **replayed messages** and the
**cloud bill**.  The ``repro chaos`` CLI subcommand prints the table and can
emit the headline numbers as JSON (``--json``).
"""

from __future__ import annotations

from typing import Optional

from repro.engine.config import RuntimeConfig
from repro.experiments.compare import Comparison, RunRow
from repro.experiments.elastic import STORM_MODES, ElasticRunResult, Storm, run_elastic_experiment


def run_chaos_run(
    dag: str = "grid-keyed",
    strategy: str = "dsm",
    mode: str = "notice",
    duration_s: float = 600.0,
    seed: int = 2018,
    storm_count: int = 3,
    storm_start_s: float = 150.0,
    storm_spacing_s: float = 120.0,
    notice_s: float = 120.0,
    config: Optional[RuntimeConfig] = None,
) -> ElasticRunResult:
    """Ride one eviction storm in one recovery mode.

    The dataflow is deployed on a **spot** D2 worker fleet (the on-demand D3
    util VM hosting sources and sinks is off-limits to the injector, as the
    infrastructure VMs are in the paper's setup), periodic checkpoints are
    forced on for every strategy (unplanned recovery needs a committed
    checkpoint to restore from), and ``storm_count`` evictions fire from
    ``storm_start_s`` on, ``storm_spacing_s`` apart, with ``notice_s`` of
    warning.  In ``"notice"`` mode the warning is wired to the controller; in
    ``"oblivious"`` mode it is dropped and the VM simply dies at the deadline.

    The autoscaling loop is *not* started: the run isolates fault handling.
    Pass ``config`` to override the runtime configuration (e.g. the batch
    stepper's on/off equivalence check); its seed is the cell's.
    Raises ``ValueError`` unless ``storm_count >= 1``, ``notice_s`` and
    ``storm_spacing_s`` are ``>= 0`` and ``0 <= storm_start_s < duration_s``.
    """
    return run_elastic_experiment(
        dag=dag,
        strategy=strategy,
        profile=None,
        duration_s=duration_s,
        seed=seed,
        config=config,
        storm=Storm(
            mode=mode,
            count=storm_count,
            start_s=storm_start_s,
            spacing_s=storm_spacing_s,
            notice_s=notice_s,
        ),
    )


def run_chaos_experiment(
    dag: str = "grid-keyed",
    strategy: str = "dsm",
    duration_s: float = 600.0,
    seed: int = 2018,
    storm_count: int = 3,
    storm_start_s: float = 150.0,
    storm_spacing_s: float = 120.0,
    notice_s: float = 120.0,
) -> Comparison:
    """Ride the same eviction storm in both recovery modes and compare.

    Both modes (:data:`~repro.experiments.elastic.STORM_MODES`, in report
    order) share the storm schedule, the seeds and all random streams; the
    runs differ only in whether the eviction *notice* reaches the
    controller.  Scored on restore latency, replayed messages and the bill.
    Bad storm parameters raise ``ValueError`` before any run (see
    :func:`run_chaos_run`).
    """
    rows = [
        RunRow(mode, run_chaos_run(
            dag=dag,
            strategy=strategy,
            mode=mode,
            duration_s=duration_s,
            seed=seed,
            storm_count=storm_count,
            storm_start_s=storm_start_s,
            storm_spacing_s=storm_spacing_s,
            notice_s=notice_s,
        ))
        for mode in STORM_MODES
    ]
    return Comparison(rows, label="mode", scenario="chaos", meta=dict(
        schema="repro-bench-chaos/2",
        dag=dag,
        strategy=strategy,
        duration_s=duration_s,
        storm_count=storm_count,
        notice_s=notice_s,
        benchmarks={"restore_s": "restore_s", "replays": "replays", "cost_usd": "cost"},
    ))


def verdict(comparison: Comparison) -> str:
    """Whether the notice window paid for itself.

    No verdict when no eviction fired or a run ended with work still open
    (its restore times then stop at the end of the run).  A mode wins only
    when no worse on restore latency and the bill, and not a tie on both.
    """
    notice, oblivious = comparison.runs["notice"], comparison.runs["oblivious"]
    left_open = [f"{row.label}: {', '.join(row.result.unfinished())}"
                 for row in (notice, oblivious) if row.result.unfinished()]
    fired = any(fault.fired_at is not None
                for row in (notice, oblivious) for fault in row.result.injector.records)
    if not fired:
        return "No verdict: no eviction fired inside the run."
    if left_open:
        return (f"No verdict: a run ended with work still open ({'; '.join(left_open)}), "
                "so its restore times stop at the end of the run, not at a restore.")
    if (notice.restore_s, notice.cost) == (oblivious.restore_s, oblivious.cost):
        return f"Tie: both modes restore in {notice.restore_s:.1f}s and bill ${notice.cost:.4f}."
    if notice.restore_s <= oblivious.restore_s and notice.cost <= oblivious.cost:
        return (f"Notice-aware recovery wins on both axes: "
                f"{notice.restore_s:.1f}s vs {oblivious.restore_s:.1f}s restore, "
                f"${notice.cost:.4f} vs ${oblivious.cost:.4f} bill.")
    return ("The notice window did not pay for itself on this storm "
            "(try a longer notice, a milder storm, or a faster strategy).")
