"""Command-line interface for running reproduction experiments.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro describe grid
    python -m repro experiment --dag grid --strategy ccr --scaling in
    python -m repro elastic --dag traffic --strategy ccr --profile surge
    python -m repro rescale --dag grid --strategy ccr --surge 2.0
    python -m repro predict --dag grid --profile surge --slo 30
    python -m repro multi --dags traffic,grid --strategy ccr
    python -m repro chaos --dag grid-keyed --strategy dsm --storms 3
    python -m repro figure table1
    python -m repro figure fig5 --scaling out --jobs 4
    python -m repro figure drain
    python -m repro figure all --write results/ --jobs 0

``experiment`` runs a single migration experiment and prints the §4 metrics;
``elastic`` runs a closed-loop autoscaling experiment (profile-driven sources,
monitor, planner and controller) and prints the scaling timeline plus the
cloud bill; ``rescale`` rides one surge twice -- once with capacity-adding
parallelism rescale, once with the paper's placement-only scaling -- and
prints the side-by-side latency/backlog comparison; ``predict`` rides one
dynamism scenario once per forecast policy (reactive / EWMA / Holt-Winters /
profile lookahead) and prints the SLO-violation / provisioning-lead-time /
cost comparison; ``multi`` hosts several dataflows as tenants of one shared,
budget-arbitrated fleet (offset surges) and compares every tenant against
its private-fleet baseline; ``chaos`` fires a deterministic spot-eviction
storm at the fleet and compares notice-aware draining against oblivious
unplanned recovery on restore latency, replays and the bill; ``--trace``
on elastic/predict/chaos/multi exports the run's control-plane trace
(schema-versioned JSONL plus a Perfetto-loadable Chrome trace); ``figure``
regenerates one of the paper's tables/figures (``--jobs N`` fans the
experiment matrix out across processes) and prints the reproduced rows next
to the paper's published values -- the text ``results/<stem>.txt`` holds,
which ``figure all --write results/`` re-records.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.dataflow import topologies
from repro.engine.batch import engine_counts, engine_line
from repro.experiments.predictive import DEFAULT_POLICIES
from repro.experiments import (
    run_chaos_experiment,
    run_elastic_experiment,
    run_migration_experiment,
    run_multi_experiment,
    run_predictive_experiment,
    run_rescale_experiment,
)
from repro.experiments.chaos import DEFAULT_MODES
from repro.experiments.figures import PRODUCERS, STRATEGY_ORDER, ExperimentMatrix
from repro.experiments.formatting import format_table
from repro.workloads.profiles import PROFILE_PRESETS


def _cmd_describe(args: argparse.Namespace) -> int:
    print(topologies.by_name(args.dag).describe())
    return 0


def _split(text: str) -> List[str]:
    """The entries of a comma-separated flag, blanks dropped."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _run_args(args: argparse.Namespace) -> Dict[str, object]:
    """The shared run flags (:func:`_add_run_flags`) as a closed-loop runner's keywords."""
    return dict(dag=args.dag, strategy=args.strategy, duration_s=args.duration, seed=args.seed)


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_migration_experiment(
        dag=args.dag,
        strategy=args.strategy,
        scaling=args.scaling,
        migrate_at_s=args.migrate_at,
        post_migration_s=args.duration,
        seed=args.seed,
    )
    print(format_table([result.metrics.as_dict()], title="Migration metrics (§4)"))
    report = result.report
    print()
    print("Protocol phases (seconds after the migration request):")
    for field in ("sources_paused_at", "prepare_completed_at", "commit_completed_at",
                  "rebalance_started_at", "rebalance_command_completed_at",
                  "init_completed_at", "sources_unpaused_at", "completed_at"):
        value = getattr(report, field)
        if value is not None:
            print(f"  {field:32s} {value - report.requested_at:8.2f}")
    print()
    print(format_table([result.log.summary()], title="Run summary"))
    print("\n" + engine_line(engine_counts([result.runtime])))
    return 0


def _export_trace(telemetry, out: str, label: str = "") -> None:
    """Write a run's trace as JSONL + Chrome trace and print its digest.

    A ``label`` goes before the extension: ``TRACE_x.jsonl`` -> ``TRACE_x.<label>.jsonl``.
    """
    from repro.obs import summarize, write_chrome_trace, write_trace_jsonl

    if label:
        stem, dot, ext = out.rpartition(".")
        out = f"{stem}.{label}.{ext}" if dot else f"{out}.{label}"
    jsonl = write_trace_jsonl(telemetry, out)
    chrome = write_chrome_trace(telemetry, str(jsonl).removesuffix(".jsonl") + ".chrome.json")
    print()
    if label:
        print(f"--- trace: {label} ---")
    print(summarize(telemetry))
    print(f"[trace written to {jsonl}; load {chrome} at ui.perfetto.dev]")


def _cmd_elastic(args: argparse.Namespace) -> int:
    result = run_elastic_experiment(
        **_run_args(args),
        profile=args.profile,
    )

    print(f"Elastic run: {args.dag} / {args.strategy} / profile={args.profile} "
          f"({args.duration:.0f}s simulated)")
    print()
    if result.actions:
        rows = []
        for action in result.actions:
            report = action.report
            rows.append({
                "decided_at_s": round(action.decided_at, 1),
                "direction": f"scale-{action.direction}",
                "tier": f"{action.from_tier}->{action.to_tier}",
                "observed_ev_s": round(action.observed_rate, 1),
                "allocation": " ".join(
                    f"{c}x{n}" for n, c in sorted(action.target.vm_counts.items())
                ),
                "protocol_s": (
                    round(report.protocol_duration_s, 1)
                    if report is not None and report.protocol_duration_s is not None
                    else "-"
                ),
                "vms_released": len(action.deprovisioned_vm_ids),
            })
        print(format_table(rows, title="Scaling actions"))
        if result.controller.migration_in_flight:
            print("(last migration still in flight when the run ended -- an "
                  "overloaded dataflow drains/captures slowly; see the queue column)")
    else:
        print("Scaling actions: none (rate never left the current tier's band)")
    print()

    sample_rows = []
    stride = max(1, len(result.samples) // 12)
    for sample in result.samples[::stride]:
        sample_rows.append({
            "t_s": round(sample.time, 1),
            "in_ev_s": round(sample.input_rate, 1),
            "out_ev_s": round(sample.output_rate, 1),
            "latency_ms": (
                round(sample.avg_latency_s * 1000, 1)
                if sample.avg_latency_s is not None else "-"
            ),
            "queued": sample.queue_backlog,
            "backlog": sample.source_backlog,
        })
    if sample_rows:
        print(format_table(sample_rows, title="Monitor timeline (subsampled)"))
        print()

    print("Billing (relative pay-as-you-go units, per-minute granularity)")
    for record in result.provider.billing_records:
        status = "released" if record.deprovisioned_at is not None else "running"
        print(f"  {record.vm_id:12s} {record.vm_type:3s} {status:9s} "
              f"cost {record.cost(result.runtime.sim.now):8.4f}")
    print(f"  total: {result.total_cost:.4f}")
    print("\n" + engine_line(engine_counts([result.runtime])))
    if args.trace:
        _export_trace(result.trace(), args.trace)
    return 0


def _cmd_rescale(args: argparse.Namespace) -> int:
    result = run_rescale_experiment(**_run_args(args), surge_multiplier=args.surge)

    print(f"Rescale comparison: {args.dag} / {args.strategy}, "
          f"{args.surge:g}x surge over [{result.surge_start_s:.0f}s, {result.surge_end_s:.0f}s] "
          f"of a {args.duration:.0f}s run")
    print()
    print(format_table(
        [result.capacity.as_dict(), result.placement.as_dict()],
        title="Capacity-adding rescale vs placement-only scaling "
              "(measured from surge start to end of run)",
    ))
    print()
    for summary in (result.capacity, result.placement):
        for action in summary.result.actions:
            rescale = action.target.rescale
            changed = (
                f"rescaled {len(rescale.targets)} tasks -> "
                f"{sum(rescale.targets.values())} target instances"
                if rescale is not None else "placement only (parallelism fixed)"
            )
            print(f"  {summary.mode:9s} scale-{action.direction} at t={action.decided_at:7.1f}s "
                  f"({action.from_tier}->{action.to_tier}): {changed}")
        print(f"  {summary.mode:9s} {engine_line(engine_counts([summary.result.runtime]))}")
    print()
    if result.capacity_wins:
        print(f"Capacity-adding rescale wins: {result.latency_improvement:.2f}x lower mean "
              f"sink latency, and {result.placement.final_backlog - result.capacity.final_backlog} "
              f"fewer backlogged events left at the end of the run than placement-only scaling.")
    else:
        print("Placement-only scaling was not beaten on this configuration "
              "(try a stronger --surge or a longer --duration).")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    result = run_predictive_experiment(
        **_run_args(args),
        profile=args.profile,
        policies=_split(args.policies),
        surge_multiplier=args.surge,
        slo_latency_s=args.slo,
        placement=args.placement,
    )

    window = ""
    if result.surge_start_s is not None:
        window = (f", {args.surge:g}x surge over "
                  f"[{result.surge_start_s:.0f}s, {result.surge_end_s:.0f}s]")
    print(f"Predictive comparison: {args.dag} / {args.strategy} / profile={args.profile}"
          f"{window} of a {args.duration:.0f}s run, SLO {args.slo:g}s sink latency")
    print()
    print(format_table(
        [summary.as_dict() for summary in result.runs.values()],
        title="Forecast policies (lead_s > 0 = provisioned before the surge landed)",
    ))
    print()
    for summary in result.runs.values():
        for action in summary.result.actions:
            trigger = "SLO breach" if action.slo_escalated else "rate"
            print(f"  {summary.policy:13s} scale-{action.direction} at t={action.decided_at:7.1f}s "
                  f"({action.from_tier}->{action.to_tier}) trigger={trigger} "
                  f"forecast={action.forecast_rate:.1f} ev/s observed={action.observed_rate:.1f} ev/s")
        print(f"  {summary.policy:13s} {engine_line(engine_counts([summary.result.runtime]))}")
    baseline = result.reactive
    best = result.best_predictive()
    if baseline is not None and best is not None:
        saved = result.violation_improvement_s(best.policy)
        print()
        if saved is not None and saved > 0:
            print(f"Best predictive policy ({best.policy}): {saved:.0f}s fewer SLO-violation "
                  f"seconds than reactive ({best.slo_violation_s:.0f}s vs "
                  f"{baseline.slo_violation_s:.0f}s).")
        else:
            print("No predictive policy beat the reactive baseline on this scenario "
                  "(try a longer horizon, a stronger surge, or the lookahead oracle).")
    if args.json:
        path = result.write_headline_json(args.json)
        print(f"\n[headline numbers written to {path}]")
    if args.trace:
        for policy, summary in result.runs.items():
            _export_trace(summary.trace(), args.trace, label=policy)
    return 0


def _cmd_multi(args: argparse.Namespace) -> int:
    dags = _split(args.dags)
    priorities = None
    if args.priorities:
        try:
            priorities = [int(p) for p in args.priorities.split(",")]
        except ValueError:
            raise ValueError("--priorities must be comma-separated integers") from None
    result = run_multi_experiment(
        dags=dags,
        strategy=args.strategy,
        duration_s=args.duration,
        surge_multiplier=args.surge,
        seed=args.seed,
        budget_slots=args.budget,
        priorities=priorities,
        elastic_parallelism=not args.placement_only,
        include_private_baseline=not args.no_baseline,
        placement=args.placement,
    )
    shared = result.shared

    print(f"Multi-tenant run: {len(dags)} dataflows / {args.strategy} on one shared fleet "
          f"({args.duration:.0f}s simulated, {args.surge:g}x offset surges, "
          f"budget {shared.budget_slots} worker slots)")
    print()
    rows = []
    for name, summary in shared.tenants.items():
        row = summary.as_dict()
        start, end = result.surge_windows[name]
        row["surge"] = f"{start:.0f}-{end:.0f}s"
        ratio = result.latency_ratio(name)
        row["vs_private"] = f"{ratio:.2f}x" if ratio is not None else "-"
        rows.append(row)
    print(format_table(rows, title="Tenants (latency vs. each tenant alone on a private fleet)"))
    print()

    print("Arbitration:")
    for record in shared.manager.arbiter.log:
        verdict = "granted " if record.granted else f"deferred ({record.reason})"
        print(f"  t={record.time:7.1f}s {record.tenant_id:14s} scale-{record.direction:3s} "
              f"{record.slots_requested:3d} slots  {verdict}")
    print(f"  peak committed slots: {shared.max_committed_slots} / {shared.budget_slots} budget; "
          f"max concurrent migrations: {shared.max_concurrent_migrations()}")
    print()

    print("Fleet (shared vs. sum of private fleets):")
    print(f"  mean worker slots   {shared.mean_worker_slots:8.1f}"
          + (f"  vs {result.private_mean_worker_slots:8.1f} private" if result.private else ""))
    util = f"  mean utilization    {shared.mean_utilization:8.1%}"
    if result.private and result.private_mean_utilization is not None:
        util += f"  vs {result.private_mean_utilization:8.1%} private"
    print(util)
    print(f"  total cost          {shared.total_cost:8.4f}"
          + (f"  vs {result.private_total_cost:8.4f} private" if result.private else ""))
    tenants = [shared.manager.tenant(name).runtime for name in shared.tenants]
    print("\n" + engine_line(engine_counts(tenants)))
    if args.trace:
        _export_trace(result.trace(), args.trace)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    result = run_chaos_experiment(
        **_run_args(args),
        modes=_split(args.modes),
        storm_count=args.storms,
        storm_start_s=args.storm_start,
        storm_spacing_s=args.storm_spacing,
        notice_s=args.notice,
    )

    print(f"Chaos run: {args.dag} / {args.strategy} / {args.storms} spot evictions "
          f"({args.notice:g}s notice) over a {args.duration:.0f}s run")
    print()
    print(format_table(
        [summary.as_dict() for summary in result.runs.values()],
        title="Recovery modes (restore_s = unavailability after each reclaim)",
    ))
    print()
    for summary in result.runs.values():
        run = summary.result
        for fault in run.injector.records:
            when = f"t={fault.fired_at:7.1f}s" if fault.fired_at is not None else "unfired"
            print(f"  {summary.mode:10s} {when} {fault.event.kind:6s} "
                  f"{fault.vm_id or '-':10s} -> {fault.outcome}")
        print(f"  {summary.mode:10s} {engine_line(engine_counts([run.runtime]))}")
        unfinished = run.unfinished()
        if unfinished:
            print(f"  {summary.mode:10s} unfinished at the end: {', '.join(unfinished)}")
    notice, oblivious = result.notice, result.oblivious
    if notice is not None and oblivious is not None:
        print()
        left_open = [f"{s.mode}: {', '.join(s.result.unfinished())}"
                     for s in (notice, oblivious) if s.result.unfinished()]
        fired = any(fault.fired_at is not None
                    for s in (notice, oblivious) for fault in s.result.injector.records)
        if not fired:
            print("No verdict: no eviction fired inside the run.")
        elif left_open:
            print(f"No verdict: a run ended with work still open ({'; '.join(left_open)}), "
                  "so its restore times stop at the end of the run, not at a restore.")
        elif ((notice.mean_restore_s, notice.total_cost)
                == (oblivious.mean_restore_s, oblivious.total_cost)):
            print(f"Tie: both modes restore in {notice.mean_restore_s:.1f}s "
                  f"and bill ${notice.total_cost:.4f}.")
        elif (notice.mean_restore_s <= oblivious.mean_restore_s
                and notice.total_cost <= oblivious.total_cost):
            # No worse on either axis and, not being a tie, better on one.
            print(f"Notice-aware recovery wins on both axes: "
                  f"{notice.mean_restore_s:.1f}s vs {oblivious.mean_restore_s:.1f}s restore, "
                  f"${notice.total_cost:.4f} vs ${oblivious.total_cost:.4f} bill.")
        else:
            print("The notice window did not pay for itself on this storm "
                  "(try a longer notice, a milder storm, or a faster strategy).")
    if args.json:
        path = result.write_headline_json(args.json)
        print(f"\n[headline numbers written to {path}]")
    if args.trace:
        for mode, summary in result.runs.items():
            _export_trace(summary.result.trace(), args.trace, label=mode)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    # Most producers never prefetch, so nothing else would see a bad --jobs.
    if args.jobs < 0:
        raise ValueError("--jobs must be >= 0 (0 = one per CPU)")
    if args.write and args.name != "all":
        raise ValueError("--write goes with `figure all`")
    matrix = ExperimentMatrix(
        migrate_at_s=args.migrate_at, post_migration_s=args.duration, seed=args.seed,
        dags=args.dags.split(",") if args.dags else topologies.PAPER_ORDER,
    )
    if args.name == "all":  # every committed file, at the scaling / dag it pins
        producers = list(PRODUCERS.values())
    else:  # one figure (fig5's two files are one), at the scaling / dag asked for
        producers = list(dict.fromkeys(
            producer._replace(scaling=args.scaling, dag=args.dag)
            for producer in PRODUCERS.values() if producer.figure == args.name
        ))
    texts = [producer.text(matrix, args.jobs) for producer in producers]
    print("\n\n".join(texts))
    if args.write:
        Path(args.write).mkdir(parents=True, exist_ok=True)
        for stem, text in zip(PRODUCERS, texts):
            Path(args.write, f"{stem}.txt").write_text(text + "\n", encoding="utf-8")
    if matrix.cells:
        print()
    for (dag, strategy, scaling), cell in matrix.cells.items():
        print(f"{dag}/{strategy}/scale-{scaling} {engine_line(cell.engine)}")
    return 0


def _add_trace_flag(sub_parser: argparse.ArgumentParser, name: str) -> None:
    sub_parser.add_argument(
        "--trace", nargs="?", const=f"results/TRACE_{name}.jsonl", default=None,
        metavar="PATH",
        help="after the run, write its control-plane trace (read from the run's "
             f"records) to PATH (default: results/TRACE_{name}.jsonl) plus a "
             "Perfetto-loadable .chrome.json next to it",
    )


def _add_run_flags(
    sub_parser: argparse.ArgumentParser,
    *,
    dag: Optional[str],
    strategy: Optional[str],
    duration: float,
    dags: Iterable[str] = topologies.ALL_TOPOLOGIES,
    duration_help: str = "total simulated run time (seconds)",
) -> None:
    """Add the flags the run commands share at this command's defaults:
    ``--dag`` (one of ``dags``), ``--strategy``, ``--duration`` and ``--seed``.
    A ``None`` default leaves that flag out."""
    if dag is not None:
        sub_parser.add_argument("--dag", default=dag, choices=sorted(dags))
    if strategy is not None:
        sub_parser.add_argument("--strategy", default=strategy, choices=STRATEGY_ORDER)
    sub_parser.add_argument("--duration", type=float, default=duration, help=duration_help)
    sub_parser.add_argument("--seed", type=int, default=2018)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    json_help = "also write the headline numbers to this JSON file ({name: value}, the unit in the name)"

    describe = sub.add_parser("describe", help="print the structure of a paper dataflow")
    describe.add_argument("dag", choices=sorted(topologies.PAPER_TOPOLOGIES))
    describe.set_defaults(func=_cmd_describe)

    experiment = sub.add_parser("experiment", help="run one migration experiment")
    _add_run_flags(experiment, dag="grid", dags=topologies.PAPER_TOPOLOGIES, strategy="ccr",
                   duration=540.0, duration_help="post-migration observation window (seconds)")
    experiment.add_argument("--scaling", default="in", choices=("in", "out"))
    experiment.add_argument("--migrate-at", type=float, default=90.0, dest="migrate_at")
    experiment.set_defaults(func=_cmd_experiment)

    elastic = sub.add_parser("elastic", help="run a closed-loop autoscaling experiment")
    _add_run_flags(elastic, dag="traffic", strategy="ccr", duration=900.0)
    elastic.add_argument("--profile", default="surge", choices=sorted(PROFILE_PRESETS))
    _add_trace_flag(elastic, "elastic")
    elastic.set_defaults(func=_cmd_elastic)

    rescale = sub.add_parser(
        "rescale",
        help="compare capacity-adding rescale vs placement-only scaling on one surge",
    )
    _add_run_flags(rescale, dag="grid", strategy="ccr", duration=600.0,
                   duration_help="total simulated run time (seconds); the surge spans 25%%-60%% of it")
    rescale.add_argument("--surge", type=float, default=2.0,
                         help="surge multiplier applied to the baseline source rate")
    rescale.set_defaults(func=_cmd_rescale)

    predict = sub.add_parser(
        "predict",
        help="compare reactive vs predictive (forecast-driven) scaling policies",
    )
    _add_run_flags(predict, dag="grid", strategy="ccr", duration=600.0)
    predict.add_argument("--profile", default="surge",
                         choices=("surge", "step", "ramp", "diurnal", "burst"),
                         help="dynamism scenario (surge/step/ramp use --surge as the multiplier)")
    predict.add_argument("--policies", default=",".join(DEFAULT_POLICIES),
                         help="comma-separated forecast policies to compare")
    predict.add_argument("--surge", type=float, default=2.0,
                         help="surge multiplier applied to the baseline source rate")
    predict.add_argument("--slo", type=float, default=30.0,
                         help="sink-latency SLO in seconds (scored and used as the overload trigger); "
                              "the default separates surge meltdown from ordinary migration transients")
    predict.add_argument("--placement", default="incremental",
                         choices=("full-replace", "incremental"),
                         help="place stage used by every run")
    predict.add_argument("--json", default="", help=json_help)
    _add_trace_flag(predict, "predict")
    predict.set_defaults(func=_cmd_predict)

    multi = sub.add_parser(
        "multi",
        help="run several dataflows on one shared, budget-arbitrated fleet",
    )
    _add_run_flags(multi, dag=None, strategy="ccr", duration=600.0)
    multi.add_argument("--dags", default="traffic,grid",
                       help="comma-separated tenant dataflows (paper DAGs or keyed variants)")
    multi.add_argument("--surge", type=float, default=2.0,
                       help="surge multiplier for each tenant's offset rush hour")
    multi.add_argument("--budget", type=int, default=None,
                       help="cluster-wide worker-slot budget (default: co-located fleet "
                            "plus one expanded tenant)")
    multi.add_argument("--priorities", default="",
                       help="comma-separated tenant priorities, higher wins (default: all equal)")
    multi.add_argument("--placement-only", action="store_true", dest="placement_only",
                       help="restrict tenants to the paper's placement-only scaling "
                            "(default: capacity-adding parallelism rescale, which actually "
                            "absorbs the surges)")
    multi.add_argument("--placement", default="full-replace",
                       choices=("full-replace", "incremental"),
                       help="per-tenant place stage: 'incremental' keeps unchanged "
                            "instances in place and lets consolidations re-use "
                            "partially-free shared VMs instead of provisioning a fresh fleet")
    multi.add_argument("--no-baseline", action="store_true", dest="no_baseline",
                       help="skip the per-tenant private-fleet baseline runs")
    _add_trace_flag(multi, "multi")
    multi.set_defaults(func=_cmd_multi)

    chaos = sub.add_parser(
        "chaos",
        help="ride a spot-eviction storm with notice-aware vs oblivious recovery",
    )
    _add_run_flags(chaos, dag="grid-keyed", strategy="dsm", duration=600.0)
    chaos.add_argument("--modes", default=",".join(DEFAULT_MODES),
                       help="comma-separated recovery modes to compare")
    chaos.add_argument("--storms", type=int, default=3,
                       help="number of spot evictions in the storm")
    chaos.add_argument("--storm-start", type=float, default=150.0, dest="storm_start",
                       help="simulated time of the first eviction (seconds)")
    chaos.add_argument("--storm-spacing", type=float, default=120.0, dest="storm_spacing",
                       help="spacing between evictions (seconds, plus keyed jitter)")
    chaos.add_argument("--notice", type=float, default=120.0,
                       help="eviction notice window (seconds)")
    chaos.add_argument("--json", default="", help=json_help)
    _add_trace_flag(chaos, "chaos")
    chaos.set_defaults(func=_cmd_chaos)

    figure = sub.add_parser("figure", help="regenerate the paper's tables/figures")
    figure.add_argument("name", choices=sorted({p.figure for p in PRODUCERS.values()} | {"all"}),
                        help="one table/figure, or `all`: every file results/ holds")
    _add_run_flags(figure, dag="grid", dags=topologies.PAPER_TOPOLOGIES, strategy=None,
                   duration=540.0, duration_help="post-migration observation window (seconds)")
    figure.add_argument("--scaling", default="in", choices=("in", "out"))
    figure.add_argument("--dags", default="", help="comma-separated subset of dataflows")
    figure.add_argument("--migrate-at", type=float, default=90.0, dest="migrate_at")
    figure.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the experiment matrix "
                             "(0 = one per CPU core; cells are hermetic, results identical)")
    figure.add_argument("--write", default="", metavar="DIR",
                        help="with `all`: also write each table to DIR/<stem>.txt "
                             "(`--write results/` re-records the committed files)")
    figure.set_defaults(func=_cmd_figure)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    The one place a bad input is reported: the runners (and the specs and
    configs they build) raise ``ValueError`` naming the parameter before
    they simulate anything, and it becomes ``repro <cmd>: error: <message>``
    on stderr and exit status 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
