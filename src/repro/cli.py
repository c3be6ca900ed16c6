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
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.dataflow import topologies
from repro.engine.batch import engine_counts, engine_line
from repro.experiments import (
    Comparison,
    RunRow,
    run_chaos_experiment,
    run_elastic_experiment,
    run_migration_experiment,
    run_multi_experiment,
    run_predictive_experiment,
    run_rescale_experiment,
)
from repro.experiments.chaos import verdict as chaos_verdict
from repro.experiments.multi import verdict as multi_verdict
from repro.experiments.predictive import DEFAULT_POLICIES, verdict as predict_verdict
from repro.experiments.rescale import verdict as rescale_verdict
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


def _report(args: argparse.Namespace, comparison: Comparison, columns: Sequence[str],
            title: str, width: int, details: Callable[[RunRow], Iterable[str]],
            verdict: Callable[[Comparison], Optional[str]]) -> int:
    """Print a comparison: its table, each row's ``details`` lines (under its
    label, ``width`` wide), the verdict, then write ``--json`` / ``--trace``."""
    print(comparison.table(columns, title))
    print()
    for row in comparison.rows:
        for line in details(row):
            print(f"  {row.label:{width}s} {line}")
    line = verdict(comparison)
    if line is not None:
        print()
        print(line)
    if getattr(args, "json", ""):
        path = comparison.write_headline_json(args.json)
        print(f"\n[headline numbers written to {path}]")
    if getattr(args, "trace", None):
        for row in comparison.rows:
            _export_trace(comparison.trace(row.label), args.trace, label=row.label)
    return 0


def _cmd_rescale(args: argparse.Namespace) -> int:
    result = run_rescale_experiment(**_run_args(args), surge_multiplier=args.surge)

    def details(row: RunRow) -> Iterable[str]:
        for action in row.result.actions:
            rescale = action.target.rescale
            changed = (
                f"rescaled {len(rescale.targets)} tasks -> "
                f"{sum(rescale.targets.values())} target instances"
                if rescale is not None else "placement only (parallelism fixed)"
            )
            yield (f"scale-{action.direction} at t={action.decided_at:7.1f}s "
                   f"({action.from_tier}->{action.to_tier}): {changed}")
        yield row.engine_line

    start, end = result.rows[0].surge
    print(f"Rescale comparison: {args.dag} / {args.strategy}, "
          f"{args.surge:g}x surge over [{start:.0f}s, {end:.0f}s] of a {args.duration:.0f}s run")
    print()
    return _report(
        args, result,
        ("mean_latency_s", "peak_backlog", "final_backlog", "receipts", "final_instances",
         "scale_actions", "cost"),
        "Capacity-adding rescale vs placement-only scaling "
        "(measured from surge start to end of run)",
        9, details, rescale_verdict,
    )


def _cmd_predict(args: argparse.Namespace) -> int:
    result = run_predictive_experiment(
        **_run_args(args),
        profile=args.profile,
        policies=_split(args.policies),
        surge_multiplier=args.surge,
        slo_latency_s=args.slo,
    )

    def details(row: RunRow) -> Iterable[str]:
        for action in row.result.actions:
            trigger = "SLO breach" if action.slo_escalated else "rate"
            yield (f"scale-{action.direction} at t={action.decided_at:7.1f}s "
                   f"({action.from_tier}->{action.to_tier}) trigger={trigger} "
                   f"forecast={action.forecast_rate:.1f} ev/s observed={action.observed_rate:.1f} ev/s")
        yield row.engine_line

    surge = result.rows[0].surge
    window = "" if surge is None else f", {args.surge:g}x surge over [{surge[0]:.0f}s, {surge[1]:.0f}s]"
    print(f"Predictive comparison: {args.dag} / {args.strategy} / profile={args.profile}"
          f"{window} of a {args.duration:.0f}s run, SLO {args.slo:g}s sink latency")
    print()
    return _report(
        args, result,
        ("slo_violation_s", "lead_s", "mean_latency_s", "peak_backlog", "scale_actions", "cost"),
        "Forecast policies (lead_s > 0 = provisioned before the surge landed)",
        13, details, predict_verdict,
    )


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

    def vs_private(row: RunRow) -> str:
        ratio = result.latency_ratio(row.label)
        return f"{ratio:.2f}x" if ratio is not None else "-"

    tenants = Comparison(list(shared.tenants.values()), label="tenant", scenario="multi")
    print(tenants.table(
        ("dag", "priority", "latency_ms", "receipts", "peak_backlog", "final_backlog",
         "instances", "scale_actions", "deferrals", "surge", "vs_private"),
        "Tenants (latency vs. each tenant alone on a private fleet)",
        vs_private=vs_private,
    ))
    print()

    print("Arbitration:")
    for record in shared.manager.arbiter.log:
        verdict = "granted " if record.granted else f"deferred ({record.reason})"
        print(f"  t={record.time:7.1f}s {record.tenant_id:14s} scale-{record.direction:3s} "
              f"{record.slots_requested:3d} slots  {verdict}")
    print(f"  peak committed slots: {shared.max_committed_slots} / {shared.budget_slots} budget; "
          f"max concurrent migrations: {shared.max_concurrent_migrations()}")
    print()
    print(multi_verdict(result))
    runtimes = [row.result.runtime for row in shared.tenants.values()]
    print("\n" + engine_line(engine_counts(runtimes)))
    if args.trace:
        _export_trace(result.trace(), args.trace)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    result = run_chaos_experiment(
        **_run_args(args),
        storm_count=args.storms,
        storm_start_s=args.storm_start,
        storm_spacing_s=args.storm_spacing,
        notice_s=args.notice,
    )

    def details(row: RunRow) -> Iterable[str]:
        for fault in row.result.injector.records:
            when = f"t={fault.fired_at:7.1f}s" if fault.fired_at is not None else "unfired"
            yield f"{when} {fault.event.kind:6s} {fault.vm_id or '-':10s} -> {fault.outcome}"
        yield row.engine_line
        unfinished = row.result.unfinished()
        if unfinished:
            yield f"unfinished at the end: {', '.join(unfinished)}"

    print(f"Chaos run: {args.dag} / {args.strategy} / {args.storms} spot evictions "
          f"({args.notice:g}s notice) over a {args.duration:.0f}s run")
    print()
    return _report(
        args, result,
        ("killed", "evaded", "restore_s", "drain_s", "replays", "events_lost", "cost"),
        "Recovery modes (restore_s = unavailability after each reclaim)",
        10, details, chaos_verdict,
    )


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
                         choices=("surge", "ramp", "diurnal", "burst"),
                         help="dynamism scenario (surge/ramp use --surge as the multiplier)")
    predict.add_argument("--policies", default=",".join(DEFAULT_POLICIES),
                         help="comma-separated forecast policies to compare")
    predict.add_argument("--surge", type=float, default=2.0,
                         help="surge multiplier applied to the baseline source rate")
    predict.add_argument("--slo", type=float, default=30.0,
                         help="sink-latency SLO in seconds (scored and used as the overload trigger); "
                              "the default separates surge meltdown from ordinary migration transients")
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
