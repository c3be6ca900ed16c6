#!/usr/bin/env python3
"""Compare DSM, DCR and CCR on the paper's Grid dataflow (scale-in).

Reproduces the core of the paper's evaluation for one dataflow: the smart-grid
analytics DAG (15 tasks, 21 instances) is scaled in from 11 two-slot D2 VMs to
6 four-slot D3 VMs with each of the three migration strategies, and the §4
metrics plus the throughput timelines (Fig. 7) are printed side by side.

Run with::

    python examples/compare_strategies_grid.py [--fast]

``--fast`` shortens the post-migration observation window (the DSM recovery
and stabilization columns may then be reported as not reached).
"""

from __future__ import annotations

import argparse

from repro.experiments import run_migration_experiment
from repro.experiments.formatting import format_rate_series, format_table
from repro.metrics.timeline import rate_timeline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="shorten the observation window")
    parser.add_argument("--dag", default="grid", help="paper dataflow to migrate (default: grid)")
    parser.add_argument("--scaling", default="in", choices=("in", "out"), help="scaling direction")
    args = parser.parse_args()

    post = 240.0 if args.fast else 540.0
    rows = []
    results = {}
    for strategy in ("dsm", "dcr", "ccr"):
        print(f"running {strategy.upper()} on {args.dag} (scale-{args.scaling}) ...")
        result = run_migration_experiment(
            dag=args.dag,
            strategy=strategy,
            scaling=args.scaling,
            migrate_at_s=90.0,
            post_migration_s=post,
            seed=2018,
        )
        results[strategy] = result
        rows.append(result.metrics.as_dict())

    print()
    print(format_table(
        rows,
        columns=["strategy", "restore_s", "drain_capture_s", "rebalance_s", "catchup_s",
                 "recovery_s", "stabilization_s", "replayed_messages", "lost_in_kills"],
        title=f"{args.dag} scale-{args.scaling}: §4 metrics per strategy",
    ))

    print()
    print("Throughput timelines (5 s bins, relative to the migration request):")
    for strategy, result in results.items():
        request = result.report.requested_at
        input_series = rate_timeline(result.log, kind="input", bin_s=5.0)
        output_series = rate_timeline(result.log, kind="output", bin_s=5.0)
        shift = lambda points: [type(p)(time=p.time - request, rate=p.rate) for p in points]
        print(format_rate_series(f"{strategy} input", shift(input_series)))
        print(format_rate_series(f"{strategy} output", shift(output_series)))

    print()
    print("Headline comparison:")
    dsm, dcr, ccr = (results[s].metrics for s in ("dsm", "dcr", "ccr"))
    print(f"  restore:   CCR {ccr.restore_duration_s:6.1f}s   DCR {dcr.restore_duration_s:6.1f}s   "
          f"DSM {dsm.restore_duration_s:6.1f}s")
    print(f"  replays:   CCR {ccr.replayed_message_count:6d}    DCR {dcr.replayed_message_count:6d}    "
          f"DSM {dsm.replayed_message_count:6d}")
    speedup = dsm.restore_duration_s / ccr.restore_duration_s
    print(f"  CCR restores the dataflow {speedup:.1f}x faster than Storm's default migration.")


if __name__ == "__main__":
    main()
