#!/usr/bin/env python3
"""Gate: fail when an engine benchmark regresses vs. the committed baseline.

Compares ``results/BENCH_engine.json`` (written by running
``benchmarks/test_engine_performance.py``) against
``benchmarks/perf_baseline.json``.  A benchmark fails the gate when its mean
is more than ``--threshold`` (default 2.0) times the baseline mean — loose
enough to absorb machine-class differences between the baseline recorder and
CI runners, tight enough to catch a real hot-path regression.

Two further checks ride along (memory is gated by ``bench_e2e``'s
``peak_rss_mb``, bound 10 % on every workload):

* **Throughput floors** — benchmarks listed in ``MIN_EVENTS_PER_SECOND`` must
  report at least that many ``events_per_second``.
* **Telemetry overhead** (``--check-telemetry-overhead``) — runs the Grid
  surge elastic scenario in paired subprocesses, telemetry off and on,
  interleaved on the same machine, and fails when the telemetry-on wall time
  exceeds the telemetry-off wall time by more than
  ``--telemetry-tolerance`` (default 5%).  The scrape-based design means the
  hot path allocates nothing for observability; this gate keeps it that way.

Exit code 0 = all checks within budget, 1 = regression, 2 = missing input.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_CURRENT = HERE.parent / "results" / "BENCH_engine.json"
DEFAULT_BASELINE = HERE / "perf_baseline.json"

#: Absolute throughput contracts (events/s).
#: Set below half of the slowest committed recording (7-8M ev/s, one unsliced
#: 10 s cascade per round), so a 2x loss on the vectorized path fails the gate
#: and a slower machine class does not.
MIN_EVENTS_PER_SECOND = {
    "grid_steady_state_columnar": 3_000_000.0,
    "grid_steady_state_acked": 3_000_000.0,
}

#: One round of the telemetry-overhead probe: the Grid surge elastic run,
#: full control loop, telemetry off or on per the argv flag.
_TELEMETRY_CHILD_CODE = """
import json, sys, time
from repro.experiments.elastic import run_elastic_experiment

telemetry = sys.argv[1] == "on"
start = time.perf_counter()
result = run_elastic_experiment(
    dag="grid", strategy="ccr", profile="surge",
    duration_s=300.0, seed=2018, telemetry=telemetry,
)
elapsed = time.perf_counter() - start
print(json.dumps({
    "elapsed_s": elapsed,
    "receipts": len(result.log.sink_receipts),
    "telemetry": result.telemetry is not None,
}))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_probe(code: str, mode: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", code, mode],
        check=True, capture_output=True, text=True, env=_child_env(),
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_telemetry_overhead(tolerance: float, rounds: int = 3) -> list:
    """Telemetry-on wall time must stay within ``tolerance`` of telemetry-off.

    The probes are interleaved (off, on, off, on, ...) on the same machine
    and the best (minimum) time per mode is compared, so machine noise
    cancels instead of masquerading as overhead.
    """
    off_times, on_times = [], []
    off = on = None
    for _ in range(rounds):
        off = _run_probe(_TELEMETRY_CHILD_CODE, "off")
        on = _run_probe(_TELEMETRY_CHILD_CODE, "on")
        off_times.append(off["elapsed_s"])
        on_times.append(on["elapsed_s"])
    if off["receipts"] != on["receipts"] or on["telemetry"] is not True:
        return [f"telemetry probe: runs diverged "
                f"({on['receipts']} receipts with telemetry vs {off['receipts']} without)"]
    best_off, best_on = min(off_times), min(on_times)
    ratio = best_on / best_off
    print(f"\ntelemetry overhead (300 s Grid surge elastic run, best of {rounds}): "
          f"off {best_off:.3f}s, on {best_on:.3f}s ({ratio:.3f}x, "
          f"budget {1 + tolerance:.2f}x)")
    if ratio > 1.0 + tolerance:
        return [f"telemetry overhead: {ratio:.3f}x the telemetry-off wall time "
                f"(tolerance {1 + tolerance:.2f}x)"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", type=Path, default=DEFAULT_CURRENT,
                        help="BENCH_engine.json produced by the benchmark run")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail when mean > threshold x baseline mean")
    parser.add_argument("--check-telemetry-overhead", action="store_true",
                        dest="check_telemetry_overhead",
                        help="also assert a telemetry-on run stays within "
                             "--telemetry-tolerance of the telemetry-off wall time")
    parser.add_argument("--telemetry-tolerance", type=float, default=0.05,
                        help="allowed relative wall-time overhead with telemetry on")
    args = parser.parse_args()

    if not args.current.exists():
        print(f"error: {args.current} not found — run the engine benchmarks first", file=sys.stderr)
        return 2
    if not args.baseline.exists():
        print(f"error: {args.baseline} not found", file=sys.stderr)
        return 2

    current = json.loads(args.current.read_text(encoding="utf-8"))["benchmarks"]
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))["benchmarks"]

    failures = []
    print(f"{'benchmark':32s} {'baseline':>12s} {'current':>12s} {'ratio':>8s}")
    for name in sorted(baseline):
        base_mean = baseline[name]["mean_s"]
        entry = current.get(name)
        if entry is None:
            print(f"{name:32s} {base_mean * 1e3:10.2f}ms {'MISSING':>12s} {'-':>8s}")
            failures.append(f"{name}: missing from current run")
            continue
        ratio = entry["mean_s"] / base_mean if base_mean else float("inf")
        flag = "  FAIL" if ratio > args.threshold else ""
        print(f"{name:32s} {base_mean * 1e3:10.2f}ms {entry['mean_s'] * 1e3:10.2f}ms {ratio:7.2f}x{flag}")
        if ratio > args.threshold:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline (threshold {args.threshold}x)")

    for name, floor in sorted(MIN_EVENTS_PER_SECOND.items()):
        entry = current.get(name)
        if entry is None:
            continue  # already reported as MISSING above
        evps = entry.get("events_per_second")
        if evps is None:
            failures.append(f"{name}: no events_per_second recorded (floor {floor:,.0f})")
        elif evps < floor:
            failures.append(f"{name}: {evps:,.0f} events/s below floor {floor:,.0f}")
        else:
            print(f"\n{name}: {evps:,.0f} events/s (floor {floor:,.0f})")

    if args.check_telemetry_overhead:
        failures.extend(check_telemetry_overhead(args.telemetry_tolerance))

    if failures:
        print("\nperformance regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall benchmarks within {args.threshold}x of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
