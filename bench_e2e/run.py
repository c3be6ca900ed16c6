#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: host time to result, per workload.

Three ways to call it (see README.md):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, the form ``BENCHMARK.json`` names.  Prints one
    JSON object as its last line: the end-to-end metrics (``--trace 0``) or
    the per-layer metrics of a traced run (``--trace 1``).
``run.py [--seed N] [--reps R]``
    The whole suite: every workload ``R`` times, interleaved, plus one traced
    run each; prints every metric by name with its unit and writes
    ``out/BENCH_e2e.json`` and ``out/TRACE_<workload>.jsonl``.
``run.py --compare A.json B.json``
    Whether two suite results agree within the benchmark's own bounds.

A run starts fresh worker processes (this file with ``--child``): each sets
the workload up, then repeats the same pass until its share of ``--seconds``
is used.  Set-up time, peak RSS and hermetic event ids are per process, so
they need processes; host time is the median over all passes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
SRC = os.path.join(REPO, "src")
SPEC_PATH = os.path.join(REPO, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(BENCH_DIR, "out")

SCHEMA = "repro-bench-e2e/1"
WORKLOAD_NAMES = ("paper_matrix", "closed_loop", "grid100x_vector", "log_analysis")
#: Worker processes per untraced run, so that set-up is taken five times.
WORKERS = 5
END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_events_per_s": "events/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


# ------------------------------------------------------------------ worker
def _calibration_spin() -> float:
    """Host seconds of a fixed interpreter loop, fastest of five: machine speed.

    Taken before every pass and reduced like a slice (fastest occurrence), so
    it tracks the host's speed the way ``wall_s`` does.  Reported as context,
    never used to normalise (README.md, "Noise").
    """
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i
        best = min(best, time.perf_counter() - start)
    return best


def _clock() -> float:
    """A clock the parent and its workers share (``perf_counter`` need not be)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_main(args: argparse.Namespace) -> int:
    """Set one workload up, repeat its pass for ``--seconds``, report the passes."""
    # Set-up is sliced like a pass: spawn -> here, numpy, repro, the
    # workloads module, then input generation (its simulator runs stepped).
    setup_marks = [args.spawned_at, _clock()]
    sys.path.insert(0, SRC)
    for module in ("numpy", "repro", "workloads"):
        importlib.import_module(module)
        setup_marks.append(_clock())
    from workloads import WORKLOADS, Probe, slice_simulator_runs

    if args.trace:
        from tracing import HostTracer

        probe: Any = HostTracer(args.workload, args.seed)
    else:
        probe = Probe()
    workload = WORKLOADS[args.workload]
    slice_simulator_runs(probe, workload.sim_steps)
    with probe.timed():
        inputs = workload.prepare(args.seed, args.smoke)
    setup_slices = [end - start for start, end in zip(setup_marks, setup_marks[1:])]
    setup_slices += probe.slices

    spin_s = float("inf")
    attempted = 0
    failures: List[str] = []
    passes: List[Dict[str, float]] = []
    best: List[float] = []
    first = None
    # A traced worker spends half its time on untraced passes: the per-layer
    # split is a split of *their* wall time.
    budget = args.seconds / 2 if args.trace else args.seconds
    loop_started = time.perf_counter()
    while True:
        gc.collect()
        spin_s = min(spin_s, _calibration_spin())
        produced = workload.run(inputs, probe)
        slices = probe.slices
        result = workload.inspect(inputs, produced)
        passes.append({"wall_s": sum(slices), "cpu_s": probe.cpu_s})
        attempted += result.checks.attempted + 1
        failures += result.checks.failures
        if first is None:
            first, best = result, slices
        elif (result.counts, result.digests, result.events, len(slices)) != (
            first.counts, first.digests, first.events, len(best)
        ):
            failures.append(f"pass {len(passes)} differs from pass 1 (counts, digests or slices)")
        else:
            best = [min(pair) for pair in zip(best, slices)]
        del produced, result
        # Stop where the total lands closest to the budget: another pass only
        # if at least half of it still fits.
        elapsed = time.perf_counter() - loop_started
        if elapsed + 0.5 * elapsed / len(passes) >= budget:
            break
    if args.inject_failure:
        attempted += 1
        failures.append("injected failure (--inject-failure)")

    report: Dict[str, Any] = {
        "passes": passes,
        "best_slices": best,
        "events": first.events,
        "counts": first.counts,
        "digests": first.digests,
        "attempted": attempted,
        "failures": failures,
        "setup_slices": setup_slices,
        "calib_spin_s": spin_s,
    }
    if args.trace:
        report["trace"] = _traced_passes(args, workload, inputs, probe)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


def _traced_passes(args: argparse.Namespace, workload: Any, inputs: Dict[str, Any],
                   tracer: Any) -> Dict[str, Any]:
    """One pass under spans, one under cProfile; spans are written at the end."""
    from tracing import profile_pass

    tracer.install()
    try:
        gc.collect()
        with tracer.span(args.workload, category="workload"):
            workload.run(inputs, tracer)
        span_wall_s = sum(tracer.slices)
    finally:
        tracer.uninstall()
    gc.collect()
    layers = profile_pass(lambda: workload.run(inputs, tracer))
    os.makedirs(args.out, exist_ok=True)
    path = tracer.write(os.path.join(args.out, f"TRACE_{args.workload}.jsonl"))
    return {
        "span_wall_s": span_wall_s,
        "profile_wall_s": sum(tracer.slices),
        "layers": layers,
        "phases": tracer.phase_walls(),
        "log_queries": tracer.log_queries(),
        "spans": len(tracer.telemetry.tracer.spans),
        "missing_targets": tracer.missing,
        "path": path,
    }


# ------------------------------------------------------------------ one run
def _start_worker(name: str, seed: int, seconds: float, trace: int, smoke: bool,
                  out: str, inject_failure: bool) -> Dict[str, Any]:
    """Run one worker process to completion; returns its report."""
    command = [sys.executable, os.path.abspath(__file__), "--child", "--workload", name,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
               "--out", out]
    if smoke:
        command.append("--smoke")
    if inject_failure:
        command.append("--inject-failure")
    command += ["--spawned-at", repr(_clock())]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=REPO)
    try:
        output, _ = process.communicate()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0 or not output.strip():
        raise RuntimeError(f"worker for {name!r} failed with exit code {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool = False,
                 out: str = DEFAULT_OUT, inject_failure: bool = False) -> Dict[str, Any]:
    """One run of one workload: worker processes in sequence, reduced to metrics."""
    workers = 1 if trace or smoke else WORKERS
    reports = [
        _start_worker(name, seed, seconds / workers, trace, smoke, out, inject_failure)
        for _ in range(workers)
    ]
    passes = [p for report in reports for p in report["passes"]]
    attempted = sum(report["attempted"] for report in reports)
    failures = [f for report in reports for f in report["failures"]]
    base = reports[0]
    best = base["best_slices"]
    for index, report in enumerate(reports[1:], start=2):
        attempted += 1
        if (report["counts"], report["digests"], len(report["best_slices"])) != (
            base["counts"], base["digests"], len(best)
        ):
            failures.append(f"worker {index} differs from worker 1 (counts, digests or slices)")
        else:
            best = [min(pair) for pair in zip(best, report["best_slices"])]

    # Host time of one undisturbed pass, and of one undisturbed set-up: every
    # slice at its fastest occurrence.
    wall_s = sum(best)
    setup = [min(column) for column in zip(*(r["setup_slices"] for r in reports))]
    run: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": len(passes),
        "wall_median_s": statistics.median(p["wall_s"] for p in passes),
        "calib_spin_s": min(r["calib_spin_s"] for r in reports),
        "import_s": sum(setup[1:4]),
        "end_to_end": {
            "wall_s": wall_s,
            "sim_events_per_s": base["events"] / wall_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
            "setup_s": sum(setup),
        },
        "counts": base["counts"],
        "digests": base["digests"],
    }
    if trace:
        run["per_layer"] = _per_layer(base, run, passes)
        run["trace"] = {k: base["trace"][k] for k in ("path", "spans", "missing_targets")}
    return run


def _per_layer(report: Dict[str, Any], run: Dict[str, Any],
               passes: List[Dict[str, float]]) -> Dict[str, float]:
    """The per-layer metrics of a traced run, by the names BENCHMARK.json lists."""
    trace = report["trace"]
    wall_s = run["end_to_end"]["wall_s"]
    metrics: Dict[str, float] = {}
    for layer, entry in trace["layers"].items():
        metrics[f"{layer}.self_s"] = entry["share"] * wall_s
        metrics[f"{layer}.calls"] = entry["calls"]
    metrics.update(report["counts"])
    metrics["metrics.log.queries"] = trace["log_queries"]
    metrics.update(trace["phases"])
    metrics["host.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
    metrics["host.import_s"] = run["import_s"]
    metrics["host.calib_spin_s"] = run["calib_spin_s"]
    # How much slower the median pass ran than the undisturbed one: the
    # interference this run saw.  The traced passes saw it too, so their
    # overhead is taken against the median.
    metrics["host.disturbance_ratio"] = run["wall_median_s"] / wall_s
    metrics["trace.overhead_ratio"] = trace["span_wall_s"] / run["wall_median_s"]
    metrics["trace.profile_ratio"] = trace["profile_wall_s"] / run["wall_median_s"]
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_mape")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def driver_line(run: Dict[str, Any], trace: int) -> str:
    """The result line of the ``--workload`` form."""
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in run["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in run["end_to_end"].items()}
    return json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


# ---------------------------------------------------------------- the suite
def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    from repro.metrics.metadata import run_metadata

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    # Round-robin inside a rep, so a noisy minute spreads over every workload.
    for rep in range(args.reps):
        for name in names:
            print(f"[rep {rep + 1}/{args.reps}] {name} ...", file=sys.stderr, flush=True)
            runs[name].append(run_workload(name, args.seed, args.seconds, 0, args.smoke,
                                           args.out, args.inject_failure))
    workloads: Dict[str, Any] = {}
    failed_total = 0
    for name in names:
        print(f"[traced] {name} ...", file=sys.stderr, flush=True)
        traced = run_workload(name, args.seed, args.seconds, 1, args.smoke, args.out)
        every = runs[name] + [traced]
        attempted = sum(run["attempted"] for run in every) + len(every) - 1
        failures = [f for run in every for f in run["failures"]]
        failures += [
            f"run {index} differs from run 1 (counts or digests)"
            for index, run in enumerate(every[1:], start=2)
            if (run["counts"], run["digests"]) != (every[0]["counts"], every[0]["digests"])
        ]
        failed_total += len(failures)
        workloads[name] = {
            "end_to_end": {
                metric: _quartiles([run["end_to_end"][metric] for run in runs[name]])
                for metric in END_TO_END_UNITS
            },
            # Context, not a metric: what a pass took with the sandbox's
            # interference left in.
            "wall_median_s": _quartiles([run["wall_median_s"] for run in runs[name]]),
            "passes": [run["passes"] for run in runs[name]],
            "check_fail_share": len(failures) / attempted,
            "checks": {"attempted": attempted, "failed": len(failures), "failures": failures},
            "per_layer": traced["per_layer"],
            "counts": every[0]["counts"],
            "digests": every[0]["digests"],
            "trace": traced["trace"],
        }
    payload = run_metadata(
        SCHEMA, seed=args.seed, commit=_commit(), nproc=os.cpu_count(), reps=args.reps,
        run_seconds=args.seconds, smoke=args.smoke, node=platform.node(), workloads=workloads,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "BENCH_e2e.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(format_suite(payload))
    print(f"[written to {path}]")
    return 1 if failed_total else 0


def format_suite(payload: Dict[str, Any]) -> str:
    """Every metric by name, with its unit."""
    lines = []
    for name, entry in payload["workloads"].items():
        lines.append(f"== {name}")
        for metric, unit in END_TO_END_UNITS.items():
            q = entry["end_to_end"][metric]
            lines.append(f"  {metric:<42} {q['median']:>16.6g} {unit:<9} "
                         f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  n {q['n']}")
        checks = entry["checks"]
        lines.append(f"  {'check_fail_share':<42} {entry['check_fail_share']:>16.6g} {'ratio':<9} "
                     f"{checks['failed']} of {checks['attempted']} checks failed")
        for failure in checks["failures"]:
            lines.append(f"    FAILED: {failure}")
        for metric, value in entry["per_layer"].items():
            lines.append(f"  {metric:<42} {value:>16.6g} {per_layer_unit(metric)}")
    return "\n".join(lines)


# ------------------------------------------------------------------ compare
def _spread(q: Dict[str, float]) -> float:
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: do two suite results agree?

    ``B`` is judged against ``A``: *regressed* when its median is worse by
    more than the metric's bound, *unresolved* when either side's own
    quartile spread exceeds the bound (the runs cannot tell), otherwise
    *within-bound*.  Digests and work counts must be equal.
    """
    with open(SPEC_PATH) as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    with open(path_a) as handle_a, open(path_b) as handle_b:
        a, b = json.load(handle_a), json.load(handle_b)
    bad = 0
    print(f"A = {path_a} ({a.get('commit', '?')[:12]})   B = {path_b} ({b.get('commit', '?')[:12]})")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: missing from B")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, unit in END_TO_END_UNITS.items():
            qa, qb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            bound = spec[metric]["bound"]
            ratio = qb["median"] / qa["median"]
            worse = ratio - 1.0 if spec[metric]["better"] == "lower" else 1.0 - ratio
            if max(_spread(qa), _spread(qb)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "within-bound"
            bad += verdict == "regressed"
            print(f"{name:<16} {metric:<17} A {qa['median']:.6g} [{qa['q1']:.6g}, {qa['q3']:.6g}]  "
                  f"B {qb['median']:.6g} [{qb['q1']:.6g}, {qb['q3']:.6g}] {unit}  "
                  f"B/A {ratio:.3f} (bound {bound:.0%})  {verdict}")
        for kind in ("digests", "counts"):
            differing = sorted(k for k in set(wa[kind]) | set(wb[kind])
                               if wa[kind].get(k) != wb[kind].get(k))
            bad += bool(differing)
            print(f"{name:<16} {kind:<17} " + (f"DIFFERENT: {', '.join(differing)}" if differing
                                               else f"equal ({len(wa[kind])})"))
    return 1 if bad else 0


# --------------------------------------------------------------------- main
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: one run, traced or not, result as one JSON line")
    parser.add_argument("--reps", type=int, default=5, help="suite: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, schema check only")
    parser.add_argument("--out", default=DEFAULT_OUT, help="where results and traces are written")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--inject-failure", action="store_true",
                        help="make one check fail (tests the exit code)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(SPEC_PATH) as handle:
            args.seconds = float(json.load(handle)["run_seconds"])
    if args.child:
        return worker_main(args)
    if args.trace is None:
        return run_suite(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    run = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke,
                       args.out, args.inject_failure)
    for failure in run["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(driver_line(run, args.trace))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
