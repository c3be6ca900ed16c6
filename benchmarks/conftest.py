"""Shared fixtures for the benchmark harness.

The heavy experiment matrix (5 dataflows x 3 strategies x 2 scaling
directions) is computed lazily and shared across every benchmark module in the
session, so Figures 5, 6 and 8 reuse the same runs exactly as the paper does.

Every benchmark writes its reproduced table/series to ``results/`` (next to
the repository root) in addition to printing it, so the reproduction output
survives pytest's output capturing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.experiments.figures import ExperimentMatrix

#: Directory where reproduced tables and series are written.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Committed seed-era engine benchmark numbers (see test_engine_performance.py).
PERF_BASELINE_PATH = Path(__file__).resolve().parent / "perf_baseline.json"

#: Machine-readable engine benchmark output, written at session end.
BENCH_ENGINE_PATH = RESULTS_DIR / "BENCH_engine.json"

#: Session-wide collector: benchmark name -> {"mean_s": ..., "stddev_s": ..., "rounds": ...}.
_ENGINE_BENCH_RESULTS: Dict[str, Dict[str, float]] = {}


def record_engine_bench(name: str, benchmark, events: Optional[int] = None) -> None:
    """Register one engine benchmark's timing stats for ``BENCH_engine.json``.

    Called by every test in ``test_engine_performance.py`` after the
    ``benchmark`` fixture has run; reads the mean/stddev pytest-benchmark
    computed so the JSON mirrors the human-readable table exactly.

    ``events`` is the number of simulated/processed events one round of the
    benchmark works through; when given, the entry carries an
    ``events_per_second`` throughput figure (``events / mean_s``) so absolute
    engine throughput is tracked alongside the relative speedups.
    """
    stats = getattr(benchmark, "stats", None)
    inner = getattr(stats, "stats", None) or stats
    if inner is None:  # --benchmark-disable: nothing to record
        return
    entry = {
        "mean_s": float(inner.mean),
        "stddev_s": float(inner.stddev),
        "rounds": int(getattr(inner, "rounds", 0) or len(getattr(inner, "data", []) or [])),
    }
    if events is not None and inner.mean:
        entry["events"] = int(events)
        entry["events_per_second"] = round(events / float(inner.mean), 1)
    _ENGINE_BENCH_RESULTS[name] = entry


def _load_perf_baseline() -> Dict[str, Dict[str, float]]:
    if not PERF_BASELINE_PATH.exists():
        return {}
    data = json.loads(PERF_BASELINE_PATH.read_text(encoding="utf-8"))
    return data.get("benchmarks", {})


def write_bench_engine_json() -> Path:
    """Write ``results/BENCH_engine.json`` from the collected benchmark stats.

    Every benchmark entry carries its own mean/stddev plus, when the committed
    seed baseline knows the benchmark, the baseline mean and the speedup
    against it — the perf trajectory future PRs compare against.
    """
    baseline = _load_perf_baseline()
    benchmarks = {}
    for name, stats in sorted(_ENGINE_BENCH_RESULTS.items()):
        entry = dict(stats)
        base = baseline.get(name)
        if base and base.get("mean_s"):
            entry["baseline_mean_s"] = base["mean_s"]
            entry["speedup_vs_seed"] = round(base["mean_s"] / stats["mean_s"], 3)
        benchmarks[name] = entry
    from repro.metrics.metadata import run_metadata

    payload = run_metadata("repro-bench-engine/1", benchmarks=benchmarks)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    BENCH_ENGINE_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return BENCH_ENGINE_PATH


@pytest.fixture()
def engine_bench_recorder():
    """The ``record_engine_bench`` callable, as a fixture.

    Tests must use this fixture rather than importing the function: pytest
    loads this conftest as a plugin under its own module name, so a direct
    ``from benchmarks.conftest import ...`` would populate a *second* module
    instance whose collector the session-finish hook never sees.
    """
    return record_engine_bench


def pytest_sessionfinish(session, exitstatus):
    """Persist the engine benchmark trajectory of a ``--benchmark-only`` session.

    ``results/BENCH_engine.json`` is tracked, and a plain ``pytest`` (tier-1)
    also collects this directory: recording is therefore deliberate — the CI
    ``engine-benchmarks`` job and anyone re-recording pass ``--benchmark-only``
    — and every other session leaves the working tree clean.
    """
    if _ENGINE_BENCH_RESULTS and session.config.getoption("benchmark_only", False):
        path = write_bench_engine_json()
        print(f"\n[engine benchmarks written to {path}]")


def write_result(name: str, text: str) -> Path:
    """Write a reproduced table to ``results/<name>.txt`` and echo it to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")
    return path


@pytest.fixture(scope="session")
def matrix() -> ExperimentMatrix:
    """The shared (dag x strategy x scaling) experiment matrix.

    Set ``REPRO_BENCH_FAST=1`` to shorten the post-migration observation
    window (useful for smoke runs; stabilization/recovery of DSM may then be
    reported as not-reached).
    """
    fast = os.environ.get("REPRO_BENCH_FAST", "0") == "1"
    post = 240.0 if fast else 540.0
    shared = ExperimentMatrix(migrate_at_s=90.0, post_migration_s=post, seed=2018)
    # Parallel prefetch: cells are hermetic, so the whole matrix fans out
    # across processes with bit-identical figure output.  Default: one worker
    # per core whenever the machine has more than one (a full benchmark
    # session reads every cell anyway, so prefetching all 30 is never wasted
    # work there).  REPRO_BENCH_JOBS overrides: 0 = one worker per core,
    # 1 = serial in-process computation, N>1 = exactly N workers.
    raw = os.environ.get("REPRO_BENCH_JOBS")
    try:
        jobs: Optional[int] = int(raw) if raw is not None else None
    except ValueError:
        jobs = None  # invalid value = auto (REPRO_SIM_SHARDS, which sizes a run, refuses one)
    if jobs is not None:
        if jobs > 1:
            shared.prefetch(processes=jobs)
        elif jobs != 1:  # 0 or negative: explicit auto, one worker per core
            shared.prefetch(processes=None)
    elif (os.cpu_count() or 1) > 1:
        shared.prefetch(processes=None)
    return shared
