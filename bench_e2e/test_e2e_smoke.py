"""Smoke test of the end-to-end benchmark: output schema at a tiny size.

Runs the real command line (``run.py --smoke``: every workload, a few
simulated seconds each) and checks what it prints and writes against
``BENCHMARK.json``.  Timings are not asserted -- only names, units, types
and exit codes.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.export import validate_trace_jsonl

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seconds", "0.1", *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_e2e")
    done = _run("--seed", "11", "--reps", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr + done.stdout
    return out, json.loads((out / "BENCH_e2e.json").read_text()), done.stdout


def test_suite_metadata_and_every_metric_printed(suite):
    _, payload, printed = suite
    assert payload["schema"] == "repro-bench-e2e/1"
    assert payload["seed"] == 11 and payload["reps"] == 1 and payload["nproc"] >= 1
    for key in ("python", "machine", "commit"):
        assert payload[key]
    assert list(payload["workloads"]) == WORKLOADS
    for name, unit in {**END_TO_END, **PER_LAYER, "check_fail_share": "ratio"}.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b", printed, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_schema(suite, workload):
    out, payload, _ = suite
    entry = payload["workloads"][workload]
    assert set(entry["end_to_end"]) == set(END_TO_END)
    for quartiles in entry["end_to_end"].values():
        assert quartiles["n"] == 1 and quartiles["median"] > 0
    assert entry["check_fail_share"] == 0 and entry["checks"]["attempted"] > 0
    assert set(entry["per_layer"]) == set(PER_LAYER)
    for name, value in entry["per_layer"].items():
        assert NAME.match(name), name
        if PER_LAYER[name] in ("count", "B"):
            assert isinstance(value, int), (name, value)
    assert entry["digests"] and all(len(d) == 64 for d in entry["digests"].values())
    assert entry["trace"]["missing_targets"] == []
    spans = [r for r in validate_trace_jsonl(str(out / f"TRACE_{workload}.jsonl")) if r["type"] == "span"]
    assert spans[0]["name"] == workload and spans[0]["parent_id"] is None
    assert len(spans) == entry["trace"]["spans"] > 1


def test_result_line_and_failing_check_exit_code(suite):
    """The ``--workload`` form prints one JSON result line; a failed check exits non-zero."""
    done = _run("--workload", "grid100x_vector", "--seed", "11", "--trace", "0",
                "--out", str(suite[0]), "--inject-failure")
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] == 1 < result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END

    spec = importlib.util.spec_from_file_location("bench_e2e_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    traced = {"correct": True, "attempted": 1, "failed": 0,
              "per_layer": suite[1]["workloads"]["grid100x_vector"]["per_layer"]}
    metrics = json.loads(run.driver_line(traced, 1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
