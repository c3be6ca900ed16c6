"""Smoke tests for the runnable examples.

The examples are part of the public deliverable, so the suite checks that they
import cleanly and that the fast ones run end to end.  The slower comparison
example is only imported (its full run is exercised by the benchmark harness
through the same drivers).
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    """Import an example script as a module without executing its __main__ block."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"examples.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = [
    "quickstart.py",
    "compare_strategies_grid.py",
    "elastic_traffic_scaling.py",
    "consolidation_cost_study.py",
]


class TestExamples:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_imports_and_has_main(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None))

    def test_quickstart_runs_end_to_end(self, capsys):
        module = load_example("quickstart.py")
        module.main()
        output = capsys.readouterr().out
        assert "Paper §4 metrics" in output
        assert "Events lost:               0" in output
        assert "replayed:           0" in output

    #: sha256 of the study's stdout per ``--scheduler`` choice: the placement
    #: each choice computes moves every channel count, cost and metric line.
    CONSOLIDATION_STDOUT_SHA256 = {
        "packing": "a3ff19f87f299ef97632d46f38246b9cb423e6f72734bd4546494f72c7e63574",
        "roundrobin": "e5a29fb908ae840aabd6822214c9e06fb543fea927a111e6a7d579f8bfe9a53a",
    }

    @pytest.mark.parametrize("scheduler", sorted(CONSOLIDATION_STDOUT_SHA256))
    def test_consolidation_study_runs_end_to_end(self, capsys, monkeypatch, scheduler):
        module = load_example("consolidation_cost_study.py")
        monkeypatch.setattr(sys, "argv", ["consolidation_cost_study.py", "--scheduler", scheduler])
        module.main()
        output = capsys.readouterr().out
        assert "before (over-provisioned)" in output
        assert "after (consolidated)" in output
        assert "without losing or replaying a single message" in output
        digest = hashlib.sha256(output.encode()).hexdigest()
        assert digest == self.CONSOLIDATION_STDOUT_SHA256[scheduler]
