"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    run_elastic_experiment,
    run_migration_experiment,
    run_multi_experiment,
    run_predictive_experiment,
    run_rescale_experiment,
)
from repro.experiments.figures import ExperimentMatrix

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

# sha256 of each command's whole stdout: a change that moves one changed what
# the command prints for a valid input.
STDOUT_SHA256 = {
    "experiment": "7e7bef1a9ba9eae0f5eff0b075c1158d4af8b4231d228c9132b4a002cf2d020d",
    "figure": "687e914cdf567cfdba8b01e3f4edd3c46859d76f72c73ebbb599398a5c5b768a",
    "multi": "c68f44d175cbd3515f85bcdeb24a929fc66be9093aee8d2354ea040138621cf3",
    # `chaos`, `chaos.verdict`, `rescale` and `predict` print their comparison
    # table at each column's own precision (`compare.py::_CELLS`: `restore_s` /
    # `drain_s` 2 places, `mean_latency_s` 3, `cost` 4); only those table rows
    # differ from the one-decimal text pinned before (`cost 0.1` -> `0.1219`).
    "chaos": "a11ad72f49f6966046091aa2b67f2eb30b162b40be82cf6bdc0af2669a6d47a0",
    # `repro chaos --duration 450 --storms 2`, the storm CI rides: a verdict.
    "chaos.verdict": "5a129bec8146b70f290b9f766a0376c243307660340313b2670358f150df1e80",
    "describe": "6b41e316f21c050852918023d65ab92aae0e005c0afda2aa776ddeecdd3a289c",
    "elastic": "ae4e7308e4b0e2010d21877ad0d2b807da56fd4468cbb08343c375ce037f756b",
    "rescale": "8e1759ef0ac4d9f99f7d13a55f46cb456bd287e05327d18c402833d78c5bed2f",
    "predict": "b9ce060984861b2cdcf94027eb970b6b6e87ba0c3a9926ba20b96853d1f133e6",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_describe_arguments(self):
        args = build_parser().parse_args(["describe", "grid"])
        assert args.command == "describe"
        assert args.dag == "grid"

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.dag == "grid"
        assert args.strategy == "ccr"
        assert args.scaling == "in"
        assert args.migrate_at == 90.0

    def test_unknown_dag_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["describe", "unknown-dag"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig42"])

    def test_shard_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["shard"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'shard'" in capsys.readouterr().err


class TestCommands:
    def test_describe_prints_topology(self, capsys):
        exit_code = main(["describe", "star"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "hub" in output
        assert "spoke_in_a" in output

    @pytest.mark.parametrize("argv", [
        ["describe", "grid"],
        ["elastic", "--dag", "linear", "--duration", "300"],
        ["rescale", "--dag", "linear", "--duration", "300"],
        ["predict", "--dag", "linear", "--duration", "300", "--policies", "reactive,lookahead"],
    ], ids=lambda argv: argv[0])
    def test_stdout_is_pinned(self, capsys, argv):
        exit_code = main(argv)
        assert exit_code == 0
        assert _sha256(capsys.readouterr().out) == STDOUT_SHA256[argv[0]]

    @pytest.mark.parametrize("argv, stem", [
        (["table1"], "table1_resources"),
        (["statestore"], "statestore_micro"),
        (["fig5", "--scaling", "in"], "fig5_scale_in"),
        (["ablation"], "ablation_init_resend"),
    ])
    def test_figure_prints_the_committed_file_byte_for_byte(self, capsys, argv, stem):
        exit_code = main(["figure", *argv])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert (RESULTS_DIR / f"{stem}.txt").read_text(encoding="utf-8") in output

    def test_figure_all_writes_what_it_prints(self, capsys, tmp_path, monkeypatch):
        """``all --write DIR`` over a two-entry table (the whole one is compared
        with ``results/`` on the session matrix, ``tests/test_paper_figures.py``)."""
        from repro import cli

        stems = ("table1_resources", "statestore_micro")
        monkeypatch.setattr(cli, "PRODUCERS", {stem: cli.PRODUCERS[stem] for stem in stems})
        exit_code = main(["figure", "all", "--write", str(tmp_path / "out")])
        output = capsys.readouterr().out
        assert exit_code == 0
        committed = {f"{stem}.txt": (RESULTS_DIR / f"{stem}.txt").read_text(encoding="utf-8") for stem in stems}
        written = {path.name: path.read_text(encoding="utf-8") for path in (tmp_path / "out").iterdir()}
        assert written == committed
        assert output == "\n".join(committed.values())

    @pytest.mark.parametrize("argv, message", [
        (["fig5", "--dags", "nope"], "unknown dataflow(s) ['nope']"),
        (["fig6", "--duration", "-5"], "post_migration_s must be positive, got -5"),
        (["fig6", "--dags", "linear", "--migrate-at", "5", "--duration", "5"], "the run ended inside"),
        (["fig5", "--write", "out"], "--write goes with `figure all`"),
        # It used to be clamped to one process and run inline without a word.
        (["fig5", "--jobs", "-3"], "--jobs must be >= 0 (0 = one per CPU)"),
    ])
    def test_figure_bad_inputs_fail_loudly(self, capsys, argv, message):
        exit_code = main(["figure", *argv])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("repro figure: error: ") and message in captured.err
        assert captured.out == ""

    def test_experiment_command_runs_quickly_with_small_window(self, capsys):
        exit_code = main([
            "experiment", "--dag", "linear", "--strategy", "ccr", "--scaling", "in",
            "--migrate-at", "30", "--duration", "120", "--seed", "5",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert _sha256(output) == STDOUT_SHA256["experiment"]
        assert "restore_s" in output
        assert "Protocol phases" in output
        # Which engine ran it, by events and by simulated seconds (30 s + 120 s).
        line = re.search(
            r"^engine: stepper (\d+) % / kernel \d+ % of \d+ events, (\d+) % / \d+ % of 150 s: "
            r".*source-paused \d+", output, re.M,
        )
        assert line and int(line[1]) >= 85 and int(line[2]) >= 60

    @pytest.mark.parametrize("argv, message", [
        (["--migrate-at", "-5"], "migrate_at_s must be positive, got -5"),
        (["--duration", "0"], "post_migration_s must be positive, got 0"),
    ])
    def test_experiment_bad_inputs_fail_loudly(self, capsys, argv, message):
        # --migrate-at -5 used to migrate a never-warmed pipeline at t = 0.
        exit_code = main(["experiment", "--dag", "linear", "--strategy", "dcr", *argv])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("repro experiment: error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        # The storm starts at 150 s: this run used to declare a winner at 0.0s vs 0.0s.
        (["--duration", "100"], "storm_start_s must be in [0, duration_s=100), got 150"),
        (["--storm-start", "-10"], "storm_start_s must be in [0, duration_s=600), got -10"),
        (["--storm-spacing", "-1"], "storm_spacing_s must be >= 0, got -1"),
        (["--notice", "-5"], "notice_s must be >= 0, got -5"),
        # Used to deploy, then fail inside the storm with "count must be positive".
        (["--storms", "0"], "storm_count must be >= 1, got 0"),
    ])
    def test_chaos_bad_inputs_fail_loudly(self, capsys, argv, message):
        exit_code = main(["chaos", *argv])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("repro chaos: error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, surge", [
        ("predict", "-1"),  # used to die with a ValueError traceback
        ("predict", "0"),  # these two used to run a rate *drop* and exit 0
        ("multi", "0"),
    ])
    def test_a_surge_that_is_no_surge_fails_loudly(self, capsys, command, surge):
        exit_code = main([command, "--surge", surge])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err == (
            f"repro {command}: error: surge_multiplier must be > 1 (otherwise there is no surge)\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        # Both used to die with a ValueError traceback (exit 1).
        (["multi", "--dags", ","], "dags needs at least one dataflow"),
        (["predict", "--policies", ","], "policies needs at least one forecast policy"),
    ])
    def test_an_empty_list_fails_loudly(self, capsys, argv, message):
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err == f"repro {argv[0]}: error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("run", [run_predictive_experiment, run_multi_experiment])
    def test_the_surge_runners_refuse_a_multiplier_of_one_by_name(self, run):
        with pytest.raises(ValueError, match="surge_multiplier must be > 1"):
            run(surge_multiplier=1.0)

    @pytest.mark.parametrize("argv, message", [
        (["rescale", "--duration", "0"], "duration_s must be positive, got 0"),
        (["elastic", "--duration", "0"], "duration_s must be positive, got 0"),
        (["predict", "--policies", "bogus"], "policies: unknown forecast policy(s) ['bogus']"),
        (["predict", "--policies", "reactive,reactive"], "policies names ['reactive'] more than once"),
        (["multi", "--priorities", "1,x"], "--priorities must be comma-separated integers"),
    ])
    def test_bad_inputs_are_reported_in_one_place(self, capsys, argv, message):
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(f"repro {argv[0]}: error: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_chaos_without_a_fired_eviction_has_no_verdict(self, capsys):
        # The one eviction is jittered past the end of the run.
        exit_code = main(["chaos", "--duration", "100", "--storm-start", "99", "--storms", "1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert _sha256(output) == STDOUT_SHA256["chaos"]
        assert "unfired evict" in output
        assert "No verdict: no eviction fired inside the run." in output
        assert "wins" not in output and "did not pay for itself" not in output

    def test_chaos_verdict_is_pinned(self, capsys):
        exit_code = main(["chaos", "--duration", "450", "--storms", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert _sha256(output) == STDOUT_SHA256["chaos.verdict"]
        assert "Notice-aware recovery wins on both axes: " in output
        # The table shows what the verdict compares: the bill used to read
        # `0.1` in both rows.
        assert "$0.1219 vs $0.1268 bill" in output
        assert re.search(r"^notice +0 +2 +0\.00 +68\.67 +407 +0 +0\.1219 *$", output, re.M)
        assert re.search(r"^oblivious +2 +0 +52\.24 +- +413 +1 +0\.1268 *$", output, re.M)

    def test_figure_fig5_with_subset_of_dags(self, capsys):
        exit_code = main([
            "figure", "fig5", "--scaling", "in", "--dags", "linear",
            "--migrate-at", "30", "--duration", "150", "--seed", "5",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert _sha256(output) == STDOUT_SHA256["figure"]
        assert "linear" in output
        assert "dsm" in output and "ccr" in output
        # One scraped line a cell says which engine ran it, and why not the other.
        share = {
            cell: int(stepper)
            for cell, stepper in re.findall(r"^(\S+) engine: stepper (\d+) % / kernel", output, re.M)
        }
        assert set(share) == {f"linear/{strategy}/scale-in" for strategy in ("dsm", "dcr", "ccr")}
        assert share["linear/dcr/scale-in"] >= 85 and share["linear/ccr/scale-in"] >= 85
        assert re.search(r"^linear/dcr/scale-in engine: .* events, .* s: .*source-paused \d+", output, re.M)


class TestRunnerInputs:
    """Each input rule lives in the runner that receives the value: it raises
    ``ValueError`` naming the parameter before anything is simulated."""

    @pytest.mark.parametrize("run, dataflow", [
        (run_elastic_experiment, {"dag": "linear"}),
        (run_rescale_experiment, {"dag": "linear"}),
        (run_predictive_experiment, {"dag": "linear"}),
        (run_multi_experiment, {"dags": ["linear"]}),
    ], ids=lambda value: getattr(value, "__name__", ""))
    @pytest.mark.parametrize("duration_s", [0.0, -5.0])
    def test_a_run_without_time_is_refused_by_name(self, run, dataflow, duration_s):
        # Each used to return a run whose clock never left t = 0, or empty results.
        with pytest.raises(ValueError, match=f"duration_s must be positive, got {duration_s:g}"):
            run(**dataflow, duration_s=duration_s)

    def test_unknown_names_are_value_errors(self):
        # Both used to surface as a KeyError from the topology / policy registry.
        with pytest.raises(ValueError, match=r"dags: unknown dataflow\(s\) \['atlantis'\]"):
            run_multi_experiment(dags=["atlantis"])
        with pytest.raises(ValueError, match=r"policies: unknown forecast policy\(s\) \['bogus'\]"):
            run_predictive_experiment(policies=["bogus"])
        with pytest.raises(ValueError, match=r"dags: unknown dataflow\(s\) \['traffic-keyed'\]"):
            ExperimentMatrix(dags=["traffic-keyed"])
        with pytest.raises(ValueError, match=r"strategies: unknown migration strategy\(s\) \['bogus'\]"):
            ExperimentMatrix(strategies=["dsm", "bogus"])
        with pytest.raises(ValueError, match="post_migration_s must be positive, got -5"):
            ExperimentMatrix(post_migration_s=-5.0)

    @pytest.mark.parametrize("run, parameter, noun", [
        (run_elastic_experiment, "forecast_policy", "forecast policy"),
        (run_elastic_experiment, "strategy", "migration strategy"),
        (run_elastic_experiment, "dag", "dataflow"),
        (run_elastic_experiment, "profile", "rate profile"),
        (run_migration_experiment, "strategy", "migration strategy"),
        (run_migration_experiment, "dag", "dataflow"),
        (run_predictive_experiment, "profile", "rate profile"),
    ], ids=lambda value: getattr(value, "__name__", value))
    def test_a_runner_refuses_an_unknown_name_before_deploying(self, monkeypatch, run, parameter, noun):
        # Each used to raise a KeyError from its registry's lookup.
        from repro.experiments import elastic, scenarios

        deployed = []
        for module in (elastic, scenarios):
            monkeypatch.setattr(module, "deploy_baseline", lambda *args, **kwargs: deployed.append(args))
        with pytest.raises(ValueError, match=re.escape(f"{parameter}: unknown {noun}(s) ['bogus']")):
            run(**{parameter: "bogus"})
        assert deployed == []

    def test_a_repeated_policy_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"policies names \['reactive'\] more than once"):
            run_predictive_experiment(policies=["reactive", "ewma", "reactive"])


class TestMultiCommand:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["multi"])
        assert args.command == "multi"
        assert args.dags == "traffic,grid"
        assert args.strategy == "ccr"
        assert args.budget is None
        assert not args.placement_only
        assert not args.no_baseline

    def test_unknown_dag_rejected(self, capsys):
        from repro.cli import main

        exit_code = main(["multi", "--dags", "traffic,atlantis"])
        assert exit_code == 2
        assert "atlantis" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-2"])
    def test_zero_budget_fails_loudly(self, capsys, budget):
        # It used to surface as a ValueError traceback from the arbiter.
        exit_code = main(["multi", "--budget", budget])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err == f"repro multi: error: budget_slots must be positive, got {budget}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("budget", ["1", "33"])
    def test_a_budget_below_the_colocated_fleet_fails_loudly(self, capsys, budget):
        # It used to die with a ValueError traceback (exit 1): the default
        # traffic + grid tenants need 34 provisioned slots.
        exit_code = main(["multi", "--budget", budget])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err == (
            "repro multi: error: tenants need 34 worker slots (17 D2 VMs = 34 provisioned "
            f"slots) but the fleet budget is {budget}\n"
        )
        assert captured.out == ""

    def test_priorities_must_match_dag_count(self, capsys):
        from repro.cli import main

        exit_code = main(["multi", "--dags", "traffic,linear", "--priorities", "1"])
        assert exit_code == 2
        assert "priorities" in capsys.readouterr().err

    def test_multi_command_runs_end_to_end(self, capsys):
        from repro.cli import main

        exit_code = main([
            "multi", "--dags", "linear,diamond", "--strategy", "ccr",
            "--duration", "300", "--surge", "2", "--seed", "7",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert _sha256(output) == STDOUT_SHA256["multi"]
        assert "Tenants" in output
        assert "Arbitration" in output
        assert "peak committed slots" in output
        assert "vs" in output  # private-baseline comparison columns
        # Tenants share a simulator: every tick goes to the kernel, by name.
        assert re.search(r"^engine: stepper 0 % / kernel 100 % of \d+ events, 0 % / 100 % of 300 s: shared-simulator \d+$",
                         output, re.M)

    def test_keyed_dags_accepted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["elastic", "--dag", "traffic-keyed"])
        assert args.dag == "traffic-keyed"
        args = build_parser().parse_args(["rescale", "--dag", "grid-keyed"])
        assert args.dag == "grid-keyed"

    def test_figure_jobs_flag(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(["figure", "fig5"]).jobs == 1
        assert build_parser().parse_args(["figure", "fig5", "--jobs", "0"]).jobs == 0
        with pytest.raises(ValueError, match="processes must be >= 0"):
            ExperimentMatrix().prefetch(processes=-3)
