"""Tests for runtime configuration objects and strategy configuration factories."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

from repro.engine.config import ReliabilityConfig, RuntimeConfig, TimingConfig


class TestReliabilityConfig:
    def test_defaults_match_storm(self):
        config = ReliabilityConfig()
        assert config.ack_timeout_s == 30.0
        assert not config.ack_all_events
        assert config.periodic_checkpoint_interval_s is None
        assert config.max_spout_pending is not None
        assert config.throttled_ticks_generate_backlog

    def test_dsm_factory_enables_acking_and_periodic_checkpoints(self):
        config = RuntimeConfig.for_dsm()
        assert config.reliability.ack_all_events
        assert config.reliability.periodic_checkpoint_interval_s == 30.0

    def test_dcr_factory_disables_acking_and_periodic_checkpoints(self):
        config = RuntimeConfig.for_dcr()
        assert not config.reliability.ack_all_events
        assert config.reliability.periodic_checkpoint_interval_s is None

    def test_ccr_runs_on_the_dcr_config(self):
        # Capture comes with CCR's broadcast PREPARE, not from a config flag.
        from repro.core.strategy import strategy_by_name

        assert strategy_by_name("ccr").runtime_config(seed=7) == RuntimeConfig.for_dcr(seed=7)
        assert not hasattr(RuntimeConfig, "for_ccr")

    def test_zero_periodic_interval_rejected(self):
        # Not a silent "off": that is None.
        with pytest.raises(ValueError, match="periodic_checkpoint_interval_s"):
            ReliabilityConfig(ack_all_events=True, periodic_checkpoint_interval_s=0.0)

    def test_negative_periodic_interval_rejected(self):
        # Refused here, not when start() arms the timer.
        with pytest.raises(ValueError, match="periodic_checkpoint_interval_s"):
            ReliabilityConfig(ack_all_events=True, periodic_checkpoint_interval_s=-5.0)

    def test_positive_periodic_interval_accepted(self):
        config = ReliabilityConfig(ack_all_events=True, periodic_checkpoint_interval_s=0.5)
        assert config.periodic_checkpoint_interval_s == 0.5

    def test_factories_propagate_seed(self):
        assert RuntimeConfig.for_dsm(seed=5).seed == 5
        assert RuntimeConfig.for_dcr(seed=6).seed == 6


class TestTimingConfig:
    def test_defaults_are_calibrated_to_the_paper(self):
        timing = TimingConfig()
        assert timing.rebalance_command_mean_s == pytest.approx(7.26)
        assert timing.statestore_per_byte_latency_s == pytest.approx(5.0e-7)
        assert timing.quiesce_delay_s > 0
        assert timing.worker_start_base_s > 0

    def test_statestore_calibration_matches_2000_events_in_100ms(self):
        timing = TimingConfig()
        size_bytes = 2000 * 100
        latency_ms = (timing.statestore_base_latency_s + size_bytes * timing.statestore_per_byte_latency_s) * 1000
        assert latency_ms == pytest.approx(100.0, rel=0.05)


class TestRuntimeConfigCopy:
    def test_copy_is_deep_for_nested_configs(self):
        original = RuntimeConfig.for_dsm(seed=3)
        clone = original.copy()
        clone.reliability.ack_all_events = False
        clone.timing.rebalance_command_mean_s = 1.0
        clone.seed = 99
        assert original.reliability.ack_all_events
        assert original.timing.rebalance_command_mean_s == pytest.approx(7.26)
        assert original.seed == 3

    def test_copy_preserves_values(self):
        original = RuntimeConfig.for_dsm(seed=11)
        clone = original.copy()
        assert clone.seed == 11
        assert clone.reliability.periodic_checkpoint_interval_s == 30.0
        assert clone.util_vm_role == original.util_vm_role


class TestValidation:
    """Values that would silently misconfigure the spout are refused at construction."""

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_spout_pending_below_one_is_rejected(self, value):
        # 0 used to read as "no limit" -- the one value that should stall the spout.
        with pytest.raises(ValueError, match="max_spout_pending"):
            ReliabilityConfig(max_spout_pending=value)

    def test_max_spout_pending_none_means_unlimited(self):
        assert ReliabilityConfig(max_spout_pending=None).max_spout_pending is None
        assert ReliabilityConfig(max_spout_pending=1).max_spout_pending == 1

    @pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf])
    def test_an_ack_timeout_that_never_fires_is_rejected(self, value):
        # NaN used to pass the ``<= 0`` test.
        with pytest.raises(ValueError, match="ack_timeout_s must be positive and finite"):
            ReliabilityConfig(ack_timeout_s=value)

    @pytest.mark.parametrize("field, value", [
        ("checkpoint_handling_s", -1.0),
        ("checkpoint_handling_s", math.inf),
        ("statestore_base_latency_s", math.nan),
        ("statestore_per_byte_latency_s", -5.0e-7),
        # An idle profile would re-arm its source at the same instant forever.
        ("source_idle_recheck_s", 0.0),
        ("source_idle_recheck_s", math.nan),
    ])
    def test_a_delay_that_is_no_delay_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TimingConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("checkpoint_handling_s", math.nan),
        ("statestore_base_latency_s", -1.0),
        ("statestore_per_byte_latency_s", math.inf),
    ])
    def test_a_delay_assigned_after_construction_is_refused_at_deploy(self, field, value):
        """Timing is configured by assignment: the runtime checks the fields
        it hands the kernel's unchecked fast path where it reads them."""
        from repro.dataflow import topologies
        from repro.engine.runtime import TopologyRuntime
        from repro.sim import Simulator
        from tests.conftest import build_cluster

        config = RuntimeConfig.for_dcr()
        setattr(config.timing, field, value)
        sim = Simulator()
        with pytest.raises(ValueError, match=field.removeprefix("statestore_")):
            TopologyRuntime(topologies.linear(), build_cluster(sim), sim=sim, config=config).deploy()

    @pytest.mark.parametrize("value", [0.0, -100.0])
    def test_non_positive_burst_rate_is_rejected(self, value):
        with pytest.raises(ValueError, match="source_max_burst_rate"):
            TimingConfig(source_max_burst_rate=value)

    def test_copy_revalidates_mutated_values(self):
        config = RuntimeConfig.for_dsm()
        config.reliability.max_spout_pending = 0
        with pytest.raises(ValueError, match="max_spout_pending"):
            config.copy()

    def test_sink_batch_flag_is_gone(self):
        assert not hasattr(RuntimeConfig(), "sink_batch_max")

    def test_unknown_fields_cannot_be_assigned(self):
        # The configs are set by attribute assignment everywhere; a misspelt
        # or removed flag must fail, not silently configure nothing.
        import dataclasses

        for config in (RuntimeConfig.for_dsm(seed=4), ReliabilityConfig(), TimingConfig()):
            with pytest.raises(AttributeError):
                config.columnar_log = False
            with pytest.raises(AttributeError):
                config.batch_steping = True
            assert dataclasses.replace(config) == config
        config = RuntimeConfig.for_dsm(seed=4)
        config.batch_stepping = True
        assert config.copy() == config


class TestEngineSwitches:
    """The engine picks its own path: one switch is left, and it defaults on."""

    def test_runtime_config_fields_are_exactly_these(self):
        import dataclasses

        fields = {field.name: field.type for field in dataclasses.fields(RuntimeConfig)}
        # A new field lands here on purpose; a new *bool* is a new mode to
        # test and benchmark every other mode against.
        assert set(fields) == {
            "reliability", "timing", "seed", "util_vm_role", "batch_stepping",
        }
        switches = {name for name, kind in fields.items() if kind in (bool, "bool")}
        assert switches == {"batch_stepping"}
        # ... kept for the equivalence suites' per-event reference and because
        # bench_e2e assigns it; nothing a user runs turns it off.
        assert RuntimeConfig().batch_stepping is True
        assert RuntimeConfig.for_dsm().copy().batch_stepping is True

    def test_deleted_flags_are_gone_from_the_source_tree(self):
        import dataclasses

        from repro.cli import build_parser
        from repro.sim.shard import ShardSpec

        for name in ("batch_vectorize", "keyed_network_jitter", "telemetry"):
            with pytest.raises(AttributeError):
                setattr(RuntimeConfig(), name, False)
        with pytest.raises(AttributeError):
            ReliabilityConfig().capture_on_prepare = True
        assert len(dataclasses.fields(ReliabilityConfig)) == 5
        assert "batch_stepping" not in {field.name for field in dataclasses.fields(ShardSpec)}
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "--classic"])
        src = Path(__file__).resolve().parent.parent / "src"
        # "classic" as an option or attribute, not the English word.
        gone = (
            "batch_vectorize", "keyed_network_jitter", "--classic", ".classic", "jitter_sampler",
            "capture_on_prepare", "for_ccr",
        )
        mentions = [
            (str(path.relative_to(src)), name) for path in sorted(src.rglob("*.py"))
            for name in gone if name in path.read_text(encoding="utf-8")
        ]
        assert mentions == []


class TestOneBenchmarkSystem:
    """``bench_e2e`` gates speed, ``figures.PRODUCERS`` produces ``results/``,
    ``tests/`` holds the paper-shape assertions: nothing else does any of it."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_the_benchmarks_directory_stays_deleted(self):
        assert not (self.ROOT / "benchmarks").exists()
        assert not (self.ROOT / "results" / "BENCH_engine.json").exists()

    def test_no_test_takes_a_wall_clock_benchmark_fixture(self):
        offenders = []
        for path in sorted((self.ROOT / "tests").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [arg.arg for arg in node.args.args + node.args.kwonlyargs]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders += [(path.name, name) for name in names if "benchmark" in name]
        assert offenders == []

    def test_results_holds_exactly_what_the_producer_table_renders(self):
        from repro.experiments.figures import PRODUCERS

        committed = {path.stem for path in (self.ROOT / "results").glob("*.txt")}
        assert committed == set(PRODUCERS)  # no orphan file, no producer without its record
