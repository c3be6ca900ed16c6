"""Shared fixtures for the test suite.

Most engine/strategy tests run against a small three-task dataflow on a tiny
cluster with an accelerated timing model so individual tests stay fast while
exercising the same code paths as the full paper experiments.
"""

from __future__ import annotations

import inspect
import os
import textwrap
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cluster.cloud import CloudProvider, Cluster
from repro.cluster.vm import D2, D3
from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.graph import Dataflow
from repro.elastic.monitor import MonitorSample
from repro.engine.config import ReliabilityConfig, RuntimeConfig, TimingConfig
from repro.engine.runtime import TopologyRuntime
from repro.experiments.figures import ExperimentMatrix
from repro.sim import Simulator


def fast_timing() -> TimingConfig:
    """Timing model scaled down so migration tests complete in a few simulated seconds."""
    return TimingConfig(
        checkpoint_handling_s=0.001,
        rebalance_command_mean_s=1.0,
        rebalance_command_stddev_s=0.05,
        worker_start_base_s=0.5,
        worker_start_spread_base_s=0.5,
        worker_start_spread_per_executor_s=0.05,
        loaded_start_multiplier=1.5,
        loaded_start_per_executor_s=0.1,
        source_max_burst_rate=200.0,
        quiesce_delay_s=0.02,
    )


def fast_config(strategy: str = "dcr", seed: int = 7, ack_timeout_s: float = 5.0) -> RuntimeConfig:
    """Runtime configuration for a strategy with the accelerated timing model."""
    if strategy == "dsm":
        reliability = ReliabilityConfig(
            ack_all_events=True,
            ack_timeout_s=ack_timeout_s,
            periodic_checkpoint_interval_s=5.0,
            capture_on_prepare=False,
            max_spout_pending=64,
        )
    elif strategy == "ccr":
        reliability = ReliabilityConfig(ack_all_events=False, capture_on_prepare=True)
    else:
        reliability = ReliabilityConfig(ack_all_events=False, capture_on_prepare=False)
    return RuntimeConfig(reliability=reliability, timing=fast_timing(), seed=seed)


def tiny_dataflow(rate: float = 10.0, latency_s: float = 0.02) -> Dataflow:
    """A three-task chain (source -> a -> b -> c -> sink) with a stateful middle task."""
    builder = TopologyBuilder("tiny")
    builder.add_source("source", rate=rate)
    builder.add_task("a", parallelism=1, latency_s=latency_s, stateful=True)
    builder.add_task("b", parallelism=2, latency_s=latency_s, stateful=True)
    builder.add_task("c", parallelism=1, latency_s=latency_s)
    builder.add_sink("sink")
    builder.chain("source", "a", "b", "c", "sink")
    return builder.build()


def fanout_dataflow(rate: float = 10.0, latency_s: float = 0.02) -> Dataflow:
    """A fan-out/fan-in dataflow used for barrier-alignment and routing tests."""
    builder = TopologyBuilder("fanout")
    builder.add_source("source", rate=rate)
    builder.add_task("split", parallelism=1, latency_s=latency_s, stateful=True)
    builder.add_task("left", parallelism=2, latency_s=latency_s)
    builder.add_task("right", parallelism=1, latency_s=latency_s, stateful=True)
    builder.add_task("merge", parallelism=2, latency_s=latency_s, stateful=True)
    builder.add_sink("sink")
    builder.connect("source", "split")
    builder.fan_out("split", ["left", "right"])
    builder.fan_in(["left", "right"], "merge")
    builder.connect("merge", "sink")
    return builder.build()


def build_cluster(sim: Simulator, worker_vms: int = 3, util: bool = True) -> Cluster:
    """A cluster with an optional util VM (source/sink host) plus D2 worker VMs."""
    provider = CloudProvider(sim)
    cluster = Cluster()
    if util:
        util_vm = provider.provision(D3, 1, name_prefix="util")[0]
        util_vm.tags["role"] = "util"
        cluster.add_vm(util_vm)
    for vm in provider.provision(D2, worker_vms, name_prefix="w"):
        cluster.add_vm(vm)
    return cluster


def make_runtime(
    dataflow: Dataflow = None,
    strategy: str = "dcr",
    worker_vms: int = 3,
    seed: int = 7,
) -> TopologyRuntime:
    """Build a deployed-but-not-started runtime for tests."""
    sim = Simulator()
    dataflow = dataflow if dataflow is not None else tiny_dataflow()
    cluster = build_cluster(sim, worker_vms=worker_vms)
    runtime = TopologyRuntime(dataflow, cluster, sim=sim, config=fast_config(strategy, seed=seed))
    runtime.deploy()
    return runtime


def monitor_sample(
    time=0.0, offered=8.0, latency=None, queued=0, source_backlog=0, paused=False
) -> MonitorSample:
    """A synthetic monitor sample for control-rule unit tests."""
    return MonitorSample(
        time=time,
        input_rate=offered,
        offered_rate=offered,
        output_rate=offered,
        avg_latency_s=latency,
        queue_backlog=queued,
        source_backlog=source_backlog,
        sources_paused=paused,
    )


@pytest.fixture(scope="session", autouse=True)
def results_are_read_only():
    """The suite compares against ``results/`` and never writes there: the
    record moves only through ``repro figure all --write results/``, so a
    tier-1 run leaves ``git status`` as it found it."""
    results = Path(__file__).resolve().parent.parent / "results"

    def snapshot():
        return {path.name: path.stat().st_mtime_ns for path in results.iterdir()}

    before = snapshot()
    yield
    assert snapshot() == before, "a test wrote under results/"


@pytest.fixture(scope="session")
def matrix() -> ExperimentMatrix:
    """The paper's (dag x strategy x scaling) matrix at the committed timing,
    shared by every figure test of the session.

    The five DSM scale-in cells run in-process, so ``matrix.run`` hands their
    live runtimes to the at-least-once invariants; the other 25 are hermetic
    summaries, fanned out across the cores when the box has more than one
    (bit-identical to the serial computation).
    """
    shared = ExperimentMatrix(migrate_at_s=90.0, post_migration_s=540.0, seed=2018)
    for dag in shared.dags:
        shared.cell(dag, "dsm", "in")
    if (os.cpu_count() or 1) > 1:
        shared.prefetch(processes=None)
    return shared


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def tiny_df() -> Dataflow:
    """The small chain dataflow."""
    return tiny_dataflow()


@pytest.fixture
def fanout_df() -> Dataflow:
    """The small fan-out/fan-in dataflow."""
    return fanout_dataflow()


@pytest.fixture
def deployed_runtime() -> TopologyRuntime:
    """A deployed (not started) runtime for the tiny dataflow under DCR config."""
    return make_runtime()


def mutant(cls, method, old, new):
    """``cls.method`` recompiled after a seeded text replacement."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, method)))
    assert old in source, f"mutation site {old!r} is gone from {cls.__name__}.{method}"
    namespace = dict(vars(inspect.getmodule(cls)))
    exec(compile(source.replace(old, new), f"<mutant {method}>", "exec"), namespace)
    return namespace[method]


@contextmanager
def patched(cls, method, function):
    original = getattr(cls, method)
    setattr(cls, method, function)
    try:
        yield
    finally:
        setattr(cls, method, original)
