"""Unit tests for the dataflow graph: validation, ordering and rate analysis."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.graph import Dataflow, DataflowValidationError, Edge
from repro.dataflow.task import SinkTask, SourceTask, Task


def simple_chain():
    builder = TopologyBuilder("chain")
    builder.add_source("src", rate=8.0)
    builder.add_task("a")
    builder.add_task("b", parallelism=2)
    builder.add_sink("sink")
    builder.chain("src", "a", "b", "sink")
    return builder.build()


def fan_graph():
    builder = TopologyBuilder("fan")
    builder.add_source("src", rate=8.0)
    builder.add_task("split")
    builder.add_task("left")
    builder.add_task("right")
    builder.add_task("merge")
    builder.add_sink("sink")
    builder.connect("src", "split")
    builder.fan_out("split", ["left", "right"])
    builder.fan_in(["left", "right"], "merge")
    builder.connect("merge", "sink")
    return builder.build()


class TestValidation:
    def test_duplicate_task_names_rejected(self):
        with pytest.raises(DataflowValidationError):
            Dataflow("bad", [SourceTask(name="x"), Task(name="x"), SinkTask(name="s")], [])

    def test_missing_source_rejected(self):
        with pytest.raises(DataflowValidationError):
            Dataflow("bad", [Task(name="a"), SinkTask(name="s")], [Edge("a", "s")])

    def test_missing_sink_rejected(self):
        with pytest.raises(DataflowValidationError):
            Dataflow("bad", [SourceTask(name="src"), Task(name="a")], [Edge("src", "a")])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(DataflowValidationError):
            Dataflow(
                "bad",
                [SourceTask(name="src"), Task(name="a"), SinkTask(name="s")],
                [Edge("src", "a"), Edge("a", "ghost")],
            )

    def test_unreachable_task_rejected(self):
        with pytest.raises(DataflowValidationError):
            Dataflow(
                "bad",
                [SourceTask(name="src"), Task(name="a"), Task(name="island"), SinkTask(name="s")],
                [Edge("src", "a"), Edge("a", "s"), Edge("island", "s")],
            )

    def test_dead_end_task_rejected(self):
        with pytest.raises(DataflowValidationError):
            Dataflow(
                "bad",
                [SourceTask(name="src"), Task(name="a"), Task(name="deadend"), SinkTask(name="s")],
                [Edge("src", "a"), Edge("src", "deadend"), Edge("a", "s")],
            )

    def test_cycle_rejected(self):
        with pytest.raises(DataflowValidationError):
            Dataflow(
                "bad",
                [SourceTask(name="src"), Task(name="a"), Task(name="b"), SinkTask(name="s")],
                [Edge("src", "a"), Edge("a", "b"), Edge("b", "a"), Edge("b", "s")],
            )

    def test_source_with_incoming_edge_rejected(self):
        with pytest.raises(DataflowValidationError):
            Dataflow(
                "bad",
                [SourceTask(name="src"), Task(name="a"), SinkTask(name="s")],
                [Edge("src", "a"), Edge("a", "src"), Edge("a", "s")],
            )

    def test_sink_with_outgoing_edge_rejected(self):
        with pytest.raises(DataflowValidationError):
            Dataflow(
                "bad",
                [SourceTask(name="src"), Task(name="a"), SinkTask(name="s")],
                [Edge("src", "a"), Edge("a", "s"), Edge("s", "a")],
            )


class TestStructureQueries:
    def test_topological_order_respects_edges(self):
        dataflow = fan_graph()
        order = dataflow.topological_order
        assert order.index("src") < order.index("split")
        assert order.index("split") < order.index("left")
        assert order.index("split") < order.index("right")
        assert order.index("left") < order.index("merge")
        assert order.index("merge") < order.index("sink")

    def test_sources_sinks_and_user_tasks(self):
        dataflow = fan_graph()
        assert [t.name for t in dataflow.sources] == ["src"]
        assert [t.name for t in dataflow.sinks] == ["sink"]
        assert {t.name for t in dataflow.user_tasks} == {"split", "left", "right", "merge"}

    def test_entry_tasks(self):
        dataflow = fan_graph()
        assert [t.name for t in dataflow.entry_tasks] == ["split"]

    def test_successors_and_predecessors(self):
        dataflow = fan_graph()
        assert set(dataflow.successors("split")) == {"left", "right"}
        assert set(dataflow.predecessors("merge")) == {"left", "right"}

    def test_unknown_task_lookup_raises(self):
        with pytest.raises(KeyError):
            simple_chain().task("ghost")

    def test_in_and_out_edges(self):
        dataflow = fan_graph()
        assert {e.dst for e in dataflow.out_edges("split")} == {"left", "right"}
        assert {e.src for e in dataflow.in_edges("merge")} == {"left", "right"}


class TestRateAnalysis:
    def test_chain_rates_propagate(self):
        dataflow = simple_chain()
        rates = dataflow.input_rates()
        assert rates["a"] == pytest.approx(8.0)
        assert rates["b"] == pytest.approx(8.0)
        assert rates["sink"] == pytest.approx(8.0)

    def test_fan_out_duplicates_stream(self):
        dataflow = fan_graph()
        rates = dataflow.input_rates()
        assert rates["left"] == pytest.approx(8.0)
        assert rates["right"] == pytest.approx(8.0)
        assert rates["merge"] == pytest.approx(16.0)

    def test_exact_rates_sum_branches_without_drift(self):
        builder = TopologyBuilder("three-way")
        builder.add_source("src", rate=8.0)
        builder.add_task("split")
        for name in ("x", "y", "z"):
            builder.add_task(name)
        builder.add_task("merge")
        builder.add_sink("sink")
        builder.connect("src", "split")
        builder.fan_out("split", ["x", "y", "z"])
        builder.fan_in(["x", "y", "z"], "merge")
        builder.connect("merge", "sink")
        rates = builder.build().input_rates_exact()
        # One output per input: every branch carries the source's rate.
        assert rates["x"] == rates["y"] == rates["z"] == Fraction(8)
        assert rates["merge"] == rates["sink"] == Fraction(24)

    def test_output_rate_sums_sink_inputs(self):
        assert fan_graph().output_rate() == pytest.approx(16.0)

    def test_critical_path_counts_user_tasks(self):
        assert simple_chain().critical_path_length() == 2
        assert fan_graph().critical_path_length() == 3

    def test_critical_path_latency(self):
        assert fan_graph().critical_path_latency() == pytest.approx(0.3)

    def test_auto_parallelism_one_instance_per_8_events(self):
        dataflow = fan_graph()
        dataflow.apply_auto_parallelism(events_per_instance=8.0)
        assert dataflow.task("split").parallelism == 1
        assert dataflow.task("merge").parallelism == 2

    def test_auto_parallelism_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            fan_graph().apply_auto_parallelism(events_per_instance=0.0)

    def test_total_instances_excludes_sources_and_sinks_by_default(self):
        dataflow = simple_chain()
        assert dataflow.total_instances() == 3
        assert dataflow.total_instances(include_sources_and_sinks=True) == 5

    def test_describe_mentions_every_task(self):
        description = fan_graph().describe()
        for name in ("src", "split", "left", "right", "merge", "sink"):
            assert name in description
