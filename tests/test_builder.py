"""Unit tests for the topology builder."""

from __future__ import annotations

import pytest

from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.graph import DataflowValidationError
from repro.dataflow.grouping import Grouping


class TestDeclarations:
    def test_duplicate_task_rejected(self):
        builder = TopologyBuilder("t").add_task("a")
        with pytest.raises(DataflowValidationError):
            builder.add_task("a")

    def test_source_task_sink_round_trip(self):
        builder = TopologyBuilder("t")
        builder.add_source("src", rate=4.0)
        builder.add_task("a", parallelism=2, stateful=True)
        builder.add_sink("sink")
        builder.chain("src", "a", "sink")
        dataflow = builder.build()
        assert dataflow.task("src").rate == 4.0
        assert dataflow.task("a").parallelism == 2
        assert dataflow.task("a").stateful
        assert dataflow.task("sink").is_sink


class TestWiring:
    def test_connect_unknown_task_rejected(self):
        builder = TopologyBuilder("t").add_task("a")
        with pytest.raises(DataflowValidationError):
            builder.connect("a", "ghost")
        with pytest.raises(DataflowValidationError):
            builder.connect("ghost", "a")

    def test_self_loop_rejected(self):
        builder = TopologyBuilder("t").add_task("a")
        with pytest.raises(DataflowValidationError):
            builder.connect("a", "a")

    def test_duplicate_edge_rejected(self):
        builder = TopologyBuilder("t").add_task("a").add_task("b")
        builder.connect("a", "b")
        with pytest.raises(DataflowValidationError):
            builder.connect("a", "b")

    def test_chain_creates_consecutive_edges(self):
        builder = TopologyBuilder("t")
        builder.add_source("src")
        builder.add_task("a").add_task("b")
        builder.add_sink("sink")
        builder.chain("src", "a", "b", "sink")
        dataflow = builder.build()
        assert dataflow.successors("a") == ["b"]
        assert dataflow.successors("b") == ["sink"]

    def test_fan_out_and_fan_in(self):
        builder = TopologyBuilder("t")
        builder.add_source("src")
        for name in ("a", "b", "c", "merge"):
            builder.add_task(name)
        builder.add_sink("sink")
        builder.connect("src", "a")
        builder.fan_out("a", ["b", "c"])
        builder.fan_in(["b", "c"], "merge")
        builder.connect("merge", "sink")
        dataflow = builder.build()
        assert set(dataflow.successors("a")) == {"b", "c"}
        assert set(dataflow.predecessors("merge")) == {"b", "c"}

    def test_grouping_recorded_on_edge(self):
        builder = TopologyBuilder("t")
        builder.add_source("src")
        builder.add_task("a", parallelism=2)
        builder.add_sink("sink")
        builder.connect("src", "a", grouping=Grouping.FIELDS)
        builder.connect("a", "sink")
        dataflow = builder.build()
        assert dataflow.out_edges("src")[0].grouping is Grouping.FIELDS
        assert dataflow.out_edges("a")[0].grouping is Grouping.SHUFFLE


class TestBuild:
    def test_auto_parallelism_applied_on_build(self):
        builder = TopologyBuilder("t")
        builder.add_source("src", rate=8.0)
        builder.add_task("a")
        builder.add_task("b")
        builder.add_task("merge")
        builder.add_sink("sink")
        builder.connect("src", "a")
        builder.connect("src", "b")
        builder.fan_in(["a", "b"], "merge")
        builder.connect("merge", "sink")
        dataflow = builder.build(auto_parallelism=True)
        assert dataflow.task("merge").parallelism == 2

    def test_invalid_graph_raises_on_build(self):
        builder = TopologyBuilder("t")
        builder.add_source("src")
        builder.add_task("orphan")
        builder.add_sink("sink")
        builder.connect("src", "sink")
        builder.connect("orphan", "sink")
        with pytest.raises(DataflowValidationError):
            builder.build()
