"""Unit tests for task definitions."""

from __future__ import annotations

import math

import pytest

from repro.dataflow.task import SinkTask, SourceTask, Task, TaskKind, default_logic


class TestTaskValidation:
    def test_defaults(self):
        task = Task(name="t")
        assert task.kind is TaskKind.PROCESS
        assert task.parallelism == 1
        assert task.latency_s == pytest.approx(0.1)
        assert task.logic is default_logic
        assert not task.stateful

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Task(name="")

    def test_zero_parallelism_rejected(self):
        with pytest.raises(ValueError):
            Task(name="t", parallelism=0)

    @pytest.mark.parametrize("latency", [-0.1, math.nan, math.inf])
    def test_a_latency_that_is_no_delay_is_rejected(self, latency):
        # The executor hands it to the kernel's unchecked fast path.
        with pytest.raises(ValueError, match="latency_s must be finite and non-negative"):
            Task(name="t", latency_s=latency)

    def test_instance_ids(self):
        task = Task(name="t", parallelism=3)
        assert task.instance_ids() == ["t#0", "t#1", "t#2"]


class TestDefaultLogic:
    def test_one_to_one_selectivity(self):
        state = {}
        assert default_logic("payload", state) == ["payload"]
        assert state["processed"] == 1

    def test_state_counter_accumulates(self):
        state = {}
        for _ in range(5):
            default_logic("x", state)
        assert state["processed"] == 5

    def test_custom_logic_used_when_provided(self):
        def double(payload, state):
            return [payload * 2]

        task = Task(name="t", logic=double)
        assert task.logic(3, {}) == [6]


class TestSourceAndSink:
    def test_source_kind_and_rate(self):
        source = SourceTask(name="src", rate=8.0)
        assert source.kind is TaskKind.SOURCE
        assert source.is_source
        assert source.rate == 8.0
        assert source.latency_s == 0.0

    @pytest.mark.parametrize("rate", [0.0, math.inf, math.nan])
    def test_source_rate_must_be_positive_and_finite(self, rate):
        # inf used to pass here and die after deploy in Dataflow.input_rates_exact.
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            SourceTask(name="src", rate=rate)

    def test_sink_kind(self):
        sink = SinkTask(name="sink")
        assert sink.kind is TaskKind.SINK
        assert sink.is_sink
        assert sink.latency_s == 0.0

    def test_source_payload_factory_stored(self):
        factory = lambda seq: {"n": seq}
        source = SourceTask(name="src", rate=4.0, payload_factory=factory)
        assert source.payload_factory(3) == {"n": 3}
