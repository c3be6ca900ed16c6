"""Unit tests for the paper's five evaluation dataflows (Fig. 4 / Table 1)."""

from __future__ import annotations

import pytest

from repro.dataflow import topologies
from repro.dataflow.task import default_logic
from repro.dataflow.topologies import PAPER_ORDER, TABLE1


class TestTable1Fidelity:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_user_task_count_matches_table1(self, name):
        dataflow = topologies.by_name(name)
        assert len(dataflow.user_tasks) == TABLE1[name].tasks

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_instance_count_matches_table1(self, name):
        dataflow = topologies.by_name(name)
        assert dataflow.total_instances() == TABLE1[name].task_instances

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_single_source_and_sink(self, name):
        dataflow = topologies.by_name(name)
        assert len(dataflow.sources) == 1
        assert len(dataflow.sinks) == 1

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_source_rate_is_8_events_per_second(self, name):
        dataflow = topologies.by_name(name)
        assert dataflow.sources[0].rate == pytest.approx(8.0)

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_task_latency_is_100ms(self, name):
        dataflow = topologies.by_name(name)
        for task in dataflow.user_tasks:
            assert task.latency_s == pytest.approx(0.1)

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_all_tasks_are_one_to_one_selectivity(self, name):
        dataflow = topologies.by_name(name)
        for task in dataflow.user_tasks:
            assert task.logic is default_logic
            assert task.logic("payload", {}) == ["payload"]

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_at_least_one_stateful_task(self, name):
        dataflow = topologies.by_name(name)
        assert any(task.stateful for task in dataflow.user_tasks)

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_per_instance_load_within_peak_rate(self, name):
        """Each instance must see at most the 10 ev/s peak rate (100 ms tasks)."""
        dataflow = topologies.by_name(name)
        rates = dataflow.input_rates()
        for task in dataflow.user_tasks:
            assert rates[task.name] / task.parallelism <= 10.0 + 1e-9


class TestStructures:
    def test_linear_is_a_chain(self):
        dataflow = topologies.linear()
        for task in dataflow.user_tasks:
            assert len(dataflow.successors(task.name)) == 1
            assert len(dataflow.predecessors(task.name)) == 1
        assert dataflow.critical_path_length() == 5

    def test_parametric_linear_length(self):
        dataflow = topologies.linear(50)
        assert len(dataflow.user_tasks) == 50
        assert dataflow.total_instances() == 50
        assert dataflow.critical_path_length() == 50

    def test_linear_every_other_task_is_stateful(self):
        dataflow = topologies.linear(6)
        assert [task.stateful for task in dataflow.user_tasks] == [True, False] * 3

    def test_linear_rejects_zero_tasks(self):
        with pytest.raises(ValueError):
            topologies.linear(0)

    def test_diamond_has_fan_out_and_fan_in(self):
        dataflow = topologies.diamond()
        assert set(dataflow.successors("split")) == {"branch_a", "branch_b"}
        assert set(dataflow.predecessors("merge")) == {"branch_a", "branch_b"}

    def test_star_hub_connects_spokes(self):
        dataflow = topologies.star()
        assert set(dataflow.predecessors("hub")) == {"spoke_in_a", "spoke_in_b"}
        assert set(dataflow.successors("hub")) == {"spoke_out_a", "spoke_out_b"}

    def test_grid_output_rate_is_4x_input(self):
        """The paper reports a 1:4 DAG selectivity for Grid (8 ev/s in, 32 ev/s out)."""
        dataflow = topologies.grid()
        assert dataflow.output_rate() == pytest.approx(32.0)

    def test_traffic_output_rate_is_4x_input(self):
        dataflow = topologies.traffic()
        assert dataflow.output_rate() == pytest.approx(32.0)

    def test_star_output_rate(self):
        assert topologies.star().output_rate() == pytest.approx(32.0)

    def test_application_dags_are_deeper_than_micro_dags(self):
        assert topologies.grid().critical_path_length() > topologies.star().critical_path_length()
        assert topologies.traffic().critical_path_length() >= topologies.star().critical_path_length()

    def test_by_name_rejects_unknown(self):
        with pytest.raises(KeyError):
            topologies.by_name("nonexistent")

    def test_factories_produce_fresh_objects(self):
        a = topologies.grid()
        b = topologies.grid()
        assert a is not b
        a.task("parse").parallelism = 99
        assert b.task("parse").parallelism == 1


class TestKeyedVariants:
    """FIELDS-grouped variants of the application DAGs (per-entity state)."""

    @pytest.mark.parametrize("name,base,keyed_tasks", [
        ("traffic-keyed", "traffic", {"traffic_state"}),
        ("grid-keyed", "grid", {"forecast_merge", "demand_predict"}),
    ])
    def test_structure_matches_base_dag(self, name, base, keyed_tasks):
        keyed = topologies.by_name(name)
        plain = topologies.by_name(base)
        assert keyed.total_instances() == plain.total_instances()
        assert {t.name for t in keyed.user_tasks} == {t.name for t in plain.user_tasks}
        assert {(e.src, e.dst) for e in keyed.edges} == {(e.src, e.dst) for e in plain.edges}
        for edge in keyed.edges:
            expected = (
                topologies.Grouping.FIELDS
                if edge.dst in keyed_tasks
                else next(e for e in plain.edges
                          if (e.src, e.dst) == (edge.src, edge.dst)).grouping
            )
            assert edge.grouping is expected, (edge.src, edge.dst)

    def test_source_payloads_carry_stable_keys(self):
        keyed = topologies.by_name("traffic-keyed")
        factory = keyed.sources[0].payload_factory
        assert factory(3)["key"] == factory(3 + topologies.KEYED_NUM_KEYS)["key"]
        assert factory(1)["key"] != factory(2)["key"]

    def test_keyed_registry_does_not_leak_into_paper_matrix(self):
        assert "traffic-keyed" not in topologies.PAPER_TOPOLOGIES
        assert "traffic-keyed" not in PAPER_ORDER
        assert "traffic-keyed" in topologies.ALL_TOPOLOGIES
        with pytest.raises(KeyError):
            topologies.by_name("linear-keyed")

    def test_keyed_state_partitions_by_field_hash_at_runtime(self):
        """Run the keyed traffic DAG briefly: every per-key counter lives on
        exactly the instance FIELDS routing sends that key to."""
        from repro.dataflow.grouping import stable_field_index
        from repro.reliability.repartition import PARTITIONED_STATE_KEY
        from tests.conftest import make_runtime

        dataflow = topologies.traffic_keyed(latency_s=0.005)
        runtime = make_runtime(dataflow=dataflow, worker_vms=7)
        runtime.start()
        runtime.sim.run(until=20.0)
        runtime.stop_sources()
        runtime.sim.run(until=30.0)

        task = dataflow.task("traffic_state")
        seen_keys = 0
        for index in range(task.parallelism):
            executor = runtime.executors[f"traffic_state#{index}"]
            counts = executor.state.get(PARTITIONED_STATE_KEY, {})
            for key in counts:
                assert stable_field_index(key, task.parallelism) == index
            seen_keys += len(counts)
        assert seen_keys > 0, "keyed state never materialized"
