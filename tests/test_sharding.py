"""Partitioned runs: shard specs, the inline runner, deterministic merge.

The contract: the merged :class:`~repro.metrics.log.EventLog` of a sharded run
is a pure function of the shard specs — a same-seed repeat and any order of
the shard results produce byte-identical merged logs (asserted through
:func:`~repro.sim.shard.log_digest`).  Runs are composed exactly as
``bench_e2e``'s ``grid100x_vector`` composes its shard phase.
"""

from __future__ import annotations

import pytest

from repro.sim.shard import (
    ShardResult,
    ShardSpec,
    log_digest,
    merge_shard_results,
    run_shards,
)
from repro.experiments.sharded import plan_shards, run_steady_shard


def sharded_run(**args):
    """The shard results and merged log of one partitioned run."""
    results = run_shards(plan_shards(**args), run_steady_shard)
    return results, merge_shard_results(results)


class TestShardSpec:
    def test_index_must_be_within_shards(self):
        with pytest.raises(ValueError):
            ShardSpec(index=3, shards=3)
        with pytest.raises(ValueError):
            ShardSpec(index=-1, shards=2)
        with pytest.raises(ValueError):
            ShardSpec(index=0, shards=0)

    def test_shard_seeds_are_distinct_and_stable(self):
        seeds = {ShardSpec(index=i, shards=4).shard_seed for i in range(4)}
        assert len(seeds) == 4
        assert ShardSpec(index=1, shards=4).shard_seed == ShardSpec(index=1, shards=4).shard_seed

    def test_plan_shards_covers_every_partition(self):
        specs = plan_shards(dag="grid", shards=3, duration_s=5.0)
        assert [s.index for s in specs] == [0, 1, 2]
        assert all(s.shards == 3 for s in specs)

    def test_plan_shards_carries_the_run_parameters(self):
        specs = plan_shards(dag="traffic", shards=2, duration_s=7.5, seed=7, strategy="ccr")
        assert {(s.dag, s.strategy, s.duration_s, s.seed) for s in specs} == {
            ("traffic", "ccr", 7.5, 7)
        }


class TestMergeDeterminism:
    """Synthetic shard results: the merge is input-order invariant."""

    @staticmethod
    def make_results():
        def shard(index, emits, receipts):
            # (time, root) emits and (time, root, event id) receipts, as the
            # columns a shard log ships.
            emit_time, emit_root = zip(*emits)
            time, root, event = zip(*receipts)
            return ShardResult(
                index=index,
                emit_columns={"time": emit_time, "root": emit_root, "source": [0] * len(emits),
                              "replay": [0] * len(emits), "backlog": [False] * len(emits),
                              "names": ["src", "sink"]},
                receipt_columns={"time": time, "root": root, "event": event,
                                 "sink": [1] * len(receipts),
                                 "emitted": [t - 0.5 for t in time],
                                 "replay": [0] * len(receipts), "names": ["src", "sink"]},
            )

        # Equal-time records across shards and within one, ids out of order:
        # ties break on shard index, then record position, never on id.
        return [shard(0, [(1.0, 70), (2.0, 80)], [(3.0, 70, 12), (3.0, 80, 11)]),
                shard(1, [(1.0, 30), (2.5, 40)], [(3.0, 30, 10), (5.0, 40, 13)])]

    def test_ids_are_kept_as_each_shard_drew_them(self):
        log = merge_shard_results(self.make_results())
        roots = [e.root_id for e in log.source_emits]
        assert roots == [70, 30, 80, 40]
        assert log.distinct_roots_received() == 4

    def test_equal_times_break_ties_on_shard_index_then_position(self):
        log = merge_shard_results(self.make_results())
        assert [(e.time, e.root_id) for e in log.source_emits[:2]] == [(1.0, 70), (1.0, 30)]
        assert [(r.time, r.event_id) for r in log.sink_receipts[:3]] == [
            (3.0, 12), (3.0, 11), (3.0, 10)
        ]

    def test_merge_is_input_order_invariant(self):
        results = self.make_results()
        forward = log_digest(merge_shard_results(results))
        backward = log_digest(merge_shard_results(list(reversed(results))))
        assert forward == backward

    def test_time_indexes_stay_monotone(self):
        log = merge_shard_results(self.make_results())
        emit_times = log.emit_times_array.tolist()
        receipt_times = log.receipt_times_array.tolist()
        assert emit_times == sorted(emit_times)
        assert receipt_times == sorted(receipt_times)
        assert len(emit_times) == len(log.source_emits)
        assert len(receipt_times) == len(log.sink_receipts)


class TestShardedRunDeterminism:
    """End-to-end: the merged log is a pure function of the specs."""

    ARGS = dict(dag="grid", shards=3, duration_s=10.0, seed=2018)

    def test_same_seed_repeat_is_identical(self):
        _, first = sharded_run(**self.ARGS)
        _, second = sharded_run(**self.ARGS)
        assert log_digest(second) == log_digest(first)

    def test_different_seed_differs(self):
        _, base = sharded_run(**self.ARGS)
        _, other = sharded_run(**{**self.ARGS, "seed": 7})
        assert log_digest(other) != log_digest(base)

    def test_merged_log_aggregates_every_shard(self):
        results, log = sharded_run(**self.ARGS)
        assert len(log.source_emits) == sum(r.emit_count for r in results)
        assert len(log.sink_receipts) == sum(r.receipt_count for r in results)
        assert log.distinct_roots_received() == sum(
            int(r.summary["distinct_roots_received"]) for r in results
        )

    def test_merge_of_a_run_is_input_order_invariant(self):
        results, log = sharded_run(**self.ARGS)
        assert log_digest(merge_shard_results(list(reversed(results)))) == log_digest(log)

    def test_shards_partition_the_stream(self):
        # Each shard emits at rate / shards and loses under one emission to
        # the end of the run, so the shards together emit the whole stream
        # short of fewer than ``shards`` events.
        _, whole = sharded_run(**{**self.ARGS, "shards": 1})
        _, split = sharded_run(**self.ARGS)
        assert 0 <= len(whole.source_emits) - len(split.source_emits) < self.ARGS["shards"]

    def test_every_shard_reports_its_engine_and_counts(self):
        results, _ = sharded_run(**self.ARGS)
        for result in results:
            assert result.engine["sim_s"] == self.ARGS["duration_s"]
            assert result.engine["stepper"] > 0, "the batch stepper never engaged"
            assert result.emit_count == result.summary["source_emits"]
            assert result.receipt_count == result.summary["sink_receipts"]

    def test_batched_and_classic_shards_agree(self, monkeypatch):
        # Shards run the engine's default, the batch stepper, whose log is
        # the per-event kernel's bit for bit, event ids included.
        from repro.core.dcr import DrainCheckpointRestore
        from repro.engine.config import RuntimeConfig

        _, batched = sharded_run(**self.ARGS)

        def per_event_config(cls, seed=2018):
            config = RuntimeConfig.for_dcr(seed=seed)
            config.batch_stepping = False
            return config

        monkeypatch.setattr(DrainCheckpointRestore, "runtime_config", classmethod(per_event_config))
        _, classic = sharded_run(**self.ARGS)
        assert log_digest(classic) == log_digest(batched)


def test_run_shards_runs_any_callable_inline():
    # Nothing is pickled: a runner defined locally works.
    specs = [ShardSpec(index=0, shards=1, duration_s=1.0)]
    calls = []

    def runner(spec):
        calls.append(spec.index)
        return ShardResult(index=spec.index)

    results = run_shards(specs, runner, workers=1)
    assert calls == [0]
    assert results[0].index == 0


def test_run_shards_returns_results_in_spec_order():
    specs = [ShardSpec(index=i, shards=3, duration_s=1.0) for i in (2, 0, 1)]
    calls = []

    def runner(spec):
        calls.append(spec.index)
        return ShardResult(index=spec.index)

    assert [r.index for r in run_shards(specs, runner)] == calls == [2, 0, 1]


# ``None`` used to mean "one worker per shard"; every pool size but one is refused.
@pytest.mark.parametrize("workers", [2, 4, 0, -1, None])
def test_run_shards_refuses_a_pool_size_by_name(workers):
    specs = [ShardSpec(index=0, shards=1, duration_s=1.0)]
    with pytest.raises(ValueError, match="workers"):
        run_shards(specs, run_steady_shard, workers=workers)
