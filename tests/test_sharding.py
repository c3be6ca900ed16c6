"""Partition-parallel sharding: determinism, merge ordering, CLI.

The acceptance contract: the merged :class:`~repro.metrics.log.EventLog` of a
sharded run is a pure function of the shard specs — an N-worker pool, the
inline 1-worker path and a same-seed repeat must all produce byte-identical
merged logs (asserted through :func:`~repro.sim.shard.log_digest`).
"""

from __future__ import annotations

import pytest

from repro.sim.shard import (
    SHARD_ID_STRIDE,
    ShardResult,
    ShardSpec,
    log_digest,
    merge_monitor_samples,
    merge_shard_results,
    run_shards,
    shard_worker_count,
)
from repro.experiments.sharded import (
    plan_shards,
    run_sharded_elastic_experiment,
    run_sharded_experiment,
    run_steady_shard,
)


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


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        """Pin the CPU count so the clamp is testable on any machine."""
        monkeypatch.setattr("os.cpu_count", lambda: 8)

    def test_env_var_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SHARDS", "2")
        assert shard_worker_count(8) == 2

    def test_env_var_capped_at_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SHARDS", "64")
        assert shard_worker_count(3) == 3

    def test_env_var_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SHARDS", "64")
        assert shard_worker_count(32) == 8

    def test_env_var_zero_means_auto(self, monkeypatch):
        for auto in ("0", "", "  "):
            monkeypatch.setenv("REPRO_SIM_SHARDS", auto)
            assert shard_worker_count(4) == 4
            assert shard_worker_count(32) == 8

    @pytest.mark.parametrize("value", ["banana", "-3", "2.5"])
    def test_invalid_env_var_is_refused_by_name(self, monkeypatch, value):
        # It used to resolve to "auto": a typo silently sized the pool.
        monkeypatch.setenv("REPRO_SIM_SHARDS", value)
        with pytest.raises(ValueError, match=f"REPRO_SIM_SHARDS.*{value}"):
            shard_worker_count(4)

    def test_default_capped_at_shards(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_SHARDS", raising=False)
        assert shard_worker_count(1) == 1


class TestMergeDeterminism:
    """Synthetic shard results: the merge is order- and pool-invariant."""

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

        # Equal-time records across shards: ties must break on namespaced id.
        return [shard(0, [(1.0, 1), (2.0, 2)], [(3.0, 1, 10), (4.0, 2, 11)]),
                shard(1, [(1.0, 1), (2.5, 2)], [(3.0, 1, 10), (5.0, 2, 11)])]

    def test_ids_are_namespaced_by_shard(self):
        log = merge_shard_results(self.make_results())
        roots = [e.root_id for e in log.source_emits]
        assert roots == [1, SHARD_ID_STRIDE + 1, 2, SHARD_ID_STRIDE + 2]
        assert log.distinct_roots_received() == 4

    def test_equal_times_break_ties_on_namespaced_id(self):
        log = merge_shard_results(self.make_results())
        assert [(e.time, e.root_id) for e in log.source_emits[:2]] == [
            (1.0, 1), (1.0, SHARD_ID_STRIDE + 1)
        ]
        assert [(r.time, r.event_id) for r in log.sink_receipts[:2]] == [
            (3.0, 10), (3.0, SHARD_ID_STRIDE + 10)
        ]

    def test_merge_is_input_order_invariant(self):
        results = self.make_results()
        forward = log_digest(merge_shard_results(results))
        backward = log_digest(merge_shard_results(list(reversed(results))))
        assert forward == backward

    def test_time_indexes_stay_monotone(self):
        log = merge_shard_results(self.make_results())
        assert log.emit_times == sorted(log.emit_times)
        assert log.receipt_times == sorted(log.receipt_times)
        assert len(log.emit_times) == len(log.source_emits)
        assert len(log.receipt_times) == len(log.sink_receipts)


class TestShardedRunDeterminism:
    """End-to-end: pool size cannot affect the merged log."""

    ARGS = dict(dag="grid", shards=3, duration_s=10.0, seed=2018)

    def test_pool_matches_inline_byte_for_byte(self):
        inline = run_sharded_experiment(workers=1, **self.ARGS)
        pooled = run_sharded_experiment(workers=3, **self.ARGS)
        assert pooled.digest == inline.digest
        assert pooled.workers == 3 and inline.workers == 1

    def test_same_seed_repeat_is_identical(self):
        first = run_sharded_experiment(workers=2, **self.ARGS)
        second = run_sharded_experiment(workers=2, **self.ARGS)
        assert second.digest == first.digest

    def test_different_seed_differs(self):
        base = run_sharded_experiment(workers=1, **self.ARGS)
        other = run_sharded_experiment(workers=1, **{**self.ARGS, "seed": 7})
        assert other.digest != base.digest

    def test_merged_log_aggregates_every_shard(self):
        result = run_sharded_experiment(workers=1, **self.ARGS)
        assert len(result.log.source_emits) == sum(r.emit_count for r in result.results)
        assert len(result.log.sink_receipts) == sum(r.receipt_count for r in result.results)
        assert result.log.distinct_roots_received() == sum(
            int(r.summary["distinct_roots_received"]) for r in result.results
        )

    def test_batched_and_classic_shards_agree_on_times(self, monkeypatch):
        # Shard workers run the engine's default, the batch stepper, which is
        # equivalent to the per-event kernel modulo event-id assignment order
        # — so the merged emission/receipt *times* must match exactly even
        # though the digests (which hash the ids) differ.
        from repro.core.dcr import DrainCheckpointRestore
        from repro.engine.config import RuntimeConfig

        batched = run_sharded_experiment(workers=1, **self.ARGS)

        def per_event_config(cls, seed=2018):
            config = RuntimeConfig.for_dcr(seed=seed)
            config.batch_stepping = False
            return config

        monkeypatch.setattr(DrainCheckpointRestore, "runtime_config", classmethod(per_event_config))
        classic = run_sharded_experiment(workers=1, **self.ARGS)
        assert classic.digest != batched.digest
        assert classic.log.emit_times == batched.log.emit_times
        assert classic.log.receipt_times == batched.log.receipt_times


def _sample(time, input_rate=0.0, offered_rate=0.0, output_rate=0.0,
            avg_latency_s=None, queue_backlog=0, source_backlog=0,
            sources_paused=False):
    from repro.elastic.monitor import MonitorSample

    return MonitorSample(time=time, input_rate=input_rate, offered_rate=offered_rate,
                         output_rate=output_rate, avg_latency_s=avg_latency_s,
                         queue_backlog=queue_backlog, source_backlog=source_backlog,
                         sources_paused=sources_paused)


class TestMergeMonitorSamples:
    def test_rates_and_backlogs_sum_per_timestamp(self):
        merged = merge_monitor_samples([
            [_sample(15.0, input_rate=4.0, offered_rate=5.0, output_rate=16.0,
                     avg_latency_s=0.5, queue_backlog=2, source_backlog=1),
             _sample(30.0, offered_rate=1.0)],
            [_sample(15.0, input_rate=6.0, offered_rate=5.0, output_rate=4.0,
                     avg_latency_s=1.5, queue_backlog=3)],
        ])
        assert [s.time for s in merged] == [15.0, 30.0]
        first = merged[0]
        assert first.input_rate == 10.0
        assert first.offered_rate == 10.0
        assert first.output_rate == 20.0
        assert first.queue_backlog == 5
        assert first.source_backlog == 1

    def test_latency_is_output_rate_weighted(self):
        merged = merge_monitor_samples([
            [_sample(15.0, output_rate=16.0, avg_latency_s=0.5)],
            [_sample(15.0, output_rate=4.0, avg_latency_s=1.5)],
        ])
        assert merged[0].avg_latency_s == pytest.approx((16 * 0.5 + 4 * 1.5) / 20)

    def test_latency_none_when_no_shard_received(self):
        merged = merge_monitor_samples([[_sample(15.0)], [_sample(15.0)]])
        assert merged[0].avg_latency_s is None

    def test_paused_only_when_all_shards_paused(self):
        half = merge_monitor_samples([[_sample(15.0, sources_paused=True)],
                                      [_sample(15.0, sources_paused=False)]])
        both = merge_monitor_samples([[_sample(15.0, sources_paused=True)],
                                      [_sample(15.0, sources_paused=True)]])
        assert half[0].sources_paused is False
        assert both[0].sources_paused is True


class TestShardedElastic:
    """Profile-driven shards + centralized controller plan: pool-invariant."""

    ARGS = dict(dag="grid", shards=2, duration_s=240.0, seed=2018, profile="surge")

    def test_pool_invariant_digest_and_actions(self):
        inline = run_sharded_elastic_experiment(workers=1, **self.ARGS)
        pooled = run_sharded_elastic_experiment(workers=2, **self.ARGS)
        assert pooled.digest == inline.digest
        assert pooled.action_sequence == inline.action_sequence

    def test_surge_plans_out_then_back_in(self):
        result = run_sharded_elastic_experiment(workers=1, **self.ARGS)
        assert [a.direction for a in result.actions] == ["out", "in"]
        assert (result.actions[0].from_tier, result.actions[0].to_tier) == \
            ("baseline", "expanded")
        assert (result.actions[1].from_tier, result.actions[1].to_tier) == \
            ("expanded", "baseline")
        # The scale-out must be decided while the surge is actually offered.
        assert result.actions[0].observed_rate > result.actions[1].observed_rate

    def test_merged_samples_are_cluster_wide(self):
        result = run_sharded_elastic_experiment(workers=1, **self.ARGS)
        times = [s.time for s in result.samples]
        assert times == sorted(set(times))  # one merged sample per tick
        per_shard = max(len(r.samples) for r in result.results)
        assert len(times) == per_shard
        # Offered rates sum across shards: the surge peak must show the full
        # dataflow rate (8 ev/s baseline, ~3x during the surge), not a
        # single shard's slice of it.
        peak = max(s.offered_rate for s in result.samples)
        assert peak > 8.0


def test_run_shards_requires_picklable_specs_only_for_pools():
    # The inline path never touches a pool: a runner defined locally works.
    specs = [ShardSpec(index=0, shards=1, duration_s=1.0)]
    calls = []

    def runner(spec):
        calls.append(spec.index)
        return ShardResult(index=spec.index)

    results = run_shards(specs, runner, workers=1)
    assert calls == [0]
    assert results[0].index == 0


class TestShardCLI:
    def test_shard_command_prints_digest(self, capsys):
        from repro.cli import main

        code = main(["shard", "--dag", "grid", "--shards", "2", "--workers", "1",
                     "--duration", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "merged log digest:" in out
        assert "Per-shard summaries" in out

    def test_shard_command_rejects_bad_count(self, capsys):
        from repro.cli import main

        assert main(["shard", "--shards", "0"]) == 2

    def test_shard_elastic_prints_actions_and_digest(self, capsys):
        from repro.cli import main

        code = main(["shard", "--elastic", "--dag", "grid", "--shards", "2",
                     "--workers", "1", "--duration", "240"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sharded elastic run:" in out
        assert "Planned scaling actions" in out
        assert "baseline -> expanded" in out
        assert "merged log digest:" in out
