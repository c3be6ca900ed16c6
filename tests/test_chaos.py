"""Chaos-engineering robustness: spot evictions, unplanned VM loss, recovery.

Covers the chaos-capable cloud layer end to end:

* the occupied-VM removal guard (``Cluster.remove_vm`` fails loudly);
* arbiter accounting when a granted tenant's delta VMs die (the reservation
  and migration token go back to the budget instead of leaking);
* acceptance (a): a zero-notice VM kill recovers via checkpoint restore with
  no lost ``by_key`` state and bounded replays, including a kill landing
  mid-evacuation-migration;
* acceptance (b): under a spot eviction storm the notice-aware controller
  beats the oblivious baseline on restore latency AND total cost;
* determinism: same-seed chaos runs produce byte-identical event-log digests
  and identical controller action sequences for all three strategies;
* the batch stepper disengages around injected faults: a chaos run with
  batch stepping on (non-vectorized tier) matches the classic keyed kernel
  log exactly.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from repro.cluster.chaos import KILL, ChaosSchedule, FaultEvent, FaultInjector
from repro.cluster.cloud import (
    ON_DEMAND,
    SPOT,
    CloudProvider,
    Cluster,
    ProvisioningModel,
    SpotMarket,
)
from repro.cluster.vm import D2, D3
from repro.core.strategy import strategy_by_name
from repro.dataflow import topologies
from repro.elastic import AllocationPlanner, ControllerConfig, ElasticityController, ElasticityMonitor
from repro.engine.config import RuntimeConfig
from repro.engine.executor import ExecutorStatus
from repro.engine.runtime import TopologyRuntime
from repro.experiments.chaos import run_chaos_experiment, run_chaos_run
from repro.elastic.arbiter import ScaleArbiter
from repro.reliability.repartition import PARTITIONED_STATE_KEY
from repro.reliability.statestore import checkpoint_key
from repro.sim import RandomSource, Simulator
from repro.sim.shard import log_digest



# --------------------------------------------------------------- satellite 1
class TestRemoveVmGuard:
    def test_remove_occupied_vm_fails_loudly(self):
        cluster = Cluster()
        sim = Simulator()
        provider = CloudProvider(sim)
        vm = provider.provision(D2, 1, name_prefix="d2")[0]
        cluster.add_vm(vm)
        vm.slots[0].assign("demand_predict#0")
        with pytest.raises(ValueError, match="demand_predict#0"):
            cluster.remove_vm(vm.vm_id)
        # Still in the cluster: the guard must not half-remove it.
        assert vm.vm_id in cluster
        vm.slots[0].release()
        cluster.remove_vm(vm.vm_id)
        assert vm.vm_id not in cluster


# --------------------------------------------------------------- satellite 2
def _shared_fleet(slots: int = 4) -> Cluster:
    cluster = Cluster()
    sim = Simulator()
    provider = CloudProvider(sim)
    for vm in provider.provision(D2, slots // 2, name_prefix="d2"):
        cluster.add_vm(vm)
    return cluster


class TestArbiterAbortAccounting:
    def test_aborted_grant_returns_reservation_and_token(self):
        arbiter = ScaleArbiter(_shared_fleet(4), budget_slots=8)
        arbiter.register_tenant("t1")
        arbiter.register_tenant("t2")
        assert arbiter.propose("t1", "out", 4, now=10.0).granted
        arbiter.notify_migration_started("t1", ["d2-001"])
        # t1 holds the single migration token and 4 reserved slots: t2 is out.
        assert not arbiter.propose("t2", "out", 2, now=11.0).granted
        assert arbiter.reserved_slots() == 4
        assert "d2-001" in arbiter.retiring_vms

        returned = arbiter.notify_aborted("t1", now=12.0)
        assert returned == 4
        assert arbiter.reserved_slots() == 0
        assert arbiter.in_flight == {}
        assert arbiter.retiring_vms == set()
        assert [r.tenant_id for r in arbiter.aborts] == ["t1"]
        # The budget and the migration token are back: t2 gets through now.
        assert arbiter.propose("t2", "out", 2, now=13.0).granted

    def test_abort_without_grant_is_a_noop(self):
        arbiter = ScaleArbiter(_shared_fleet(4), budget_slots=8)
        arbiter.register_tenant("t1")
        assert arbiter.notify_aborted("t1", now=5.0) == 0
        assert arbiter.aborts == []

    def test_doomed_vms_published_and_cleared(self):
        arbiter = ScaleArbiter(_shared_fleet(4), budget_slots=8)
        arbiter.mark_doomed({"d2-001"})
        assert "d2-001" in arbiter.doomed_vms
        arbiter.clear_doomed({"d2-001"})
        assert arbiter.doomed_vms == set()


# ------------------------------------------------------------- acceptance (a)
def _assemble_chaos_stack(dag: str, seed: int = 7):
    """The chaos runner's stack, hand-assembled so tests can hook the kill."""
    sim = Simulator()
    dataflow = topologies.by_name(dag)
    config = RuntimeConfig.for_dsm(seed=seed)
    provider = CloudProvider(
        sim,
        spot_market=SpotMarket(discount=0.35, notice_s=120.0),
        provisioning=ProvisioningModel(base_latency_s=30.0, jitter_fraction=0.2),
        rng=RandomSource(seed),
    )
    cluster = Cluster()
    util_vm = provider.provision(D3, 1, name_prefix="util", market=ON_DEMAND)[0]
    util_vm.tags["role"] = "util"
    cluster.add_vm(util_vm)
    worker_count = int(math.ceil(dataflow.total_instances() / D2.slots))
    for vm in provider.provision(D2, worker_count, name_prefix="d2", market=SPOT):
        cluster.add_vm(vm)
    runtime = TopologyRuntime(dataflow, cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()
    controller = ElasticityController(
        runtime,
        provider,
        ElasticityMonitor(runtime, interval_s=15.0),
        AllocationPlanner(dataflow),
        strategy_by_name("dsm"),
        config=ControllerConfig(),
    )
    return sim, dataflow, cluster, provider, runtime, controller


class TestZeroNoticeKillRecovery:
    def test_kill_restores_keyed_state_from_checkpoint(self):
        sim, dataflow, cluster, provider, runtime, controller = _assemble_chaos_stack("grid-keyed")

        # Pin the kill to a VM hosting grouped keyed state.
        victim_exec = "demand_predict#0"
        slot_id = runtime.placement.assignments[victim_exec]
        victim_vm = runtime.placement.slot_to_vm[slot_id]

        captured = {}

        def on_kill(vm_id, kind):
            # Snapshot what the last committed checkpoint holds for the
            # executors about to die -- recovery must bring at least this back.
            for slot in cluster.vm(vm_id).occupied_slots:
                snap = runtime.statestore.peek(
                    checkpoint_key(dataflow.name, slot.executor_id)
                )
                if snap and snap.get("state"):
                    captured[slot.executor_id] = copy.deepcopy(snap["state"])
            controller.handle_vm_failure(vm_id, kind)

        injector = FaultInjector(sim, cluster, provider, seed=7, on_kill=on_kill)
        injector.arm(ChaosSchedule([FaultEvent(at_s=200.0, kind=KILL, vm_id=victim_vm)]))

        sim.run(until=420.0)
        runtime.stop_sources()

        assert [r.outcome for r in injector.records] == ["killed"]
        assert len(controller.recoveries) == 1
        recovery = controller.recoveries[0]
        assert victim_exec in recovery.lost_executors
        assert recovery.restored_at is not None
        assert recovery.recovery_latency_s < 120.0

        # The victim's grouped per-key counts survived: the re-placed executor
        # restored the checkpoint and kept counting from there, so every
        # checkpointed count is a floor for the live one.
        assert victim_exec in captured
        checkpointed = captured[victim_exec].get(PARTITIONED_STATE_KEY, {})
        assert checkpointed, "the pre-kill checkpoint should hold keyed counts"
        live = runtime.executors[victim_exec].state.get(PARTITIONED_STATE_KEY, {})
        for key, count in checkpointed.items():
            assert live.get(key, 0) >= count, f"by_key state lost for {key}"

        # Every executor is back up and the trees anchored on the dead VM were
        # replayed -- boundedly (not a full-stream replay storm).
        assert all(
            executor.status is ExecutorStatus.RUNNING
            for executor in runtime.executors.values()
        )
        emits = runtime.log.source_emits
        replays = sum(1 for emit in emits if emit.replay_count > 0)
        assert 0 < replays < 0.5 * len(emits)

    def test_kill_mid_evacuation_migration_is_recovered(self):
        # A 50s notice cannot cover ~30s provisioning plus a DSM migration:
        # the deadline fires while the evacuation migration is in flight and
        # the kill must degrade into the unplanned path without wedging.
        result = run_chaos_run(
            dag="grid-keyed",
            strategy="dsm",
            mode="notice",
            duration_s=420.0,
            storm_count=1,
            storm_start_s=120.0,
            notice_s=50.0,
        )
        killed = result.injector.killed
        assert len(killed) == 1
        evacuation = result.evacuations[0]
        assert evacuation.overrun
        assert evacuation.migration_issued
        assert evacuation.completed_at is not None
        assert not evacuation.evaded
        assert len(result.recoveries) == 1
        assert result.recoveries[0].restored_at is not None
        # The dataflow came back: every executor runs and the sinks kept
        # receiving after the reclaim.
        assert all(
            executor.status is ExecutorStatus.RUNNING
            for executor in result.runtime.executors.values()
        )
        kill_time = killed[0].killed_at
        assert any(receipt.time > kill_time + 60.0 for receipt in result.log.sink_receipts)


class TestDenseStorms:
    @pytest.mark.parametrize(
        "strategy, mode, count, spacing_s",
        [("ccr", "notice", 4, 60.0), ("dsm", "oblivious", 3, 30.0)],
    )
    def test_overlapping_faults_are_rebuilt_onto_enough_capacity(
        self, strategy, mode, count, spacing_s
    ):
        # Faults land before earlier ones are repaired, so a rebuild also
        # relocates executors an earlier fault stranded (an overrun kill's
        # victim, another recovery's victims still waiting on rescue VMs):
        # its capacity must be sized for all of them.
        result = run_chaos_run(
            dag="grid-keyed", strategy=strategy, mode=mode,
            storm_count=count, storm_spacing_s=spacing_s,
        )
        rebuilt = [r for r in result.recoveries if r.rebalanced_at is not None]
        assert rebuilt, "a recovery must have rebuilt the fleet"
        assert all(r.restored_at is not None for r in rebuilt)
        runtime = result.runtime
        for executor in runtime.user_executors:
            assert runtime.placement.vm_of(executor.executor_id) in runtime.cluster


class TestRecoveryAvoidsNoticedVms:
    def test_no_recovery_rebuild_lands_on_a_vm_under_eviction_notice(self, monkeypatch):
        # Three evictions 30 s apart: a kill's recovery runs while the next
        # noticed VM is being evacuated, and must not rebuild onto it.
        rebalances = []
        rebalance = TopologyRuntime.rebalance

        def recording(runtime, plan, *args, **kwargs):
            rebalances.append((runtime.sim.now, plan))
            return rebalance(runtime, plan, *args, **kwargs)

        monkeypatch.setattr(TopologyRuntime, "rebalance", recording)
        result = run_chaos_run(
            dag="grid-keyed", strategy="dsm", mode="notice", storm_count=3, storm_spacing_s=30.0
        )
        notices = [
            (fault.fired_at, fault.deadline, fault.vm_id)
            for fault in result.injector.records
            if fault.deadline is not None
        ]
        rebuilt = [r for r in result.recoveries if r.rebalanced_at is not None]
        assert rebuilt, "a recovery must have rebuilt the fleet"
        for recovery in rebuilt:
            at = recovery.rebalanced_at
            noticed = {vm_id for fired, deadline, vm_id in notices if fired <= at < deadline}
            plans = [plan for time, plan in rebalances if time == at]
            assert plans
            for plan in plans:
                landed = {plan.vm_of(eid) for eid in recovery.lost_executors}
                assert not landed & noticed, f"recovery at {at:.1f}s rebuilt onto {landed & noticed}"


# ------------------------------------------------------------- acceptance (b)
@pytest.fixture(scope="module")
def storm_comparison():
    return run_chaos_experiment(
        dag="grid-keyed", strategy="dsm", duration_s=450.0, storm_count=2
    )


class TestNoticeBeatsOblivious:
    def test_notice_mode_wins_on_restore_latency(self, storm_comparison):
        notice = storm_comparison.notice
        oblivious = storm_comparison.oblivious
        assert oblivious.killed == storm_comparison.storm_count
        assert notice.evaded > 0
        assert notice.mean_restore_s < oblivious.mean_restore_s

    def test_notice_mode_wins_on_cost(self, storm_comparison):
        assert storm_comparison.notice.total_cost < storm_comparison.oblivious.total_cost

    def test_headline_json_roundtrip(self, storm_comparison, tmp_path):
        path = storm_comparison.write_headline_json(tmp_path / "BENCH_chaos.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro-bench-chaos/2"
        for mode in ("notice", "oblivious"):
            for metric in ("restore_s", "replays", "cost_usd"):
                assert f"chaos_{mode}_{metric}" in payload["benchmarks"]

    def test_committed_headline_artifact_shape(self):
        committed = Path(__file__).resolve().parent.parent / "results" / "BENCH_chaos.json"
        assert committed.exists(), "results/BENCH_chaos.json must ride the repo"
        payload = json.loads(committed.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro-bench-chaos/2"
        # {name: value}, the unit in the name.
        assert {name.rsplit("_", 1)[1] for name in payload["benchmarks"]} == {"s", "replays", "usd"}
        assert all(isinstance(value, (int, float)) for value in payload["benchmarks"].values())


# ------------------------------------------------------------ unfinished runs
def open_at_the_end(run):
    """What the run left open, read off its control trace and its sources."""
    left = [f"recovery {entry.split()[1]}" for entry in run.control_sequence()
            if entry.startswith("recover ") and entry.endswith("restored=None")]
    left += [f"evacuation {entry.split()[1]}" for entry in run.control_sequence()
             if entry.startswith("evacuate ") and "evaded=False completed=None" in entry]
    return left + (["sources paused"] if run.runtime.sources_paused else [])


class TestUnfinishedRuns:
    """At ``repro chaos``'s defaults a DCR notice run wedges (ROADMAP item 2)."""

    def test_a_wedged_run_reports_what_it_left_open(self):
        run = run_chaos_run(strategy="dcr", mode="notice")
        assert run.unfinished() == open_at_the_end(run)
        assert run.unfinished() == ["recovery d2-002", "evacuation d2-002", "sources paused"]

    def test_a_clean_run_reports_nothing(self):
        run = run_chaos_run(strategy="dsm", mode="notice")
        assert run.unfinished() == open_at_the_end(run) == []

    @pytest.mark.parametrize("strategy, mode, left_open", [
        ("dsm", "notice", []),
        ("dsm", "oblivious", []),
        ("dcr", "notice", ["recovery d2-002", "evacuation d2-002", "sources paused"]),
        ("dcr", "oblivious", []),
        ("ccr", "notice", ["recovery evac-014", "evacuation evac-014", "sources paused"]),
        ("ccr", "oblivious", []),
    ])
    def test_every_default_run_reports_what_its_trace_left_open(self, strategy, mode, left_open):
        # Only notice-aware DCR and CCR wedge; every oblivious run ends clean.
        run = run_chaos_run(strategy=strategy, mode=mode)
        assert run.unfinished() == open_at_the_end(run) == left_open

    def test_the_cli_gives_no_verdict_on_an_unfinished_run(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--strategy", "dcr"]) == 0
        output = capsys.readouterr().out
        assert "notice     unfinished at the end: recovery d2-002, evacuation d2-002, " \
               "sources paused" in output
        assert "oblivious  unfinished" not in output
        assert "No verdict: " in output and " wins " not in output

    def test_the_cli_keeps_its_verdict_when_both_runs_end_clean(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--strategy", "dsm"]) == 0
        output = capsys.readouterr().out
        assert "unfinished at the end" not in output
        assert "No verdict" not in output
        assert "Notice-aware recovery wins on both axes: " in output


class TestZeroNoticeEvictions:
    """An evacuation the deadline catches before it starts is closed by the kill."""

    STORM = ["--storms", "2", "--duration", "300", "--storm-start", "100", "--notice", "0"]

    def test_a_zero_notice_storm_leaves_nothing_open(self):
        # Each notice lands on its own deadline, so the drain never starts;
        # the kill used to leave the evacuation open for the rest of the run.
        run = run_chaos_run(
            mode="notice", duration_s=300.0, storm_count=2, storm_start_s=100.0, notice_s=0.0
        )
        killed = {fault.vm_id: fault.killed_at for fault in run.injector.killed}
        assert len(killed) == 2
        assert run.unfinished() == open_at_the_end(run) == []
        assert sorted(rec.vm_id for rec in run.evacuations) == sorted(killed)
        for evacuation in run.evacuations:
            assert evacuation.started_at is None and evacuation.overrun
            assert evacuation.completed_at == killed[evacuation.vm_id]
            assert not evacuation.evaded
        assert all(recovery.restored_at is not None for recovery in run.recoveries)

    def test_the_cli_gives_its_verdict_on_a_zero_notice_storm(self, capsys):
        from repro.cli import main

        assert main(["chaos", *self.STORM]) == 0
        output = capsys.readouterr().out
        assert "unfinished at the end" not in output
        assert "No verdict" not in output
        assert ("Notice-aware recovery wins" in output or "did not pay for itself" in output
                or "Tie: both modes restore in" in output)

    def test_a_tie_is_not_a_win(self, capsys):
        # With no notice both modes ride the same kills: equal restore, bill
        # and replays.  The verdict used to read "wins on both axes: 52.2s vs
        # 52.2s restore".
        from repro.cli import main

        assert main(["chaos", *self.STORM]) == 0
        output = capsys.readouterr().out
        assert "Tie: both modes restore in 52.2s and bill $0.0817." in output
        assert "wins" not in output and "did not pay for itself" not in output


class TestStormParametersAreChecked:
    @pytest.mark.parametrize("kwargs, message", [
        ({"duration_s": 100.0}, r"storm_start_s must be in \[0, duration_s=100\), got 150"),
        ({"storm_start_s": -10.0}, r"storm_start_s must be in \[0, duration_s=600\), got -10"),
        ({"storm_spacing_s": -1.0}, "storm_spacing_s must be >= 0, got -1"),
        ({"notice_s": -5.0}, "notice_s must be >= 0, got -5"),
    ])
    @pytest.mark.parametrize("run", [run_chaos_run, run_chaos_experiment])
    def test_bad_storm_parameters_raise_by_name(self, run, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run(**kwargs)


# --------------------------------------------------------------- satellite 3
class TestChaosDeterminism:
    @pytest.mark.parametrize("strategy", ["dsm", "dcr", "ccr"])
    @pytest.mark.parametrize("mode", ["notice", "oblivious"])
    def test_same_seed_runs_are_byte_identical(self, strategy, mode):
        runs = [
            run_chaos_run(
                dag="grid-keyed",
                strategy=strategy,
                mode=mode,
                duration_s=360.0,
                storm_count=2,
                storm_start_s=100.0,
            )
            for _ in range(2)
        ]
        assert runs[0].injector.records, "the storm must actually fire"
        assert runs[0].digest() == runs[1].digest()
        assert runs[0].control_sequence() == runs[1].control_sequence()
        assert runs[0].control_sequence(), "the controller must actually react"


# --------------------------------------------------------------- satellite 6
class TestBatchStepperUnderChaos:
    def test_batch_stepping_disengages_around_faults(self):
        # The batch stepper and the per-event kernel must log the same run,
        # bit for bit: the injected faults are cancellable timers the
        # cascade horizon sees, so the stepper stops short of each fault and
        # hands the recovery (captures, pauses, backlog drains) to the kernel.
        # On the default-logic Grid: the keyed variant's logic is never swept.
        batched = RuntimeConfig.for_ccr()
        classic = RuntimeConfig.for_ccr()
        classic.batch_stepping = False
        results = [
            run_chaos_run(
                dag="grid",
                strategy="ccr",
                mode="notice",
                duration_s=360.0,
                storm_count=2,
                storm_start_s=100.0,
                config=config,
            )
            for config in (batched, classic)
        ]
        assert results[0].injector.records, "the storm must actually fire"
        stepper = results[0].runtime.batch_stepper
        assert stepper.cascades > 0 and stepper.declines
        assert log_digest(results[0].log) == log_digest(results[1].log)
        assert results[0].control_sequence() == results[1].control_sequence()


# ------------------------------------------------------- telemetry satellite
class TestFaultTraceExport:
    def test_every_injected_fault_appears_exactly_once_in_trace(self, tmp_path):
        # FaultRecords must surface through the trace exporter: one "chaos"
        # span per injected fault, matched by injector index, no dupes.
        from repro.obs import validate_trace_jsonl, write_trace_jsonl

        result = run_chaos_run(
            dag="grid-keyed",
            strategy="dsm",
            mode="notice",
            duration_s=450.0,
            storm_count=2,
        )
        injected = result.injector.records
        assert injected, "the storm must actually fire"
        path = write_trace_jsonl(result.trace(), tmp_path / "trace.jsonl")
        records = validate_trace_jsonl(path)
        fault_spans = [
            r for r in records
            if r.get("type") == "span" and r.get("category") == "chaos"
        ]
        assert sorted(span["args"]["index"] for span in fault_spans) == sorted(
            record.index for record in injected
        )
        by_index = {span["args"]["index"]: span for span in fault_spans}
        assert len(by_index) == len(injected)
        for record in injected:
            span = by_index[record.index]
            assert span["name"] == f"fault.{record.event.kind}"
            assert span["args"]["kind"] == record.event.kind
            assert span["args"]["vm_id"] == record.vm_id
            assert span["args"]["outcome"] == record.outcome
