"""Chaos-engineering robustness: spot evictions, unplanned VM loss, recovery.

Covers the chaos-capable cloud layer end to end:

* the occupied-VM removal guard (``Cluster.remove_vm`` fails loudly);
* arbiter accounting when a granted tenant's delta VMs die (the reservation
  and migration token go back to the budget instead of leaking);
* acceptance (a): a zero-notice VM kill recovers via checkpoint restore with
  no lost ``by_key`` state and bounded replays, including a kill landing
  mid-evacuation-migration;
* an evacuation's replacement market on both sides of its cost boundary
  (spot only when strictly cheaper in expectation);
* acceptance (b): under a spot eviction storm the notice-aware controller
  beats the oblivious baseline on restore latency AND total cost;
* determinism: same-seed chaos runs produce byte-identical event-log digests
  and identical controller action sequences for all three strategies;
* the batch stepper disengages around injected faults: a chaos run with
  batch stepping on (non-vectorized tier) matches the classic keyed kernel
  log exactly;
* the chaos goldens: every run the suite makes of a storm is pinned by its
  log digest and its control trace (:data:`CHAOS_GOLDENS`), and the two
  seams between a scaling action and a VM loss are pinned by their records.
"""

import copy
import hashlib
import inspect
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
from repro.dataflow.event import CheckpointAction
from repro.elastic import (
    AllocationPlanner,
    ControllerConfig,
    ElasticityController,
    ElasticityMonitor,
    build_controller,
)
from repro.engine.config import RuntimeConfig
from repro.engine.executor import ExecutorStatus
from repro.engine.runtime import TopologyRuntime
from repro.experiments import elastic as elastic_runner
from repro.experiments.chaos import run_chaos_experiment, run_chaos_run
from repro.experiments.multi import run_multi_experiment
from repro.experiments.scenarios import deploy_baseline, run_migration_experiment
from repro.elastic.arbiter import ScaleArbiter
from repro.reliability.repartition import PARTITIONED_STATE_KEY
from repro.reliability.statestore import checkpoint_key
from repro.sim import RandomSource, Simulator
from repro.sim.shard import log_digest
from repro.workloads.profiles import ConstantRateProfile
from tests.conftest import patched, tiny_dataflow


# ------------------------------------------------------------- chaos goldens
#: ``(run_chaos_run kwargs, log_digest, sha256 of the control_sequence() lines)``
#: of every storm run below, by label.  A change that moves one has changed
#: what a run does: name the run and the mechanism, do not re-record silently.
CHAOS_GOLDENS = {
    "defaults.dsm.notice": (
        dict(strategy="dsm", mode="notice"),
        "5682776604e4566a5d8ee4e4c50f779f07f2b3beaa74e100f3d974f98382c971",
        "f95bc0bd7496c4db6ca1382392bd5ea2278d029ebd5c0f16ef528dd785d001db",
    ),
    "defaults.dsm.oblivious": (
        dict(strategy="dsm", mode="oblivious"),
        "889b45adf068e1b8f750fbb522447a866806e10dacf8281a6b830245a37196fd",
        "da9ded69325f721c914969f6ecbadd717ba542501081d275340851401099ef00",
    ),
    "defaults.dcr.notice": (
        dict(strategy="dcr", mode="notice"),
        "ef4de2680fb9b88c7a7012205e993c92ff1ebc589a611455cd1b7cc4bddbd858",
        "d824fb0dc3b185db4e294b2a5a0bcfabb1743cefa053cdb33ba0833a99a3b4e0",
    ),
    "defaults.dcr.oblivious": (
        dict(strategy="dcr", mode="oblivious"),
        "741196be1bd9da45714a8f77846b363e9b46ff7d8ebaceb2e63055b9ca8f1002",
        "826d0bfdf17bc1dbcdbc32c3cd8d257f009c9b6f6ff6e1fc71b13ef621b38d82",
    ),
    # The three CCR rows were re-recorded when only CCR's broadcast PREPARE
    # began to start capture mode: the periodic checkpoint's sequential
    # PREPARE used to switch every CCR executor into capture for good (the
    # sinks went silent at 31.6 s, and the notice runs wedged at evac-014).
    "defaults.ccr.notice": (
        dict(strategy="ccr", mode="notice"),
        "394e465eb1028c7982524735f271ab5774ac3a8a68c907def414f5c757451936",
        "e877be11c8ddc12b30c130a8630827e249b8bacf9f6c045e74326aef461de9c2",
    ),
    "defaults.ccr.oblivious": (
        dict(strategy="ccr", mode="oblivious"),
        "9022367ed155c50bc290a6cd63c15a7f134dee62fbde9ea6a4dc8a472674c21d",
        "99125163a002f23fa298394a2497c272ed3d64490720cb3579cfcc86a46734fb",
    ),
    "dense.ccr.notice.4x60": (
        dict(dag="grid-keyed", strategy="ccr", mode="notice", storm_count=4, storm_spacing_s=60.0),
        "b72963f4fe50b41341fb20d0f20017882d27311af3450b7ed834ad1228eccb39",
        "06dbed7b23fa420f4969cc3ecfd4e1883494385ff1515ec65b5b7dc25e2202a5",
    ),
    "dense.dsm.oblivious.3x30": (
        dict(dag="grid-keyed", strategy="dsm", mode="oblivious", storm_count=3, storm_spacing_s=30.0),
        "5f6a8154dd919968a8d5e80a5ba06d6f8a329c604e61cfb4adf90b8a48568505",
        "f88c3861d85198b0afc8d0d09062a876605e5f160ae7e10c9bbbea2a1c2cc383",
    ),
    "dense.dsm.notice.3x30": (
        dict(dag="grid-keyed", strategy="dsm", mode="notice", storm_count=3, storm_spacing_s=30.0),
        "d32c2b3911f299ec087487f672161f833d89240c8bf74f724af57369abfb190e",
        "f8505173b26b44cddaf9ae00e4c1baa595d645a04f01402bff68152795191da4",
    ),
    # A 50 s notice: the kill lands while the evacuation migration runs.
    "kill-mid-evacuation": (
        dict(dag="grid-keyed", strategy="dsm", mode="notice", duration_s=420.0,
             storm_count=1, storm_start_s=120.0, notice_s=50.0),
        "7bfcd1bc97032e8e38648e47c547ced69de3a24bea561fd3623130a8b2cc10a7",
        "5d94c2221de839937de0255e03841f7e8f0d201acaea43ce369585874df587d3",
    ),
    "zero-notice": (
        dict(mode="notice", duration_s=300.0, storm_count=2, storm_start_s=100.0, notice_s=0.0),
        "415882cd1daed07a2f47cd99d5001caa3a7890e2d5a1ca4a936d4bd4575ba140",
        "7604fc18cc48a5b0ef6f0239be88666fac7179a63e94987c1500961c9fd7f0c9",
    ),
}

_RUNS = {}


def _cached(kwargs):
    """``(run_chaos_run(**kwargs), the (time, plan) of its rebalances)``, made once.

    Keyed by the call's full argument list, so spelling a default out reads
    the same run.
    """
    bound = inspect.signature(run_chaos_run).bind(**kwargs)
    bound.apply_defaults()
    key = tuple(sorted(bound.arguments.items()))
    if key not in _RUNS:
        rebalances = []
        rebalance = TopologyRuntime.rebalance

        def recording(runtime, plan, *args, **kw):
            rebalances.append((runtime.sim.now, plan))
            return rebalance(runtime, plan, *args, **kw)

        with patched(TopologyRuntime, "rebalance", recording):
            _RUNS[key] = (run_chaos_run(**kwargs), rebalances)
    return _RUNS[key]


def chaos_run(**kwargs):
    """``run_chaos_run(**kwargs)``, shared by every test that reads it."""
    return _cached(kwargs)[0]


def chaos_rebalances(**kwargs):
    """The ``(time, plan)`` of every rebalance ``chaos_run(**kwargs)`` issued."""
    return _cached(kwargs)[1]


class TestChaosGoldens:
    @pytest.mark.parametrize("label", sorted(CHAOS_GOLDENS))
    def test_log_and_control_trace_are_pinned(self, label):
        kwargs, log, control = CHAOS_GOLDENS[label]
        run = chaos_run(**kwargs)
        lines = "\n".join(run.control_sequence())
        assert (log_digest(run.log), hashlib.sha256(lines.encode()).hexdigest()) == (log, control)


# ---------------------------------------------------- sinks complete inline
class TestSinksCompleteAtDelivery:
    """A sink's service time is 0 s and nothing else occupies it (no control
    event is sent to it, its util VM is never killed), so every data event a
    sink receives completes inside ``SinkExecutor.deliver``: no sink queues
    data or schedules a completion.  Checked on the Diamond scale-in column
    on the per-event kernel (under batch stepping the sweep logs a sink's
    receipts itself, at their delivery times, and
    ``test_acked_batch_equivalence.py::TestPaperMatrixCells`` pins that log to
    the per-event one), on the chaos defaults in both modes (the goldens' own
    runs) and on a two-tenant shared fleet: every event a sink processed and
    every receipt its log holds is one it completed inline."""

    @staticmethod
    def assert_every_receipt_inline(runtimes):
        for runtime in runtimes:
            counts = [
                (sink.inline_completions, sink.received_count, sink.processed_count)
                for sink in runtime.sink_executors
            ]
            assert counts and all(
                inline == received == processed > 0 for inline, received, processed in counts
            ), counts
            assert sum(inline for inline, _, _ in counts) == len(runtime.log.sink_receipts)

    @pytest.mark.parametrize("strategy", ["dsm", "dcr", "ccr"])
    def test_diamond_scale_in_column(self, monkeypatch, strategy):
        strategy_cls = strategy_by_name(strategy)
        runtime_config = strategy_cls.runtime_config.__func__

        def per_event(cls, seed: int = 2018) -> RuntimeConfig:
            config = runtime_config(cls, seed=seed)
            config.batch_stepping = False
            return config

        monkeypatch.setattr(strategy_cls, "runtime_config", classmethod(per_event))
        result = run_migration_experiment(
            dag="diamond", strategy=strategy, scaling="in", migrate_at_s=90.0,
            post_migration_s=540.0,
        )
        self.assert_every_receipt_inline([result.runtime])

    @pytest.mark.parametrize("mode", ["notice", "oblivious"])
    def test_chaos_defaults(self, mode):
        self.assert_every_receipt_inline([chaos_run(mode=mode).runtime])

    def test_two_tenants_on_one_fleet(self):
        result = run_multi_experiment(
            dags=("traffic", "linear"), duration_s=300.0, include_private_baseline=False
        )
        manager = result.shared.manager
        self.assert_every_receipt_inline(
            [manager.tenant(name).runtime for name in result.shared.tenants]
        )


# ------------------------------------------------------ scale x fault seams
def kill_what_provision_buys(monkeypatch, at_s):
    """Kill every VM ``CloudProvider.provision`` hands out at ``at_s``, 1 s later.

    Returns the list the run's controller lands in (the kill goes through its
    :meth:`handle_vm_failure`).  Only the first provisioning at ``at_s`` is
    hit, so the replacements live.
    """
    controllers, fired = [], []
    build = elastic_runner.build_controller
    provision = CloudProvider.provision

    def building(*args, **kwargs):
        controllers.append(build(*args, **kwargs))
        return controllers[-1]

    def provisioning(provider, *args, **kwargs):
        vms = provision(provider, *args, **kwargs)
        if provider.sim.now == at_s and not fired:
            fired.append(vms)
            for vm in vms:
                provider.sim.schedule(1.0, controllers[0].handle_vm_failure, vm.vm_id)
        return vms

    monkeypatch.setattr(elastic_runner, "build_controller", building)
    monkeypatch.setattr(CloudProvider, "provision", provisioning)
    return controllers


class TestScaleFaultSeams:
    """A VM of a staged scaling action dies before the migration is issued."""

    def test_dead_delta_vms_are_replaced_like_for_like(self, monkeypatch):
        kill_what_provision_buys(monkeypatch, 150.0)
        run = elastic_runner.run_elastic_experiment(
            dag="grid", strategy="ccr", profile="surge", duration_s=400.0,
            controller_config=ControllerConfig(placement="full-replace"),
        )
        [action] = run.actions
        killed = [f"d1-{n:03d}" for n in range(13, 34)]
        assert [r.vm_id for r in run.recoveries] == killed
        assert all(r.lost_executors == [] and r.restored_at == 151.0 for r in run.recoveries)
        assert action.provisioned_vm_ids == [f"d1-{n:03d}" for n in range(34, 55)]
        assert not action.aborted
        assert action.enacted_at == 180.0
        assert action.completed_at == pytest.approx(304.5606, abs=1e-3)
        assert not run.controller.migration_in_flight

    def test_losing_the_whole_target_fleet_aborts_the_action(self, monkeypatch):
        kill_what_provision_buys(monkeypatch, 30.0)
        run = elastic_runner.run_elastic_experiment(
            dataflow=tiny_dataflow(), profile=ConstantRateProfile(rate=2.0), duration_s=200.0,
            controller_config=ControllerConfig(placement="full-replace"),
        )
        aborted, retry = run.actions
        assert aborted.aborted and aborted.enacted_at is None
        assert aborted.completed_at == 31.0
        assert [r.tenant_id for r in run.controller.arbiter.aborts] == ["tenant"]
        assert not run.controller.migration_in_flight
        assert (retry.decided_at, retry.enacted_at) == (60.0, 90.0)
        assert retry.provisioned_vm_ids == ["d3-005"]
        assert retry.completed_at == pytest.approx(115.7030, abs=1e-3)
        assert not retry.aborted



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
        result = chaos_run(**CHAOS_GOLDENS["kill-mid-evacuation"][0])
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
        [("ccr", "oblivious", 4, 60.0), ("dsm", "oblivious", 3, 30.0)],
    )
    def test_overlapping_faults_are_rebuilt_onto_enough_capacity(
        self, strategy, mode, count, spacing_s
    ):
        # Faults land before earlier ones are repaired, so a rebuild also
        # relocates executors an earlier fault stranded (an overrun kill's
        # victim, another recovery's victims still waiting on rescue VMs):
        # its capacity must be sized for all of them.
        result = chaos_run(
            dag="grid-keyed", strategy=strategy, mode=mode,
            storm_count=count, storm_spacing_s=spacing_s,
        )
        rebuilt = [r for r in result.recoveries if r.rebalanced_at is not None]
        assert rebuilt, "a recovery must have rebuilt the fleet"
        assert all(r.restored_at is not None for r in rebuilt)
        assert result.unfinished() == []
        runtime = result.runtime
        for executor in runtime.user_executors:
            assert runtime.placement.vm_of(executor.executor_id) in runtime.cluster


class TestRecoveryAvoidsNoticedVms:
    def test_no_recovery_rebuild_lands_on_a_vm_under_eviction_notice(self):
        # Three evictions 30 s apart: a kill's recovery runs while the next
        # noticed VM is being evacuated, and must not rebuild onto it.
        kwargs = CHAOS_GOLDENS["dense.dsm.notice.3x30"][0]
        result = chaos_run(**kwargs)
        rebalances = chaos_rebalances(**kwargs)
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


class TestEvacuationMarket:
    """An evacuation buys spot only when spot's expected cost over the
    evacuation horizon (bill plus eviction-risk penalty) is strictly lower;
    a tie goes to on-demand."""

    @pytest.mark.parametrize(
        "market, expected",
        [
            (SpotMarket(discount=0.35, eviction_rate_per_hour=0.5), SPOT),
            (SpotMarket(discount=0.9, eviction_rate_per_hour=0.5), ON_DEMAND),
            (SpotMarket(discount=1.0, eviction_rate_per_hour=0.0), ON_DEMAND),
        ],
        ids=["cheap-spot", "risky-spot", "tie"],
    )
    def test_replacement_market_either_side_of_the_boundary(self, market, expected):
        sim = Simulator()
        provider = CloudProvider(sim, spot_market=market, rng=RandomSource(7))
        runtime, workers = deploy_baseline(
            topologies.grid(), strategy_by_name("ccr").runtime_config(seed=7), provider,
            worker_market=SPOT,
        )
        controller = build_controller(runtime, provider, strategy_by_name("ccr"))
        sim.run(until=20.0)
        victim = workers[0]
        assert victim.occupied_slots
        record = controller.handle_eviction_notice(victim.vm_id, deadline=sim.now + 120.0)
        assert record.replacement_market == expected
        # The doomed D2's two executors, no free slot elsewhere: one D2.
        assert record.pending_replacements == 1
        sim.run(until=80.0)
        markets = [runtime.cluster.vm(vm_id).tags["market"] for vm_id in record.replacement_vm_ids]
        assert markets == [expected]


# ------------------------------------------------------------- acceptance (b)
@pytest.fixture(scope="module")
def storm_comparison():
    return run_chaos_experiment(
        dag="grid-keyed", strategy="dsm", duration_s=450.0, storm_count=2
    )


class TestNoticeBeatsOblivious:
    def test_notice_mode_wins_on_restore_latency(self, storm_comparison):
        notice = storm_comparison.runs["notice"]
        oblivious = storm_comparison.runs["oblivious"]
        assert oblivious.killed == storm_comparison.meta["storm_count"]
        assert notice.evaded > 0
        assert notice.restore_s < oblivious.restore_s

    def test_notice_mode_wins_on_cost(self, storm_comparison):
        runs = storm_comparison.runs
        assert runs["notice"].cost < runs["oblivious"].cost

    def test_headline_json_roundtrip(self, storm_comparison, tmp_path):
        path = storm_comparison.write_headline_json(tmp_path / "BENCH_chaos.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro-bench-chaos/2"
        for mode in ("notice", "oblivious"):
            for metric in ("restore_s", "replays", "cost_usd"):
                assert f"chaos_{mode}_{metric}" in payload["benchmarks"]

    def test_headline_json_is_the_committed_artifact(self, storm_comparison, tmp_path):
        """``results/BENCH_chaos.json`` is this comparison's headline, but for the host."""
        committed = Path(__file__).resolve().parent.parent / "results" / "BENCH_chaos.json"
        path = storm_comparison.write_headline_json(tmp_path / "BENCH_chaos.json")
        written, pinned = (
            {key: value for key, value in json.loads(p.read_text(encoding="utf-8")).items()
             if key not in ("python", "machine")}
            for p in (path, committed)
        )
        assert written == pinned

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
        run = chaos_run(strategy="dcr", mode="notice")
        assert run.unfinished() == open_at_the_end(run)
        assert run.unfinished() == ["recovery d2-002", "evacuation d2-002", "sources paused"]

    def test_a_clean_run_reports_nothing(self):
        run = chaos_run(strategy="dsm", mode="notice")
        assert run.unfinished() == open_at_the_end(run) == []

    @pytest.mark.parametrize("strategy, mode, left_open", [
        ("dsm", "notice", []),
        ("dsm", "oblivious", []),
        ("dcr", "notice", ["recovery d2-002", "evacuation d2-002", "sources paused"]),
        ("dcr", "oblivious", []),
        ("ccr", "notice", []),
        ("ccr", "oblivious", []),
    ])
    def test_every_default_run_reports_what_its_trace_left_open(self, strategy, mode, left_open):
        # Only notice-aware DCR wedges; every oblivious run ends clean.
        run = chaos_run(strategy=strategy, mode=mode)
        assert run.unfinished() == open_at_the_end(run) == left_open

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_dsm_notice_commits_a_periodic_checkpoint_after_each_evacuation(self):
        """The periodic PREPARE that opens inside the first evacuation's
        rebalance never completes: the last commit is at 182.5 s, before the
        evacuations close (232.3, 341.8 and 459.7 s)."""
        run = chaos_run(strategy="dsm", mode="notice")
        commits = [w.completed_at for w in run.runtime.checkpoints.completed_waves(CheckpointAction.COMMIT)]
        closed = [evacuation.completed_at for evacuation in run.controller.evacuations]
        assert len(closed) == 3 and None not in closed
        for closed_at in closed:
            assert any(committed_at > closed_at for committed_at in commits), closed_at

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


class TestPeriodicCheckpointsDoNotCapture:
    """Only CCR's broadcast PREPARE starts capture mode, not a periodic wave."""

    def test_ccr_keeps_delivering_under_periodic_checkpoints(self):
        # A chaos run forces periodic checkpoints on; their sequential PREPARE
        # used to leave every CCR executor capturing, and the sinks went
        # silent at 31.6 s with 956 receipts.
        ccr = chaos_run(strategy="ccr", mode="oblivious")
        dcr = chaos_run(strategy="dcr", mode="oblivious")
        receipts = len(ccr.log.sink_receipts)
        assert abs(receipts - len(dcr.log.sink_receipts)) <= 0.05 * len(dcr.log.sink_receipts)
        assert max(receipt.time for receipt in ccr.log.sink_receipts) > 590.0
        assert not any(executor.capture_mode for executor in ccr.runtime.user_executors)


class TestZeroNoticeEvictions:
    """An evacuation the deadline catches before it starts is closed by the kill."""

    STORM = ["--storms", "2", "--duration", "300", "--storm-start", "100", "--notice", "0"]

    def test_a_zero_notice_storm_leaves_nothing_open(self):
        # Each notice lands on its own deadline, so the drain never starts;
        # the kill used to leave the evacuation open for the rest of the run.
        run = chaos_run(**CHAOS_GOLDENS["zero-notice"][0])
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
        batched = strategy_by_name("ccr").runtime_config()
        classic = strategy_by_name("ccr").runtime_config()
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
