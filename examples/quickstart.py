#!/usr/bin/env python3
"""Quickstart: build a streaming dataflow, run it, and migrate it live with CCR.

This example shows the core public API end to end:

1. compose a dataflow with :class:`repro.TopologyBuilder`;
2. provision a small simulated cloud cluster and deploy the dataflow;
3. let it run for a while, then scale it in onto fewer, larger VMs using the
   CCR (Capture-Checkpoint-Resume) migration strategy;
4. print the migration report and the paper's §4 metrics.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import TopologyBuilder, TopologyRuntime, compute_migration_metrics, strategy_by_name
from repro.cluster.cloud import CloudProvider, Cluster
from repro.cluster.vm import D2, D3
from repro.elastic.planner import plan_user_tasks_on
from repro.sim import Simulator


def build_dataflow():
    """A small ETL-style dataflow: parse -> enrich -> (aggregate | alert) -> sink."""
    builder = TopologyBuilder("quickstart")
    builder.add_source("events", rate=8.0)
    builder.add_task("parse", latency_s=0.1, stateful=True)
    builder.add_task("enrich", latency_s=0.1)
    builder.add_task("aggregate", latency_s=0.1, stateful=True)
    builder.add_task("alert", latency_s=0.1)
    builder.add_sink("sink")
    builder.chain("events", "parse", "enrich")
    builder.fan_out("enrich", ["aggregate", "alert"])
    builder.fan_in(["aggregate", "alert"], "sink")
    return builder.build(auto_parallelism=True)


def main() -> None:
    dataflow = build_dataflow()
    print(dataflow.describe())
    print()

    # The CCR strategy dictates the reliability configuration (capture mode on
    # PREPARE, no per-event acking, no periodic checkpoints).
    strategy_cls = strategy_by_name("ccr")
    config = strategy_cls.runtime_config(seed=42)

    sim = Simulator()
    provider = CloudProvider(sim)
    cluster = Cluster()

    # A dedicated 4-slot VM hosts the source and sink (never migrated), and the
    # dataflow initially runs on three 2-slot D2 VMs.
    util_vm = provider.provision(D3, 1, name_prefix="util")[0]
    util_vm.tags["role"] = "util"
    cluster.add_vm(util_vm)
    for vm in provider.provision(D2, 3, name_prefix="d2"):
        cluster.add_vm(vm)

    runtime = TopologyRuntime(dataflow, cluster, sim=sim, config=config)
    runtime.deploy()
    runtime.start()

    # Warm up for two simulated minutes.
    sim.run(until=120.0)
    print(f"[t={sim.now:6.1f}s] warm-up done: "
          f"{len(runtime.log.sink_receipts)} events delivered, "
          f"cluster utilization {cluster.utilization:.0%}")

    # Scale in: consolidate the user tasks onto two 4-slot D3 VMs.
    target_vms = provider.provision(D3, 2, name_prefix="d3")
    for vm in target_vms:
        cluster.add_vm(vm)
    new_plan = plan_user_tasks_on(runtime, [vm.vm_id for vm in target_vms])

    migration = strategy_cls(runtime)
    report = migration.migrate(new_plan)
    print(f"[t={sim.now:6.1f}s] CCR migration requested "
          f"({len(runtime.user_executors)} task instances will move to {len(target_vms)} D3 VMs)")

    # Observe the post-migration behaviour for five more minutes.
    sim.run(until=420.0)

    metrics = compute_migration_metrics(
        runtime.log, report,
        expected_output_rate=dataflow.output_rate(),
        dataflow_name=dataflow.name, scenario="scale-in",
        end_time=sim.now,
    )

    print()
    print("Migration report")
    print(f"  capture duration : {report.drain_capture_duration_s * 1000:8.1f} ms")
    print(f"  rebalance command: {report.rebalance_duration_s:8.2f} s")
    print(f"  protocol complete: {report.protocol_duration_s:8.2f} s after the request")
    print()
    print("Paper §4 metrics")
    for key, value in metrics.as_dict().items():
        print(f"  {key:20s} {value}")
    print()
    print(f"Events delivered in total: {len(runtime.log.sink_receipts)}")
    print(f"Events lost:               {metrics.messages_lost_in_kills}")
    print(f"Events replayed:           {metrics.replayed_message_count}")
    print(f"Final cluster placement uses VMs: {sorted(runtime.placement.vms_used)}")


if __name__ == "__main__":
    main()
