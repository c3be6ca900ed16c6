#!/usr/bin/env python3
"""Closed-loop elastic scaling of the Traffic dataflow under a rush-hour surge.

The scenario the paper's introduction motivates, now with the loop actually
closed: a latency-sensitive GPS analytics pipeline experiences a rush-hour
surge.  A :class:`StepProfile` drives the source rate (8 -> 24 -> 8 ev/s);
the :class:`ElasticityController` watches the observed rate, applies the
paper's one-instance-per-8-ev/s provisioning rule, and migrates the dataflow
with CCR -- out onto one-slot D1 VMs when the surge hits (per-minute billing
tracks the load closely) and back onto D2s when it subsides -- deprovisioning
the vacated VMs each time.  No manual ``migrate_at`` anywhere.

The tasks run lighter user logic than the paper's 100 ms dummy (40 ms) so the
surge stays within processing capacity and the run showcases *rate-driven*
scaling rather than overload recovery.

Run with::

    python examples/elastic_traffic_scaling.py

The same loop is available from the command line::

    python -m repro elastic --dag traffic --strategy ccr --profile surge
"""

from __future__ import annotations

from repro.dataflow import topologies
from repro.elastic import ControllerConfig
from repro.experiments import run_elastic_experiment
from repro.metrics.timeline import latency_timeline
from repro.workloads import StepProfile, gps_payload_factory


def main() -> None:
    # --- the workload -----------------------------------------------------
    # Normal load is the paper's 8 ev/s; rush hour triples it between
    # t=270 s and t=540 s.
    duration_s = 900.0
    profile = StepProfile(steps=[(0.0, 8.0), (270.0, 24.0), (540.0, 8.0)])

    dataflow = topologies.traffic(latency_s=0.04)
    dataflow.sources[0].payload_factory = gps_payload_factory(vehicle_count=400, seed=3)

    # --- the control loop -------------------------------------------------
    result = run_elastic_experiment(
        dag="traffic",
        strategy="ccr",
        profile=profile,
        duration_s=duration_s,
        seed=99,
        dataflow=dataflow,
        controller_config=ControllerConfig(
            check_interval_s=15.0, confirm_samples=2, cooldown_s=60.0
        ),
    )

    # --- report -----------------------------------------------------------
    print(f"Elastic Traffic run: {duration_s:.0f}s simulated, CCR strategy, "
          f"surge 8 -> 24 -> 8 ev/s")
    print()
    for action in result.actions:
        report = action.report
        protocol = (f"{report.protocol_duration_s:6.1f} s protocol"
                    if report is not None and report.protocol_duration_s is not None
                    else "protocol still running")
        allocation = " ".join(
            f"{count}x{name}" for name, count in sorted(action.target.vm_counts.items())
        )
        print(f"[t={action.decided_at:6.1f}s] scale-{action.direction:3s} "
              f"{action.from_tier} -> {action.to_tier} "
              f"(observed {action.observed_rate:5.1f} ev/s, "
              f"pressure {action.target.pressure:.2f}) -> {allocation}")
        print(f"              {protocol}, "
              f"{len(action.provisioned_vm_ids)} VMs provisioned, "
              f"{len(action.deprovisioned_vm_ids)} vacated VMs released")
    if not result.actions:
        print("no scaling action was triggered (rate never left the baseline band)")
    print()

    outs, ins = result.scale_outs(), result.scale_ins()
    assert outs and ins, "the surge should trigger at least one scale-out and one scale-in"

    mid_latencies = [p.latency_s for p in latency_timeline(result.log, window_s=30.0)]
    print(f"events delivered       : {len(result.log.sink_receipts)}")
    print(f"events lost in kills   : {result.log.lost_in_kills()}")
    print(f"peak avg latency (30s) : {max(mid_latencies) * 1000:8.1f} ms")
    print(f"final cluster          : {result.runtime.cluster.describe()}")
    print()

    print("Billing summary (relative pay-as-you-go units, per-minute granularity)")
    now = result.runtime.sim.now
    for record in result.provider.billing_records:
        status = "released" if record.deprovisioned_at is not None else "running "
        print(f"  {record.vm_id:12s} {record.vm_type:3s} {status:9s} "
              f"cost {record.cost(now):7.4f}")
    print(f"  total: {result.total_cost:.4f}")
    print()
    print("The controller scaled the dataflow out and back in automatically; "
          "every vacated VM stopped billing the minute it was released.")


if __name__ == "__main__":
    main()
