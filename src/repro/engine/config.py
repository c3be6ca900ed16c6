"""Engine configuration: reliability features and timing model.

The timing constants are calibrated against the paper's testbed measurements
(Apache Storm 1.0.3 on Azure D-series VMs):

* the 100 ms dummy task latency and 8 ev/s source rate are set per dataflow in
  :mod:`repro.dataflow.topologies`;
* the ack timeout and periodic checkpoint interval default to Storm's 30 s;
* the rebalance command takes ~7.26 s on average (§5.1 of the paper);
* restarted worker/executor readiness is modelled per VM: each executor on a
  VM becomes ready a base delay plus a per-preceding-executor cost after the
  rebalance command completes, with jitter.  When the rebalance happens while
  the dataflow is still live (DSM does not pause the sources, so data and ack
  traffic keep hammering the VMs), worker start-up is slowed by a
  load-dependent multiplier -- this is what produces DSM's large,
  DAG-size-dependent restore times with their characteristic ~30 s INIT
  re-send quantisation.

The three config classes are configured by attribute assignment
(``config.batch_stepping = True``); they are slotted so that assigning a
misspelt or removed field raises ``AttributeError`` instead of doing nothing.
:class:`RuntimeConfig` carries one engine switch, ``batch_stepping`` (on by
default): the engine picks per source tick between the level sweep and the
per-event kernel from what it observes (see :mod:`repro.engine.batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(slots=True)
class ReliabilityConfig:
    """Which Storm reliability features are active for a run."""

    #: Acking of all data events (required by DSM; DCR/CCR ack only checkpoint events).
    ack_all_events: bool = False
    #: Ack timeout after which an incomplete causal tree is failed and replayed.
    ack_timeout_s: float = 30.0
    #: Periodic checkpoint interval (DSM); ``None`` disables periodic checkpoints
    #: and a non-positive interval is rejected (``0.0`` is not "off").
    #: A periodic wave is sequential, so it never puts a task into capture
    #: mode: only CCR's broadcast PREPARE does (:mod:`repro.core.ccr`).
    periodic_checkpoint_interval_s: Optional[float] = None
    #: Storm's ``max.spout.pending`` flow control: with acking enabled, a
    #: source stops emitting new events while this many root events are still
    #: unacknowledged.  Only applies when ``ack_all_events`` is set; ``None``
    #: disables the throttle (a value below 1 is rejected: 0 would stall the
    #: spout for good, not lift the limit).
    max_spout_pending: Optional[int] = 96
    #: Whether generator ticks that occur while the source is throttled are
    #: queued in the source's backlog (and emitted later) rather than skipped.
    #: The default (``True``) conserves the input stream, so every strategy is
    #: charged the same total workload; setting it to ``False`` models a purely
    #: rate-limited synthetic spout whose ``nextTuple`` is simply not called
    #: while throttled (events generated during the throttle never exist).
    #: Ticks that occur while the source is *explicitly paused* (DCR/CCR)
    #: always go to the backlog.
    throttled_ticks_generate_backlog: bool = True

    def __post_init__(self) -> None:
        if self.max_spout_pending is not None and self.max_spout_pending < 1:
            raise ValueError(
                f"max_spout_pending must be at least 1 (None = unlimited), got {self.max_spout_pending}"
            )
        if self.ack_timeout_s <= 0:
            raise ValueError(f"ack_timeout_s must be positive, got {self.ack_timeout_s}")
        interval = self.periodic_checkpoint_interval_s
        if interval is not None and not interval > 0:
            raise ValueError(
                f"periodic_checkpoint_interval_s must be positive (None = off), got {interval}"
            )


@dataclass(slots=True)
class TimingConfig:
    """Timing model for the Storm-like substrate."""

    #: Platform-logic handling time for one checkpoint control event.
    checkpoint_handling_s: float = 0.002
    #: Duration of the Storm ``rebalance`` command itself (mean / stddev).
    rebalance_command_mean_s: float = 7.26
    rebalance_command_stddev_s: float = 0.5
    #: Worker/executor restart model.  Supervisors launch the migrated workers
    #: in parallel once the rebalance command completes, so every executor
    #: becomes ready after ``worker_start_base_s`` plus a uniformly distributed
    #: extra delay whose spread grows with the number of executors being
    #: redeployed (code distribution, ZooKeeper coordination and connection
    #: (re)wiring all contend): spread = ``worker_start_spread_base_s`` +
    #: ``worker_start_spread_per_executor_s`` * migrating executors.
    worker_start_base_s: float = 8.0
    worker_start_spread_base_s: float = 10.0
    worker_start_spread_per_executor_s: float = 0.7
    #: Multiplier applied to worker start-up when the rebalance is performed
    #: while the dataflow is live (sources unpaused, acking enabled): restart
    #: competes with data processing, ack traffic and message replays.
    loaded_start_multiplier: float = 1.7
    #: Additional per-migrating-executor load penalty applied on top of the
    #: loaded multiplier (captures nimbus / supervisor contention growing with
    #: the number of workers being redeployed).
    loaded_start_per_executor_s: float = 1.0
    #: Maximum instantaneous source emission rate when draining backlog or
    #: replaying failed events (events/second).
    source_max_burst_rate: float = 100.0
    #: How often an idle source re-checks its rate profile while the profile
    #: reports a non-positive rate (profile-driven sources only).
    source_idle_recheck_s: float = 0.25
    #: State-store latency model (calibrated to 2000 events in ~100 ms).
    statestore_base_latency_s: float = 0.0005
    statestore_per_byte_latency_s: float = 5.0e-7
    #: Quiesce delay after pausing sources before a JIT checkpoint wave is
    #: emitted, letting in-transit source emissions land in the entry queues.
    quiesce_delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.source_max_burst_rate <= 0:
            raise ValueError(
                f"source_max_burst_rate must be positive, got {self.source_max_burst_rate}"
            )


@dataclass(slots=True)
class RuntimeConfig:
    """Complete configuration of a :class:`~repro.engine.runtime.TopologyRuntime`."""

    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    #: Master seed for all randomness in the run.
    seed: int = 2018
    #: Name of the VM (by tag role) that hosts sources and sinks and is
    #: excluded from migration, per the paper's experiment setup.
    util_vm_role: str = "util"
    #: Let the batch-stepping cascade take the source ticks it can (one kernel
    #: callback sweeps a whole stretch level by level with numpy array rounds,
    #: :mod:`repro.engine.batch`).  It decides tick by tick; one it declines --
    #: loss, replay, migrations, a throttled spout, non-default task logic, a
    #: window too short to pay for a sweep -- runs on the per-event kernel.
    #: The log is bit-identical either way, event ids included (they are a
    #: function of the data, :mod:`repro.dataflow.event`).
    #: ``False`` runs everything per event: the equivalence suites' reference
    #: (the field goes once ``bench_e2e`` stops assigning it).
    batch_stepping: bool = True

    def copy(self) -> "RuntimeConfig":
        """Return an independent copy of this configuration."""
        return replace(self, reliability=replace(self.reliability), timing=replace(self.timing))

    @classmethod
    def for_dsm(cls, seed: int = 2018) -> "RuntimeConfig":
        """Configuration matching the DSM baseline: ack everything, periodic checkpoints."""
        return cls(
            reliability=ReliabilityConfig(
                ack_all_events=True,
                ack_timeout_s=30.0,
                periodic_checkpoint_interval_s=30.0,
            ),
            seed=seed,
        )

    @classmethod
    def for_dcr(cls, seed: int = 2018) -> "RuntimeConfig":
        """Configuration for DCR and CCR: no data acking, no periodic checkpoints.

        CCR needs nothing more: its capture mode comes with its broadcast
        PREPARE wave, not from a flag.
        """
        return cls(
            reliability=ReliabilityConfig(
                ack_all_events=False,
                ack_timeout_s=30.0,
                periodic_checkpoint_interval_s=None,
            ),
            seed=seed,
        )
