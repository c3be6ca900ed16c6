"""Closed-loop elasticity: the predictive, SLO-aware control plane.

The paper motivates DSM/DCR/CCR with input-rate dynamism -- latency-sensitive
dataflows that must scale in or out as traffic changes -- but scopes the
*decision* of when and where to scale out of the migration problem.  This
package supplies that missing loop (``monitor -> decide -> place -> act``):

* :class:`~repro.elastic.monitor.ElasticityMonitor` (**monitor**) samples the
  observed source rate, executor queue backlogs and sink latency from the
  event log, and can measure per-task runtime service rates;
* :func:`~repro.elastic.policy.decide` (**decide**) is the one control rule,
  a function of a :class:`~repro.elastic.policy.ControlState` and one
  :class:`~repro.elastic.monitor.MonitorSample` that returns a
  :class:`~repro.elastic.policy.Decision`.  It asks a
  :mod:`repro.elastic.forecast` policy for the offered rate a provisioning
  horizon ahead (:class:`~repro.elastic.forecast.ReactivePolicy`, the
  identity forecast and the default;
  :class:`~repro.elastic.forecast.EwmaPolicy`;
  :class:`~repro.elastic.forecast.HoltWintersPolicy`; the oracle
  :class:`~repro.elastic.forecast.ProfileLookaheadPolicy`), sizes that demand
  with the :class:`~repro.elastic.planner.AllocationPlanner` (the paper's
  one-instance-per-8-ev/s rule and Table-1 style D1/D2/D3 packing, with an
  SLO-breach override that scales out on a sustained latency breach even when
  the rate alone is in band), and debounces the result: hysteresis, cooldown,
  drain-aware scale-in guard;
* a :class:`~repro.elastic.policy.PlacementPolicy` (**place**) turns the
  target into a fleet and a placement:
  :class:`~repro.elastic.policy.IncrementalPlacement` (keep unchanged
  instances, place only the delta -- the default) or
  :class:`~repro.elastic.policy.FullReplacePlacement` (the paper's re-fleet);
* :class:`~repro.elastic.controller.ElasticityController` (**act**) ticks the
  rule on the monitor's samples and reconfigures the dataflow -- a scaling
  action once a :class:`~repro.elastic.arbiter.ScaleArbiter` grants it (a
  shared fleet's, or its own one-tenant arbiter), an evacuation on an
  eviction notice, a recovery on a VM loss -- along one path: size,
  provision, move the state (live with any registered
  :class:`~repro.core.strategy.MigrationStrategy`, or from the last commit),
  close (the vacated VMs released, so scale-in actually reduces the bill).

:func:`~repro.elastic.controller.build_controller` builds the monitor, planner
and controller of one deployed runtime; it is the one place they are put
together, for the single-fleet runner
(:func:`repro.experiments.elastic.run_elastic_experiment`, which runs elastic
and chaos runs alike) and for every tenant of a
:class:`~repro.multi.ClusterManager`.
:func:`repro.experiments.predictive.run_predictive_experiment` compares the
forecast policies head to head; the ``repro elastic`` and ``repro predict``
CLI subcommands drive them.
"""

from repro.elastic.controller import (
    ElasticityController,
    EvacuationRecord,
    RecoveryRecord,
    ScalingAction,
    build_controller,
)
from repro.elastic.forecast import (
    FORECAST_POLICIES,
    EwmaPolicy,
    ForecastPolicy,
    HoltWintersPolicy,
    ProfileLookaheadPolicy,
    ReactivePolicy,
    forecast_policy_by_name,
)
from repro.elastic.monitor import ElasticityMonitor, MonitorSample
from repro.elastic.planner import (
    TIER_ORDER,
    AllocationPlanner,
    CostPlan,
    FleetOption,
    TargetAllocation,
    cost_optimal_fleet,
    plan_user_tasks_on,
)
from repro.elastic.policy import (
    PLACEMENT_POLICIES,
    ControllerConfig,
    ControlState,
    Decision,
    FullReplacePlacement,
    IncrementalPlacement,
    PlacementPolicy,
    ProvisioningRequest,
    decide,
    placement_policy_by_name,
)

__all__ = [
    "AllocationPlanner",
    "ControlState",
    "ControllerConfig",
    "CostPlan",
    "Decision",
    "ElasticityController",
    "ElasticityMonitor",
    "EvacuationRecord",
    "EwmaPolicy",
    "FleetOption",
    "FORECAST_POLICIES",
    "ForecastPolicy",
    "FullReplacePlacement",
    "HoltWintersPolicy",
    "IncrementalPlacement",
    "MonitorSample",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "ProfileLookaheadPolicy",
    "ProvisioningRequest",
    "ReactivePolicy",
    "RecoveryRecord",
    "ScalingAction",
    "TargetAllocation",
    "TIER_ORDER",
    "build_controller",
    "cost_optimal_fleet",
    "decide",
    "forecast_policy_by_name",
    "placement_policy_by_name",
    "plan_user_tasks_on",
]
