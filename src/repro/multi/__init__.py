"""Multi-tenant clusters: many dataflows sharing one arbitrated fleet.

The paper evaluates one dataflow migrating on a private VM set; its
motivating use case -- cloud operators hosting streaming pipelines for
millions of users -- means many dataflows on one fleet.  This package adds
that layer on top of everything below it:

* :class:`~repro.multi.manager.ClusterManager` -- owns one shared
  :class:`~repro.cluster.cloud.CloudProvider`/cluster and hosts N tenants,
  bin-packed onto a common worker fleet, each scaled by its own
  :class:`~repro.elastic.controller.ElasticityController`;
* :class:`~repro.elastic.arbiter.ScaleArbiter` (re-exported here) --
  arbitrates every tenant's scale/rescale/migrate proposals under a
  cluster-wide slot budget with priority tiers, a proportional-share
  fallback, migration serialization and retiring-VM publication.
"""

from repro.elastic.arbiter import (
    ArbiterDecision,
    ProposalRecord,
    ScaleArbiter,
)
from repro.multi.manager import ClusterManager, FleetSample, Tenant

__all__ = [
    "ArbiterDecision",
    "ClusterManager",
    "FleetSample",
    "ProposalRecord",
    "ScaleArbiter",
    "Tenant",
]
