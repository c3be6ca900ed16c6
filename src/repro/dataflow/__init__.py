"""Dataflow (topology) model.

A streaming application is a directed acyclic graph of tasks: one or more
*source* tasks emit event streams, intermediate tasks transform them, and
*sink* tasks terminate the streams.  Tasks may be stateful, have a data-
parallel degree (number of instances / executors) and a per-event processing
latency, and emit at most one output event per input event.  Edges are
shuffle or fields grouped.

This package holds the *definition* side only; the runtime behaviour lives in
:mod:`repro.engine`.

The module :mod:`repro.dataflow.topologies` provides the five dataflows used
throughout the paper's evaluation (Fig. 4 and Table 1): the Linear, Diamond
and Star micro-DAGs and the Traffic and Grid application DAGs, plus a
parametric ``linear(n)`` used for the 50-task drain-time experiment.
"""

from repro.dataflow.event import CheckpointAction, Event, EventKind
from repro.dataflow.grouping import Grouping, field_key_of, stable_field_index
from repro.dataflow.task import SinkTask, SourceTask, Task, TaskKind
from repro.dataflow.graph import (
    Dataflow,
    DataflowValidationError,
    Edge,
    RescalePlan,
    exact_instance_ceiling,
)
from repro.dataflow.builder import TopologyBuilder
from repro.dataflow import topologies

__all__ = [
    "CheckpointAction",
    "Dataflow",
    "DataflowValidationError",
    "Edge",
    "Event",
    "EventKind",
    "Grouping",
    "RescalePlan",
    "SinkTask",
    "SourceTask",
    "Task",
    "TaskKind",
    "TopologyBuilder",
    "exact_instance_ceiling",
    "field_key_of",
    "stable_field_index",
    "topologies",
]
