"""The dataflows used in the paper's evaluation (Fig. 4 and Table 1).

Five dataflows are used:

* **Linear, Diamond, Star** -- micro-DAGs with 5 user tasks each that capture
  a sequential flow, a fan-out/fan-in, and a hub-and-spoke pattern.
* **Traffic** -- 11-task application DAG modelled on the IBM Infosphere
  intelligent-transportation application (GPS stream analytics).
* **Grid** -- 15-task application DAG modelled on smart-power-grid predictive
  analytics over meter and weather streams.

All tasks use the paper's experimental setup: dummy logic with a 100 ms
processing latency, one output per input, and a source emitting synthetic events at
a fixed 8 events/second.  Task parallelism (instance count) follows Table 1 of
the paper: one instance per incremental 8 events/second of input rate, with
the per-task counts chosen so the totals match Table 1 exactly
(Linear 5, Diamond 8, Star 8, Grid 21, Traffic 13 instances).

Where the figure in the paper is ambiguous about the exact wiring, the
structure below preserves the documented pattern (fan-out/fan-in for Diamond,
hub-and-spoke for Star, multi-branch analytics pipelines for Traffic and
Grid), the cumulative rates shown in the figure (8/16/24/32 ev/s), and the
Table 1 instance totals; see EXPERIMENTS.md for the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.dataflow.builder import TopologyBuilder
from repro.dataflow.graph import Dataflow
from repro.dataflow.grouping import Grouping
from repro.reliability.repartition import PARTITIONED_STATE_KEY

#: Default source rate used in all paper experiments (events/second).
DEFAULT_RATE = 8.0
#: Default per-event task latency used in all paper experiments (seconds).
DEFAULT_LATENCY_S = 0.1


def linear(num_tasks: int = 5, rate: float = DEFAULT_RATE,
           latency_s: float = DEFAULT_LATENCY_S) -> Dataflow:
    """Sequential chain of ``num_tasks`` user tasks (``Linear`` micro-DAG).

    ``linear(50)`` is the configuration used for the paper's 50-task drain-time
    experiment.  Every other task (the first, third, ...) is stateful so the
    checkpointing path is exercised.
    """
    if num_tasks < 1:
        raise ValueError("linear dataflow needs at least one task")
    builder = TopologyBuilder(f"linear-{num_tasks}" if num_tasks != 5 else "linear")
    builder.add_source("source", rate=rate)
    names = [f"task{i + 1}" for i in range(num_tasks)]
    for i, name in enumerate(names):
        builder.add_task(name, parallelism=1, latency_s=latency_s,
                         stateful=(i % 2 == 0))
    builder.add_sink("sink")
    builder.chain("source", *names, "sink")
    return builder.build()


def diamond(rate: float = DEFAULT_RATE, latency_s: float = DEFAULT_LATENCY_S) -> Dataflow:
    """Fan-out / fan-in micro-DAG (``Diamond``): 5 user tasks, 8 instances.

    ``split`` fans out to two parallel branches which merge again, and the
    merged stream passes through a final task before the sink.  The merge task
    receives 16 ev/s and the post-merge task 16 ev/s; instance counts
    (1, 1, 1, 3, 2) match Table 1's total of 8 slots.
    """
    builder = TopologyBuilder("diamond")
    builder.add_source("source", rate=rate)
    builder.add_task("split", parallelism=1, latency_s=latency_s, stateful=True)
    builder.add_task("branch_a", parallelism=1, latency_s=latency_s)
    builder.add_task("branch_b", parallelism=1, latency_s=latency_s)
    builder.add_task("merge", parallelism=3, latency_s=latency_s, stateful=True)
    builder.add_task("post", parallelism=2, latency_s=latency_s)
    builder.add_sink("sink")
    builder.connect("source", "split")
    builder.fan_out("split", ["branch_a", "branch_b"])
    builder.fan_in(["branch_a", "branch_b"], "merge")
    builder.connect("merge", "post")
    builder.connect("post", "sink")
    return builder.build()


def star(rate: float = DEFAULT_RATE, latency_s: float = DEFAULT_LATENCY_S) -> Dataflow:
    """Hub-and-spoke micro-DAG (``Star``): 5 user tasks, 8 instances.

    Two in-spokes feed a central hub which broadcasts to two out-spokes; the
    hub and out-spokes see 16 ev/s each, so instance counts are
    (1, 1, 2, 2, 2) for a Table 1 total of 8 slots and a 32 ev/s sink rate.
    """
    builder = TopologyBuilder("star")
    builder.add_source("source", rate=rate)
    builder.add_task("spoke_in_a", parallelism=1, latency_s=latency_s)
    builder.add_task("spoke_in_b", parallelism=1, latency_s=latency_s)
    builder.add_task("hub", parallelism=2, latency_s=latency_s, stateful=True)
    builder.add_task("spoke_out_a", parallelism=2, latency_s=latency_s)
    builder.add_task("spoke_out_b", parallelism=2, latency_s=latency_s, stateful=True)
    builder.add_sink("sink")
    builder.fan_out("source", ["spoke_in_a", "spoke_in_b"])
    builder.fan_in(["spoke_in_a", "spoke_in_b"], "hub")
    builder.fan_out("hub", ["spoke_out_a", "spoke_out_b"])
    builder.fan_in(["spoke_out_a", "spoke_out_b"], "sink")
    return builder.build()


def traffic(rate: float = DEFAULT_RATE, latency_s: float = DEFAULT_LATENCY_S) -> Dataflow:
    """Traffic-analytics application DAG: 11 user tasks, 13 instances.

    Modelled on the IBM Infosphere Streams intelligent-transportation
    application referenced by the paper: GPS events are parsed and analysed
    along map-matching, speed and occupancy branches whose results merge into
    a city-wide traffic state; a congestion-alert branch feeds a dashboard.
    The sink receives 32 ev/s (24 from the merged state, 8 from the dashboard
    feed), matching the 1:4 end-to-end selectivity seen in the figure.
    """
    builder = TopologyBuilder("traffic")
    builder.add_source("source", rate=rate)
    one_instance = [
        "parse_gps",
        "map_match",
        "speed_calc",
        "occupancy",
        "route_update",
        "travel_time",
        "congestion_detect",
        "density_est",
        "alert_filter",
        "dashboard_feed",
    ]
    for i, name in enumerate(one_instance):
        builder.add_task(name, parallelism=1, latency_s=latency_s, stateful=(i % 3 == 0))
    builder.add_task("traffic_state", parallelism=3, latency_s=latency_s, stateful=True)
    builder.add_sink("sink")

    builder.connect("source", "parse_gps")
    builder.fan_out("parse_gps", ["map_match", "speed_calc", "occupancy"])
    builder.chain("map_match", "route_update", "travel_time")
    builder.connect("speed_calc", "congestion_detect")
    builder.connect("occupancy", "density_est")
    builder.fan_in(["travel_time", "congestion_detect", "density_est"], "traffic_state")
    builder.connect("congestion_detect", "alert_filter")
    builder.connect("alert_filter", "dashboard_feed")
    builder.fan_in(["traffic_state", "dashboard_feed"], "sink")
    return builder.build()


def grid(rate: float = DEFAULT_RATE, latency_s: float = DEFAULT_LATENCY_S) -> Dataflow:
    """Smart-grid application DAG: 15 user tasks, 21 instances.

    Modelled on the smart-power-grid analytics platform referenced by the
    paper: smart-meter and weather events are parsed and fanned out to load,
    usage, weather and anomaly branches; three forecasting models merge into a
    demand prediction that drives curtailment planning, while the anomaly
    branch raises alerts.  The sink receives 32 ev/s (24 from curtailment,
    8 from alerts), giving the 1:4 DAG selectivity the paper reports for Grid.
    """
    builder = TopologyBuilder("grid")
    builder.add_source("source", rate=rate)
    one_instance = [
        "parse",
        "load_extract",
        "usage_extract",
        "weather_extract",
        "anomaly_detect",
        "load_clean",
        "arima_forecast",
        "regression_model",
        "weather_forecast",
        "alert_filter",
        "alert_enrich",
        "alert_notify",
    ]
    for i, name in enumerate(one_instance):
        builder.add_task(name, parallelism=1, latency_s=latency_s, stateful=(i % 3 == 0))
    builder.add_task("forecast_merge", parallelism=3, latency_s=latency_s, stateful=True)
    builder.add_task("demand_predict", parallelism=3, latency_s=latency_s, stateful=True)
    builder.add_task("curtailment_plan", parallelism=3, latency_s=latency_s)
    builder.add_sink("sink")

    builder.connect("source", "parse")
    builder.fan_out("parse", ["load_extract", "usage_extract", "weather_extract", "anomaly_detect"])
    builder.chain("load_extract", "load_clean", "arima_forecast")
    builder.connect("usage_extract", "regression_model")
    builder.connect("weather_extract", "weather_forecast")
    builder.fan_in(["arima_forecast", "regression_model", "weather_forecast"], "forecast_merge")
    builder.chain("forecast_merge", "demand_predict", "curtailment_plan")
    builder.chain("anomaly_detect", "alert_filter", "alert_enrich", "alert_notify")
    builder.fan_in(["curtailment_plan", "alert_notify"], "sink")
    return builder.build()


# ------------------------------------------------------------ keyed variants
#: Number of distinct entity keys (vehicles / meters) the keyed sources cycle
#: through.  Small enough that every instance owns several keys at any
#: parallelism the experiments reach, large enough that re-keying moves state.
KEYED_NUM_KEYS = 64


def keyed_payload_factory(prefix: str) -> Callable[[int], Any]:
    """Source payloads carrying a stable entity key (``{"key": "veh-7", ...}``),
    cycling through :data:`KEYED_NUM_KEYS` keys."""

    def _factory(seq: int) -> Any:
        return {"key": f"{prefix}-{seq % KEYED_NUM_KEYS}", "seq": seq}

    return _factory


def keyed_state_logic(payload: Any, state: Dict[str, Any]) -> List[Any]:
    """Per-key counting under the partitioned-state contract.

    Entries under :data:`~repro.reliability.repartition.PARTITIONED_STATE_KEY`
    are re-distributed by the stable FIELDS hash on a rescale, so this logic
    makes the keyed topologies exercise real grouped-state re-partitioning
    (not just router re-keying) whenever a migration changes parallelism.
    """
    counts = state.setdefault(PARTITIONED_STATE_KEY, {})
    key = str(payload["key"]) if isinstance(payload, dict) and "key" in payload else str(payload)
    counts[key] = counts.get(key, 0) + 1
    state["processed"] = state.get("processed", 0) + 1
    return [payload]


def traffic_keyed(rate: float = DEFAULT_RATE, latency_s: float = DEFAULT_LATENCY_S) -> Dataflow:
    """Traffic DAG with per-vehicle keyed state (``traffic-keyed``).

    Structurally identical to :func:`traffic`, but the source emits events
    keyed by vehicle id and the city-wide ``traffic_state`` task keeps
    per-vehicle grouped state behind FIELDS-grouped input edges -- so the
    same key always lands on the same instance, and a rescale must re-key
    the routing *and* re-partition the state under load.
    """
    dataflow = traffic(rate=rate, latency_s=latency_s)
    builder = TopologyBuilder("traffic-keyed")
    builder.add_source("source", rate=rate, payload_factory=keyed_payload_factory("veh"))
    for task in dataflow.user_tasks:
        keyed = task.name == "traffic_state"
        builder.add_task(
            task.name,
            parallelism=task.parallelism,
            latency_s=task.latency_s,
            stateful=task.stateful,
            logic=keyed_state_logic if keyed else None,
        )
    builder.add_sink("sink")
    for edge in dataflow.edges:
        grouping = Grouping.FIELDS if edge.dst == "traffic_state" else edge.grouping
        builder.connect(edge.src, edge.dst, grouping=grouping)
    return builder.build()


def grid_keyed(rate: float = DEFAULT_RATE, latency_s: float = DEFAULT_LATENCY_S) -> Dataflow:
    """Grid DAG with per-meter keyed state (``grid-keyed``).

    Structurally identical to :func:`grid`, with meter-keyed source events
    and per-meter grouped state in ``forecast_merge`` and ``demand_predict``
    behind FIELDS-grouped input edges.
    """
    dataflow = grid(rate=rate, latency_s=latency_s)
    keyed_tasks = {"forecast_merge", "demand_predict"}
    builder = TopologyBuilder("grid-keyed")
    builder.add_source("source", rate=rate, payload_factory=keyed_payload_factory("meter"))
    for task in dataflow.user_tasks:
        builder.add_task(
            task.name,
            parallelism=task.parallelism,
            latency_s=task.latency_s,
            stateful=task.stateful,
            logic=keyed_state_logic if task.name in keyed_tasks else None,
        )
    builder.add_sink("sink")
    for edge in dataflow.edges:
        grouping = Grouping.FIELDS if edge.dst in keyed_tasks else edge.grouping
        builder.connect(edge.src, edge.dst, grouping=grouping)
    return builder.build()


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1 of the paper: resource footprint of a dataflow."""

    dag: str
    tasks: int
    task_instances: int
    default_vms_2slot: int
    scale_in_vms_4slot: int
    scale_out_vms_1slot: int


#: Table 1 of the paper (tasks, slots and VM counts per dataflow).
TABLE1: Dict[str, Table1Row] = {
    "linear": Table1Row("linear", 5, 5, 3, 2, 5),
    "diamond": Table1Row("diamond", 5, 8, 4, 2, 8),
    "star": Table1Row("star", 5, 8, 4, 2, 8),
    "grid": Table1Row("grid", 15, 21, 11, 6, 21),
    "traffic": Table1Row("traffic", 11, 13, 7, 4, 13),
}

#: Factories for the five paper dataflows, keyed by name.
PAPER_TOPOLOGIES: Dict[str, Callable[[], Dataflow]] = {
    "linear": linear,
    "diamond": diamond,
    "star": star,
    "grid": grid,
    "traffic": traffic,
}

#: FIELDS-grouped variants of the application DAGs (per-entity keyed state).
#: Not part of the paper's figure matrix; used by the rescale and
#: multi-tenant runs to exercise re-keying under load.
KEYED_TOPOLOGIES: Dict[str, Callable[[], Dataflow]] = {
    "traffic-keyed": traffic_keyed,
    "grid-keyed": grid_keyed,
}

#: Every runnable topology (paper DAGs plus keyed variants).
ALL_TOPOLOGIES: Dict[str, Callable[[], Dataflow]] = {**PAPER_TOPOLOGIES, **KEYED_TOPOLOGIES}

#: Evaluation order used throughout the paper's figures.
PAPER_ORDER: List[str] = ["linear", "diamond", "star", "grid", "traffic"]


def by_name(name: str) -> Dataflow:
    """Build a topology by name: a paper dataflow (``linear``, ``diamond``,
    ``star``, ``grid``, ``traffic``) or a keyed variant (``traffic-keyed``,
    ``grid-keyed``)."""
    try:
        factory = ALL_TOPOLOGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown paper topology {name!r}; choose from {sorted(ALL_TOPOLOGIES)}"
        ) from None
    return factory()
