"""The paper's Table 1, Figs 5-9, §5.1 numbers and the ablations: shape and record.

Every figure is read from the session's one experiment matrix
(``conftest.matrix``: 5 dataflows x 3 strategies x 2 scaling directions at the
committed timing), exactly as the paper computes Figs 5, 6 and 8 from the same
runs.  The shape assertions are the paper's claims; the last test pins the
record: every committed ``results/<stem>.txt`` is what its producer
(``figures.PRODUCERS``, what ``repro figure`` prints) renders today.  A change
that moves one re-records with ``repro figure all --write results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.dataflow.topologies import PAPER_ORDER
from repro.experiments.figures import (
    PAPER_REBALANCE_DURATION_S,
    PRODUCERS,
    ablation_broadcast_metrics,
    ablation_init_resend_rows,
    ablation_max_spout_pending_rows,
    drain_time_rows,
    figure5_rows,
    figure6_rows,
    figure7_series,
    figure8_rows,
    figure9_series,
    rebalance_duration_summary,
    statestore_micro,
    table1_rows,
)
from repro.reliability.statestore import StateStore
from repro.sim import Simulator

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


# --------------------------------------------------------------------- Table 1
def test_table1_resources():
    rows = table1_rows()

    # The reproduction must match Table 1 exactly: same task counts, instance
    # counts and VM footprints for every dataflow.
    for row in rows:
        assert row["tasks"] == row["tasks_paper"], row["dag"]
        assert row["instances"] == row["instances_paper"], row["dag"]
        assert row["default_vms"] == row["default_vms_paper"], row["dag"]
        assert row["scale_in_vms"] == row["scale_in_vms_paper"], row["dag"]
        assert row["scale_out_vms"] == row["scale_out_vms_paper"], row["dag"]


# ------------------------------------------- Fig. 5: restore, catchup, recovery
def _by_cell(rows):
    return {(row["dag"], row["strategy"]): row for row in rows}


@pytest.mark.parametrize("scaling", ["in", "out"])
def test_fig5_migration_times(matrix, scaling):
    """CCR and DCR restore much faster than DSM for every dataflow; DSM's
    restore grows with the DAG size in ~30 s quanta (INIT re-sends after ack
    timeouts); the proposed strategies migrate every dataflow within ~50 s."""
    rows = figure5_rows(matrix, scaling)
    cells = _by_cell(rows)

    for dag in PAPER_ORDER:
        dsm = cells[(dag, "dsm")]["restore_s"]
        dcr = cells[(dag, "dcr")]["restore_s"]
        ccr = cells[(dag, "ccr")]["restore_s"]
        assert dsm is not None and dcr is not None and ccr is not None
        # DSM is always the slowest to restore, by a wide margin.
        assert dsm > dcr, dag
        assert dsm > ccr, dag
        # The proposed strategies restore within ~50 s (paper's headline claim).
        assert dcr < 55.0, dag
        assert ccr < 55.0, dag
        # DSM pays at least one 30 s INIT re-send wave.
        assert dsm > 35.0, dag

    # DSM restore grows with DAG size: the largest DAG (Grid, 21 instances) is
    # slower to restore than the smallest micro DAG (Linear, 5 instances).
    assert cells[("grid", "dsm")]["restore_s"] >= cells[("linear", "dsm")]["restore_s"]

    # Recovery time exists only for DSM (DCR/CCR lose no messages).
    for dag in PAPER_ORDER:
        assert cells[(dag, "dcr")]["recovery_s"] is None
        assert cells[(dag, "ccr")]["recovery_s"] is None
        assert cells[(dag, "dsm")]["recovery_s"] is not None

    # Catchup does not apply to DCR (the dataflow is drained before migration).
    for dag in PAPER_ORDER:
        assert cells[(dag, "dcr")]["catchup_s"] is None


# ------------------------------------------------ Fig. 6: DSM replayed messages
@pytest.mark.parametrize("scaling", ["in", "out"])
def test_fig6_replayed_messages(matrix, scaling):
    """Hundreds to ~2000 replayed messages for DSM and none for DCR/CCR, the
    application DAGs (Grid, Traffic) replaying more than the micro DAGs."""
    rows = figure6_rows(matrix, scaling)
    counts = {row["dag"]: row["replayed_messages"] for row in rows}

    # DSM replays a substantial number of messages for every dataflow.
    for dag, count in counts.items():
        assert count > 50, dag

    # Application DAGs replay more than micro DAGs (more tasks and input
    # buffers mean more in-flight events are lost and timed out).
    micro_mean = (counts["linear"] + counts["diamond"] + counts["star"]) / 3.0
    app_mean = (counts["grid"] + counts["traffic"]) / 2.0
    assert app_mean > micro_mean

    # DCR and CCR replay nothing (checked from the same experiment matrix).
    for dag in counts:
        for strategy in ("dcr", "ccr"):
            cell = matrix.cell(dag, strategy, scaling)
            assert cell.metrics.replayed_message_count == 0, (dag, strategy)


# ------------------------------- Fig. 7: throughput timelines, Grid scale-in
def _rates_between(points, start, end):
    return [p.rate for p in points if start <= p.time < end]


def test_fig7_throughput_timeline(matrix):
    """Steady state is 8 ev/s in and 32 ev/s out (Grid has 1:4 selectivity);
    DCR and CCR pause the source while DSM never does; every strategy shows an
    output gap during the restore; DSM returns to a stable rate last."""
    series = figure7_series(matrix, dag="grid", scaling="in")

    for strategy, data in series.items():
        # Steady state before the migration: 8 ev/s in, 32 ev/s out.
        pre_in = _rates_between(data["input"], -60.0, -10.0)
        pre_out = _rates_between(data["output"], -60.0, -10.0)
        assert abs(sum(pre_in) / len(pre_in) - 8.0) < 1.5, strategy
        assert abs(sum(pre_out) / len(pre_out) - 32.0) < 4.0, strategy

    # DCR and CCR pause the source: the input rate drops to zero right after
    # the request; DSM's input never pauses.
    for strategy in ("dcr", "ccr"):
        early_in = _rates_between(series[strategy]["input"], 2.0, 12.0)
        assert min(early_in) == 0.0, strategy
    dsm_early_in = _rates_between(series["dsm"]["input"], 2.0, 12.0)
    assert min(dsm_early_in) > 0.0

    # Output gap during the restore for every strategy.
    for strategy, data in series.items():
        restore = matrix.cell("grid", strategy, "in").metrics.restore_duration_s
        gap = _rates_between(data["output"], 12.0, max(15.0, restore - 3.0))
        if gap:
            assert max(gap) == 0.0, strategy

    # DSM's output is still disturbed (zero or far from stable) well after
    # CCR has already restored its output.
    ccr_restore = matrix.cell("grid", "ccr", "in").metrics.restore_duration_s
    dsm_restore = matrix.cell("grid", "dsm", "in").metrics.restore_duration_s
    assert dsm_restore > ccr_restore + 20.0

    # After CCR's restore, its output comes back up.
    ccr_post = _rates_between(series["ccr"]["output"], ccr_restore + 5.0, ccr_restore + 60.0)
    assert max(ccr_post) > 20.0


# ------------------------------------------- Fig. 8: rate stabilization times
@pytest.mark.parametrize("scaling", ["in", "out"])
def test_fig8_stabilization(matrix, scaling):
    """Stabilization: the output rate within 20 % of the expected stable rate
    for 60 s.  DCR and CCR always stabilize within the window, CCR no later
    than DSM, whose stabilization (when reached at all) is the largest.

    The reproduction's DSM times are systematically larger than the paper's:
    the simulated per-instance capacity cap makes the catch-up period strictly
    rate-limited; the ordering between strategies is preserved.
    """
    rows = figure8_rows(matrix, scaling)
    cells = {(row["dag"], row["strategy"]): row["stabilization_s"] for row in rows}

    for dag in PAPER_ORDER:
        dcr = cells[(dag, "dcr")]
        ccr = cells[(dag, "ccr")]
        dsm = cells[(dag, "dsm")]
        # The proposed strategies always stabilize within the observation window.
        assert dcr is not None, dag
        assert ccr is not None, dag
        # CCR stabilizes no later than DCR (it pauses the source for a shorter
        # time, so there is less backlog to drain), modulo the lumpiness of the
        # 60 s in-band window detection.
        assert ccr <= dcr + 30.0, dag
        # DSM is the worst: either it has not stabilized within the window at
        # all, or it takes at least as long as CCR.
        assert dsm is None or dsm >= ccr - 10.0, dag

    # Aggregate ordering across the five dataflows: CCR <= DCR on average.
    dcr_mean = sum(cells[(dag, "dcr")] for dag in PAPER_ORDER) / len(PAPER_ORDER)
    ccr_mean = sum(cells[(dag, "ccr")] for dag in PAPER_ORDER) / len(PAPER_ORDER)
    assert ccr_mean <= dcr_mean + 5.0

    # Stabilization happens after the restore for every strategy that stabilized.
    for (dag, strategy), stabilization in cells.items():
        if stabilization is None:
            continue
        restore = matrix.cell(dag, strategy, scaling).metrics.restore_duration_s
        assert stabilization >= restore - 10.0, (dag, strategy)


# ---------------------------------- Fig. 9: latency timeline, Grid scale-in
def _values_between(points, start, end):
    return [p.latency_s for p in points if start <= p.time < end]


def test_fig9_latency_timeline(matrix):
    """Before the migration all strategies sit at the same sub-second stable
    latency; the migration spikes the windowed latency (backlogged and
    replayed events arrive late); it returns to the stable level for the
    proposed strategies, and for DSM no earlier than for CCR."""
    series = figure9_series(matrix, dag="grid", scaling="in")

    stable = {name: data["stable_latency_s"] for name, data in series.items()}
    for name, value in stable.items():
        # Stable latency is sub-second.  Grid's sink receives 24 ev/s over the
        # 7-task forecasting path (~0.7 s) and 8 ev/s over the 5-task alert
        # path (~0.5 s), so the weighted average sits around 0.65 s.
        assert 0.45 <= value <= 1.5, name

    for name, data in series.items():
        post = _values_between(data["latency"], 30.0, 240.0)
        assert post, name
        # The migration disturbs latency visibly: some window far exceeds the
        # stable level.
        assert max(post) > stable[name] * 1.5, name

    # Latency returns to (near) the stable level by the end of the run for the
    # proposed strategies.
    for name in ("dcr", "ccr"):
        tail = _values_between(series[name]["latency"], 350.0, 500.0)
        assert tail, name
        assert min(tail) < stable[name] * 1.6, name

    # CCR's latency disturbance ends no later than DSM's: compare the last
    # window that exceeds twice the stable latency.
    def last_disturbed(name):
        disturbed = [p.time for p in series[name]["latency"] if p.time > 0 and p.latency_s > 2.0 * stable[name]]
        return max(disturbed) if disturbed else 0.0

    assert last_disturbed("ccr") <= last_disturbed("dsm") + 15.0


# ----------------------------------------------------------- §5.1 observations
def test_drain_time():
    """DCR's drain exceeds CCR's capture (paper, Grid scale-in: 1875 ms vs
    468 ms) and the gap grows with the critical path: a 50-task Linear DAG
    has a drain-time delta of about 4.3 s."""
    rows = drain_time_rows(migrate_at_s=60.0, post_migration_s=90.0, seed=2018)

    by_case = {row["case"]: row for row in rows}

    # DCR's drain always takes longer than CCR's capture.
    for case, row in by_case.items():
        assert row["dcr_drain_ms"] > row["ccr_capture_ms"], case

    # The drain/capture gap grows with the critical path: Grid (7 tasks deep)
    # has a larger delta than Linear (5 tasks deep), and the 50-task Linear DAG
    # has a much larger delta than both.
    assert by_case["grid scale-in"]["delta_ms"] > by_case["linear scale-in"]["delta_ms"]
    assert by_case["linear-50 scale-in"]["delta_ms"] > 3.0 * by_case["linear scale-in"]["delta_ms"]

    # Order-of-magnitude agreement with the paper: drains are hundreds of
    # milliseconds to a few seconds, captures are a fraction of the drain.
    for case, row in by_case.items():
        assert 50.0 <= row["dcr_drain_ms"] <= 10_000.0, case
        assert row["ccr_capture_ms"] <= row["dcr_drain_ms"], case


def test_rebalance_duration(matrix):
    """ "The rebalance duration ... remains relatively constant across
    dataflows, VM counts and strategies, with an average value of 7.26 secs." """
    summary = rebalance_duration_summary(matrix, scalings=("in", "out"))

    # The mean is close to the paper's 7.26 s and the spread is small
    # (constant across dataflows, VM counts and strategies).
    assert abs(summary["mean_s"] - PAPER_REBALANCE_DURATION_S) < 1.0
    assert summary["max_s"] - summary["min_s"] < 4.0
    assert summary["samples"] == 30


def test_statestore_checkpoint_latency_model():
    """ "It takes just 100 ms to checkpoint 2000 events to Redis from Storm":
    the calibration target of the simulated state store's latency model."""
    result = statestore_micro(2000)
    assert result["measured_ms"] == pytest.approx(result["paper_ms"], rel=0.25)


def test_statestore_simulated_write_throughput():
    sim = Simulator()
    store = StateStore(sim)

    def write_batch():
        for i in range(100):
            store.put(f"bench/{i}", {"state": {"processed": i}, "pending": []}, 256)
        sim.run()

    write_batch()
    assert store.stats.puts >= 100


def test_statestore_latency_scales_linearly():
    """The latency model is linear in the number of captured events."""
    def measure():
        return {n: statestore_micro(n)["measured_ms"] for n in (500, 1000, 2000, 4000)}

    measured = measure()
    assert measured[1000] == pytest.approx(2 * measured[500], rel=0.05)
    assert measured[4000] == pytest.approx(2 * measured[2000], rel=0.05)


# ------------------------------------------------------------------ ablations
def test_ablation_init_resend_interval():
    """Restore time of DCR as a function of the INIT re-send interval: the
    aggressive re-send is what decouples restore time from the ack timeout."""
    rows = ablation_init_resend_rows()
    by_interval = {row["init_resend_interval_s"]: row["restore_s"] for row in rows}
    # Aggressive re-sends (the paper's 1 s) restore no later than lazy ones,
    # and the 30 s interval (DSM's effective behaviour) is clearly worse.
    assert by_interval[1.0] <= by_interval[15.0] + 1.0
    assert by_interval[1.0] <= by_interval[30.0] + 1.0
    assert by_interval[30.0] >= by_interval[1.0]
    # Restore keeps improving (or stays flat) as the interval shrinks.
    assert by_interval[0.5] <= by_interval[30.0]


def test_ablation_broadcast_vs_sequential_on_deep_dag():
    """CCR's broadcast capture removes the depth-proportional drain of DCR."""
    results = ablation_broadcast_metrics()
    # The sequential drain grows with DAG depth (30 tasks x 100 ms floor),
    # while the broadcast capture only waits for local queues.
    assert results["dcr"].drain_capture_duration_s > 2.0
    assert results["ccr"].drain_capture_duration_s < 1.0


def test_ablation_max_spout_pending():
    """DSM's replay count and catch-up burden grow with the flow-control cap."""
    rows = ablation_max_spout_pending_rows()
    by_cap = {row["max_spout_pending"]: row for row in rows}
    assert by_cap[96]["replayed_messages"] >= by_cap[32]["replayed_messages"]
    assert by_cap[192]["replayed_messages"] >= by_cap[96]["replayed_messages"]
    # Every configuration still replays a substantial number of messages.
    assert all(row["replayed_messages"] > 30 for row in rows)


# ------------------------------------------------------------------ the record
@pytest.mark.parametrize("stem", sorted(PRODUCERS))
def test_committed_result_is_what_its_producer_renders(matrix, stem):
    committed = (RESULTS_DIR / f"{stem}.txt").read_text(encoding="utf-8")
    assert committed == PRODUCERS[stem].text(matrix) + "\n", (
        f"results/{stem}.txt moved: re-record with `python -m repro figure all --write results/`"
    )
