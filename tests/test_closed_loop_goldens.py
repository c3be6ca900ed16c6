"""Closed-loop goldens: the runs of ``bench_e2e``'s ``closed_loop`` workload, pinned.

Every entry pins one run (seed 2018) by two hashes: the ``log_digest`` of its
event log (every emission and receipt, event ids included) and the sha256 of
what its controller did -- the scaling-action lines of an elastic, predictive,
rescale or multi-tenant run, the fault ``control_sequence()`` of a chaos run.

A refactor of the closed-loop stack (runner, control-stack assembly, profile
attachment, result types) leaves every entry as it is.  A change that moves one
has changed what a run does: name the run and the mechanism, do not re-record
silently.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import pytest

from repro.experiments.chaos import run_chaos_run
from repro.experiments.elastic import run_elastic_experiment
from repro.experiments.multi import run_multi_experiment
from repro.experiments.predictive import run_predictive_experiment
from repro.experiments.rescale import run_rescale_experiment
from repro.sim.shard import log_digest

SEED = 2018

#: Run label -> (``log_digest``, sha256 of the action / control lines).
GOLDENS: Dict[str, Tuple[str, str]] = {
    "elastic": (
        "100fb0e193e23e0af2d18d51331a718fc488de0387e014f982163f0654fc1823",
        "dfa61bf71c39ed3ff9fea5cce98c3982f006b9db4586b9888e017b41228b3873",
    ),
    "predict.lookahead": (
        "7328c39363d45353b5a6daef9706215bf940cbf47425375897715a6774b0ebe7",
        "3880b8ae9820650c3f91faae1ec188b75f5e7ce46fbfbf590a25cf4f434a4b64",
    ),
    "rescale.capacity": (
        "331877aef595460551f670e7d75069fe105a826458ebedea22799b3055f02c4a",
        "780df668d9acafb08f853a47c6c49fe792dcf8928b861003ed6caf3f7c325329",
    ),
    "rescale.placement": (
        "e27d6f356273cebd951914f17a9ea4cc5fe7a54cd752eed145f409fa9b82f17a",
        "b75967800129efb96a664e513bcd5330573ea88f5525c145454ed19daa9a1e6c",
    ),
    "chaos.notice": (
        "f3b0071d04a8b3af0cb4bc88211fe9391e22dbd6f42c4874f1620a1cc51283ea",
        "2decdc2e5e8c90be280ddd8a2e5c9826b6b74f0d5fe29ab86498753ff20d2165",
    ),
    "chaos.oblivious": (
        "455adf75ecb98ce0c303b3f93d9c12c8717064587d4c0f3c926d224c3ea72fc7",
        "b4442524dfe076103ab0c2cc6db16aa6ca649165b76a559b90b92ccf53c92f18",
    ),
    # Re-recorded when a "full-replace" tenant (the multi default) began to run
    # FullReplacePlacement: it used to fall back to the controller's default,
    # incremental placement without free-slot reuse, and keep its fleet.
    "multi.linear": (
        "aca29c090e11cb111e153c3468009090caae1634a2534f5642180153842bb6af",
        "5f42c585e1f293bf5551e139d0a378d90d2aca2bc8138281dfc010c146abb461",
    ),
    "multi.traffic": (
        "1af3747d7d6d03804eb3bf7f2f39650f54950d8c85a1e2769019a5f485315f35",
        "36946110a33ee5c4746966147051db401e9b8d50aa367ee8fefc88b9b41b8429",
    ),
}


def _lines_digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _action_lines(actions) -> List[str]:
    return [
        f"{a.direction} {a.from_tier}->{a.to_tier} decided={a.decided_at!r} "
        f"enacted={a.enacted_at!r} completed={a.completed_at!r}"
        for a in actions
    ]


@pytest.fixture(scope="module")
def observed() -> Dict[str, Tuple[str, str]]:
    """Every pinned run, reduced to its two hashes (≈ 1.5 s in all)."""
    runs: Dict[str, Tuple[object, List[str]]] = {}
    elastic = run_elastic_experiment(
        dag="grid", strategy="ccr", profile="surge", duration_s=240.0, seed=SEED
    )
    runs["elastic"] = (elastic.log, _action_lines(elastic.actions))
    predict = run_predictive_experiment(
        dag="grid", policies=("lookahead",), duration_s=200.0, seed=SEED
    )
    lookahead = predict.runs["lookahead"].result
    runs["predict.lookahead"] = (lookahead.log, _action_lines(lookahead.actions))
    rescale = run_rescale_experiment(dag="grid", duration_s=300.0, seed=SEED)
    for summary in rescale.rows:
        runs[f"rescale.{summary.label}"] = (
            summary.result.log, _action_lines(summary.result.actions)
        )
    for mode in ("notice", "oblivious"):
        chaos = run_chaos_run(
            dag="traffic-keyed", strategy="dsm", mode=mode, duration_s=240.0, seed=SEED,
            storm_count=1, storm_start_s=90.0,
        )
        runs[f"chaos.{mode}"] = (chaos.log, chaos.control_sequence())
    multi = run_multi_experiment(
        dags=("traffic", "linear"), duration_s=300.0, seed=SEED, include_private_baseline=False
    )
    for name in multi.shared.tenants:
        tenant = multi.shared.manager.tenant(name)
        runs[f"multi.{name}"] = (tenant.runtime.log, _action_lines(tenant.controller.actions))
    return {label: (log_digest(log), _lines_digest(lines)) for label, (log, lines) in runs.items()}


def test_every_pinned_run_was_run(observed):
    assert sorted(observed) == sorted(GOLDENS)


@pytest.mark.parametrize("label", sorted(GOLDENS))
def test_log_digest_is_pinned(observed, label):
    assert observed[label][0] == GOLDENS[label][0]


@pytest.mark.parametrize("label", sorted(GOLDENS))
def test_control_actions_are_pinned(observed, label):
    assert observed[label][1] == GOLDENS[label][1]
