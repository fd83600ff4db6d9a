"""``benchmarks/bench_paper.py``'s panel record and gate bookkeeping.

The script runs every paper case at scale 0.5 for minutes and is not in CI
while one of its gates fails, so this runs one Figure 9 panel through the
script's own code on the small DS workload.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_PAPER = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_paper.py"
METHODS = ["Baseline", "Uncertainty", "TrustScore", "StaticRisk", "LearnRisk"]


@pytest.fixture(scope="module")
def bench_paper():
    spec = importlib.util.spec_from_file_location("bench_paper", BENCH_PAPER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ds_panel(bench_paper, ds_workload):
    return bench_paper.panel(ds_workload, (3, 2, 5), 1, bench_paper.VIEWS["paper"])


def test_panel_records_every_method_and_the_margin(ds_panel):
    assert list(ds_panel["auroc"]) == METHODS
    assert all(0.0 <= value <= 1.0 for value in ds_panel["auroc"].values())
    best_other = max(ds_panel["auroc"][name] for name in METHODS[:-1])
    assert ds_panel["margin"] == ds_panel["auroc"]["LearnRisk"] - best_other
    assert 0.0 < ds_panel["classifier_f1"] <= 1.0
    assert 0.0 < ds_panel["mislabel_rate"] < 0.5
    assert ds_panel["rules"] > 0
    assert json.loads(json.dumps(ds_panel)) == ds_panel


def test_figure09_gates_record_value_bar_and_outcome(bench_paper, ds_panel):
    gates: dict = {}
    bench_paper.figure09_gates(gates, "DS(3:2:5)", ds_panel)
    learn_risk = ds_panel["auroc"]["LearnRisk"]
    assert gates["figure09 DS(3:2:5) LearnRisk above 0.8"] == {
        "value": learn_risk, "op": ">", "bar": 0.8, "passed": learn_risk > 0.8,
    }
    assert len(gates) == 3

    below = {**ds_panel, "auroc": {**ds_panel["auroc"], "LearnRisk": 0.5}}
    bench_paper.figure09_gates(gates, "DS(3:2:5)", below)
    assert gates["figure09 DS(3:2:5) LearnRisk above 0.8"] == {
        "value": 0.5, "op": ">", "bar": 0.8, "passed": False,
    }
    assert gates["figure09 DS(3:2:5) LearnRisk within 0.03 of the best"]["passed"] is False


def test_a_gate_holds_only_on_its_side_of_the_bar(bench_paper):
    gates: dict = {}
    bench_paper.gate(gates, "at the bar", 0.8, ">=", 0.8)
    bench_paper.gate(gates, "strictly above the bar", 0.8, ">", 0.8)
    bench_paper.gate(gates, "a number", float("nan"), "is a number")
    assert [gate["passed"] for gate in gates.values()] == [True, False, False]
