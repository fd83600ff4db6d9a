"""Golden regression test of the paper's experiment harness numbers.

``expected_harness.json`` pins, as float hex, what the Section 7 harness
reports on two small settings:

* the shared prepared DS experiment (``prepared_ds`` in ``tests/conftest.py``)
  scored by the five approaches of :func:`repro.baselines.default_scorers`:
  every method's AUROC, the classifier F1, the test mislabel rate and the
  rule count;
* a small out-of-distribution panel (DA → DS, Figure 10's protocol): every
  method's AUROC.

Every figure of the paper comes from this harness, so a refactor of how it
splits, vectorizes, classifies or grows rules must leave these bits alone.

Regenerating (only when an *intentional* numeric change lands)::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.baselines import AmbiguityBaseline, LearnRiskScorer, default_scorers
from repro.evaluation.experiment import ExperimentResult, evaluate_scorers, run_ood_experiment
from repro.risk.onesided_tree import OneSidedTreeConfig
from repro.risk.training import TrainingConfig

EXPECTED_FILE = Path(__file__).resolve().parent / "expected_harness.json"


def _panel(result: ExperimentResult) -> dict:
    return {
        "classifier_f1": float(result.classifier_f1).hex(),
        "test_mislabel_rate": float(result.test_mislabel_rate).hex(),
        "n_rules": result.n_rules,
        "auroc": {name: float(auroc).hex() for name, auroc in result.auroc_table().items()},
    }


@pytest.fixture(scope="module")
def observed(prepared_ds) -> dict:
    prepared = evaluate_scorers(prepared_ds, default_scorers(), compute_curves=False)
    ood = run_ood_experiment(
        "DA", "DS", scale=0.15,
        scorers=[AmbiguityBaseline(), LearnRiskScorer(training_config=TrainingConfig(epochs=40))],
        tree_config=OneSidedTreeConfig(max_depth=2, min_support=4, max_thresholds=24),
        classifier={"kind": "similarity_view", "params": {"base": {
            "kind": "mlp",
            "params": {"hidden_sizes": [16], "epochs": 15, "l2": 1e-4, "seed": 0},
        }}},
        seed=3,
    )
    return {"prepared_ds": _panel(prepared), "ood_DA2DS": _panel(ood)}


def test_harness_numbers_match_golden(observed):
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        EXPECTED_FILE.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden fixture regenerated")
    expected = json.loads(EXPECTED_FILE.read_text())
    assert observed == expected, (
        "experiment harness numbers drifted from tests/golden/expected_harness.json — "
        "if the numeric change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )
