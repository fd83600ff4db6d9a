"""The small pipeline most suites fit: the default shape, sized for tests.

A one-layer MLP, depth-2 rules and 40 risk-training epochs, built through the
spec like any served model.  Import it as ``from fast_spec import ...``.
"""

from __future__ import annotations

from repro.classifiers.base import BaseClassifier
from repro.compose import StagedPipeline

FAST_SPEC = {
    "classifier": {"kind": "mlp", "params": {"hidden_sizes": [16], "epochs": 15}},
    "risk_features": {
        "kind": "onesided_tree",
        "params": {"tree": {"max_depth": 2, "min_support": 4, "max_thresholds": 24}},
    },
    "training": {"epochs": 40},
}


def fast_pipeline(seed: int = 0, classifier: BaseClassifier | None = None) -> StagedPipeline:
    """An unfitted pipeline of :data:`FAST_SPEC` at ``seed``.

    ``classifier`` replaces the spec's MLP with a pre-built instance.
    """
    return StagedPipeline({**FAST_SPEC, "seed": seed}, classifier=classifier)
