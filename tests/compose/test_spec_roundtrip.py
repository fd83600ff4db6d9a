"""End-to-end spec round-trips: PipelineSpec → JSON → build_pipeline → fit →
save/load via repro.serve reproduces identical risk scores for every
registered classifier kind."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.classifiers import ColumnSubsetClassifier, LogisticRegressionClassifier
from repro.compose import PipelineSpec, build_pipeline, registered_classifiers
from repro.data import split_workload
from repro.serve import load_pipeline, save_pipeline
from repro.serve.cli import main as serve_cli

GOLDEN_DATA = Path(__file__).resolve().parents[1] / "golden" / "data"

#: Small, fast parameters per built-in classifier kind.
CLASSIFIER_PARAMS = {
    "mlp": {"hidden_sizes": [8], "epochs": 8},
    "logistic": {"epochs": 40},
    "tree": {"max_depth": 3},
    "forest": {"n_trees": 5, "max_depth": 3},
    "ensemble": {"n_models": 2},
    "similarity_view": {"base": {"kind": "logistic", "params": {"epochs": 40}}},
}

RISK_FEATURES = {
    "kind": "onesided_tree",
    "params": {"tree": {"max_depth": 2, "min_support": 4, "max_thresholds": 16}},
}


@pytest.fixture(scope="module")
def ds_split(ds_workload):
    return split_workload(ds_workload, ratio=(3, 2, 5), seed=0)


def test_every_builtin_classifier_kind_is_exercised():
    assert set(CLASSIFIER_PARAMS) == set(registered_classifiers())


@pytest.mark.parametrize("kind", sorted(CLASSIFIER_PARAMS))
def test_spec_roundtrip_reproduces_scores(kind, ds_split, tmp_path):
    spec = PipelineSpec.from_dict({
        "classifier": {"kind": kind, "params": CLASSIFIER_PARAMS[kind]},
        "risk_features": RISK_FEATURES,
        "training": {"epochs": 20},
        "seed": 0,
    })

    # Spec → JSON → spec survives exactly.
    restored_spec = PipelineSpec.from_json(spec.to_json())
    assert restored_spec == spec

    pipeline = build_pipeline(restored_spec)
    pipeline.fit(ds_split.train, ds_split.validation)
    expected = pipeline.analyse(ds_split.test)

    # Fit → save → load via repro.serve reproduces the scores bit for bit.
    directory = save_pipeline(pipeline, tmp_path / f"model-{kind}")
    assert (directory / "spec.json").exists()
    loaded = load_pipeline(directory)
    assert loaded.spec == spec
    report = loaded.analyse(ds_split.test)
    np.testing.assert_array_equal(
        report.machine_probabilities, expected.machine_probabilities
    )
    np.testing.assert_array_equal(report.risk_scores, expected.risk_scores)
    np.testing.assert_array_equal(report.ranking, expected.ranking)


def test_loaded_staged_pipeline_supports_refit(ds_split, tmp_path):
    spec = PipelineSpec.from_dict({
        "classifier": {"kind": "logistic", "params": {"epochs": 40}},
        "risk_features": RISK_FEATURES,
        "training": {"epochs": 20},
    })
    pipeline = build_pipeline(spec).fit(ds_split.train, ds_split.validation)
    directory = save_pipeline(pipeline, tmp_path / "model")

    loaded = load_pipeline(directory)
    classifier = loaded.classifier
    loaded.refit_risk_model(ds_split.test)
    assert loaded.classifier is classifier
    assert loaded.risk_model.training_result is not None
    assert np.all(np.isfinite(loaded.analyse(ds_split.validation).risk_scores))


def test_custom_vectorizer_model_loads_without_registration(ds_split, tmp_path):
    """The fitted vectoriser is restored from state, so loading must not
    require the custom vectoriser factory to be re-registered."""
    from repro.compose import StagedPipeline, register_vectorizer
    from repro.compose.registries import VECTORIZERS
    from repro.features.vectorizer import PairVectorizer

    register_vectorizer("test-custom-vec", lambda schema: PairVectorizer(schema))
    try:
        pipeline = build_pipeline(PipelineSpec.from_dict({
            "classifier": {"kind": "logistic", "params": {"epochs": 40}},
            "vectorizer": {"kind": "test-custom-vec"},
            "risk_features": RISK_FEATURES,
            "training": {"epochs": 20},
        })).fit(ds_split.train, ds_split.validation)
        expected = pipeline.analyse(ds_split.test).risk_scores
        state = pipeline.to_state()
    finally:
        VECTORIZERS.unregister("test-custom-vec")

    # Simulates a fresh process that never registered "test-custom-vec".
    loaded = StagedPipeline.from_state(state)
    np.testing.assert_array_equal(loaded.analyse(ds_split.test).risk_scores, expected)


def test_legacy_state_without_spec_still_loads(ds_split, tmp_path):
    """States saved before the compose redesign carry no 'spec' field."""
    pipeline = build_pipeline(PipelineSpec.from_dict({
        "classifier": {"kind": "logistic", "params": {"epochs": 40}},
        "risk_features": RISK_FEATURES,
        "training": {"epochs": 20},
    })).fit(ds_split.train, ds_split.validation)
    expected = pipeline.analyse(ds_split.test)

    directory = save_pipeline(pipeline, tmp_path / "model")
    state = json.loads((directory / "state.json").read_text())
    del state["spec"]
    (directory / "state.json").write_text(json.dumps(state) + "\n")

    legacy = load_pipeline(directory)
    assert legacy.spec.risk_metric == "var"
    assert legacy.spec.classifier.kind == "logistic"
    assert legacy.spec.training["epochs"] == 20
    np.testing.assert_array_equal(
        legacy.analyse(ds_split.test).risk_scores, expected.risk_scores
    )


def _fit_golden(spec_path: Path, output: Path) -> Path:
    assert serve_cli([
        "fit", "--data-dir", str(GOLDEN_DATA), "--name", "golden",
        "--schema", str(GOLDEN_DATA / "schema.json"),
        "--spec", str(spec_path), "--output", str(output),
    ]) == 0
    return output


def _assert_same_files(first: Path, again: Path) -> None:
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_refit_from_saved_spec_json_saves_the_same_bytes(tmp_path):
    """A model's own spec.json refits it byte for byte, state.json included.

    The golden spec lists its tree params unsorted (max_depth, min_support,
    max_thresholds) while spec.json is written with sorted keys, so the spec
    embedded in state.json must not keep its source's key order.
    """
    first = _fit_golden(GOLDEN_DATA / "spec.json", tmp_path / "first")
    _assert_same_files(first, _fit_golden(first / "spec.json", tmp_path / "again"))


def test_similarity_view_model_saves_loads_and_refits(tmp_path):
    """The paper's classifier is a spec like any other: it saves as the
    ``column_subset`` it builds, and its own spec.json refits it byte for byte."""
    spec = json.loads((GOLDEN_DATA / "spec.json").read_text())
    spec["classifier"] = {"kind": "similarity_view", "params": CLASSIFIER_PARAMS["similarity_view"]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    first = _fit_golden(spec_path, tmp_path / "first")
    assert json.loads((first / "spec.json").read_text())["classifier"]["kind"] == "similarity_view"
    assert json.loads((first / "state.json").read_text())["classifier"]["kind"] == "column_subset"
    loaded = load_pipeline(first)
    assert type(loaded.classifier) is ColumnSubsetClassifier
    assert type(loaded.classifier.base) is LogisticRegressionClassifier
    _assert_same_files(first, _fit_golden(first / "spec.json", tmp_path / "again"))
