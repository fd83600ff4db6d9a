"""Round-trip tests for the to_state/from_state protocol and JSON+npz storage.

The contract under test: every fitted component reproduces its outputs
*bit-identically* after save/load (no pickle anywhere), and corrupted or
version-incompatible states fail with a clear :class:`PersistenceError`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.classifiers import (
    BootstrapEnsemble,
    ColumnSubsetClassifier,
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    MLPClassifier,
    PlattCalibrator,
    RandomForestClassifier,
    classifier_from_state,
)
from repro.compose import PipelineSpec, build_pipeline
from repro.data import split_workload
from repro.exceptions import NotFittedError, PersistenceError
from repro.features.vectorizer import PairVectorizer
from repro.pipeline import LearnRiskPipeline
from repro.risk.onesided_tree import OneSidedTreeConfig
from repro.risk.training import TrainingConfig
from repro.serve import load_pipeline, load_state, save_pipeline, save_state


@pytest.fixture(scope="module")
def training_data():
    """A small, class-balanced synthetic feature matrix."""
    rng = np.random.default_rng(7)
    features = rng.uniform(0.0, 1.0, size=(120, 6))
    labels = (features[:, 0] + 0.3 * features[:, 1] > 0.7).astype(int)
    return features, labels


CLASSIFIER_FACTORIES = {
    "logistic": lambda: LogisticRegressionClassifier(epochs=60, seed=3),
    "tree": lambda: DecisionTreeClassifier(max_depth=3, min_samples_leaf=4, seed=3),
    "forest": lambda: RandomForestClassifier(n_trees=5, max_depth=3, seed=3),
    "mlp": lambda: MLPClassifier(hidden_sizes=(8,), epochs=10, seed=3),
    "ensemble": lambda: BootstrapEnsemble(n_models=3, seed=3),
    "subset": lambda: ColumnSubsetClassifier(
        LogisticRegressionClassifier(epochs=60, seed=3), column_indices=[0, 2, 4]
    ),
}


class TestClassifierRoundTrips:
    @pytest.mark.parametrize("kind", sorted(CLASSIFIER_FACTORIES))
    def test_predict_proba_is_bit_identical(self, kind, training_data, tmp_path):
        features, labels = training_data
        classifier = CLASSIFIER_FACTORIES[kind]()
        classifier.fit(features, labels)
        expected = classifier.predict_proba(features)

        directory = save_state(classifier.to_state(), tmp_path / kind)
        restored = classifier_from_state(load_state(directory))

        assert type(restored) is type(classifier)
        np.testing.assert_array_equal(restored.predict_proba(features), expected)

    def test_unfitted_classifier_refuses_to_state(self):
        with pytest.raises(NotFittedError):
            LogisticRegressionClassifier().to_state()

    def test_unknown_kind_raises(self):
        with pytest.raises(PersistenceError, match="unknown classifier kind"):
            classifier_from_state({"kind": "quantum_matcher", "version": 1})

    def test_platt_calibrator_round_trip(self, training_data):
        features, labels = training_data
        scores = features[:, 0]
        calibrator = PlattCalibrator(max_iterations=50).fit(scores, labels)
        restored = PlattCalibrator.from_state(calibrator.to_state())
        np.testing.assert_array_equal(restored.transform(scores), calibrator.transform(scores))


class TestVectorizerRoundTrip:
    def test_transform_is_bit_identical(self, ds_workload, tmp_path):
        vectorizer = PairVectorizer(ds_workload.left_table.schema)
        vectorizer.fit_workload(ds_workload)
        pairs = ds_workload.pairs[:40]
        expected = vectorizer.transform(pairs)

        directory = save_state(vectorizer.to_state(), tmp_path / "vectorizer")
        restored = PairVectorizer.from_state(load_state(directory))

        assert restored.feature_names == vectorizer.feature_names
        np.testing.assert_array_equal(restored.transform(pairs), expected)

    def test_unknown_metric_name_raises(self, ds_workload):
        vectorizer = PairVectorizer(ds_workload.left_table.schema)
        vectorizer.fit_workload(ds_workload)
        state = vectorizer.to_state()
        state["metric_names"] = [*state["metric_names"], "title.bespoke_metric"]
        with pytest.raises(PersistenceError, match="bespoke_metric"):
            PairVectorizer.from_state(state)


@pytest.fixture(scope="module")
def fitted_pipeline(ds_workload):
    split = split_workload(ds_workload, ratio=(3, 2, 5), seed=0)
    pipeline = LearnRiskPipeline(
        classifier=MLPClassifier(hidden_sizes=(16,), epochs=15, seed=0),
        tree_config=OneSidedTreeConfig(max_depth=2, min_support=4, max_thresholds=24),
        training_config=TrainingConfig(epochs=40),
        seed=0,
    )
    pipeline.fit(split.train, split.validation)
    return pipeline, split


class TestPipelineRoundTrip:
    def test_scores_are_bit_identical(self, fitted_pipeline, tmp_path):
        pipeline, split = fitted_pipeline
        expected = pipeline.analyse(split.test)

        directory = save_pipeline(pipeline, tmp_path / "model")
        assert {p.name for p in directory.iterdir()} == {
            "manifest.json", "state.json", "arrays.npz", "spec.json"
        }
        restored = load_pipeline(directory)

        assert restored.is_fitted and restored.ready
        report = restored.analyse(split.test)
        np.testing.assert_array_equal(
            report.machine_probabilities, expected.machine_probabilities
        )
        np.testing.assert_array_equal(report.machine_labels, expected.machine_labels)
        np.testing.assert_array_equal(report.risk_scores, expected.risk_scores)
        np.testing.assert_array_equal(report.ranking, expected.ranking)
        assert report.auroc == expected.auroc

    def test_loaded_pipeline_shares_one_vectorizer(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        restored = load_pipeline(save_pipeline(pipeline, tmp_path / "model"))
        assert restored.risk_features.vectorizer is restored.vectorizer
        assert restored.risk_model.features is restored.risk_features
        assert restored.risk_model.config is restored.training_config

    def test_pipeline_state_stores_vectorizer_once(self, fitted_pipeline):
        pipeline, _ = fitted_pipeline
        state = pipeline.to_state()
        assert state["vectorizer"] is not None
        assert state["risk_model"]["features"]["vectorizer"] is None

    def test_features_state_without_vectorizer_needs_one_on_load(self, fitted_pipeline):
        pipeline, _ = fitted_pipeline
        from repro.risk.feature_generation import GeneratedRiskFeatures

        state = pipeline.risk_features.to_state(include_vectorizer=False)
        with pytest.raises(PersistenceError, match="without an embedded vectoriser"):
            GeneratedRiskFeatures.from_state(state)
        restored = GeneratedRiskFeatures.from_state(state, vectorizer=pipeline.vectorizer)
        assert restored.vectorizer is pipeline.vectorizer

    def test_explanations_survive_round_trip(self, fitted_pipeline, tmp_path):
        pipeline, split = fitted_pipeline
        restored = load_pipeline(save_pipeline(pipeline, tmp_path / "model"))
        pair = split.test.pairs[0]
        original = pipeline.explain_pair(pair, top_k=3)
        reloaded = restored.explain_pair(pair, top_k=3)
        assert [e.description for e in original] == [e.description for e in reloaded]
        assert [e.weight_share for e in original] == [e.weight_share for e in reloaded]

    def test_two_fits_of_one_spec_save_byte_identical_files(self, fitted_pipeline, tmp_path):
        # Nothing of the fit run (wall-clock timings) may reach a saved model:
        # a refit of the same spec on the same data must save the same bytes.
        # Both fits share this process's hash seed; CI refits in a new process.
        _, split = fitted_pipeline
        spec = PipelineSpec.from_dict({
            "classifier": {"kind": "logistic", "params": {"epochs": 30}},
            "risk_features": {"kind": "onesided_tree", "params": {"tree": {"max_depth": 2}}},
            "training": {"epochs": 20},
            "seed": 0,
        })
        first, second = (
            save_pipeline(build_pipeline(spec).fit(split.train, split.validation), tmp_path / run)
            for run in ("first", "second")
        )
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_unfitted_pipeline_refuses_to_save(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_pipeline(LearnRiskPipeline(), tmp_path / "nope")


class TestCorruptedStates:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError, match="does not exist"):
            load_pipeline(tmp_path / "absent")

    def test_missing_state_file(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        directory = save_pipeline(pipeline, tmp_path / "model")
        (directory / "state.json").unlink()
        with pytest.raises(PersistenceError, match="state.json"):
            load_pipeline(directory)

    def test_truncated_state_json(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        directory = save_pipeline(pipeline, tmp_path / "model")
        content = (directory / "state.json").read_text()
        (directory / "state.json").write_text(content[: len(content) // 2])
        with pytest.raises(PersistenceError, match="cannot parse"):
            load_pipeline(directory)

    def test_corrupted_array_archive(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        directory = save_pipeline(pipeline, tmp_path / "model")
        (directory / "arrays.npz").write_bytes(b"not a zip archive")
        with pytest.raises(PersistenceError, match="array archive"):
            load_pipeline(directory)

    def test_wrong_kind(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        directory = save_state(pipeline.vectorizer.to_state(), tmp_path / "vec")
        with pytest.raises(PersistenceError, match="kind"):
            load_pipeline(directory)

    def test_future_component_version(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        state = pipeline.to_state()
        state["version"] = 999
        with pytest.raises(PersistenceError, match="999"):
            LearnRiskPipeline.from_state(state)

    def test_future_format_version(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        directory = save_pipeline(pipeline, tmp_path / "model")
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["format_version"] = 999
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="on-disk format 999"):
            load_pipeline(directory)

    def test_rule_parameter_mismatch(self, fitted_pipeline):
        pipeline, _ = fitted_pipeline
        state = pipeline.to_state()
        state["risk_model"]["features"]["rules"] = (
            state["risk_model"]["features"]["rules"][:1]
        )
        with pytest.raises(PersistenceError, match="rules"):
            LearnRiskPipeline.from_state(state)

    def test_missing_required_field(self, fitted_pipeline):
        pipeline, _ = fitted_pipeline
        state = pipeline.to_state()
        del state["classifier"]
        with pytest.raises(PersistenceError, match="classifier"):
            LearnRiskPipeline.from_state(state)


class TestArrayPacking:
    def test_reserved_token_keys_in_user_data_round_trip(self, tmp_path):
        """Corpus data may legitimately contain the placeholder token as a key."""
        from repro.serialization import ARRAY_TOKEN, ESCAPE_TOKEN

        state = {
            "kind": "demo",
            "version": 1,
            "idf": {ARRAY_TOKEN: 1.5},
            "nested": {ESCAPE_TOKEN: {ARRAY_TOKEN: np.arange(3.0)}},
            "arrays": [np.ones(2), {"inner": np.zeros(2)}],
        }
        directory = save_state(state, tmp_path / "weird")
        restored = load_state(directory)
        assert restored["idf"] == {ARRAY_TOKEN: 1.5}
        np.testing.assert_array_equal(
            restored["nested"][ESCAPE_TOKEN][ARRAY_TOKEN], np.arange(3.0)
        )
        np.testing.assert_array_equal(restored["arrays"][0], np.ones(2))
        np.testing.assert_array_equal(restored["arrays"][1]["inner"], np.zeros(2))
