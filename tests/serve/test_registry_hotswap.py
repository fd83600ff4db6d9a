"""Hot-swap concurrency regression tests for the model registry.

The serving contract the HTTP tier leans on: resolving
``registry.service(name)`` once per batch means every batch is scored by
exactly one model version — a swap lands *between* batches, never inside one.
The concurrency test here pins that: scorer threads hammer probe pairs while
a swapper thread toggles the active version, and every observed score vector
must equal one version's expected output exactly (a mixture would mean a
mid-batch version tear).

The rollback tests pin the ``_previous`` bookkeeping: rollback restores the
pre-swap version, toggles on repeat, and refuses when there is no history.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data import split_workload
from repro.exceptions import ConfigurationError
from repro.serve import ModelRegistry, RiskService

from fast_spec import LOGISTIC_CHALLENGER, fast_pipeline


def _fit_pipeline(workload, classifier=None, seed=0):
    split = split_workload(workload, ratio=(3, 2, 5), seed=seed)
    pipeline = fast_pipeline(seed, classifier=classifier)
    pipeline.fit(split.train, split.validation)
    return pipeline, split


@pytest.fixture(scope="module")
def swap_setup(ds_workload):
    first, split = _fit_pipeline(ds_workload, seed=0)
    second, _ = _fit_pipeline(ds_workload, classifier=LOGISTIC_CHALLENGER, seed=0)
    probe = list(split.test.pairs[:12])
    expected_first = tuple(
        scored.risk_score for scored in RiskService(first).score_pairs(probe)
    )
    expected_second = tuple(
        scored.risk_score for scored in RiskService(second).score_pairs(probe)
    )
    assert expected_first != expected_second  # versions must be tellable apart
    return first, second, probe, expected_first, expected_second


class TestHotSwapConcurrency:
    def test_no_mid_batch_version_tear_under_swapping(self, swap_setup):
        first, second, probe, expected_first, expected_second = swap_setup
        registry = ModelRegistry(max_batch_size=64)
        registry.register("m", first)    # version 1
        registry.register("m", second)   # version 2 (active)

        iterations = 60
        start = threading.Barrier(3)
        observed: list[list[tuple[float, ...]]] = [[], []]

        def scorer(slot):
            start.wait()
            for _ in range(iterations):
                # One resolve per batch: the version may change between
                # iterations, but never within one score_pairs call.
                service = registry.service("m")
                scores = tuple(s.risk_score for s in service.score_pairs(probe))
                observed[slot].append(scores)

        def swapper():
            start.wait()
            for index in range(iterations * 2):
                registry.activate("m", 1 + index % 2)

        threads = [
            threading.Thread(target=scorer, args=(0,)),
            threading.Thread(target=scorer, args=(1,)),
            threading.Thread(target=swapper),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        seen = {vector for slot in observed for vector in slot}
        assert seen <= {expected_first, expected_second}
        assert len(observed[0]) == len(observed[1]) == iterations

    def test_hot_register_during_scoring_keeps_scores_whole(self, swap_setup):
        first, second, probe, expected_first, expected_second = swap_setup
        registry = ModelRegistry(max_batch_size=64)
        registry.register("m", first)

        start = threading.Barrier(2)
        vectors = []

        def scorer():
            start.wait()
            for _ in range(40):
                scores = tuple(
                    s.risk_score for s in registry.service("m").score_pairs(probe)
                )
                vectors.append(scores)

        worker = threading.Thread(target=scorer)
        worker.start()
        start.wait()
        registry.register("m", second)  # hot-swap mid-traffic
        worker.join()

        assert set(vectors) <= {expected_first, expected_second}
        # Traffic after the register call's return must serve version 2.
        final = tuple(s.risk_score for s in registry.service("m").score_pairs(probe))
        assert final == expected_second


class TestRollback:
    def test_rollback_restores_pre_swap_version_and_scores(self, swap_setup):
        first, second, probe, expected_first, expected_second = swap_setup
        registry = ModelRegistry(max_batch_size=64)
        registry.register("m", first)
        registry.register("m", second)
        assert registry.active_version("m") == 2
        assert registry.previous_version("m") == 1

        assert registry.rollback("m") == 1
        assert registry.active_version("m") == 1
        scores = np.array([s.risk_score for s in registry.service("m").score_pairs(probe)])
        np.testing.assert_array_equal(scores, np.array(expected_first))

        # The rolled-back-from version became the new previous: toggling works.
        assert registry.previous_version("m") == 2
        assert registry.rollback("m") == 2
        assert registry.active_version("m") == 2

    def test_rollback_without_history_raises(self, swap_setup):
        first, *_ = swap_setup
        registry = ModelRegistry()
        registry.register("m", first)
        with pytest.raises(ConfigurationError, match="no previous version"):
            registry.rollback("m")

    def test_rollback_after_previous_unregistered_raises(self, swap_setup):
        first, second, *_ = swap_setup
        registry = ModelRegistry()
        registry.register("m", first)
        registry.register("m", second)
        registry.unregister("m", 1)
        assert registry.previous_version("m") is None
        with pytest.raises(ConfigurationError, match="no previous version"):
            registry.rollback("m")

    def test_unregistering_active_version_does_not_fabricate_history(self, swap_setup):
        first, second, *_ = swap_setup
        registry = ModelRegistry()
        registry.register("m", first)
        registry.register("m", second)
        registry.unregister("m", 2)  # drop the active version
        assert registry.active_version("m") == 1
        # The deleted version 2 must not be offered as a rollback target.
        assert registry.previous_version("m") is None
        with pytest.raises(ConfigurationError, match="no previous version"):
            registry.rollback("m")

    def test_describe_reports_previous(self, swap_setup):
        first, second, *_ = swap_setup
        registry = ModelRegistry()
        registry.register("m", first)
        assert registry.describe()["m"]["previous"] is None
        registry.register("m", second)
        described = registry.describe()["m"]
        assert described["active"] == 2
        assert described["previous"] == 1
