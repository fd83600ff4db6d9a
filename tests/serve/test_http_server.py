"""End-to-end tests of the HTTP serving tier over real sockets.

One module-scoped server (ephemeral port, background thread) serves a small
fitted pipeline; tests drive it with ``http.client`` exactly like an external
caller would.  The load-bearing assertions are parity ones: coalesced single
``/score`` requests, posted batches and ``/explain`` risk scores must be
bit-identical to direct :class:`RiskService` calls on the same saved model.

Ordering note: the error-path tests (including rollback-without-history) run
before the swap/rollback lifecycle tests, which mutate the served registry.
"""

from __future__ import annotations

import http.client
import json
import threading
from types import SimpleNamespace

import pytest

from repro.data import split_workload
from repro.exceptions import ConfigurationError
from repro.serve import RiskService, load_pipeline, save_pipeline
from repro.serve.http import SCHEMA_VERSION, ServerConfig, ServerHandle, build_server, pair_to_payload

from fast_spec import LOGISTIC_CHALLENGER, fast_pipeline


def _fit_pipeline(workload, classifier=None, seed=0):
    split = split_workload(workload, ratio=(3, 2, 5), seed=seed)
    pipeline = fast_pipeline(seed, classifier=classifier)
    pipeline.fit(split.train, split.validation)
    return pipeline, split


def http_json(address, method, path, payload=None, raw_body=None):
    """One request from a fresh connection; returns (status, parsed body)."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        body = raw_body if raw_body is not None else (
            None if payload is None else json.dumps(payload)
        )
        connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.fixture(scope="module")
def served(ds_workload, tmp_path_factory):
    pipeline, split = _fit_pipeline(ds_workload, seed=0)
    second_pipeline, _ = _fit_pipeline(ds_workload, classifier=LOGISTIC_CHALLENGER, seed=0)
    root = tmp_path_factory.mktemp("http-serving")
    model_dir, second_dir = root / "model-v1", root / "model-v2"
    save_pipeline(pipeline, model_dir)
    save_pipeline(second_pipeline, second_dir)

    config = ServerConfig(port=0, coalesce_batch_size=64)
    server = build_server(model_dir, config=config)
    handle = ServerHandle.spawn(server)
    yield SimpleNamespace(
        handle=handle,
        server=server,
        address=handle.address,
        split=split,
        model_dir=model_dir,
        second_dir=second_dir,
    )
    handle.stop()


@pytest.fixture(scope="module")
def probe_pairs(served):
    return list(served.split.test.pairs[:24])


@pytest.fixture(scope="module")
def direct_scores(served, probe_pairs):
    """Reference outputs from a direct, uncoalesced service on the same model."""
    service = RiskService(load_pipeline(served.model_dir))
    return service.score_pairs(probe_pairs)


def scored_payload_of(scored):
    left_id, right_id = scored.pair.pair_id
    return {
        "left_id": left_id,
        "right_id": right_id,
        "probability": scored.probability,
        "machine_label": scored.machine_label,
        "risk_score": scored.risk_score,
    }


def stats_counters(address):
    status, body = http_json(address, "GET", "/stats")
    assert status == 200
    return body["metrics"]["counters"]


class TestBasicEndpoints:
    def test_healthz(self, served):
        status, body = http_json(served.address, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["model"] == "default"
        assert body["active_version"] == 1
        assert body["coalescing"] == {"max_batch_size": 64}

    def test_models(self, served):
        status, body = http_json(served.address, "GET", "/models")
        assert status == 200
        assert body["default_model"] == "default"
        assert body["models"]["default"]["active"] == 1

    def test_keep_alive_serves_multiple_requests_per_connection(self, served):
        host, port = served.address
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


class TestScoringParity:
    def test_posted_batch_matches_direct_service_bitwise(
        self, served, probe_pairs, direct_scores
    ):
        payload = {"pairs": [pair_to_payload(pair) for pair in probe_pairs]}
        status, body = http_json(served.address, "POST", "/score", payload)
        assert status == 200
        assert body["coalesced"] is False
        assert body["results"] == [scored_payload_of(scored) for scored in direct_scores]

    def test_single_pair_is_coalesced_and_bit_identical(
        self, served, probe_pairs, direct_scores
    ):
        payload = {"pair": pair_to_payload(probe_pairs[0])}
        status, body = http_json(served.address, "POST", "/score", payload)
        assert status == 200
        assert body["coalesced"] is True
        assert body["result"] == scored_payload_of(direct_scores[0])

    def test_concurrent_singles_share_microbatches(
        self, served, probe_pairs, direct_scores
    ):
        before = stats_counters(served.address)
        n_requests = 16
        barrier = threading.Barrier(n_requests)
        outcomes = [None] * n_requests

        def worker(index):
            barrier.wait()
            payload = {"pair": pair_to_payload(probe_pairs[index])}
            outcomes[index] = http_json(served.address, "POST", "/score", payload)

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(n_requests)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for index, (status, body) in enumerate(outcomes):
            assert status == 200
            assert body["coalesced"] is True
            # Coalescing composes requests, never changes their scores.
            assert body["result"] == scored_payload_of(direct_scores[index])

        after = stats_counters(served.address)
        new_pairs = after["coalesce.pairs"] - before.get("coalesce.pairs", 0)
        new_batches = after["coalesce.batches"] - before.get("coalesce.batches", 0)
        assert new_pairs == n_requests
        # The whole point of the tier: concurrent singles share batches.
        assert new_batches < n_requests
        assert new_pairs / new_batches >= 2.0

    def test_explain_matches_direct_explanations(self, served, probe_pairs):
        service = RiskService(load_pipeline(served.model_dir))
        expected = service.explain_pairs(probe_pairs[:4], top_rules=3)
        payload = {
            "pairs": [pair_to_payload(pair) for pair in probe_pairs[:4]],
            "top_rules": 3,
        }
        status, body = http_json(served.address, "POST", "/explain", payload)
        assert status == 200
        assert len(body["results"]) == 4
        for pair, explanation, result in zip(probe_pairs[:4], expected, body["results"]):
            left_id, right_id = pair.pair_id
            assert result == {"left_id": left_id, "right_id": right_id, **explanation.to_dict()}

    def test_stats_reflects_served_traffic(self, served):
        status, body = http_json(served.address, "GET", "/stats")
        assert status == 200
        assert body["model"] == "default"
        service = body["service"]
        assert service["pairs_scored"] >= 1
        assert service["batches"] >= 1
        counters = body["metrics"]["counters"]
        assert counters["http.requests"] >= 1
        assert counters["coalesce.pairs"] >= 1
        assert "http.request_seconds.score" in body["metrics"]["histograms"]


class TestErrorPaths:
    def test_unknown_path_is_404(self, served):
        status, body = http_json(served.address, "GET", "/nope")
        assert status == 404
        assert body["error"]["status"] == 404

    def test_wrong_method_is_405(self, served):
        status, body = http_json(served.address, "GET", "/score")
        assert status == 405
        assert "POST" in body["error"]["message"]

    def test_invalid_json_is_400(self, served):
        status, body = http_json(
            served.address, "POST", "/score", raw_body="{not json"
        )
        assert status == 400
        assert "not valid JSON" in body["error"]["message"]

    def test_unknown_attribute_is_400(self, served):
        payload = {
            "pair": {
                "left": {"id": "l", "values": {"bogus": 1}},
                "right": {"id": "r", "values": {}},
            }
        }
        status, body = http_json(served.address, "POST", "/score", payload)
        assert status == 400
        assert "bogus" in body["error"]["message"]

    def test_empty_body_is_400(self, served):
        status, body = http_json(served.address, "POST", "/score", payload={})
        assert status == 400
        assert "'pair' object or a 'pairs' array" in body["error"]["message"]

    def test_rollback_without_history_is_400(self, served):
        # Runs before the swap tests below: version 1 has no predecessor yet.
        status, body = http_json(served.address, "POST", "/models/rollback", {})
        assert status == 400
        assert "no previous version" in body["error"]["message"]


class TestModelControl:
    def test_swap_directory_changes_scores_and_rollback_restores(
        self, served, probe_pairs, direct_scores
    ):
        second_scores = RiskService(load_pipeline(served.second_dir)).score_pairs(
            probe_pairs
        )
        assert [s.risk_score for s in second_scores] != [
            s.risk_score for s in direct_scores
        ]
        batch_payload = {"pairs": [pair_to_payload(pair) for pair in probe_pairs]}

        status, body = http_json(
            served.address, "POST", "/models/swap", {"directory": str(served.second_dir)}
        )
        assert status == 200
        assert body["registered_version"] == 2
        assert body["active_version"] == 2
        assert body["versions"] == [1, 2]

        status, body = http_json(served.address, "POST", "/score", batch_payload)
        assert status == 200
        assert body["results"] == [scored_payload_of(s) for s in second_scores]

        status, body = http_json(served.address, "POST", "/models/rollback", {})
        assert status == 200
        assert body["active_version"] == 1

        status, body = http_json(served.address, "POST", "/score", batch_payload)
        assert status == 200
        assert body["results"] == [scored_payload_of(s) for s in direct_scores]

    def test_swap_by_version_activates_existing(self, served):
        status, body = http_json(
            served.address, "POST", "/models/swap", {"version": 2}
        )
        assert status == 200
        assert body["active_version"] == 2
        # Restore version 1 for any later test.
        status, body = http_json(served.address, "POST", "/models/rollback", {})
        assert status == 200
        assert body["active_version"] == 1

    def test_swap_without_directory_or_version_is_400(self, served):
        status, body = http_json(served.address, "POST", "/models/swap", {})
        assert status == 400
        assert "directory" in body["error"]["message"]

    def test_swap_unknown_version_is_400(self, served):
        status, body = http_json(
            served.address, "POST", "/models/swap", {"version": 99}
        )
        assert status == 400


class TestServerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(port=-1).validate()
        with pytest.raises(ConfigurationError):
            ServerConfig(coalesce_batch_size=0).validate()
        with pytest.raises(ConfigurationError):
            ServerConfig(service_batch_size=0).validate()
        with pytest.raises(ConfigurationError):
            ServerConfig(max_body_bytes=0).validate()
