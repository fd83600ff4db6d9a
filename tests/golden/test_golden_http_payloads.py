"""Golden regression tests of the HTTP wire format.

Two fixtures pin the serving tier's JSON surface:

* ``expected_explain_http.json`` — the **exact response bytes** of
  ``POST /explain`` on the committed golden workload served by a model fitted
  from the committed spec.  Byte-stable because responses are serialised with
  sorted keys + compact separators and the whole fit→serve chain is
  deterministic; any drift in the explanation payloads, the envelope layout or
  a single scored bit fails the comparison.
* ``expected_stats_http_keys.json`` — the **structural shape** of
  ``GET /stats`` after a fixed scripted request sequence: the sorted set of
  key paths (values are wall-clock-dependent, the schema is not).  Renaming,
  dropping or accidentally adding a counter/histogram/field changes the set.

Regenerating (only when a wire-format change is intentional)::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

from __future__ import annotations

import http.client
import json
import os
from pathlib import Path

import pytest

from repro.data.io import import_workload
from repro.data.schema import Schema
from repro.serve.cli import main as serve_cli
from repro.serve.http import SCHEMA_VERSION, ServerConfig, ServerHandle, build_server, pair_to_payload

GOLDEN_DIR = Path(__file__).resolve().parent
DATA_DIR = GOLDEN_DIR / "data"
EXPLAIN_FILE = GOLDEN_DIR / "expected_explain_http.json"
STATS_KEYS_FILE = GOLDEN_DIR / "expected_stats_http_keys.json"
WORKLOAD_NAME = "golden"


@pytest.fixture(scope="module")
def fitted_model_dir(tmp_path_factory) -> Path:
    model_dir = tmp_path_factory.mktemp("golden-http-model") / "model"
    exit_code = serve_cli([
        "fit",
        "--data-dir", str(DATA_DIR),
        "--name", WORKLOAD_NAME,
        "--schema", str(DATA_DIR / "schema.json"),
        "--spec", str(DATA_DIR / "spec.json"),
        "--output", str(model_dir),
    ])
    assert exit_code == 0
    return model_dir


@pytest.fixture(scope="module")
def golden_pairs():
    schema = Schema.from_dict(json.loads((DATA_DIR / "schema.json").read_text()))
    workload = import_workload(DATA_DIR, WORKLOAD_NAME, schema)
    return list(workload.pairs)


def raw_request(address, method, path, payload=None):
    """One request, returning the raw response bytes (what the goldens pin)."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        data = response.read()
        assert response.status == 200, data
        return data
    finally:
        connection.close()


def key_paths(payload, prefix=""):
    """Every dotted path to a leaf value (dict keys only — values ignored)."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from key_paths(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(payload, list):
        for item in payload:
            yield from key_paths(item, f"{prefix}[]")
    else:
        yield prefix


def test_explain_response_bytes_match_golden(fitted_model_dir, golden_pairs):
    config = ServerConfig(port=0, coalesce_batch_size=8)
    with ServerHandle.spawn(build_server(fitted_model_dir, config=config)) as handle:
        payload = {
            "pairs": [pair_to_payload(pair) for pair in golden_pairs],
            "top_rules": 3,
        }
        body = raw_request(handle.address, "POST", "/explain", payload)

    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        EXPLAIN_FILE.write_bytes(body + b"\n")
        pytest.skip("golden fixture regenerated")
    expected = EXPLAIN_FILE.read_bytes().rstrip(b"\n")
    assert body == expected, (
        "POST /explain response bytes drifted from "
        "tests/golden/expected_explain_http.json — if the wire-format or "
        "numeric change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    # Sanity on the fixture itself: it parses and carries the envelope.
    parsed = json.loads(body)
    assert parsed["schema_version"] == SCHEMA_VERSION
    assert len(parsed["results"]) == len(golden_pairs)


def test_stats_response_structure_matches_golden(fitted_model_dir, golden_pairs):
    # A dedicated server so the scripted sequence is the *only* traffic the
    # snapshot has seen — the key set is then fully deterministic.
    config = ServerConfig(port=0, coalesce_batch_size=8)
    with ServerHandle.spawn(build_server(fitted_model_dir, config=config)) as handle:
        address = handle.address
        raw_request(address, "GET", "/healthz")
        raw_request(
            address, "POST", "/score", {"pair": pair_to_payload(golden_pairs[0])}
        )
        raw_request(
            address, "POST", "/score",
            {"pairs": [pair_to_payload(pair) for pair in golden_pairs[:3]]},
        )
        raw_request(
            address, "POST", "/explain",
            {"pairs": [pair_to_payload(golden_pairs[0])], "top_rules": 2},
        )
        stats = json.loads(raw_request(address, "GET", "/stats"))

    observed = sorted(set(key_paths(stats)))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        STATS_KEYS_FILE.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "key_paths": observed,
        }, indent=2) + "\n")
        pytest.skip("golden fixture regenerated")
    expected = json.loads(STATS_KEYS_FILE.read_text())
    assert expected["schema_version"] == SCHEMA_VERSION
    assert observed == expected["key_paths"], (
        "GET /stats structure drifted from "
        "tests/golden/expected_stats_http_keys.json — if the schema change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )
