"""End-to-end tests of the online-resolution HTTP endpoints.

One module-scoped server carries an :class:`OnlineResolver`; a second,
resolver-less server pins the 503 behaviour.  The parity assertion mirrors
the resolver suite at the wire level: event payloads returned by
``POST /resolve`` carry exactly the scores a direct service computes.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.data import split_workload
from repro.data.records import Record
from repro.online import EventLog, ResolutionPolicy, replay_events
from repro.serve import save_pipeline
from repro.serve.http import ServerConfig, ServerHandle, build_server, handlers

from fast_spec import fast_pipeline


def _fit_pipeline(workload, seed=0):
    split = split_workload(workload, ratio=(3, 2, 5), seed=seed)
    pipeline = fast_pipeline(seed)
    pipeline.fit(split.train, split.validation)
    return pipeline


def http_json(address, method, path, payload=None):
    """One request from a fresh connection; returns (status, parsed body)."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def record_payload(index: int, title: str, source: str = "s"):
    return {
        "id": f"r{index}",
        "source": source,
        "values": {
            "title": title,
            "authors": "A Smith, B Jones",
            "venue": "VLDB",
            "year": 2001,
        },
    }


@pytest.fixture(scope="module")
def online_served(ds_workload, tmp_path_factory):
    pipeline = _fit_pipeline(ds_workload, seed=0)
    root = tmp_path_factory.mktemp("http-online")
    model_dir = root / "model"
    save_pipeline(pipeline, model_dir)
    events_path = root / "events.jsonl"
    policy = ResolutionPolicy(
        attributes=("title", "authors"), merge_threshold=1.0, split_threshold=1.0
    )
    server = build_server(
        model_dir,
        config=ServerConfig(port=0),
        online_policy=policy,
        events_path=events_path,
    )
    handle = ServerHandle.spawn(server)
    yield SimpleNamespace(
        handle=handle,
        address=handle.address,
        server=server,
        events_path=events_path,
        model_dir=model_dir,
    )
    handle.stop()


class TestResolveEndpoints:
    def test_resolve_single_record_no_candidates(self, online_served):
        status, body = http_json(
            online_served.address, "POST", "/resolve",
            {"record": record_payload(1, "streaming joins over data streams")},
        )
        assert status == 200
        assert body["records"] == 1
        assert body["events"] == []

    def test_resolve_batch_produces_audited_events(self, online_served):
        status, body = http_json(
            online_served.address, "POST", "/resolve",
            {"records": [
                record_payload(2, "streaming joins over data streams"),
                record_payload(3, "STREAMING JOINS OVER DATA STREAMS"),
            ]},
        )
        assert status == 200
        assert body["records"] == 2
        assert body["events"], "near-duplicate titles must produce decisions"
        for event in body["events"]:
            assert event["decision"] in ("merge", "split", "escalate")
            assert event["risk_score"] is not None
            assert event["threshold"] is not None
            assert event["explanation"] is not None

    def test_cluster_lookup_and_404(self, online_served):
        status, body = http_json(online_served.address, "GET", "/clusters/s:r1")
        assert status == 200
        assert body["id"] == "s:r1"
        assert "s:r1" in body["cluster"]
        status, body = http_json(online_served.address, "GET", "/clusters/s:missing")
        assert status == 404
        assert "unknown record key" in body["error"]["message"]

    def test_events_tail_and_since(self, online_served):
        status, body = http_json(online_served.address, "GET", "/events")
        assert status == 200
        assert body["count"] == len(body["events"])
        assert body["count"] >= 1
        last = body["events"][-1]["sequence"]
        status, tail = http_json(
            online_served.address, "GET", f"/events?since={last}"
        )
        assert status == 200
        assert tail["events"] == []
        status, body = http_json(online_served.address, "GET", "/events?since=-1")
        assert status == 400
        status, body = http_json(online_served.address, "GET", "/events?since=x")
        assert status == 400

    def test_revert_round_trip(self, online_served):
        status, body = http_json(online_served.address, "GET", "/events")
        merges = [
            event for event in body["events"]
            if event["decision"] in ("merge", "split")
        ]
        assert merges, "earlier tests must have produced a state decision"
        event_id = merges[0]["event_id"]
        status, body = http_json(
            online_served.address, "POST", "/events/revert", {"event_id": event_id}
        )
        assert status == 200
        assert body["event"]["decision"] == "revert"
        assert body["event"]["target_event_id"] == event_id
        # The response's cluster state is the replay of the persisted log.
        replayed = replay_events(EventLog(online_served.events_path).events())
        assert body["clusters"] == json.loads(
            json.dumps(replayed.to_dict(), sort_keys=True)
        )
        status, body = http_json(
            online_served.address, "POST", "/events/revert", {"event_id": event_id}
        )
        assert status == 400

        status, body = http_json(
            online_served.address, "POST", "/events/revert", {"event_id": 7}
        )
        assert status == 400

    def test_revert_response_is_the_state_the_revert_left(self, online_served, monkeypatch):
        # A /resolve that lands right after the revert must not show in the
        # revert's response.  The resolve is injected after the handler's
        # first executor call returns, which is where a concurrent request
        # could take the resolver lock.
        resolver = online_served.server.state.resolver
        reverted = {
            event.target_event_id for event in resolver.events()
            if event.decision == "revert"
        }
        target = [
            event for event in resolver.events()
            if event.decision in ("merge", "split") and event.event_id not in reverted
        ][-1]
        payload = record_payload(60, "streaming joins over data streams")
        record = Record(record_id=payload["id"], values=payload["values"], source="s")
        injected: list = []
        run_in_executor = handlers._in_executor

        async def racing(function, /, *args, **kwargs):
            result = await run_in_executor(function, *args, **kwargs)
            if not injected:
                injected.append(await run_in_executor(resolver.add_record, record))
            return result

        monkeypatch.setattr(handlers, "_in_executor", racing)
        status, body = http_json(
            online_served.address, "POST", "/events/revert",
            {"event_id": target.event_id},
        )
        assert status == 200
        assert injected and injected[0], "the injected record must decide something"
        events = EventLog(online_served.events_path).events()
        upto_revert = replay_events(events[:body["event"]["sequence"]]).to_dict()
        assert body["clusters"] == json.loads(json.dumps(upto_revert))
        assert replay_events(events).to_dict() != upto_revert

    def test_bad_resolve_payloads(self, online_served):
        for payload in (
            {},
            {"record": {"id": "x"}},
            {"records": []},
            {"record": record_payload(90, "t"), "records": []},
            {"record": {"id": "x", "values": {"nope": 1}}},
        ):
            status, _ = http_json(online_served.address, "POST", "/resolve", payload)
            assert status == 400, payload

    def test_concurrent_resolve_and_event_reads(self, online_served):
        errors: list[BaseException] = []
        done = threading.Event()

        def feed():
            try:
                for index in range(20, 30):
                    status, _ = http_json(
                        online_served.address, "POST", "/resolve",
                        {"record": record_payload(index, f"topic {index} indexing")},
                    )
                    assert status == 200
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                seen = 0
                while not done.is_set():
                    status, body = http_json(
                        online_served.address, "GET", f"/events?since={seen}"
                    )
                    assert status == 200
                    sequences = [event["sequence"] for event in body["events"]]
                    assert sequences == list(
                        range(seen + 1, seen + 1 + len(sequences))
                    )
                    seen += len(sequences)
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        reader = threading.Thread(target=read)
        feeder = threading.Thread(target=feed)
        reader.start()
        feeder.start()
        feeder.join(120)
        reader.join(120)
        assert not errors

    def test_cluster_read_behind_the_resolver_lock_leaves_healthz_live(self, online_served):
        # A /resolve holds the resolver lock for a whole decision.  A cluster
        # read queued behind it must wait in an executor thread, not on the
        # event loop, or every other connection (/healthz included) stalls.
        status, _ = http_json(
            online_served.address, "POST", "/resolve",
            {"record": record_payload(40, "lock probe record")},
        )
        assert status == 200
        resolver = online_served.server.state.resolver
        holding, release = threading.Event(), threading.Event()

        def hold_lock():
            with resolver._lock:
                holding.set()
                release.wait(5)

        cluster: dict = {}

        def read_cluster():
            cluster["status"], cluster["body"] = http_json(
                online_served.address, "GET", "/clusters/s:r40"
            )

        holder = threading.Thread(target=hold_lock)
        reader = threading.Thread(target=read_cluster)
        holder.start()
        try:
            assert holding.wait(5)
            reader.start()
            time.sleep(0.2)  # the cluster read is now parked on the held lock
            started = time.perf_counter()
            status, body = http_json(online_served.address, "GET", "/healthz")
            elapsed = time.perf_counter() - started
            assert reader.is_alive()
        finally:
            release.set()
            holder.join(10)
        reader.join(10)
        assert status == 200 and body["status"] == "ok"
        assert elapsed < 1.0
        assert cluster["status"] == 200
        assert "s:r40" in cluster["body"]["cluster"]

    def test_online_counters_visible_in_stats(self, online_served):
        status, body = http_json(online_served.address, "GET", "/stats")
        assert status == 200
        counters = body["metrics"]["counters"]
        assert counters.get("online.records", 0) >= 1


class TestWithoutResolver:
    @pytest.fixture(scope="class")
    def plain_served(self, online_served):
        server = build_server(online_served.model_dir, config=ServerConfig(port=0))
        with ServerHandle.spawn(server) as handle:
            yield SimpleNamespace(address=handle.address)

    def test_online_endpoints_503_without_resolver(self, plain_served):
        for method, path, payload in (
            ("POST", "/resolve", {"record": record_payload(1, "t")}),
            ("GET", "/clusters/s:r1", None),
            ("GET", "/events", None),
            ("POST", "/events/revert", {"event_id": "evt-000001"}),
        ):
            status, body = http_json(plain_served.address, method, path, payload)
            assert status == 503, (method, path)
            assert "online resolution is not enabled" in body["error"]["message"]

    def test_unknown_path_still_404(self, plain_served):
        status, _ = http_json(plain_served.address, "GET", "/clusters")
        assert status == 404
        status, _ = http_json(plain_served.address, "GET", "/clusters/a/b")
        assert status == 404
        status, _ = http_json(plain_served.address, "POST", "/clusters/s:r1", {})
        assert status == 405
