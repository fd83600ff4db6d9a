"""The open-loop generator against a stub server that sleeps a fixed delay.

The stub is a real :class:`~repro.serve.http.RiskHTTPServer` run through
``ServerHandle`` with a one-route router, so the test also pins the shutdown
contract: the generator closes every connection before the server stops, and
the server's loop logs no cancelled handler.
"""

from __future__ import annotations

import asyncio
import logging
import time

import pytest

from loadgen import LoadReport, Request, drive, http_request

pytest.importorskip("repro.serve.http")

from repro.serve.http import Router, RiskHTTPServer, ServerConfig, ServerHandle  # noqa: E402
from repro.serve.registry import ModelRegistry  # noqa: E402

DELAY = 0.002
STALL = 0.2
STALLED = 10
RATE = 100.0
COUNT = 40


def stub_server() -> RiskHTTPServer:
    async def echo(state, request):
        index = int(request.query.split("=")[1])
        await asyncio.sleep(STALL if index == STALLED else DELAY)
        return 200, {"index": index}

    router = Router()
    router.add("GET", "/echo", "echo", echo)
    return RiskHTTPServer(ModelRegistry(), config=ServerConfig(port=0), router=router)


def schedule(rate: float = RATE, count: int = COUNT) -> list[Request]:
    return [
        Request(i / rate, "echo", lambda i=i: http_request("GET", f"/echo?i={i}"), i)
        for i in range(count)
    ]


def play(schedules, on_response=None):
    handle = ServerHandle.spawn(stub_server())
    try:
        host, port = handle.address
        return asyncio.run(drive(host, port, schedules, on_response=on_response))
    finally:
        handle.stop()


def test_a_server_stall_delays_every_later_request(caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    (result,) = play([schedule()])
    assert result.error is None
    assert result.sent == COUNT and len(result.outcomes) == COUNT
    assert all(o.status == 200 for o in result.outcomes)
    latency = {o.request.tag: o.latency for o in result.outcomes}
    # Before the stall requests take about the stub's delay.
    assert max(latency[i] for i in range(STALLED)) < STALL / 2
    # Requests due during the stall wait for it: measured from their due
    # time, each is late by the rest of the stall.
    for i in range(STALLED + 1, STALLED + 6):
        remaining = STALL - (i - STALLED) / RATE
        assert latency[i] >= remaining * 0.9
    # The open loop kept sending, so a backlog built behind the stall.
    assert result.backlog_max >= 5
    report = LoadReport.of([result])
    assert report.sent == COUNT and report.backlog_max == result.backlog_max
    assert report.lag_p99_ms >= 0.0
    # Every connection closed before stop(): no cancelled handler was logged.
    assert not [r for r in caplog.records if "CancelledError" in r.getMessage()
                or r.exc_info and r.exc_info[0] is asyncio.CancelledError]


def test_a_generator_stall_counts_from_the_due_time():
    stalled_at = {}

    def slow_reader(outcome):
        # Block the client's event loop once: the generator falls behind.
        if outcome.request.tag == 2 and not stalled_at:
            stalled_at["tag"] = outcome.request.tag
            time.sleep(STALL)

    (result,) = play([schedule(count=20)], on_response=slow_reader)
    assert result.error is None and len(result.outcomes) == 20
    late = [o for o in result.outcomes if o.lag > STALL / 2]
    assert late, "requests due during the client stall must be written late"
    for outcome in late:
        assert outcome.latency >= outcome.lag
    assert LoadReport.of([result]).lag_p99_ms >= STALL / 2 * 1e3


def test_two_connections_share_one_start():
    results = play([schedule(count=10), schedule(count=10)])
    assert [len(r.outcomes) for r in results] == [10, 10]
    first_due = [r.outcomes[0].due_at for r in results]
    assert first_due[0] == first_due[1]
