"""Open-loop HTTP load generator over pipelined keep-alive connections.

Each connection gets a fixed schedule of requests, each with a *due* time
relative to a shared start.  A sender task writes every request at its due
time whether or not earlier responses have arrived (an open loop: a slow
server is not protected from load, its backlog grows instead), and a
receiver task reads the in-order HTTP/1.1 responses.  Latency is measured
from the **due** time, not from the moment the request was written, so any
stall — in the server or in the generator itself — is charged to every
request it delays.  The generator reports how late it ran (``lag``: write
time minus due time) and the largest number of requests in flight on a
connection (``backlog``).

Every connection is half-closed and the server's own close awaited before
:func:`drive` returns, so a server stopped afterwards has no handler left
to cancel.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from harness import percentile

#: Longest wait for the server to close its side of a finished connection.
CLOSE_TIMEOUT = 2.0


def http_request(method: str, path: str, body: bytes | None = None) -> bytes:
    """Raw HTTP/1.1 keep-alive request bytes."""
    head = f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("ascii") + (body or b"")


async def read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """One ``Content-Length``-framed response: ``(status, body)``."""
    status_line = await reader.readuntil(b"\r\n")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readuntil(b"\r\n")
        if line == b"\r\n":
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


@dataclass
class Request:
    """One scheduled request: due offset (s), kind, and a function making its bytes at send time."""

    due: float
    kind: str
    build: Callable[[], bytes]
    tag: Any = None


@dataclass
class Outcome:
    request: Request
    due_at: float
    sent_at: float
    done_at: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done_at - self.due_at

    @property
    def lag(self) -> float:
        return self.sent_at - self.due_at


@dataclass
class ConnectionResult:
    outcomes: list[Outcome] = field(default_factory=list)
    #: Requests written to the connection.
    sent: int = 0
    #: Most requests in flight at once (written, response not yet read).
    backlog_max: int = 0
    #: Requests in flight right after the last one was written.
    backlog_end: int = 0
    error: BaseException | None = None


async def run_connection(
    host: str,
    port: int,
    schedule: list[Request],
    start: float,
    on_response: Callable[[Outcome], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> ConnectionResult:
    """Play ``schedule`` on one pipelined connection starting at ``start``."""
    result = ConnectionResult()
    inflight: deque[tuple[Request, float, float]] = deque()
    reader, writer = await asyncio.open_connection(host, port)

    async def send() -> None:
        for request in schedule:
            due_at = start + request.due
            delay = due_at - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            data = request.build()
            inflight.append((request, due_at, clock()))
            writer.write(data)
            result.sent += 1
            result.backlog_max = max(result.backlog_max, len(inflight))
            await writer.drain()
        result.backlog_end = len(inflight)

    async def receive() -> None:
        for _ in schedule:
            status, body = await read_response(reader)
            request, due_at, sent_at = inflight.popleft()
            outcome = Outcome(request, due_at, sent_at, clock(), status, body)
            result.outcomes.append(outcome)
            if on_response is not None:
                on_response(outcome)

    sender = asyncio.ensure_future(send())
    receiver = asyncio.ensure_future(receive())
    try:
        await asyncio.gather(sender, receiver)
    except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
        result.error = exc
    finally:
        for task in (sender, receiver):
            task.cancel()
        await asyncio.gather(sender, receiver, return_exceptions=True)
        await close_connection(reader, writer)
    return result


async def close_connection(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Half-close, wait until the server closes its side, then close.

    The server closes its side only after its handler has read the end of
    the stream, so once this returns no handler is left on the connection.
    """
    try:
        writer.write_eof()
        await asyncio.wait_for(reader.read(), CLOSE_TIMEOUT)
    except (OSError, RuntimeError, asyncio.TimeoutError):
        pass
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def drive(
    host: str,
    port: int,
    schedules: list[list[Request]],
    on_response: Callable[[Outcome], None] | None = None,
    lead: float = 0.05,
) -> list[ConnectionResult]:
    """Play one schedule per connection, all sharing one start time."""
    start = time.perf_counter() + lead
    return list(await asyncio.gather(*(
        run_connection(host, port, schedule, start, on_response)
        for schedule in schedules
    )))


@dataclass
class LoadReport:
    """Generator validity figures over one or more connections."""

    sent: int
    lag_p99_ms: float
    backlog_max: int

    @classmethod
    def of(cls, results: list[ConnectionResult]) -> "LoadReport":
        lags = [o.lag for r in results for o in r.outcomes]
        return cls(
            sent=sum(r.sent for r in results),
            lag_p99_ms=percentile(lags, 99) * 1e3,
            backlog_max=max((r.backlog_max for r in results), default=0),
        )
