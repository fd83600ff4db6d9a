"""``repro.serve.http`` — the asyncio HTTP serving tier (stdlib only).

Turns the in-process serving stack (:class:`~repro.serve.service.RiskService`
micro-batching, :class:`~repro.serve.registry.ModelRegistry` hot-swap,
:mod:`repro.obs` metrics, decision-level explain payloads) into a network
service with micro-batch request coalescing:

* :mod:`~repro.serve.http.protocol` — a minimal, strict HTTP/1.1
  request/response layer over asyncio streams;
* :mod:`~repro.serve.http.coalescer` — :class:`MicroBatchCoalescer` gathers
  concurrent single-pair ``/score`` requests into one kernel-warm batch
  (flushed at the batch cap or a fixed 2 ms after its oldest request,
  per-request futures, per-item error isolation); the sans-IO
  :class:`CoalescerCore` holds the timing logic;
* :mod:`~repro.serve.http.schemas` — the versioned JSON wire format;
* :mod:`~repro.serve.http.router` / :mod:`~repro.serve.http.handlers` — the
  endpoint table (``/score``, ``/explain``, ``/stats``, ``/healthz``,
  ``/models``, ``/models/swap``, ``/models/rollback``);
* :mod:`~repro.serve.http.server` — :class:`RiskHTTPServer` plus
  :func:`build_server` (model directory in, server out) and
  :class:`ServerHandle` (background-thread runner for tests and the load
  benchmark).

Quick start::

    from repro.serve.http import ServerConfig, ServerHandle, build_server

    server = build_server("models/ds-v1", config=ServerConfig(port=8080))
    with ServerHandle.spawn(server) as handle:
        host, port = handle.address
        ...  # POST /score, /explain; GET /stats

or from the command line: ``python -m repro.serve http --model models/ds-v1
--port 8080``.
"""

from .coalescer import LINGER_SECONDS, CoalescerCore, MicroBatchCoalescer, PendingEntry, TakenBatch
from .protocol import HttpError, HttpRequest, read_request, render_response
from .router import Router, default_router
from .schemas import SCHEMA_VERSION, pair_to_payload, scored_pair_payload
from .server import RiskHTTPServer, ServerConfig, ServerHandle, build_server

__all__ = [
    "CoalescerCore",
    "HttpError",
    "HttpRequest",
    "LINGER_SECONDS",
    "MicroBatchCoalescer",
    "PendingEntry",
    "RiskHTTPServer",
    "Router",
    "SCHEMA_VERSION",
    "ServerConfig",
    "ServerHandle",
    "TakenBatch",
    "build_server",
    "default_router",
    "pair_to_payload",
    "read_request",
    "render_response",
    "scored_pair_payload",
]
