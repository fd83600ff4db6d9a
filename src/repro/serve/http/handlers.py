"""Endpoint handlers: the application logic behind each route.

Handlers are thin adapters from validated JSON (see
:mod:`repro.serve.http.schemas`) to the existing serving primitives — nothing
here invents behaviour:

* ``/score`` resolves pairs against the served model's schema, then either
  awaits the shared :class:`~repro.serve.http.coalescer.MicroBatchCoalescer`
  (single pair: joins a kernel-warm micro-batch with concurrent requests) or
  scores the posted batch directly through
  :meth:`~repro.serve.service.RiskService.score_pairs`;
* ``/explain`` is :meth:`RiskService.explain_pairs` —
  :meth:`~repro.risk.model.PairRiskExplanation.to_dict` payloads, risk scores
  bit-identical to ``/score``;
* ``/stats`` is the :mod:`repro.obs` snapshot (counters, gauges, histograms,
  spans) next to the service's own consistent
  :meth:`~repro.serve.service.ServiceStats.snapshot`;
* ``/models/swap`` and ``/models/rollback`` drive the thread-safe
  :class:`~repro.serve.registry.ModelRegistry` hot-swap — in-flight batches
  keep their resolved service, the *next* batch sees the new version;
* ``/resolve``, ``/clusters/{id}``, ``/events`` and ``/events/revert``
  expose the :class:`~repro.online.OnlineResolver` when the server was
  built with an online policy (``503`` otherwise): post records, read the
  clusters they merged into, tail the audit log, revert a decision.

Blocking work (scoring, explaining, loading a model directory from disk, and
every call that takes the resolver lock) runs in the event loop's executor so
one slow request never stalls the accept loop.  Handlers return
``(status, payload)``; raising :class:`~repro.serve.http.protocol.HttpError`
(or any :class:`~repro.exceptions.ReproError`, mapped to 400) produces a JSON
error response.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING
from urllib.parse import parse_qs

from ...exceptions import DataError
from ...obs import MetricsRegistry
from ..registry import ModelRegistry
from ..service import RiskService
from .protocol import HttpError, HttpRequest
from . import schemas

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...online import OnlineResolver
    from .coalescer import MicroBatchCoalescer


@dataclass
class AppState:
    """Everything handlers need: the registry, the coalescer, the metrics."""

    registry: ModelRegistry
    model_name: str
    coalescer: "MicroBatchCoalescer"
    metrics: MetricsRegistry
    #: The coalescer's batch cap, echoed by /healthz.
    coalesce_batch_size: int = 0
    #: The online resolver behind /resolve, /clusters and /events; ``None``
    #: until the server is built with an online policy (the endpoints 503).
    resolver: "OnlineResolver | None" = None

    def service(self) -> RiskService:
        """The active version's service (resolved per call — hot-swap aware)."""
        return self.registry.service(self.model_name)

    def schema(self):
        return self.service().pipeline.vectorizer.schema


async def _in_executor(function, /, *args, **kwargs):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, partial(function, *args, **kwargs))


# ------------------------------------------------------------------ liveness
async def handle_healthz(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    return 200, schemas.envelope(
        status="ok",
        model=state.model_name,
        active_version=state.registry.active_version(state.model_name),
        coalescing={"max_batch_size": state.coalesce_batch_size},
    )


async def handle_models(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    return 200, schemas.envelope(
        default_model=state.model_name,
        models=state.registry.describe(),
    )


# ------------------------------------------------------------------- scoring
async def handle_score(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    body = schemas.parse_json_body(request)
    pairs, single = schemas.pairs_from_body(body, state.schema())
    if single:
        scored = await state.coalescer.submit(pairs[0])
        return 200, schemas.envelope(
            coalesced=True, result=schemas.scored_pair_payload(scored)
        )
    scored_pairs = await _in_executor(state.service().score_pairs, pairs)
    return 200, schemas.envelope(
        coalesced=False,
        results=[schemas.scored_pair_payload(scored) for scored in scored_pairs],
    )


async def handle_explain(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    body = schemas.parse_json_body(request)
    pairs, _ = schemas.pairs_from_body(body, state.schema())
    top_rules = schemas.top_rules_from_body(body)
    explanations = await _in_executor(
        state.service().explain_pairs, pairs, top_rules=top_rules
    )
    results = []
    for pair, explanation in zip(pairs, explanations):
        left_id, right_id = pair.pair_id
        results.append(
            {"left_id": left_id, "right_id": right_id, **explanation.to_dict()}
        )
    return 200, schemas.envelope(results=results)


# ---------------------------------------------------------- online resolution
def _resolver(state: AppState) -> "OnlineResolver":
    if state.resolver is None:
        raise HttpError(
            503,
            "online resolution is not enabled on this server; "
            "start it with an online policy (serve http --resolve-attributes ...)",
        )
    return state.resolver


async def handle_resolve(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    """Feed one or more records through the online resolver, in order."""
    resolver = _resolver(state)
    body = schemas.parse_json_body(request)
    records = schemas.records_from_body(body, state.schema())
    events = []
    for record in records:
        # One record at a time keeps the decision order identical to the
        # order the client posted (the audit log's determinism contract).
        events.extend(await _in_executor(resolver.add_record, record))
    return 200, schemas.envelope(
        records=len(records),
        events=[event.to_dict() for event in events],
    )


async def handle_cluster(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    """The cluster containing one record key (``source:record_id``)."""
    resolver = _resolver(state)
    key = request.path_params["id"]
    try:
        # cluster_of takes the resolver lock, which a /resolve holds for a
        # whole decision; waiting for it here would stall the event loop.
        members = await _in_executor(resolver.cluster_of, key)
    except DataError as exc:
        raise HttpError(404, str(exc)) from exc
    return 200, schemas.envelope(id=key, cluster=members)


async def handle_events(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    """The audit log, optionally only events after ``?since=<sequence>``."""
    resolver = _resolver(state)
    query = parse_qs(request.query)
    since = 0
    if "since" in query:
        try:
            since = int(query["since"][-1])
        except ValueError as exc:
            raise HttpError(400, "'since' must be an integer") from exc
        if since < 0:
            raise HttpError(400, "'since' must be >= 0")
    events = resolver.events(since=since)
    return 200, schemas.envelope(
        since=since,
        count=len(events),
        events=[event.to_dict() for event in events],
    )


async def handle_revert(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    """Revert one merge/split decision by event id (replays the log)."""
    resolver = _resolver(state)
    body = schemas.parse_json_body(request)
    event_id = body.get("event_id")
    if not isinstance(event_id, str) or not event_id:
        raise HttpError(400, "'event_id' must be a non-empty string")
    # One executor call: the state is read under the revert's own lock hold,
    # so a /resolve landing just after the revert cannot show in the response.
    event, clusters = await _in_executor(resolver.revert_with_state, event_id)
    return 200, schemas.envelope(event=event.to_dict(), clusters=clusters)


# --------------------------------------------------------------------- stats
async def handle_stats(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    service = state.service()
    return 200, schemas.envelope(
        model=state.model_name,
        active_version=state.registry.active_version(state.model_name),
        service=service.stats.snapshot(),
        metrics=state.metrics.snapshot(),
    )


# ------------------------------------------------------------- model control
async def handle_swap(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    body = schemas.parse_json_body(request)
    model = body.get("model", state.model_name)
    if not isinstance(model, str) or not model:
        raise HttpError(400, "'model' must be a non-empty string")
    directory = body.get("directory")
    version = body.get("version")
    if version is not None and (not isinstance(version, int) or isinstance(version, bool)):
        raise HttpError(400, "'version' must be an integer")
    if directory is not None:
        if not isinstance(directory, str):
            raise HttpError(400, "'directory' must be a string path")
        # Loading reads manifest + npz from disk; keep it off the event loop.
        registered = await _in_executor(
            state.registry.load, model, directory, version=version
        )
    elif version is not None:
        state.registry.activate(model, version)
        registered = version
    else:
        raise HttpError(
            400, "swap needs a 'directory' to load or a 'version' to activate"
        )
    return 200, schemas.envelope(
        model=model,
        registered_version=registered,
        active_version=state.registry.active_version(model),
        versions=state.registry.versions(model),
    )


async def handle_rollback(state: AppState, request: HttpRequest) -> tuple[int, dict]:
    body = schemas.parse_json_body(request)
    model = body.get("model", state.model_name)
    if not isinstance(model, str) or not model:
        raise HttpError(400, "'model' must be a non-empty string")
    restored = state.registry.rollback(model)
    return 200, schemas.envelope(
        model=model,
        active_version=restored,
        versions=state.registry.versions(model),
    )
