"""The asyncio HTTP server: accept loop, dispatch, metrics, lifecycle.

:class:`RiskHTTPServer` ties the tier together: ``asyncio.start_server``
accepts connections, :func:`~repro.serve.http.protocol.read_request` parses
requests (keep-alive, so a load generator's persistent connections pay one
TCP handshake), the :class:`~repro.serve.http.router.Router` dispatches to
handlers, and every response is timed into per-endpoint request-latency
histograms (``http.request_seconds.<route>``) and counters
(``http.requests.<route>``, ``http.responses.<status class>``) on the shared
:class:`~repro.obs.MetricsRegistry` — the same registry the coalescer and the
:class:`~repro.serve.service.RiskService` record into, so ``GET /stats`` is
one consistent picture of the whole process.

Two entry points:

* :func:`build_server` — load a saved model directory into a fresh
  :class:`~repro.serve.registry.ModelRegistry` and wrap it (what the
  ``python -m repro.serve http`` CLI does);
* :class:`ServerHandle` — run a server on a daemon thread with its own event
  loop, for tests and the load-generator benchmark: ``spawn`` returns once
  the port is bound, ``stop`` drains the coalescer and joins the thread.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

from ...exceptions import ConfigurationError, ReproError
from ...obs import MetricsRegistry
from ..registry import ModelRegistry
from . import schemas
from .coalescer import MicroBatchCoalescer
from .handlers import AppState
from .protocol import MAX_BODY_BYTES, HttpError, read_request, render_response
from .router import Router, default_router


@dataclass(frozen=True)
class ServerConfig:
    """The serving tier's knobs (validated at server construction).

    The coalescer's linger is not one: a single-pair ``/score`` batch flushes
    at ``coalesce_batch_size`` requests or a fixed 2 ms
    (:data:`~repro.serve.http.coalescer.LINGER_SECONDS`) after its oldest.
    """

    host: str = "127.0.0.1"
    port: int = 8080  # 0 binds an ephemeral port (tests, benchmarks)
    #: Coalescer: single-pair /score requests flush at this shared batch size.
    coalesce_batch_size: int = 64
    #: RiskService options for every service the registry builds.
    service_batch_size: int = 256
    service_cache_size: int = 4096
    #: Hard cap on one request body.
    max_body_bytes: int = MAX_BODY_BYTES

    def validate(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        if self.coalesce_batch_size < 1:
            raise ConfigurationError("coalesce_batch_size must be >= 1")
        if self.service_batch_size < 1:
            raise ConfigurationError("service_batch_size must be >= 1")
        if self.max_body_bytes < 1:
            raise ConfigurationError("max_body_bytes must be >= 1")


class RiskHTTPServer:
    """Serve risk scores, explanations and stats from a model registry.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` holding the served models; its
        ``service_options`` should route statistics into ``metrics`` so
        ``/stats`` shows serving counters (``build_server`` wires this).
    model_name:
        The registry name single-model endpoints default to.
    config:
        Network + coalescing knobs (:class:`ServerConfig`).
    metrics:
        The process metrics registry; defaults to a fresh one.
    resolver:
        Optional :class:`~repro.online.OnlineResolver` behind the
        ``/resolve`` endpoint family; without one those endpoints 503.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        model_name: str = "default",
        *,
        config: ServerConfig | None = None,
        metrics: MetricsRegistry | None = None,
        router: Router | None = None,
        resolver=None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.config.validate()
        self.registry = registry
        self.model_name = model_name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.router = router if router is not None else default_router()
        self.coalescer = MicroBatchCoalescer(
            self._score_coalesced_batch,
            max_batch_size=self.config.coalesce_batch_size,
            metrics=self.metrics,
        )
        self.state = AppState(
            registry=registry,
            model_name=model_name,
            coalescer=self.coalescer,
            metrics=self.metrics,
            coalesce_batch_size=self.config.coalesce_batch_size,
            resolver=resolver,
        )
        self._server: asyncio.AbstractServer | None = None
        self.host = self.config.host
        self.port = self.config.port

    def _score_coalesced_batch(self, pairs: list) -> list:
        # Resolved per batch, not per server: a hot-swap lands between
        # batches, so every coalesced batch is scored by exactly one model
        # version (the no-mid-batch-tear property the registry tests pin).
        return self.registry.service(self.model_name).score_pairs(pairs)

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        sockets = self._server.sockets or ()
        for socket_ in sockets:
            self.host, self.port = socket_.getsockname()[:2]
            break

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drain the coalescer, then close the resolver's log file."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.coalescer.stop()
        if self.state.resolver is not None:
            self.state.resolver.log.close()

    # ------------------------------------------------------------ connections
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except HttpError as exc:
                    # The stream position after a malformed request is
                    # undefined — answer and close.
                    self._count_response(exc.status, "malformed")
                    writer.write(render_response(
                        exc.status,
                        schemas.dumps(self._error_payload(exc.status, exc.message)),
                        keep_alive=False,
                    ))
                    await writer.drain()
                    return
                if request is None:
                    return
                status, body = await self._dispatch(request)
                keep_alive = request.keep_alive
                writer.write(render_response(status, body, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # --------------------------------------------------------------- dispatch
    @staticmethod
    def _error_payload(status: int, message: str) -> dict:
        return schemas.envelope(error={"status": status, "message": message})

    def _count_response(self, status: int, route_name: str) -> None:
        self.metrics.apply(counters={
            "http.requests": 1,
            f"http.requests.{route_name}": 1,
            f"http.responses.{status // 100}xx": 1,
        })

    async def _dispatch(self, request) -> tuple[int, bytes]:
        started = time.perf_counter()
        route_name = "unrouted"
        try:
            route, path_params = self.router.match(request.method, request.path)
            request.path_params = path_params
            route_name = route.name
            status, payload = await route.handler(self.state, request)
        except HttpError as exc:
            status, payload = exc.status, self._error_payload(exc.status, exc.message)
        except ReproError as exc:
            # Library validation errors (unknown model, bad version, unfitted
            # pipeline) are client errors at the HTTP boundary.
            status, payload = 400, self._error_payload(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - the server must not die
            status, payload = 500, self._error_payload(
                500, f"internal error: {type(exc).__name__}: {exc}"
            )
        elapsed = time.perf_counter() - started
        self.metrics.apply(
            counters={
                "http.requests": 1,
                f"http.requests.{route_name}": 1,
                f"http.responses.{status // 100}xx": 1,
            },
            observations={f"http.request_seconds.{route_name}": elapsed},
        )
        return status, schemas.dumps(payload)


def build_server(
    model_dir,
    *,
    model_name: str = "default",
    config: ServerConfig | None = None,
    metrics: MetricsRegistry | None = None,
    online_policy=None,
    events_path=None,
) -> RiskHTTPServer:
    """Load ``model_dir`` into a fresh registry and wrap it in a server.

    The registry's services are built with the config's batch/cache options
    and record into the server's metrics registry, so serving counters,
    coalescing telemetry and request latencies all land in one snapshot.

    With an ``online_policy`` (a :class:`~repro.online.ResolutionPolicy`),
    the server also carries an :class:`~repro.online.OnlineResolver` behind
    the ``/resolve`` endpoints, journalling to ``events_path`` when given (a
    resolver built on an existing log resumes its cluster state, and
    :meth:`RiskHTTPServer.stop` closes the file).  The
    resolver is pinned to the model version active at build time — it keeps
    scoring with that version across hot-swaps, so one audit log is always
    the work of exactly one model.
    """
    config = config if config is not None else ServerConfig()
    metrics = metrics if metrics is not None else MetricsRegistry()
    registry = ModelRegistry(
        max_batch_size=config.service_batch_size,
        cache_size=config.service_cache_size,
        metrics=metrics,
    )
    registry.load(model_name, model_dir)
    resolver = None
    if online_policy is not None:
        from ...online import EventLog, OnlineResolver

        resolver = OnlineResolver(
            registry.service(model_name),
            online_policy,
            event_log=EventLog(events_path),
            recorder=metrics,
        )
    return RiskHTTPServer(
        registry, model_name, config=config, metrics=metrics, resolver=resolver
    )


@dataclass
class ServerHandle:
    """A server running on its own daemon thread + event loop (tests, bench)."""

    server: RiskHTTPServer
    _thread: threading.Thread | None = None
    _loop: asyncio.AbstractEventLoop | None = None
    _stop_event: asyncio.Event | None = None
    _ready: threading.Event = field(default_factory=threading.Event)
    _startup_error: BaseException | None = None

    @classmethod
    def spawn(cls, server: RiskHTTPServer, timeout: float = 30.0) -> "ServerHandle":
        """Start ``server`` on a background thread; returns once it is bound."""
        handle = cls(server)
        handle._thread = threading.Thread(
            target=handle._run, name="repro-http-server", daemon=True
        )
        handle._thread.start()
        if not handle._ready.wait(timeout):
            raise RuntimeError("HTTP server did not start within the timeout")
        if handle._startup_error is not None:
            raise RuntimeError("HTTP server failed to start") from handle._startup_error
        return handle

    @property
    def address(self) -> tuple[str, int]:
        return (self.server.host, self.server.port)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to spawn()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server (draining pending work) and join the thread."""
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and loop.is_running():
            loop.call_soon_threadsafe(stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
