"""The endpoint table: (method, path) routes to async handlers.

The serving tier's URL space is small and mostly static, so routing is an
exact dictionary lookup first, with a short pattern list for the few
parameterised paths (``/clusters/{id}``): a ``{param}`` segment captures
exactly one non-empty path segment into ``HttpRequest.path_params``.  Each
route carries a short ``name`` that keys the per-endpoint observability
series (``http.requests.<name>`` counters, ``http.request_seconds.<name>``
histograms), so the route table is also the catalogue of metric names an
operator will see.

``match`` distinguishes an unknown path (``404``) from a known path hit
with the wrong method (``405``), which is what well-behaved HTTP clients
expect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from .protocol import HttpError, HttpRequest

#: A handler takes the shared app state and the request, returns
#: ``(status, payload dict)``.
Handler = Callable[[Any, HttpRequest], Awaitable[tuple[int, dict]]]


@dataclass(frozen=True)
class Route:
    method: str
    path: str
    name: str
    handler: Handler


class Router:
    """Exact-match + ``{param}`` routing with 404/405 discrimination."""

    def __init__(self) -> None:
        self._routes: dict[tuple[str, str], Route] = {}
        self._paths: set[str] = set()
        self._patterns: list[tuple[tuple[str, ...], Route]] = []

    def add(self, method: str, path: str, name: str, handler: Handler) -> None:
        method = method.upper()
        if any(r.method == method and r.path == path for r in self.routes()):
            raise ValueError(f"duplicate route {method} {path}")
        route = Route(method, path, name, handler)
        if "{" in path:
            self._patterns.append((tuple(path.split("/")), route))
        else:
            self._routes[(method, path)] = route
            self._paths.add(path)

    @staticmethod
    def _pattern_params(
        pattern: tuple[str, ...], segments: tuple[str, ...]
    ) -> dict[str, str] | None:
        """Captured params when ``segments`` fits ``pattern``, else ``None``."""
        if len(pattern) != len(segments):
            return None
        params: dict[str, str] = {}
        for expected, actual in zip(pattern, segments):
            if expected.startswith("{") and expected.endswith("}"):
                if not actual:
                    return None
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params

    def match(self, method: str, path: str) -> tuple[Route, dict[str, str]]:
        """The route for ``(method, path)`` plus its captured path params."""
        method = method.upper()
        route = self._routes.get((method, path))
        if route is not None:
            return route, {}
        segments = tuple(path.split("/"))
        allowed: list[str] = []
        for pattern, candidate in self._patterns:
            params = self._pattern_params(pattern, segments)
            if params is None:
                continue
            if candidate.method == method:
                return candidate, params
            allowed.append(candidate.method)
        if path in self._paths:
            allowed.extend(m for (m, p) in self._routes if p == path)
        if allowed:
            raise HttpError(
                405, f"method {method} not allowed on {path} (allowed: {sorted(set(allowed))})"
            )
        raise HttpError(404, f"no such endpoint: {path}")

    def routes(self) -> list[Route]:
        """Every registered route (the endpoint table, for /models and docs)."""
        return sorted(
            list(self._routes.values()) + [route for _, route in self._patterns],
            key=lambda r: (r.path, r.method),
        )


def default_router() -> Router:
    """The serving tier's standard endpoint table."""
    from . import handlers

    router = Router()
    router.add("GET", "/healthz", "healthz", handlers.handle_healthz)
    router.add("GET", "/models", "models", handlers.handle_models)
    router.add("GET", "/stats", "stats", handlers.handle_stats)
    router.add("POST", "/score", "score", handlers.handle_score)
    router.add("POST", "/explain", "explain", handlers.handle_explain)
    router.add("POST", "/models/swap", "swap", handlers.handle_swap)
    router.add("POST", "/models/rollback", "rollback", handlers.handle_rollback)
    # Online resolution (503 until the server is built with an online policy).
    router.add("POST", "/resolve", "resolve", handlers.handle_resolve)
    router.add("GET", "/clusters/{id}", "cluster", handlers.handle_cluster)
    router.add("GET", "/events", "events", handlers.handle_events)
    router.add("POST", "/events/revert", "revert", handlers.handle_revert)
    return router
