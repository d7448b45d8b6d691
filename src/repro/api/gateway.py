"""The API gateway: trie router + middleware chain + response envelope.

One :class:`ApiGateway` per :class:`~repro.core.registry.Platform`
(``platform.gateway``) dispatches every request:

1. resolve ``(method, path)`` through the path trie (404 miss);
2. middleware chain — request metrics, per-user token-bucket rate
   limiting (429 + ``retry_after_s``), API-token auth;
3. schema validation of the body/query (400 before the handler runs);
4. the resource handler.

Every caller — the HTTP front end with a bearer ``token=``, in-process
code with a trusted ``user=`` — enters through :meth:`ApiGateway.handle`
and runs the same chain.  Responses use one envelope that nests handler
payloads under ``data`` so they can never collide with
``status``/``error``::

    {"status": 200, "data": {...}}
    {"status": 429, "error": "...", "retry_after_s": 0.31}

(``retry_after_s`` is set on any error carrying a retry hint: a rate
limit's 429, a shed classify's 503.)

Error statuses: :class:`ApiError` carries its own; the typed lookups
``UnknownJobError``/``UnknownProjectError`` map to 404 and
``PermissionError`` to 403.  Anything else escaping a handler is a
genuine bug: a 500 with ``ExceptionType: message`` in the envelope —
never a masqueraded 404.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.api.context import Request
from repro.api.errors import ApiError, NotFoundError
from repro.api.middleware import (
    AuthMiddleware,
    MetricsMiddleware,
    RateLimitMiddleware,
    RequestMetrics,
    ResponseCache,
    status_of,
)
from repro.api.router import Route, Router
from repro.api.resources import register_all

_ROUTER: Router | None = None
_ROUTER_LOCK = threading.Lock()


def build_router() -> Router:
    """The full v1 route table (module-level singleton: routes are
    stateless — handlers read everything from the request context)."""
    global _ROUTER
    with _ROUTER_LOCK:
        if _ROUTER is None:
            router = Router()
            register_all(router)
            _ROUTER = router
    return _ROUTER


class ApiGateway:
    """Layered dispatch over a :class:`Platform` instance."""

    def __init__(self, platform, *, rate_limit_capacity: float = 500.0,
                 rate_limit_refill_per_s: float = 100.0):
        self.platform = platform
        self.router = build_router()
        self.metrics = RequestMetrics()
        # Serialized-response cache for hot GETs (routes opt in via
        # cache_ttl_s); consulted by the HTTP front end, which also
        # answers If-None-Match revalidations with 304s from it.
        self.response_cache = ResponseCache()
        self.rate_limit = RateLimitMiddleware(
            capacity=rate_limit_capacity,
            refill_per_s=rate_limit_refill_per_s,
        )
        # Order matters: metrics outermost (observe every outcome), auth
        # before rate limiting (buckets key on the *resolved* identity,
        # and invalid tokens cost a 401, not a bucket).
        self._middlewares = (
            MetricsMiddleware(self.metrics),
            AuthMiddleware(),
            self.rate_limit,
        )
        # Fold the chain once — the composition is request-independent,
        # so per-request closure allocation would just tax the hot path.
        self._run_chain = self._invoke
        for middleware in reversed(self._middlewares):
            self._run_chain = (
                lambda mw, nxt: lambda c: mw(c, nxt)
            )(middleware, self._run_chain)

    # -- dispatch core -----------------------------------------------------

    def _invoke(self, ctx: Request):
        ctx.body = ctx.route.request.validate(ctx.body)
        return ctx.route.handler(ctx)

    def _dispatch(
        self, method: str, path: str, body: dict | None,
        user: str | None, token: str | None, resolved: tuple | None,
        stream_only: bool = False,
    ) -> tuple[Route | None, object, dict | None]:
        """The one request path: resolve, build the :class:`Request`,
        run the middleware chain.  Returns ``(route, payload, None)`` —
        a streaming route's payload is its un-consumed line iterator —
        or ``(route, None, error_envelope)``."""
        try:
            route, params = resolved or self.router.resolve(method, path)
        except NotFoundError as exc:
            return None, None, {"status": 404, "error": str(exc)}
        if stream_only and not route.stream:
            return route, None, {
                "status": 400, "error": f"route {route.name} is not a stream"}
        ctx = Request(
            method=method, path=path, body=body or {}, params=params,
            user=user, token=token,
            platform=self.platform, gateway=self, route=route,
        )
        try:
            return route, self._run_chain(ctx), None
        except BaseException as exc:
            return route, None, self._map_error(exc)

    @staticmethod
    def _map_error(exc: BaseException) -> dict:
        status = status_of(exc)
        if status == 500:
            if not isinstance(exc, Exception):
                raise exc  # KeyboardInterrupt/SystemExit must propagate
            return {"status": 500, "error": f"{type(exc).__name__}: {exc}"}
        envelope = {"status": status, "error": str(exc)}
        retry_after_s = getattr(exc, "retry_after_s", None)
        if retry_after_s is not None:
            envelope["retry_after_s"] = round(retry_after_s, 3)
        return envelope

    # -- public surfaces ---------------------------------------------------

    def handle(self, method: str, path: str, body: dict | None = None, *,
               user: str | None = None, token: str | None = None,
               _resolved: tuple | None = None) -> dict:
        """Dispatch one request; returns the envelope, payload nested
        under ``data``.  ``user=`` is a trusted in-process identity;
        socket callers pass ``token=``.  ``_resolved`` lets a front end
        that already resolved the route (the HTTP handler peeks at
        ``route.stream``) skip the second trie walk."""
        route, payload, error = self._dispatch(
            method, path, body, user, token, _resolved
        )
        if error is not None:
            return error
        if route.stream and not isinstance(payload, dict):
            # In-process callers get the stream materialized; the HTTP
            # front end uses open_stream() to chunk it over the socket.
            payload = {"lines": list(payload)}
        return {"status": 200, "data": payload or {}}

    def open_stream(
        self, method: str, path: str, body: dict | None = None, *,
        user: str | None = None, token: str | None = None,
        _resolved: tuple | None = None,
    ) -> Iterator[str] | dict:
        """Dispatch a streaming route and hand back its line iterator.
        Auth/rate-limit/validation run before the first line is
        produced, so a failure comes back as the same JSON error
        envelope (a dict) :meth:`handle` returns."""
        _, stream, error = self._dispatch(
            method, path, body, user, token, _resolved, stream_only=True
        )
        return stream if error is None else error
