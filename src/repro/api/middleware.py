"""The gateway's middleware pipeline: metrics -> auth -> rate limit.

Middlewares are callables ``(ctx, call_next) -> payload`` composed by the
gateway around schema validation + the route handler.  Every request
runs the whole chain: a trusted in-process caller (``user=``) skips only
the token lookup, and is metered and rate-limited like a token caller.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter

from repro.api.errors import ApiError, AuthError, RateLimitedError
from repro.core.jobs import UnknownJobError
from repro.core.registry import UnknownProjectError


class TokenBucket:
    """Classic per-key token bucket (thread-safe, monotonic clock).

    Key cardinality is bounded: when ``max_keys`` is exceeded the
    longest-idle buckets are evicted (an idle bucket has refilled to
    capacity anyway, so eviction never grants extra burst beyond a
    fresh bucket's).
    """

    def __init__(self, capacity: float, refill_per_s: float,
                 max_keys: int = 4096):
        if capacity < 1 or refill_per_s <= 0:
            raise ValueError("capacity must be >= 1 and refill_per_s > 0")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self.max_keys = max_keys
        self._lock = threading.Lock()
        self._buckets: dict[str, tuple[float, float]] = {}  # key -> (tokens, ts)
        self.rejected = 0  # guarded-by: _lock

    def acquire(self, key: str) -> float | None:
        """Take one token; returns None on success, else the retry-after
        hint in seconds (and counts the rejection)."""
        now = time.monotonic()
        with self._lock:
            entry = self._buckets.get(key)
            if entry is None and len(self._buckets) >= self.max_keys:
                for stale in sorted(self._buckets,
                                    key=lambda k: self._buckets[k][1])[
                                        : self.max_keys // 4]:
                    del self._buckets[stale]
            tokens, last = entry if entry is not None else (self.capacity, now)
            tokens = min(self.capacity, tokens + (now - last) * self.refill_per_s)
            if tokens >= 1.0:
                self._buckets[key] = (tokens - 1.0, now)
                return None
            self._buckets[key] = (tokens, now)
            self.rejected += 1
            return (1.0 - tokens) / self.refill_per_s


class RateLimitMiddleware:
    """Per-user token-bucket limiting; exhaustion is a 429 with a
    ``retry_after_s`` hint in the envelope.

    Runs *after* auth, so the bucket key is the resolved identity —
    never an attacker-chosen raw token (rotating invalid tokens gets
    401s, not fresh buckets)."""

    def __init__(self, capacity: float = 500.0, refill_per_s: float = 100.0):
        self.bucket = TokenBucket(capacity, refill_per_s)

    @property
    def rejected(self) -> int:
        """429s issued; the bucket counts them under its own lock."""
        return self.bucket.rejected

    def __call__(self, ctx, call_next):
        key = ctx.user or "anonymous"
        retry_after = self.bucket.acquire(key)
        if retry_after is not None:
            raise RateLimitedError(key, retry_after)
        return call_next(ctx)


class AuthMiddleware:
    """API-token authentication + scope enforcement.

    Trusted in-process callers pass ``user=`` explicitly and skip token
    checks.  Everything else — i.e. every socket request — must present
    a token for any route not marked ``auth="public"``; a presented
    token must resolve even on public routes (a bad credential is never
    silently ignored).

    Tokens carry a scope (``Platform.issue_token(scope=...)``): ``read``
    tokens may only call non-mutating routes (GETs, plus POSTs
    explicitly marked ``mutating=False`` — pure compute like classify);
    anything else is a 403 naming the missing scope.  Tokens issued
    before scopes existed resolve as operator.
    """

    def __call__(self, ctx, call_next):
        if ctx.user is None:
            if ctx.token is not None:
                username = ctx.platform.resolve_token(ctx.token)
                if username is None:
                    raise AuthError("invalid API token")
                ctx.user = username
                scope_of = getattr(ctx.platform, "token_scope", None)
                ctx.scope = scope_of(ctx.token) if scope_of else "operator"
                if ctx.scope == "read" and ctx.route.is_mutating():
                    raise ApiError(
                        403,
                        f"token scope 'read' cannot call mutating route "
                        f"{ctx.route.name} ({ctx.method} {ctx.route.path}); "
                        f"an 'operator'-scoped token is required",
                    )
            elif ctx.route.auth != "public":
                raise AuthError(
                    "authentication required: pass an API token "
                    "(Authorization: Bearer <token>)"
                )
            else:
                ctx.user = "anonymous"
        return call_next(ctx)


class ResponseCache:
    """TTL'd cache of *serialized* GET responses with ETags.

    The HTTP front end consults this for routes declaring
    ``cache_ttl_s > 0``: within the TTL the stored envelope bytes are
    served verbatim (no handler invocation, no re-serialization), and a
    request presenting ``If-None-Match`` with the current ETag gets a
    bodiless 304.  Keys include the token, so a cached payload can never
    leak across identities; entries are capacity-bounded with
    oldest-expiry eviction.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        # key -> (expires_at_monotonic, etag, body_bytes)
        self._entries: dict[tuple, tuple[float, str, bytes]] = {}
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.not_modified = 0  # guarded-by: _lock

    @staticmethod
    def etag_of(body: bytes) -> str:
        return '"' + hashlib.md5(body).hexdigest() + '"'

    def lookup(self, key: tuple) -> tuple[str, bytes] | None:
        """The live ``(etag, body)`` for ``key``, or None past the TTL."""
        now = time.monotonic()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] < now:
                self.misses += 1
                if entry is not None:
                    del self._entries[key]
                return None
            self.hits += 1
            return entry[1], entry[2]

    def store(self, key: tuple, ttl_s: float, body: bytes) -> str:
        etag = self.etag_of(body)
        now = time.monotonic()
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.max_entries:
                for stale in sorted(self._entries,
                                    key=lambda k: self._entries[k][0])[
                                        : max(1, self.max_entries // 4)]:
                    del self._entries[stale]
            self._entries[key] = (now + ttl_s, etag, body)
        return etag

    def record_not_modified(self) -> None:
        with self._lock:
            self.not_modified += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "not_modified": self.not_modified,
            }


class RequestMetrics:
    """Per-route request counters + latency, exposed at
    ``GET /v1/gateway/stats``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._routes: dict[str, dict] = {}
        self._statuses: Counter = Counter()
        self.requests = 0
        self.errors = 0

    def record(self, route_name: str, status: int, elapsed_s: float) -> None:
        with self._lock:
            self.requests += 1
            if status >= 400:
                self.errors += 1
            self._statuses[status] += 1
            entry = self._routes.setdefault(
                route_name, {"requests": 0, "errors": 0, "total_ms": 0.0}
            )
            entry["requests"] += 1
            if status >= 400:
                entry["errors"] += 1
            entry["total_ms"] += elapsed_s * 1000.0

    def snapshot(self) -> dict:
        with self._lock:
            routes = {
                name: {
                    "requests": e["requests"],
                    "errors": e["errors"],
                    "mean_ms": e["total_ms"] / e["requests"],
                }
                for name, e in sorted(self._routes.items())
            }
            return {
                "requests": self.requests,
                "errors": self.errors,
                "by_status": {str(k): v for k, v in sorted(self._statuses.items())},
                "routes": routes,
            }


def status_of(exc: BaseException) -> int:
    """The status an exception will map to in the envelope."""
    if isinstance(exc, ApiError):
        return exc.status
    if isinstance(exc, (UnknownJobError, UnknownProjectError)):
        return 404
    if isinstance(exc, PermissionError):
        return 403
    return 500


class MetricsMiddleware:
    """Times every request into :class:`RequestMetrics` and notes each
    project-scoped request's outcome in the monitor's telemetry store
    (:meth:`~repro.monitor.TelemetryStore.record_request`: per-project
    summaries see API traffic; the drift detectors never do)."""

    def __init__(self, metrics: RequestMetrics):
        self.metrics = metrics

    def __call__(self, ctx, call_next):
        start = time.perf_counter()
        status = 200
        try:
            return call_next(ctx)
        except BaseException as exc:
            status = status_of(exc)
            raise
        finally:
            self.metrics.record(ctx.route.name, status,
                                time.perf_counter() - start)
            self._emit(ctx, status)

    def _emit(self, ctx, status: int) -> None:
        pid = ctx.params.get("pid")
        monitor = getattr(ctx.platform, "monitor", None)
        # Only authenticated requests against *existing* projects count:
        # an anonymous caller iterating project ids must not mint
        # outcome windows (unbounded memory) or inject requests into
        # real projects' summaries.
        if (pid is None or monitor is None or ctx.user is None
                or pid not in getattr(ctx.platform, "projects", {})):
            return
        monitor.telemetry.record_request(pid, status < 400)
