"""API Gateway v1 (paper Sec. 4.9).

A layered redesign of the platform's programmatic surface:

- :mod:`repro.api.router` — declarative routes dispatched via a
  path-segment trie;
- :mod:`repro.api.schemas` — typed request schemas validated before
  handlers run;
- :mod:`repro.api.middleware` — request metrics, per-user token-bucket
  rate limiting, API-token auth;
- :mod:`repro.api.resources` — per-resource route modules (projects,
  data, jobs, tuner, fleet, monitor, serving);
- :mod:`repro.api.gateway` — the dispatch core + response envelope;
- :mod:`repro.api.openapi` — the generated OpenAPI document
  (``GET /v1/openapi.json``) and markdown reference;
- :mod:`repro.api.http` — real socket serving on a ``socketserver``
  accept loop with reused handler threads, the HTTP/1.1 head codec of
  :mod:`repro.utils.http1` and chunked job-log streaming.

``ApiGateway.handle(method, "/v1/...", body, user=... | token=...)`` is
the platform's one programmatic surface, in process and over sockets;
the Python SDK lives in :mod:`repro.client`.
"""

from repro.api.errors import (
    ApiError,
    AuthError,
    NotFoundError,
    RateLimitedError,
)
from repro.api.gateway import ApiGateway, build_router
from repro.api.http import GatewayHTTPServer, serve_http
from repro.api.openapi import build_openapi, render_markdown
from repro.api.router import Route, Router
from repro.api.schemas import Field, Schema

__all__ = [
    "ApiError",
    "AuthError",
    "NotFoundError",
    "RateLimitedError",
    "ApiGateway",
    "build_router",
    "GatewayHTTPServer",
    "serve_http",
    "build_openapi",
    "render_markdown",
    "Route",
    "Router",
    "Field",
    "Schema",
]
