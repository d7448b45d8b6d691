"""Gateway meta-surface: the OpenAPI document and request metrics."""

from __future__ import annotations

from repro.api.router import Route
from repro.api.schemas import Schema


def openapi_doc(ctx) -> dict:
    from repro.api.openapi import build_openapi

    return build_openapi(ctx.gateway.router)


def gateway_stats(ctx) -> dict:
    stats = ctx.gateway.metrics.snapshot()
    stats["rate_limited"] = ctx.gateway.rate_limit.rejected
    stats["response_cache"] = ctx.gateway.response_cache.snapshot()
    return stats


def register(router) -> None:
    router.add(Route(
        "GET", "/v1/openapi.json", openapi_doc, name="openapi", tag="meta",
        summary="The generated OpenAPI 3 document for this gateway",
        auth="public", cache_ttl_s=30.0,
        request=Schema(),
        response={"description": "OpenAPI 3.0 document"},
    ))
    router.add(Route(
        "GET", "/v1/gateway/stats", gateway_stats, name="gatewayStats",
        tag="meta", summary="Per-route request counters and latency",
        auth="public",
        request=Schema(),
        response={"description": "Request metrics",
                  "fields": ("requests", "errors", "by_status", "routes",
                             "rate_limited", "response_cache")},
    ))
