"""OpenAPI 3 generation from the route table (and the docs renderer).

The same :class:`Route` declarations that drive dispatch produce the
machine-readable spec served at ``GET /v1/openapi.json`` and the
``docs/api.md`` endpoint reference (``scripts/generate_openapi.py``):
one path per operation, unique ``operationId`` per route.
"""

from __future__ import annotations

import re

from repro.api.router import Route, Router

_PLACEHOLDER = re.compile(r"\{(\w+)(?::(\w+))?\}")

_ENVELOPE_SCHEMA = {
    "type": "object",
    "description": "Every JSON response nests the handler payload under "
                   "`data`, so payload keys can never collide with the "
                   "envelope's `status`/`error`.",
    "properties": {
        "status": {"type": "integer", "description": "HTTP-like status"},
        "data": {"type": "object", "description": "handler payload"},
        "error": {"type": "string", "description": "set on failures"},
        "retry_after_s": {"type": "number",
                          "description": "set on 429 and 503 responses"},
    },
    "required": ["status"],
}


def _openapi_path(template: str) -> str:
    """``/v1/projects/{pid:int}`` -> ``/v1/projects/{pid}``."""
    return _PLACEHOLDER.sub(lambda m: "{%s}" % m.group(1), template)


def _path_parameters(route: Route) -> list[dict]:
    return [
        {
            "name": name,
            "in": "path",
            "required": True,
            "schema": {"type": "integer" if conv == "int" else "string"},
        }
        for name, conv in route.param_specs()
    ]


def _operation(route: Route) -> dict:
    op: dict = {
        "operationId": route.name,
        "summary": route.summary or route.name,
        "tags": [route.tag],
        "parameters": _path_parameters(route),
    }
    fields = route.request.fields
    if route.method == "GET":
        op["parameters"] += [
            {"name": f.name, "in": "query", "required": f.required,
             "schema": f.to_openapi()}
            for f in fields
        ]
    elif fields or route.request.extra_doc:
        op["requestBody"] = {
            "required": any(f.required for f in fields),
            "content": {
                "application/json": {"schema": route.request.to_openapi()}
            },
        }
    description = route.response.get("description", "OK")
    if route.response.get("fields"):
        description += (
            " — data keys: " + ", ".join(route.response["fields"])
        )
    if route.stream:
        op["responses"] = {
            "200": {
                "description": description,
                "content": {"text/plain": {"schema": {"type": "string"}}},
            }
        }
    else:
        op["responses"] = {
            "200": {
                "description": description,
                "content": {
                    "application/json": {
                        "schema": {"$ref": "#/components/schemas/Envelope"}
                    }
                },
            }
        }
    if route.auth != "public":
        op["security"] = [{"bearerAuth": []}]
    return op


def build_openapi(router: Router, title: str = "repro API",
                  version: str = "1.0.0") -> dict:
    paths: dict[str, dict] = {}
    for route in router.routes:
        path = _openapi_path(route.path)
        paths.setdefault(path, {})[route.method.lower()] = _operation(route)
    return {
        "openapi": "3.0.3",
        "info": {
            "title": title,
            "version": version,
            "description": (
                "Programmatic access to the full TinyML MLOps lifecycle "
                "(paper Sec. 4.9): data, impulses, training jobs, tuner "
                "searches, deployment, fleet rollouts, serving and "
                "monitoring."
            ),
        },
        "paths": dict(sorted(paths.items())),
        "components": {
            "schemas": {"Envelope": _ENVELOPE_SCHEMA},
            "securitySchemes": {
                "bearerAuth": {
                    "type": "http",
                    "scheme": "bearer",
                    "description": "API token from Platform.issue_token() "
                                   "(printed by `repro-cli serve --http`).",
                }
            },
        },
    }


def render_markdown(router: Router) -> str:
    """The ``docs/api.md`` endpoint reference, generated from the route
    table so it can never drift from dispatch."""
    lines = [
        "# HTTP API reference (v1)",
        "",
        "> Generated by `scripts/generate_openapi.py` from the route table",
        "> in `src/repro/api/resources/` — do not edit by hand.",
        "",
        "All endpoints return the JSON envelope `{\"status\": int, \"data\":"
        " {...}}` (or `{\"status\": int, \"error\": \"...\"}`; 429s and"
        " 503s add `retry_after_s`, also sent as `Retry-After`).  Routes"
        " marked **auth** require an API token"
        " (`Authorization: Bearer <token>`) over HTTP.  Paginated listings"
        " accept `limit` (default 50, max 200) and `offset`, and return"
        " `total`.",
        "",
    ]
    by_tag: dict[str, list[Route]] = {}
    for route in router.routes:
        by_tag.setdefault(route.tag, []).append(route)
    for tag, routes in by_tag.items():
        lines += [f"## {tag}", ""]
        for route in routes:
            flags = []
            if route.auth != "public":
                flags.append("auth")
            if route.stream:
                flags.append("stream")
            if route.paginated:
                flags.append("paginated")
            suffix = f" *({', '.join(flags)})*" if flags else ""
            lines.append(
                f"### `{route.method} {_openapi_path(route.path)}`{suffix}"
            )
            lines.append("")
            lines.append(route.summary or route.name)
            lines.append("")
            if route.request.fields:
                lines.append("| field | type | default | description |")
                lines.append("|---|---|---|---|")
                for f in route.request.fields:
                    from repro.api.schemas import MISSING

                    default = ("required" if f.required
                               else "—" if f.default is MISSING
                               else repr(f.default))
                    doc = f.doc or (f"one of {', '.join(map(str, f.enum))}"
                                    if f.enum else "")
                    lines.append(f"| `{f.name}` | {f.type} | {default} "
                                 f"| {doc} |")
                lines.append("")
            if route.response.get("fields"):
                lines.append(
                    "Response data keys: "
                    + ", ".join(f"`{k}`" for k in route.response["fields"])
                    + "."
                )
                lines.append("")
    return "\n".join(lines) + "\n"
