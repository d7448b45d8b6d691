"""Declarative routes dispatched via a path-segment trie.

Each resource module registers :class:`Route` objects — method, versioned
path template, typed request schema, response description, auth level —
and the :class:`Router` inserts every template into one segment trie.
Dispatch walks the trie once per request: O(path depth), independent of
the number of routes.

Path templates use ``{name}`` (string segment) and ``{name:int}``
(decimal segment, converted) placeholders::

    /v1/projects/{pid:int}/jobs/{jid:int}
    /v1/fleet/devices/{did}/classify
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.api.errors import NotFoundError
from repro.api.schemas import EMPTY, Schema


def _parse_segment(segment: str) -> tuple[str, str] | None:
    """``"{pid:int}"`` -> ``("pid", "int")``; literals return None."""
    if segment.startswith("{") and segment.endswith("}"):
        name, _, conv = segment[1:-1].partition(":")
        return name, (conv or "str")
    return None


@dataclass
class Route:
    """One declared endpoint."""

    method: str
    path: str
    handler: Callable
    name: str  # OpenAPI operationId — unique across the table
    summary: str = ""
    tag: str = "misc"
    auth: str = "user"  # "public" | "user" (API token required over HTTP)
    request: Schema = field(default=EMPTY)
    response: dict = field(default_factory=dict)
    stream: bool = False  # handler returns an iterator (chunked over HTTP)
    paginated: bool = False
    # Scope enforcement: None means "infer from the verb" (non-GET
    # mutates); POSTs that are pure compute (classify, test, profile)
    # override with False so read-scoped tokens may call them.
    mutating: bool | None = None
    # >0 opts a GET into the HTTP response cache (ETag + TTL) for that
    # many seconds.  Only for routes whose payload tolerates staleness.
    cache_ttl_s: float = 0.0

    def is_mutating(self) -> bool:
        if self.mutating is not None:
            return self.mutating
        return self.method != "GET"

    def param_specs(self) -> tuple[tuple[str, str], ...]:
        """Ordered ``(name, converter)`` pairs from the path template."""
        return tuple(
            parsed
            for segment in self.path.split("/")
            if (parsed := _parse_segment(segment))
        )


class _Node:
    __slots__ = ("children", "param", "methods")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.param: tuple[str, str, _Node] | None = None  # (name, conv, node)
        self.methods: dict[str, Route] = {}


class Router:
    """Segment-trie dispatcher over the full route table.

    Templates are inserted into a trie keyed by path segment; a request
    walks it once, so the cost scales with path depth, not with the
    number of routes.  At each node a literal child is tried before the
    placeholder, and a branch only answers on a full match — so a
    literal like ``jobs/autotune`` shadowing ``jobs/{jid:int}`` falls
    back to the placeholder when the rest of the path does not fit.
    """

    def __init__(self):
        self.routes: list[Route] = []
        self._root = _Node()
        self._names: set[str] = set()

    def add(self, route: Route) -> Route:
        if route.name in self._names:
            raise ValueError(f"duplicate operation id {route.name!r}")
        node = self._root
        for segment in route.path.strip("/").split("/"):
            parsed = _parse_segment(segment)
            if parsed is None:
                node = node.children.setdefault(segment, _Node())
            else:
                name, conv = parsed
                if node.param is None:
                    node.param = (name, conv, _Node())
                elif node.param[:2] != (name, conv):
                    raise ValueError(
                        f"conflicting placeholders at {route.path!r}: "
                        f"{node.param[:2]} vs {(name, conv)}"
                    )
                node = node.param[2]
        if route.method in node.methods:
            raise ValueError(f"duplicate route {route.method} {route.path}")
        node.methods[route.method] = route
        self._names.add(route.name)
        self.routes.append(route)
        return route

    def resolve(self, method: str, path: str,
                segments: list[str] | None = None) -> tuple[Route, dict]:
        """Match one request; raises :class:`NotFoundError` (404,
        ``no route METHOD PATH``) on a miss.

        ``segments`` lets a front end supply the pre-split path — the
        HTTP layer splits *before* percent-decoding each segment, so an
        encoded ``/`` inside a placeholder value cannot change the
        route shape (``path`` is then only used for error messages)."""
        if segments is None:
            # A relative path has no segments, and the root holds no route.
            segments = path[1:].split("/") if path.startswith("/") else []
        found = self._walk(self._root, method, segments, 0, ())
        if found is None:
            raise NotFoundError(f"no route {method} {path}")
        return found

    def _walk(self, node: _Node, method: str, segments: list[str],
              depth: int, params: tuple) -> tuple[Route, dict] | None:
        """Match ``segments[depth:]`` below ``node``; None on a miss, so
        the caller can fall through to its next branch."""
        if depth == len(segments):
            route = node.methods.get(method)
            return None if route is None else (route, dict(params))
        segment = segments[depth]
        child = node.children.get(segment)
        if child is not None:
            found = self._walk(child, method, segments, depth + 1, params)
            if found is not None:
                return found
        if node.param is None:
            return None
        name, conv, child = node.param
        if conv == "int":
            # isdecimal(), not isdigit(): superscripts pass isdigit()
            # but crash int() — they must be a 404, not a ValueError.
            if not segment.isdecimal():
                return None
            value = int(segment)
        elif segment:
            value = segment
        else:
            return None
        return self._walk(child, method, segments, depth + 1,
                          params + ((name, value),))
