"""Declarative request schemas: validated before any handler runs.

Each :class:`Route` carries a :class:`Schema` describing its request body
(POST/PUT) or query parameters (GET).  Validation coerces types (query
strings arrive as strings over HTTP), applies defaults, enforces
required keys, clamps bounded values (pagination caps), and rejects
malformed input with a 400 — so handlers only ever see well-typed
bodies.  The same declarations render into the OpenAPI document.

Error messages keep the wording of the pre-gateway helpers
(``missing required body key(s): ...``, ``<key> must be int-like: ...``)
so existing clients and tests see identical diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.api.errors import ApiError

#: Sentinel: "field has no default — leave it absent when not supplied".
MISSING = object()

_OPENAPI_TYPES = {
    "int": "integer",
    "float": "number",
    "str": "string",
    "bool": "boolean",
    "list": "array",
    "dict": "object",
    "any": "object",
}


@dataclass(frozen=True)
class Field:
    """One declared request field."""

    name: str
    type: str = "any"  # int | float | str | bool | list | dict | any
    required: bool = False
    default: object = MISSING
    minimum: float | None = None
    maximum: float | None = None
    clamp: bool = False  # clamp into [minimum, maximum] instead of 400
    enum: tuple | None = None
    doc: str = ""

    def coerce(self, value):
        """Coerce ``value`` to this field's type or raise a 400."""
        if value is None:
            return None  # "absent" semantics (e.g. wait_s=None: no poll)
        kind = self.type
        try:
            if kind == "int":
                value = int(value)
            elif kind == "float":
                value = float(value)
            elif kind == "str":
                value = str(value)
            elif kind == "bool":
                if isinstance(value, str):
                    lowered = value.strip().lower()
                    if lowered in ("1", "true", "yes", "on"):
                        value = True
                    elif lowered in ("0", "false", "no", "off", ""):
                        value = False
                    else:
                        raise ValueError(f"{value!r} is not a boolean")
                else:
                    value = bool(value)
            elif kind == "list":
                if not isinstance(value, (list, tuple)):
                    raise TypeError(f"{type(value).__name__} is not a list")
                value = list(value)
            elif kind == "dict":
                if not isinstance(value, dict):
                    raise TypeError(f"{type(value).__name__} is not an object")
        except (TypeError, ValueError) as exc:
            raise ApiError(
                400, f"{self.name} must be {kind}-like: {exc}"
            ) from None
        if kind == "float" and not math.isfinite(value):
            # NaN passes every bound check and inf outlasts every cap.
            raise ApiError(400, f"{self.name} must be a finite number")
        if self.enum is not None and value not in self.enum:
            raise ApiError(
                400,
                f"{self.name} must be one of "
                f"{', '.join(map(str, self.enum))} (got {value!r})",
            )
        if self.minimum is not None and value is not None and value < self.minimum:
            if not self.clamp:
                raise ApiError(400, f"{self.name} must be >= {self.minimum}")
            value = type(value)(self.minimum)
        if self.maximum is not None and value is not None and value > self.maximum:
            if not self.clamp:
                raise ApiError(400, f"{self.name} must be <= {self.maximum}")
            value = type(value)(self.maximum)
        return value

    def to_openapi(self) -> dict:
        spec: dict = {"type": _OPENAPI_TYPES[self.type]}
        if self.doc:
            spec["description"] = self.doc
        if self.default is not MISSING and self.default is not None:
            spec["default"] = self.default
        if self.enum is not None:
            spec["enum"] = list(self.enum)
        if self.minimum is not None:
            spec["minimum"] = self.minimum
        if self.maximum is not None:
            spec["maximum"] = self.maximum
        return spec


class Schema:
    """An ordered set of declared fields.

    Undeclared keys pass through untouched — handlers with deep,
    structure-dependent bodies (impulse specs, search spaces, policy
    updates) validate those themselves and the schema documents them via
    ``extra_doc``.
    """

    def __init__(self, *fields: Field, extra_doc: str = ""):
        self.fields = tuple(fields)
        self.extra_doc = extra_doc
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate schema field in {names}")

    def validate(self, body: dict | None) -> dict:
        """Return a coerced + defaulted copy of ``body`` (400 on bad input)."""
        body = dict(body or {})
        missing = [f.name for f in self.fields if f.required and f.name not in body]
        if missing:
            raise ApiError(
                400, f"missing required body key(s): {', '.join(missing)}"
            )
        for f in self.fields:
            if f.name in body:
                body[f.name] = f.coerce(body[f.name])
            elif f.default is not MISSING:
                body[f.name] = f.default
        return body

    def to_openapi(self) -> dict:
        spec: dict = {
            "type": "object",
            "properties": {f.name: f.to_openapi() for f in self.fields},
        }
        required = [f.name for f in self.fields if f.required]
        if required:
            spec["required"] = required
        if self.extra_doc:
            spec["description"] = self.extra_doc
        if not self.fields:
            spec["additionalProperties"] = True
        return spec


#: Shared empty schema for routes without declared inputs.
EMPTY = Schema()

#: The standard pagination pair: bounded page size, non-negative offset.
PAGINATION = (
    Field("limit", "int", minimum=1, maximum=200, clamp=True,
          doc="page size (default 50, capped at 200)"),
    Field("offset", "int", minimum=0, clamp=True,
          doc="items to skip from the start of the collection"),
)

#: The page size applied when a caller does not pass ``limit``.
DEFAULT_PAGE_SIZE = 50


def paginate(ctx, items: list) -> tuple[list, dict]:
    """Slice ``items`` by the validated ``limit``/``offset`` and return
    the page plus the ``total``/``limit``/``offset`` metadata paginated
    listings carry.

    A caller that omits ``limit`` gets :data:`DEFAULT_PAGE_SIZE`.
    """
    limit = ctx.body.get("limit")
    offset = ctx.body.get("offset") or 0
    if limit is None:
        limit = DEFAULT_PAGE_SIZE
    return items[offset:offset + limit], {
        "total": len(items),
        "limit": limit,
        "offset": offset,
    }
