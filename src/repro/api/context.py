"""Per-request context handed through the middleware chain to handlers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Request:
    """One in-flight request.

    ``body`` starts as the raw caller dict and is replaced by the
    schema-validated (coerced + defaulted) copy before the handler runs.
    ``params`` holds the typed path parameters from the router.
    """

    method: str
    path: str
    body: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    user: str | None = None
    token: str | None = None
    # Authorization scope of the resolved credential.  Trusted in-process
    # callers (user= passed explicitly) are operator; token callers get
    # the scope the token was issued with.
    scope: str = "operator"
    platform: Any = None
    gateway: Any = None
    route: Any = None
