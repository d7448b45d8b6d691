"""Per-resource route modules for the v1 gateway.

Each module exposes ``register(router)`` adding its :class:`Route`
declarations; :func:`register_all` builds the full table.  Handlers are
plain functions taking the request context (validated body, typed path
params, resolved user, platform) — the gateway owns routing, schema
validation, auth, rate limiting and the response envelope.
"""

from __future__ import annotations

from repro.api.resources import (
    fleet,
    jobs,
    meta,
    monitor,
    projects,
    serving,
    tokens,
    tuner,
)

#: Import order fixes route-table order (and the benchmark's scan depth).
MODULES = (projects, jobs, tuner, fleet, monitor, serving, tokens, meta)


def register_all(router) -> None:
    for module in MODULES:
        module.register(router)
