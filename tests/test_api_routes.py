"""Route-table exhaustiveness: every route has a schema, a response
description and a unique operationId, and appears in the generated
OpenAPI document.  (Resolution of every route through the trie is in
test_api_gateway.py.)"""

from __future__ import annotations

import pytest

from repro.api import build_openapi, build_router, serve_http
from repro.api.schemas import Schema
from repro.client import Client, ClientError
from repro.core import Platform


def test_every_route_is_fully_declared():
    router = build_router()
    names = set()
    for route in router.routes:
        assert isinstance(route.request, Schema), route.name
        assert route.response.get("description"), route.name
        assert route.summary, route.name
        assert route.name not in names, f"duplicate operationId {route.name}"
        names.add(route.name)
        assert route.auth in ("public", "user"), route.name
        assert route.tag, route.name


def test_every_route_appears_in_openapi():
    router = build_router()
    doc = build_openapi(router)
    op_ids = {
        op["operationId"]
        for operations in doc["paths"].values()
        for op in operations.values()
    }
    assert op_ids == {r.name for r in router.routes}


def test_unknown_job_still_404_through_both_surfaces():
    """The typed ``UnknownJobError`` -> 404 mapping answers the same
    status and message in process and over a socket."""
    plat = Platform()
    plat.register_user("alice")
    pid = plat.create_project("p", owner="alice").project_id
    assert plat.gateway.handle("GET", f"/v1/projects/{pid}/jobs/99",
                               user="alice") == {"status": 404,
                                                 "error": "no job 99"}
    server = serve_http(plat.gateway, port=0, background=True)
    try:
        with Client(server.url, token=plat.issue_token("alice")) as client, \
                pytest.raises(ClientError) as err:
            client.job(pid, 99)
        assert (err.value.status, err.value.message) == (404, "no job 99")
    finally:
        server.shutdown()
        server.server_close()
