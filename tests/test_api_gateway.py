"""API Gateway v1: router, schemas, middleware, envelope, pagination."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api import ApiGateway, build_router
from repro.api.errors import ApiError, NotFoundError
from repro.api.middleware import TokenBucket
from repro.api.schemas import Field, Schema
from repro.core import Platform


@pytest.fixture()
def platform():
    plat = Platform()
    plat.register_user("alice")
    return plat


@pytest.fixture()
def gw(platform):
    return platform.gateway


# -- router ------------------------------------------------------------------


def test_trie_resolves_typed_params():
    router = build_router()
    route, params = router.resolve("GET", "/v1/projects/7/jobs/12")
    assert route.name == "jobStatus"
    assert params == {"pid": 7, "jid": 12}
    route, params = router.resolve("POST", "/v1/fleet/devices/dev-a/classify")
    assert route.name == "deviceClassify"
    assert params == {"did": "dev-a"}


def test_trie_literal_beats_placeholder():
    router = build_router()
    route, params = router.resolve("POST", "/v1/projects/1/jobs/autotune")
    assert route.name == "autotune" and params == {"pid": 1}
    route, params = router.resolve("GET", "/v1/projects/1/jobs/7")
    assert route.name == "jobStatus" and params == {"pid": 1, "jid": 7}
    # The literal sibling only answers its own method: a GET falls
    # through to {jid:int}, which "autotune" does not satisfy.
    with pytest.raises(NotFoundError):
        router.resolve("GET", "/v1/projects/1/jobs/autotune")
    # Non-digit segment at an int placeholder is a miss, not a str match.
    with pytest.raises(NotFoundError):
        router.resolve("GET", "/v1/projects/abc")


def test_trie_misses():
    router = build_router()
    for method, path in (
        ("GET", "/v1/nonsense"),
        ("DELETE", "/v1/projects"),          # wrong method
        ("GET", "/v1/projects/1/jobs/2/x"),  # too deep
        ("GET", "/v1/projects/1/"),          # trailing slash
        ("GET", "v1/projects"),              # not absolute
        ("GET", "/v1/projects/\u00b2"),      # isdigit() but not int()-able
        ("GET", "/v1/projects/-1"),
        ("GET", "/v1/projects//jobs"),       # empty int segment
        ("POST", "/v1/fleet/devices//classify"),  # empty str segment
        ("GET", "/v1"),                      # a prefix is not a route
        ("GET", "/"),
        ("GET", ""),
    ):
        with pytest.raises(NotFoundError) as err:
            router.resolve(method, path)
        assert str(err.value) == f"no route {method} {path}"
        if path.startswith("/"):
            with pytest.raises(NotFoundError):
                router.resolve(method, path, segments=path[1:].split("/"))


def _concrete(route) -> tuple[str, dict]:
    """A request path for ``route`` and the typed params it must yield."""
    segments, params = [], {}
    for segment in route.path.split("/"):
        if segment.startswith("{"):
            name, _, conv = segment[1:-1].partition(":")
            params[name] = 40 + len(params) if conv == "int" else "dev-0"
            segment = str(params[name])
        segments.append(segment)
    return "/".join(segments), params


def test_every_route_round_trips_through_the_trie():
    router = build_router()
    for route in router.routes:
        path, params = _concrete(route)
        for found, got in (
            router.resolve(route.method, path),
            router.resolve(route.method, path, segments=path[1:].split("/")),
        ):
            assert found is route, (route.method, path)
            assert got == params and list(got) == list(params), path


def test_segments_win_over_path():
    """Pre-split segments are matched as given: a slash inside one stays
    inside the placeholder value, and ``path`` only labels the miss."""
    router = build_router()
    route, params = router.resolve(
        "POST", "ignored", segments=["v1", "fleet", "devices", "a/b", "classify"])
    assert route.name == "deviceClassify" and params == {"did": "a/b"}
    with pytest.raises(NotFoundError, match="no route POST /shown"):
        router.resolve("POST", "/shown",
                       segments=["v1", "fleet", "devices", "a/classify"])


def test_trie_backtracks_from_literal_to_string_placeholder():
    from repro.api.router import Route, Router

    router = Router()
    for method, path, name in (
        ("GET", "/v1/fleet/devices/{did}", "getDevice"),
        ("POST", "/v1/fleet/devices/{did}/classify", "deviceClassify"),
        ("GET", "/v1/fleet/devices/all/versions", "allVersions"),
    ):
        router.add(Route(method, path, lambda ctx: {}, name=name))

    def resolve(method, path):
        route, params = router.resolve(method, path)
        return route.name, params

    assert resolve("GET", "/v1/fleet/devices/all/versions") == ("allVersions", {})
    # "all" matches the literal child first; when that branch has no
    # route for the rest of the path the walk retries it as a device id.
    assert resolve("GET", "/v1/fleet/devices/all") == ("getDevice", {"did": "all"})
    assert resolve("POST", "/v1/fleet/devices/all/classify") == (
        "deviceClassify", {"did": "all"})
    assert resolve("GET", "/v1/fleet/devices/d1") == ("getDevice", {"did": "d1"})
    for method, path in (("GET", "/v1/fleet/devices/d1/versions"),
                         ("GET", "/v1/fleet/devices/d1/classify"),
                         ("POST", "/v1/fleet/devices/all/versions")):
        with pytest.raises(NotFoundError):
            router.resolve(method, path)


def test_duplicate_operation_id_rejected():
    from repro.api.router import Route, Router

    router = Router()
    router.add(Route("GET", "/v1/a", lambda ctx: {}, name="op"))
    with pytest.raises(ValueError, match="duplicate operation id"):
        router.add(Route("GET", "/v1/b", lambda ctx: {}, name="op"))


def test_duplicate_route_and_conflicting_placeholders_rejected():
    from repro.api.router import Route, Router

    router = Router()
    router.add(Route("GET", "/v1/a/{x:int}", lambda ctx: {}, name="op"))
    with pytest.raises(ValueError, match="duplicate route GET /v1/a/"):
        router.add(Route("GET", "/v1/a/{x:int}", lambda ctx: {}, name="op2"))
    with pytest.raises(ValueError, match="conflicting placeholders"):
        router.add(Route("POST", "/v1/a/{x}", lambda ctx: {}, name="op3"))
    with pytest.raises(ValueError, match="conflicting placeholders"):
        router.add(Route("POST", "/v1/a/{y:int}", lambda ctx: {}, name="op4"))
    # A rejected route leaves the table as it was.
    assert [r.name for r in router.routes] == ["op"]
    assert router.resolve("GET", "/v1/a/5")[1] == {"x": 5}
    with pytest.raises(NotFoundError):
        router.resolve("POST", "/v1/a/5")


# -- schemas -----------------------------------------------------------------


def test_schema_required_and_coercion():
    schema = Schema(
        Field("n", "int", required=True),
        Field("ratio", "float", default=0.5),
        Field("mode", "str", enum=("a", "b")),
    )
    with pytest.raises(ApiError) as err:
        schema.validate({})
    assert err.value.status == 400
    assert "missing required body key(s): n" in str(err.value)
    body = schema.validate({"n": "42", "extra": object()})
    assert body["n"] == 42 and body["ratio"] == 0.5 and "extra" in body
    with pytest.raises(ApiError, match="n must be int-like"):
        schema.validate({"n": "many"})
    with pytest.raises(ApiError, match="mode must be one of"):
        schema.validate({"n": 1, "mode": "c"})


def test_schema_clamps_pagination():
    from repro.api.schemas import PAGINATION

    schema = Schema(*PAGINATION)
    assert schema.validate({"limit": 9999})["limit"] == 200
    assert schema.validate({"limit": 0})["limit"] == 1
    assert schema.validate({"offset": -3})["offset"] == 0
    # No eager default: paginate() applies the page size of 50.
    assert "limit" not in schema.validate({})


def test_schema_bool_coercion_from_query_strings():
    schema = Schema(Field("flag", "bool"))
    assert schema.validate({"flag": "true"})["flag"] is True
    assert schema.validate({"flag": "0"})["flag"] is False
    with pytest.raises(ApiError, match="flag must be bool-like"):
        schema.validate({"flag": "maybe"})


def test_malformed_query_number_is_400(gw):
    pid = gw.handle("POST", "/v1/projects", {"name": "p"},
                    user="alice")["data"]["project_id"]
    response = gw.handle("GET", f"/v1/projects/{pid}/jobs/1",
                         {"wait_s": "soon"}, user="alice")
    assert response["status"] == 400
    assert "wait_s" in response["error"]


# -- envelope ----------------------------------------------------------------


def test_v1_envelope_nests_payload_under_data(gw):
    created = gw.handle("POST", "/v1/projects", {"name": "env"}, user="alice")
    assert created["status"] == 200
    assert set(created) == {"status", "data"}
    assert created["data"]["name"] == "env"
    missing = gw.handle("GET", "/v1/projects/999", user="alice")
    assert missing == {"status": 404, "error": "no project 999"}


def test_envelope_makes_status_collision_impossible(gw, platform):
    """The PR 4 health-vs-status workaround is unnecessary under the v1
    envelope: a payload key named `status` would ride inside `data`."""
    pid = gw.handle("POST", "/v1/projects", {"name": "m"},
                    user="alice")["data"]["project_id"]
    snap = gw.handle("GET", f"/v1/projects/{pid}/monitor", user="alice")
    assert snap["status"] == 200
    assert snap["data"]["health"] == "baselining"


# -- error routing (the KeyError bugfix) -------------------------------------


def test_unknown_project_is_typed_404(gw):
    for method, path in (
        ("GET", "/v1/projects/999"),
        ("POST", "/v1/projects/999/data"),
        ("GET", "/v1/projects/999/jobs"),
    ):
        response = gw.handle(method, path,
                             {"payload_b64": ""} if method == "POST" else None,
                             user="alice")
        assert response["status"] == 404
        assert response["error"] == "no project 999"


def test_handler_keyerror_is_500_not_404(gw, monkeypatch):
    """Regression (satellite bugfix): a bare KeyError raised by a handler
    body used to masquerade as 'missing resource'; it must surface as a
    500 with the message in the envelope."""
    import repro.api.resources.projects as projects_resource

    def buggy(ctx):
        return {}["oops"]  # a genuine bug, not a missing resource

    monkeypatch.setattr(projects_resource.Impulse, "from_dict",
                        lambda spec: buggy(None))
    pid = gw.handle("POST", "/v1/projects", {"name": "p"},
                    user="alice")["data"]["project_id"]
    response = gw.handle("POST", f"/v1/projects/{pid}/impulse",
                         {"impulse": {}}, user="alice")
    # Impulse.from_dict's KeyError is caught by the handler's own
    # validation (it is part of spec parsing) -> 400, never 404.
    assert response["status"] == 400

    # A KeyError escaping the handler itself is a 500.
    def exploding_handler(ctx):
        raise KeyError("oops")

    monkeypatch.setitem(
        gw.router.resolve("GET", f"/v1/projects/{pid}/data/summary")[0].__dict__,
        "handler", exploding_handler,
    )
    response = gw.handle("GET", f"/v1/projects/{pid}/data/summary",
                         user="alice")
    assert response["status"] == 500
    assert "KeyError" in response["error"] and "oops" in response["error"]


# -- auth --------------------------------------------------------------------


def test_token_auth_over_untrusted_surface(gw, platform):
    pid = gw.handle("POST", "/v1/projects", {"name": "locked"},
                    user="alice")["data"]["project_id"]
    # No token, protected route -> 401.
    assert gw.handle("GET", f"/v1/projects/{pid}")["status"] == 401
    # Invalid token -> 401 (even on public routes).
    assert gw.handle("GET", "/v1/projects",
                     token="ei_bogus")["status"] == 401
    # Public route without a token is fine.
    assert gw.handle("GET", "/v1/projects")["status"] == 200
    # A real token resolves to its user.
    token = platform.issue_token("alice")
    assert gw.handle("GET", f"/v1/projects/{pid}",
                     token=token)["status"] == 200
    # Membership still enforced after token auth.
    platform.register_user("eve")
    eve = platform.issue_token("eve")
    assert gw.handle("GET", f"/v1/projects/{pid}", token=eve)["status"] == 403
    # Revocation takes effect immediately.
    assert platform.revoke_token(token)
    assert gw.handle("GET", f"/v1/projects/{pid}",
                     token=token)["status"] == 401


def test_invalid_tokens_do_not_mint_rate_buckets_or_telemetry(gw, platform):
    """Auth runs before rate limiting and telemetry emission: an
    attacker rotating bogus tokens (or iterating project ids
    anonymously) gets 401s without growing the bucket map or minting
    per-project telemetry rings."""
    for i in range(10):
        assert gw.handle("GET", f"/v1/projects/{i + 100}",
                         token=f"ei_bogus{i}")["status"] == 401
        assert gw.handle("GET", f"/v1/projects/{i + 100}")["status"] == 401
    assert gw.rate_limit.bucket._buckets == {}
    assert platform.monitor.telemetry.project_ids() == []


def test_rate_bucket_map_is_bounded():
    bucket = TokenBucket(capacity=5, refill_per_s=1.0, max_keys=8)
    for i in range(40):
        bucket.acquire(f"user-{i}")
    assert len(bucket._buckets) <= 8


# -- rate limiting -----------------------------------------------------------


def test_token_bucket_refills():
    bucket = TokenBucket(capacity=2, refill_per_s=1000.0)
    assert bucket.acquire("u") is None
    assert bucket.acquire("u") is None
    retry = bucket.acquire("u")
    if retry is not None:  # tiny refill may already have landed
        assert retry > 0
    # Keys are independent.
    assert bucket.acquire("other") is None


def test_rate_limited_request_is_429_with_hint(platform):
    gw = ApiGateway(platform, rate_limit_capacity=3,
                    rate_limit_refill_per_s=0.001)
    statuses = [gw.handle("GET", "/v1/projects", user="alice")["status"]
                for _ in range(6)]
    assert statuses[:3] == [200, 200, 200]
    assert statuses[3:] == [429, 429, 429]
    response = gw.handle("GET", "/v1/projects", user="alice")
    assert response["status"] == 429
    assert response["retry_after_s"] > 0
    assert "rate limit exceeded" in response["error"]
    # Other users have their own bucket.
    platform.register_user("bob")
    assert gw.handle("GET", "/v1/projects", user="bob")["status"] == 200


@pytest.mark.parametrize("credential", ["user", "token"])
def test_every_caller_runs_the_whole_chain(platform, credential):
    """A trusted in-process ``user=`` caller is rate-limited, counted
    and feeds the project's request outcomes exactly like a ``token=``
    caller."""
    gw = ApiGateway(platform, rate_limit_capacity=3,
                    rate_limit_refill_per_s=0.001)
    pid = platform.create_project("metered", owner="alice").project_id
    caller = ({"user": "alice"} if credential == "user"
              else {"token": platform.issue_token("alice")})
    responses = [gw.handle("GET", f"/v1/projects/{pid}", **caller)
                 for _ in range(5)]
    assert [r["status"] for r in responses] == [200, 200, 200, 429, 429]
    assert all(r["retry_after_s"] > 0 and "'alice'" in r["error"]
               for r in responses[3:])
    stats = gw.metrics.snapshot()
    assert stats["requests"] == 5 and stats["errors"] == 2
    assert stats["by_status"] == {"200": 3, "429": 2}
    assert stats["routes"]["getProject"]["requests"] == 5
    assert gw.rate_limit.rejected == 2
    summary = platform.monitor.telemetry.summary(pid)
    assert summary["gateway_requests"] == 5
    assert summary["gateway_error_rate"] == 2 / 5  # the two 429s
    assert len(platform.monitor.telemetry.recent(pid)) == 0  # no rows


def test_rate_limit_multithread_hammer(platform):
    """N threads hammering one user: allowed requests stay within the
    bucket's capacity budget, every rejection is a 429 with a positive
    retry hint, and nothing errors out."""
    capacity, threads, per_thread = 40, 8, 20
    gw = ApiGateway(platform, rate_limit_capacity=capacity,
                    rate_limit_refill_per_s=0.001)
    results: list[dict] = []
    lock = threading.Lock()

    def hammer():
        mine = [gw.handle("GET", "/v1/projects", user="alice")
                for _ in range(per_thread)]
        with lock:
            results.extend(mine)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # widen any unsynchronised read-modify-write
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)

    assert len(results) == threads * per_thread
    ok = [r for r in results if r["status"] == 200]
    limited = [r for r in results if r["status"] == 429]
    assert len(ok) + len(limited) == len(results)  # no other outcome
    # The bucket never hands out more than its capacity (plus the
    # negligible 0.001/s refill over the test's runtime).
    assert len(ok) == capacity
    assert all(r["retry_after_s"] > 0 for r in limited)
    stats = gw.metrics.snapshot()
    assert stats["requests"] == len(results)
    assert stats["by_status"]["429"] == len(limited)
    assert gw.rate_limit.rejected == len(limited)


@pytest.mark.parametrize("method, path, body, field", [
    ("GET", "/v1/projects/{pid}/jobs/1/logs", {"timeout_s": "nan"}, "timeout_s"),
    ("GET", "/v1/projects/{pid}/jobs/1", {"wait_s": "-inf"}, "wait_s"),
    ("POST", "/v1/fleet/rollout", {"project_id": "{pid}", "soak_s": float("inf")},
     "soak_s"),
    ("POST", "/v1/projects/{pid}/tuner", {"max_ram_kb": float("nan")},
     "max_ram_kb"),
])
def test_schema_floats_refuse_non_finite_values(gw, method, path, body, field):
    """NaN passes every ``minimum`` / ``maximum`` check and a clamp keeps
    it: ``timeout_s=nan`` would follow a log stream past its 600 s cap,
    ``soak_s=inf`` would soak forever and ``max_ram_kb=nan`` would switch
    a tuner constraint off.  Each is a 400 before the handler runs."""
    pid = gw.handle("POST", "/v1/projects", {"name": "f"},
                    user="alice")["data"]["project_id"]
    body = {k: pid if v == "{pid}" else v for k, v in body.items()}
    response = gw.handle(method, path.format(pid=pid), body, user="alice")
    assert response == {"status": 400,
                        "error": f"{field} must be a finite number"}


# -- metrics + telemetry -----------------------------------------------------


def test_gateway_stats_route(gw):
    gw.handle("GET", "/v1/projects", user="alice")
    gw.handle("GET", "/v1/projects/999", user="alice")  # 404
    stats = gw.handle("GET", "/v1/gateway/stats")["data"]
    assert stats["requests"] >= 2
    assert stats["errors"] >= 1
    assert stats["routes"]["listProjects"]["requests"] >= 1
    assert stats["routes"]["listProjects"]["mean_ms"] >= 0


def test_request_metrics_feed_monitor_telemetry(gw, platform):
    pid = gw.handle("POST", "/v1/projects", {"name": "t"},
                    user="alice")["data"]["project_id"]
    for _ in range(5):
        gw.handle("GET", f"/v1/projects/{pid}", user="alice")
    gw.handle("GET", f"/v1/projects/{pid}/jobs/999", user="alice")  # 404
    gw.handle("GET", f"/v1/projects/{pid}")  # anonymous: not counted
    # Request outcomes are visible in summaries...
    summary = platform.monitor.telemetry.summary(pid)
    assert summary["gateway_requests"] == 6
    assert summary["gateway_error_rate"] == 1 / 6
    # ...but are no telemetry rows: they never enter drift baselines,
    # evaluation windows, or the inference window at all (so request
    # floods cannot evict inference records either).
    assert len(platform.monitor.telemetry.recent(pid)) == 0
    platform.monitor.set_policy(pid, {"min_records": 1, "reference_size": 1})
    assert platform.monitor.set_reference(pid) == 0
    snap = platform.monitor.evaluate(pid)
    assert snap["health"] == "baselining"


def test_gateway_telemetry_cannot_starve_inference_window(gw, platform):
    """A request flood against a project leaves its inference telemetry
    ring untouched (the drift window survives API polling), and the
    request outcomes it keeps stay bounded at 1,024."""
    from repro.monitor import TelemetryRecord

    pid = gw.handle("POST", "/v1/projects", {"name": "flood"},
                    user="alice")["data"]["project_id"]
    platform.monitor.telemetry.extend([
        TelemetryRecord(pid, confidence=0.9, top="a") for _ in range(10)
    ])
    for _ in range(1100):
        gw.handle("GET", f"/v1/projects/{pid}", user="alice")
    inference = platform.monitor.telemetry.recent(pid)
    assert len(inference) == 10
    assert "gateway" not in set(inference.source)
    summary = platform.monitor.telemetry.summary(pid)
    assert summary["gateway_requests"] == 1024
    assert summary["records"] == 10
    platform.monitor.telemetry.clear(pid)
    assert platform.monitor.telemetry.summary(pid)["gateway_requests"] == 0


# -- streaming ---------------------------------------------------------------


def test_stream_route_shares_the_request_path(gw, platform):
    """``handle`` and ``open_stream`` run one preamble: a streaming route
    that fails auth or validation answers the same JSON error envelope
    from both, and on success they carry the same lines."""
    project = platform.create_project("logs", owner="alice")
    job = project.jobs.submit("chatty", lambda j: j.log("hello")).wait(5.0)
    path = f"/v1/projects/{project.project_id}/jobs/{job.job_id}/logs"

    for kwargs, status, needle in (
        ({}, 401, "authentication required"),
        ({"token": "ei_bogus"}, 401, "invalid API token"),
        ({"user": "alice", "body": {"log_offset": "x"}}, 400, "log_offset"),
        ({"user": "mallory"}, 403, ""),
    ):
        body = kwargs.pop("body", None)
        handled = gw.handle("GET", path, body, **kwargs)
        opened = gw.open_stream("GET", path, body, **kwargs)
        assert handled == opened, kwargs
        assert set(handled) == {"status", "error"}
        assert handled["status"] == status and needle in handled["error"]
    missing = f"/v1/projects/{project.project_id}/jobs/99/logs"
    assert (gw.open_stream("GET", missing, user="alice")
            == gw.handle("GET", missing, user="alice")
            == {"status": 404, "error": "no job 99"})
    assert gw.open_stream("GET", "/v1/nope") == {
        "status": 404, "error": "no route GET /v1/nope"}

    handled = gw.handle("GET", path, user="alice")
    lines = list(gw.open_stream("GET", path, user="alice"))
    assert handled == {"status": 200, "data": {"lines": lines}}
    assert "hello" in lines and lines[-1] == f"[job {job.job_id} succeeded]"

    # A non-streaming route is refused before its handler runs.
    before = len(platform.projects)
    refused = gw.open_stream("POST", "/v1/projects", {"name": "x"}, user="alice")
    assert refused == {"status": 400,
                       "error": "route createProject is not a stream"}
    assert len(platform.projects) == before


# -- pagination --------------------------------------------------------------


def test_pagination_on_projects_and_jobs(gw, platform):
    for i in range(7):
        pid = gw.handle("POST", "/v1/projects", {"name": f"p{i:02d}"},
                        user="alice")["data"]["project_id"]
        gw.handle("POST", f"/v1/projects/{pid}/public", {}, user="alice")
    page = gw.handle("GET", "/v1/projects", {"limit": 3}, user="alice")["data"]
    assert page["total"] == 7 and page["limit"] == 3 and page["offset"] == 0
    assert [p["name"] for p in page["projects"]] == ["p00", "p01", "p02"]
    tail = gw.handle("GET", "/v1/projects", {"limit": 3, "offset": 6},
                     user="alice")["data"]
    assert [p["name"] for p in tail["projects"]] == ["p06"]
    assert tail["total"] == 7

    # Jobs listing paginates the same way.
    project = platform.projects[pid]
    for i in range(5):
        project.jobs.submit(f"noop-{i}", lambda j: None).wait(5.0)
    jobs = gw.handle("GET", f"/v1/projects/{pid}/jobs",
                     {"limit": 2, "offset": 4}, user="alice")["data"]
    assert jobs["total"] == 5 and len(jobs["jobs"]) == 1


def test_listing_without_limit_is_one_default_page(gw, platform):
    pid = gw.handle("POST", "/v1/projects", {"name": "big"},
                    user="alice")["data"]["project_id"]
    project = platform.projects[pid]
    for i in range(60):
        project.jobs.submit(f"noop-{i}", lambda j: None)
    project.jobs.list_jobs()[-1].wait(5.0)
    page = gw.handle("GET", f"/v1/projects/{pid}/jobs", user="alice")["data"]
    assert page["total"] == 60 and len(page["jobs"]) == 50
    assert page["limit"] == 50 and page["offset"] == 0
    tail = gw.handle("GET", f"/v1/projects/{pid}/jobs",
                     {"offset": 58}, user="alice")["data"]
    assert len(tail["jobs"]) == 2 and tail["total"] == 60


def test_pagination_on_fleet_devices_and_alerts(gw, platform):
    from repro.device import VirtualDevice

    for i in range(6):
        platform.fleet.register(VirtualDevice(f"d{i}", "nano33ble"))
    page = gw.handle("GET", "/v1/fleet/devices", {"limit": 4},
                     user="alice")["data"]
    assert page["total"] == 6 and len(page["devices"]) == 4
    rest = gw.handle("GET", "/v1/fleet/devices", {"limit": 4, "offset": 4},
                     user="alice")["data"]
    assert len(rest["devices"]) == 2
    assert not set(page["devices"]) & set(rest["devices"])

    pid = gw.handle("POST", "/v1/projects", {"name": "a"},
                    user="alice")["data"]["project_id"]
    alerts = gw.handle("GET", f"/v1/projects/{pid}/monitor/alerts",
                       {"limit": 10}, user="alice")["data"]
    assert alerts == {"alerts": [], "total": 0, "limit": 10, "offset": 0}


# -- openapi -----------------------------------------------------------------


def test_openapi_served_and_valid(gw):
    import json

    doc = gw.handle("GET", "/v1/openapi.json")["data"]
    assert doc["openapi"].startswith("3.")
    assert json.loads(json.dumps(doc)) == doc
    ops = [
        op["operationId"]
        for operations in doc["paths"].values()
        for op in operations.values()
    ]
    assert len(ops) == len(set(ops)), "operationIds must be unique"
    assert "/v1/projects/{pid}/jobs/{jid}" in doc["paths"]
    # Security applies to authenticated routes only.
    assert "security" not in doc["paths"]["/v1/openapi.json"]["get"]
    assert doc["paths"]["/v1/projects"]["post"]["security"]
