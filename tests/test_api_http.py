"""Real HTTP serving + the repro.client SDK, end to end over sockets."""

from __future__ import annotations

import base64
import io
import json
import re
import socket
import statistics
import struct
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.api import ApiGateway, serve_http
from repro.client import Client, ClientError
from repro.core import Platform
from repro.dsp import extract_features
from repro.formats.wav import write_wav

IMPULSE_SPEC = {
    "input": {"type": "time-series", "window_size_ms": 1000,
              "window_increase_ms": 1000, "frequency_hz": 2000, "axes": 1},
    "dsp": [{"type": "mfe", "config": {"sample_rate": 2000, "n_filters": 16}}],
    "learn": {"type": "classification", "architecture": "conv1d_stack",
              "arch_kwargs": {"n_layers": 2, "first_filters": 8,
                              "last_filters": 16},
              "training": {"epochs": 25, "batch_size": 8,
                           "learning_rate": 3e-3, "seed": 0}},
}


def _wav_bytes(freq=440.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(2000) / 2000
    audio = np.sin(2 * np.pi * freq * t) + 0.1 * rng.standard_normal(2000)
    buf = io.BytesIO()
    write_wav(buf, audio.astype(np.float32) * 0.5, 2000)
    return buf.getvalue()


@pytest.fixture()
def server():
    platform = Platform()
    platform.register_user("alice")
    server = serve_http(platform.gateway, port=0, background=True)
    yield platform, server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def client(server):
    platform, srv = server
    with Client(srv.url, token=platform.issue_token("alice"),
                retries=1, backoff_s=0.05) as client:
        yield client


def test_full_lifecycle_over_http(server, client):
    """The acceptance flow, entirely over a real socket: create a
    project, upload data, train via job long-poll with streamed logs,
    and classify."""
    platform, _ = server
    pid = client.create_project("kws-over-http")["project_id"]
    assert platform.projects[pid].owner == "alice"

    for label, freq in (("low", 200.0), ("high", 800.0)):
        for i in range(14):
            response = client.upload_data(pid, _wav_bytes(freq, seed=i),
                                          label=label, fmt="wav")
            assert response["sample_id"]
    summary = client.request("GET", f"/v1/projects/{pid}/data/summary")
    assert set(summary["distribution"]) == {"low", "high"}

    shape = client.set_impulse(pid, IMPULSE_SPEC)["feature_shape"]
    assert all(d > 0 for d in shape)

    queued = client.train(pid, seed=0)
    assert queued["job_status"] in ("queued", "running")
    jid = queued["job_id"]

    # Follow the chunked log stream while the job runs.
    lines = list(client.stream_logs(pid, jid, timeout_s=60.0))
    assert lines[-1] == f"[job {jid} succeeded]"
    assert any("training" in line for line in lines)

    # Long-poll to the terminal snapshot (idempotent after the stream).
    job = client.wait_job(pid, jid, timeout_s=60.0)
    assert job["job_status"] == "succeeded"
    assert job["progress"] == 1.0

    # Classify one window and a batch through the serving layer.
    impulse = platform.projects[pid].impulse
    features = extract_features(impulse.dsp_blocks, impulse.input_block.windows(
        platform.projects[pid].dataset.samples()[0].data
    ))[0].tolist()
    single = client.classify(pid, features=features)
    assert single["top"] in ("low", "high")
    batch = client.classify(pid, batch=[features, features])
    assert batch["batch_size"] == 2

    # The jobs listing paginates over HTTP query strings.
    listing = client.list_jobs(pid, limit=1)
    assert listing["total"] >= 1 and len(listing["jobs"]) == 1

    stats = client.gateway_stats()
    assert stats["requests"] > 30
    assert stats["routes"]["uploadData"]["requests"] == 28


def test_openapi_and_auth_over_http(server):
    platform, srv = server
    # The OpenAPI doc is public.
    with Client(srv.url) as anonymous:
        doc = anonymous.openapi()
        assert doc["openapi"].startswith("3.")
        assert "/v1/projects" in doc["paths"]

        # Protected routes 401 without a token, 401 with a bad one.
        with pytest.raises(ClientError) as err:
            anonymous.create_project("nope")
        assert err.value.status == 401
    with Client(srv.url, token="ei_wrong") as bad:
        with pytest.raises(ClientError) as err:
            bad.list_projects()
        assert err.value.status == 401

    # HTTP status code mirrors the envelope status.
    request = urllib.request.Request(srv.url + "/v1/projects/999")
    request.add_header("Authorization",
                       f"Bearer {platform.issue_token('alice')}")
    with pytest.raises(urllib.error.HTTPError) as http_err:
        urllib.request.urlopen(request)
    assert http_err.value.code == 404
    envelope = json.loads(http_err.value.read())
    assert envelope == {"status": 404, "error": "no project 999"}


def test_http_malformed_requests(server, client):
    platform, srv = server
    # Non-JSON body -> 400 before dispatch.
    request = urllib.request.Request(
        srv.url + "/v1/users", data=b"not-json",
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request)
    assert err.value.code == 400
    assert "not JSON" in json.loads(err.value.read())["error"]

    # Unknown route -> enveloped 404 with the request path.
    with pytest.raises(ClientError) as cerr:
        client.request("GET", "/v1/nope")
    assert cerr.value.status == 404 and "/v1/nope" in cerr.value.message

    # Schema validation applies to query strings.
    pid = client.create_project("q")["project_id"]
    with pytest.raises(ClientError) as cerr:
        client.request("GET", f"/v1/projects/{pid}/jobs/1",
                       {"wait_s": "soon"})
    assert cerr.value.status == 400 and "wait_s" in cerr.value.message
    # ...and a non-finite float is a 400, not a bound-check bypass.
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ClientError) as cerr:
            client.request("GET", f"/v1/projects/{pid}/jobs/1/logs",
                           {"timeout_s": value})
        assert cerr.value.status == 400
        assert cerr.value.message == "timeout_s must be a finite number"


def test_encoded_slash_cannot_change_the_route_shape(server, client):
    """Segments are split before percent-decoding and a miss is final:
    ``a%2Fclassify`` is one (unroutable) segment, never ``a/classify``."""
    from repro.device import VirtualDevice

    platform, srv = server
    platform.fleet.register(VirtualDevice("dev a", "nano33ble"))
    body = {"data": np.zeros((16, 8)).tolist()}

    def refusal(method, raw_path, body=None):
        with pytest.raises(ClientError) as err:
            client.request(method, raw_path, body)
        return err.value.status, err.value.message

    # The message shows the decoded path; the route shape does not follow it.
    assert refusal("POST", "/v1/fleet/devices/a%2Fclassify", body) == (
        404, "no route POST /v1/fleet/devices/a/classify")
    assert refusal("GET", "/v1%2Fprojects") == (404, "no route GET /v1/projects")
    before = srv.gateway.metrics.requests
    # Other encoded characters still reach the placeholder, decoded:
    # device "dev a" is registered (an unknown id is a 404) but bare.
    assert refusal("POST", "/v1/fleet/devices/dev%20a/classify", body) == (
        409, "no firmware flashed")
    assert refusal("POST", "/v1/fleet/devices/dev%20b/classify", body) == (
        404, "unknown device 'dev b'")
    # An encoded slash inside a segment stays inside the device id.
    assert refusal("POST", "/v1/fleet/devices/a%2Fb/classify", body) == (
        404, "unknown device 'a/b'")
    assert srv.gateway.metrics.requests == before + 3


def test_rate_limit_over_http(server):
    platform, srv = server
    gw = ApiGateway(platform, rate_limit_capacity=4,
                    rate_limit_refill_per_s=0.001)
    limited_srv = serve_http(gw, port=0, background=True)
    client = Client(limited_srv.url, token=platform.issue_token("alice"),
                    retries=0)
    try:
        pid = client.create_project("limited")["project_id"]
        statuses = []
        for _ in range(8):
            try:
                # getProject is uncached, so every request reaches the
                # middleware chain (listProjects would be served from
                # the response cache past the first call).
                client.get_project(pid)
                statuses.append(200)
            except ClientError as exc:
                statuses.append(exc.status)
                if exc.status == 429:
                    assert exc.retry_after_s > 0
        assert statuses.count(200) == 3  # createProject spent 1 of 4
        assert statuses.count(429) == 5

        # Cached GETs, by contrast, are served straight from the
        # response cache once populated — the rate limiter only charges
        # the misses.  With the bucket exhausted the *first* call 429s
        # (a miss); refill one token, populate the cache, and repeats
        # fly free.
        with pytest.raises(ClientError) as cerr:
            client.list_projects()
        assert cerr.value.status == 429
        platform.projects[pid].make_public()  # so the index lists it
        gw.rate_limit.bucket._buckets["alice"] = (1.0, time.monotonic())
        for _ in range(3):
            assert client.list_projects()["total"] == 1
    finally:
        client.close()
        limited_srv.shutdown()
        limited_srv.server_close()


def test_client_retries_transport_errors(server):
    platform, srv = server
    client = Client("http://127.0.0.1:1", retries=2, backoff_s=0.01)
    with pytest.raises(ClientError) as err:
        client.list_projects()
    assert err.value.status == 599

    # 4xx never retries (the server would see repeated requests).
    with Client(srv.url, token=platform.issue_token("alice"), retries=3) as good:
        before = srv.gateway.metrics.requests
        with pytest.raises(ClientError):
            good.get_project(999)
        assert srv.gateway.metrics.requests == before + 1


def test_legacy_telemetry_push_equivalent_over_v1(server, client):
    """The device-push route works over the socket (project-scoped auth
    included)."""
    pid = client.create_project("tele")["project_id"]
    accepted = client.request("POST", "/v1/telemetry", {"records": [
        {"project_id": pid, "confidence": 0.9, "top": "a",
         "source": "field-1"},
    ]})
    assert accepted == {"accepted": 1}
    with pytest.raises(ClientError) as err:
        client.request("POST", "/v1/telemetry",
                       {"records": [{"project_id": 999}]})
    assert err.value.status == 404
    # ``json.dumps`` writes NaN as the bare token ``NaN``, which the
    # server's ``json.loads`` parses; the route refuses it.
    with pytest.raises(ClientError) as err:
        client.request("POST", "/v1/telemetry",
                       {"records": [{"project_id": pid, "latency_ms": float("nan")}]})
    assert err.value.status == 400


def test_base64_upload_roundtrip_over_http(server, client):
    """upload_data base64-encodes payloads; verify the raw route accepts
    the same encoding directly."""
    pid = client.create_project("raw")["project_id"]
    payload = base64.b64encode(_wav_bytes()).decode()
    response = client.request("POST", f"/v1/projects/{pid}/data",
                              {"payload_b64": payload, "label": "x",
                               "format": "wav"})
    assert response["sample_id"]
    platform, _ = server
    assert len(platform.projects[pid].dataset) == 1


# -- raw sockets: what the SDK's fresh-connection-per-request path hides ------


def _connect(srv) -> socket.socket:
    sock = socket.create_connection(srv.server_address[:2], timeout=3.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_reply(sock) -> tuple[int, bytes]:
    """One ``Content-Length``-framed reply; a timeout or an early close
    raises instead of returning."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection without a reply"
        buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = next(int(line.split(":")[1]) for line in lines
                  if line.lower().startswith("content-length:"))
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection mid-body"
        body += chunk
    return int(lines[0].split()[1]), body


def test_keepalive_replies_are_one_undelayed_send(server, monkeypatch):
    """ROADMAP 1(a): head and body used to leave as two unbuffered
    sends, so on a persistent connection the body waited out the
    client's delayed ACK (~40 ms per request)."""
    from repro.experiments.tasks import paper_scale_graphs

    platform, srv = server
    kws = paper_scale_graphs("kws")
    project = platform.create_project("kws", owner="alice")
    project.float_graph, project.int8_graph = kws.float_graph, kws.int8_graph
    project.label_map = {f"label-{i}": i for i in range(12)}

    nodelay = []
    handler = srv.RequestHandlerClass
    original_setup = handler.setup

    def setup(self):
        original_setup(self)
        nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(handler, "setup", setup)

    rng = np.random.default_rng(0)
    body = json.dumps({"features": rng.standard_normal(490).tolist(),
                       "precision": "int8"}).encode()
    request = (f"POST /v1/projects/{project.project_id}/classify HTTP/1.1\r\n"
               f"Host: test\r\nAuthorization: Bearer {platform.issue_token('alice')}\r\n"
               f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
               f"Connection: keep-alive\r\n\r\n").encode("ascii") + body
    latencies = []
    with _connect(srv) as sock:
        for _ in range(22):
            started = time.perf_counter()
            sock.sendall(request)  # head + body in one send: any stall is the server's
            status, reply = _read_reply(sock)
            latencies.append(time.perf_counter() - started)
            assert status == 200 and json.loads(reply)["data"]["top"].startswith("label-")
    assert statistics.median(latencies[2:]) < 0.025  # ~0.044 with the stall
    assert nodelay == [1]  # one accepted connection, Nagle off


def test_log_stream_still_arrives_line_by_line(server):
    """The buffered ``wfile`` must not hold chunks back: the head and
    every line are flushed as they are produced, then the terminator."""
    platform, srv = server
    project = platform.create_project("logs", owner="alice")
    gate = threading.Event()

    def chatty(job):
        job.log("one")
        gate.wait(10.0)
        job.log("two")

    job = project.jobs.submit("chatty", chatty)
    request = (f"GET /v1/projects/{project.project_id}/jobs/{job.job_id}/logs HTTP/1.1\r\n"
               f"Host: test\r\nAuthorization: Bearer {platform.issue_token('alice')}\r\n\r\n")
    try:
        with _connect(srv) as sock:
            sock.sendall(request.encode("ascii"))
            buf = b""
            while b"one\n" not in buf:  # times out if the chunk is held back
                buf += sock.recv(65536)
            assert b"Transfer-Encoding: chunked" in buf
            assert not job.done and b"two" not in buf
            gate.set()
            while not buf.endswith(b"0\r\n\r\n"):
                chunk = sock.recv(65536)
                assert chunk, "stream closed without its terminator"
                buf += chunk
    finally:
        gate.set()
    chunks = buf.partition(b"\r\n\r\n")[2].split(b"\r\n")
    sizes, lines = chunks[0:-3:2], chunks[1:-3:2]  # minus the 0-size terminator
    assert [int(size, 16) for size in sizes] == [len(line) for line in lines]
    lines = [line.decode() for line in lines]
    assert lines.index("one\n") < lines.index("two\n")
    assert lines[-1] == f"[job {job.job_id} succeeded]\n"


# -- the SDK's connection pool ------------------------------------------------


def _accepted_connections(srv, monkeypatch) -> list:
    """Client addresses of the connections the server accepts from now on."""
    accepted = []
    handler = srv.RequestHandlerClass
    original_setup = handler.setup

    def setup(self):
        original_setup(self)
        accepted.append(self.client_address)

    monkeypatch.setattr(handler, "setup", setup)
    return accepted


def test_sdk_calls_share_one_keepalive_connection(server, client, monkeypatch):
    """GETs, POSTs, a 4xx and a response-cache hit: 20 calls, 1 connect."""
    platform, srv = server
    accepted = _accepted_connections(srv, monkeypatch)
    cache = srv.gateway.response_cache
    pid = client.create_project("pooled")["project_id"]
    hits = cache.hits
    for _ in range(3):
        assert client.get_project(pid)["name"] == "pooled"
        with pytest.raises(ClientError) as err:
            client.get_project(999)
        assert err.value.status == 404
        client.list_projects()
        client.list_projects()  # within the TTL: served from the cache
        client.request("POST", "/v1/telemetry", {"records": [
            {"project_id": pid, "confidence": 0.5, "top": "a"}]})
        client.list_jobs(pid)
    assert client.gateway_stats()["requests"] > 0  # the 20th call
    assert cache.hits > hits
    assert len(accepted) == 1
    (conn,) = client._idle
    assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_a_4xx_reply_leaves_the_connection_pooled(server, client, monkeypatch):
    platform, srv = server
    accepted = _accepted_connections(srv, monkeypatch)
    client.list_projects()
    (conn,) = client._idle
    with pytest.raises(ClientError) as err:
        client.request("GET", "/v1/nope")
    assert err.value.status == 404
    assert client._idle == [conn]
    assert client.create_project("after-404")["project_id"]
    assert client._idle == [conn] and len(accepted) == 1


def test_a_connection_close_reply_is_not_pooled(server, client, monkeypatch):
    """The 413 path leaves the body unread and says ``Connection:
    close``; the SDK drops that connection instead of finding it dead
    on the next call."""
    import repro.api.http as http_module

    platform, srv = server
    accepted = _accepted_connections(srv, monkeypatch)
    client.list_projects()
    monkeypatch.setattr(http_module, "MAX_BODY_BYTES", 512)
    with pytest.raises(ClientError) as err:
        client.create_project("x" * 1024)
    assert err.value.status == 413
    assert client._idle == []
    monkeypatch.setattr(http_module, "MAX_BODY_BYTES", 64 * 1024 * 1024)
    before = srv.gateway.metrics.requests
    assert client.create_project("after-413")["project_id"]
    assert srv.gateway.metrics.requests == before + 1
    assert len(accepted) == 2


@pytest.mark.parametrize("n_threads", [2, 4])
def test_threads_sharing_a_client_get_their_own_connections(
        server, client, monkeypatch, n_threads):
    """Each thread checks out a connection of its own: every reply is the
    one its thread asked for, and no connection is opened beyond one per
    thread or lost from the pool."""
    import sys

    platform, srv = server
    names = [f"t{i}" for i in range(n_threads)]
    pids = [client.create_project(name)["project_id"] for name in names]
    accepted = _accepted_connections(srv, monkeypatch)
    client.close()
    barrier = threading.Barrier(n_threads)
    wrong, errors = [], []

    def worker(pid, name):
        try:
            barrier.wait(5.0)
            for _ in range(25):
                if client.get_project(pid)["name"] != name:
                    wrong.append(pid)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=args)
               for args in zip(pids, names)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
    assert 1 <= len(accepted) <= n_threads
    assert len(client._idle) == len(accepted)


def test_an_answered_post_is_never_re_sent(server, client, monkeypatch):
    """A reply cut short after its first bytes is a transport failure
    (599 with ``retries=0``), not a stale socket: the POST that the
    server ran is not sent again."""
    platform, srv = server
    handler = srv.RequestHandlerClass
    with Client(srv.url, token=platform.issue_token("alice"),
                retries=0) as once:
        once.list_projects()  # the POST below goes out on a reused connection

        def truncated(self, envelope, close=False):
            data = json.dumps(envelope).encode("utf-8")
            self._send(int(envelope["status"]),
                       f"Content-Length: {len(data) + 10}\r\n", data, close=True)

        monkeypatch.setattr(handler, "_send_json", truncated)
        before, projects = srv.gateway.metrics.requests, len(platform.projects)
        with pytest.raises(ClientError) as err:
            once.create_project("once")
        assert err.value.status == 599
        assert srv.gateway.metrics.requests == before + 1
        assert len(platform.projects) == projects + 1
        assert once._idle == []


def test_a_connection_the_server_dropped_while_idle_is_replaced(
        server, monkeypatch):
    """Past ``KEEPALIVE_IDLE_S`` the gateway hangs up on an idle pooled
    connection.  The next call finds it closed before any reply byte
    and is re-sent once on a fresh connection — with ``retries=0`` —
    and the server sees it exactly once."""
    import repro.api.http as http_module

    platform, srv = server
    monkeypatch.setattr(http_module, "KEEPALIVE_IDLE_S", 0.2)
    accepted = _accepted_connections(srv, monkeypatch)
    with Client(srv.url, token=platform.issue_token("alice"),
                retries=0) as client:
        pid = client.create_project("idle")["project_id"]
        time.sleep(0.6)
        before = srv.gateway.metrics.requests
        assert client.create_project("after-idle")["project_id"] == pid + 1
        assert srv.gateway.metrics.requests == before + 1
        assert len(accepted) == 2


def test_an_abandoned_log_stream_closes_its_own_connection(server, client):
    platform, srv = server
    project = platform.create_project("logs", owner="alice")
    gate = threading.Event()

    def chatty(job):
        job.log("one")
        gate.wait(10.0)
        job.log("two")

    job = project.jobs.submit("chatty", chatty)
    try:
        pooled = client.get_project(project.project_id)
        lines = client.stream_logs(project.project_id, job.job_id)
        while next(lines) != "one":
            pass
        assert not job.done
        conn = lines.gi_frame.f_locals["conn"]
        assert conn.sock is not None and conn not in client._idle
        lines.close()
        assert conn.sock is None
    finally:
        gate.set()
    assert client.get_project(project.project_id) == pooled
    assert len(client._idle) == 1


@pytest.mark.parametrize("length", ["-1", "-5", "abc"])
def test_malformed_content_length_is_a_400_not_a_hang(server, length):
    """``-1`` used to park the handler in ``rfile.read(-1)`` until the
    client hung up; ``-5`` killed it with an uncaught ``ValueError``."""
    platform, srv = server
    request = (f"POST /v1/users HTTP/1.1\r\nHost: test\r\n"
               f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n{{}}")
    with _connect(srv) as sock:
        sock.sendall(request.encode("ascii"))
        status, reply = _read_reply(sock)
        assert status == 400
        assert json.loads(reply)["error"] == "malformed Content-Length header"
        # The body's extent is unknown, so the server hangs up too.
        sock.settimeout(3.0)
        assert sock.recv(1) == b""


def test_vanished_client_prints_no_traceback(server, capsys):
    platform, srv = server
    for _ in range(5):
        sock = socket.create_connection(srv.server_address[:2], timeout=3.0)
        # SO_LINGER 0: close() resets the connection under the handler.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(b"POST /v1/users HTTP/1.1\r\nHost: test\r\nContent-Length: abc\r\n\r\n")
        sock.close()
    time.sleep(0.3)  # let the handler threads run into the reset
    assert "Traceback" not in capsys.readouterr().err


def _handler_threads(srv) -> list:
    return [t for t in threading.enumerate()
            if t.name == f"gateway-handler-{srv.server_port}"]


def _raw_post_projects(platform, *framing: str, body: bytes) -> bytes:
    return ("POST /v1/projects HTTP/1.1\r\nHost: test\r\n"
            f"Authorization: Bearer {platform.issue_token('alice')}\r\n"
            "Content-Type: application/json\r\n"
            + "".join(f"{line}\r\n" for line in framing)
            + "\r\n").encode("ascii") + body


def test_a_chunked_request_body_is_a_501_that_closes(server):
    """The body used to be ignored (the POST ran with ``{}``) and its
    chunk bytes were then parsed as the next request."""
    platform, srv = server
    body = json.dumps({"name": "chunked"}).encode()
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    before = srv.gateway.metrics.requests
    with _connect(srv) as sock:
        sock.sendall(_raw_post_projects(
            platform, "Transfer-Encoding: chunked", body=chunked))
        status, reply = _read_reply(sock)
        assert status == 501
        assert "Transfer-Encoding" in json.loads(reply)["error"]
        assert sock.recv(65536) == b""  # Connection: close, no second reply
    assert srv.gateway.metrics.requests == before
    assert platform.projects == {}


def test_conflicting_content_lengths_are_a_400_that_closes(server):
    """The first header used to win, so the rest of the body ran as a
    second, smuggled request."""
    platform, srv = server
    body = json.dumps({"name": "first"}).encode()
    smuggled = (f"GET /v1/projects HTTP/1.1\r\nHost: test\r\n"
                f"Authorization: Bearer {platform.issue_token('alice')}\r\n"
                f"\r\n").encode("ascii")
    before = srv.gateway.metrics.requests
    with _connect(srv) as sock:
        sock.sendall(_raw_post_projects(
            platform, f"Content-Length: {len(body)}",
            f"Content-Length: {len(body) + len(smuggled)}",
            body=body + smuggled))
        status, reply = _read_reply(sock)
        assert status == 400
        assert json.loads(reply)["error"] == "conflicting Content-Length headers"
        assert sock.recv(65536) == b""
    assert srv.gateway.metrics.requests == before
    assert platform.projects == {}

    # A repeated, agreeing Content-Length is one length, not a conflict.
    with _connect(srv) as sock:
        sock.sendall(_raw_post_projects(
            platform, *[f"Content-Length: {len(body)}"] * 2, body=body))
        assert _read_reply(sock)[0] == 200
    assert [p.name for p in platform.projects.values()] == ["first"]


def test_new_connections_reuse_idle_handler_threads(server):
    """A new connection per request used to start a thread per
    connection; an idle handler thread now takes the next one, so once
    the previous connection's thread is parked, one thread serves all."""
    platform, srv = server
    pid = platform.create_project("reused", owner="alice").project_id
    request = (f"GET /v1/projects/{pid} HTTP/1.1\r\nHost: test\r\n"
               f"Authorization: Bearer {platform.issue_token('alice')}\r\n"
               f"Connection: close\r\n\r\n").encode("ascii")
    most = 0
    for _ in range(50):
        with _connect(srv) as sock:
            sock.sendall(request)
            status, reply = _read_reply(sock)
            assert sock.recv(1) == b""
        assert status == 200
        assert json.loads(reply)["data"]["name"] == "reused"
        most = max(most, len(_handler_threads(srv)))
        deadline = time.monotonic() + 5.0
        while not srv._idle and time.monotonic() < deadline:
            time.sleep(0.001)
    assert most == 1


def test_handler_threads_under_concurrent_new_connections(server):
    """8 clients, a new connection per request, a short switch interval:
    every request is answered (a stranded connection would time out) and
    afterwards every handler thread is parked, none double-counted."""
    import sys

    platform, srv = server
    pid = platform.create_project("stress", owner="alice").project_id
    request = (f"GET /v1/projects/{pid} HTTP/1.1\r\nHost: test\r\n"
               f"Authorization: Bearer {platform.issue_token('alice')}\r\n"
               f"Connection: close\r\n\r\n").encode("ascii")
    replies, errors = [], []

    def client():
        try:
            for _ in range(10):
                with _connect(srv) as sock:
                    sock.sendall(request)
                    replies.append(_read_reply(sock))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client) for _ in range(8)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in clients) and errors == []
    assert len(replies) == 80
    assert all(status == 200 and json.loads(body)["data"]["name"] == "stress"
               for status, body in replies)
    deadline = time.monotonic() + 5.0
    while srv._idle != len(_handler_threads(srv)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert srv._idle == len(_handler_threads(srv)) >= 1
    assert not srv._pending and not srv._serving


def test_a_closed_gateway_stops_serving_pooled_connections(server, client):
    """``server_close`` used to leave a pooled keep-alive connection
    served — a POST on it after close still created a project — and its
    handler thread alive for ``KEEPALIVE_IDLE_S``."""
    platform, srv = server
    pid = client.create_project("before-close")["project_id"]
    assert len(client._idle) == 1 and _handler_threads(srv)
    srv.shutdown()
    srv.server_close()
    with pytest.raises(ClientError) as err:
        client.create_project("after-close")
    assert err.value.status == 599  # a transport failure
    assert list(platform.projects) == [pid]
    deadline = time.monotonic() + 5.0
    while _handler_threads(srv) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _handler_threads(srv) == []


def _replies(sock) -> list[tuple[int, str, bytes]]:
    """Every ``Content-Length``-framed reply the server sends before it
    closes, as (status, lower-cased head, body); a timeout raises."""
    data = b""
    try:
        while chunk := sock.recv(65536):
            data += chunk
    except ConnectionResetError:
        pass  # a reset after the replies: they were read already
    replies = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"a reply cut short: {data[:80]!r}"
        text = head.decode("latin-1").lower()
        length = int(re.search(r"\r\ncontent-length: (\d+)", text)[1])
        replies.append((int(text.split()[1]), text, rest[:length]))
        data = rest[length:]
    return replies


@pytest.mark.parametrize("bad_line", ["X-Note : hi", "X-Note hi", ": hi", " folded"])
def test_a_malformed_header_line_is_a_400_that_closes(server, bad_line):
    """The stdlib's ``email`` header parser stopped at a line it could not
    read and dropped every field after it, ``Content-Length`` included:
    the POST ran with no body and its body — here a whole second POST —
    ran as the next request on the connection, creating "smuggled"."""
    platform, srv = server
    inner_body = json.dumps({"name": "smuggled"}).encode()
    inner = _raw_post_projects(platform, f"Content-Length: {len(inner_body)}",
                               body=inner_body)
    outer = _raw_post_projects(platform, bad_line, f"Content-Length: {len(inner)}",
                               body=inner)
    before, projects = srv.gateway.metrics.requests, len(platform.projects)
    with _connect(srv) as sock:
        sock.sendall(outer)
        sock.shutdown(socket.SHUT_WR)
        replies = _replies(sock)
    assert srv.gateway.metrics.requests - before <= 1
    assert len(platform.projects) - projects <= 1
    assert "smuggled" not in [p.name for p in platform.projects.values()]
    assert len(replies) == 1
    status, head, reply = replies[0]
    assert status == 400 and "\r\nconnection: close" in head
    assert "malformed header line" in json.loads(reply)["error"]


REFUSED_HEADS = [
    ("GET /v1/openapi.json HTTP/2.0\r\n\r\n", 505),
    ("GET /v1/openapi.json HTTP/1.x\r\n\r\n", 400),
    ("GET /v1/openapi.json\r\n\r\n", 400),  # HTTP/0.9 has no head to reply with
    ("GET  /v1/openapi.json HTTP/1.1\r\n\r\n", 400),
    ("GET /v1/openapi.json HTTP/1.1\n\n", 400),
    ("BREW /v1/openapi.json HTTP/1.1\r\n\r\n", 501),
    # Each limit is hit by the last byte sent, so nothing is left unread.
    ("GET /" + "a" * 65536, 414),
    ("GET / HTTP/1.1\r\nX-Long: " + "a" * 65529, 431),
    ("GET / HTTP/1.1\r\n" + "X-A: 1\r\n" * 101, 431),
]


def test_refused_request_heads_are_answered_and_closed(server):
    """The request-line, version and size rules the stdlib parser kept,
    each answered with its status and a closed connection."""
    platform, srv = server
    for head, status in REFUSED_HEADS:
        with _connect(srv) as sock:
            sock.sendall(head.encode("ascii"))
            ((got, text, reply),) = _replies(sock)
        assert got == status and "\r\nconnection: close" in text, head[:40]
        assert json.loads(reply)["status"] == status


def test_http10_closes_unless_asked_and_expect_100_is_answered(server):
    platform, srv = server
    get = "GET /v1/openapi.json HTTP/1.0\r\n{}\r\n"
    with _connect(srv) as sock:
        sock.sendall(get.format("").encode("ascii"))
        ((status, text, _),) = _replies(sock)  # then EOF: no keep-alive asked
    assert status == 200 and "\r\nconnection: close" in text
    with _connect(srv) as sock:
        for _ in range(2):
            sock.sendall(get.format("Connection: keep-alive\r\n").encode("ascii"))
            assert _read_reply(sock)[0] == 200

    # The body waits for the interim 100, which must not sit in a buffer.
    body = json.dumps({"name": "expected"}).encode()
    head = _raw_post_projects(platform, "Expect: 100-continue",
                              f"Content-Length: {len(body)}", body=b"")
    with _connect(srv) as sock:
        sock.sendall(head)
        assert sock.recv(25) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        assert _read_reply(sock)[0] == 200
    assert [p.name for p in platform.projects.values()] == ["expected"]


def test_every_prefix_and_byte_flip_of_a_request_head(served):
    """ROADMAP 9(c)'s sweep at the socket: every strict prefix of one
    classify request's head, and every byte of it flipped to NUL, ':', SP
    or LF with the body unchanged, each on a connection of its own that
    the client then half-closes.  Each gets one 4xx, the clean request's
    reply, or — only when no complete head arrived — a close with no
    reply; never a 5xx, a hang, or a second request run."""
    body = json.dumps({"features_b64": _b64(np.full(N_FEATURES, 0.25))}).encode()
    head = (f"POST {served.path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Authorization: Bearer {served.token}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")

    def exchange(data: bytes) -> list:
        before = served.gateway.metrics.requests
        with socket.create_connection(served.http.server_address[:2],
                                      timeout=5.0) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            replies = _replies(sock)
        assert served.gateway.metrics.requests - before <= 1
        assert len(replies) <= 1
        return replies

    ((status, _, want),) = exchange(head + body)
    assert status == 200 and json.loads(want)["data"]["top"] in LABELS
    for cut in range(len(head)):
        assert exchange(head[:cut]) == [], cut

    seen = set()
    for pos in range(len(head)):
        for byte in b"\x00: \n":
            if head[pos] == byte:
                continue
            mutant = head[:pos] + bytes([byte]) + head[pos + 1:]
            replies = exchange(mutant + body)
            if not replies:
                assert b"\r\n\r\n" not in mutant, (pos, byte)
                seen.add("closed")
                continue
            ((status, _, reply),) = replies
            assert status == 200 and reply == want or 400 <= status < 500, \
                (pos, byte, status, reply)
            seen.add(status)
    assert {200, 400, 401, 404, "closed"} <= seen


# -- the SDK's transport against canned replies ------------------------------


class _Canned:
    """A one-thread server that reads each request head and answers with
    the next canned reply: a list of byte strings (sent in turn) and
    events (waited for), then a hang-up when ``close`` is set."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10.0)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        return "http://127.0.0.1:%d" % self.listener.getsockname()[1]

    def _serve(self):
        while self.replies:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            with conn, conn.makefile("rb") as rfile:
                while self.replies and self._read_head(rfile):
                    parts, close = self.replies.pop(0)
                    for part in parts:
                        if isinstance(part, threading.Event):
                            part.wait(10.0)
                        else:
                            conn.sendall(part)
                    if close:
                        break

    @staticmethod
    def _read_head(rfile) -> bool:
        """Skip one request head; False at EOF."""
        while (line := rfile.readline()) not in (b"\r\n", b""):
            pass
        return line == b"\r\n"

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.listener.close()
        self.thread.join(10.0)


def _reply(head: str, body: bytes = b"") -> bytes:
    return head.replace("\n", "\r\n").encode("ascii") + b"\r\n" + body


ENVELOPE = json.dumps({"status": 200, "data": {"ok": 1}}).encode()


def test_sdk_reads_an_unframed_reply_to_eof_and_does_not_pool_it():
    unframed = _reply("HTTP/1.1 200 OK\nContent-Type: application/json\n", ENVELOPE)
    with _Canned([([unframed], True)] * 2) as canned, \
            Client(canned.url, retries=0) as client:
        assert client.request("GET", "/a") == {"ok": 1}
        assert client._idle == []
        assert client.request("GET", "/b") == {"ok": 1}
        assert client._idle == [] and canned.accepted == 2


def test_sdk_does_not_pool_an_http10_reply():
    """The server keeps the connection open, but an HTTP/1.0 reply does
    not promise that: the next call connects afresh."""
    framed = _reply(f"HTTP/1.0 200 OK\nContent-Length: {len(ENVELOPE)}\n", ENVELOPE)
    with _Canned([([framed], False)] * 2) as canned, \
            Client(canned.url, retries=0) as client:
        assert client.request("GET", "/a") == {"ok": 1}
        assert client._idle == []
        assert client.request("GET", "/b") == {"ok": 1}
        assert canned.accepted == 2
    # The same reply as HTTP/1.1 is pooled: one connection for both.
    framed = framed.replace(b"HTTP/1.0", b"HTTP/1.1")
    with _Canned([([framed], False)] * 2) as canned, \
            Client(canned.url, retries=0) as client:
        client.request("GET", "/a")
        (conn,) = client._idle
        client.request("GET", "/b")
        assert client._idle == [conn] and canned.accepted == 1


def test_sdk_stream_logs_yields_lines_across_chunks_and_closes_its_socket():
    """Lines split across chunks and several lines in one chunk come out
    one per line, each as soon as its chunk arrives; the stream's
    connection is closed at its end; a stream cut short before its
    terminator is a 599, never a clean end."""
    head = _reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n")
    later = threading.Event()
    chunks = [b"4\r\none\n\r\n", later, b"6\r\ntwo\nth\r\n4\r\nree\n\r\n",
              b"0\r\n\r\n"]
    with _Canned([([head, *chunks], False), ([head, chunks[0]], True)]) as canned, \
            Client(canned.url, retries=0) as client:
        lines = client.stream_logs(1, 2)
        assert next(lines) == "one"  # before the server sends the rest
        conn = lines.gi_frame.f_locals["conn"]
        later.set()
        assert list(lines) == ["two", "three"]
        assert conn.sock is None and client._idle == []

        lines = client.stream_logs(1, 2)
        assert next(lines) == "one"
        with pytest.raises(ClientError) as err:
            next(lines)
        assert err.value.status == 599 and "cut short" in err.value.message
        assert canned.accepted == 2


def test_an_https_base_url_wraps_the_pooled_socket_in_tls(monkeypatch):
    """With a stand-in context (no certificate needed) that records the
    wrap and hands back the plain socket."""
    import ssl

    wrapped = []

    class Context:
        def wrap_socket(self, sock, server_hostname):
            wrapped.append((server_hostname,
                            sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)))
            return sock

    monkeypatch.setattr(ssl, "create_default_context", Context)
    framed = _reply(f"HTTP/1.1 200 OK\nContent-Length: {len(ENVELOPE)}\n", ENVELOPE)
    with _Canned([([framed], False)] * 2) as canned, \
            Client(canned.url.replace("http:", "https:"), retries=0) as client:
        assert client.request("GET", "/a") == client.request("GET", "/b") == {"ok": 1}
        assert canned.accepted == 1
    assert wrapped == [("127.0.0.1", 1)]


def test_sdk_round_trip_over_tls(tmp_path, monkeypatch):
    """A real TLS session against the gateway, with a self-signed
    certificate made by the ``openssl`` command line."""
    import shutil
    import ssl
    import subprocess

    if shutil.which("openssl") is None:
        pytest.skip("no openssl command to make a certificate with")
    key, cert = tmp_path / "key.pem", tmp_path / "cert.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
                    "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
                    "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
                    "-keyout", str(key), "-out", str(cert)],
                   check=True, capture_output=True)
    platform = Platform()
    platform.register_user("alice")
    srv = serve_http(platform.gateway, port=0)
    server_tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server_tls.load_cert_chain(cert, key)
    srv.socket = server_tls.wrap_socket(srv.socket, server_side=True)
    srv.serve_in_background()
    default_context = ssl.create_default_context

    def trusting_the_certificate():
        context = default_context(cafile=str(cert))
        # Newer Pythons set X509_STRICT, which refuses a self-signed CA
        # used as its own server certificate; chain and host still verify.
        context.verify_flags &= ~ssl.VERIFY_X509_STRICT
        return context

    monkeypatch.setattr(ssl, "create_default_context", trusting_the_certificate)
    try:
        with Client(srv.url.replace("http:", "https:"),
                    token=platform.issue_token("alice"), retries=0) as client:
            pid = client.create_project("over-tls")["project_id"]
            assert client.get_project(pid)["name"] == "over-tls"
            (conn,) = client._idle
            assert isinstance(conn.sock, ssl.SSLSocket)
            assert conn.sock.version().startswith("TLS")
    finally:
        srv.shutdown()
        srv.server_close()


# -- packed float32 feature payloads -------------------------------------------
#
# ``features_b64`` / ``batch_b64`` carry the float32 values the list form
# would be cast to, so the two forms of one request must get the same
# reply bytes on every placement, and every malformed packing must be a
# 400 at admission: no ticket, no telemetry, nothing decoded or allocated
# from a length the server has not checked.

LABELS = ("a", "b", "c")
FEATURE_SHAPE = (16, 8)
N_FEATURES = 128
PLACEMENT_ARGS = {
    "default": dict(serving_workers=1, serving_backend="thread"),
    "thread": dict(serving_workers=2, serving_backend="thread"),
    "process": dict(serving_workers=2, serving_backend="process"),
}


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f4").tobytes()).decode("ascii")


class _Served:
    """A platform serving the tiny graphs over HTTP, with one project."""

    def __init__(self, tiny_graphs, placement="default"):
        from repro.monitor.telemetry import TelemetryStore

        self.platform = Platform(**PLACEMENT_ARGS[placement])
        self.platform.register_user("alice")
        project = self.platform.create_project("served", owner="alice")
        project.float_graph, project.int8_graph = tiny_graphs
        project.label_map = dict(zip(LABELS, range(3)))
        self.pid = project.project_id
        self.path = f"/v1/projects/{self.pid}/classify"
        self.platform.serving.telemetry = self.telemetry = TelemetryStore()
        # The fuzz sweeps send ~1000 requests in a second or two.
        self.gateway = ApiGateway(self.platform, rate_limit_capacity=1e6,
                                  rate_limit_refill_per_s=1e6)
        self.http = serve_http(self.gateway, port=0, background=True)
        self.token = self.platform.issue_token("alice")
        self.sent: list[dict] = []
        served = self

        class RecordingClient(Client):
            def request(self, method, path, body=None):
                served.sent.append(body)
                return super().request(method, path, body)

        self.client = RecordingClient(self.http.url, token=self.token, retries=0)

    def post(self, body: dict) -> tuple[int, bytes]:
        """Raw POST of ``body`` (Python's JSON, so NaN / Infinity literals
        go out as a lax client would send them) -> (status, reply bytes)."""
        request = urllib.request.Request(
            self.http.url + self.path, data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json",
                     "Authorization": f"Bearer {self.token}"}, method="POST")
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def handle(self, body: dict) -> dict:
        """The same request in process (the fuzz loops need the speed)."""
        return self.gateway.handle("POST", self.path, body, user="alice")

    def assert_nothing_was_admitted(self):
        snap = self.platform.serving.snapshot()
        assert snap["requests"] == snap["batches"] == snap["batch_errors"] == 0
        assert all(s["queue_depth"] == 0 for s in snap["per_shard"])
        assert self.telemetry.count(self.pid) == 0

    def close(self):
        self.client.close()
        self.http.shutdown()
        self.http.server_close()
        self.platform.serving.close()


@pytest.fixture()
def served(tiny_graphs):
    s = _Served(tiny_graphs)
    yield s
    s.close()


@pytest.mark.parametrize("placement", sorted(PLACEMENT_ARGS))
def test_packed_and_list_requests_get_byte_identical_replies(
        tiny_graphs, tiny_classification_problem, placement):
    x, _ = tiny_classification_problem
    s = _Served(tiny_graphs, placement)
    try:
        assert s.platform.serving.placement == \
            PLACEMENT_ARGS[placement]["serving_backend"]
        window, rows = x[0].reshape(-1), x[:5].reshape(5, -1)
        for precision in ("int8", "float32"):
            extra = {"precision": precision}
            status, listed = s.post({"features": window.tolist(), **extra})
            assert status == 200
            assert s.post({"features_b64": _b64(window), **extra}) == (200, listed)
            assert s.client.classify(s.pid, features=window.tolist(), **extra) \
                == json.loads(listed)["data"]
            assert set(s.sent[-1]) == {"features_b64", "precision"}

            status, listed = s.post({"batch": rows.tolist(), **extra})
            assert status == 200 and json.loads(listed)["data"]["batch_size"] == 5
            assert s.post({"batch_b64": _b64(rows), "rows": 5, **extra}) \
                == (200, listed)
            assert s.client.classify(s.pid, batch=rows.tolist(), **extra) \
                == json.loads(listed)["data"]
            assert set(s.sent[-1]) == {"batch_b64", "rows", "precision"}
        # Doubles that are not float32 values: the list path rounds them
        # on arrival, the SDK rounds them when packing — same float32.
        doubles = [0.1 * i - 3.3 for i in range(N_FEATURES)]
        status, listed = s.post({"features": doubles})
        assert status == 200
        assert s.client.classify(s.pid, features=doubles) == json.loads(listed)["data"]
        assert "features_b64" in s.sent[-1]
    finally:
        s.close()


def test_sdk_packs_arrays_tuples_ints_and_nested_windows(
        served, tiny_classification_problem):
    """Everything rectangular and numeric goes out packed and classifies
    like the flat float list (an ndarray used to die in ``json.dumps``
    with a bare TypeError); the SDK module itself never touches numpy."""
    import array

    import repro.client as sdk

    x, _ = tiny_classification_problem
    window = np.round(x[0] * 4)  # small integers: exact as int, float32 and double
    want = served.client.classify(served.pid, features=window.reshape(-1).tolist())
    for form in (
        window,                                   # float32 ndarray, nested (16, 8)
        window.reshape(-1).astype(np.float64),    # flat float64 ndarray
        array.array("f", window.reshape(-1).tolist()),
        tuple(window.reshape(-1).tolist()),
        [int(v) for v in window.reshape(-1)],     # Python ints
        window.tolist(),                          # nested lists
        [tuple(row) for row in window.tolist()],  # list of tuples
        list(window.reshape(-1)),                 # list of numpy scalars
    ):
        assert served.client.classify(served.pid, features=form) == want
        assert set(served.sent[-1]) == {"features_b64"}

    batch = np.round(x[:3] * 4)
    want = served.client.classify(served.pid, batch=batch.reshape(3, -1).tolist())
    for form in (batch, list(batch), batch.reshape(3, -1), batch.tolist(),
                 [array.array("f", row.reshape(-1).tolist()) for row in batch]):
        assert served.client.classify(served.pid, batch=form) == want
        assert served.sent[-1]["rows"] == 3 and "batch" not in served.sent[-1]

    with open(sdk.__file__) as f:
        source = f.read()
    assert "numpy" not in vars(sdk) and "np" not in vars(sdk)
    assert "import numpy" not in source and "from numpy" not in source


def test_sdk_sends_what_it_cannot_pack_in_list_form(served):
    """Non-numeric, ragged and float32-overflowing input goes out as
    given, so the server's 400 is the message the caller reads."""
    good = [0.5] * N_FEATURES
    cases = [
        (dict(features=["not", "numbers"]), "not numeric"),
        (dict(features=[[1.0, 2.0], [3.0]]), "not numeric"),
        (dict(features=good[:-1] + [1e39]), "features must be finite"),
        (dict(features=[]), "expected 128 features"),
        (dict(batch=[good, good[:-1]]), "expected 128 features"),
        (dict(batch=[good, "row"]), "not numeric"),
        (dict(batch=[]), "non-empty list"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ClientError) as err:
            served.client.classify(served.pid, **kwargs)
        assert err.value.status == 400 and message in err.value.message
        assert served.sent[-1] == kwargs, "sent as given, not packed"
    # Packable but wrong: packed, and the same words come back.
    for kwargs, message in [
        (dict(features=good[:64]), "expected 128 features (shape (16, 8)), got 64"),
        (dict(batch=[good[:64], good[:64]]),
         "expected 128 features (shape (16, 8)), got 64"),
        (dict(features=good[:-1] + [float("nan")]), "features must be finite"),
        (dict(batch=[good, good[:-1] + [float("-inf")]]), "features must be finite"),
    ]:
        with pytest.raises(ClientError) as err:
            served.client.classify(served.pid, **kwargs)
        assert err.value.status == 400 and message in err.value.message
        assert any(key.endswith("_b64") for key in served.sent[-1])
    served.assert_nothing_was_admitted()


@pytest.mark.parametrize("precision", ["int8", "float32"])
def test_non_finite_features_are_a_400_in_either_form(served, precision):
    """NaN / +-Inf used to be served: float32 answered 200 with ``NaN``
    in the body (not JSON), int8 cast NaN to a platform-dependent byte,
    and both wrote NaN confidences into the telemetry store."""
    import warnings

    good = np.full(N_FEATURES, 0.25, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "invalid value encountered in cast"
        for bad in (float("nan"), float("inf"), float("-inf"), 1e39):
            poisoned = good.astype(np.float64)
            poisoned[77] = bad
            rows = [good.tolist(), poisoned.tolist()]
            bodies = [{"features": poisoned.tolist()}, {"batch": rows}]
            if bad != 1e39:  # float32 has no 1e39 to pack
                bodies += [{"features_b64": _b64(poisoned)},
                           {"batch_b64": _b64(rows), "rows": 2}]
            for body in bodies:
                status, reply = served.post({**body, "precision": precision})
                assert (status, json.loads(reply)["error"]) \
                    == (400, "features must be finite"), body.keys()
    served.assert_nothing_was_admitted()


def test_malformed_packed_payloads_are_400s_before_any_work(served, monkeypatch):
    good = np.linspace(-1.0, 1.0, N_FEATURES).astype(np.float32)
    text = _b64(good)
    assert len(text) == 684 and text.endswith("=") and not text.endswith("==")

    def error_of(body):
        reply = served.handle(body)
        assert reply["status"] == 400, (body.keys(), reply)
        return reply["error"]

    # Wrong row width is the list path's message, even when the total
    # divides: 2 x 64 floats are not one 128-float window.
    halves = good.reshape(2, 64)
    listed = error_of({"batch": halves.tolist()})
    assert listed == "expected 128 features (shape (16, 8)), got 64"
    assert error_of({"batch_b64": _b64(halves), "rows": 2}) == listed
    assert error_of({"features_b64": _b64(good[:64])}) == listed
    assert served.handle({"batch_b64": _b64(halves), "rows": 1})["status"] == 200

    # Wrong totals, and a field that is not a string.
    assert "got 127" in error_of({"features_b64": _b64(good[:-1])})
    assert "not the base64 of 3 row(s)" in error_of({"batch_b64": text, "rows": 3})
    assert "base64 string" in error_of({"features_b64": None})
    assert "not the base64" in error_of({"features_b64": str(good.tolist())})

    # Right length, wrong content: alphabet, padding where data belongs.
    for bad in (text[:100] + "!" + text[101:], text[:100] + "\n" + text[101:],
                text[:-2] + "==", "=" + text[1:], text[:-1] + "A",
                text[:300] + "=" + text[301:]):
        assert len(bad) == len(text)
        reply = served.handle({"features_b64": bad})
        # ``text[:-1] + "A"`` is valid base64 of 513 bytes: one too many.
        assert reply["status"] == 400 and "base64" in reply["error"], bad[-4:]

    # rows: missing, zero, negative, huge, not a number.
    assert "needs 'rows'" in error_of({"batch_b64": text})
    assert "needs 'rows'" in error_of({"batch_b64": text, "rows": None})
    assert "rows must be >= 1" in error_of({"batch_b64": text, "rows": 0})
    assert "rows must be >= 1" in error_of({"batch_b64": text, "rows": -1})
    assert "rows must be int-like" in error_of({"batch_b64": text, "rows": "many"})
    started = time.perf_counter()
    assert "not the base64 of" in error_of({"batch_b64": text, "rows": 10**15})
    assert time.perf_counter() - started < 0.5  # nothing sized by ``rows``

    # Exactly one payload key.
    payloads = {"features": good.tolist(), "batch": [good.tolist()],
                "features_b64": text, "batch_b64": text}
    for a, b in [("features", "features_b64"), ("batch", "batch_b64"),
                 ("features_b64", "batch_b64"), ("features", "batch")]:
        assert "exactly one of" in error_of(
            {a: payloads[a], b: payloads[b], "rows": 1})
    assert "exactly one of" in error_of({"rows": 1})

    # The decode is guarded by the length check: a wrong-sized field must
    # be refused without ever reaching base64.
    import repro.api.resources.serving as route

    def no_decode(*args, **kwargs):
        raise AssertionError("decoded a payload of unchecked length")

    monkeypatch.setattr(route.base64, "b64decode", no_decode)
    for body in ({"features_b64": text + "AAAA"}, {"features_b64": text[:-4]},
                 {"batch_b64": text * 2, "rows": 3},
                 {"batch_b64": "A" * 1000, "rows": 10**9}):
        error_of(body)
    monkeypatch.undo()

    # MAX_BODY_BYTES still bounds the request, whatever it packs.
    import repro.api.http as http_module

    monkeypatch.setattr(http_module, "MAX_BODY_BYTES", 512)
    status, reply = served.post({"features_b64": text})
    assert status == 413 and "too large" in json.loads(reply)["error"]
    monkeypatch.undo()

    snap = served.platform.serving.snapshot()
    assert snap["requests"] == 1  # the one well-formed request above
    assert served.telemetry.count(served.pid) == 1


def test_every_prefix_and_bit_flip_of_a_packed_payload(served):
    """The every-prefix / bit-flip sweep of test_workers.py, over the
    base64 text: each mutant is either refused with a 400 or — when it
    still is base64 of 128 finite floats — served exactly as the list
    form of the floats it now encodes.  Never a 5xx, never a hang."""
    good = np.linspace(-2.0, 2.0, N_FEATURES).astype(np.float32)
    text = _b64(good)
    want = served.handle({"features": good.tolist()})
    assert want["status"] == 200
    assert served.handle({"features_b64": text}) == want

    for cut in range(len(text)):  # lengths = 0..3 mod 4, with and without padding
        reply = served.handle({"features_b64": text[:cut]})
        assert reply["status"] == 400, cut
    for cut in range(0, len(text), 7):
        reply = served.handle({"batch_b64": text[:cut], "rows": 1})
        assert reply["status"] == 400, cut

    served_mutants = 0
    for pos in list(range(0, len(text), 13)) + [len(text) - 2, len(text) - 1]:
        for bit in range(8):
            mutant = text[:pos] + chr(ord(text[pos]) ^ (1 << bit)) + text[pos + 1:]
            reply = served.handle({"features_b64": mutant})
            try:
                raw = base64.b64decode(mutant, validate=True)
                values = np.frombuffer(raw, dtype="<f4")
                ok = len(raw) == 4 * N_FEATURES and bool(np.isfinite(values).all())
            except ValueError:
                ok = False
            if not ok:
                assert reply["status"] == 400, (pos, bit, reply)
                continue
            served_mutants += 1
            assert reply == served.handle({"features": values.tolist()}), (pos, bit)
    assert served_mutants > 20  # the sweep did reach the decoder


def test_a_full_shard_queue_is_a_503_with_retry_after(served, monkeypatch):
    """Overload sheds as 503 + ``Retry-After`` (it used to be a 400), and
    the SDK waits out ``retry_after_s`` before retrying it.  The queue is
    full for real: the shard thread is parked on one request and two
    more wait behind it."""
    import types

    import repro.client as sdk
    from test_serving_placements import parked_drain

    good = np.full(N_FEATURES, 0.25).tolist()
    serving = served.platform.serving
    serving.max_queue = 2
    request = urllib.request.Request(
        served.http.url + served.path,
        data=json.dumps({"batch": [good] * 2}).encode(),
        headers={"Content-Type": "application/json",
                 "Authorization": f"Bearer {served.token}"}, method="POST")
    with parked_drain(serving, served.pid, good) as (gate, in_flight):
        queued = [serving.submit(served.pid, good) for _ in range(2)]
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        with err.value:
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] == "1"
            envelope = json.loads(err.value.read())
        assert envelope["retry_after_s"] == 1.0 and "queue full" in envelope["error"]
        snap = serving.snapshot()  # nothing of the shed batch was admitted
        assert snap["requests"] == snap["batches"] == snap["batch_errors"] == 0
        assert [s["queue_depth"] for s in snap["per_shard"]] == [2]
        assert served.telemetry.count(served.pid) == 0

        sleeps = []
        monkeypatch.setattr(sdk, "time", types.SimpleNamespace(
            sleep=sleeps.append, monotonic=time.monotonic))
        with Client(served.http.url, token=served.token, retries=2) as client:
            before = served.gateway.metrics.requests
            with pytest.raises(ClientError) as cerr:
                client.classify(served.pid, batch=[good] * 2)
        assert (cerr.value.status, cerr.value.retry_after_s) == (503, 1.0)
        assert sleeps == [1.0, 1.0]
        assert served.gateway.metrics.requests == before + 3
    assert in_flight()["top"] in LABELS
    assert all(t.value()["top"] in LABELS for t in queued)
    assert served.client.classify(served.pid, batch=[good] * 2)["batch_size"] == 2


def test_a_batch_larger_than_the_queue_is_a_400(served, monkeypatch):
    """A batch with more rows than the shard's whole queue can never be
    admitted, so it is not an overload: a 400 naming the row count and
    the capacity, with no ``Retry-After``, and the SDK does not retry
    it — even on an idle server."""
    import types

    import repro.client as sdk

    good = np.full(N_FEATURES, 0.25).tolist()
    served.platform.serving.max_queue = 2
    status, reply = served.post({"batch": [good] * 3})
    envelope = json.loads(reply)
    assert status == 400 and "retry_after_s" not in envelope
    assert envelope["error"].startswith("3 rows exceed")
    assert "queue capacity (2)" in envelope["error"]
    served.assert_nothing_was_admitted()

    sleeps = []
    monkeypatch.setattr(sdk, "time", types.SimpleNamespace(
        sleep=sleeps.append, monotonic=time.monotonic))
    with Client(served.http.url, token=served.token, retries=2) as client:
        before = served.gateway.metrics.requests
        with pytest.raises(ClientError) as cerr:
            client.classify(served.pid, batch=[good] * 3)
    assert cerr.value.status == 400 and cerr.value.retry_after_s is None
    assert sleeps == [] and served.gateway.metrics.requests == before + 1
    served.assert_nothing_was_admitted()
    assert served.client.classify(served.pid, batch=[good] * 2)["batch_size"] == 2
