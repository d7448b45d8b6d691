"""Real HTTP serving + the repro.client SDK, end to end over sockets."""

from __future__ import annotations

import base64
import io
import json
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
    return Client(srv.url, token=platform.issue_token("alice"),
                  retries=1, backoff_s=0.05)


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
    features = np.asarray(
        platform.projects[pid].impulse.features_for_sample(
            platform.projects[pid].dataset.samples()[0]
        )
    )[0].tolist()
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
    anonymous = Client(srv.url)
    doc = anonymous.openapi()
    assert doc["openapi"].startswith("3.")
    assert "/v1/projects" in doc["paths"]

    # Protected routes 401 without a token, 401 with a bad one.
    with pytest.raises(ClientError) as err:
        anonymous.create_project("nope")
    assert err.value.status == 401
    bad = Client(srv.url, token="ei_wrong")
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
    try:
        client = Client(limited_srv.url,
                        token=platform.issue_token("alice"), retries=0)
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
        limited_srv.shutdown()
        limited_srv.server_close()


def test_client_retries_transport_errors(server):
    platform, srv = server
    client = Client("http://127.0.0.1:1", retries=2, backoff_s=0.01)
    with pytest.raises(ClientError) as err:
        client.list_projects()
    assert err.value.status == 599

    # 4xx never retries (the server would see repeated requests).
    good = Client(srv.url, token=platform.issue_token("alice"), retries=3)
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
