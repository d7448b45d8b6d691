"""Python client SDK for the HTTP gateway (stdlib only).

:class:`Client` speaks the v1 envelope over pooled keep-alive
connections (see the last paragraph) — retries with exponential backoff
on connection errors and 5xx/429s, long-poll job waiting, and chunked
log following::

    from repro.client import Client

    with Client("http://127.0.0.1:8080", token="ei_...") as client:
        pid = client.create_project("kws")["project_id"]
        client.upload_data(pid, wav_bytes, label="yes", fmt="wav")
        client.set_impulse(pid, impulse_spec)
        jid = client.train(pid)["job_id"]
        for line in client.stream_logs(pid, jid):
            print(line)
        job = client.wait_job(pid, jid)
        result = client.classify(pid, features)

``classify`` puts feature windows on the wire packed: base64 of
little-endian float32 in ``features_b64`` / ``batch_b64`` + ``rows``
(:func:`pack_features`) instead of a JSON list of float text — a
16 x 490 batch is 42 KB instead of 162 KB and nothing formats or parses
a float, which was most of a batched request's HTTP cost.  The server
casts list input to float32 on arrival, so the reply is byte-identical
either way.  Lists, tuples, ``array.array``, numpy arrays (via their
``tolist``; numpy itself is never imported here), ints and nested
windows all pack.  Input that cannot be packed — a non-numeric cell,
ragged rows, a double beyond float32 range — is sent in the list form
unchanged, so the server's 400 is the message the caller reads.

A client keeps its connections.  It speaks HTTP/1.1 itself, with the head
codec the gateway uses (:mod:`repro.utils.http1`), over plain sockets
(``TCP_NODELAY`` set; an ``https`` base URL wraps the same socket with
``ssl.create_default_context()``).  A call checks out an idle connection
(or opens one), sends head and body in one ``sendall``, reads the reply
to its last byte through the connection's buffered reader and puts the
connection back.  A reply is framed by ``Content-Length`` or chunked
``Transfer-Encoding``, or else runs to EOF; only a fully read HTTP/1.1
reply with a length or chunked framing and no ``Connection: close`` is
pooled.  Threads sharing one client each get their own connection.  The
gateway drops a connection that idles for
``repro.api.http.KEEPALIVE_IDLE_S``; a pooled connection found closed
that way fails before the first reply byte arrives, and the request is
re-sent once on a fresh connection whatever ``retries`` says (never
after the first reply byte, never on a fresh connection).  A reply cut
short is a transport failure: a 599 once ``retries`` are spent.
``close()`` — or leaving a ``with Client(...) as client:`` block —
closes the idle connections.  ``stream_logs`` follows a log's chunks on
a connection of its own, closed when the generator ends or is dropped.
"""

from __future__ import annotations

import base64
import json
import socket
import ssl
import struct
import threading
import time
import urllib.parse
from itertools import chain
from typing import Iterator

from repro.utils.http1 import (
    MAX_LINE,
    HeadError,
    Headers,
    content_length,
    read_head,
    status_line,
)

#: Idle connections one client keeps.  More threads than this sharing a
#: client still get a connection each; the surplus closes on return.
MAX_IDLE_CONNECTIONS = 4


def _rows(value) -> list | tuple:
    """``value`` as a list or tuple: those as they are, anything else
    through its ``tolist`` (numpy arrays, ``array.array``)."""
    if not isinstance(value, (list, tuple)):
        value = value.tolist() if hasattr(value, "tolist") else None
        if not isinstance(value, list):
            raise TypeError("not a sequence of numbers")
    return value


def pack_features(window) -> bytes:
    """Little-endian float32 bytes of one feature window or of a batch
    of them: a flat or rectangularly nested sequence of numbers, 4 bytes
    per value in C order.  Raises ``TypeError`` / ``ValueError`` /
    ``OverflowError`` / ``struct.error`` for input with no such form
    (non-numeric, ragged, beyond float32 range)."""
    flat = _rows(window)
    while flat and hasattr(flat[0], "__len__"):
        nested = [_rows(row) for row in flat]
        if len({len(row) for row in nested}) != 1:
            raise ValueError("ragged rows")
        flat = list(chain.from_iterable(nested))
    return struct.pack(f"<{len(flat)}f", *flat)


def _payload_fields(key: str, value) -> dict:
    """Request fields for one ``features`` / ``batch`` argument: packed,
    or as given when it cannot be packed or is empty (the server words
    those errors)."""
    try:
        packed = pack_features(value)
    except (TypeError, ValueError, OverflowError, struct.error):
        packed = b""
    if not packed:
        return {key: value}
    fields = {key + "_b64": base64.b64encode(packed).decode("ascii")}
    if key == "batch":
        fields["rows"] = len(value)
    return fields


class ClientError(Exception):
    """An error envelope (or transport failure) from the gateway."""

    def __init__(self, status: int, message: str,
                 retry_after_s: float | None = None):
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


def _error_of(status: int, payload: bytes) -> ClientError:
    """The :class:`ClientError` of a non-2xx reply: its envelope's words,
    or the bare status when the body is not an envelope."""
    try:
        envelope = json.loads(payload.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError is one
        envelope = None
    if not isinstance(envelope, dict):
        envelope = {}
    return ClientError(envelope.get("status", status),
                       envelope.get("error", f"HTTP {status}"),
                       retry_after_s=envelope.get("retry_after_s"))


class _Connection:
    """One keep-alive HTTP/1.1 connection: its socket (None until opened
    and once closed) and the buffered reader its replies are read
    through."""

    __slots__ = ("sock", "rfile", "timeout")

    def __init__(self, timeout: float):
        self.sock = self.rfile = None
        self.timeout = timeout

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None


def _is_chunked(headers: Headers) -> bool:
    return headers.get("Transfer-Encoding", "").lower().endswith("chunked")


def _chunks(rfile) -> Iterator[bytes]:
    """The chunks of a chunked body, through its terminator; HeadError
    when the framing is broken or cut short."""
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if not line.endswith(b"\r\n"):
            raise HeadError("chunked body cut short", None)
        digits = line[:-2]
        if not 0 < len(digits) <= 16 or digits.strip(b"0123456789abcdefABCDEF"):
            raise HeadError(f"bad chunk size line {line[:64]!r}", None)
        size = int(digits, 16)
        if size == 0:
            if rfile.readline(MAX_LINE + 1) != b"\r\n":
                raise HeadError("chunked body cut short", None)
            return
        chunk = rfile.read(size + 2)
        if chunk[size:] != b"\r\n":
            raise HeadError("chunked body cut short", None)
        yield chunk[:size]


def _body(rfile, headers: Headers) -> Iterator[bytes]:
    """The pieces of a reply body, by its framing: chunked, one
    ``Content-Length``, or everything up to EOF."""
    if _is_chunked(headers):
        yield from _chunks(rfile)
    elif (length := content_length(headers)) is not None:
        data = rfile.read(length)
        if len(data) < length:
            raise HeadError("reply body cut short", None)
        yield data
    else:
        yield rfile.read()


def _reusable(version: tuple[int, int], headers: Headers) -> bool:
    """Whether the connection may carry another request once this reply
    has been read: HTTP/1.1, no ``Connection: close``, and a body whose
    end is known without EOF."""
    return (version >= (1, 1)
            and "close" not in headers.get("Connection", "").lower()
            and (_is_chunked(headers) or "Content-Length" in headers))


class Client:
    """Minimal, dependency-free SDK over the v1 HTTP surface."""

    def __init__(self, base_url: str, token: str | None = None, *,
                 retries: int = 3, backoff_s: float = 0.2,
                 timeout_s: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        split = urllib.parse.urlsplit(self.base_url)
        https = split.scheme == "https"
        self._tls = ssl.create_default_context() if https else None
        self._address = (split.hostname, split.port or (443 if https else 80))
        self._netloc, self._prefix = split.netloc, split.path
        self._lock = threading.Lock()
        self._idle: list[_Connection] = []  # guarded-by: _lock

    def close(self) -> None:
        """Close the idle connections.  The client stays usable: a later
        call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> Client:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _message(self, method: str, path: str, body: dict | None) -> bytes:
        """Head and body of one call, as one buffer."""
        target = self._prefix + path
        data, fields = b"", ""
        if method == "GET":
            if body:
                query = urllib.parse.urlencode(
                    {k: v for k, v in body.items() if v is not None}
                )
                target += ("&" if "?" in target else "?") + query
        else:
            data = json.dumps(body or {}).encode("utf-8")
            fields = ("Content-Type: application/json\r\n"
                      f"Content-Length: {len(data)}\r\n")
        if self.token:
            fields += f"Authorization: Bearer {self.token}\r\n"
        # Nothing may end a head line early or split the request line.
        if " " in target or not (target.isascii() and target.isprintable()) \
                or not (self.token or "").isprintable():
            raise ValueError(f"cannot send request target {target!r} "
                             "or token as an HTTP head")
        head = (f"{method} {target} HTTP/1.1\r\nHost: {self._netloc}\r\n"
                f"Accept: application/json\r\n{fields}\r\n")
        return head.encode("latin-1") + data

    def _connect(self, conn: _Connection) -> None:
        sock = socket.create_connection(self._address, timeout=conn.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock,
                                             server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        conn.sock, conn.rfile = sock, sock.makefile("rb")

    def _checkout(self) -> _Connection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return _Connection(self.timeout_s)

    def _checkin(self, conn: _Connection) -> None:
        with self._lock:
            if len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append(conn)
                return
        conn.close()

    def _exchange(self, conn: _Connection,
                  message: bytes) -> tuple[tuple[int, int], int, Headers]:
        """Send ``message`` on ``conn`` and read the reply's head.  A
        *reused* connection that fails before the first reply byte — the
        server closed it while it idled — is reconnected and the message
        re-sent once; a fresh connection never is."""
        reused = conn.sock is not None
        while True:
            if conn.sock is None:
                self._connect(conn)
            try:
                conn.sock.sendall(message)
                started = conn.rfile.peek(1)  # b"" at EOF
            except (ConnectionResetError, BrokenPipeError):
                started = b""
            if started:
                break
            conn.close()
            if not reused:
                raise ConnectionResetError(
                    "the server closed the connection without a reply")
            reused = False
        start, headers = read_head(conn.rfile)  # not None: a byte was peeked
        version, status = status_line(start)
        return version, status, headers

    def _open(self, method: str, path: str, body: dict | None = None,
              stream: _Connection | None = None):
        """Send one call and return its 2xx reply: the body bytes, or —
        on ``stream``, a connection of the caller's — the head's fields,
        with the body left to read.  Transport errors, 5xx and 429 retry
        (honouring ``retry_after_s`` on 429 and 503); other 4xx never
        retry."""
        message = self._message(method, path, body)
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            conn = stream or self._checkout()
            try:
                version, status, headers = self._exchange(conn, message)
                if stream is not None and 200 <= status < 300:
                    return headers
                payload = b"".join(_body(conn.rfile, headers))
            except (OSError, HeadError) as exc:
                conn.close()
                last, wait = exc, None
            except BaseException:
                conn.close()
                raise
            else:
                if stream is None and _reusable(version, headers):
                    self._checkin(conn)
                else:
                    conn.close()
                if 200 <= status < 300:
                    return payload
                last = _error_of(status, payload)
                if status < 500 and status != 429:
                    raise last
                wait = (last.retry_after_s
                        if status in (429, 503) else None)
            if attempt < self.retries:
                time.sleep(wait or self.backoff_s * (2 ** attempt))
        if isinstance(last, ClientError):
            raise last
        raise ClientError(599, f"transport failure: {last}")

    def request(self, method: str, path: str,
                body: dict | None = None) -> dict:
        """One enveloped request; returns the ``data`` payload or raises
        :class:`ClientError`."""
        envelope = json.loads(self._open(method, path, body).decode("utf-8"))
        if envelope.get("error") is not None:
            raise ClientError(envelope.get("status", 500), envelope["error"],
                              retry_after_s=envelope.get("retry_after_s"))
        return envelope.get("data", {})

    # -- lifecycle helpers -------------------------------------------------

    def openapi(self) -> dict:
        return self.request("GET", "/v1/openapi.json")

    def create_user(self, username: str) -> dict:
        return self.request("POST", "/v1/users", {"username": username})

    def create_project(self, name: str, **kwargs) -> dict:
        return self.request("POST", "/v1/projects", {"name": name, **kwargs})

    def list_projects(self, **params) -> dict:
        return self.request("GET", "/v1/projects", params)

    def get_project(self, pid: int) -> dict:
        return self.request("GET", f"/v1/projects/{pid}")

    def upload_data(self, pid: int, payload: bytes, label: str,
                    fmt: str | None = None, category: str | None = None) -> dict:
        body = {"payload_b64": base64.b64encode(payload).decode(),
                "label": label}
        if fmt is not None:
            body["format"] = fmt
        if category is not None:
            body["category"] = category
        return self.request("POST", f"/v1/projects/{pid}/data", body)

    def set_impulse(self, pid: int, spec: dict) -> dict:
        return self.request("POST", f"/v1/projects/{pid}/impulse",
                            {"impulse": spec})

    def train(self, pid: int, **kwargs) -> dict:
        return self.request("POST", f"/v1/projects/{pid}/train", kwargs)

    def job(self, pid: int, jid: int, wait_s: float | None = None,
            log_offset: int = 0) -> dict:
        body: dict = {"log_offset": log_offset}
        if wait_s is not None:
            body["wait_s"] = wait_s
        return self.request("GET", f"/v1/projects/{pid}/jobs/{jid}", body)

    def list_jobs(self, pid: int, **params) -> dict:
        return self.request("GET", f"/v1/projects/{pid}/jobs", params)

    def wait_job(self, pid: int, jid: int, timeout_s: float = 300.0,
                 poll_s: float = 10.0) -> dict:
        """Long-poll until the job settles (or ``timeout_s`` passes);
        returns the final snapshot."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            snapshot = self.job(pid, jid, wait_s=max(0.0,
                                                     min(poll_s, remaining)))
            if snapshot["job_status"] in ("succeeded", "failed", "cancelled"):
                return snapshot
            if remaining <= 0:
                raise TimeoutError(
                    f"job {jid} still {snapshot['job_status']} "
                    f"after {timeout_s:.0f}s"
                )

    def stream_logs(self, pid: int, jid: int, log_offset: int = 0,
                    timeout_s: float = 60.0) -> Iterator[str]:
        """Follow a job's log lines over the chunked stream route, on a
        connection of its own that is never pooled: it closes when the
        stream ends or the generator is dropped."""
        path = (f"/v1/projects/{pid}/jobs/{jid}/logs"
                f"?log_offset={log_offset}&timeout_s={timeout_s}")
        conn = _Connection(timeout_s + self.timeout_s)
        try:
            headers = self._open("GET", path, stream=conn)
            pending = b""
            try:
                for chunk in _body(conn.rfile, headers):
                    *lines, pending = (pending + chunk).split(b"\n")
                    for line in lines:
                        yield line.decode("utf-8")
            except (OSError, HeadError) as exc:
                raise ClientError(599, f"transport failure: {exc}") from exc
            if pending:
                yield pending.decode("utf-8")
        finally:
            conn.close()

    def classify(self, pid: int, features=None, batch=None, **kwargs) -> dict:
        """Classify one window (``features``) or many (``batch``); sent
        packed, or as given when it cannot be (see the module notes)."""
        body = dict(kwargs)
        if features is not None:
            body.update(_payload_fields("features", features))
        if batch is not None:
            body.update(_payload_fields("batch", batch))
        return self.request("POST", f"/v1/projects/{pid}/classify", body)

    def monitor(self, pid: int, **params) -> dict:
        return self.request("GET", f"/v1/projects/{pid}/monitor", params)

    def alerts(self, pid: int, **params) -> dict:
        return self.request("GET", f"/v1/projects/{pid}/monitor/alerts",
                            params)

    def fleet_devices(self, **params) -> dict:
        return self.request("GET", "/v1/fleet/devices", params)

    def gateway_stats(self) -> dict:
        return self.request("GET", "/v1/gateway/stats")


__all__ = ["Client", "ClientError", "pack_features"]
