"""Real HTTP/1.1 serving for the gateway, on a ``socketserver`` accept
loop and the head codec of :mod:`repro.utils.http1`.

``serve_http(gateway, port)`` exposes every v1 route over sockets —
JSON bodies in, the JSON envelope out, with the envelope's ``status``
mirrored as the HTTP status code.  Query parameters on GETs land in the
request body dict (the schemas coerce the strings).  Streaming routes
(``GET .../jobs/<jid>/logs``) are sent with ``Transfer-Encoding:
chunked``, one log line per chunk, so clients can follow a training job
live.  Wired into the CLI as ``repro-cli serve --http PORT``.

What a request may be.  Its head is read line by line into a flat
case-insensitive map (:func:`repro.utils.http1.read_head`): lines of at
most 65,536 bytes (414 for the request line, 431 for a header line), at
most 100 header fields (431), a request line ``method SP target SP
HTTP/1.x`` (400; 505 past 1.x; 501 for a method with no route), and a
leading ``//`` of the path collapsed to ``/``.  A malformed head — a
bare LF, a header line with no colon, whitespace before the colon, an
empty name, an obs-fold continuation line, a control byte — is a 400
that closes the connection: the body's extent is unknown, and reading
on would run the body as a further request.  A peer that hangs up
mid-head gets no reply.  The body must be framed by one
``Content-Length`` (a ``Transfer-Encoding`` body is a 501, and a
negative, unparseable or conflicting length a 400, each closing).  An
HTTP/1.1 connection persists unless the request says ``Connection:
close``, an HTTP/1.0 one only when it says ``keep-alive``; ``Expect:
100-continue`` is answered before the body is read.

Each reply leaves in one send: status line, ``Server``, ``Date``
(formatted once a second), fields and body joined into one buffer, on a
``TCP_NODELAY`` socket.  Each accepted connection is served by an idle
handler thread, or by a new one when none is idle, so ``accept`` never
waits and a parked long-poll never starves a new connection; a handler
thread idle for ``KEEPALIVE_IDLE_S`` exits.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time
from collections import deque
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.api.errors import NotFoundError
from repro.utils.http1 import HeadError, content_length, read_head, request_line

MAX_BODY_BYTES = 64 * 1024 * 1024
#: Seconds a keep-alive connection may sit idle between requests before
#: its handler thread hangs up, and a handler thread may wait for its
#: next connection before it exits.  It bounds socket waits only: a
#: long-poll or a log stream waits inside the handler, not on the socket.
KEEPALIVE_IDLE_S = 30.0

_SERVER_VERSION = f"repro-gateway/1.0 Python/{sys.version.split()[0]}"
_METHODS = frozenset({"GET", "POST", "PUT", "DELETE"})
_STATUS_LINES = {int(s): f"HTTP/1.1 {int(s)} {s.phrase}\r\n".encode("ascii")
                 for s in HTTPStatus}
#: (second, the ``Server`` and ``Date`` lines of a reply in that second)
_stamp = (0, b"")


def _server_and_date() -> bytes:
    global _stamp
    now = int(time.time())
    if _stamp[0] != now:  # two threads may both rebuild it: same bytes
        _stamp = (now, f"Server: {_SERVER_VERSION}\r\n"
                       f"Date: {formatdate(now, usegmt=True)}\r\n".encode("ascii"))
    return _stamp[1]


class GatewayRequestHandler(socketserver.StreamRequestHandler):
    # Unbuffered: a reply is one ``sendall`` of head and body, so on a
    # persistent connection no second segment waits out the client's
    # delayed ACK (~40 ms).
    wbufsize = 0
    disable_nagle_algorithm = True

    # The owning GatewayHTTPServer sets this.
    gateway = None

    def setup(self):
        self.timeout = KEEPALIVE_IDLE_S  # read per connection, not at import
        super().setup()

    def handle(self):
        """Serve requests on this connection until one ends it."""
        self.close_connection = False
        try:
            while not self.close_connection:
                self._serve_one()
        except TimeoutError:
            pass  # idle past KEEPALIVE_IDLE_S, or a stalled peer: hang up

    def _serve_one(self) -> None:
        """Read one request head and answer the request."""
        self.close_connection = True
        try:
            head = read_head(self.rfile)
            if head is None:
                return  # the peer closed between requests
            start, self.headers = head
            method, target, version = request_line(start)
        except HeadError as exc:
            if exc.status is not None:
                self._send_json({"status": exc.status, "error": str(exc)},
                                close=True)
            return
        connection = self.headers.get("Connection", "").lower()
        self.close_connection = connection == "close" or (
            version < (1, 1) and connection != "keep-alive")
        if version >= (1, 1) and \
                self.headers.get("Expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        if method not in _METHODS:
            self._send_json({"status": 501,
                             "error": f"unsupported method {method!r}"},
                            close=True)
            return
        if target.startswith("//"):  # never read as a scheme-less URL
            target = "/" + target.lstrip("/")
        self._dispatch(method, target)

    # -- plumbing ----------------------------------------------------------

    def _token(self) -> str | None:
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            return auth[len("Bearer "):].strip()
        return None

    def _read_body(self) -> dict | None:
        """JSON request body; None signals an already-sent error reply."""
        # A body framed any other way than by one Content-Length has an
        # extent this server cannot find: reading a wrong one would run
        # the rest of the body as a further request on this connection.
        if "Transfer-Encoding" in self.headers:
            self._send_json(
                {"status": 501, "error": "Transfer-Encoding is not supported; "
                 "send a Content-Length body"},
                close=True,
            )
            return None
        try:
            # Unparseable or negative (``rfile.read(-1)`` would wait for
            # EOF), or conflicting: the body's extent is unknown, so the
            # connection cannot be reused either.
            length = content_length(self.headers) or 0
        except HeadError as exc:
            self._send_json({"status": 400, "error": str(exc)}, close=True)
            return None
        if length == 0:
            return {}
        if length > MAX_BODY_BYTES:
            # The oversized body is left unread, so this connection
            # cannot be reused for a further request.
            self._send_json({"status": 413, "error": "request body too large"},
                            close=True)
            return None
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(
                {"status": 400, "error": f"request body is not JSON: {exc}"}
            )
            return None
        if not isinstance(body, dict):
            self._send_json(
                {"status": 400, "error": "request body must be a JSON object"}
            )
            return None
        return body

    def _send(self, status: int, fields: str, body: bytes = b"",
              close: bool = False) -> None:
        """One reply in one send: the status line, ``Server``, ``Date``,
        ``fields`` (CRLF-ended lines) and ``body``.  ``close`` ends the
        connection after it; a reply that ends it says so, so a pooling
        client does not reuse it."""
        if close:
            self.close_connection = True
        status_line = (_STATUS_LINES.get(status)
                       or f"HTTP/1.1 {status} \r\n".encode("ascii"))
        self.wfile.write(b"".join((
            status_line, _server_and_date(), fields.encode("latin-1"),
            b"Connection: close\r\n\r\n" if self.close_connection else b"\r\n",
            body)))

    def _send_json(self, envelope: dict, close: bool = False) -> None:
        data = json.dumps(envelope).encode("utf-8")
        fields = f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        if "retry_after_s" in envelope:
            fields += f"Retry-After: {max(1, round(envelope['retry_after_s']))}\r\n"
        self._send(int(envelope.get("status", 500)), fields, data, close)

    def _send_json_bytes(self, data: bytes, etag: str) -> None:
        """A pre-serialized 200 envelope (response-cache hit)."""
        self._send(200, f"Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\nETag: {etag}\r\n", data)

    def _send_not_modified(self, etag: str) -> None:
        self._send(304, f"ETag: {etag}\r\nContent-Length: 0\r\n")

    def _send_stream(self, lines) -> None:
        """A chunked reply: the head now, then one chunk per line as it
        is produced."""
        self._send(200, "Content-Type: text/plain; charset=utf-8\r\n"
                        "Transfer-Encoding: chunked\r\n")
        try:
            for line in lines:
                chunk = (line + "\n").encode("utf-8")
                self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
        except Exception:
            # A crashed stream must NOT look complete: withhold the
            # chunked terminator and drop the connection, so the client
            # sees a truncated transfer instead of a clean end-of-log.
            self.close_connection = True
            return
        self.wfile.write(b"0\r\n\r\n")

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, method: str, target: str) -> None:
        split = urlsplit(target)
        # Percent-decode each segment *after* splitting, so encoded
        # characters in string placeholders resolve (device id "dev a"
        # -> /dev%20a/) and an encoded slash ("a%2Fb") stays one
        # segment instead of changing the route shape.
        raw = split.path
        segments = ([unquote(s) for s in raw[1:].split("/")]
                    if raw.startswith("/") else None)
        path = unquote(raw)
        try:
            body = self._read_body()
            if body is None:
                return
            # Query parameters merge into the body; the route schema
            # coerces the strings ("wait_s=2.5" -> 2.5).  JSON body keys
            # win.
            for key, value in parse_qsl(split.query):
                body.setdefault(key, value)
            token = self._token()
            # Resolve once, here, on the per-segment-decoded path; the
            # gateway reuses the (route, params) pair.  A miss is final:
            # re-resolving the fully decoded ``path`` would let an
            # encoded slash change the route shape.
            try:
                resolved = self.gateway.router.resolve(method, path,
                                                       segments=segments)
            except NotFoundError as exc:
                self._send_json({"status": 404, "error": str(exc)})
                return
            if resolved[0].stream:
                stream = self.gateway.open_stream(
                    method, path, body, token=token, _resolved=resolved
                )
                if isinstance(stream, dict):  # an error envelope
                    self._send_json(stream)
                else:
                    self._send_stream(stream)
                return
            if method == "GET" and resolved[0].cache_ttl_s > 0:
                self._serve_cached_get(path, body, token, resolved)
                return
            self._send_json(
                self.gateway.handle(method, path, body, token=token,
                                    _resolved=resolved)
            )
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def _serve_cached_get(self, path: str, body: dict, token: str | None,
                          resolved: tuple) -> None:
        """GETs on routes with ``cache_ttl_s > 0``: serve the stored
        serialized envelope within the TTL, answer ``If-None-Match``
        revalidations with a bodiless 304, and populate the cache on a
        miss — all without re-serializing a hit."""
        route = resolved[0]
        cache = self.gateway.response_cache
        # Token in the key: a cached payload never crosses identities.
        # Query params already merged into body, so it covers them too.
        key = (path, json.dumps(body, sort_keys=True, default=str), token)
        inm = self.headers.get("If-None-Match")
        hit = cache.lookup(key)
        if hit is not None:
            etag, data = hit
            if inm == etag:
                cache.record_not_modified()
                self._send_not_modified(etag)
            else:
                self._send_json_bytes(data, etag)
            return
        envelope = self.gateway.handle("GET", path, body, token=token,
                                       _resolved=resolved)
        if int(envelope.get("status", 500)) != 200:
            self._send_json(envelope)  # errors are never cached
            return
        data = json.dumps(envelope).encode("utf-8")
        etag = cache.store(key, route.cache_ttl_s, data)
        if inm == etag:
            # The client's copy is already current — it cost a handler
            # run to learn that, but the transfer is still saved.
            cache.record_not_modified()
            self._send_not_modified(etag)
            return
        self._send_json_bytes(data, etag)


class GatewayHTTPServer(socketserver.TCPServer):
    """The accept loop plus a pool of reusable handler threads.

    An accepted connection joins ``_pending``; an idle handler thread
    takes it, and a new thread starts only when none is idle.  Threads
    are never capped, so connections parked on long-polls or log
    streams cannot starve new ones.  ``server_close`` also shuts the
    connections being served and ends the idle threads."""

    allow_reuse_address = True

    def __init__(self, gateway, address=("127.0.0.1", 0)):
        handler = type(
            "BoundGatewayRequestHandler",
            (GatewayRequestHandler,),
            {"gateway": gateway},
        )
        self._cond = threading.Condition()
        self._pending: deque[tuple] = deque()  # guarded-by: _cond
        self._serving: set[socket.socket] = set()  # guarded-by: _cond
        self._idle = 0  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond
        super().__init__(address, handler)
        self.gateway = gateway

    def process_request(self, request, client_address):
        """Hand an accepted connection to a handler thread; never waits."""
        with self._cond:
            if self._closed:
                self.shutdown_request(request)
                return
            self._pending.append((request, client_address))
            if len(self._pending) <= self._idle:
                self._cond.notify()
                return
            threading.Thread(target=self._handler_loop, daemon=True,
                             name=f"gateway-handler-{self.server_port}").start()

    def _handler_loop(self) -> None:
        while (conn := self._next_connection()) is not None:
            request, client_address = conn
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - socketserver's own loop does this
                self.handle_error(request, client_address)
            finally:
                with self._cond:
                    self._serving.discard(request)
                self.shutdown_request(request)

    def _next_connection(self) -> tuple | None:
        """The next accepted connection, or None once the server is
        closed or none came for ``KEEPALIVE_IDLE_S``."""
        deadline = time.monotonic() + KEEPALIVE_IDLE_S
        with self._cond:
            self._idle += 1
            try:
                while not self._pending:
                    remaining = deadline - time.monotonic()
                    if self._closed or remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                request, client_address = self._pending.popleft()
                self._serving.add(request)
                return request, client_address
            finally:
                self._idle -= 1

    def server_close(self):
        """Stop listening, hang up on every held connection (a handler
        reading its next request sees EOF, one mid-reply a broken pipe)
        and wake the idle handler threads so they exit."""
        super().server_close()
        with self._cond:
            self._closed = True
            for request, _ in self._pending:
                self.shutdown_request(request)
            self._pending.clear()
            # Under the lock: a handler discards its connection here
            # before closing it, so none of these is closed yet.
            for request in self._serving:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already reset it
            self._cond.notify_all()

    def handle_error(self, request, client_address):
        # A client that hung up mid-exchange is its own problem, not a
        # server fault worth a traceback.
        if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)

    @property
    def server_port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever,
                                  name="gateway-http", daemon=True)
        thread.start()
        return thread


def serve_http(gateway, host: str = "127.0.0.1", port: int = 0,
               background: bool = False) -> GatewayHTTPServer:
    """Bind the gateway to a socket.  ``background=True`` starts the
    accept loop on a daemon thread and returns immediately (tests, the
    SDK); otherwise the caller runs ``server.serve_forever()``."""
    server = GatewayHTTPServer(gateway, (host, port))
    if background:
        server.serve_in_background()
    return server
