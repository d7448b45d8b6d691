"""HTTP/1.1 message heads: the one codec of the gateway's socket server
(:mod:`repro.api.http`) and of the SDK (:mod:`repro.client`).

A head is a start line, then header fields, each line ended by CRLF,
then an empty line.  :func:`read_head` reads one from a buffered binary
reader into the start line and a :class:`Headers` map, and refuses with
:class:`HeadError` what it cannot read as exactly that: a start line
over ``MAX_LINE`` bytes (414), a header line over it or more than
``MAX_HEADERS`` fields (431), a line ended by a bare LF, a field line with no colon, whitespace before the
colon, an empty or non-token name, an obs-fold continuation line, or a
control character in a value (400).  A malformed line is never skipped:
dropping it together with the fields after it would lose a
``Content-Length`` and read the body as a further message.

Request lines are ``method SP target SP HTTP/d.d`` (:func:`request_line`)
and status lines ``HTTP/d.d SP code [SP reason]`` (:func:`status_line`).
Stdlib only, no ``email`` parsing.
"""

from __future__ import annotations

import re

#: Longest head line accepted, CRLF included.
MAX_LINE = 65536
#: Most header fields accepted in one head.
MAX_HEADERS = 100

# tchar (RFC 9110 5.6.2) names; a value is any byte but CTLs other than
# HTAB.  The greedy value class cannot cross the CR, so matching is linear.
_FIELD = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([^\x00-\x08\x0a-\x1f\x7f]*)\r\n").fullmatch
_REQUEST = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+) ([!-~]+) HTTP/([0-9]{1,9})\.([0-9]{1,9})").fullmatch
_STATUS = re.compile(r"HTTP/([0-9])\.([0-9]) ([0-9]{3})(?: [^\x00-\x08\x0a-\x1f\x7f]*)?").fullmatch


class HeadError(Exception):
    """A head that cannot be read.  ``status`` is the 4xx/5xx a server
    answers it with, or None when the peer hung up mid-head (nothing is
    left to answer)."""

    def __init__(self, message: str, status: int | None = 400):
        super().__init__(message)
        self.status = status


class Headers:
    """Header fields by case-insensitive name, repeats kept in order."""

    __slots__ = ("_fields",)

    def __init__(self, fields: dict[str, list[str]]):
        self._fields = fields  # lower-cased name -> values

    def get(self, name: str, default=None):
        """The first value of ``name``, or ``default``."""
        values = self._fields.get(name.lower())
        return values[0] if values else default

    def get_all(self, name: str, default=None):
        """Every value of ``name`` in arrival order, or ``default``."""
        return self._fields.get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._fields


def read_head(rfile) -> tuple[str, Headers] | None:
    """The next head on ``rfile``: its start line (decoded, without CRLF)
    and its fields.  None when the stream ends before the first byte."""
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    start = _line(line, "start line", 414).decode("latin-1")
    fields: dict[str, list[str]] = {}
    count = 0
    while (line := rfile.readline(MAX_LINE + 1)) != b"\r\n":
        _line(line, "header line", 431)
        if (count := count + 1) > MAX_HEADERS:
            raise HeadError(f"more than {MAX_HEADERS} header fields", 431)
        match = _FIELD(line)
        if match is None:
            raise HeadError(f"malformed header line {line[:64]!r}")
        name, value = match.groups()
        fields.setdefault(name.decode("ascii").lower(), []).append(
            value.strip(b" \t").decode("latin-1"))
    return start, Headers(fields)


def _line(line: bytes, what: str, too_long: int) -> bytes:
    """``line`` without its CRLF; refuses a long, bare-LF or cut line."""
    if len(line) > MAX_LINE:
        raise HeadError(f"{what} longer than {MAX_LINE} bytes", too_long)
    if line.endswith(b"\r\n"):
        return line[:-2]
    if line.endswith(b"\n"):
        raise HeadError(f"{what} ends in a bare LF")
    raise HeadError("connection closed mid-head", None)


def request_line(start: str) -> tuple[str, str, tuple[int, int]]:
    """``(method, target, (major, minor))`` of a request line: 400 when
    malformed, 505 for an HTTP version past 1.x."""
    match = _REQUEST(start)
    if match is None:
        raise HeadError(f"bad request line {start[:64]!r}")
    method, target, major, minor = match.groups()
    if int(major) >= 2:
        raise HeadError(f"HTTP version {major}.{minor} is not supported", 505)
    return method, target, (int(major), int(minor))


def status_line(start: str) -> tuple[tuple[int, int], int]:
    """``((major, minor), status)`` of a status line."""
    match = _STATUS(start)
    if match is None:
        raise HeadError(f"bad status line {start[:64]!r}")
    major, minor, status = match.groups()
    return (int(major), int(minor)), int(status)


def content_length(headers: Headers) -> int | None:
    """The body length a head declares: None without one; a HeadError for
    one that is not 1*DIGIT or several that disagree."""
    values = headers.get_all("Content-Length")
    if values is None:
        return None
    if len(set(values)) > 1:
        raise HeadError("conflicting Content-Length headers")
    if not (values[0].isascii() and values[0].isdigit()):
        raise HeadError("malformed Content-Length header")
    return int(values[0])


__all__ = ["HeadError", "Headers", "MAX_HEADERS", "MAX_LINE", "content_length",
           "read_head", "request_line", "status_line"]
