"""Length-prefixed frame protocol for the cross-process execution plane.

Every message between a parent and a worker process is one **frame**: a
small JSON header (method, correlation id, params) plus zero or more raw
binary blobs (serialized graphs, stacked feature rows, probability
matrices).  Blobs travel as bytes — never JSON-encoded — so a classify
round-trip moves two memcpys, not a base64 codec.

Layout (little-endian)::

    b"EWF1" | u32 header_len | u16 n_blobs | u64 blob_len * n_blobs
            | header (JSON, utf-8) | blob bytes...

The wire format is an untrusted boundary in both directions (a worker
can be respawned mid-stream; a parent can die holding a half-written
frame), so :func:`recv_frame` validates everything before allocating:
bad magic, oversized headers/blobs, or a short read all raise
:class:`FrameError` immediately — a malformed peer can make us drop the
connection, never hang or balloon memory.

Numpy arrays ride as ``(spec, blob)`` pairs via :func:`pack_array` /
:func:`unpack_array`; dtypes are whitelisted so a hostile header cannot
smuggle object dtypes through ``np.frombuffer``.
"""

from __future__ import annotations

import json
import math
import socket
import struct

import numpy as np

MAGIC = b"EWF1"
_FIXED = struct.Struct("<4sIH")

#: Hard caps enforced before any allocation happens.
MAX_HEADER_BYTES = 8 * 1024 * 1024
MAX_BLOBS = 32
MAX_BLOB_BYTES = 512 * 1024 * 1024

#: Dtypes allowed across the boundary (object/str dtypes must not cross).
ARRAY_DTYPES = ("float32", "float64", "int8", "int32", "int64", "uint8", "bool")


class FrameError(Exception):
    """Malformed, truncated, or oversized frame — the stream is no
    longer trustworthy and the connection should be dropped."""


class ConnectionClosed(FrameError):
    """The peer closed the socket cleanly between frames."""


def send_frame(sock: socket.socket, header: dict, blobs: tuple = ()) -> None:
    """Write one frame; ``blobs`` is a sequence of ``bytes``-like."""
    if len(blobs) > MAX_BLOBS:
        raise FrameError(f"refusing to send {len(blobs)} blobs (max {MAX_BLOBS})")
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise FrameError(
            f"refusing to send {len(header_bytes)}-byte header "
            f"(max {MAX_HEADER_BYTES})"
        )
    parts = [
        _FIXED.pack(MAGIC, len(header_bytes), len(blobs)),
        struct.pack(f"<{len(blobs)}Q", *(len(b) for b in blobs)),
        header_bytes,
    ]
    parts.extend(bytes(b) for b in blobs)
    sock.sendall(b"".join(parts))


def _recv_exact(sock: socket.socket, n: int, *, start: bool = False) -> bytes:
    """Read exactly ``n`` bytes.  A clean EOF before the first byte of a
    frame is :class:`ConnectionClosed`; EOF mid-frame is a truncation."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if start and got == 0:
                raise ConnectionClosed("peer closed the connection")
            raise FrameError(f"truncated frame: expected {n} bytes, got {got}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[dict, list[bytes]]:
    """Read one frame; raises :class:`FrameError` on anything malformed
    and :class:`ConnectionClosed` on a clean EOF between frames."""
    fixed = _recv_exact(sock, _FIXED.size, start=True)
    magic, header_len, n_blobs = _FIXED.unpack(fixed)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if header_len > MAX_HEADER_BYTES:
        raise FrameError(f"oversized frame header ({header_len} bytes)")
    if n_blobs > MAX_BLOBS:
        raise FrameError(f"frame declares {n_blobs} blobs (max {MAX_BLOBS})")
    blob_lens = struct.unpack(
        f"<{n_blobs}Q", _recv_exact(sock, 8 * n_blobs)
    ) if n_blobs else ()
    for length in blob_lens:
        if length > MAX_BLOB_BYTES:
            raise FrameError(f"oversized frame blob ({length} bytes)")
    try:
        header = json.loads(_recv_exact(sock, header_len).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"unparseable frame header: {exc}")
    if not isinstance(header, dict):
        raise FrameError("frame header is not a JSON object")
    blobs = [_recv_exact(sock, length) for length in blob_lens]
    return header, blobs


# -- numpy transport -------------------------------------------------------


def pack_array(arr: np.ndarray) -> tuple[dict, bytes]:
    """``(spec, blob)`` for one array; the spec goes in the header, the
    blob in the frame's binary section."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.name not in ARRAY_DTYPES:
        raise FrameError(f"dtype {arr.dtype.name!r} not allowed on the wire")
    return {"dtype": arr.dtype.name, "shape": list(arr.shape)}, arr.tobytes()


def unpack_array(spec: dict, blob: bytes) -> np.ndarray:
    """Rebuild an array from its spec + blob, validating both."""
    try:
        dtype_name = spec["dtype"]
        shape = tuple(int(d) for d in spec["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"bad array spec {spec!r}: {exc}")
    if dtype_name not in ARRAY_DTYPES:
        raise FrameError(f"dtype {dtype_name!r} not allowed on the wire")
    if any(d < 0 for d in shape):
        raise FrameError(f"negative dimension in array shape {shape}")
    dtype = np.dtype(dtype_name)
    # Python ints: np.prod wraps in int64, letting a huge shape match.
    expected = math.prod(shape) * dtype.itemsize
    if len(blob) != expected:
        raise FrameError(
            f"array blob is {len(blob)} bytes; spec {spec!r} needs {expected}"
        )
    try:
        return np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
    except (ValueError, OverflowError) as exc:  # e.g. more dims than numpy allows
        raise FrameError(f"bad array spec {spec!r}: {exc}")
