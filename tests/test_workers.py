"""Worker-process plumbing: frame protocol, handles, pools."""

import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.workers import (
    ConnectionClosed,
    FrameError,
    WorkerDied,
    WorkerError,
    WorkerHandle,
    WorkerPool,
    pack_array,
    recv_frame,
    send_frame,
    unpack_array,
)
from repro.core.workers.frames import MAGIC, MAX_BLOBS, MAX_HEADER_BYTES


def _pair():
    return socket.socketpair()


# -- frame protocol ---------------------------------------------------------


def test_frame_round_trip_with_blobs():
    a, b = _pair()
    payload = np.arange(24, dtype=np.float32).reshape(4, 6)
    spec, blob = pack_array(payload)
    send_frame(a, {"id": 7, "method": "classify", "rows": spec}, (blob, b"raw"))
    header, blobs = recv_frame(b)
    assert header["id"] == 7 and header["method"] == "classify"
    assert blobs[1] == b"raw"
    restored = unpack_array(header["rows"], blobs[0])
    np.testing.assert_array_equal(restored, payload)
    a.close(), b.close()


def test_pack_array_round_trips_every_dtype_bit_exactly():
    rng = np.random.default_rng(3)
    for dtype in ("float32", "float64", "int8", "int32", "int64", "uint8", "bool"):
        arr = (rng.standard_normal((3, 5)) * 100).astype(dtype)
        spec, blob = pack_array(arr)
        restored = unpack_array(spec, blob)
        assert restored.dtype == arr.dtype
        np.testing.assert_array_equal(restored, arr)


def test_clean_eof_at_frame_start_is_connection_closed():
    a, b = _pair()
    a.close()
    with pytest.raises(ConnectionClosed):
        recv_frame(b)
    b.close()


def test_mid_frame_eof_is_a_frame_error():
    a, b = _pair()
    a.sendall(MAGIC + b"\x01")  # a torn fixed header
    a.close()
    with pytest.raises(FrameError, match="truncated"):
        recv_frame(b)
    b.close()


@pytest.mark.parametrize("garbage", [
    b"HTTP/1.1 200 OK\r\n\r\n" + b"\x00" * 16,   # wrong protocol entirely
    b"EWF9" + b"\x00" * 16,                       # wrong magic version
    struct.pack("<4sIH", MAGIC, MAX_HEADER_BYTES + 1, 0),   # header too big
    struct.pack("<4sIH", MAGIC, 16, MAX_BLOBS + 1),         # too many blobs
    struct.pack("<4sIH", MAGIC, 2, 0) + b"{}",              # 2-byte header? ok...
])
def test_fuzzed_garbage_frames_raise_frame_error_not_hang(garbage):
    """Malformed bytes on the wire fail fast with FrameError (caps are
    checked before allocation) — they never hang or OOM the reader."""
    a, b = _pair()
    a.sendall(garbage)
    a.close()
    try:
        header, blobs = recv_frame(b)
        # The one well-formed case above ("{}") must parse as empty JSON.
        assert header == {} and blobs == []
    except (FrameError, ConnectionClosed):
        pass
    b.close()


def test_fuzz_truncations_of_a_valid_frame_never_hang():
    """Every proper prefix of a valid frame raises FrameError or
    ConnectionClosed — the reader can't block on a half-sent message."""
    probe_a, probe_b = _pair()
    spec, blob = pack_array(np.ones(4, dtype=np.float32))
    send_frame(probe_a, {"id": 1, "method": "echo", "x": spec}, (blob,))
    wire = probe_b.recv(1 << 20)
    probe_a.close(), probe_b.close()

    for cut in range(0, len(wire), max(1, len(wire) // 17)):
        a, b = _pair()
        a.sendall(wire[:cut])
        a.close()
        with pytest.raises((FrameError, ConnectionClosed)):
            recv_frame(b)
        b.close()
    # ... and the full frame still round-trips.
    a, b = _pair()
    a.sendall(wire)
    header, blobs = recv_frame(b)
    assert header["method"] == "echo"
    a.close(), b.close()


def test_unpack_array_validates_spec_against_blob():
    spec, blob = pack_array(np.ones((2, 3), dtype=np.float32))
    with pytest.raises(FrameError):
        unpack_array({**spec, "shape": [2, 4]}, blob)  # size mismatch
    with pytest.raises(FrameError):
        unpack_array({**spec, "dtype": "complex128"}, blob)  # not whitelisted
    # Specs numpy cannot honour: a size that wraps int64 (2**64 * 4
    # bytes reads 0 there), too many dimensions, a dimension past int64.
    for shape, blob in (([2**32, 2**32], b""), ([1] * 65, b"\0" * 4),
                        ([0, 2**70], b"")):
        with pytest.raises(FrameError):
            unpack_array({**spec, "shape": shape}, blob)


# -- worker environment -----------------------------------------------------


def test_worker_env_defaults_blas_to_one_thread_and_exports_win(monkeypatch):
    """N workers must not each start a BLAS thread per core; a value the
    operator exported is left alone."""
    from repro.core.workers.client import _worker_env

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    env = _worker_env()
    assert [env[name] for name in names] == ["1", "1", "1"]
    assert not any(name in os.environ for name in names)  # the parent is not touched
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    env = _worker_env()
    assert env["OPENBLAS_NUM_THREADS"] == "4" and env["OMP_NUM_THREADS"] == "1"


# -- worker handles ---------------------------------------------------------


@pytest.fixture(scope="module")
def worker():
    with WorkerHandle(name="test-worker") as handle:
        yield handle


def test_worker_echo_round_trip(worker):
    result, blobs = worker.request("echo", {"x": 1}, (b"blob-a", b"blob-b"))
    assert result["params"] == {"x": 1}
    assert result["n_blobs"] == 2
    assert blobs == [b"blob-a", b"blob-b"]


def test_worker_unknown_method_is_worker_error_not_death(worker):
    with pytest.raises(WorkerError, match="no-such-method"):
        worker.call("no-such-method")
    assert worker.alive  # a handler error never kills the worker
    assert worker.call("echo")["n_blobs"] == 0


def test_killed_worker_fails_the_inflight_exchange_quickly():
    with WorkerHandle(name="doomed") as handle:
        killer = threading.Timer(0.3, handle.process.kill)
        killer.start()
        start = time.monotonic()
        with pytest.raises(WorkerDied):
            handle.request("sleep", {"s": 30.0})
        assert time.monotonic() - start < 5.0, "in-flight exchange hung after kill"
        killer.join()
        assert not handle.alive
        start = time.monotonic()
        with pytest.raises(WorkerDied):
            handle.request("echo")
        assert time.monotonic() - start < 0.5


def test_exchange_past_its_timeout_kills_the_worker():
    with WorkerHandle(name="slow") as handle:
        start = time.monotonic()
        with pytest.raises(WorkerDied, match="timed out"):
            handle.request("sleep", {"s": 5.0}, timeout=0.3)
        assert time.monotonic() - start < 3.0
        assert not handle.alive
        assert handle.process.wait(timeout=5.0) is not None  # killed


def test_threads_sharing_a_handle_each_get_their_own_reply(worker):
    results = {}

    def call(i):
        results[i] = worker.request("echo", {"i": i}, (bytes([i]) * (i + 1),))

    threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10.0)
    for i in range(8):
        result, blobs = results[i]
        assert result["params"] == {"i": i}
        assert blobs == [bytes([i]) * (i + 1)]


def test_a_handle_starts_no_thread():
    before = threading.active_count()
    with WorkerHandle(name="threadless") as handle:
        handle.call("echo")
        handle.call("sleep", {"s": 0.01})
        assert threading.active_count() == before
    assert threading.active_count() == before


def test_pool_respawns_dead_workers_and_counts_restarts():
    primed = []
    pool = WorkerPool(
        size=1, initializer=lambda h: primed.append(h.pid), name="respawn"
    )
    with pool:
        first, _ = pool.run("echo", {"gen": 1})
        handle = pool.acquire()
        pid = handle.pid
        handle.process.kill()
        handle.process.wait(timeout=10)
        pool.release(handle)  # dead on release -> slot freed, restart counted
        assert pool.restarts == 1
        second, _ = pool.run("echo", {"gen": 2})
        assert second["params"] == {"gen": 2}
        # The initializer ran once per worker lifetime, on distinct pids.
        assert len(primed) == 2 and primed[0] != primed[1]
        assert primed[0] == pid


def test_pool_run_shares_one_worker_across_threads():
    pool = WorkerPool(size=2, name="shared")
    results = {}
    with pool:
        def call(i):
            results[i], _ = pool.run("echo", {"i": i})

        threads = [threading.Thread(target=call, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert sorted(r["params"]["i"] for r in results.values()) == list(range(6))
