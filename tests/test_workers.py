"""Worker-process plumbing: frame protocol, handles, pools, heartbeats."""

import os
import socket
import struct
import threading

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


def test_worker_answers_pings_while_busy(worker):
    """The reader thread pongs while the executor runs a long task, so
    heartbeats measure liveness, not busyness."""
    busy = worker.request_nowait("sleep", {"s": 1.0})
    result, _ = worker.request("ping", timeout=5.0)
    assert result.get("pong") is True
    assert busy.ready.wait(10.0)
    assert busy.error is None


def test_killed_worker_fails_all_inflight_requests_quickly():
    with WorkerHandle(name="doomed") as handle:
        replies = [handle.request_nowait("sleep", {"s": 30.0}) for _ in range(3)]
        handle.process.kill()
        for reply in replies:
            assert reply.ready.wait(10.0), "in-flight request hung after kill"
            assert isinstance(reply.error, WorkerDied)
        assert not handle.alive
        with pytest.raises(WorkerDied):
            handle.request("echo")


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
