"""Parent-side handles for worker processes.

:class:`WorkerHandle` owns one worker: it spawns ``python -m
repro.core.workers`` connected over a ``socket.socketpair``, multiplexes
request/response frames by correlation id (a receiver thread resolves
waiters, so any number of caller threads can share one handle), and runs
a heartbeat that distinguishes *dead* from *busy* — pings are answered
by the worker's reader thread even while a long task runs, so a missed
pong means the process is gone or wedged and the handle kills it.

Failure semantics are uniform: once anything breaks the stream (EOF,
protocol error, missed heartbeat, request timeout) the handle is
**dead** — every in-flight and future request raises
:class:`WorkerDied`, immediately and exactly once.  Handles are cheap to
replace; :class:`WorkerPool` does exactly that, respawning (and
re-initializing) dead workers on checkout so callers only ever see live
ones.
"""

from __future__ import annotations

import pathlib
import socket
import subprocess
import sys
import threading
import time

from repro.core.workers.frames import FrameError, recv_frame, send_frame


class WorkerError(RuntimeError):
    """A handler raised inside the worker; the worker itself is fine."""

    def __init__(self, remote_type: str, message: str):
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


class WorkerDied(RuntimeError):
    """The worker process died (or its stream broke) with requests
    outstanding; the handle is permanently dead."""


class _Reply:
    """One in-flight request's parking spot."""

    __slots__ = ("ready", "result", "blobs", "error")

    def __init__(self):
        self.ready = threading.Event()
        self.result: dict | None = None
        self.blobs: list[bytes] = []
        self.error: Exception | None = None

    def resolve(self, result=None, blobs=None, error=None) -> None:
        self.result = result
        self.blobs = blobs or []
        self.error = error
        self.ready.set()


#: One BLAS thread per worker unless the operator exported otherwise: N
#: workers each starting a thread per core oversubscribe the host (it
#: made batched float32 serving bimodal, 14-19 vs ~40 ops/s on 2 cores).
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict:
    """Child environment with the repro package importable (the test
    runner sets PYTHONPATH=src relative to its own cwd; the child must
    not depend on where *it* starts) and single-threaded BLAS by
    default; an exported value wins."""
    import os

    import repro

    env = dict(os.environ)
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            pkg_root + (os.pathsep + existing if existing else "")
        )
    for var in _BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


class WorkerHandle:
    """Spawn + drive one worker process (see module docstring)."""

    def __init__(
        self,
        name: str = "worker",
        heartbeat_s: float = 5.0,
        heartbeat_timeout_s: float = 15.0,
    ):
        self.name = name
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._lock = threading.Lock()
        self._pending: dict[int, _Reply] = {}  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock
        self._send_lock = threading.Lock()  # serializes send_frame
        self._dead = threading.Event()
        self._stop_heartbeat = threading.Event()

        parent_sock, child_sock = socket.socketpair()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.core.workers",
                 "--fd", str(child_sock.fileno())],
                pass_fds=(child_sock.fileno(),),
                env=_worker_env(),
            )
        except Exception:
            parent_sock.close()
            raise
        finally:
            child_sock.close()
        self._sock = parent_sock
        self._receiver = threading.Thread(
            target=self._receive_loop, name=f"{name}-recv", daemon=True
        )
        self._receiver.start()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name=f"{name}-beat", daemon=True
        )
        self._heartbeat.start()

    # -- liveness ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self._dead.is_set() and self.process.poll() is None

    @property
    def pid(self) -> int:
        return self.process.pid

    def _mark_dead(self, reason: str) -> None:
        """Fail every in-flight request and refuse future ones."""
        if self._dead.is_set():
            return
        self._dead.set()
        self._stop_heartbeat.set()
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for reply in pending:
            reply.resolve(error=WorkerDied(f"{self.name}: {reason}"))
        try:
            self.process.kill()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # -- request plumbing --------------------------------------------------

    def _receive_loop(self) -> None:
        while True:
            try:
                header, blobs = recv_frame(self._sock)
            except (FrameError, OSError):
                self._mark_dead("worker process disconnected")
                return
            with self._lock:
                reply = self._pending.pop(header.get("id"), None)
            if reply is None:
                continue  # a timed-out request's late answer
            if header.get("ok"):
                reply.resolve(result=header.get("result"), blobs=blobs)
            else:
                err = header.get("error") or {}
                reply.resolve(error=WorkerError(
                    err.get("type", "Exception"), err.get("message", "")
                ))

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self.heartbeat_s):
            if not self.alive:
                return
            try:
                self.request("ping", timeout=self.heartbeat_timeout_s)
            except (WorkerDied, WorkerError):
                return  # request() already marked us dead (or worker said no)

    def request_nowait(self, method: str, params: dict | None = None,
                       blobs: tuple = ()) -> _Reply:
        """Send one request; returns the :class:`_Reply` to wait on."""
        reply = _Reply()
        if self._dead.is_set():
            reply.resolve(error=WorkerDied(f"{self.name}: worker is dead"))
            return reply
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
            self._pending[req_id] = reply
        header = {"id": req_id, "method": method, "params": params or {}}
        try:
            with self._send_lock:
                send_frame(self._sock, header, blobs)
        except (FrameError, OSError):
            self._mark_dead("send to worker failed")
        return reply

    def request(self, method: str, params: dict | None = None,
                blobs: tuple = (), timeout: float | None = 60.0):
        """Round-trip one request; returns ``(result, blobs)``.

        Raises :class:`WorkerError` for a handler exception (worker still
        healthy) and :class:`WorkerDied` for anything that breaks the
        worker — including a timeout, which kills it: a worker whose
        answers we can no longer attribute is replaced, not trusted.
        """
        reply = self.request_nowait(method, params, blobs)
        if not reply.ready.wait(timeout):
            self._mark_dead(f"request {method!r} timed out after {timeout}s")
            raise WorkerDied(f"{self.name}: request {method!r} timed out")
        if reply.error is not None:
            raise reply.error
        return reply.result, reply.blobs

    def call(self, method: str, params: dict | None = None,
             blobs: tuple = (), timeout: float | None = 60.0) -> dict:
        """``request`` returning just the JSON result."""
        return self.request(method, params, blobs, timeout)[0]

    # -- lifecycle ---------------------------------------------------------

    def close(self, timeout: float = 2.0) -> None:
        """Ask the worker to exit; escalate to SIGKILL if it dawdles."""
        self._stop_heartbeat.set()
        if self.alive:
            try:
                self.request("shutdown", timeout=timeout)
            except (WorkerDied, WorkerError):
                pass
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=timeout)
        self._mark_dead("worker closed")

    def __enter__(self) -> "WorkerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class WorkerPool:
    """A fixed-size pool of interchangeable workers with respawn.

    Workers spawn lazily on first checkout.  ``initializer(handle)``
    runs once per worker *lifetime* (so a respawned worker is re-primed
    — e.g. the tuner pool re-sends its dataset).  ``restarts`` counts
    replaced workers; :meth:`workers` lists the current ones, checked
    out or not.
    """

    def __init__(self, size: int, initializer=None, name: str = "pool",
                 **handle_kwargs):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.name = name
        self.initializer = initializer
        self.handle_kwargs = handle_kwargs
        self.restarts = 0  # guarded-by: _cond
        self._cond = threading.Condition()
        self._free: list[WorkerHandle] = []  # guarded-by: _cond
        self._workers: list[WorkerHandle] = []  # guarded-by: _cond (spawned, not yet discarded)
        self._spawned = 0  # guarded-by: _cond (live + being-spawned slots)
        self._closed = False  # guarded-by: _cond

    def _spawn(self, index: int) -> WorkerHandle:
        handle = WorkerHandle(
            name=f"{self.name}-{index}", **self.handle_kwargs
        )
        try:
            if self.initializer is not None:
                self.initializer(handle)
        except BaseException:
            handle.close()
            raise
        return handle

    def acquire(self, timeout: float | None = None) -> WorkerHandle:
        """Check out a live worker, respawning a dead one if needed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError(f"pool {self.name} is closed")
                while self._free:
                    handle = self._free.pop()
                    if handle.alive:
                        return handle
                    # Discard the corpse; its slot frees up for a respawn.
                    self._discard_locked(handle)
                if self._spawned < self.size:
                    self._spawned += 1
                    index = self._spawned + self.restarts
                    break
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                if not self._cond.wait(timeout=remaining):
                    raise TimeoutError(f"no free worker in pool {self.name}")
        try:
            handle = self._spawn(index)
        except BaseException:
            with self._cond:
                self._spawned -= 1
                self._cond.notify()
            raise
        with self._cond:
            self._workers.append(handle)
        return handle

    def _discard_locked(self, handle: WorkerHandle) -> None:
        self._spawned -= 1
        self._workers.remove(handle)
        if not self._closed:
            self.restarts += 1

    def release(self, handle: WorkerHandle) -> None:
        with self._cond:
            discard = self._closed or not handle.alive
            if discard:
                self._discard_locked(handle)
            else:
                self._free.append(handle)
            self._cond.notify()
        if discard:
            handle.close()

    def workers(self) -> list[WorkerHandle]:
        """The pool's current workers, free or checked out (a dead one
        stays listed until the pool discards it); never spawns."""
        with self._cond:
            return list(self._workers)

    def run(self, method: str, params: dict | None = None, blobs: tuple = (),
            timeout: float | None = 600.0):
        """Checkout → request → return; :class:`WorkerDied` propagates to
        the caller (whose retry budget, e.g. a job's, decides what next —
        the pool just makes sure the next checkout gets a fresh worker)."""
        handle = self.acquire()
        try:
            return handle.request(method, params, blobs, timeout=timeout)
        finally:
            self.release(handle)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            stragglers = list(self._free)
            self._free.clear()
            for handle in stragglers:
                self._discard_locked(handle)
            self._cond.notify_all()
        for handle in stragglers:
            handle.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
