"""Parent-side handles for worker processes.

:class:`WorkerHandle` owns one worker: it spawns ``python -m
repro.core.workers`` connected over a ``socket.socketpair``, and each
:meth:`~WorkerHandle.request` is one exchange done in the calling
thread — send a frame, read the reply frame.  A lock per handle lets
any number of threads share it; their exchanges run one after another,
as the worker serves them.  The handle starts no thread.

Failure semantics are uniform: once anything breaks the stream (EOF,
protocol error, a reply for another request, request timeout) the
handle is **dead** — its process is killed, the exchange raises
:class:`WorkerDied`, and so does every later request, at once.  Handles
are cheap to replace; :class:`WorkerPool` does exactly that, respawning
(and re-initializing) dead workers on checkout so callers only ever see
live ones.
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
    """The worker process died (or its stream broke) during or before
    an exchange; the handle is permanently dead."""


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

    def __init__(self, name: str = "worker"):
        self.name = name
        self._lock = threading.Lock()  # one exchange at a time
        self._next_id = 1  # guarded-by: _lock
        self._dead = False

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

    # -- liveness ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self._dead and self.process.poll() is None

    @property
    def pid(self) -> int:
        return self.process.pid

    def _mark_dead(self, reason: str) -> WorkerDied:
        """Kill the process, drop the stream; the error to raise."""
        self._dead = True
        try:
            self.process.kill()
        except OSError:
            pass
        self._sock.close()
        return WorkerDied(f"{self.name}: {reason}")

    # -- exchanges ---------------------------------------------------------

    def _exchange_locked(self, method: str, params: dict | None,
                         blobs: tuple, timeout: float | None):
        if self._dead:
            raise WorkerDied(f"{self.name}: worker is dead")
        req_id = self._next_id
        self._next_id += 1
        try:
            self._sock.settimeout(timeout)
            send_frame(
                self._sock,
                {"id": req_id, "method": method, "params": params or {}},
                blobs,
            )
            header, out_blobs = recv_frame(self._sock)
        except TimeoutError:
            raise self._mark_dead(
                f"request {method!r} timed out after {timeout}s"
            ) from None
        except (FrameError, OSError) as exc:
            raise self._mark_dead(f"worker stream broke ({exc})") from None
        if header.get("id") != req_id:
            raise self._mark_dead(
                f"reply for request {header.get('id')!r}, expected {req_id}"
            )
        if not header.get("ok"):
            err = header.get("error") or {}
            raise WorkerError(err.get("type", "Exception"), err.get("message", ""))
        return header.get("result"), out_blobs

    def request(self, method: str, params: dict | None = None,
                blobs: tuple = (), timeout: float | None = 60.0):
        """Round-trip one request; returns ``(result, blobs)``.

        Raises :class:`WorkerError` for a handler exception (worker still
        healthy) and :class:`WorkerDied` for anything that breaks the
        worker — including no reply within ``timeout`` seconds, which
        kills it: a worker whose answers we can no longer attribute is
        replaced, not trusted.
        """
        with self._lock:
            return self._exchange_locked(method, params, blobs, timeout)

    def call(self, method: str, params: dict | None = None,
             blobs: tuple = (), timeout: float | None = 60.0) -> dict:
        """``request`` returning just the JSON result."""
        return self.request(method, params, blobs, timeout)[0]

    # -- lifecycle ---------------------------------------------------------

    def close(self, timeout: float = 2.0) -> None:
        """Ask the worker to exit; kill it if another thread's exchange
        holds it past ``timeout`` or it dawdles over exiting."""
        if self._lock.acquire(timeout=timeout):
            try:
                if self.alive:
                    self._exchange_locked("shutdown", None, (), timeout)
            except (WorkerDied, WorkerError):
                pass
            finally:
                self._lock.release()
        else:
            self.process.kill()
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

    def __init__(self, size: int, initializer=None, name: str = "pool"):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.name = name
        self.initializer = initializer
        self.restarts = 0  # guarded-by: _cond
        self._cond = threading.Condition()
        self._free: list[WorkerHandle] = []  # guarded-by: _cond
        self._workers: list[WorkerHandle] = []  # guarded-by: _cond (spawned, not yet discarded)
        self._spawned = 0  # guarded-by: _cond (live + being-spawned slots)
        self._closed = False  # guarded-by: _cond

    def _spawn(self, index: int) -> WorkerHandle:
        handle = WorkerHandle(name=f"{self.name}-{index}")
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
