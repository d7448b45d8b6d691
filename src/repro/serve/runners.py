"""Where a stacked batch runs: the placement seam under :class:`ModelServer`.

Everything about serving is placement-independent except the execution
of one stacked ``(n, *feature_shape)`` batch.  A *runner* is that one
difference; each cache partition (:class:`repro.serve.shard._Shard`)
owns one:

- ``build(graph, engine)`` — what the partition caches as
  ``entry.model`` (called under the partition's cache lock, so exactly
  one model is built per miss);
- ``run(model, stacked)`` — one batched invoke, probability rows out;
- ``warm(model)`` / ``status()`` / ``close()`` — eager load, snapshot
  extras, teardown.

:class:`LocalRunner` executes in the calling thread (the ``inline`` and
``thread`` placements); :class:`WorkerRunner` drives a worker *process*
(:mod:`repro.core.workers`) over the frame protocol, so invokes run on
real cores instead of time-slicing one GIL.  Both execute the same
compiled plan on the same stacked rows, so results are bit-identical.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from repro.core.workers.client import WorkerDied, WorkerError, WorkerHandle
from repro.core.workers.frames import pack_array, unpack_array
from repro.graph.serialize import graph_to_bytes
from repro.runtime.eon import EONCompiler
from repro.runtime.interpreter import TFLMInterpreter
from repro.serve.shard import ServingError


class LocalRunner:
    """Compile in this process, invoke in the calling thread."""

    def build(self, graph, engine: str):
        """EON plan or TFLM interpreter — both execute a
        :class:`repro.runtime.executor.CompiledPlan`."""
        if engine == "eon":
            return EONCompiler().compile(graph)
        return TFLMInterpreter(graph)

    def run(self, model, stacked: np.ndarray) -> np.ndarray:
        return model.predict_proba(stacked)

    def warm(self, model) -> None:
        pass  # build() already compiled it

    def status(self) -> dict:
        return {"restarts": 0}

    def close(self) -> None:
        pass


class _RemoteModel:
    """Parent-side record of one model placed on a worker process: the
    serialized graph to (re)hydrate it from, and which worker incarnation
    has it compiled — so a respawn triggers a lazy reload on first use,
    not an eager re-push of every model."""

    __slots__ = ("model_id", "engine", "graph_blob", "loaded_session")

    def __init__(self, model_id: int, engine: str, graph_blob: bytes):
        self.model_id = model_id
        self.engine = engine
        self.graph_blob = graph_blob
        self.loaded_session = 0  # 0 == loaded nowhere yet


class WorkerRunner:
    """Invoke in a worker process, spawned lazily and respawned on death.

    One ``load_model`` per model per worker lifetime (the worker
    rehydrates and *re-verifies* the serialized graph before compiling),
    then one ``classify`` frame per stacked batch.  Crash semantics: the
    handle's heartbeat + receiver detect a dead worker, the in-flight
    batch fails with a clean :class:`ServingError` (callers never hang),
    and the next batch gets a fresh process that reloads models lazily.
    """

    def __init__(self, name: str, heartbeat_s: float,
                 heartbeat_timeout_s: float, request_timeout_s: float):
        self.name = name
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.request_timeout_s = request_timeout_s
        self._model_ids = itertools.count(1)
        # Worker interaction (spawn / load / classify) is serialized by
        # _io_lock.  Lock order is _io_lock -> the shard's _cond: never
        # call into a runner while holding _cond.
        self._io_lock = threading.Lock()
        self._handle: WorkerHandle | None = None  # guarded-by: _io_lock
        self._session = 0  # guarded-by: _io_lock (worker incarnation)
        self.restarts = 0  # guarded-by: _io_lock

    def build(self, graph, engine: str) -> _RemoteModel:
        return _RemoteModel(next(self._model_ids), engine, graph_to_bytes(graph))

    def _ensure_worker_io_locked(self) -> WorkerHandle:
        if self._handle is None or not self._handle.alive:
            if self._handle is not None:  # died idle (heartbeat noticed)
                self._handle.close()
                self.restarts += 1
            self._handle = WorkerHandle(
                name=self.name,
                heartbeat_s=self.heartbeat_s,
                heartbeat_timeout_s=self.heartbeat_timeout_s,
            )
            self._session += 1
        return self._handle

    def _ensure_loaded_io_locked(self, model: _RemoteModel) -> WorkerHandle:
        handle = self._ensure_worker_io_locked()
        if model.loaded_session != self._session:
            handle.call(
                "load_model",
                {"model_id": model.model_id, "engine": model.engine},
                (model.graph_blob,),
                timeout=self.request_timeout_s,
            )
            model.loaded_session = self._session
        return handle

    def warm(self, model: _RemoteModel) -> None:
        """Synchronously spawn the worker + compile this model in it."""
        with self._io_lock:
            self._ensure_loaded_io_locked(model)

    def run(self, model: _RemoteModel, stacked: np.ndarray) -> np.ndarray:
        with self._io_lock:
            try:
                handle = self._ensure_loaded_io_locked(model)
                spec, blob = pack_array(stacked)
                result, out_blobs = handle.request(
                    "classify", {"model_id": model.model_id, "rows": spec},
                    (blob,), timeout=self.request_timeout_s,
                )
                return unpack_array(result["probs"], out_blobs[0])
            except WorkerDied as exc:
                # The worker (or its spawn) is gone: fail this batch
                # cleanly and drop the handle so the next batch gets a
                # fresh process.
                if self._handle is not None:
                    self._handle.close()
                    self._handle = None
                    self.restarts += 1
                raise ServingError(
                    f"{self.name} worker process died mid-request ({exc}); "
                    f"it will be respawned"
                ) from exc
            except (WorkerError, ValueError, OSError) as exc:
                raise ServingError(
                    f"{self.name} worker rejected the batch: {exc}"
                ) from exc

    def status(self) -> dict:
        with self._io_lock:
            return {
                "restarts": self.restarts,
                "worker_pid": self._handle.pid if self._handle is not None else None,
                "worker_alive": self._handle is not None and self._handle.alive,
            }

    def close(self) -> None:
        with self._io_lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
