"""Where a stacked batch runs: the placement seam under :class:`ModelServer`.

Everything about serving is placement-independent except the execution
of one stacked ``(n, *feature_shape)`` batch.  A *runner* is that one
difference; each cache partition (:class:`repro.serve.shard._Shard`)
owns one:

- ``build(graph)`` — what the partition caches as
  ``entry.model`` (called under the partition's cache lock, so exactly
  one model is built per miss);
- ``run(model, stacked)`` — one batched invoke, probability rows out;
- ``warm(model)`` / ``status()`` / ``close()`` — eager load, snapshot
  extras, teardown.

:class:`LocalRunner` executes in the calling thread (the ``thread``
placement); :class:`WorkerRunner` drives a worker *process*
(:mod:`repro.core.workers`) over the frame protocol, so invokes run on
real cores instead of time-slicing one GIL.  Both execute the same
compiled plan on the same stacked rows, so results are bit-identical.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.workers.client import (
    WorkerDied,
    WorkerError,
    WorkerHandle,
    WorkerPool,
)
from repro.core.workers.frames import pack_array, unpack_array
from repro.graph.serialize import graph_to_bytes
from repro.runtime.eon import EONModel
from repro.serve.shard import ServingError

#: Seconds a worker process may take over one ``load_model`` or
#: ``classify`` exchange before it is killed and the batch fails.
REQUEST_TIMEOUT_S = 120.0


class LocalRunner:
    """Compile in this process, invoke in the calling thread."""

    def build(self, graph) -> EONModel:
        return EONModel(graph)

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
    serialized graph to (re)hydrate it from, and the worker it was last
    loaded on — so a respawned worker (or one whose own LRU evicted the
    model) reloads it lazily on first use, not by an eager re-push."""

    __slots__ = ("model_id", "graph_blob", "loaded_on")

    def __init__(self, model_id: int, graph_blob: bytes):
        self.model_id = model_id
        self.graph_blob = graph_blob
        self.loaded_on: WorkerHandle | None = None


class WorkerRunner:
    """Invoke in a worker process: the shard's one-slot
    :class:`repro.core.workers.WorkerPool` spawns it lazily, respawns it
    after a death and counts the restarts.

    One ``load_model`` per model per worker lifetime (the worker
    rehydrates and *re-verifies* the serialized graph before compiling),
    then one ``classify`` frame per stacked batch.  The checkout
    serializes every exchange with the worker.  Crash semantics: the
    handle's heartbeat + receiver detect a dead worker, the in-flight
    batch fails with a clean :class:`ServingError` (callers never hang),
    and the next batch gets a fresh process that reloads models lazily.
    A model the worker's own LRU evicted is reloaded and the batch
    retried once.  Heartbeats use :class:`WorkerHandle`'s defaults; every
    exchange waits at most :data:`REQUEST_TIMEOUT_S`.
    """

    def __init__(self, name: str):
        self.name = name
        self._model_ids = itertools.count(1)
        self._pool = WorkerPool(1, name=name)

    def build(self, graph) -> _RemoteModel:
        return _RemoteModel(next(self._model_ids), graph_to_bytes(graph))

    def _load(self, handle: WorkerHandle, model: _RemoteModel) -> None:
        if model.loaded_on is not handle:
            handle.call(
                "load_model",
                {"model_id": model.model_id},
                (model.graph_blob,),
                timeout=REQUEST_TIMEOUT_S,
            )
            model.loaded_on = handle

    def warm(self, model: _RemoteModel) -> None:
        """Synchronously spawn the worker + compile this model in it."""
        handle = self._pool.acquire()
        try:
            self._load(handle, model)
        finally:
            self._pool.release(handle)

    def _classify(self, handle: WorkerHandle, model: _RemoteModel,
                  stacked: np.ndarray) -> np.ndarray:
        spec, blob = pack_array(stacked)
        params = {"model_id": model.model_id, "rows": spec}
        self._load(handle, model)
        try:
            result, out_blobs = handle.request(
                "classify", params, (blob,), timeout=REQUEST_TIMEOUT_S
            )
        except WorkerError as exc:
            if exc.remote_type != "LookupError":
                raise
            # The worker's own LRU evicted the model: reload, retry once.
            model.loaded_on = None
            self._load(handle, model)
            result, out_blobs = handle.request(
                "classify", params, (blob,), timeout=REQUEST_TIMEOUT_S
            )
        return unpack_array(result["probs"], out_blobs[0])

    def run(self, model: _RemoteModel, stacked: np.ndarray) -> np.ndarray:
        handle = None
        try:
            handle = self._pool.acquire()
            return self._classify(handle, model, stacked)
        except WorkerDied as exc:
            # The pool discards the dead worker on release, so the next
            # batch gets a fresh process.
            raise ServingError(
                f"{self.name} worker process died mid-request ({exc}); "
                f"it will be respawned"
            ) from exc
        except (WorkerError, ValueError, OSError) as exc:
            raise ServingError(
                f"{self.name} worker rejected the batch: {exc}"
            ) from exc
        finally:
            if handle is not None:
                self._pool.release(handle)

    def status(self) -> dict:
        workers = self._pool.workers()
        handle = workers[0] if workers else None
        return {
            "restarts": self._pool.restarts,
            "worker_pid": handle.pid if handle is not None else None,
            "worker_alive": handle is not None and handle.alive,
        }

    def close(self) -> None:
        self._pool.close()
