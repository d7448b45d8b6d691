"""Worker-process side of the execution plane.

A worker is one Python process running :class:`WorkerServer.serve` over
a single socket to its parent.  Two threads split the work so the
process stays observable while it computes:

- the **reader** thread owns ``recv``: control frames (``ping``,
  ``shutdown``) are answered inline, so heartbeats measure process
  liveness — a worker grinding through a 30 s tuner trial still pongs;
  task frames are queued for the executor;
- the **executor** thread runs task handlers strictly in arrival order
  and writes each response frame (writes are serialized by a lock
  shared with the reader).

Handlers rehydrate state from what crosses the wire — compiled plans
come from serialized graphs via :func:`repro.graph.serialize.
graph_from_bytes`, which re-verifies at the trust boundary — so a
respawned worker is indistinguishable from a fresh one.  A handler
exception becomes an ``ok: false`` response naming the exception type;
the connection survives.  A *protocol* error (garbage bytes, oversized
frame) cannot be survived — the stream has lost sync — so the worker
exits and the parent's dead-worker detection takes over.
"""

from __future__ import annotations

import queue
import socket
import threading
from collections import OrderedDict

import numpy as np

from repro.core.workers.frames import (
    ConnectionClosed,
    FrameError,
    pack_array,
    recv_frame,
    send_frame,
    unpack_array,
)

#: Compiled models a serving worker keeps before LRU-evicting.
MODEL_CACHE_SIZE = 16


class WorkerServer:
    """Request loop for one worker process (see module docstring)."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._wlock = threading.Lock()  # serializes send_frame on _sock
        self._tasks: queue.Queue = queue.Queue()
        self._stopping = threading.Event()
        # Handler state: compiled serving models + the rehydrated tuner.
        self._models: OrderedDict[int, dict] = OrderedDict()
        self._tuner = None
        self.handlers = {
            "load_model": self._handle_load_model,
            "classify": self._handle_classify,
            "tuner_init": self._handle_tuner_init,
            "run_trial": self._handle_run_trial,
            "sleep": self._handle_sleep,
            "echo": self._handle_echo,
        }

    # -- plumbing ----------------------------------------------------------

    def _respond(self, req_id, result: dict, blobs: tuple = ()) -> None:
        with self._wlock:
            send_frame(self._sock, {"id": req_id, "ok": True, "result": result}, blobs)

    def _respond_error(self, req_id, exc: BaseException) -> None:
        with self._wlock:
            send_frame(self._sock, {
                "id": req_id, "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            })

    def serve(self) -> None:
        """Run until the parent disconnects or sends ``shutdown``."""
        executor = threading.Thread(
            target=self._execute_loop, name="worker-executor", daemon=True
        )
        executor.start()
        try:
            while True:
                try:
                    header, blobs = recv_frame(self._sock)
                except ConnectionClosed:
                    break
                except FrameError:
                    # Out-of-sync stream: nothing after this byte can be
                    # trusted, so exit; the parent respawns us.
                    break
                req_id = header.get("id")
                method = header.get("method")
                if method == "ping":
                    self._respond(req_id, {"pong": True})
                elif method == "shutdown":
                    self._respond(req_id, {"stopping": True})
                    break
                else:
                    self._tasks.put((req_id, method, header.get("params") or {}, blobs))
        finally:
            self._stopping.set()
            self._tasks.put(None)  # unblock the executor
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def _execute_loop(self) -> None:
        while True:
            item = self._tasks.get()
            if item is None or self._stopping.is_set():
                return
            req_id, method, params, blobs = item
            handler = self.handlers.get(method)
            try:
                if handler is None:
                    raise ValueError(f"unknown worker method {method!r}")
                result, out_blobs = handler(params, blobs)
                self._respond(req_id, result, out_blobs)
            except BaseException as exc:  # noqa: BLE001 - isolate per request
                try:
                    self._respond_error(req_id, exc)
                except OSError:
                    return  # parent is gone; serve() is tearing down

    # -- serving handlers --------------------------------------------------

    def _handle_load_model(self, params: dict, blobs: list) -> tuple[dict, tuple]:
        """Rehydrate + compile one model from a serialized graph.

        ``blobs[0]`` is the graph blob; ``graph_from_bytes`` verifies it
        (shape/dtype/quant) before any plan is compiled.
        """
        from repro.graph.serialize import graph_from_bytes
        from repro.runtime.eon import EONCompiler
        from repro.runtime.interpreter import TFLMInterpreter

        model_id = int(params["model_id"])
        engine = params.get("engine", "eon")
        if not blobs:
            raise ValueError("load_model needs the graph blob")
        graph = graph_from_bytes(blobs[0])
        model = (
            EONCompiler().compile(graph)
            if engine == "eon"
            else TFLMInterpreter(graph)
        )
        self._models[model_id] = {"model": model}
        self._models.move_to_end(model_id)
        while len(self._models) > MODEL_CACHE_SIZE:
            self._models.popitem(last=False)
        input_shape = list(graph.tensors[graph.input_id].shape)
        return {"model_id": model_id, "input_shape": input_shape}, ()

    def _handle_classify(self, params: dict, blobs: list) -> tuple[dict, tuple]:
        """One batched invoke: stacked rows in, probability rows out."""
        model_id = int(params["model_id"])
        entry = self._models.get(model_id)
        if entry is None:
            # LookupError: the parent tells an evicted model (reload it)
            # from a bad request by the exception type.
            raise LookupError(f"model {model_id} is not loaded in this worker")
        self._models.move_to_end(model_id)
        if not blobs:
            raise ValueError("classify needs the feature blob")
        rows = unpack_array(params["rows"], blobs[0])
        probs = np.asarray(entry["model"].predict_proba(rows))
        if len(probs) != len(rows):
            raise ValueError(
                f"model returned {len(probs)} probability row(s) for a "
                f"batch of {len(rows)}"
            )
        spec, blob = pack_array(probs)
        return {"probs": spec}, (blob,)

    # -- tuner handlers ----------------------------------------------------

    def _handle_tuner_init(self, params: dict, blobs: list) -> tuple[dict, tuple]:
        """Rehydrate the tuner's evaluation context (raw windows, labels,
        constraints, train config) — sent once per worker lifetime."""
        from repro.automl.tuner import EonTuner, TunerConstraints

        if len(blobs) < 2:
            raise ValueError("tuner_init needs raw-window and label blobs")
        raw = unpack_array(params["raw"], blobs[0])
        labels = unpack_array(params["labels"], blobs[1])
        self._tuner = EonTuner(
            raw, labels, space=None,
            constraints=TunerConstraints(**params["constraints"]),
            precision=params.get("precision", "float32"),
            engine=params.get("engine", "tflm"),
            train_epochs=int(params.get("train_epochs", 12)),
            batch_size=int(params.get("batch_size", 16)),
            val_fraction=float(params.get("val_fraction", 0.25)),
        )
        return {"windows": int(len(raw))}, ()

    def _handle_run_trial(self, params: dict, blobs: list) -> tuple[dict, tuple]:
        """Evaluate one (dsp_spec, model_spec, seed) trial; the result is
        the :class:`TunerTrial` as a JSON dict (floats round-trip
        bit-exactly through JSON's repr encoding)."""
        from dataclasses import asdict

        if self._tuner is None:
            raise ValueError("run_trial before tuner_init")
        trial = self._tuner._evaluate_trial(
            params["dsp_spec"], params["model_spec"],
            seed=int(params.get("seed", 0)),
        )
        return {"trial": asdict(trial)}, ()

    # -- test/diagnostic handlers ------------------------------------------

    def _handle_sleep(self, params: dict, blobs: list) -> tuple[dict, tuple]:
        """Occupy the executor thread (tests stage in-flight work with it;
        pings still pong from the reader while it runs)."""
        import time

        time.sleep(float(params.get("s", 0.1)))
        return {"slept": float(params.get("s", 0.1))}, ()

    def _handle_echo(self, params: dict, blobs: list) -> tuple[dict, tuple]:
        return {"params": params, "n_blobs": len(blobs)}, tuple(blobs)


def worker_main(sock: socket.socket) -> None:
    """Entry point used by ``python -m repro.core.workers``."""
    WorkerServer(sock).serve()
