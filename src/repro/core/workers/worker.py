"""Worker-process side of the execution plane.

A worker is one Python process running :class:`WorkerServer.serve` over
a single socket to its parent, in one thread: receive a frame, run its
handler, reply — then the next frame.  The parent sends one frame at a
time and waits for its reply, so there is never a second frame to
interleave.

Handlers rehydrate state from what crosses the wire — compiled plans
come from serialized graphs via :func:`repro.graph.serialize.
graph_from_bytes`, which re-verifies at the trust boundary — so a
respawned worker is indistinguishable from a fresh one.  A handler
exception becomes an ``ok: false`` response naming the exception type;
the connection survives.  ``shutdown`` replies, then the loop ends.  A
*protocol* error (garbage bytes, oversized frame) cannot be survived —
the stream has lost sync — so the worker exits and the parent sees the
connection drop; so does a reply that :func:`send_frame` refuses to
encode.
"""

from __future__ import annotations

import socket
from collections import OrderedDict

import numpy as np

from repro.core.workers.frames import (
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
            "shutdown": lambda params, blobs: ({"stopping": True}, ()),
        }

    def _answer(self, header: dict, blobs: list) -> tuple[dict, tuple]:
        """Run one frame's handler: the reply frame's header and blobs."""
        req_id = header.get("id")
        method = header.get("method")
        try:
            handler = self.handlers.get(method)
            if handler is None:
                raise ValueError(f"unknown worker method {method!r}")
            result, out_blobs = handler(header.get("params") or {}, blobs)
        except BaseException as exc:  # noqa: BLE001 - isolate per request
            return {
                "id": req_id, "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }, ()
        return {"id": req_id, "ok": True, "result": result}, out_blobs

    def serve(self) -> None:
        """Run until the parent disconnects or sends ``shutdown``."""
        try:
            while True:
                try:
                    header, blobs = recv_frame(self._sock)
                except FrameError:
                    # EOF, or an out-of-sync stream: nothing after this
                    # byte can be trusted, so exit; the parent respawns us.
                    return
                send_frame(self._sock, *self._answer(header, blobs))
                if header.get("method") == "shutdown":
                    return
        except OSError:
            return  # the parent is gone
        finally:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    # -- serving handlers --------------------------------------------------

    def _handle_load_model(self, params: dict, blobs: list) -> tuple[dict, tuple]:
        """Rehydrate + compile one model from a serialized graph.

        ``blobs[0]`` is the graph blob; ``graph_from_bytes`` verifies it
        (shape/dtype/quant) before any plan is compiled.
        """
        from repro.graph.serialize import graph_from_bytes
        from repro.runtime.eon import EONModel

        model_id = int(params["model_id"])
        if not blobs:
            raise ValueError("load_model needs the graph blob")
        graph = graph_from_bytes(blobs[0])
        model = EONModel(graph)
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
        """Occupy the worker (tests stage an in-flight exchange with it)."""
        import time

        time.sleep(float(params.get("s", 0.1)))
        return {"slept": float(params.get("s", 0.1))}, ()

    def _handle_echo(self, params: dict, blobs: list) -> tuple[dict, tuple]:
        return {"params": params, "n_blobs": len(blobs)}, tuple(blobs)


def worker_main(sock: socket.socket) -> None:
    """Entry point used by ``python -m repro.core.workers``."""
    WorkerServer(sock).serve()
