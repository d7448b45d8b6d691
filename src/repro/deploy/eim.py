"""EIM — the Linux process-runner deployment (paper Sec. 4.6, ei2 2022b).

On real hardware an ``.eim`` file is a native binary exposing an I/O
protocol (JSON over a socket) that any language can drive.  Here the bundle
is the serialized graph + impulse config, and :class:`EIMRunner` implements
the same request/response protocol in-process: ``hello``, ``classify``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.deploy.artifact import Artifact
from repro.graph.graph import Graph
from repro.graph.serialize import graph_from_bytes, graph_to_bytes
from repro.runtime.eon import EONCompiler


def build_eim(
    graph: Graph,
    impulse,
    label_map: dict[str, int],
    engine: str = "eon",
    project_name: str = "project",
) -> Artifact:
    artifact = Artifact(target="eim", project_name=project_name)
    labels = [l for l, _ in sorted(label_map.items(), key=lambda kv: kv[1])]
    header = {
        "project": project_name,
        "engine": engine,
        "labels": labels,
        "impulse": impulse.to_dict(),
    }
    artifact.files["model.eim"] = (
        json.dumps(header, sort_keys=True).encode() + b"\x00" + graph_to_bytes(graph)
    )
    artifact.metadata = {"engine": engine, "precision": graph.dtype}
    return artifact


class EIMBundle:
    """Parsed .eim file."""

    def __init__(self, header: dict, graph: Graph):
        self.header = header
        self.graph = graph

    @staticmethod
    def load(payload: bytes) -> "EIMBundle":
        sep = payload.index(b"\x00")
        header = json.loads(payload[:sep].decode())
        graph = graph_from_bytes(payload[sep + 1 :])
        return EIMBundle(header, graph)


class EIMRunner:
    """The process-runner protocol: JSON request in, JSON response out."""

    def __init__(self, bundle: EIMBundle):
        self.bundle = bundle
        self._model = EONCompiler().compile(bundle.graph)
        from repro.core.impulse import Impulse

        self._impulse = Impulse.from_dict(bundle.header["impulse"])

    def handle(self, request: dict) -> dict:
        """Protocol entry point; a malformed request gets ``success: false``."""
        if not isinstance(request, dict):
            return {"success": False, "error": "request must be a JSON object"}
        kind = request.get("type")
        if kind == "hello":
            return {
                "success": True,
                "project": self.bundle.header["project"],
                "labels": self.bundle.header["labels"],
                "engine": self.bundle.header["engine"],
            }
        if kind == "classify":
            expected = tuple(self._impulse.feature_shape())
            features = request.get("features")
            try:
                if not isinstance(features, list):
                    raise TypeError("features must be a list")
                features = np.asarray(features, dtype=np.float32).reshape((1,) + expected)
            except (TypeError, ValueError):
                n = int(np.prod(expected))
                return {"success": False, "error": f"expected a list of {n} numeric features"}
            probs = self._model.predict_proba(features)[0]
            labels = self.bundle.header["labels"]
            return {
                "success": True,
                "result": {
                    "classification": {
                        label: float(p) for label, p in zip(labels, probs)
                    }
                },
            }
        return {"success": False, "error": f"unknown request type {kind!r}"}

    def classify_raw(self, raw_window: np.ndarray) -> dict:
        """Convenience: run the DSP block here (as the Linux SDK does) and
        classify."""
        feats = self._impulse.features_for_window(np.asarray(raw_window, np.float32))
        return self.handle({"type": "classify", "features": feats.reshape(-1).tolist()})
