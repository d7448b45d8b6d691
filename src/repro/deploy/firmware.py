"""Firmware images for the virtual device fleet.

A firmware image bundles the impulse, the compiled model and a version
stamp; :mod:`repro.device` flashes these onto virtual devices (including
over-the-air, the SlateSafety workflow of Sec. 8.2).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.data.dataset import ordered_labels
from repro.deploy.artifact import Artifact
from repro.graph.graph import Graph
from repro.graph.serialize import graph_from_bytes, graph_to_bytes


@dataclass
class FirmwareImage:
    """Flashable bundle for a virtual device."""

    project_name: str
    version: str
    impulse_spec: dict
    labels: list[str]
    graph_blob: bytes
    engine: str

    @property
    def size_bytes(self) -> int:
        return len(self.graph_blob) + len(json.dumps(self.impulse_spec))

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(self.graph_blob)
        h.update(json.dumps(self.impulse_spec, sort_keys=True).encode())
        return h.hexdigest()[:12]

    def load_graph(self) -> Graph:
        return graph_from_bytes(self.graph_blob)


def build_firmware(
    graph: Graph,
    impulse,
    label_map: dict[str, int],
    engine: str = "eon",
    project_name: str = "project",
) -> Artifact:
    labels = ordered_labels(label_map)
    image = FirmwareImage(
        project_name=project_name,
        version="1.0.0",
        impulse_spec=impulse.to_dict(),
        labels=labels,
        graph_blob=graph_to_bytes(graph),
        engine=engine,
    )
    artifact = Artifact(target="firmware", project_name=project_name)
    artifact.files["firmware.bin"] = image.graph_blob
    artifact.metadata = {
        "engine": engine,
        "precision": graph.dtype,
        "checksum": image.checksum(),
        "image": image,  # carried in-memory for the virtual fleet
    }
    return artifact
