"""Arduino library export: the C++ library re-packaged with Arduino
metadata (``library.properties``) and an example sketch."""

from __future__ import annotations

from repro.data.dataset import ordered_labels
from repro.deploy.artifact import Artifact
from repro.deploy.cpp import build_cpp_library
from repro.graph.graph import Graph


def _sketch(project_name: str, labels: list[str]) -> str:
    return f"""\
// Example sketch for {project_name} — continuous classification.
#include <{project_name}_inferencing.h>

void setup() {{
    Serial.begin(115200);
    Serial.println("Edge Impulse inferencing ({project_name})");
}}

void loop() {{
    static float buffer[EI_CLASSIFIER_RAW_SAMPLE_COUNT];
    // ... fill buffer from the sensor ...
    ei_impulse_result_t result;
    if (run_classifier(buffer, &result) == 0) {{
        for (size_t i = 0; i < EI_CLASSIFIER_LABEL_COUNT; i++) {{
            Serial.print(result.classification[i].label);
            Serial.print(": ");
            Serial.println(result.classification[i].value);
        }}
    }}
    delay(1000);
}}
"""


def build_arduino_library(
    graph: Graph,
    impulse,
    label_map: dict[str, int],
    engine: str = "eon",
    project_name: str = "project",
) -> Artifact:
    base = build_cpp_library(graph, impulse, label_map, engine, project_name)
    artifact = Artifact(target="arduino", project_name=project_name)
    lib = project_name.replace(" ", "_")
    for name, data in base.files.items():
        artifact.files[f"src/{name}"] = data
    labels = ordered_labels(label_map)
    artifact.files["library.properties"] = (
        f"name={lib}_inferencing\n"
        "version=1.0.0\n"
        "author=EdgeImpulse Inc. (repro)\n"
        "sentence=Generated inferencing library\n"
        "paragraph=DSP + classifier export\n"
        "category=Data Processing\n"
        "architectures=*\n"
    ).encode()
    artifact.files[f"examples/static_buffer/static_buffer.ino"] = _sketch(
        lib, labels
    ).encode()
    artifact.metadata = dict(base.metadata)
    return artifact
