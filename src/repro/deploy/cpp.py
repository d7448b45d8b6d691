"""Standalone C++ library export.

Emits the SDK-shaped source tree: ``model-parameters/`` (impulse + DSP
config headers), the serialized model (or EON-generated C++), and the
``edge-impulse-sdk/`` entry header with the public ``run_classifier`` API
the paper's inferencing SDK exposes (Hymel, 2022).
"""

from __future__ import annotations

import json

from repro.data.dataset import ordered_labels
from repro.deploy.artifact import Artifact
from repro.graph.graph import Graph
from repro.graph.serialize import graph_to_bytes
from repro.runtime.eon import EONCompiler


def _model_parameters_header(impulse, label_map: dict[str, int], graph: Graph) -> str:
    labels = ordered_labels(label_map)
    raw = impulse.input_block.raw_shape()
    feat = impulse.feature_shape()
    lines = [
        "// Model parameters — generated export. Do not edit.",
        "#pragma once",
        "#include <stdint.h>",
        "",
        f"#define EI_CLASSIFIER_PROJECT_NAME      \"{graph.name}\"",
        f"#define EI_CLASSIFIER_LABEL_COUNT       {len(labels)}",
        f"#define EI_CLASSIFIER_RAW_SAMPLE_COUNT  {int(__import__('numpy').prod(raw))}",
        f"#define EI_CLASSIFIER_NN_INPUT_SIZE     {int(__import__('numpy').prod(feat))}",
        f"#define EI_CLASSIFIER_QUANTIZED         {1 if graph.dtype == 'int8' else 0}",
        "",
        "static const char* ei_classifier_labels[] = {",
    ]
    lines += [f'    "{label}",' for label in labels]
    lines += ["};", ""]
    return "\n".join(lines)


def _dsp_config_header(impulse) -> str:
    blocks = [b.to_dict() for b in impulse.dsp_blocks]
    return (
        "// DSP block configuration — generated export. Do not edit.\n"
        "#pragma once\n"
        f"static const char ei_dsp_config_json[] = R\"({json.dumps(blocks)})\";\n"
    )


def build_cpp_library(
    graph: Graph,
    impulse,
    label_map: dict[str, int],
    engine: str = "eon",
    project_name: str = "project",
) -> Artifact:
    artifact = Artifact(target="cpp", project_name=project_name)
    files = artifact.files
    files["model-parameters/model_metadata.h"] = _model_parameters_header(
        impulse, label_map, graph
    ).encode()
    files["model-parameters/dsp_config.h"] = _dsp_config_header(impulse).encode()

    if engine == "eon":
        sources = EONCompiler().generate_source(graph)
        for name, text in sources.items():
            files[f"tflite-model/{name}"] = text.encode()
    else:
        files["tflite-model/model.eir"] = graph_to_bytes(graph)

    files["edge-impulse-sdk/classifier/ei_run_classifier.h"] = _RUN_CLASSIFIER_H.encode()
    artifact.metadata = {
        "engine": engine,
        "precision": graph.dtype,
        "weight_bytes": graph.weight_bytes(),
    }
    return artifact


_RUN_CLASSIFIER_H = """\
// Public inferencing API (SDK entry point). Generated export.
#pragma once
#include "model-parameters/model_metadata.h"

typedef struct {
    const char *label;
    float value;
} ei_impulse_result_classification_t;

typedef struct {
    ei_impulse_result_classification_t classification[EI_CLASSIFIER_LABEL_COUNT];
    float anomaly;
    int timing_dsp_us;
    int timing_classification_us;
} ei_impulse_result_t;

// Run DSP + inference over one raw window. Returns 0 on success.
int run_classifier(const float *raw, ei_impulse_result_t *result, bool debug = false);
"""
