"""Deployment artifacts: C++ library, Arduino, EIM runner, firmware."""

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, TimeSeriesInput
from repro.deploy import (
    EIMBundle,
    EIMRunner,
    build_artifact,
)
from repro.dsp import RawBlock


@pytest.fixture(scope="module")
def deploy_ctx(tiny_graphs):
    """Impulse + int8 graph matching the tiny model's (16, 8) features."""
    _, int8_graph = tiny_graphs
    impulse = Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=128, axes=8),
        [RawBlock()],
        ClassificationBlock(),
    )
    # Window: 128 samples x 8 axes... the tiny model takes (16, 8); use a
    # matching input block instead.
    impulse = Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=8),
        [RawBlock()],
        ClassificationBlock(),
    )
    label_map = {"a": 0, "b": 1, "c": 2}
    return int8_graph, impulse, label_map


def test_cpp_library_contents(deploy_ctx):
    graph, impulse, label_map = deploy_ctx
    artifact = build_artifact("cpp", graph, impulse, label_map, "eon", "proj")
    files = artifact.files
    metadata = files["model-parameters/model_metadata.h"].decode()
    assert "EI_CLASSIFIER_LABEL_COUNT       3" in metadata
    assert '"a",' in metadata and '"c",' in metadata
    assert "EI_CLASSIFIER_QUANTIZED         1" in metadata
    assert "tflite-model/eon_model.cpp" in files
    sdk = files["edge-impulse-sdk/classifier/ei_run_classifier.h"].decode()
    assert "run_classifier" in sdk


def test_eon_cpp_includes_string_h(deploy_ctx):
    """Regression: the generated source calls memcpy but never included
    <string.h>, so the emitted eon_model.cpp could not compile."""
    graph, impulse, label_map = deploy_ctx
    artifact = build_artifact("cpp", graph, impulse, label_map, "eon", "proj")
    cpp = artifact.files["tflite-model/eon_model.cpp"].decode()
    assert "memcpy(" in cpp
    assert "#include <string.h>" in cpp


def test_cpp_tflm_variant_ships_serialized_model(deploy_ctx):
    graph, impulse, label_map = deploy_ctx
    artifact = build_artifact("cpp", graph, impulse, label_map, "tflm", "proj")
    assert "tflite-model/model.eir" in artifact.files
    from repro.graph import graph_from_bytes

    restored = graph_from_bytes(artifact.files["tflite-model/model.eir"])
    assert restored.op_counts() == graph.op_counts()


def test_arduino_library_layout(deploy_ctx):
    graph, impulse, label_map = deploy_ctx
    artifact = build_artifact("arduino", graph, impulse, label_map, "eon", "kws demo")
    assert "library.properties" in artifact.files
    props = artifact.files["library.properties"].decode()
    assert "kws_demo_inferencing" in props
    sketch = artifact.files["examples/static_buffer/static_buffer.ino"].decode()
    assert "run_classifier" in sketch
    assert any(name.startswith("src/model-parameters") for name in artifact.files)


def test_eim_bundle_and_runner(deploy_ctx, tiny_classification_problem):
    graph, impulse, label_map = deploy_ctx
    artifact = build_artifact("eim", graph, impulse, label_map, "eon", "proj")
    runner = EIMRunner(EIMBundle.load(artifact.files["model.eim"]))

    hello = runner.handle({"type": "hello"})
    assert hello["success"] and hello["labels"] == ["a", "b", "c"]

    x, _ = tiny_classification_problem
    features = x[0].reshape(-1).tolist()
    result = runner.handle({"type": "classify", "features": features})
    assert result["success"]
    probs = result["result"]["classification"]
    assert set(probs) == {"a", "b", "c"}
    assert abs(sum(probs.values()) - 1.0) < 0.02

    bad = runner.handle({"type": "classify", "features": [1.0, 2.0]})
    assert not bad["success"]
    unknown = runner.handle({"type": "reboot"})
    assert not unknown["success"]


@pytest.mark.parametrize(
    "request_",
    [
        {"type": "classify"},
        {"type": "classify", "features": "abc"},
        {"type": "classify", "features": [[1, 2], [3]]},
        ["classify"],
    ],
    ids=["no-features", "string-features", "ragged-features", "not-an-object"],
)
def test_eim_malformed_request_is_answered(deploy_ctx, request_):
    graph, impulse, label_map = deploy_ctx
    artifact = build_artifact("eim", graph, impulse, label_map, "eon", "proj")
    runner = EIMRunner(EIMBundle.load(artifact.files["model.eim"]))
    reply = runner.handle(request_)
    assert reply["success"] is False
    assert isinstance(reply["error"], str) and reply["error"]


def test_firmware_image(deploy_ctx):
    graph, impulse, label_map = deploy_ctx
    artifact = build_artifact("firmware", graph, impulse, label_map, "eon", "proj")
    image = artifact.metadata["image"]
    assert image.labels == ["a", "b", "c"]
    assert image.checksum() == artifact.metadata["checksum"]
    restored = image.load_graph()
    assert restored.op_counts() == graph.op_counts()


def test_unknown_target(deploy_ctx):
    graph, impulse, label_map = deploy_ctx
    with pytest.raises(ValueError):
        build_artifact("wasm2", graph, impulse, label_map)


def test_manifest_totals(deploy_ctx):
    graph, impulse, label_map = deploy_ctx
    artifact = build_artifact("cpp", graph, impulse, label_map, "eon", "proj")
    manifest = artifact.manifest()
    assert manifest["target"] == "cpp"
    assert sum(manifest["files"].values()) == artifact.total_bytes()
