"""WASM export + custom DSP blocks (extensibility, Sec. 4.6/4.9)."""

import json

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, TimeSeriesInput
from repro.deploy import build_artifact
from repro.dsp import CustomBlock, RawBlock, extract_features, register_custom_transform
from repro.dsp.base import get_dsp_block


@pytest.fixture()
def wasm_artifact(tiny_graphs):
    _, int8_graph = tiny_graphs
    impulse = Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=8),
        [RawBlock()],
        ClassificationBlock(),
    )
    return build_artifact("wasm", int8_graph, impulse,
                          {"a": 0, "b": 1, "c": 2}, "eon", "proj")


def test_wasm_package_contents(wasm_artifact):
    files = wasm_artifact.files
    assert set(files) == {
        "edge-impulse-standalone.wat", "model.bin",
        "edge-impulse-standalone.js", "module-config.json",
    }
    wat = files["edge-impulse-standalone.wat"].decode()
    assert wat.startswith("(module")
    assert '(export "ei_classify")' in wat
    config = json.loads(files["module-config.json"])
    assert config["labels"] == ["a", "b", "c"]


def test_wasm_model_blob_loadable(wasm_artifact, tiny_graphs):
    from repro.graph import graph_from_bytes

    _, int8_graph = tiny_graphs
    restored = graph_from_bytes(wasm_artifact.files["model.bin"])
    assert restored.op_counts() == int8_graph.op_counts()


def test_wasm_memory_pages_cover_model(wasm_artifact):
    wat = wasm_artifact.files["edge-impulse-standalone.wat"].decode()
    import re

    pages = int(re.search(r'\(memory \(export "memory"\) (\d+)\)', wat).group(1))
    needed = len(wasm_artifact.files["model.bin"]) + wasm_artifact.metadata["arena_bytes"]
    assert pages * 65536 >= needed


# -- custom blocks -----------------------------------------------------------


def _rms_per_axis(window, gain=1.0):
    data = np.atleast_2d(window)
    return gain * np.sqrt((data**2).mean(axis=0))


def test_custom_block_transform_and_shapes():
    register_custom_transform("rms", _rms_per_axis)
    block = CustomBlock(name="rms", params={"gain": 2.0})
    window = np.ones((50, 3), dtype=np.float32)
    out = block.transform(window)
    assert out.shape == (3,)
    assert np.allclose(out, 2.0)
    assert block.output_shape((50, 3)) == (3,)


def test_custom_block_registry_roundtrip():
    register_custom_transform("rms", _rms_per_axis)
    block = CustomBlock(name="rms", params={"gain": 1.5},
                        flops_per_element=2.0, declared_buffer_bytes=256)
    clone = get_dsp_block(block.to_dict())
    assert isinstance(clone, CustomBlock)
    assert clone.params == {"gain": 1.5}
    assert clone.buffer_bytes((10,)) == 256


def test_custom_block_unknown_transform():
    with pytest.raises(KeyError):
        CustomBlock(name="not-registered")


def test_custom_block_in_impulse():
    register_custom_transform("rms", _rms_per_axis)
    impulse = Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=50, axes=3),
        [CustomBlock(name="rms")],
        ClassificationBlock(architecture="mlp"),
    )
    assert impulse.feature_shape() == (3,)
    window = np.random.default_rng(0).standard_normal((50, 3)).astype(np.float32)
    assert extract_features(impulse.dsp_blocks, window[None])[0].shape == (3,)


def test_custom_block_resource_declaration():
    register_custom_transform("rms", _rms_per_axis)
    from repro.profile import LatencyEstimator, get_device

    block = CustomBlock(name="rms", flops_per_element=8.0)
    est = LatencyEstimator(get_device("nano33ble"))
    slow = est.dsp_ms(block, (1000, 3))
    fast = est.dsp_ms(CustomBlock(name="rms", flops_per_element=1.0), (1000, 3))
    assert slow > fast
