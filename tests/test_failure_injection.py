"""Failure injection: corruption, truncation, and misuse must produce
clean errors (never wrong results or crashes)."""

import numpy as np
import pytest

from repro.graph import graph_from_bytes, graph_to_bytes
from repro.runtime import TFLMInterpreter


def test_corrupted_graph_header_rejected(tiny_graphs):
    blob = bytearray(graph_to_bytes(tiny_graphs[1]))
    blob[12] ^= 0xFF  # flip a byte inside the JSON header
    with pytest.raises(Exception):
        graph_from_bytes(bytes(blob))


def test_truncated_graph_blob_rejected(tiny_graphs):
    blob = graph_to_bytes(tiny_graphs[1])
    with pytest.raises(ValueError):
        graph_from_bytes(blob[: len(blob) - 100])


def test_unregistered_op_refused(tiny_graphs):
    _, int8_graph = tiny_graphs
    interp = TFLMInterpreter(int8_graph)
    interp._registry.discard("SOFTMAX")  # simulate a missing kernel
    with pytest.raises(RuntimeError, match="not registered"):
        interp.invoke(np.zeros((1, 16, 8), dtype=np.float32))


def test_unregistered_absorbed_pool_refused():
    # The plan runs conv+pool as one CONV_2D step; the registry check
    # must still see the pool the authored graph asks for.
    from repro.graph import sequential_to_graph
    from repro.nn.architectures import cifar_cnn

    graph = sequential_to_graph(cifar_cnn((8, 8, 3), 2, base_filters=4, seed=0))
    interp = TFLMInterpreter(graph)
    assert "MAX_POOL_2D" not in {step.opcode for step in interp._plan.steps}
    interp._registry.discard("MAX_POOL_2D")
    with pytest.raises(RuntimeError, match="op MAX_POOL_2D not registered"):
        interp.invoke(np.zeros((1, 8, 8, 3), dtype=np.float32))


def _forged_residual_graph(forged_op: int, forged: dict):
    """x -> FC(identity) -> t; u = ADD(t, 10); v = ADD(u, t), with
    optimisation attrs forged onto op ``forged_op`` and round-tripped
    through the serialised form."""
    from repro.graph import GOp, Graph, GTensor

    graph = Graph("forged")
    x = graph.add_tensor(GTensor("x", (4,)))
    w = graph.add_tensor(GTensor("w", (4, 4), data=np.eye(4, dtype=np.float32)))
    b = graph.add_tensor(GTensor("b", (4,), data=np.zeros(4, np.float32)))
    ten = graph.add_tensor(GTensor("ten", (4,), data=np.full(4, 10, np.float32)))
    t, u, v = (graph.add_tensor(GTensor(n, (4,))) for n in ("t", "u", "v"))
    graph.input_id, graph.output_id = x, v
    graph.add_op(GOp("FULLY_CONNECTED", [x, w, b], [t], {"activation": "none"}))
    graph.add_op(GOp("ADD", [t, ten], [u], {}))  # t is read again below
    graph.add_op(GOp("ADD", [u, t], [v], {}))
    graph.ops[forged_op].attrs.update(forged)
    return graph_from_bytes(graph_to_bytes(graph))


@pytest.mark.parametrize("forged_op,forged", [
    (1, {"inplace": 0}),
    (0, {"gemm_exact": True}),
], ids=["inplace", "gemm_exact"])
def test_forged_optimisation_attrs_are_ignored(forged_op, forged):
    """The plan binder decides fusion, GEMM dtype and in-place reuse
    itself; attrs on a deserialised blob change nothing."""
    from types import SimpleNamespace

    from repro.runtime import EONCompiler, compile_plan, run_graph_dispatch
    from repro.serve import ModelServer

    graph = _forged_residual_graph(forged_op, forged)
    x = np.arange(4, dtype=np.float32)[None]
    want = run_graph_dispatch(graph, x)
    assert want.tolist() == [[10.0, 12.0, 14.0, 16.0]]
    labels = ["a", "b", "c", "d"]
    project = SimpleNamespace(
        project_id=1, float_graph=graph, int8_graph=None,
        label_map={label: i for i, label in enumerate(labels)},
    )
    with ModelServer.for_project(project) as server:
        served = server.classify(1, x[0], precision="float32")["classification"]
    outputs = {
        "compile_plan": compile_plan(graph, cache=False).execute(x),
        "tflm": TFLMInterpreter(graph).invoke(x),
        "eon": EONCompiler().compile(graph).invoke(x),
        "served": np.array([[served[label] for label in labels]], dtype=np.float32),
    }
    for route, got in outputs.items():
        assert np.array_equal(got, want), route


def test_blob_declaring_a_fused_pool_is_rejected():
    """A conv carrying ``fused_pool`` and a pooled output shape declares
    an output its kernel does not produce: a shape mismatch (G010), so
    a blob cannot smuggle a fusion past the verifier."""
    from repro.analysis import GraphVerificationError
    from repro.graph import GOp, Graph, GTensor

    graph = Graph("fused-blob")
    x = graph.add_tensor(GTensor("x", (8, 2)))
    w = graph.add_tensor(GTensor("w", (3, 2, 2), data=np.ones((3, 2, 2), np.float32)))
    b = graph.add_tensor(GTensor("b", (2,), data=np.zeros(2, np.float32)))
    pooled = graph.add_tensor(GTensor("pooled", (4, 2)))
    graph.input_id, graph.output_id = x, pooled
    graph.add_op(GOp("CONV_1D", [x, w, b], [pooled], {
        "stride": 1, "pad": [1, 1], "activation": "none",
        "fused_pool": 2, "fused_pool_kind": "max",
    }))
    with pytest.raises(GraphVerificationError) as excinfo:
        graph_from_bytes(graph_to_bytes(graph))
    assert "G010" in excinfo.value.report.codes()


def test_arena_overlap_detector_catches_bad_plans(tiny_graphs):
    from repro.runtime import plan_arena

    _, int8_graph = tiny_graphs
    plan = plan_arena(int8_graph)
    assert plan.overlaps() == []
    # Manufacture a collision: move every tensor to offset 0.
    for tid in plan.offsets:
        plan.offsets[tid] = 0
    if len(plan.offsets) > 1:
        assert plan.overlaps() != []


def test_firmware_corruption_never_flashes(tiny_graphs):
    from repro.core import ClassificationBlock, Impulse, TimeSeriesInput
    from repro.deploy import build_artifact
    from repro.device import DeviceFleet, VirtualDevice
    from repro.dsp import RawBlock

    impulse = Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=8),
        [RawBlock()],
        ClassificationBlock(),
    )
    artifact = build_artifact("firmware", tiny_graphs[1], impulse,
                              {"a": 0, "b": 1, "c": 2}, "eon", "p")
    image = artifact.metadata["image"]
    fleet = DeviceFleet()
    device = VirtualDevice("lone", "nano33ble")
    fleet.register(device)
    report = fleet.ota_update(image, inject_failures={"lone"})
    assert report.updated == []
    assert device.firmware is None  # nothing half-flashed


def _tiny_firmware_image(tiny_graphs):
    from repro.core import ClassificationBlock, Impulse, TimeSeriesInput
    from repro.deploy import build_artifact
    from repro.dsp import RawBlock

    impulse = Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=8),
        [RawBlock()],
        ClassificationBlock(),
    )
    artifact = build_artifact("firmware", tiny_graphs[1], impulse,
                              {"a": 0, "b": 1, "c": 2}, "eon", "p")
    return artifact.metadata["image"]


def test_async_rollout_corruption_never_flashes(tiny_graphs):
    """The async job path keeps the sync guarantee: a corrupt transfer
    leaves the device exactly as it was (here: unflashed), and a lone
    failing canary aborts the rollout."""
    from repro.core.jobs import JobExecutor
    from repro.device import DeviceFleet, VirtualDevice

    image = _tiny_firmware_image(tiny_graphs)
    fleet = DeviceFleet()
    device = VirtualDevice("lone", "nano33ble")
    fleet.register(device)
    executor = JobExecutor()
    job = fleet.ota_update_async(
        image, executor, inject_failures={"lone"}, retries_per_device=1
    )
    job.wait(timeout=30.0)
    report = job.result
    assert report["updated"] == [] and report["aborted"] is True
    assert "lone" in report["failed"]
    assert device.firmware is None  # nothing half-flashed, ever
    # The per-device retry budget was spent before giving up.
    (child,) = executor.children(job.job_id)
    assert child.attempts == 2


def test_async_rollout_device_flash_exception_is_isolated(tiny_graphs):
    """A device whose flash() raises (not just corrupts) fails its own
    child job; healthy devices still update."""
    from repro.core.jobs import JobExecutor
    from repro.device import DeviceFleet, VirtualDevice

    image = _tiny_firmware_image(tiny_graphs)
    fleet = DeviceFleet()
    bad = VirtualDevice("bad", "nano33ble")
    bad.flash = lambda img: (_ for _ in ()).throw(IOError("bus fault"))
    fleet.register(bad)
    for i in range(3):
        fleet.register(VirtualDevice(f"ok{i}", "nano33ble"))

    job = fleet.ota_update_async(
        image, JobExecutor(),
        device_ids=[f"ok{i}" for i in range(3)] + ["bad"],
        canary_fraction=0.25, failure_threshold=1.0,
    )
    job.wait(timeout=30.0)
    report = job.result
    assert sorted(report["updated"]) == ["ok0", "ok1", "ok2"]
    assert report["failed"] == ["bad"]
    versions = fleet.versions()
    assert versions["bad"] == "unflashed"
    assert all(versions[f"ok{i}"] == "1.0.0" for i in range(3))


def test_ingestion_garbage_rejected():
    from repro.data.dataset import Dataset
    from repro.data.ingestion import IngestionService

    service = IngestionService(Dataset())
    with pytest.raises(ValueError):
        service.ingest(b"\xff\xfe\x00\x01garbage", label="x")


def test_wav_garbage_after_header():
    import io

    from repro.formats.wav import WavError, read_wav

    with pytest.raises(WavError):
        read_wav(io.BytesIO(b"RIFF\x10\x00\x00\x00WAVEjunkjunk"))


def test_quantize_without_calibration_data(tiny_graphs):
    """Empty calibration still produces a runnable (if useless) graph —
    ranges default to the zero-bracketing minimum."""
    from repro.quantize import quantize_graph

    float_graph, _ = tiny_graphs
    qg = quantize_graph(float_graph, np.zeros((1, 16, 8), dtype=np.float32))
    out = TFLMInterpreter(qg).invoke(np.zeros((1, 16, 8), dtype=np.float32))
    assert out.shape == (1, 3)


def test_eim_corrupted_payload():
    from repro.deploy import EIMBundle

    with pytest.raises(Exception):
        EIMBundle.load(b"definitely not an eim\x00file")
