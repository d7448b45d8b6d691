"""Quantization: fixed-point arithmetic properties, PTQ accuracy, qparams."""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_graph
from repro.graph import Graph, graph_to_bytes, sequential_to_graph
from repro.graph import ops as graph_ops
from repro.graph.ops import GOp, GTensor, QuantParams
from repro.nn.architectures import ARCHITECTURES
from repro.quantize import (
    calibrate_activations,
    multiply_by_quantized_multiplier,
    quantize_graph,
    quantize_multiplier,
)
from repro.runtime import compile_plan, native, run_graph, run_graph_dispatch

RNG = np.random.default_rng(0)


# -- fixed-point multiplier ---------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=0.9999),
    st.integers(min_value=-(2**20), max_value=2**20),
)
def test_quantized_multiplier_accuracy(real, acc):
    """Integer requantization approximates real multiplication to <=1 LSB
    relative error for scale ratios < 1 (the only ones PTQ produces)."""
    mant, exp = quantize_multiplier(real)
    out = multiply_by_quantized_multiplier(np.array([acc], dtype=np.int64), mant, exp)
    expected = acc * real
    assert abs(out[0] - expected) <= max(1.0, abs(expected) * 1e-6) + 0.5


def test_quantized_multiplier_negative_half_away_regression():
    """Regression: negative accumulators used to over-round by a full
    LSB (e.g. 0.35 * -90 -> -33); rounding must mirror the positive
    formula around zero."""
    mant, exp = quantize_multiplier(0.35)
    out = multiply_by_quantized_multiplier(
        np.array([-90, 90], dtype=np.int64), mant, exp
    )
    assert out[0] == -out[1]  # symmetric around zero
    assert out[0] in (-32, -31)  # |error| <= 1 LSB of -31.5


def test_quantize_multiplier_zero():
    assert quantize_multiplier(0.0) == (0, 0)


def test_quantize_multiplier_negative_rejected():
    with pytest.raises(ValueError):
        quantize_multiplier(-0.5)


def test_multiplier_rounding_half_away():
    # 0.5 * 1 should round away from zero to 1; -1 * 0.5 to -1... wait:
    mant, exp = quantize_multiplier(0.5)
    assert multiply_by_quantized_multiplier(np.array([1], np.int64), mant, exp)[0] == 1
    assert multiply_by_quantized_multiplier(np.array([-1], np.int64), mant, exp)[0] == -1
    assert multiply_by_quantized_multiplier(np.array([3], np.int64), mant, exp)[0] == 2


# -- QuantParams ----------------------------------------------------------------


def test_quant_dequant_error_bound():
    qp = QuantParams(scale=np.array([0.05]), zero_point=-10)
    values = RNG.uniform(-5, 6, size=200).astype(np.float32)
    q = qp.quantize(values)
    back = qp.dequantize(q)
    in_range = (values > -5) & (values < 6)
    assert np.abs(back[in_range] - values[in_range]).max() <= 0.05 / 2 + 1e-6


def test_per_channel_quantization():
    qp = QuantParams(scale=np.array([0.1, 1.0]), zero_point=0, per_channel=True)
    w = np.array([[0.5, 5.0], [-0.5, -5.0]], dtype=np.float32)
    q = qp.quantize(w, axis=-1)
    assert q[0, 0] == 5 and q[0, 1] == 5  # each channel at its own scale
    back = qp.dequantize(q, axis=-1)
    assert np.allclose(back, w, atol=0.5)


# -- calibration ---------------------------------------------------------------


def test_calibration_covers_activations(tiny_graphs, tiny_classification_problem):
    float_graph, _ = tiny_graphs
    x, _ = tiny_classification_problem
    stats = calibrate_activations(float_graph, x[:32])
    for tid in float_graph.activation_tensors():
        lo, hi = stats.range_for(tid)
        assert lo <= 0 <= hi  # ranges always bracket zero


# -- end-to-end PTQ ---------------------------------------------------------------


def test_int8_top1_agreement(trained_tiny_model, tiny_graphs, tiny_classification_problem):
    float_graph, int8_graph = tiny_graphs
    x, _ = tiny_classification_problem
    float_top1 = run_graph(float_graph, x).argmax(axis=1)
    int8_out = run_graph(int8_graph, x)
    int8_top1 = int8_out.argmax(axis=1)
    assert (float_top1 == int8_top1).mean() > 0.85


def test_int8_probability_closeness(tiny_graphs, tiny_classification_problem):
    from repro.runtime.executor import dequantize_output

    float_graph, int8_graph = tiny_graphs
    x, _ = tiny_classification_problem
    fp = run_graph(float_graph, x[:64])
    q = dequantize_output(int8_graph, run_graph(int8_graph, x[:64]))
    assert np.abs(fp - q).max() < 0.25
    assert np.abs(fp - q).mean() < 0.05


def test_weights_are_int8_bias_int32(tiny_graphs):
    _, int8_graph = tiny_graphs
    for op in int8_graph.ops:
        if op.opcode in ("CONV_2D", "DEPTHWISE_CONV_2D", "FULLY_CONNECTED"):
            w = int8_graph.tensors[op.inputs[1]]
            b = int8_graph.tensors[op.inputs[2]]
            assert w.dtype == "int8" and w.data.dtype == np.int8
            assert b.dtype == "int32" and b.data.dtype == np.int32
            assert w.quant.zero_point == 0  # symmetric weights


def test_conv_weights_per_channel(tiny_graphs):
    _, int8_graph = tiny_graphs
    conv_ops = [op for op in int8_graph.ops if op.opcode == "CONV_2D"]
    w = int8_graph.tensors[conv_ops[0].inputs[1]]
    assert w.quant.per_channel
    assert len(w.quant.scale) == w.shape[-1]


def test_per_tensor_option(tiny_graphs, tiny_classification_problem):
    float_graph, _ = tiny_graphs
    x, _ = tiny_classification_problem
    per_tensor = quantize_graph(float_graph, x[:32], per_channel=False)
    for op in per_tensor.ops:
        if op.opcode == "CONV_2D":
            w = per_tensor.tensors[op.inputs[1]]
            assert not w.quant.per_channel
    # Still functional.
    out = run_graph(per_tensor, x[:8])
    assert out.shape == (8, 3)


def test_softmax_output_qparams(tiny_graphs):
    _, int8_graph = tiny_graphs
    out_t = int8_graph.tensors[int8_graph.output_id]
    assert out_t.quant.zero_point == -128
    assert float(out_t.quant.scale[0]) == pytest.approx(1 / 256)


def test_fused_relu_clamps(tiny_graphs):
    _, int8_graph = tiny_graphs
    relu_ops = [
        op for op in int8_graph.ops
        if op.attrs.get("activation") == "relu" and "clamp_min" in op.attrs
    ]
    assert relu_ops, "expected fused relu ops"
    for op in relu_ops:
        out_zp = int8_graph.tensors[op.outputs[0]].quant.zero_point
        assert op.attrs["clamp_min"] == max(-128, out_zp)


# -- one builder: domains and shared op tables ---------------------------------


def test_weightless_graph_quantizes_to_int8():
    """With no weighted layer to anchor a domain on, ops default to the
    quantized domain: an int8 request never comes back float."""
    g = Graph("pool_only")
    x = g.add_tensor(GTensor("x", (4, 4, 2)))
    p = g.add_tensor(GTensor("pooled", (2, 2, 2)))
    flat = g.add_tensor(GTensor("flat", (8,)))
    probs = g.add_tensor(GTensor("probs", (8,)))
    g.add_op(GOp("MAX_POOL_2D", [x], [p], {"pool_size": 2}))
    g.add_op(GOp("RESHAPE", [p], [flat], {"shape": [8]}))
    g.add_op(GOp("SOFTMAX", [flat], [probs], {}))
    g.input_id, g.output_id = x, probs
    data = RNG.normal(0, 1, (16, 4, 4, 2)).astype(np.float32)

    q = quantize_graph(g, data)
    assert q.name == "pool_only_int8"
    assert [t.dtype for t in q.tensors] == ["int8"] * 4
    assert [op.opcode for op in q.ops] == ["MAX_POOL_2D", "RESHAPE", "SOFTMAX"]
    assert verify_graph(q).ok, verify_graph(q).format()
    out = run_graph(q, data)
    assert out.dtype == np.int8
    assert np.array_equal(out, run_graph_dispatch(q, data))
    assert (out.argmax(axis=1) == run_graph(g, data).argmax(axis=1)).mean() > 0.8


def test_transpose_carries_qparams_through():
    g = Graph("transposed")
    x = g.add_tensor(GTensor("x", (3, 5)))
    xt = g.add_tensor(GTensor("xt", (5, 3)))
    flat = g.add_tensor(GTensor("flat", (15,)))
    w = g.add_tensor(GTensor(
        "w", (15, 4), data=RNG.normal(0, 0.3, (15, 4)).astype(np.float32)))
    b = g.add_tensor(GTensor(
        "b", (4,), data=RNG.normal(0, 0.1, 4).astype(np.float32)))
    y = g.add_tensor(GTensor("y", (4,)))
    g.add_op(GOp("TRANSPOSE", [x], [xt], {"perm": [1, 0]}))
    g.add_op(GOp("RESHAPE", [xt], [flat], {"shape": [15]}))
    g.add_op(GOp("FULLY_CONNECTED", [flat, w, b], [y], {"activation": "relu"}))
    g.input_id, g.output_id = x, y
    # Rows on different scales, so min/max of x and xt agree but a
    # re-derived range for either would still have to match exactly.
    data = (RNG.normal(0, 1, (32, 3, 5)) * [[1.0], [4.0], [0.25]]).astype(np.float32)

    q = quantize_graph(g, data)
    assert q.tensors[xt].quant is q.tensors[x].quant
    assert q.tensors[flat].quant is q.tensors[x].quant
    assert verify_graph(q).ok, verify_graph(q).format()
    assert np.array_equal(
        compile_plan(q).execute(data), run_graph_dispatch(q, data)
    )


def test_op_class_tables_are_shared_by_identity():
    """The quantizer, the verifier that checks its output, the pruner
    that indexes its layers and the profiler cannot disagree: they hold
    the same tuple objects."""
    from repro.analysis import infer
    from repro.compress import prune
    from repro.profile import memory
    from repro.quantize import ptq

    for module in (ptq, infer, prune):
        assert module.WEIGHTED_OPS is graph_ops.WEIGHTED_OPS
    # The profiler (and EON's codegen) name kernel variants through the
    # graph layer's one rule, which reads the same table.
    assert memory.kernel_precision is graph_ops.kernel_precision
    for module in (ptq, infer):
        assert module.SAME_QPARAMS_OPS is graph_ops.SAME_QPARAMS_OPS
    assert "TRANSPOSE" in graph_ops.SAME_QPARAMS_OPS


# -- golden digests: the quantizer's bytes, recorded before the twin was deleted --

PTQ_GOLDEN_PATH = Path(__file__).parent / "data" / "ptq_golden.json"

#: Small input shapes so all six zoo architectures quantize in ~1 s.
PTQ_GOLDEN_SHAPES = {
    "ds_cnn": (24, 10),
    "mobilenet_v1": (24, 24, 3),
    "mobilenet_v2": (24, 24, 3),
    "conv1d_stack": (32, 6),
    "cifar_cnn": (16, 16, 3),
    "mlp": (33,),
}


def ptq_golden_digest(arch: str, per_channel: bool) -> str:
    """sha256 of the serialised int8 graph of one zoo architecture
    (:func:`ptq_golden_graph`).  ``tests/data/ptq_golden.json`` holds this
    function's output from before the uniform-int8 quantizer twin was
    deleted (see CHANGES.md for the command)."""
    return hashlib.sha256(graph_to_bytes(ptq_golden_graph(arch, per_channel))).hexdigest()


def ptq_golden_graph(arch: str, per_channel: bool) -> Graph:
    """The int8 graph of one zoo architecture whose every parameter
    (BatchNorm statistics included) is perturbed with seeded noise, so
    biases and folded scales are not the initialiser's zeros and ones."""
    return quantize_graph(*ptq_golden_float_graph(arch), per_channel=per_channel)


def ptq_golden_float_graph(arch: str) -> tuple[Graph, np.ndarray]:
    """The float32 graph :func:`ptq_golden_graph` quantizes, and the
    calibration batch it quantizes it with."""
    rng = np.random.default_rng(21)
    shape = PTQ_GOLDEN_SHAPES[arch]
    model = ARCHITECTURES[arch](shape, 4, seed=3)
    weights = []
    for w, role in zip(model.get_weights(), _weight_roles(model)):
        w = w + rng.normal(0, 0.05, w.shape).astype(np.float32)
        weights.append(np.abs(w) + 0.1 if role == "var" else w)
    model.set_weights(weights)
    graph = sequential_to_graph(model, name=arch)
    return graph, rng.normal(0, 1, (16, *shape)).astype(np.float32)


def _weight_roles(model):
    """One tag per ``get_weights()`` entry; "var" marks running variances,
    which must stay positive."""
    roles = []
    for layer in model.walk_layers():
        roles += ["param"] * len(layer.params)
        if hasattr(layer, "running_mean"):
            roles += ["mean", "var"]
    return roles


@pytest.mark.parametrize("per_channel", [True, False])
@pytest.mark.parametrize("arch", sorted(PTQ_GOLDEN_SHAPES))
def test_ptq_golden_digests(arch, per_channel):
    golden = json.loads(PTQ_GOLDEN_PATH.read_text())
    key = f"{arch}/{'per_channel' if per_channel else 'per_tensor'}"
    assert ptq_golden_digest(arch, per_channel) == golden[key]


@pytest.mark.parametrize("per_channel", [True, False])
@pytest.mark.parametrize("arch", sorted(PTQ_GOLDEN_SHAPES))
def test_ptq_golden_graphs_run_alike_on_both_plan_routes(arch, per_channel):
    """The golden graphs execute to the spec's bytes whether the plan
    binds the C kernels (where a compiler exists) or the spec kernels."""
    graph = ptq_golden_graph(arch, per_channel)
    x = np.random.default_rng(34).normal(0, 1, (3, *PTQ_GOLDEN_SHAPES[arch])).astype(np.float32)
    want = run_graph_dispatch(graph, x)
    assert np.array_equal(compile_plan(graph, cache=False).execute(x), want)
    with mock.patch.object(native, "load", lambda: None):
        spec_plan = compile_plan(graph, cache=False)
    assert np.array_equal(spec_plan.execute(x), want)


#: sha256 of the ``conv1d_stack`` (CONV_1D, MAX_POOL_1D,
#: GLOBAL_AVG_POOL_1D, FULLY_CONNECTED) and ``mlp`` (FULLY_CONNECTED)
#: golden graphs run on :func:`one_d_inputs`: every activation
#: ``run_graph_dispatch(record=True)`` returns, and the output every route
#: returns.  Recorded while the spec still had a kernel of its own per
#: 1-D op; the 2-D kernels that replaced them must give the same bytes.
ONE_D_GOLDEN = {
    "conv1d_stack/float32/b1": {
        "activations": "d247d941533ec2d8e5bf8a880550346af37cc1db8038b903f5a5de412546f680",
        "output": "c21cdf45a4d2cf9f0f233c902b569a4621688abfdb891115d62de679849c0c37",
    },
    "conv1d_stack/float32/b16": {
        "activations": "a99570670b78588dffed2c0274ac34fbcb40eb1cdcfb5a73ee5777c370e78e7d",
        "output": "26f0959b183740e6696c8c5ff6b73096b2fda0c5e7aaaedf1704ff35f32c7ac1",
    },
    "conv1d_stack/int8/b1": {
        "activations": "2b2225703d6bc8fb801595c790e682f6e1660626dfaf1c6bb075d0a51e8a35ad",
        "output": "ec7665932396690e90e6497edc22334adfd94c94430d5b4777462efe0e442d7d",
    },
    "conv1d_stack/int8/b16": {
        "activations": "ff447cb6fc5129debb8773f37e179122aa42cc68e03829dc74331aff6e9579fe",
        "output": "ed2a68599f229d41f9f0adfedee4bdf37e7c44b8d1f415f3ed5519d827e077a2",
    },
    "mlp/float32/b1": {
        "activations": "b8a7e45f42b43847ce95947875b15d9f32bf219be7ca08867d828c770529b363",
        "output": "0adb5ca541fa9f2380a29df060e97d4adbb681ea9c65599270507fc18ad2b270",
    },
    "mlp/float32/b16": {
        "activations": "0b02ccd8ecf9e3d96d45b5036d404b442a378edae28b141b3a860280828502fe",
        "output": "7ef4e56b64df70b215d32ceb603eda562099ef84c899a2b9c9943d327fe9519a",
    },
    "mlp/int8/b1": {
        "activations": "88849370a41838025dc93085b3639c7f4e1b4b2e18a87262ca893850280dba3c",
        "output": "112e5026ae1d4b0f1959fa4319bd7787dee8d8148dae52ad33b3bce11559a4df",
    },
    "mlp/int8/b16": {
        "activations": "6dc9f128dc4dec1904e804fcbd864aede8c2be15ac61c73684910cc91375946f",
        "output": "2d10b3e3f72bec3d1aed76b87e7709313884f6728b839e77f992a0a92de6d3d5",
    },
}


def one_d_inputs(arch: str, batch: int) -> np.ndarray:
    shape = PTQ_GOLDEN_SHAPES[arch]
    return np.random.default_rng(38).normal(0, 1, (16, *shape)).astype(np.float32)[:batch]


def one_d_digests(arch: str, precision: str, batch: int, route: str) -> dict:
    """``{"activations": ..., "output": ...}`` digests of one run; a plan
    route has only the output.  ``route``: ``dispatch``, ``spec`` (the
    plan bound without the kernel library) or ``native`` (with it)."""
    graph, calib = ptq_golden_float_graph(arch)
    if precision == "int8":
        graph = quantize_graph(graph, calib, per_channel=True)
    x = one_d_inputs(arch, batch)
    sha = lambda *arrays: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()  # noqa: E731
    if route == "dispatch":
        values = run_graph_dispatch(graph, x, record=True)
        acts = [values[op.outputs[0]] for op in graph.ops]
        return {"activations": sha(*acts), "output": sha(values[graph.output_id])}
    if route == "spec":
        with mock.patch.object(native, "load", lambda: None):
            return {"output": sha(run_graph(graph, x))}
    return {"output": sha(run_graph(graph, x))}


@pytest.mark.parametrize("route", ["dispatch", "spec", "native"])
@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("precision", ["float32", "int8"])
@pytest.mark.parametrize("arch", ["conv1d_stack", "mlp"])
def test_one_d_family_keeps_its_bytes(arch, precision, batch, route):
    if route == "native" and native.load() is None:
        pytest.skip("no C compiler / kernel library")
    golden = ONE_D_GOLDEN[f"{arch}/{precision}/b{batch}"]
    got = one_d_digests(arch, precision, batch, route)
    assert got == {k: golden[k] for k in got}
