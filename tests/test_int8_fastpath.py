"""The plan-bound int8 fast path is pinned to the spec three ways:

1. the bind-time requantizer equals ``multiply_by_quantized_multiplier``
   (+ zero point, clipped) on every int32-range accumulator;
2. each plan-bound kernel equals its generic twin in ``runtime.kernels``
   on random tensors, including one case per bind-time bound that fails;
3. golden digests: sha256 of the int8 output bytes of the paper-scale
   graphs, recorded from the commit *before* the fast path existed
   (``tests/data/int8_golden.json``), reproduced by every execution
   route.  The e2e oracle shares the runtime's kernels, so its
   ``failed == 0`` is not independent evidence; these digests are.
   Each graph is digested twice: whole (``output``: a dozen softmax
   bytes, nearly constant on the untrained VWW model) and cut after its
   last spatial op (``trunk``: thousands of feature-map bytes, which a
   single off-by-one LSB in any conv changes).  The graphs themselves
   are committed (``tests/data/int8_<task>.eir``, the serialised
   quantized graphs the digests were recorded on) rather than re-derived:
   post-training calibration runs the float32 kernels, so a reassociated
   f32 sum — another BLAS, or a rewrite of those kernels — moves a scale
   by an ulp and would otherwise turn these cases into skips.

Re-record graphs and digests (only ever from a commit whose int8
arithmetic is the reference) with
``PYTHONPATH=src python tests/test_int8_fastpath.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.tasks import paper_scale_graphs
from repro.graph import sequential_to_graph
from repro.graph.serialize import graph_from_bytes, graph_to_bytes
from repro.nn.architectures import cifar_cnn, ds_cnn
from repro.quantize import quantize_graph
from repro.quantize.fixedpoint import multiply_by_quantized_multiplier
from repro.runtime import (
    EONCompiler,
    TFLMInterpreter,
    compile_plan,
    run_graph_dispatch,
)
from repro.runtime import kernels as K
from repro.runtime import native

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN_PATH = DATA_DIR / "int8_golden.json"
GOLDEN_TASKS = ("kws", "ic", "vww")
GOLDEN_BATCHES = (1, 4)

def _numpy_plan(graph):
    """The plan bound without the C kernel library (``runtime/native``)."""
    with mock.patch.object(native, "load", lambda: None):
        return compile_plan(graph, cache=False)


#: Every way the runtime can execute an int8 graph.  Plans bind the C
#: kernels where a compiler exists; ``plan_numpy`` forces the numpy ones.
ROUTES = {
    "dispatch": lambda g: lambda x: run_graph_dispatch(g, x),
    "plan_default": lambda g: compile_plan(g, cache=False).execute,
    "plan_numpy": lambda g: _numpy_plan(g).execute,
    "tflm": lambda g: TFLMInterpreter(g).invoke,
    "eon": lambda g: EONCompiler().compile(g).invoke,
}


_SPATIAL = ("CONV_2D", "DEPTHWISE_CONV_2D", "MAX_POOL_2D", "AVG_POOL_2D")


def _graph_path(task: str) -> pathlib.Path:
    return DATA_DIR / f"int8_{task}.eir"


@functools.lru_cache(maxsize=None)
def _golden_graphs(task: str) -> dict:
    whole = graph_from_bytes(_graph_path(task).read_bytes())
    trunk = graph_from_bytes(_graph_path(task).read_bytes())
    cut = max(i for i, op in enumerate(trunk.ops) if op.opcode in _SPATIAL) + 1
    trunk.ops = trunk.ops[:cut]
    trunk.output_id = trunk.ops[-1].outputs[0]
    trunk._invalidate()  # a structural edit: re-verify on first compile
    return {"output": whole, "trunk": trunk}


def _golden_input(task: str, batch: int, shape) -> np.ndarray:
    # int8 in, so no float quantization step sits between seed and digest.
    rng = np.random.default_rng([17, GOLDEN_TASKS.index(task), batch])
    return rng.integers(-128, 128, size=(batch,) + tuple(shape)).astype(np.int8)


def _digests(task: str, route: str) -> dict[str, str]:
    out = {}
    for part, graph in _golden_graphs(task).items():
        run = ROUTES[route](graph)
        shape = graph.tensors[graph.input_id].shape
        for batch in GOLDEN_BATCHES:
            y = run(_golden_input(task, batch, shape))
            assert y.dtype == np.int8
            out[f"{part}.b{batch}"] = hashlib.sha256(
                np.ascontiguousarray(y).tobytes()
            ).hexdigest()
    return out


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("task", GOLDEN_TASKS)
def test_golden_digests(task, route):
    golden = json.loads(GOLDEN_PATH.read_text())[task]
    blob = _graph_path(task).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == golden["graph"]
    assert graph_to_bytes(_golden_graphs(task)["output"]) == blob  # the codec is lossless here
    assert _digests(task, route) == golden["digests"]


# -- (i) the bound requantizer equals the spec --------------------------------

INT32_MAX = 2**31 - 1
_mantissas = st.one_of(st.just(0), st.integers(1, INT32_MAX), st.integers(2**30, INT32_MAX))
_total_shifts = st.integers(1, 70)  # 63 and up: capped, every result 0
_accs = st.one_of(
    st.integers(-INT32_MAX, INT32_MAX),
    st.sampled_from([0, 1, -1, INT32_MAX, -INT32_MAX]),
)


def _spec_requant(acc, mult, shift, zp, lo, hi):
    scaled = multiply_by_quantized_multiplier(acc, mult, shift) + zp
    return np.clip(scaled, lo, hi).astype(np.int8)


@st.composite
def _requant_cases(draw):
    channels = draw(st.integers(1, 4))
    per_channel = draw(st.booleans())
    n = channels if per_channel else 1
    mult = draw(st.lists(_mantissas, min_size=n, max_size=n))
    total = draw(st.lists(_total_shifts, min_size=n, max_size=n))
    acc = draw(st.lists(_accs, min_size=3 * channels, max_size=3 * channels))
    acc = np.array(acc, dtype=np.int64).reshape(3, channels)
    if draw(st.booleans()):
        # Exact ties of both signs: with mantissa 2**30 and total shift
        # s >= 31, acc = odd * 2**(s-31) makes acc*mant an odd multiple
        # of half = 2**(s-1).
        s = draw(st.integers(31, 61))
        odd = 2 * draw(st.integers(0, 2 ** (61 - s) - 1)) + 1
        mult[0], total[0] = 2**30, s
        acc[0, 0], acc[1, 0] = odd << (s - 31), -(odd << (s - 31))
    shift = [31 - t for t in total]
    if not per_channel:
        mult, shift = mult[0], shift[0]
    zp = draw(st.integers(-128, 127))
    lo, hi = draw(st.sampled_from([(-128, 127), (zp, 127), (-128, zp)]))
    return acc, mult, shift, zp, lo, hi


@settings(max_examples=300, deadline=None)
@given(_requant_cases())
@example((np.array([[-5], [5], [-6]], dtype=np.int64), 1, 29, 0, -128, 127))  # prod=-5, shift=2
def test_requantizer_equals_the_spec(case):
    acc, mult, shift, zp, lo, hi = case
    want = _spec_requant(acc, mult, shift, zp, lo, hi)
    requant = K.Requantizer(mult, shift, zp, lo, hi)
    for dtype in (np.int64, np.int32, np.float64):  # every accumulator a kernel hands over
        assert np.array_equal(requant(acc.astype(dtype)), want)
    lib = native.load()
    if lib is not None:  # the C kernels' requantization, on the same constants
        channels = acc.shape[1]
        table = np.stack([np.broadcast_to(a, (channels,)) for a in
                          (requant.mant, requant.half, requant.shift)]).astype(np.int64)
        acc32 = np.ascontiguousarray(acc, dtype=np.int32)
        got = np.empty(acc.shape, np.int8)
        lib.eon_requant_i8(acc32.ctypes.data, acc32.size, channels, table.ctypes.data,
                           zp, lo, hi, got.ctypes.data)
        assert np.array_equal(got, want)


def test_requantizer_consumes_only_an_int64_accumulator():
    requant = K.Requantizer([2**30, 2**30], [-3, -4], 3)
    acc32 = np.array([[1000, -1000]], dtype=np.int32)
    kept = acc32.copy()
    out = requant(acc32)
    assert np.array_equal(acc32, kept) and out.dtype == np.int8
    acc64 = acc32.astype(np.int64)
    assert np.array_equal(requant(acc64), out)
    assert not np.array_equal(acc64, kept)  # overwritten in place, as documented


@pytest.mark.parametrize("shift", [31, [0, 40]])
def test_requantizer_rejects_the_shifts_the_spec_rejects(shift):
    acc = np.zeros((1, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="multiplier exponent too large") as spec:
        multiply_by_quantized_multiplier(acc, 2**30, shift)
    with pytest.raises(ValueError) as bound:
        K.Requantizer(2**30, shift, 0)
    assert str(bound.value) == str(spec.value)
    K.Requantizer(2**30, 30, 0)(acc)  # total shift 1: the last legal one


# -- (ii) each plan-bound kernel equals its generic twin ----------------------


def _conv_case(rng, x_shape, w_shape, cout=None, bias_scale=2000):
    cout = cout or w_shape[-1]
    x = rng.integers(-128, 128, size=x_shape).astype(np.int8)
    w = rng.integers(-128, 128, size=w_shape).astype(np.int8)
    b = rng.integers(-bias_scale, bias_scale, size=cout).astype(np.int32)
    mult = rng.integers(2**30, 2**31, size=cout).tolist()
    shift = rng.integers(-12, -6, size=cout).tolist()
    return x, w, b, mult, shift


POOLS = [(None, "max"), (2, "max"), (2, "avg")]


def _gemm_operands(w, b, in_zp, exact):
    """``prepare_gemm_i8``'s operands on the route under test: it proves
    these small layers exact (float64); the int64 route — what a layer
    over the 2**53 bound binds — gets the same values widened."""
    w2d, bias = K.prepare_gemm_i8(w, b, in_zp)
    assert w2d.dtype == bias.dtype == np.float64
    if exact:
        return w2d, bias
    return w2d.astype(np.int64), bias.astype(np.int64)
_POOL_FN = {"max": K.maxpool2d_i8, "avg": K.avgpool2d_i8}


@pytest.mark.parametrize("exact", [True, False], ids=["f64", "int64"])
@pytest.mark.parametrize("pool,pool_kind", POOLS)
@pytest.mark.parametrize("kernel,stride,pad_h,pad_w", [
    ((3, 3), 1, (1, 1), (1, 1)),
    ((3, 2), 2, (1, 0), (0, 2)),
    ((1, 1), 1, (0, 0), (0, 0)),
    ((1, 1), 2, (0, 1), (1, 0)),
])
@pytest.mark.parametrize("batch", [1, 5])
def test_conv2d_plan_kernel_equals_generic(batch, kernel, stride, pad_h, pad_w, pool, pool_kind, exact):
    rng = np.random.default_rng([batch, *kernel, stride, bool(pool)])
    for in_zp in (-128, -7, 0, 127):
        x, w, b, mult, shift = _conv_case(rng, (batch, 9, 8, 3), kernel + (3, 4))
        zp, lo, hi = int(rng.integers(-128, 128)), -128, 127
        want = K.conv2d_i8(x, w, b, stride, pad_h, pad_w, in_zp, zp, mult, shift, lo, hi)
        if pool:
            want = _POOL_FN[pool_kind](want, pool)
        w2d, bias = _gemm_operands(w, b, in_zp, exact)
        got = K.conv2d_i8_plan(
            x, w2d, *kernel, bias, stride, pad_h, pad_w, in_zp,
            K.Requantizer(mult, shift, zp, lo, hi), pool=pool, pool_kind=pool_kind,
        )
        assert got.dtype == np.int8 and np.array_equal(got, want)


@pytest.mark.parametrize("pool,pool_kind", POOLS)
@pytest.mark.parametrize("stride,pad_h,pad_w", [(1, (1, 1), (1, 1)), (2, (0, 1), (2, 0))])
@pytest.mark.parametrize("depth_mult,bias_scale,route", [
    (1, 2000, np.int8),          # int32 tap accumulation proven
    (1, INT32_MAX, np.int64),    # bias too big for the int32 proof
    (2, 2000, np.int64),         # no tap route for depth multipliers
], ids=["taps", "huge-bias", "depth-mult"])
@pytest.mark.parametrize("batch", [1, 5])
def test_dwconv2d_plan_kernel_equals_generic(batch, depth_mult, bias_scale, route, stride, pad_h, pad_w, pool, pool_kind):
    rng = np.random.default_rng([batch, depth_mult, stride, bool(pool)])
    for in_zp in (-128, 5, 127):
        x, w, b, mult, shift = _conv_case(
            rng, (batch, 9, 8, 4), (3, 3, 4, depth_mult), 4 * depth_mult, bias_scale
        )
        if bias_scale == INT32_MAX:
            b[0] = INT32_MAX
        zp, lo, hi = int(rng.integers(-128, 128)), -100, 127
        want = K.dwconv2d_i8(x, w, b, stride, pad_h, pad_w, in_zp, zp, mult, shift, lo, hi)
        if pool:
            want = _POOL_FN[pool_kind](want, pool)
        taps, bias = K.prepare_dwconv_i8(w, b, in_zp)
        assert taps.dtype == route
        got = K.dwconv2d_i8_plan(
            x, taps, bias, stride, pad_h, pad_w, in_zp,
            K.Requantizer(mult, shift, zp, lo, hi), pool=pool, pool_kind=pool_kind,
        )
        assert got.dtype == np.int8 and np.array_equal(got, want)


@pytest.mark.parametrize("exact", [True, False], ids=["f64", "int64"])
@pytest.mark.parametrize("pool", [None, 2, 3])
@pytest.mark.parametrize("stride,pad", [(1, (1, 1)), (2, (0, 2)), (1, (0, 0))])
@pytest.mark.parametrize("batch", [1, 5])
def test_conv1d_plan_kernel_equals_generic(batch, stride, pad, pool, exact):
    rng = np.random.default_rng([batch, stride, pool or 0])
    for in_zp in (-128, 3, 127):
        x, w, b, mult, shift = _conv_case(rng, (batch, 14, 3), (3, 3, 5))
        zp = int(rng.integers(-128, 128))
        want = K.conv1d_i8(x, w, b, stride, pad, in_zp, zp, mult, shift)
        if pool:
            want = K.maxpool1d_i8(want, pool)
        w2d, bias = _gemm_operands(w, b, in_zp, exact)
        got = K.conv1d_i8_plan(
            x, w2d, 3, bias, stride, pad, in_zp, K.Requantizer(mult, shift, zp), pool=pool
        )
        assert got.dtype == np.int8 and np.array_equal(got, want)


@pytest.mark.parametrize("exact", [True, False], ids=["f64", "int64"])
@pytest.mark.parametrize("batch", [1, 5])
def test_fc_plan_kernel_equals_generic(batch, exact):
    rng = np.random.default_rng([batch, exact])
    for in_zp in (-128, -1, 127):
        x, w, b, _, _ = _conv_case(rng, (batch, 33), (33, 7))
        zp = int(rng.integers(-128, 128))
        want = K.fc_i8(x, w, b, in_zp, zp, 1518500250, -9, zp, 127)  # scalar multiplier, relu clamp
        w2d, bias = _gemm_operands(w, b, in_zp, exact)
        got = K.fc_i8_plan(x, w2d, bias, K.Requantizer(1518500250, -9, zp, zp, 127))
        assert got.dtype == np.int8 and np.array_equal(got, want)


def _tiny_int8_graph(factory, input_shape, **kwargs):
    rng = np.random.default_rng(5)
    fg = sequential_to_graph(factory(input_shape, 3, seed=0, **kwargs), "fastpath")
    return quantize_graph(fg, rng.standard_normal((8,) + input_shape).astype(np.float32))


def test_layer_over_the_f64_bound_binds_the_int64_gemm_and_stays_equal():
    graph = _tiny_int8_graph(cifar_cnn, (8, 8, 3), base_filters=4)
    conv = next(op for op in graph.ops if op.opcode == "CONV_2D")
    bias_t = graph.tensors[conv.inputs[2]]
    bias_t.data = bias_t.data.astype(np.int64)
    bias_t.data[0] = 2**53  # no float64 can promise this accumulator
    conv.attrs["out_mult"][0] = 0  # ...and no int64 product could hold it either
    plan = compile_plan(graph, cache=False)
    convs = [op for op in graph.ops if op.opcode == "CONV_2D"]
    gemm_dtypes = [
        K.prepare_gemm_i8(*(graph.tensors[i].data for i in op.inputs[1:]),
                          graph.tensors[op.inputs[0]].quant.zero_point)[0].dtype
        for op in convs
    ]
    assert gemm_dtypes == [np.int64] + [np.float64] * (len(convs) - 1)
    # The over-bound conv still absorbs its pool: its step writes the
    # pool's output.
    pool_out = next(op for op in graph.ops if op.inputs[0] == convs[0].outputs[0]).outputs[0]
    assert plan.steps[0].opcode == "CONV_2D" and plan.steps[0].out_id == pool_out
    x = np.random.default_rng(6).integers(-128, 128, size=(3, 8, 8, 3)).astype(np.int8)
    assert np.array_equal(plan.execute(x), run_graph_dispatch(graph, x))


def test_depthwise_layer_over_the_int32_bound_stays_equal():
    graph = _tiny_int8_graph(ds_cnn, (13, 8), filters=8, n_blocks=2)
    dw = next(op for op in graph.ops if op.opcode == "DEPTHWISE_CONV_2D")
    graph.tensors[dw.inputs[2]].data[0] = INT32_MAX
    x = np.random.default_rng(7).integers(-128, 128, size=(3, 13, 8)).astype(np.int8)
    assert np.array_equal(compile_plan(graph, cache=False).execute(x), run_graph_dispatch(graph, x))


def test_one_eon_plan_serves_every_batch_size():
    graph = _tiny_int8_graph(ds_cnn, (13, 8), filters=8, n_blocks=2)
    model = EONCompiler().compile(graph)
    plan = model.plan
    rng = np.random.default_rng(8)
    for batch in (1, 3, 16):
        x = rng.integers(-128, 128, size=(batch, 13, 8)).astype(np.int8)
        assert np.array_equal(model.invoke(x), run_graph_dispatch(graph, x))
        assert model.plan is plan


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    recorded = {}
    for task in GOLDEN_TASKS:
        _graph_path(task).write_bytes(graph_to_bytes(paper_scale_graphs(task).int8_graph))
        by_route = {route: _digests(task, route) for route in sorted(ROUTES)}
        digests = by_route["dispatch"]
        assert all(d == digests for d in by_route.values()), by_route
        fingerprint = hashlib.sha256(_graph_path(task).read_bytes()).hexdigest()
        recorded[task] = {"graph": fingerprint, "digests": digests}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=2) + "\n")
    print(GOLDEN_PATH.read_text())
