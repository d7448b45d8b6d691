"""The int8 plan is pinned to the spec three ways.  Each int8 conv /
depthwise / conv1d / dense step binds EON's C kernel or, where C cannot
run the layer, the spec kernel itself:

1. C's requantization (``eon_requant_i8``, on the constants
   ``native.ConvKernel`` lays out) equals ``multiply_by_quantized_multiplier``
   (+ zero point, clipped) on every int32-range accumulator;
2. each bound step equals dispatch on one-layer graphs over random
   tensors, on both routes, including one case per reason a layer binds
   the spec (a bias past the int32 bound, a depth multiplier);
3. golden digests: sha256 of the int8 output bytes of the paper-scale
   graphs, recorded from the commit *before* the plan had a fast path
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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.tasks import paper_scale_graphs
from repro.graph import sequential_to_graph
from repro.graph.serialize import graph_from_bytes, graph_to_bytes
from repro.nn.architectures import cifar_cnn, ds_cnn
from repro.quantize import quantize_graph
from repro.quantize.fixedpoint import (
    checked_mantissa,
    multiply_by_quantized_multiplier,
    total_shift_of,
)
from repro.runtime import (
    EONCompiler,
    TFLMInterpreter,
    compile_plan,
    run_graph_dispatch,
)
from repro.runtime import kernels as K
from repro.runtime import native
from test_native_kernels import assert_plan_equals_spec, layer_graph, needs_cc, spec_plan

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN_PATH = DATA_DIR / "int8_golden.json"
GOLDEN_TASKS = ("kws", "ic", "vww")
GOLDEN_BATCHES = (1, 4)

#: Every way the runtime can execute an int8 graph.  Plans bind the C
#: kernels where a compiler exists; ``plan_spec`` binds the spec kernels.
ROUTES = {
    "dispatch": lambda g: lambda x: run_graph_dispatch(g, x),
    "plan_default": lambda g: compile_plan(g, cache=False).execute,
    "plan_spec": lambda g: spec_plan(g).execute,
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


# -- (i) C's requantization equals the spec -----------------------------------

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


@needs_cc
@settings(max_examples=300, deadline=None)
@given(_requant_cases())
@example((np.array([[-5], [5], [-6]], dtype=np.int64), 1, 29, 0, -128, 127))  # prod=-5, shift=2
def test_requantizer_equals_the_spec(case):
    acc, mult, shift, zp, lo, hi = case
    want = _spec_requant(acc, mult, shift, zp, lo, hi)
    channels = acc.shape[1]
    table = native.requant_table(checked_mantissa(mult), total_shift_of(shift), channels, channels)
    acc32 = np.ascontiguousarray(acc, dtype=np.int32)
    got = np.empty(acc.shape, np.int8)
    native.load().eon_requant_i8(acc32.ctypes.data, acc32.size, channels, table.ctypes.data,
                                 zp, lo, hi, got.ctypes.data)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shift", [31, [0, 40]])
def test_requantizer_rejects_the_shifts_the_spec_rejects(shift):
    """A plan refuses, when it is bound and on both routes, the shifts the
    spec refuses when it runs, with the spec's message."""
    acc = np.zeros((1, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="multiplier exponent too large") as spec:
        multiply_by_quantized_multiplier(acc, 2**30, shift)
    rng = np.random.default_rng(1)
    x = rng.integers(-128, 128, size=(1, 5)).astype(np.int8)
    w = rng.integers(-128, 128, size=(5, 2)).astype(np.int8)
    attrs = {"out_mult": 2**30, "out_shift": 30, "clamp_min": -128, "clamp_max": 127}
    graph, want = layer_graph("FULLY_CONNECTED", x, w, np.zeros(2, np.int32), attrs, 0, 0)
    assert_plan_equals_spec(graph, x, want)  # total shift 1: the last legal one
    graph.ops[0].attrs["out_shift"] = shift
    for bind in (lambda: compile_plan(graph, cache=False, verify=False),
                 lambda: spec_plan(graph, verify=False)):
        with pytest.raises(ValueError) as bound:
            bind()
        assert str(bound.value) == str(spec.value)


# -- (ii) each bound step equals dispatch, on both routes ---------------------
#
# One-layer graphs through ``assert_plan_equals_spec``: the plan binds C
# where the library loads, the plan bound without it and dispatch run the
# spec, and all three return the spec's bytes.  A case's ``in_bound``
# (test ids "f64" / "int64", the GEMM dtypes an older numpy route bound
# these two cases with) decides whether the bias keeps the layer inside
# C's int32 proof or pushes it past, so that it binds the spec.


def _conv_case(rng, x_shape, w_shape, cout=None):
    cout = cout or w_shape[-1]
    x = rng.integers(-128, 128, size=x_shape).astype(np.int8)
    w = rng.integers(-128, 128, size=w_shape).astype(np.int8)
    b = rng.integers(-2000, 2000, size=cout).astype(np.int32)
    mult = rng.integers(2**30, 2**31, size=cout).tolist()
    shift = rng.integers(-12, -6, size=cout).tolist()
    return x, w, b, mult, shift


def _past_the_int32_bound(b, w0, in_zp):
    """Push output channel 0's folded bias, ``b[0] - in_zp * sum(w0)``
    (``w0``: that channel's weights), past C's int32 proof."""
    b[0] = INT32_MAX if in_zp * int(w0.sum(dtype=np.int64)) <= 0 else -(2**31)


def _requant(mult, shift, lo=-128, hi=127):
    return {"out_mult": mult, "out_shift": shift, "clamp_min": lo, "clamp_max": hi}


POOLS = [(None, "max"), (2, "max"), (2, "avg")]
BOUNDS = pytest.mark.parametrize("in_bound", [True, False], ids=["f64", "int64"])


@BOUNDS
@pytest.mark.parametrize("pool,pool_kind", POOLS)
@pytest.mark.parametrize("kernel,stride,pad_h,pad_w", [
    ((3, 3), 1, (1, 1), (1, 1)),
    ((3, 2), 2, (1, 0), (0, 2)),
    ((1, 1), 1, (0, 0), (0, 0)),
    ((1, 1), 2, (0, 1), (1, 0)),
])
@pytest.mark.parametrize("batch", [1, 5])
def test_conv2d_plan_kernel_equals_generic(batch, kernel, stride, pad_h, pad_w, pool, pool_kind, in_bound):
    rng = np.random.default_rng([batch, *kernel, stride, bool(pool)])
    for in_zp in (-128, -7, 0, 127):
        x, w, b, mult, shift = _conv_case(rng, (batch, 9, 8, 3), kernel + (3, 4))
        if not in_bound:
            _past_the_int32_bound(b, w[..., 0], in_zp)
        zp = int(rng.integers(-128, 128))
        attrs = {"stride": stride, "pad_h": pad_h, "pad_w": pad_w, **_requant(mult, shift)}
        graph, want = layer_graph("CONV_2D", x, w, b, attrs, in_zp, zp, pool and (pool, pool_kind))
        assert_plan_equals_spec(graph, x, want, binds_c=in_bound)


@pytest.mark.parametrize("pool,pool_kind", POOLS)
@pytest.mark.parametrize("stride,pad_h,pad_w", [(1, (1, 1), (1, 1)), (2, (0, 1), (2, 0))])
@pytest.mark.parametrize("depth_mult,in_bound", [
    (1, True),   # int32 tap accumulation proven: C
    (1, False),  # bias too big for the int32 proof: the spec
    (2, True),   # C has no depth multiplier: the spec
], ids=["taps", "huge-bias", "depth-mult"])
@pytest.mark.parametrize("batch", [1, 5])
def test_dwconv2d_plan_kernel_equals_generic(batch, depth_mult, in_bound, stride, pad_h, pad_w, pool, pool_kind):
    rng = np.random.default_rng([batch, depth_mult, stride, bool(pool)])
    for in_zp in (-128, 5, 127):
        x, w, b, mult, shift = _conv_case(rng, (batch, 9, 8, 4), (3, 3, 4, depth_mult), 4 * depth_mult)
        if not in_bound:
            _past_the_int32_bound(b, w[:, :, 0, 0], in_zp)
        zp = int(rng.integers(-128, 128))
        attrs = {"stride": stride, "pad_h": pad_h, "pad_w": pad_w, **_requant(mult, shift, lo=-100)}
        graph, want = layer_graph("DEPTHWISE_CONV_2D", x, w, b, attrs, in_zp, zp,
                                  pool and (pool, pool_kind))
        assert_plan_equals_spec(graph, x, want, binds_c=in_bound and depth_mult == 1)


@BOUNDS
@pytest.mark.parametrize("pool", [None, 2, 3])
@pytest.mark.parametrize("stride,pad", [(1, (1, 1)), (2, (0, 2)), (1, (0, 0))])
@pytest.mark.parametrize("batch", [1, 5])
def test_conv1d_plan_kernel_equals_generic(batch, stride, pad, pool, in_bound):
    rng = np.random.default_rng([batch, stride, pool or 0])
    for in_zp in (-128, 3, 127):
        x, w, b, mult, shift = _conv_case(rng, (batch, 14, 3), (3, 3, 5))
        if not in_bound:
            _past_the_int32_bound(b, w[..., 0], in_zp)
        zp = int(rng.integers(-128, 128))
        attrs = {"stride": stride, "pad": pad, **_requant(mult, shift)}
        graph, want = layer_graph("CONV_1D", x, w, b, attrs, in_zp, zp, pool and (pool, "max"))
        assert_plan_equals_spec(graph, x, want, binds_c=in_bound)


@BOUNDS
@pytest.mark.parametrize("batch", [1, 5])
def test_fc_plan_kernel_equals_generic(batch, in_bound):
    rng = np.random.default_rng([batch, in_bound])
    for in_zp in (-128, -1, 127):
        x, w, b, _, _ = _conv_case(rng, (batch, 33), (33, 7))
        if not in_bound:
            _past_the_int32_bound(b, w[..., 0], in_zp)
        zp = int(rng.integers(-128, 128))
        attrs = _requant(1518500250, -9, zp, 127)  # scalar multiplier, relu clamp
        graph, want = layer_graph("FULLY_CONNECTED", x, w, b, attrs, in_zp, zp)
        assert_plan_equals_spec(graph, x, want, binds_c=in_bound)


def _tiny_int8_graph(factory, input_shape, **kwargs):
    rng = np.random.default_rng(5)
    fg = sequential_to_graph(factory(input_shape, 3, seed=0, **kwargs), "fastpath")
    return quantize_graph(fg, rng.standard_normal((8,) + input_shape).astype(np.float32))


def test_layer_past_the_int32_bound_binds_the_spec_and_stays_equal():
    graph = _tiny_int8_graph(cifar_cnn, (8, 8, 3), base_filters=4)
    convs = [op for op in graph.ops if op.opcode == "CONV_2D"]
    w = graph.tensors[convs[0].inputs[1]].data
    _past_the_int32_bound(graph.tensors[convs[0].inputs[2]].data, w[..., 0],
                          graph.tensors[convs[0].inputs[0]].quant.zero_point)
    plan = compile_plan(graph, cache=False)
    conv_steps = [step for step in plan.steps if step.opcode == "CONV_2D"]
    bound_c = [isinstance(step.fn, native.ConvKernel) for step in conv_steps]
    assert bound_c == [False] + [native.load() is not None] * (len(convs) - 1)
    # The conv past the bound still absorbs its pool: its step writes the
    # pool's output.
    pool_out = next(op for op in graph.ops if op.inputs[0] == convs[0].outputs[0]).outputs[0]
    assert plan.steps[0] is conv_steps[0] and plan.steps[0].out_id == pool_out
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



@pytest.mark.xfail(strict=True, reason=(
    "_round_div_i8 floors a negative mean that is not a half (-0.25 -> -1); "
    "fixing it moves the kws and ic golden digests, so it is a re-recording change"))
def test_int8_averages_round_like_tflm():
    """TFLM's reference average pool adds count/2 away from zero, then
    divides truncating toward zero: -0.25 -> 0, -1.25 -> -1, -0.5 -> -1."""
    sums = np.array([-1, -5, -2, -6, -3, 1, 5, 2, 6])
    want = np.sign(sums) * ((np.abs(sums) + 2) // 4)  # count 4
    rows = np.zeros((sums.size, 4, 1), np.int8)
    rows[:, 0, 0] = sums  # one nonzero value per window of 4
    assert np.array_equal(K.gap2d_i8(rows[:, None]).reshape(-1), want)  # GAP_1D: height 1
    image = rows.reshape(1, sums.size, 2, 2).transpose(0, 2, 1, 3).reshape(1, 2, 2 * sums.size, 1)
    assert np.array_equal(K.avgpool2d_i8(image, (2, 2)).reshape(-1), want)

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
