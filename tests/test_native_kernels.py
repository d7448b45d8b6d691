"""EON's C kernels (``runtime/eon_kernels.c`` via ``runtime/native``)
are the second kernel of every int8 conv / depthwise / conv1d / dense /
global average pool op, pinned to the first, the spec; a plan binds C,
or the spec itself where C cannot run the layer:

1. every int8 conv / depthwise / conv1d / dense / global average pool
   step and every float32
   depthwise step of the paper-scale plans binds C where a compiler
   exists, so a silent build failure cannot quietly leave the spec
   route in charge, and ``run_graph_dispatch`` never binds C, so every
   "plan == dispatch" check compares C with the spec;
2. one-layer graphs over the kernel-test grid (strides, asymmetric pads,
   fused max and average pools, extreme zero points, batch 1 and 5)
   equal the generic spec kernels through C, through the plan bound
   without the library, and through dispatch (``assert_plan_equals_spec``,
   which ``tests/test_int8_fastpath.py``'s grids share); the committed
   graphs with another stride or padding on a conv are refused at load
   or run their plan as dispatch runs them; float32
   depthwise layers equal their numpy twin byte for byte — generated
   shapes, special values, and operands where a fused multiply-add would
   round differently; on a VNNI host a second library built with
   ``-mno-avx512vnni`` (the portable loop) runs the GEMM grids, tail
   quads, a layer at the int32 bound, a window that ends at a
   ``PROT_NONE`` page and the golden digests to the same bytes as the
   ``vpdpbusd`` build; the int8 global average pool equals ``gap2d_i8``;
3. requantization at total shifts of 63 and beyond — which post-training
   quantization emits for a dead output channel — rounds to 0 in the
   spec and C alike, and a mantissa outside ``[0, 2**31)`` is refused
   when the plan is bound;
4. a compiler that fails falls back to the spec with the same bytes, a
   private build directory is removed once its library is loaded, and
   two threads running one C plan agree.

The golden digests run on both routes in ``tests/test_int8_fastpath.py``
and ``tests/test_quantize.py``.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import mmap
import pathlib
import platform
import shutil
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.tasks import paper_scale_graphs
from repro.graph import GOp, Graph, GTensor, QuantParams, sequential_to_graph
from repro.graph.serialize import graph_from_bytes, graph_to_bytes
from repro.nn import Sequential
from repro.nn.architectures import ds_cnn
from repro.nn.layers import Conv1D, Dense, GlobalAvgPool1D
from repro.quantize import quantize_graph
from repro.quantize.fixedpoint import (
    checked_mantissa,
    multiply_by_quantized_multiplier,
    total_shift_of,
)
from repro.runtime import compile_plan, run_graph_dispatch
from repro.runtime import kernels as K
from repro.runtime import native

LIB = native.load()
needs_cc = pytest.mark.skipif(LIB is None, reason="no C compiler / kernel library")

#: The opcodes whose int8 steps bind C.
NATIVE_OPS = ("CONV_2D", "DEPTHWISE_CONV_2D", "CONV_1D", "FULLY_CONNECTED",
              "GLOBAL_AVG_POOL_2D", "GLOBAL_AVG_POOL_1D")

DATA_DIR = pathlib.Path(__file__).parent / "data"
COMMITTED = ("kws", "ic", "vww")  # tests/data/int8_<task>.eir


def committed_blob(task: str) -> bytes:
    return (DATA_DIR / f"int8_{task}.eir").read_bytes()


def spec_plan(graph, **kwargs):
    """``graph``'s plan bound without the kernel library: the spec route."""
    with mock.patch.object(native, "load", lambda: None):
        return compile_plan(graph, cache=False, **kwargs)


def _bound_native(plan) -> list[bool]:
    return [isinstance(step.fn, native.NativeKernel) for step in plan.steps]


# -- (1) the paper-scale plans really bind C -----------------------------------


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("task", ["kws", "ic", "vww"])
def test_paper_scale_int8_plans_bind_c_for_every_weighted_step(task):
    assert LIB is not None, "cc is on PATH but the kernel library did not build"
    graph = paper_scale_graphs(task).int8_graph
    plan = compile_plan(graph, cache=False)
    weighted = [step.opcode in NATIVE_OPS for step in plan.steps]
    assert any(weighted)
    assert _bound_native(plan) == weighted
    assert not any(_bound_native(spec_plan(graph)))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("task", ["kws", "ic", "vww"])
def test_paper_scale_float32_plans_bind_c_for_every_depthwise_step(task):
    assert LIB is not None, "cc is on PATH but the kernel library did not build"
    graph = paper_scale_graphs(task).float_graph
    plan = compile_plan(graph, cache=False)
    depthwise = [step.opcode == "DEPTHWISE_CONV_2D" for step in plan.steps]
    assert any(depthwise) == (task != "ic")  # the IC CNN has no depthwise layer
    assert [isinstance(step.fn, native.DepthwiseF32Kernel) for step in plan.steps] == depthwise
    assert not any(_bound_native(spec_plan(graph)))


@needs_cc
def test_dispatch_never_binds_c():
    """While C kernels cannot be constructed, ``run_graph_dispatch`` still
    runs the committed int8 graphs and a float32 depthwise graph, and
    their plans, bound afterwards, run C and return dispatch's bytes."""
    graphs = [graph_from_bytes(committed_blob(task)) for task in COMMITTED]
    graphs.append(paper_scale_graphs("kws").float_graph)
    refuse = mock.Mock(side_effect=AssertionError("run_graph_dispatch bound a C kernel"))
    rng = np.random.default_rng(3)
    for graph in graphs:
        x = rng.standard_normal((2,) + tuple(graph.tensors[graph.input_id].shape)).astype(np.float32)
        with mock.patch.object(native, "ConvKernel", refuse), \
                mock.patch.object(native, "DepthwiseF32Kernel", refuse), \
                mock.patch.object(native, "GapKernel", refuse):
            want = run_graph_dispatch(graph, x)
        plan = compile_plan(graph, cache=False)
        assert any(_bound_native(plan))
        assert np.array_equal(plan.execute(x), want)
    assert not refuse.called


# -- (2) one-layer graphs through C equal the spec -----------------------------


def layer_graph(opcode, x, w, b, attrs, in_zp, out_zp, pool=None):
    """An int8 graph of one weighted op (and the ``(size, kind)`` pool it
    may absorb), and the spec's output for ``x``: the NHWC 2-D kernels on
    views of the op's arrays — a CONV_1D is a conv of height 1 (its pool
    window ``(1, size)``), a FULLY_CONNECTED a 1x1 conv over a 1xM image
    (M = 1 for a vector)."""
    g = Graph("layer")
    q = lambda zp: QuantParams(np.array([0.05]), zero_point=zp)  # noqa: E731
    xi = g.add_tensor(GTensor("x", x.shape[1:], "int8", quant=q(in_zp)))
    wi = g.add_tensor(GTensor("w", w.shape, "int8", data=w))
    bi = g.add_tensor(GTensor("b", b.shape, "int32", data=b))
    x4, w4, per_op = x, w, lambda a: a  # noqa: E731
    if opcode == "FULLY_CONNECTED":  # a 1x1 conv over a 1xM image
        x4, w4 = x.reshape(len(x), 1, -1, x.shape[-1]), w[None, None]
        per_op = lambda a: a.reshape(x.shape[:-1] + a.shape[-1:])  # noqa: E731
    elif opcode == "CONV_1D":  # height 1
        x4, w4, per_op = x[:, None], w[None], lambda a: a[:, 0]  # noqa: E731
    if opcode == "CONV_1D":
        pads = ((0, 0), attrs["pad"])
    else:
        pads = (attrs.get("pad_h", (0, 0)), attrs.get("pad_w", (0, 0)))
    spec = K.dwconv2d_i8 if opcode == "DEPTHWISE_CONV_2D" else K.conv2d_i8
    want = spec(x4, w4, b, attrs.get("stride", 1), *pads,
                in_zp, out_zp, attrs["out_mult"], attrs["out_shift"],
                attrs["clamp_min"], attrs["clamp_max"])
    yi = g.add_tensor(GTensor("y", per_op(want).shape[1:], "int8", quant=q(out_zp)))
    g.add_op(GOp(opcode, [xi, wi, bi], [yi], dict(attrs)))
    g.input_id = g.output_id = xi
    if pool is not None:
        size, kind = pool
        window = (1, size) if opcode == "CONV_1D" else (size, size)
        want = {"max": K.maxpool2d_i8, "avg": K.avgpool2d_i8}[kind](want, window)
        pi = g.add_tensor(GTensor("p", per_op(want).shape[1:], "int8", quant=q(out_zp)))
        pool_op = {"max": "MAX_POOL_1D" if opcode == "CONV_1D" else "MAX_POOL_2D",
                   "avg": "AVG_POOL_2D"}[kind]
        g.add_op(GOp(pool_op, [yi], [pi], {"pool_size": size}))
        yi = pi
    g.output_id = yi
    return g, per_op(want)


def _requant_attrs(rng, cout, lo=-128, hi=127):
    return {
        "out_mult": rng.integers(2**30, 2**31, size=cout).tolist(),
        "out_shift": rng.integers(-12, -6, size=cout).tolist(),
        "clamp_min": lo, "clamp_max": hi,
    }


def assert_plan_equals_spec(graph, x, want, binds_c=True):
    """The layer's step binds its C kernel exactly when ``binds_c`` and
    the library loads, else the spec; that plan, the plan bound without
    the library and dispatch all return ``want``, the spec's bytes."""
    plan = compile_plan(graph, cache=False, verify=False)
    assert _bound_native(plan)[0] == (binds_c and LIB is not None)
    kernel = plan.steps[0].fn
    if isinstance(kernel, native.ConvKernel) and graph.ops[0].opcode != "DEPTHWISE_CONV_2D":
        # int8 quads: coutp x kh x ceil(kw*c / 4) x 4 bytes
        p = dict(zip(native.PARAMS, kernel.params.tolist()))
        coutp = -(-p["cout"] // 16) * 16
        assert kernel.weights.dtype == np.int8
        assert kernel.weights.nbytes == coutp * p["kh"] * -(-p["kw"] * p["c"] // 4) * 4
    for got in (plan.execute(x), spec_plan(graph, verify=False).execute(x),
                run_graph_dispatch(graph, x)):
        assert got.dtype == np.int8 and np.array_equal(got, want)


POOLS = [None, (2, "max"), (2, "avg")]
GRID_2D = [
    ((3, 3), 1, [1, 1], [1, 1]),
    ((3, 2), 2, [1, 0], [0, 2]),
    ((1, 1), 1, [0, 0], [0, 0]),
    ((1, 1), 2, [0, 1], [1, 0]),
]


@needs_cc
@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("kernel,stride,pad_h,pad_w", GRID_2D)
@pytest.mark.parametrize("batch", [1, 5])
def test_c_conv2d_equals_the_spec(batch, kernel, stride, pad_h, pad_w, pool):
    rng = np.random.default_rng([batch, *kernel, stride, bool(pool)])
    for in_zp in (-128, -7, 0, 127):
        cout = int(rng.integers(1, 40))  # whole and partial channel blocks
        x = rng.integers(-128, 128, size=(batch, 9, 8, 3)).astype(np.int8)
        w = rng.integers(-128, 128, size=kernel + (3, cout)).astype(np.int8)
        b = rng.integers(-2000, 2000, size=cout).astype(np.int32)
        attrs = {"stride": stride, "pad_h": pad_h, "pad_w": pad_w,
                 **_requant_attrs(rng, cout)}
        graph, want = layer_graph("CONV_2D", x, w, b, attrs, in_zp,
                                  int(rng.integers(-128, 128)), pool)
        assert_plan_equals_spec(graph, x, want)


@needs_cc
@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("stride,pad_h,pad_w", [(1, [1, 1], [1, 1]), (2, [0, 1], [2, 0])])
@pytest.mark.parametrize("channels", [4, 16, 21])
@pytest.mark.parametrize("batch", [1, 5])
def test_c_depthwise_equals_the_spec(batch, channels, stride, pad_h, pad_w, pool):
    rng = np.random.default_rng([batch, channels, stride, bool(pool)])
    for in_zp in (-128, 5, 127):
        x = rng.integers(-128, 128, size=(batch, 9, 8, channels)).astype(np.int8)
        w = rng.integers(-128, 128, size=(3, 3, channels, 1)).astype(np.int8)
        b = rng.integers(-2000, 2000, size=channels).astype(np.int32)
        attrs = {"stride": stride, "pad_h": pad_h, "pad_w": pad_w,
                 **_requant_attrs(rng, channels, lo=-100)}
        graph, want = layer_graph("DEPTHWISE_CONV_2D", x, w, b, attrs, in_zp,
                                  int(rng.integers(-128, 128)), pool)
        assert_plan_equals_spec(graph, x, want)


@needs_cc
@pytest.mark.parametrize("pool", [None, 2, 3])
@pytest.mark.parametrize("stride,pad", [(1, [1, 1]), (2, [0, 2]), (1, [0, 0])])
@pytest.mark.parametrize("batch", [1, 5])
def test_c_conv1d_equals_the_spec(batch, stride, pad, pool):
    rng = np.random.default_rng([batch, stride, pool or 0])
    for in_zp in (-128, 3, 127):
        x = rng.integers(-128, 128, size=(batch, 14, 3)).astype(np.int8)
        w = rng.integers(-128, 128, size=(3, 3, 5)).astype(np.int8)
        b = rng.integers(-2000, 2000, size=5).astype(np.int32)
        attrs = {"stride": stride, "pad": pad, **_requant_attrs(rng, 5)}
        graph, want = layer_graph("CONV_1D", x, w, b, attrs, in_zp,
                                  int(rng.integers(-128, 128)),
                                  pool and (pool, "max"))
        assert_plan_equals_spec(graph, x, want)


@needs_cc
@pytest.mark.parametrize("batch", [1, 5])
def test_c_dense_equals_the_spec(batch):
    rng = np.random.default_rng([batch, 9])
    for in_zp in (-128, -1, 127):
        zp = int(rng.integers(-128, 128))
        x = rng.integers(-128, 128, size=(batch, 33)).astype(np.int8)
        w = rng.integers(-128, 128, size=(33, 7)).astype(np.int8)
        b = rng.integers(-2000, 2000, size=7).astype(np.int32)
        # A scalar multiplier and a relu clamp, as PTQ emits per-tensor.
        attrs = {"out_mult": 1518500250, "out_shift": -9, "clamp_min": zp, "clamp_max": 127}
        graph, want = layer_graph("FULLY_CONNECTED", x, w, b, attrs, in_zp, zp)
        assert_plan_equals_spec(graph, x, want)


@needs_cc
@pytest.mark.parametrize("batch", [1, 5])
def test_c_dense_over_a_sequence_equals_the_spec(batch):
    """A FULLY_CONNECTED over a ``(T, F)`` input is a 1x1 conv over a 1xT
    image, on C and in the spec."""
    rng = np.random.default_rng([batch, 10])
    x = rng.integers(-128, 128, size=(batch, 6, 9)).astype(np.int8)
    w = rng.integers(-128, 128, size=(9, 4)).astype(np.int8)
    b = rng.integers(-2000, 2000, size=4).astype(np.int32)
    graph, want = layer_graph("FULLY_CONNECTED", x, w, b, _requant_attrs(rng, 4), 5, -3)
    assert want.shape == (batch, 6, 4)
    assert_plan_equals_spec(graph, x, want)


@needs_cc
def test_a_layer_over_the_int32_bound_binds_numpy_and_stays_equal():
    """Past the bound the plan binds the spec's numpy kernel."""
    rng = np.random.default_rng(3)
    x = rng.integers(-128, 128, size=(2, 6, 6, 4)).astype(np.int8)
    w = rng.integers(-128, 128, size=(3, 3, 4, 5)).astype(np.int8)
    b = np.zeros(5, np.int32)
    b[1] = 2**31 - 36 * 128 * 128  # K*128*128 + |bias'| reaches 2**31
    attrs = {"stride": 1, "pad_h": [1, 1], "pad_w": [1, 1], **_requant_attrs(rng, 5)}
    graph, want = layer_graph("CONV_2D", x, w, b, attrs, 0, 0)
    assert_plan_equals_spec(graph, x, want, binds_c=False)
    b[1] -= 1  # one under the bound: C
    graph, want = layer_graph("CONV_2D", x, w, b, attrs, 0, 0)
    assert_plan_equals_spec(graph, x, want)


# -- (2b) the portable loop and the VNNI loop compute one answer --------------


@pytest.fixture(scope="module")
def portable_lib(tmp_path_factory):
    """A second kernel library, built with ``-mno-avx512vnni``: on a host
    whose CPU has VNNI the default build accumulates with ``vpdpbusd``,
    and this one runs the portable vector loop over the same quads."""
    if LIB is None or "avx512_vnni" not in native._cpu_flags().split():
        pytest.skip("no avx512_vnni: the host's one build is the portable loop")
    path = tmp_path_factory.mktemp("portable") / "eon_kernels_portable.so"
    with mock.patch.object(native, "FLAGS", native.FLAGS + ("-mno-avx512vnni",)):
        native._build(shutil.which("cc"), path)
    return native._declare(ctypes.CDLL(str(path)))


@pytest.fixture
def portable_library(portable_lib):
    """``native.load`` returns the portable build."""
    with mock.patch.object(native, "load", lambda: portable_lib):
        yield portable_lib


@pytest.fixture(params=["default", "portable"])
def each_library(request):
    """The host's library, then the portable build, as ``native.load``."""
    if request.param == "portable":
        yield request.getfixturevalue("portable_library")
        return
    if LIB is None:
        pytest.skip("no C compiler / kernel library")
    yield LIB


@pytest.mark.usefixtures("portable_library")
class TestThePortableBuild:
    """The GEMM kernel's tests, each case run again on the portable build."""

    test_c_conv2d_equals_the_spec = staticmethod(test_c_conv2d_equals_the_spec)
    test_c_conv1d_equals_the_spec = staticmethod(test_c_conv1d_equals_the_spec)
    test_c_dense_equals_the_spec = staticmethod(test_c_dense_equals_the_spec)
    test_c_dense_over_a_sequence_equals_the_spec = staticmethod(
        test_c_dense_over_a_sequence_equals_the_spec)


@pytest.mark.parametrize("task", COMMITTED)
def test_the_portable_build_keeps_the_golden_digests(portable_library, task):
    from test_int8_fastpath import GOLDEN_PATH, _digests, _golden_graphs

    plan = compile_plan(_golden_graphs(task)["output"], cache=False)
    assert any(step.fn.fn is portable_library.eon_conv_i8 for step in plan.steps
               if isinstance(step.fn, native.ConvKernel))
    assert _digests(task, "plan_default") == json.loads(GOLDEN_PATH.read_text())[task]["digests"]


@pytest.mark.parametrize("batch", [1, 5])
def test_layers_with_a_tail_quad_equal_the_spec(each_library, batch):
    """``kw*c % 4 != 0`` (a CONV_1D with kw 3 over 13 channels, a dense
    39 -> 12), cout not a multiple of 16, and all -128 weights and inputs."""
    rng = np.random.default_rng([batch, 13])
    for extreme in (False, True):
        draw = lambda shape: (np.full(shape, -128) if extreme  # noqa: E731
                              else rng.integers(-128, 128, size=shape)).astype(np.int8)
        for in_zp in (-128, 0, 127):
            x, w = draw((batch, 11, 13)), draw((3, 13, 21))
            b = rng.integers(-2000, 2000, size=21).astype(np.int32)
            attrs = {"stride": 1, "pad": [1, 2], **_requant_attrs(rng, 21)}
            graph, want = layer_graph("CONV_1D", x, w, b, attrs, in_zp, 7)
            assert_plan_equals_spec(graph, x, want)
            x, w = draw((batch, 39)), draw((39, 12))
            b = rng.integers(-2000, 2000, size=12).astype(np.int32)
            graph, want = layer_graph("FULLY_CONNECTED", x, w, b, _requant_attrs(rng, 12),
                                      in_zp, -5)
            assert_plan_equals_spec(graph, x, want)


def test_a_layer_at_the_int32_bound_equals_the_spec(each_library):
    """``K*128*128 + max|bias'| = 2**31 - 1`` exactly, K = 70001 taps (a
    one-byte tail quad).  Row 0 takes channel 0's ``(x + 128) * w`` at
    its largest, 255 * 127, so the unsigned-offset products alone sum past
    2**31; row 1 takes channel 1 to 2**31 - 1 itself."""
    k = 70_001
    bound = 2**31 - 1 - k * 128 * 128
    x = np.stack([np.full(k, 127), np.full(k, -128)]).astype(np.int8)
    w = np.stack([np.full(k, 127), np.full(k, -128), np.full(k, 127)], axis=1).astype(np.int8)
    b = np.array([bound, bound, -bound], np.int32)
    attrs = {"out_mult": 1 << 30, "out_shift": -24, "clamp_min": -128, "clamp_max": 127}
    graph, want = layer_graph("FULLY_CONNECTED", x, w, b, attrs, 0, 0)
    acc = x.astype(np.int64) @ w.astype(np.int64) + b
    assert k * 255 * 127 >= 2**31 and acc[1, 1] == 2**31 - 1 and np.abs(acc).max() < 2**31
    assert want[1, 1] == 64 and len(set(want.reshape(-1).tolist())) > 2
    assert_plan_equals_spec(graph, x, want)


def test_the_last_window_never_reads_past_its_image(each_library):
    """A CONV_1D with ``kw*c % 4 != 0`` whose input ends at the last byte
    before a ``PROT_NONE`` page: a kernel that read a byte past the
    window would fault here."""
    libc = ctypes.CDLL(None, use_errno=True)
    if not hasattr(libc, "mprotect"):
        pytest.skip("no mmap / mprotect")
    libc.mmap.restype = ctypes.c_void_p
    libc.mmap.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int,
                          ctypes.c_int, ctypes.c_long]
    libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    libc.munmap.argtypes = [ctypes.c_void_p, ctypes.c_size_t]
    page = mmap.PAGESIZE
    base = libc.mmap(None, 2 * page, mmap.PROT_READ | mmap.PROT_WRITE,
                     mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS, -1, 0)
    assert base not in (None, ctypes.c_void_p(-1).value)
    try:
        assert libc.mprotect(base + page, page, 0) == 0  # PROT_NONE
        rng = np.random.default_rng(21)
        shape = (3, 10, 13)  # kw 3 x c 13 = 39 bytes per window: a 3-byte tail quad
        size = int(np.prod(shape))
        x = np.ctypeslib.as_array((ctypes.c_int8 * size).from_address(base + page - size))
        x = x.reshape(shape)
        x[...] = rng.integers(-128, 128, size=shape)
        w = rng.integers(-128, 128, size=(3, 13, 18)).astype(np.int8)
        b = rng.integers(-2000, 2000, size=18).astype(np.int32)
        attrs = {"stride": 1, "pad": [0, 0], **_requant_attrs(rng, 18)}
        graph, want = layer_graph("CONV_1D", np.array(x), w, b, attrs, -9, 4)
        kernel = compile_plan(graph, cache=False, verify=False).steps[0].fn
        assert isinstance(kernel, native.ConvKernel)
        out = np.empty(want.shape, np.int8)
        kernel({kernel.x_id: x}, out, {"acc": np.empty(kernel.scratch_size, np.int32)})
        assert np.array_equal(out, want)
    finally:
        libc.munmap(base, 2 * page)


# -- (2c) the int8 global average pool ---------------------------------------


def gap_graph(x_shape):
    """An int8 graph of one GLOBAL_AVG_POOL_2D (a 3-D row shape) or
    GLOBAL_AVG_POOL_1D (2-D)."""
    g = Graph("gap")
    q = QuantParams(np.array([0.05]), zero_point=3)
    xi = g.add_tensor(GTensor("x", x_shape, "int8", quant=q))
    yi = g.add_tensor(GTensor("y", x_shape[-1:], "int8", quant=q))
    g.add_op(GOp("GLOBAL_AVG_POOL_2D" if len(x_shape) == 3 else "GLOBAL_AVG_POOL_1D",
                 [xi], [yi], {}))
    g.input_id, g.output_id = xi, yi
    return g


@needs_cc
@pytest.mark.parametrize("x_shape", [(2, 3, 70), (6, 8)], ids=["2d", "1d"])
@pytest.mark.parametrize("batch", [1, 5])
def test_c_global_average_pool_equals_the_spec(batch, x_shape):
    """``eon_gap_i8`` returns ``gap2d_i8``'s bytes over 6 pixels, past one
    block of 64 channels: negative means that are halves round away from
    zero (-0.5 -> -1, -1.5 -> -2), those that are not round down
    (-1/3 -> -1, -7/6 -> -2), and means saturate."""
    rng = np.random.default_rng([batch, len(x_shape)])
    x = rng.integers(-128, 128, size=(batch, *x_shape)).astype(np.int8)
    pixels = x.reshape(batch, 6, x_shape[-1])  # a view
    pixels[..., 0], pixels[..., 1], pixels[..., 2:6] = -128, 127, 0
    pixels[:, 0, 2:6] = (-3, -2, -9, -7)
    graph = gap_graph(x_shape)
    plan = compile_plan(graph, cache=False)
    assert isinstance(plan.steps[0].fn, native.GapKernel)
    want = K.gap2d_i8(x if len(x_shape) == 3 else x[:, None])
    assert want[:, :6].tolist() == [[-128, 127, -1, -1, -2, -2]] * batch
    for got in (plan.execute(x), spec_plan(graph).execute(x), run_graph_dispatch(graph, x)):
        assert got.dtype == np.int8 and np.array_equal(got, want)


#: The ``(before, after)`` paddings the geometry sweep gives each axis.
SWEEP_PADS = [(0, 0), (0, 1), (1, 1), (0, 2), (2, 0)]


def _geometry_variants(blob: bytes):
    """``blob`` re-serialised with one of its first four CONV_2D /
    DEPTHWISE_CONV_2D ops given each stride in 1..3 and each pair of
    :data:`SWEEP_PADS`."""
    graph = graph_from_bytes(blob)
    convs = [op for op in graph.ops if op.opcode in ("CONV_2D", "DEPTHWISE_CONV_2D")][:4]
    for op in convs:
        kept = {k: op.attrs[k] for k in ("stride", "pad_h", "pad_w")}
        for stride, pad_h, pad_w in itertools.product((1, 2, 3), SWEEP_PADS, SWEEP_PADS):
            op.attrs.update(stride=stride, pad_h=list(pad_h), pad_w=list(pad_w))
            yield graph_to_bytes(graph)
        op.attrs.update(kept)


@pytest.mark.parametrize("task", COMMITTED)
def test_conv_geometry_is_refused_at_load_or_runs_as_dispatch(task):
    """Every stride / padding variant of a committed graph's convs is
    either refused by ``graph_from_bytes`` (the output shapes no longer
    chain) or binds a plan — C where the library loads — that returns
    dispatch's bytes."""
    accepted, bound_c = 0, 0
    rng = np.random.default_rng(COMMITTED.index(task))
    for blob in _geometry_variants(committed_blob(task)):
        try:
            graph = graph_from_bytes(blob)
        except ValueError:
            continue
        accepted += 1
        x = rng.integers(-128, 128, size=(1,) + tuple(graph.tensors[graph.input_id].shape))
        x = x.astype(np.int8)
        plan = compile_plan(graph, cache=False)
        bound_c += any(_bound_native(plan))
        assert np.array_equal(plan.execute(x), run_graph_dispatch(graph, x))
    assert accepted > 4  # more than the authored geometry of each swept op
    assert bound_c == (accepted if LIB is not None else 0)


def _dwconv_f32_graph(x_shape, w, b, stride, pad_h, pad_w, activation, pool=None):
    """A float32 graph of one depthwise op (and the pool it may absorb)."""
    g = Graph("dw_f32")
    xi = g.add_tensor(GTensor("x", x_shape[1:], "float32"))
    wi = g.add_tensor(GTensor("w", w.shape, "float32", data=w))
    bi = g.add_tensor(GTensor("b", b.shape, "float32", data=b))
    kh, kw = w.shape[:2]
    oh = (x_shape[1] + sum(pad_h) - kh) // stride + 1
    ow = (x_shape[2] + sum(pad_w) - kw) // stride + 1
    yi = g.add_tensor(GTensor("y", (oh, ow, w.shape[2]), "float32"))
    g.add_op(GOp("DEPTHWISE_CONV_2D", [xi, wi, bi], [yi], {
        "stride": stride, "pad_h": list(pad_h), "pad_w": list(pad_w),
        "activation": activation, "depth_multiplier": 1}))
    if pool is not None:
        pi = g.add_tensor(GTensor("p", (oh // pool, ow // pool, w.shape[2]), "float32"))
        g.add_op(GOp("MAX_POOL_2D", [yi], [pi], {"pool_size": pool}))
        yi = pi
    g.input_id, g.output_id = xi, yi
    return g


def _assert_c_f32_equals_numpy(graph, x):
    """The C plan, the numpy plan and dispatch (the numpy twin
    ``K.dwconv2d_f32``) return the same bytes; returns them."""
    plan = compile_plan(graph, cache=False, verify=False)
    assert isinstance(plan.steps[0].fn, native.DepthwiseF32Kernel)
    got = plan.execute(x)
    assert got.dtype == np.float32
    with mock.patch.object(native, "load", lambda: None):
        fallback = compile_plan(graph, cache=False, verify=False)
    assert not _bound_native(fallback)[0]
    assert got.tobytes() == fallback.execute(x).tobytes()
    assert got.tobytes() == run_graph_dispatch(graph, x).tobytes()
    return got


_pads = st.tuples(st.integers(0, 3), st.integers(0, 3))


@needs_cc
@settings(max_examples=60, deadline=None)
@given(
    batch=st.sampled_from([1, 4]), height=st.integers(1, 9), width=st.integers(1, 9),
    channels=st.sampled_from([1, 8, 17, 64]),
    kernel=st.sampled_from([(3, 3), (1, 5), (5, 1), (1, 1), (2, 3), (4, 1), (1, 3)]),
    stride=st.integers(1, 3), pad_h=_pads, pad_w=_pads,
    activation=st.sampled_from(["none", "relu", "relu6"]), pool=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**16),
)
def test_c_float32_depthwise_equals_its_numpy_twin(
    batch, height, width, channels, kernel, stride, pad_h, pad_w, activation, pool, seed
):
    kh, kw = kernel
    oh = (height + sum(pad_h) - kh) // stride + 1
    ow = (width + sum(pad_w) - kw) // stride + 1
    if min(oh, ow) < (pool or 1):
        return
    rng = np.random.default_rng(seed)
    x = (3.0 * rng.standard_normal((batch, height, width, channels))).astype(np.float32)
    w = rng.standard_normal((kh, kw, channels, 1)).astype(np.float32)
    b = rng.standard_normal(channels).astype(np.float32)
    graph = _dwconv_f32_graph(x.shape, w, b, stride, pad_h, pad_w, activation, pool)
    _assert_c_f32_equals_numpy(graph, x)


_SPECIALS = {
    "zeros": [0.0, -0.0],
    "subnormals": [1e-40, -1e-40, 1e-45, -1e-45],
    "normals": [1.5, -2.5, 7.0],
    "infinities": [np.inf, -np.inf],
}


def _special_operands(seed, kinds, nan=False, shape=(3, 6, 5, 17)):
    rng = np.random.default_rng(seed)
    values = np.array(sum((_SPECIALS[k] for k in kinds), []) + [np.nan] * nan, np.float32)
    finite = np.array(sum((_SPECIALS[k] for k in kinds if k != "infinities"), []), np.float32)
    return (rng.choice(values, size=shape), rng.choice(finite, size=(3, 3, shape[-1], 1)),
            rng.choice(finite, size=shape[-1]))


@needs_cc
@pytest.mark.parametrize("activation", ["relu", "relu6", "none"])
@pytest.mark.parametrize("pad", [(0, 0), (1, 1)])
def test_special_values_take_both_float32_depthwise_routes_alike(activation, pad):
    """Through C and numpy alike: NaN propagates, infinities make their
    own NaNs (inf * 0), subnormals stay subnormal (no flush to zero),
    and the clamp is ``np.clip``'s.  The accumulator starts at +0.0, so
    no output is ever -0.0, even where every product and the bias are.
    Lanes and the scalar channel tail both see them (17 channels)."""
    cases = [
        (["zeros"], False),
        (["zeros", "subnormals", "normals"], True),
        (["zeros", "subnormals", "normals", "infinities"], False),
    ]
    with np.errstate(invalid="ignore"):
        for seed, (kinds, nan) in enumerate(cases):
            x, w, b = _special_operands(seed, kinds, nan)
            graph = _dwconv_f32_graph(x.shape, w, b, 1, pad, pad, activation)
            got = _assert_c_f32_equals_numpy(graph, x)
            assert not np.signbit(got[got == 0]).any()
            assert np.isnan(got).any() == (nan or "infinities" in kinds)
            if kinds == ["zeros"]:
                assert not got.any()
            elif "infinities" not in kinds:
                assert (np.abs(got[np.isfinite(got)]) < 1.2e-38).any()  # subnormal outputs
        # Every product -0.0 and a -0.0 bias: +0.0 + -0.0 + ... is +0.0.
        x = np.full((2, 4, 3, 17), -0.0, np.float32)
        w, b = np.zeros((3, 3, 17, 1), np.float32), np.full(17, -0.0, np.float32)
        graph = _dwconv_f32_graph(x.shape, w, b, 1, pad, pad, activation)
        got = _assert_c_f32_equals_numpy(graph, x)
        assert got.tobytes() == np.zeros_like(got).tobytes()


@pytest.fixture(scope="module")
def baseline_x86_lib(tmp_path_factory):
    """The kernels built for baseline x86-64 (SSE2, no AVX), where an
    8-float vector spans two registers and passing one by value would
    change the calling convention."""
    if LIB is None or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("needs a C compiler on an x86-64 host")
    path = tmp_path_factory.mktemp("x86-64") / "eon_kernels_x86_64.so"
    with mock.patch.object(native, "FLAGS", native.FLAGS + ("-march=x86-64",)):
        native._build(shutil.which("cc"), path)
    return native._declare(ctypes.CDLL(str(path)))


@pytest.fixture
def baseline_x86_library(baseline_x86_lib):
    """``native.load`` returns the baseline x86-64 build."""
    with mock.patch.object(native, "load", lambda: baseline_x86_lib):
        yield baseline_x86_lib


@pytest.mark.usefixtures("baseline_x86_library")
class TestTheBaselineX86Build:
    """The float32 depthwise special values again on a build without AVX."""

    test_special_values_take_both_float32_depthwise_routes_alike = staticmethod(
        test_special_values_take_both_float32_depthwise_routes_alike)


@needs_cc
def test_mixed_nans_agree_on_every_number():
    """A NaN from the input meeting a NaN from inf * 0 in one sum keeps one
    of the two: x86 returns the first operand's, and neither numpy nor
    the C compiler pins the operand order of a commutative add.  So such
    an element is a NaN on both routes, possibly of another sign; every
    other element is the same bytes."""
    x, w, b = _special_operands(4, ["zeros", "subnormals", "normals", "infinities"], nan=True)
    graph = _dwconv_f32_graph(x.shape, w, b, 1, (1, 1), (1, 1), "relu")
    with np.errstate(invalid="ignore"):
        got = compile_plan(graph, cache=False, verify=False).execute(x)
        want = run_graph_dispatch(graph, x)
    nan = np.isnan(want)
    assert nan.any() and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@needs_cc
def test_the_float32_depthwise_kernel_never_fuses_a_multiply_add():
    """acc = -(1 + 2**-11) from the first tap, then x*t with x = t =
    1 + 2**-12: the rounded product is 1 + 2**-11, so the unfused sum is
    0, while one fused multiply-add keeps the product's 2**-24."""
    one_up = np.float32(1 + 2.0**-12)
    acc0 = np.float32(-(1 + 2.0**-11))
    fused = np.float32(np.float64(one_up) * np.float64(one_up) + np.float64(acc0))
    unfused = np.float32(acc0 + np.float32(one_up * one_up))
    assert unfused == 0.0 and fused == 2.0**-24
    channels = 17  # two vectors of 8 lanes and one tail channel
    x = np.empty((1, 1, 2, channels), np.float32)
    x[:, :, 0], x[:, :, 1] = acc0, one_up
    w = np.empty((1, 2, channels, 1), np.float32)
    w[0, 0], w[0, 1] = 1.0, one_up
    graph = _dwconv_f32_graph(x.shape, w, np.zeros(channels, np.float32), 1, (0, 0), (0, 0), "none")
    got = _assert_c_f32_equals_numpy(graph, x)
    assert got.shape == (1, 1, 1, channels)
    assert got.tobytes() == np.full(channels, unfused, np.float32).tobytes()


# -- (3) requantization at the edges of its range -----------------------------


def _exact_requant(acc, mant, out_shift, zp=0, lo=-128, hi=127):
    """round-half-away(acc * mant / 2**(31 - out_shift)) in Python ints."""
    out = []
    for a in np.asarray(acc).reshape(-1).tolist():
        p, s = a * mant, 31 - out_shift
        r = (abs(p) + (1 << (s - 1))) >> s
        out.append(min(max((r if p >= 0 else -r) + zp, lo), hi))
    return np.array(out, dtype=np.int64)


def _c_requant(acc, mant, out_shift, zp=0, lo=-128, hi=127):
    acc = np.ascontiguousarray(acc, dtype=np.int32).reshape(-1)
    table = native.requant_table(checked_mantissa(mant), total_shift_of(out_shift), 1, 1)
    out = np.empty(acc.size, np.int8)
    LIB.eon_requant_i8(acc.ctypes.data, acc.size, 1, table.ctypes.data, zp, lo, hi,
                       out.ctypes.data)
    return out


#: Negative accumulators where the old shift arithmetic went wrong.
_EDGE_ACCS = np.array([-(2**31), -(2**31) + 1, -1000, -3, -1, 0, 1, 1000, 2**31 - 1])


@pytest.mark.parametrize("out_shift", list(range(-31, -41, -1)) + [-100])
@pytest.mark.parametrize("mant", [1, 2**30, 2**31 - 1])
def test_requantization_at_total_shifts_of_62_and_beyond(out_shift, mant):
    want = _exact_requant(_EDGE_ACCS, mant, out_shift)
    if out_shift <= -32:
        assert not want.any()  # |acc * mant| < 2**62: every result rounds to 0
    spec = np.clip(multiply_by_quantized_multiplier(_EDGE_ACCS, mant, out_shift), -128, 127)
    assert np.array_equal(spec, want)
    if LIB is not None:
        assert np.array_equal(_c_requant(_EDGE_ACCS, mant, out_shift), want)


def test_a_dead_unit_with_a_negative_bias_runs_like_the_spec():
    """PTQ gives an all-zero output channel a 1e-9 weight scale, so its
    exponent lands near -36; with a negative bias the old requantizer
    returned -1 there where the spec returned 0."""
    model = Sequential([Conv1D(4, 3, padding="same"), GlobalAvgPool1D(), Dense(3)],
                       input_shape=(12, 2), seed=0)
    weights = model.get_weights()
    weights[0][..., 0] = 0.0  # the conv's first output channel is dead...
    weights[1][0] = -0.5      # ...with a negative bias, and no activation
    model.set_weights(weights)
    calib = np.random.default_rng(1).standard_normal((16, 12, 2)).astype(np.float32)
    graph = quantize_graph(sequential_to_graph(model, "dead"), calib)
    conv = next(op for op in graph.ops if op.opcode == "CONV_1D")
    assert conv.attrs["out_shift"][0] <= -33
    bias = graph.tensors[conv.inputs[2]].data
    assert bias[0] < 0
    x = np.random.default_rng(2).standard_normal((6, 12, 2)).astype(np.float32)
    want = run_graph_dispatch(graph, x)
    for plan in (compile_plan(graph, cache=False), spec_plan(graph)):
        assert np.array_equal(plan.execute(x), want)
    bias[0] = -1000  # a small negative bias: int32-provable, so C runs it
    want = run_graph_dispatch(graph, x)
    plan = compile_plan(graph, cache=False)
    assert _bound_native(plan)[0] == (LIB is not None)
    assert np.array_equal(plan.execute(x), want)
    assert np.array_equal(spec_plan(graph).execute(x), want)


def _ds_cnn_float():
    return sequential_to_graph(ds_cnn((13, 8), 3, filters=8, n_blocks=1, seed=0), "forge")


def _ds_cnn_int8(per_channel=True):
    calib = np.random.default_rng(5).standard_normal((8, 13, 8)).astype(np.float32)
    return quantize_graph(_ds_cnn_float(), calib, per_channel=per_channel)


def _forged_mantissas():
    """Two forged blobs: a per-tensor JSON-scalar mantissa of 2**31, and a
    negative value in a per-channel ``<i4`` mantissa blob."""
    graph = _ds_cnn_int8()
    fc = next(op for op in graph.ops if op.opcode == "FULLY_CONNECTED")
    fc.attrs["out_mult"], fc.attrs["out_shift"] = 2**31, fc.attrs["out_shift"][0]
    scalar = graph_to_bytes(graph)
    assert b'"out_mult":2147483648' in scalar
    graph = _ds_cnn_int8()
    conv = next(op for op in graph.ops if op.opcode == "CONV_2D")
    conv.attrs["out_mult"][0] = -(2**31)
    negative = graph_to_bytes(graph)
    assert b"__blob_out_mult" in negative
    return graph_from_bytes(scalar), graph_from_bytes(negative)


@pytest.mark.parametrize("route", ["native", "numpy"])
def test_a_forged_mantissa_is_refused_at_bind_time(route):
    for graph in _forged_mantissas():
        with pytest.raises(ValueError, match="mantissa"):
            if route == "numpy":
                spec_plan(graph)
            else:
                compile_plan(graph, cache=False)
        with pytest.raises(ValueError, match="mantissa"):
            run_graph_dispatch(graph, np.zeros((1, 13, 8), np.float32))


# -- (4) the loader and its fallback ------------------------------------------


def test_the_library_name_keys_every_input():
    names = {
        native.library_name(b"src", "cc:1:2", "avx2"),
        native.library_name(b"src2", "cc:1:2", "avx2"),
        native.library_name(b"src", "cc:1:3", "avx2"),
        native.library_name(b"src", "cc:1:2", "avx512f"),
    }
    assert len(names) == 4
    with mock.patch.object(native, "FLAGS", native.FLAGS + ("-O0",)):
        assert native.library_name(b"src", "cc:1:2", "avx2") not in names


def test_an_unwritable_cache_falls_back_to_a_private_directory(tmp_path, monkeypatch):
    access = native.os.access
    unwritable = lambda path, mode, *a, **k: (  # noqa: E731
        False if native.Path(path) == native.CACHE else access(path, mode, *a, **k))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with mock.patch.object(native.os, "access", unwritable):
        cache = native._cache_dir()
        assert cache != native.CACHE and cache.is_dir() and cache.parent == tmp_path
        cache.rmdir()
        if shutil.which("cc") is None:
            return
        # A flag the cached library was not built with: this process
        # compiles its own, into a private directory, and removes it.
        with mock.patch.object(native, "_loaded", []), \
                mock.patch.object(native, "FLAGS", native.FLAGS + ("-DEON_PRIVATE_BUILD",)):
            lib = native.load()
    assert lib is not None and lib.eon_channel_block() == 16
    assert list(tmp_path.iterdir()) == []  # nothing left under the temp root
    assert not any("EON_PRIVATE" in p.name for p in native.CACHE.iterdir())


@pytest.mark.parametrize("compiler", ["fails", "writes-garbage", "missing"])
def test_a_broken_compiler_falls_back_to_the_same_bytes(tmp_path, compiler):
    fake = tmp_path / "cc"
    body = {"fails": "exit 1", "missing": "exit 0",
            "writes-garbage": 'while [ "$1" != "-o" ]; do shift; done; echo junk > "$2"'}
    fake.write_text("#!/bin/sh\n" + body[compiler] + "\n")
    fake.chmod(0o755)
    which = (lambda name: None) if compiler == "missing" else (lambda name: str(fake))
    graphs = (_ds_cnn_int8(), _ds_cnn_float())
    x = np.random.default_rng(4).standard_normal((3, 13, 8)).astype(np.float32)
    cache = native.CACHE
    before = set(cache.iterdir())
    with mock.patch.object(native, "_loaded", []), \
            mock.patch.object(native.shutil, "which", which):
        assert native.load() is None
        plans = [compile_plan(graph, cache=False) for graph in graphs]
    assert set(cache.iterdir()) == before  # no half-written library left behind
    for graph, plan in zip(graphs, plans):
        assert not any(_bound_native(plan))
        assert plan.execute(x).tobytes() == run_graph_dispatch(graph, x).tobytes()
        if LIB is not None:
            native_plan = compile_plan(graph, cache=False)
            assert any(_bound_native(native_plan))
            assert native_plan.execute(x).tobytes() == plan.execute(x).tobytes()


@needs_cc
def test_a_library_whose_constants_disagree_is_refused():
    assert LIB.eon_param_count() == len(native.PARAMS)
    with mock.patch.object(native, "PARAMS", native.PARAMS + ("extra",)), \
            pytest.raises(AttributeError, match="disagree"):
        native._declare(ctypes.CDLL(LIB._name))


@needs_cc
def test_two_threads_running_one_c_plan_agree():
    graph = paper_scale_graphs("kws").int8_graph
    plan = compile_plan(graph, cache=False)
    assert any(_bound_native(plan))
    rng = np.random.default_rng(11)
    shape = tuple(graph.tensors[graph.input_id].shape)
    inputs = [rng.standard_normal((rows,) + shape).astype(np.float32) for rows in (1, 3)]
    wants = [run_graph_dispatch(graph, x) for x in inputs]
    errors: list[str] = []
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        for n in range(100):
            if not np.array_equal(plan.execute(inputs[i]), wants[i]):
                errors.append(f"thread {i} iteration {n}")
                return

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
