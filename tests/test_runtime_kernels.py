"""Direct kernel correctness: each integer kernel vs its float reference
under controlled quantization, and each float32 conv kernel vs a float64
loop-over-taps reference that shares no code with it (the e2e oracle
runs the runtime's own kernels, so it cannot vouch for them).  The 1-D
and dense ops, which run on the 2-D kernels through views, are checked
as one-op graphs through ``run_graph_dispatch`` and ``run_graph``."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GOp, Graph, GTensor, sequential_to_graph
from repro.graph.ops import QuantParams
from repro.nn.architectures import ds_cnn
from repro.quantize.fixedpoint import quantize_multiplier
from repro.runtime import compile_plan, executor, native, run_graph, run_graph_dispatch
from repro.runtime import kernels as K

RNG = np.random.default_rng(0)


def _qparams_for(values, symmetric=False):
    lo = min(float(values.min()), 0.0)
    hi = max(float(values.max()), 0.0)
    if symmetric:
        m = max(abs(lo), abs(hi), 1e-9)
        return QuantParams(scale=np.array([m / 127.0]), zero_point=0)
    scale = max((hi - lo) / 255.0, 1e-9)
    zp = int(np.clip(round(-128 - lo / scale), -128, 127))
    return QuantParams(scale=np.array([scale]), zero_point=zp)


def _conv_setup(shape, w_shape, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=shape).astype(np.float32)
    w = rng.uniform(-0.5, 0.5, size=w_shape).astype(np.float32)
    b = rng.uniform(-0.2, 0.2, size=w_shape[-1]).astype(np.float32)
    return x, w, b


def _quantize_conv(x, w, b, out_float):
    """Build all the quantization machinery for one conv-like op."""
    xq_p = _qparams_for(x)
    wq_p = _qparams_for(w, symmetric=True)
    oq_p = _qparams_for(out_float)
    xq = xq_p.quantize(x)
    wq = wq_p.quantize(w)
    bias_scale = float(xq_p.scale[0] * wq_p.scale[0])
    bq = np.round(b / bias_scale).astype(np.int32)
    mult, shift = quantize_multiplier(bias_scale / float(oq_p.scale[0]))
    return xq, wq, bq, xq_p, oq_p, mult, shift


def test_conv2d_int8_close_to_float():
    x, w, b = _conv_setup((2, 8, 8, 3), (3, 3, 3, 4))
    ref = K.conv2d_f32(x, w, b, 1, (1, 1), (1, 1))
    xq, wq, bq, xq_p, oq_p, mult, shift = _quantize_conv(x, w, b, ref)
    out_q = K.conv2d_i8(xq, wq, bq, 1, (1, 1), (1, 1),
                        in_zp=xq_p.zero_point, out_zp=oq_p.zero_point,
                        out_mult=[mult] * 4, out_shift=[shift] * 4)
    dequant = oq_p.dequantize(out_q)
    tol = 3 * float(oq_p.scale[0]) + 0.02
    assert np.abs(dequant - ref).max() < tol


def test_dwconv2d_int8_close_to_float():
    x, w, b = _conv_setup((2, 6, 6, 4), (3, 3, 4, 1))
    ref = K.dwconv2d_f32(x, w, b, 2, (1, 0), (1, 0))
    xq, wq, bq, xq_p, oq_p, mult, shift = _quantize_conv(x, w, b, ref)
    out_q = K.dwconv2d_i8(xq, wq, bq, 2, (1, 0), (1, 0),
                          in_zp=xq_p.zero_point, out_zp=oq_p.zero_point,
                          out_mult=[mult] * 4, out_shift=[shift] * 4)
    dequant = oq_p.dequantize(out_q)
    assert np.abs(dequant - ref).max() < 3 * float(oq_p.scale[0]) + 0.02


def _layer(opcode, x_shape, y_shape, attrs, consts=(), dtype="float32", x_q=None, y_q=None):
    """A graph of one ``opcode`` op over per-row ``x_shape``, its
    constants ``consts`` (weights, bias) given as ``(array, qparams)``."""
    g = Graph(opcode.lower())
    xi = g.add_tensor(GTensor("x", x_shape, dtype, quant=x_q))
    ins = [xi] + [
        g.add_tensor(GTensor(f"c{i}", c.shape, str(c.dtype), data=c, quant=q))
        for i, (c, q) in enumerate(consts)
    ]
    yi = g.add_tensor(GTensor("y", y_shape, dtype, quant=y_q))
    g.add_op(GOp(opcode, ins, [yi], attrs))
    g.input_id, g.output_id = xi, yi
    return g


def _run_layer(graph, x):
    """``graph`` on ``x`` through ``run_graph_dispatch`` (the spec, op by
    op) and ``run_graph`` (its plan), which must agree to the byte; ``x``
    must come back bit-unchanged."""
    kept = x.copy()
    got = run_graph_dispatch(graph, x)
    assert run_graph(graph, x).tobytes() == got.tobytes()
    assert x.tobytes() == kept.tobytes()
    return got


def _int8_layer_close_to_float(opcode, x, w, b, attrs, ref):
    """The int8 layer, quantized from float ``x, w, b``, dequantizes to
    within a few LSB of the float64 reference ``ref``."""
    xq, wq, bq, xq_p, oq_p, mult, shift = _quantize_conv(x, w, b, ref)
    wq_p = _qparams_for(w, symmetric=True)
    bq_p = QuantParams(scale=xq_p.scale * wq_p.scale, zero_point=0)
    cout = w.shape[-1]
    attrs = dict(attrs, activation="none", out_mult=[mult] * cout, out_shift=[shift] * cout,
                 clamp_min=-128, clamp_max=127)
    consts = ((wq, wq_p), (bq, bq_p))
    graph = _layer(opcode, x.shape[1:], ref.shape[1:], attrs, consts, "int8", xq_p, oq_p)
    out_q = _run_layer(graph, xq)
    assert out_q.dtype == np.int8
    assert np.abs(oq_p.dequantize(out_q) - ref).max() < 3 * float(oq_p.scale[0]) + 0.02


def test_conv1d_int8_close_to_float():
    x, w, b = _conv_setup((2, 12, 3), (3, 3, 5))
    ref = _ref_conv1d(x, w, b, 1, (1, 1), "none")
    _int8_layer_close_to_float("CONV_1D", x, w, b, {"stride": 1, "pad": [1, 1]}, ref)


def test_fc_int8_close_to_float():
    x, w, b = _conv_setup((4, 10), (10, 6))
    _int8_layer_close_to_float("FULLY_CONNECTED", x, w, b, {}, _ref_fc(x, w, b, "none"))


def test_relu_clamp_matches_float_relu():
    x, w, b = _conv_setup((1, 6, 6, 2), (3, 3, 2, 3), seed=3)
    ref = K.conv2d_f32(x, w, b, 1, (1, 1), (1, 1), activation="relu")
    xq, wq, bq, xq_p, oq_p, mult, shift = _quantize_conv(x, w, b, ref)
    out_q = K.conv2d_i8(xq, wq, bq, 1, (1, 1), (1, 1),
                        in_zp=xq_p.zero_point, out_zp=oq_p.zero_point,
                        out_mult=[mult] * 3, out_shift=[shift] * 3,
                        clamp_min=max(-128, oq_p.zero_point), clamp_max=127)
    dequant = oq_p.dequantize(out_q)
    assert dequant.min() >= -float(oq_p.scale[0])  # relu floor within 1 LSB
    assert np.abs(dequant - ref).max() < 3 * float(oq_p.scale[0]) + 0.02


def test_avgpool_int8_rounding():
    qp = QuantParams(scale=np.array([0.1]), zero_point=0)
    x = np.array([[[[10], [11]], [[12], [13]]]], dtype=np.int8)
    out = K.avgpool2d_i8(x, (2, 2))
    assert out[0, 0, 0, 0] == 12  # (10+11+12+13)/4 = 11.5 -> round 12


def test_gap_int8_matches_float_within_lsb():
    x_float = RNG.uniform(-1, 1, size=(2, 5, 5, 3)).astype(np.float32)
    qp = _qparams_for(x_float)
    xq = qp.quantize(x_float)
    out_q = K.gap2d_i8(xq)
    ref = K.gap2d_f32(qp.dequantize(xq))
    assert np.abs(qp.dequantize(out_q) - ref).max() <= float(qp.scale[0]) * 1.01


def test_maxpool_int8_is_exact():
    x = RNG.integers(-128, 128, size=(1, 8, 8, 2)).astype(np.int8)
    out = K.maxpool2d_i8(x, (2, 2))
    assert out.dtype == np.int8
    assert out[0, 0, 0, 0] == x[0, :2, :2, 0].max()


def test_add_int8_close_to_float():
    a_f = RNG.uniform(-1, 1, size=(2, 4, 4, 3)).astype(np.float32)
    b_f = RNG.uniform(-2, 2, size=(2, 4, 4, 3)).astype(np.float32)
    a_p, b_p = _qparams_for(a_f), _qparams_for(b_f)
    out_f = a_f + b_f
    o_p = _qparams_for(out_f)
    twice_max = 2.0 * max(float(a_p.scale[0]), float(b_p.scale[0]))
    m1 = quantize_multiplier(float(a_p.scale[0]) / twice_max)
    m2 = quantize_multiplier(float(b_p.scale[0]) / twice_max)
    mo = quantize_multiplier(twice_max / ((1 << 20) * float(o_p.scale[0])))
    out_q = K.add_i8(
        a_p.quantize(a_f), b_p.quantize(b_f),
        zp_a=a_p.zero_point, zp_b=b_p.zero_point, out_zp=o_p.zero_point,
        left_shift=20, mult1=m1[0], shift1=m1[1], mult2=m2[0], shift2=m2[1],
        out_mult=mo[0], out_shift=mo[1],
    )
    assert np.abs(o_p.dequantize(out_q) - out_f).max() < 3 * float(o_p.scale[0]) + 0.03


def test_softmax_int8_probabilities():
    logits = RNG.uniform(-4, 4, size=(5, 7)).astype(np.float32)
    qp = _qparams_for(logits)
    out = K.softmax_i8(qp.quantize(logits), float(qp.scale[0]), qp.zero_point)
    probs = (out.astype(np.float32) + 128) / 256.0
    ref = K.softmax_f32(logits)
    assert np.abs(probs - ref).max() < 0.04
    assert np.array_equal(probs.argmax(axis=1), ref.argmax(axis=1))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),  # stride
    st.integers(min_value=4, max_value=10),  # spatial size
    st.integers(min_value=1, max_value=4),  # channels
)
def test_conv2d_int8_property(stride, size, channels):
    """int8 conv tracks the float reference within a few LSB for any
    stride/size/channel combination."""
    x, w, b = _conv_setup((1, size, size, channels), (3, 3, channels, 2),
                          seed=stride * 100 + size)
    ref = K.conv2d_f32(x, w, b, stride, (1, 1), (1, 1))
    xq, wq, bq, xq_p, oq_p, mult, shift = _quantize_conv(x, w, b, ref)
    out_q = K.conv2d_i8(xq, wq, bq, stride, (1, 1), (1, 1),
                        in_zp=xq_p.zero_point, out_zp=oq_p.zero_point,
                        out_mult=[mult] * 2, out_shift=[shift] * 2)
    assert np.abs(oq_p.dequantize(out_q) - ref).max() < 4 * float(oq_p.scale[0]) + 0.03


# -- float32 kernels vs a float64 loop-over-taps reference ---------------------
#
# The reference accumulates tap by tap with explicit loops (no einsum, no
# tensordot, no matmul over the window), in float64, so a wrong window
# index, a wrong K order or a mis-tiled tap in the kernels cannot cancel
# against the same mistake here.

ACTIVATIONS = ("none", "relu", "relu6")


def _ref_activation(out, activation):
    if activation == "relu":
        return np.maximum(out, 0.0)
    if activation == "relu6":
        return np.minimum(np.maximum(out, 0.0), 6.0)
    return out


def _ref_conv2d(x, w, b, stride, pad_h, pad_w, activation, depthwise=False):
    x, w = x.astype(np.float64), w.astype(np.float64)
    xp = np.pad(x, ((0, 0), tuple(pad_h), tuple(pad_w), (0, 0)))
    kh, kw, c, last = w.shape
    oh = (xp.shape[1] - kh) // stride + 1
    ow = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((x.shape[0], oh, ow, c * last if depthwise else last))
    for i in range(kh):
        for j in range(kw):
            tap = xp[:, i : i + (oh - 1) * stride + 1 : stride,
                     j : j + (ow - 1) * stride + 1 : stride, :]
            for ch in range(c):
                if depthwise:  # channel ch feeds outputs ch*mult .. ch*mult+mult-1
                    out[..., ch * last : (ch + 1) * last] += tap[..., ch, None] * w[i, j, ch]
                else:
                    out += tap[..., ch, None] * w[i, j, ch]
    return _ref_activation(out + b.astype(np.float64), activation)


def _ref_conv1d(x, w, b, stride, pad, activation):
    x, w = x.astype(np.float64), w.astype(np.float64)
    xp = np.pad(x, ((0, 0), tuple(pad), (0, 0)))
    k, c, cout = w.shape
    ot = (xp.shape[1] - k) // stride + 1
    out = np.zeros((x.shape[0], ot, cout))
    for i in range(k):
        tap = xp[:, i : i + (ot - 1) * stride + 1 : stride, :]
        for ch in range(c):
            out += tap[..., ch, None] * w[i, ch]
    return _ref_activation(out + b.astype(np.float64), activation)


def _ref_fc(x, w, b, activation):
    out = np.zeros(x.shape[:-1] + w.shape[1:])
    for k in range(w.shape[0]):
        out += x[..., k, None].astype(np.float64) * w[k].astype(np.float64)
    return _ref_activation(out + b.astype(np.float64), activation)


def _assert_f32_kernel(fn, ref_fn, x, *args):
    """``fn(x, *args)`` is float32, within rtol 1e-5 of the reference's
    output scale, and leaves ``x`` bit-unchanged (the in-place bias /
    activation tail must run on the kernel's own allocation: a residual
    ADD may still read the input)."""
    kept = x.copy()
    got = fn(x, *args)
    want = ref_fn(x, *args)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert not np.shares_memory(got, x)
    assert x.tobytes() == kept.tobytes()
    scale = max(float(np.abs(want).max()), 1.0)
    assert np.abs(got - want).max() <= 1e-5 * scale
    return got


def _assert_f32_layer(opcode, x, w, b, attrs, want):
    """A float32 one-op graph returns the float64 reference ``want``
    within rtol 1e-5 of its output scale, through dispatch and the plan."""
    graph = _layer(opcode, x.shape[1:], want.shape[1:], attrs, ((w, None), (b, None)))
    got = _run_layer(graph, x)
    assert got.dtype == np.float32 and got.shape == want.shape
    scale = max(float(np.abs(want).max()), 1.0)
    assert np.abs(got - want).max() <= 1e-5 * scale


def _f32_operands(seed, x_shape, w_shape, cout):
    rng = np.random.default_rng(seed)
    x = (3.0 * rng.standard_normal(x_shape)).astype(np.float32)
    w = rng.standard_normal(w_shape).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32)
    return x, w, b


_pads = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 3), height=st.integers(1, 9), width=st.integers(1, 7),
    cin=st.integers(1, 5), cout=st.integers(1, 4),
    kernel=st.sampled_from([(1, 1), (3, 3), (2, 3), (5, 1), (1, 2), (4, 1), (5, 2)]),
    stride=st.integers(1, 3), pad_h=_pads, pad_w=_pads,
    activation=st.sampled_from(ACTIVATIONS), seed=st.integers(0, 2**16),
)
def test_conv2d_f32_matches_float64_reference(
    batch, height, width, cin, cout, kernel, stride, pad_h, pad_w, activation, seed
):
    kh, kw = kernel
    if height + sum(pad_h) < kh or width + sum(pad_w) < kw:
        return
    x, w, b = _f32_operands(seed, (batch, height, width, cin), (kh, kw, cin, cout), cout)
    _assert_f32_kernel(
        K.conv2d_f32, _ref_conv2d, x, w, b, stride, pad_h, pad_w, activation
    )


@settings(max_examples=80, deadline=None)
@given(
    batch=st.integers(1, 3), height=st.integers(1, 9), width=st.integers(1, 7),
    channels=st.integers(1, 5), mult=st.sampled_from([1, 1, 2]),
    kernel=st.sampled_from([(3, 3), (2, 3), (3, 1), (1, 1)]),
    stride=st.sampled_from([1, 1, 2]), pad_h=_pads, pad_w=_pads,
    activation=st.sampled_from(ACTIVATIONS), transposed=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_dwconv2d_f32_matches_float64_reference(
    batch, height, width, channels, mult, kernel, stride, pad_h, pad_w,
    activation, transposed, seed,
):
    kh, kw = kernel
    if height + sum(pad_h) < kh or width + sum(pad_w) < kw:
        return
    x, w, b = _f32_operands(
        seed, (batch, height, width, channels), (kh, kw, channels, mult), channels * mult
    )
    if transposed:  # a TRANSPOSE op hands kernels a non-contiguous NHWC view
        x = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        assert not x.flags.c_contiguous or 1 in (height, width)
    _assert_f32_kernel(
        lambda *a: K.dwconv2d_f32(*a),
        lambda *a: _ref_conv2d(*a, depthwise=True),
        x, w, b, stride, pad_h, pad_w, activation,
    )


@pytest.mark.parametrize("case", [
    # (x shape, kernel, stride, pad_h, pad_w): every depthwise route
    ((2, 25, 5, 8), (3, 3), 1, (1, 1), (1, 1)),   # flat rows (the DS-CNN block)
    ((2, 6, 1, 3), (3, 1), 1, (1, 1), (0, 0)),    # width 1
    ((2, 7, 6, 3), (3, 3), 1, (0, 2), (3, 0)),    # asymmetric pads
    ((2, 5, 4, 3), (3, 3), 1, (0, 0), (0, 0)),    # no pad: the input itself is viewed
    ((2, 9, 8, 4), (3, 3), 2, (0, 1), (0, 1)),    # stride 2 (the MobileNet block)
])
@pytest.mark.parametrize("mult", [1, 2])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dwconv2d_f32_routes(case, mult, activation):
    x_shape, kernel, stride, pad_h, pad_w = case
    c = x_shape[-1]
    x, w, b = _f32_operands(len(x_shape) + mult, x_shape, kernel + (c, mult), c * mult)
    ref = lambda *a: _ref_conv2d(*a, depthwise=True)
    got = _assert_f32_kernel(K.dwconv2d_f32, ref, x, w, b, stride, pad_h, pad_w, activation)
    # A non-contiguous view of the same values takes the window route.
    xt = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    got_t = _assert_f32_kernel(K.dwconv2d_f32, ref, xt, w, b, stride, pad_h, pad_w, activation)
    assert np.allclose(got, got_t, rtol=1e-5, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 3), length=st.integers(1, 12), cin=st.integers(1, 4),
    cout=st.integers(1, 4), k=st.integers(1, 4), stride=st.integers(1, 3),
    pad=_pads, activation=st.sampled_from(ACTIVATIONS), seed=st.integers(0, 2**16),
)
def test_conv1d_f32_matches_float64_reference(
    batch, length, cin, cout, k, stride, pad, activation, seed
):
    if length + sum(pad) < k:
        return
    x, w, b = _f32_operands(seed, (batch, length, cin), (k, cin, cout), cout)
    attrs = {"stride": stride, "pad": list(pad), "activation": activation}
    want = _ref_conv1d(x, w, b, stride, pad, activation)
    _assert_f32_layer("CONV_1D", x, w, b, attrs, want)


@settings(max_examples=30, deadline=None)
@given(
    batch=st.integers(1, 5), lead=st.sampled_from([(), (3,), (2, 3)]), k=st.integers(1, 40),
    cout=st.integers(1, 6), activation=st.sampled_from(ACTIVATIONS), seed=st.integers(0, 2**16),
)
def test_fc_f32_matches_float64_reference(batch, lead, k, cout, activation, seed):
    x, w, b = _f32_operands(seed, (batch, *lead, k), (k, cout), cout)
    want = _ref_fc(x, w, b, activation)
    _assert_f32_layer("FULLY_CONNECTED", x, w, b, {"activation": activation}, want)


@pytest.mark.parametrize("dtype", ["float32", "int8"])
@pytest.mark.parametrize("length,size", [(11, 3), (8, 2), (5, 5), (4, 1)])
def test_one_d_pools_match_float64_reference(dtype, length, size):
    """MAX_POOL_1D and GLOBAL_AVG_POOL_1D one-op graphs, through dispatch
    and the plan: the max of each window exactly, the float32 mean to
    float32 rounding, the int8 mean exactly as ``_round_div_i8`` rounds
    (``tests/test_int8_fastpath.py::test_int8_averages_round_like_tflm``)."""
    rng = np.random.default_rng(length * 10 + size)
    qp = QuantParams(scale=np.array([0.1]), zero_point=-3) if dtype == "int8" else None
    if qp is None:
        x = (3.0 * rng.standard_normal((3, length, 4))).astype(np.float32)
    else:
        x = rng.integers(-128, 128, size=(3, length, 4)).astype(np.int8)
    ot = length // size
    windows = x[:, : ot * size].astype(np.float64).reshape(3, ot, size, 4)
    graph = _layer("MAX_POOL_1D", (length, 4), (ot, 4), {"pool_size": size}, (), dtype, qp, qp)
    assert np.array_equal(_run_layer(graph, x), windows.max(axis=2))
    graph = _layer("GLOBAL_AVG_POOL_1D", (length, 4), (4,), {}, (), dtype, qp, qp)
    got = _run_layer(graph, x)
    assert got.dtype == x.dtype
    if qp is None:
        want = x.astype(np.float64).mean(axis=1)
        assert np.abs(got - want).max() <= 1e-5 * max(float(np.abs(want).max()), 1.0)
    else:
        sums = x.astype(np.int64).sum(axis=1)
        half = np.where(sums >= 0, length // 2, -(length // 2))
        assert np.array_equal(got, (sums + half) // length)


def test_tall_kernel_takes_the_column_major_gather_and_stays_equal():
    """kh > kw*c (the KWS first layer, 10x4 over one channel) orders K as
    (kw, c, kh); a mismatch between that gather and the transposed
    weights would survive any symmetric-kernel test."""
    x, w, b = _f32_operands(9, (3, 49, 10, 1), (10, 4, 1, 6), 6)
    _assert_f32_kernel(K.conv2d_f32, _ref_conv2d, x, w, b, 2, (4, 5), (1, 1), "relu")
    x, w, b = _f32_operands(10, (2, 12, 5, 2), (7, 3, 2, 4), 4)  # kh > kw*c with c > 1
    _assert_f32_kernel(K.conv2d_f32, _ref_conv2d, x, w, b, 1, (3, 3), (1, 1), "none")


@pytest.mark.parametrize("stride,pad", [(1, (1, 1)), (2, (0, 1))])
@pytest.mark.parametrize("mult", [1, 2])
def test_dwconv2d_f32_is_batch_invariant_bit_for_bit(stride, pad, mult):
    """Row ``i`` of a batch-16 call equals the batch-1 call on row ``i``:
    each output element accumulates its taps in the same order whatever
    the batch size (the GEMM kernels make no such promise)."""
    x, w, b = _f32_operands(21, (16, 25, 5, 64), (3, 3, 64, mult), 64 * mult)
    whole = K.dwconv2d_f32(x, w, b, stride, pad, pad, "relu")
    for i in (0, 7, 15):
        alone = K.dwconv2d_f32(x[i : i + 1], w, b, stride, pad, pad, "relu")
        assert alone.tobytes() == whole[i : i + 1].tobytes()


@pytest.mark.parametrize("route", ["native", "numpy"])
def test_ds_cnn_float32_depthwise_steps_are_batch_invariant_bit_for_bit(route):
    """The same promise through a float32 DS-CNN plan, on the C kernel and
    on its numpy twin: run at batch 16, each depthwise step run again at
    batch 1 on one row of its batch-16 input gives that row's output."""
    graph = sequential_to_graph(ds_cnn((13, 8), 3, filters=8, n_blocks=2, seed=0), "dw")
    if route == "numpy":
        with mock.patch.object(native, "load", lambda: None):
            plan = compile_plan(graph, cache=False)
    else:
        plan = compile_plan(graph, cache=False)
    depthwise = [si for si, st in enumerate(plan.steps) if st.opcode == "DEPTHWISE_CONV_2D"]
    bound_c = [isinstance(plan.steps[si].fn, native.DepthwiseF32Kernel) for si in depthwise]
    assert len(depthwise) == 2
    assert bound_c == [route == "native" and native.load() is not None] * 2
    x = (3.0 * RNG.standard_normal((16, 13, 8))).astype(np.float32)
    seen = {}
    with _carved(plan, 16) as (views, runs):
        executor._load_input(graph, x, views[graph.input_id])
        for si, run in enumerate(runs):
            step = plan.steps[si]
            if si in depthwise:
                seen[si] = views[step.reads[0]].copy()
            run()
            if si in depthwise:
                seen[si] = (seen[si], views[step.out_id].copy())
    with _carved(plan, 1) as (views, runs):
        for si in depthwise:
            step = plan.steps[si]
            for i in (0, 9, 15):
                views[step.reads[0]][...] = seen[si][0][i : i + 1]
                runs[si]()
                assert views[step.out_id].tobytes() == seen[si][1][i : i + 1].tobytes()


@contextlib.contextmanager
def _carved(plan, rows):
    """``(views, runs)`` of one carving of ``plan`` for ``rows``."""
    buf = executor._acquire_buffer((plan.arena.total_bytes + plan._scratch_region()[1]) * rows)
    try:
        views, _, runs = plan._carve(buf.data, rows)
        yield views, runs
    finally:
        executor._return_buffer(buf)


def test_activate_f32_keeps_negative_zero_and_nan():
    """``np.clip``'s order of comparisons, which the C clamp copies:
    ``v < lo ? lo : v`` leaves -0.0 (not below +0.0) and NaN (never
    below anything) as they are, at every position of a long array."""
    values = np.array([-0.0, np.nan, -np.nan, -np.inf, np.inf, -1e-40, 1e-40, 7.0], np.float32)
    x = np.tile(values, 37)
    for activation, (lo, hi) in (("relu", (0.0, np.inf)), ("relu6", (0.0, 6.0))):
        got = K.activate_f32(x.copy(), activation)
        want = [lo if v < lo else hi if v > hi else v for v in x.tolist()]
        assert got.tobytes() == np.array(want, np.float32).tobytes()


def test_elementwise_f32_kernels_return_float32_and_keep_their_input():
    x = (4.0 * RNG.standard_normal((3, 6, 4, 5))).astype(np.float32)
    kept = x.copy()
    for out, want in [
        (K.add_f32(x, x, "relu6"), np.clip(2.0 * x.astype(np.float64), 0.0, 6.0)),
        (K.add_f32(x, x), 2.0 * x.astype(np.float64)),
        (K.avgpool2d_f32(x, (2, 2)),
         x[:, :6, :4].astype(np.float64).reshape(3, 3, 2, 2, 2, 5).mean(axis=(2, 4))),
        (K.gap2d_f32(x), x.astype(np.float64).mean(axis=(1, 2))),
    ]:
        assert out.dtype == np.float32 and not np.shares_memory(out, x)
        assert np.allclose(out, want, rtol=1e-5, atol=1e-6)
    logits = x.reshape(3, -1)
    probs = K.softmax_f32(logits)
    e = np.exp(logits.astype(np.float64) - logits.max(axis=1, keepdims=True))
    assert probs.dtype == np.float32 and not np.shares_memory(probs, x)
    assert np.allclose(probs, e / e.sum(axis=1, keepdims=True), rtol=1e-5, atol=1e-8)
    assert x.tobytes() == kept.tobytes()
