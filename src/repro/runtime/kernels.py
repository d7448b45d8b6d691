"""Reference kernels, float32 and integer-only int8.

The float32 kernels are one family: dispatch and the compiled plan
call the same functions, so float32 outputs are bit-identical across
routes for the same batch, and equal to a float64
reference within float32 rounding (see the notes above them for how the
convolutions are lowered).

The int8 kernels mirror TFLM/CMSIS-NN arithmetic: int8 operands, int32
biases, int64 accumulation, fixed-point requantization
(:mod:`repro.quantize.fixedpoint`), asymmetric activation zero points and
symmetric (zero-zp) weights.  They are the spec.  Each int8 conv /
depthwise / conv1d / dense op has two kernels: the spec here, which
``run_graph_dispatch`` calls, and EON's C kernel
(``repro.runtime.native``), which compiled plans bind; a plan binds the
spec itself where C cannot run the layer.  TFLM and EON do the same
arithmetic, so one plan serves both and the TFLM-vs-EON comparison is a
pure overhead comparison (``repro.profile.memory``).

Every kernel here is NHWC and 2-D, one conv, one depthwise, one max
pool, one average pool and one global-average pool per dtype.  The 1-D
and dense ops run on them as EON's C kernels walk them: a CONV_1D,
MAX_POOL_1D or GLOBAL_AVG_POOL_1D as its 2-D twin of height 1 (a 1-D
pool window is ``(1, size)``), a FULLY_CONNECTED as a 1x1 conv over a
1x1 image (1xM for an input with M leading positions).
``repro.runtime.executor._nhwc`` is that mapping; the kernels read and
write reshaped views of the op's own buffers.
"""

from __future__ import annotations

import numpy as np

from repro.quantize.fixedpoint import multiply_by_quantized_multiplier

# --------------------------------------------------------------------------
# shared geometry
# --------------------------------------------------------------------------


def _pad2d(x: np.ndarray, pad_h, pad_w, fill, out=None) -> np.ndarray:
    """Constant-pad H/W of a NHWC batch (into ``out`` when given).
    ``np.pad`` costs ~50-80us of pure-Python overhead per call, which
    dominates small-kernel invokes; this is the same operation as one
    fill + one slice assign."""
    (pt, pb), (pl, pr) = tuple(pad_h), tuple(pad_w)
    if pt == pb == pl == pr == 0:
        return x
    b, h, w, c = x.shape
    if out is None:
        out = np.empty((b, h + pt + pb, w + pl + pr, c), dtype=x.dtype)
    out.fill(fill)
    out[:, pt : pt + h, pl : pl + w, :] = x
    return out


def _windows_2d(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    b, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sb, sh, sw, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(b, oh, ow, kh, kw, c),
        strides=(sb, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def _gemm(windows, w2d, col=None, out=None):
    """``windows`` (a view whose trailing axes flatten to K) times
    ``w2d``: ``(rows, cout)`` float32, written to ``out`` (a fresh array
    when ``None``).  One pass gathers the view into the contiguous im2col
    matrix ``col`` — or takes it as it is when it already is one, the
    pointwise case — so the product is one sgemm."""
    if col is None:
        lhs = windows.astype(w2d.dtype, order="C", copy=False)
    else:
        lhs = col.reshape(windows.shape)
        np.copyto(lhs, windows)
    k, cout = w2d.shape
    if out is not None:
        out = out.reshape(-1, cout)
    return np.matmul(lhs.reshape(-1, k), w2d, out=out)


# --------------------------------------------------------------------------
# float32 kernels
# --------------------------------------------------------------------------
#
# One family, shared by ``run_graph_dispatch`` and the compiled plan:
# float32 has no exactness proof to gate a second route on, and the
# routes' bit-identity *is* this sharing.  Four
# rewrites relative to the tensordot/einsum originals; sums are
# reassociated, so results agree with a float64 reference to float32
# rounding (rtol 1e-5 of the output scale), not with the originals to
# the bit.
#
# 1. Convolutions lower to im2col: pad, then one gather of the window
#    view into a contiguous ``(rows, K)`` matrix and one sgemm
#    (``_gemm``).  A pointwise (1x1, stride 1) conv — a dense layer
#    among them — skips the gather: its input already is that matrix.
#    ``np.tensordot`` reached the same sgemm through a transpose +
#    reshape + copy of both operands per call.
# 2. The gather's cost is its number of inner runs, not its bytes: a
#    C-order copy of the window view moves ``kw*c`` contiguous floats at
#    a time, 4 for a 10x4 kernel over one channel.  When a kernel column
#    is longer than a kernel row (``kh > kw*c``) K is ordered
#    ``(kw, c, kh)`` instead, so the inner run is the ``kh`` taps
#    (constant stride of one padded row), and the weights — a few
#    thousand floats — are transposed to match.  Small: the KWS first
#    layer goes 345 -> 284 us at batch 16 on the reference host, and
#    does not move at batch 1.
# 3. Depthwise convolution has one arithmetic, and EON's C kernel
#    (``eon_dwconv_f32``) computes it too, so both routes give the same
#    bytes.  Per output element: the accumulator starts at +0.0; each
#    tap ``(i, j)`` is added in row-major tap order as ``acc = acc +
#    x*t``, the product and the sum each rounded to float32 (never one
#    fused multiply-add); then ``+ bias`` and the activation (note 4).
#    ``dwconv2d_f32`` runs that loop as one multiply and one add pass
#    per tap over every output pixel at once.  At stride 1 with depth
#    multiplier 1 and a C-contiguous padded input it flattens each
#    padded row to ``Wp*c`` floats, so tap ``(i, j)`` of a whole output
#    row is one contiguous ``ow*c`` run starting ``j*c`` floats into
#    padded row ``x + i``, against the taps tiled along ``ow``; otherwise
#    it takes the strided ``(b, oh, ow, c, mult)`` window.  The order per
#    element is the tap order whatever the batch size, so depthwise rows
#    are batch-invariant bit for bit (sgemm makes no such promise for the
#    GEMM kernels).
# 4. Bias and activation are applied in place on the array the kernel
#    just allocated (``_finish_f32``) — never on its input, which a
#    residual ADD may still read — and nothing re-casts a float32 result
#    to float32 (``astype`` copies even when the dtype already matches).


def activate_f32(out: np.ndarray, activation: str) -> np.ndarray:
    """``activation`` in place on ``out``, which the caller owns."""
    # relu as a clip too: ``np.maximum(array, scalar)`` runs numpy's
    # strided scalar loop (74us on 128k floats here), ``np.clip`` its
    # SIMD one (22us).  ``np.clip(v, lo, hi)`` is ``v < lo ? lo : v``,
    # then ``v > hi ? hi : v``: -0.0 stays -0.0 and NaN passes through,
    # on every element whatever its position (the C kernels rely on it).
    if activation == "relu":
        np.clip(out, 0.0, np.inf, out=out)
    elif activation == "relu6":
        np.clip(out, 0.0, 6.0, out=out)
    return out


def _finish_f32(out: np.ndarray, bias, activation: str) -> np.ndarray:
    """Bias -> activation, in place on ``out``, which the caller owns
    (it allocated it this call); returns float32."""
    out = out.astype(np.float32, copy=False)  # a copy only for non-float32 operands
    out += bias
    return activate_f32(out, activation)


def conv2d_f32(x, w, b, stride, pad_h, pad_w, activation="none", out=None, xp=None, col=None):
    xp = _pad2d(x, pad_h, pad_w, 0.0, xp)
    kh, kw, c, cout = w.shape
    if kh == 1 and kw == 1 and stride == 1:
        windows, w2d = xp, w.reshape(c, cout)  # pointwise: xp is the im2col matrix
    else:
        windows, w2d = _windows_2d(xp, kh, kw, stride), w.reshape(-1, cout)
        if kh > kw * c:  # note 2: K as (kw, c, kh)
            windows = windows.transpose(0, 1, 2, 4, 5, 3)
            w2d = w.transpose(1, 2, 0, 3).reshape(-1, cout)
    out = _gemm(windows, w2d, col, out).reshape(windows.shape[:3] + (cout,))
    return _finish_f32(out, b, activation)


def dwconv2d_f32(
    x, w, b, stride, pad_h, pad_w, activation="none", out=None, xp=None, prod=None
):
    """DEPTHWISE_CONV_2D, note 3's ordered taps; ``prod`` (one tap's
    products, the output's size) is scratch, allocated when ``None``."""
    w = np.asarray(w, dtype=np.float32)
    xp = _pad2d(x, pad_h, pad_w, 0.0, xp)
    kh, kw, c, mult = w.shape
    bsz, hp, wp, _ = xp.shape
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    if out is None:
        out = np.empty((bsz, oh, ow, c * mult), dtype=np.float32)
    if stride == 1 and mult == 1 and xp.flags.c_contiguous:
        rows = xp.reshape(bsz, hp, wp * c)
        taps = np.tile(w[..., 0], (1, 1, ow))
        windows = lambda i, j: rows[:, i : i + oh, j * c : (j + ow) * c]  # noqa: E731
        acc = out.reshape(bsz, oh, ow * c)
    else:
        h_end, w_end = (oh - 1) * stride + 1, (ow - 1) * stride + 1
        taps = w
        windows = lambda i, j: xp[:, i : i + h_end : stride, j : j + w_end : stride, :, None]  # noqa: E731
        acc = out.reshape(bsz, oh, ow, c, mult)
    prod = np.empty_like(acc) if prod is None else prod.reshape(acc.shape)
    acc.fill(0.0)
    for i in range(kh):
        for j in range(kw):
            np.multiply(windows(i, j), taps[i, j], out=prod)
            acc += prod
    return _finish_f32(out, np.asarray(b, dtype=np.float32), activation)


def _pool_view(x, window):
    """``(b, h/ph, ph, w/pw, pw, c)``: the ``(ph, pw)`` pool windows of a
    NHWC tensor, trailing rows/columns that fill no window dropped."""
    ph, pw = window
    b, h, w, c = x.shape
    th, tw = (h // ph) * ph, (w // pw) * pw
    return x[:, :th, :tw, :].reshape(b, th // ph, ph, tw // pw, pw, c)


def maxpool2d_f32(x, window, out=None):
    return _pool_view(x, window).max(axis=(2, 4), out=out)


def avgpool2d_f32(x, window, out=None):
    return _pool_view(x, window).mean(axis=(2, 4), dtype=np.float32, out=out)


def gap2d_f32(x, out=None):
    return x.mean(axis=(1, 2), dtype=np.float32, out=out)


def add_f32(a, b, activation="none", out=None):
    """``out`` may be ``a`` or ``b`` itself (a plan's in-place ADD)."""
    out = np.add(a, b, out=out).astype(np.float32, copy=False)
    return activate_f32(out, activation)


def softmax_f32(x, out=None):
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e.astype(np.float32, copy=False)


# --------------------------------------------------------------------------
# int8 kernels
# --------------------------------------------------------------------------


def _requant(acc, mult, shift, out_zp, clamp_min, clamp_max):
    """int64 accumulators -> int8 output."""
    scaled = multiply_by_quantized_multiplier(acc, mult, shift) + out_zp
    return np.clip(scaled, clamp_min, clamp_max).astype(np.int8)


def conv2d_i8(
    x, w, bias, stride, pad_h, pad_w, in_zp, out_zp, out_mult, out_shift,
    clamp_min=-128, clamp_max=127,
):
    xp = _pad2d(x, pad_h, pad_w, in_zp)
    view = _windows_2d(xp.astype(np.int32) - in_zp, w.shape[0], w.shape[1], stride)
    acc = np.tensordot(
        view.astype(np.int64), w.astype(np.int64, copy=False),
        axes=([3, 4, 5], [0, 1, 2]),
    )
    acc += bias.astype(np.int64, copy=False)
    mult = np.asarray(out_mult, dtype=np.int64)
    shift = np.asarray(out_shift, dtype=np.int64)
    return _requant(acc, mult, shift, out_zp, clamp_min, clamp_max)


def dwconv2d_i8(
    x, w, bias, stride, pad_h, pad_w, in_zp, out_zp, out_mult, out_shift,
    clamp_min=-128, clamp_max=127,
):
    xp = _pad2d(x, pad_h, pad_w, in_zp)
    view = _windows_2d(xp.astype(np.int32) - in_zp, w.shape[0], w.shape[1], stride)
    acc = np.einsum(
        "bxyijc,ijcd->bxycd", view.astype(np.int64),
        w.astype(np.int64, copy=False), optimize=True,
    )
    bsz, oh, ow, c, d = acc.shape
    acc = acc.reshape(bsz, oh, ow, c * d) + bias.astype(np.int64, copy=False)
    mult = np.asarray(out_mult, dtype=np.int64)
    shift = np.asarray(out_shift, dtype=np.int64)
    return _requant(acc, mult, shift, out_zp, clamp_min, clamp_max)


# -- operands of EON's C kernels ----------------------------------------------
#
# Compiled plans bind every int8 conv / depthwise / conv1d / dense step to
# EON's C kernels (``repro.runtime.native``) where the layer passes the
# int32 proof below, and to the spec kernels above where it does not.  The
# C kernels contract the *padded* int8 tensor: the input zero point is
# folded into the bias, ``sum_k (x_k - zp) w_k + b = sum_k x_k w_k +
# (b - zp sum_k w_k)``, and padding is filled with zp so every window has
# all K taps.  Uncentered int8 products are at most 128*128 in magnitude,
# so ``K*128*128 + max|bias'| < 2**31`` keeps the biased total inside
# int32, and a 32-bit accumulator that wraps computes it exactly in any
# order (the GEMM kernel's unsigned-offset bias, ``native.gemm_operands``,
# rests on that).


def _fits_int32(k, folded) -> bool:
    """The int32 proof: ``k`` int8 products and the folded bias cannot
    wrap an int32 accumulator, ``k*128*128 + max|bias'| < 2**31``."""
    max_bias = int(np.abs(folded).max()) if folded.size else 0
    return k * 128 * 128 + max_bias < 2 ** 31


def prepare_dwconv_i8(w, bias, in_zp):
    """``(taps, bias')`` for the C depthwise kernel: int8 ``(kh, kw, c)``
    taps and the folded bias as int32, when the depth multiplier is 1 and
    int32 tap accumulation provably cannot wrap; ``None`` otherwise."""
    kh, kw, _, dm = w.shape
    folded = bias.astype(np.int64) - in_zp * w.sum(axis=(0, 1), dtype=np.int64).reshape(-1)
    if dm != 1 or not _fits_int32(kh * kw, folded):
        return None
    return w[..., 0].astype(np.int8), folded.astype(np.int32)


def prepare_gemm_i32(w, bias, in_zp):
    """``(w2d, bias')`` for the C GEMM kernel: int8 weights as ``(K,
    cout)`` and the folded bias as int32, when int32 accumulation over
    ``K`` taps provably cannot wrap; ``None`` otherwise."""
    w2d = w.reshape(-1, w.shape[-1])
    folded = bias.astype(np.int64) - in_zp * w2d.sum(axis=0, dtype=np.int64)
    if not _fits_int32(w2d.shape[0], folded):
        return None
    return w2d.astype(np.int8), folded.astype(np.int32)


def maxpool2d_i8(x, window, out=None):
    return maxpool2d_f32(x, window, out)  # max is order-preserving; qparams unchanged


def _round_div_i8(acc, count, out=None):
    """int sums / ``count``, saturated to int8 (into ``out`` when given):
    ``floor((acc + count//2) / count)`` for a non-negative sum and
    ``floor((acc - count//2) / count)`` for a negative one.  Halves round
    away from zero, but a negative mean that is not a half rounds down
    (-0.25 -> -1, -1.25 -> -2), where TFLM's reference truncates after
    adding -count/2 (0, -1)."""
    rounded = np.floor_divide(
        acc + np.where(acc >= 0, count // 2, -(count // 2)), count
    )
    np.clip(rounded, -128, 127, out=rounded)
    if out is None:
        return rounded.astype(np.int8)
    np.copyto(out, rounded, casting="unsafe")
    return out


def avgpool2d_i8(x, window, out=None):
    count = window[0] * window[1]
    return _round_div_i8(_pool_view(x, window).sum(axis=(2, 4), dtype=np.int64), count, out)


def gap2d_i8(x, out=None):
    b, h, w, c = x.shape
    return _round_div_i8(x.sum(axis=(1, 2), dtype=np.int64), h * w, out)


def add_i8(
    a, b, zp_a, zp_b, out_zp, left_shift, mult1, shift1, mult2, shift2,
    out_mult, out_shift, clamp_min=-128, clamp_max=127, out=None,
):
    """TFLite-style int8 ADD: both inputs rescaled to a shared high-precision
    domain, summed, then requantized to the output scale.

    ``out`` receives the result instead of a fresh int8 allocation — it
    may alias ``a`` or ``b`` (a plan's in-place ADD), which are fully
    read into the int64 working domain before any store."""
    wa = (a.astype(np.int64) - zp_a) << left_shift
    wb = (b.astype(np.int64) - zp_b) << left_shift
    sa = multiply_by_quantized_multiplier(wa, mult1, shift1)
    sb = multiply_by_quantized_multiplier(wb, mult2, shift2)
    raw = sa + sb
    res = multiply_by_quantized_multiplier(raw, out_mult, out_shift) + out_zp
    np.clip(res, clamp_min, clamp_max, out=res)
    if out is not None:
        out[...] = res  # casting int64 -> int8 store, no new allocation
        return out
    return res.astype(np.int8)


def softmax_i8(x, in_scale, in_zp, out=None):
    """Dequantize -> float softmax -> fixed (1/256, -128) requantization.

    TFLM implements this with a LUT over fixed-point exponentials; the
    result is the same int8 probability vector within 1 LSB.
    """
    real = (x.astype(np.float32) - in_zp) * in_scale
    probs = softmax_f32(real)
    q = np.round(probs / (1.0 / 256.0)) + (-128)
    np.clip(q, -128, 127, out=q)
    if out is None:
        return q.astype(np.int8)
    np.copyto(out, q, casting="unsafe")
    return out
