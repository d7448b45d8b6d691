"""Reference kernels, float32 and integer-only int8.

The float32 kernels are one family: dispatch, the TFLM interpreter's
plan and EON's plan all call the same functions, so float32 outputs are
bit-identical across engines for the same batch, and equal to a float64
reference within float32 rounding (see the notes above them for how the
convolutions are lowered).

The int8 kernels mirror TFLM/CMSIS-NN arithmetic: int8 operands, int32
biases, int64 accumulation, fixed-point requantization
(:mod:`repro.quantize.fixedpoint`), asymmetric activation zero points and
symmetric (zero-zp) weights.  The generic ``*_i8`` kernels are the spec
(and what ``run_graph_dispatch`` calls); compiled plans bind the
``*_i8_plan`` family further down, which both engines share — that is
what makes the TFLM-vs-EON comparison a pure overhead comparison.
"""

from __future__ import annotations

import numpy as np

from repro.quantize.fixedpoint import (
    checked_mantissa,
    multiply_by_quantized_multiplier,
    total_shift_of,
)

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


def _pad1d(x: np.ndarray, pad, fill, out=None) -> np.ndarray:
    (pl, pr) = tuple(pad)
    if pl == pr == 0:
        return x
    b, t, c = x.shape
    if out is None:
        out = np.empty((b, t + pl + pr, c), dtype=x.dtype)
    out.fill(fill)
    out[:, pl : pl + t, :] = x
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
    ``w2d``: ``(rows, cout)`` in ``w2d``'s dtype, written to ``out``
    (a fresh array when ``None``).  One pass gathers (and, for int8,
    casts) the view into the contiguous im2col matrix ``col`` — or takes
    it as it is when it already is one, the float32 pointwise case — so
    the product is one BLAS call: sgemm for float32, dgemm exactly when
    ``prepare_gemm_i8`` chose float64 (whose exact-integer results pool
    and take the bias as they are)."""
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
# One family, shared by ``run_graph_dispatch``, the TFLM interpreter's
# plan and EON's plan: float32 has no exactness proof to gate a second
# route on, and the engines' bit-identity *is* this sharing.  Four
# rewrites relative to the tensordot/einsum originals; sums are
# reassociated, so results agree with a float64 reference to float32
# rounding (rtol 1e-5 of the output scale), not with the originals to
# the bit.
#
# 1. Convolutions lower the way ``conv2d_i8_plan`` does: pad, then one
#    gather of the window view into a contiguous ``(rows, K)`` matrix
#    and one sgemm (``_gemm``).  A pointwise (1x1, stride 1) conv skips
#    the gather — its input already is that matrix.  ``np.tensordot``
#    reached the same sgemm through a transpose + reshape + copy of both
#    operands per call.
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


def conv1d_f32(x, w, b, stride, pad, activation="none", out=None, xp=None, col=None):
    xp = _pad1d(x, pad, 0.0, xp)
    bsz, t, c = xp.shape
    k, _, cout = w.shape
    ot = (t - k) // stride + 1
    sb, st, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(bsz, ot, k, c), strides=(sb, st * stride, st, sc), writeable=False
    )
    out = _gemm(windows, w.reshape(-1, cout), col, out).reshape(bsz, ot, cout)
    return _finish_f32(out, b, activation)


def fc_f32(x, w, b, activation="none", out=None):
    return _finish_f32(_gemm(x, w, out=out), b, activation)


def _pool_view(x, pool):
    """``(b, h/p, p, w/p, p, c)``: the pool windows of a NHWC tensor,
    trailing rows/columns that fill no window dropped."""
    b, h, w, c = x.shape
    th, tw = (h // pool) * pool, (w // pool) * pool
    return x[:, :th, :tw, :].reshape(b, th // pool, pool, tw // pool, pool, c)


def maxpool2d_f32(x, pool, out=None):
    return _pool_view(x, pool).max(axis=(2, 4), out=out)


def maxpool1d_f32(x, pool, out=None):
    b, t, c = x.shape
    tt = (t // pool) * pool
    return x[:, :tt, :].reshape(b, tt // pool, pool, c).max(axis=2, out=out)


def avgpool2d_f32(x, pool, out=None):
    return _pool_view(x, pool).mean(axis=(2, 4), dtype=np.float32, out=out)


def gap2d_f32(x, out=None):
    return x.mean(axis=(1, 2), dtype=np.float32, out=out)


def gap1d_f32(x, out=None):
    return x.mean(axis=1, dtype=np.float32, out=out)


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
    clamp_min=-128, clamp_max=127, path=True,
):
    xp = _pad2d(x, pad_h, pad_w, in_zp)
    view = _windows_2d(xp.astype(np.int32) - in_zp, w.shape[0], w.shape[1], stride)
    acc = np.einsum(
        "bxyijc,ijcd->bxycd", view.astype(np.int64),
        w.astype(np.int64, copy=False), optimize=path,
    )
    bsz, oh, ow, c, d = acc.shape
    acc = acc.reshape(bsz, oh, ow, c * d) + bias.astype(np.int64, copy=False)
    mult = np.asarray(out_mult, dtype=np.int64)
    shift = np.asarray(out_shift, dtype=np.int64)
    return _requant(acc, mult, shift, out_zp, clamp_min, clamp_max)


def conv1d_i8(
    x, w, bias, stride, pad, in_zp, out_zp, out_mult, out_shift,
    clamp_min=-128, clamp_max=127,
):
    xp = _pad1d(x, pad, in_zp)
    bsz, t, c = xp.shape
    k = w.shape[0]
    ot = (t - k) // stride + 1
    centered = xp.astype(np.int32) - in_zp
    sb, st, sc = centered.strides
    view = np.lib.stride_tricks.as_strided(
        centered, shape=(bsz, ot, k, c), strides=(sb, st * stride, st, sc), writeable=False
    )
    acc = np.tensordot(
        view.astype(np.int64), w.astype(np.int64, copy=False), axes=([2, 3], [0, 1])
    )
    acc += bias.astype(np.int64, copy=False)
    mult = np.asarray(out_mult, dtype=np.int64)
    shift = np.asarray(out_shift, dtype=np.int64)
    return _requant(acc, mult, shift, out_zp, clamp_min, clamp_max)


def fc_i8(
    x, w, bias, in_zp, out_zp, out_mult, out_shift, clamp_min=-128, clamp_max=127
):
    centered = x.astype(np.int64) - in_zp
    acc = centered @ w.astype(np.int64, copy=False) + bias.astype(np.int64, copy=False)
    mult = np.asarray(out_mult, dtype=np.int64)
    shift = np.asarray(out_shift, dtype=np.int64)
    return _requant(acc, mult, shift, out_zp, clamp_min, clamp_max)


# -- plan-bound int8 kernels -------------------------------------------------
#
# The kernels compiled plans bind (repro.runtime.executor._bind_op), on
# both engines: the TFLM interpreter and EON bind the same plan steps.
# The generic kernels above are the spec; these compute the same bytes
# faster through four rewrites, each exact and each proven per layer
# before the plan binds it, with a slower exact route for a layer that
# fails its proof.  Bind-time constants are only
# read and every per-call array is local, so one plan may run on several
# threads at once; windows are taken with strides read off the array, so
# one plan runs every batch size.
#
# 1. Requantization constants are derived once (``Requantizer``) and
#    applied in place on the accumulator the kernel owns.  Round half
#    away from zero needs no abs/where: with h = 2**(s-1), a product
#    p >= 0 rounds to (p + h) >> s, and for p < 0 the spec's
#      -((-p + h) >> s) = ceil((p - h) / 2**s)
#                       = (p - h + 2**s - 1) >> s = (p + h - 1) >> s,
#    so both signs are (p + h + (p >> 63)) >> s.
# 2. The input zero point is folded into the bias (``prepare_*_i8``):
#    sum_k (x_k - zp) w_k + b = sum_k x_k w_k + (b - zp sum_k w_k).
#    Padding is filled with zp, so every window has all K taps and the
#    identity holds at the borders too.  Kernels therefore contract the
#    padded int8 tensor directly; there is no centering pass.
# 3. A contraction runs in float64 BLAS when ``prepare_gemm_i8`` proves
#    it exact.  Uncentered int8 products are at most 128*128 in
#    magnitude, so every partial sum of K of them, in any order, plus a
#    folded bias of at most max|bias| + 128*K*128, stays within
#    2*K*128*128 + max|bias|.  Under 2**53 float64 holds every such
#    integer, so dgemm returns the exact accumulators, ~10x faster than
#    the int64 matmul a layer over the bound runs on the same kernel.
# 4. Depthwise convolution with depth multiplier 1 has no GEMM form; it
#    accumulates its kh*kw taps as strided multiply-adds into one int32
#    accumulator (products in int16, which holds any int8 x int8).
#    ``prepare_dwconv_i8`` selects this only after proving
#    kh*kw*128*128 + max|bias'| < 2**31, so neither a partial sum nor
#    the biased total can wrap; otherwise the int64 window route runs.
#
# A fused max-pool runs on the accumulators *before* the bias and the
# requantization: adding a per-channel bias and requantizing (multiply +
# rounding shift + clip) are monotone non-decreasing and per-channel,
# and spatial pooling never crosses channels, so
# requant(max(acc) + b) == max(requant(acc + b)) element for element
# while the bias and requant work shrinks by pool^2.  Average pooling
# does not commute with the rounding, so a fused avg pool runs on the
# requantized int8 output (same kernel as unfused).


class Requantizer:
    """int32-range accumulators -> int8, constants prepared at bind time.

    Equals ``_requant`` (the spec) byte for byte; raises the spec's
    ``ValueError`` at construction for a shift or mantissa outside its
    range, and caps the shift where the spec does.
    """

    __slots__ = ("mant", "shift", "half", "out_zp", "clamp_min", "clamp_max")

    def __init__(self, out_mult, out_shift, out_zp, clamp_min=-128, clamp_max=127):
        self.mant = checked_mantissa(out_mult)
        self.shift = total_shift_of(out_shift)
        self.half = np.int64(1) << (self.shift - 1)
        self.out_zp, self.clamp_min, self.clamp_max = (
            np.int64(v) for v in (out_zp, clamp_min, clamp_max))

    def __call__(self, acc: np.ndarray, out=None, work=None, sign=None) -> np.ndarray:
        """``acc`` belongs to the caller and is consumed: an int64 array
        is overwritten in place, any other dtype (exact-integer float64,
        int32) is converted once first, into ``work`` when given.  The
        int8 result lands in ``out`` and the rounding's int64 sign word
        in ``sign``; each is a fresh array when ``None``."""
        if acc.dtype != np.int64:
            if work is None:
                work = np.empty(acc.shape, dtype=np.int64)
            np.copyto(work, acc, casting="unsafe")
            acc = work
        acc *= self.mant
        sign = np.right_shift(acc, 63, out=sign)
        acc += self.half
        acc += sign
        acc >>= self.shift
        acc += self.out_zp
        np.maximum(acc, self.clamp_min, out=acc)
        np.minimum(acc, self.clamp_max, out=acc)
        if out is None:
            return acc.astype(np.int8)
        np.copyto(out, acc, casting="unsafe")
        return out


def prepare_gemm_i8(w, bias, in_zp):
    """``(w2d, bias')`` for the GEMM kernels: weights flattened to
    ``(K, cout)``, zero point folded into the bias; float64 when every
    partial sum provably fits its mantissa (note 3 above:
    ``2*K*128*128 + max|bias| < 2**53``), else int64."""
    w2d = w.reshape(-1, w.shape[-1])
    bias = bias.astype(np.int64)
    folded = bias - in_zp * w2d.sum(axis=0, dtype=np.int64)
    max_bias = int(np.abs(bias).max()) if bias.size else 0
    exact = 2 * w2d.shape[0] * 128 * 128 + max_bias < 2 ** 53
    dtype = np.float64 if exact else np.int64
    return w2d.astype(dtype), folded.astype(dtype)


def _fits_int32(k, folded) -> bool:
    """Note 4's proof: ``k`` int8 products and the folded bias cannot
    wrap an int32 accumulator, ``k*128*128 + max|bias'| < 2**31``."""
    max_bias = int(np.abs(folded).max()) if folded.size else 0
    return k * 128 * 128 + max_bias < 2 ** 31


def prepare_dwconv_i8(w, bias, in_zp):
    """``(taps, bias')`` for ``dwconv2d_i8_plan``: int8 ``(kh, kw, c)``
    taps and an int32 bias when tap accumulation provably fits int32
    (note 4 above), else the int64 ``(kh, kw, c, d)`` weights and bias
    of the window route."""
    kh, kw, _, dm = w.shape
    folded = bias.astype(np.int64) - in_zp * w.sum(axis=(0, 1), dtype=np.int64).reshape(-1)
    if dm == 1 and _fits_int32(kh * kw, folded):
        return w[..., 0].astype(np.int8), folded.astype(np.int32)
    return w.astype(np.int64), folded


def prepare_gemm_i32(w, bias, in_zp):
    """``(w2d, bias')`` for the C kernels (``repro.runtime.native``): int8
    weights as ``(K, cout)`` and the folded bias as int32, when int32
    accumulation provably cannot wrap (note 4's proof over ``K`` taps);
    ``None`` otherwise."""
    w2d = w.reshape(-1, w.shape[-1])
    folded = bias.astype(np.int64) - in_zp * w2d.sum(axis=0, dtype=np.int64)
    if not _fits_int32(w2d.shape[0], folded):
        return None
    return w2d.astype(np.int8), folded.astype(np.int32)


def _finish(
    acc, bias, requant, pool=None, pool_kind="max", out=None, pooled=None,
    work=None, sign=None, q=None,
):
    """Shared tail of the convs, on accumulators ``(batch, *spatial,
    channels)`` the caller owns: (max pool) -> bias -> requantize ->
    (avg pool).  ``pooled`` (max pool), ``work`` / ``sign`` (the
    requantizer's) and ``q`` (the int8 tensor an avg pool reads) are
    scratch, allocated when ``None``."""
    if pool and pool_kind == "max":
        # Block max as pool**d strided maxima: elementwise over whole
        # channel runs, ~3x faster than a reshape + multi-axis reduce on
        # accumulator-width data.
        spatial = acc.shape[1:-1]
        ends = [(n // pool - 1) * pool + 1 for n in spatial]
        for i, offsets in enumerate(np.ndindex(*(pool,) * len(spatial))):
            tap = acc[(slice(None), *(slice(o, o + e, pool) for o, e in zip(offsets, ends)))]
            if i == 0 and pooled is None:
                pooled = tap.copy()
            elif i == 0:
                np.copyto(pooled, tap)
            else:
                np.maximum(pooled, tap, out=pooled)
        acc = pooled
    acc += bias
    if pool and pool_kind == "avg":
        return avgpool2d_i8(requant(acc, q, work, sign), pool, out)
    return requant(acc, out, work, sign)


def conv2d_i8_plan(
    x, w2d, kh, kw, bias, stride, pad_h, pad_w, in_zp, requant,
    pool=None, pool_kind="max", out=None, xp=None, col=None, acc=None, **tail,
):
    """CONV_2D: pad -> int8 im2col -> GEMM -> ``_finish``.  ``w2d`` /
    ``bias`` come from ``prepare_gemm_i8``; ``xp`` / ``col`` / ``acc``
    and the ``_finish`` scratch in ``tail`` are allocated when absent."""
    xp = _pad2d(x, pad_h, pad_w, in_zp, xp)
    if kh == 1 and kw == 1 and stride == 1:
        windows = xp  # pointwise: the im2col matrix is the input itself
    else:
        windows = _windows_2d(xp, kh, kw, stride)
    acc = _gemm(windows, w2d, col, acc).reshape(windows.shape[:3] + (-1,))
    return _finish(acc, bias, requant, pool, pool_kind, out, **tail)


def dwconv2d_i8_plan(
    x, taps, bias, stride, pad_h, pad_w, in_zp, requant,
    pool=None, pool_kind="max", out=None, xp=None, acc=None, prod=None, **tail,
):
    """DEPTHWISE_CONV_2D.  ``taps`` / ``bias`` come from
    ``prepare_dwconv_i8``, whose dtype choice selects the route: int8
    taps accumulate int16 products into int32 (note 4), int64 taps
    ``(kh, kw, c, d)`` accumulate int64 products — exact either way, so
    the order of the taps does not matter."""
    xp = _pad2d(x, pad_h, pad_w, in_zp, xp)
    kh, kw = taps.shape[:2]
    b, h, w, c = xp.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    wide = taps.dtype != np.int8
    shape = (b, oh, ow, c) + taps.shape[3:]
    dtypes = (np.int64, np.int64) if wide else (np.int32, np.int16)
    acc = np.empty(shape, dtypes[0]) if acc is None else acc.reshape(shape)
    prod = np.empty(shape, dtypes[1]) if prod is None else prod.reshape(shape)
    acc.fill(0)
    h_end, w_end = (oh - 1) * stride + 1, (ow - 1) * stride + 1
    for i in range(kh):
        for j in range(kw):
            window = xp[:, i : i + h_end : stride, j : j + w_end : stride, :]
            if wide:
                window = window[..., None]
            np.multiply(window, taps[i, j], out=prod, dtype=prod.dtype)
            acc += prod
    acc = acc.reshape(b, oh, ow, -1)
    return _finish(acc, bias, requant, pool, pool_kind, out, **tail)


def conv1d_i8_plan(
    x, w2d, k, bias, stride, pad, in_zp, requant, pool=None, out=None,
    xp=None, col=None, acc=None, **tail,
):
    """CONV_1D: pad -> int8 im2col -> GEMM -> ``_finish``."""
    xp = _pad1d(x, pad, in_zp, xp)
    bsz, t, c = xp.shape
    ot = (t - k) // stride + 1
    sb, st, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(bsz, ot, k, c), strides=(sb, st * stride, st, sc), writeable=False
    )
    acc = _gemm(windows, w2d, col, acc).reshape(bsz, ot, -1)
    return _finish(acc, bias, requant, pool, out=out, **tail)


def fc_i8_plan(x, w2d, bias, requant, out=None, col=None, acc=None, **tail):
    """FULLY_CONNECTED on ``prepare_gemm_i8`` operands."""
    return _finish(_gemm(x, w2d, col, acc), bias, requant, out=out, **tail)


def maxpool2d_i8(x, pool, out=None):
    return maxpool2d_f32(x, pool, out)  # max is order-preserving; qparams unchanged


def maxpool1d_i8(x, pool, out=None):
    return maxpool1d_f32(x, pool, out)


def _round_div_i8(acc, count, out=None):
    """int sums / ``count``, rounded half away from zero, saturated to
    int8 (into ``out`` when given)."""
    rounded = np.floor_divide(
        acc + np.where(acc >= 0, count // 2, -(count // 2)), count
    )
    np.clip(rounded, -128, 127, out=rounded)
    if out is None:
        return rounded.astype(np.int8)
    np.copyto(out, rounded, casting="unsafe")
    return out


def avgpool2d_i8(x, pool, out=None):
    return _round_div_i8(_pool_view(x, pool).sum(axis=(2, 4), dtype=np.int64), pool * pool, out)


def gap2d_i8(x, out=None):
    b, h, w, c = x.shape
    return _round_div_i8(x.sum(axis=(1, 2), dtype=np.int64), h * w, out)


def gap1d_i8(x, out=None):
    return _round_div_i8(x.sum(axis=1, dtype=np.int64), x.shape[1], out)


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
