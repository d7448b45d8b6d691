"""Layer implementations with explicit forward/backward passes.

Conventions:

- activations are NHWC (batch last-channel) for 2-D, ``(batch, time,
  channels)`` for 1-D;
- ``build(input_shape)`` receives the per-sample shape (no batch dim) and
  returns the per-sample output shape;
- ``forward(training=True)`` caches what ``backward`` needs in
  underscore-named array attributes; ``backward`` receives dLoss/dOutput,
  *assigns* every parameter gradient in ``self.grads`` and returns
  dLoss/dInput; ``backward_params`` skips that input gradient.

Convolutions lower like the inference kernels (``runtime/kernels.py``):
zero-filled pad buffer, one gather of the window view into the ``(rows, K)``
im2col matrix, one sgemm — the operands ``tensordot`` built through its
transpose + reshape + copy, so results are its bits (docs/training.md).
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, he_normal
from repro.utils.rng import ensure_rng


class Layer:
    """Base layer. Subclasses override build/forward/backward."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        return self.output_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad: np.ndarray) -> None:
        self.backward(grad)

    @property
    def name(self) -> str:
        return type(self).__name__


def _pad_amount(size: int, kernel: int, stride: int, padding: str) -> tuple[int, int]:
    if padding == "valid":
        return 0, 0
    if padding == "same":
        out = -(-size // stride)  # ceil division
        total = max((out - 1) * stride + kernel - size, 0)
        return total // 2, total - total // 2
    raise ValueError(f"unknown padding {padding!r}")


def _out_size(size: int, kernel: int, stride: int, pad: tuple[int, int]) -> int:
    return (size + pad[0] + pad[1] - kernel) // stride + 1


def _padded(x: np.ndarray, pads: tuple[tuple[int, int], ...]) -> np.ndarray:
    """``x`` as float32, spatial axes zero-padded by ``pads`` (``(before,
    after)`` per axis), in the memory order ``numpy.pad`` returns (the GEMM
    route depends on it) — minus its ~70 us of Python per call, and minus
    the copy when nothing is padded and ``x`` already has that layout."""
    order = "F" if x.flags.fnc else "C"
    if not any(map(any, pads)):
        return np.asarray(x, dtype=np.float32, order=order)
    shape = (len(x), *(lo + n + hi for (lo, hi), n in zip(pads, x.shape[1:])), x.shape[-1])
    xp = np.zeros(shape, dtype=np.float32, order=order)
    _unpadded(xp, pads)[...] = x
    return xp


def _unpadded(xp: np.ndarray, pads: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The view of ``xp`` that ``_padded`` fills from its input."""
    return xp[(slice(None), *(slice(lo, n - hi) for (lo, hi), n in zip(pads, xp.shape[1:])))]


def _windows(xp: np.ndarray, kernel: tuple[int, ...], stride: int) -> np.ndarray:
    """Strided view ``(B, *out, *kernel, C)`` over padded channels-last input."""
    sb, *spatial, sc = xp.strides
    out = [(n - k) // stride + 1 for n, k in zip(xp.shape[1:], kernel)]
    shape = (len(xp), *out, *kernel, xp.shape[-1])
    strides = (sb, *(s * stride for s in spatial), *spatial, sc)
    return np.lib.stride_tricks.as_strided(xp, shape, strides, writeable=False)


def _weight_grad(view: np.ndarray, grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """dLoss/dW of a conv from its forward window view: the ``(K, rows)``
    transpose of the im2col matrix (one gather; a plain transposed view when
    the input *is* that matrix, as for a pointwise conv) times ``grad``."""
    n = view.ndim // 2  # batch + spatial axes, then as many kernel + channel axes
    cols_t = view.transpose(*range(n, 2 * n), *range(n)).reshape(-1, grad.size // shape[-1])
    dw = np.dot(cols_t, grad.reshape(-1, shape[-1]))
    return dw.reshape(shape).astype(np.float32, copy=False)


class Conv2D(Layer):
    """2-D convolution, NHWC, weights ``(KH, KW, Cin, F)``."""

    def __init__(
        self,
        filters: int,
        kernel_size: int | tuple[int, int],
        stride: int = 1,
        padding: str = "same",
        use_bias: bool = True,
    ):
        super().__init__()
        self.filters = int(filters)
        self.kh, self.kw = (
            (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        )
        self.stride = int(stride)
        self.padding = padding
        self.use_bias = use_bias

    def build(self, input_shape, rng):
        h, w, c = input_shape
        fan_in = self.kh * self.kw * c
        self.params["W"] = he_normal((self.kh, self.kw, c, self.filters), fan_in, rng)
        if self.use_bias:
            self.params["b"] = np.zeros(self.filters, dtype=np.float32)
        self.pad_h = _pad_amount(h, self.kh, self.stride, self.padding)
        self.pad_w = _pad_amount(w, self.kw, self.stride, self.padding)
        oh = _out_size(h, self.kh, self.stride, self.pad_h)
        ow = _out_size(w, self.kw, self.stride, self.pad_w)
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (oh, ow, self.filters)
        return self.output_shape

    def forward(self, x, training=False):
        xp = _padded(x, (self.pad_h, self.pad_w))
        view = _windows(xp, (self.kh, self.kw), self.stride)
        cols = view.reshape(-1, self.kh * self.kw * xp.shape[-1])  # the one gather
        out = np.dot(cols, self.params["W"].reshape(-1, self.filters))
        if self.use_bias:
            out += self.params["b"]
        if training:
            self._xp_shape = xp.shape
            self._view = view
        return out.reshape(view.shape[:3] + (self.filters,))

    def backward_params(self, grad):
        self.grads["W"] = _weight_grad(self._view, grad, self.params["W"].shape)
        if self.use_bias:
            self.grads["b"] = grad.sum(axis=(0, 1, 2)).astype(np.float32, copy=False)

    def backward(self, grad):
        self.backward_params(grad)
        b, oh, ow, _ = grad.shape
        dxp = np.zeros(self._xp_shape, dtype=np.float32)
        weights = self.params["W"]
        s = self.stride
        for i in range(self.kh):
            for j in range(self.kw):
                contrib = grad @ weights[i, j].T  # (B, OH, OW, Cin)
                dxp[:, i : i + s * oh : s, j : j + s * ow : s, :] += contrib
        return _unpadded(dxp, (self.pad_h, self.pad_w))


class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution, weights ``(KH, KW, C, depth_multiplier)``."""

    def __init__(
        self,
        kernel_size: int | tuple[int, int] = 3,
        stride: int = 1,
        padding: str = "same",
        depth_multiplier: int = 1,
        use_bias: bool = True,
    ):
        super().__init__()
        self.kh, self.kw = (
            (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        )
        self.stride = int(stride)
        self.padding = padding
        self.depth_multiplier = int(depth_multiplier)
        self.use_bias = use_bias

    def build(self, input_shape, rng):
        h, w, c = input_shape
        fan_in = self.kh * self.kw
        self.params["W"] = he_normal(
            (self.kh, self.kw, c, self.depth_multiplier), fan_in, rng
        )
        out_c = c * self.depth_multiplier
        if self.use_bias:
            self.params["b"] = np.zeros(out_c, dtype=np.float32)
        self.pad_h = _pad_amount(h, self.kh, self.stride, self.padding)
        self.pad_w = _pad_amount(w, self.kw, self.stride, self.padding)
        oh = _out_size(h, self.kh, self.stride, self.pad_h)
        ow = _out_size(w, self.kw, self.stride, self.pad_w)
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (oh, ow, out_c)
        return self.output_shape

    def forward(self, x, training=False):
        xp = _padded(x, (self.pad_h, self.pad_w))
        view = _windows(xp, (self.kh, self.kw), self.stride)
        # (B,OH,OW,KH,KW,C) x (KH,KW,C,D) -> (B,OH,OW,C,D).  ``optimize=True`` stays
        # (numpy >= 2.3 makes it a batched matmul: other bits than plain einsum).
        out = np.einsum("bxyijc,ijcd->bxycd", view, self.params["W"], optimize=True)
        b, oh, ow, c, d = out.shape
        out = out.reshape(b, oh, ow, c * d)
        if self.use_bias:
            out += self.params["b"]
        if training:
            self._xp_shape = xp.shape
            self._view = view
        return out

    def backward(self, grad):
        b, oh, ow, _ = grad.shape
        c = self.params["W"].shape[2]
        g = grad.reshape(b, oh, ow, c, self.depth_multiplier)
        self.grads["W"] = np.einsum(
            "bxyijc,bxycd->ijcd", self._view, g, optimize=True
        ).astype(np.float32, copy=False)
        if self.use_bias:
            self.grads["b"] = grad.sum(axis=(0, 1, 2)).astype(np.float32, copy=False)
        dxp = np.zeros(self._xp_shape, dtype=np.float32)
        weights = self.params["W"]  # (KH,KW,C,D)
        s = self.stride
        for i in range(self.kh):
            for j in range(self.kw):
                # (B,OH,OW,C,D) x (C,D) -> (B,OH,OW,C)
                contrib = np.einsum("bxycd,cd->bxyc", g, weights[i, j], optimize=True)
                dxp[:, i : i + s * oh : s, j : j + s * ow : s, :] += contrib
        return _unpadded(dxp, (self.pad_h, self.pad_w))


class Conv1D(Layer):
    """1-D convolution over ``(batch, time, channels)``."""

    def __init__(
        self,
        filters: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str = "same",
        use_bias: bool = True,
    ):
        super().__init__()
        self.filters = int(filters)
        self.k = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding
        self.use_bias = use_bias

    def build(self, input_shape, rng):
        t, c = input_shape
        fan_in = self.k * c
        self.params["W"] = he_normal((self.k, c, self.filters), fan_in, rng)
        if self.use_bias:
            self.params["b"] = np.zeros(self.filters, dtype=np.float32)
        self.pad = _pad_amount(t, self.k, self.stride, self.padding)
        ot = _out_size(t, self.k, self.stride, self.pad)
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (ot, self.filters)
        return self.output_shape

    def forward(self, x, training=False):
        xp = _padded(x, (self.pad,))
        view = _windows(xp, (self.k,), self.stride)
        cols = view.reshape(-1, self.k * xp.shape[-1])  # the one gather
        out = np.dot(cols, self.params["W"].reshape(-1, self.filters))
        if self.use_bias:
            out += self.params["b"]
        if training:
            self._xp_shape = xp.shape
            self._view = view
        return out.reshape(view.shape[:2] + (self.filters,))

    def backward_params(self, grad):
        self.grads["W"] = _weight_grad(self._view, grad, self.params["W"].shape)
        if self.use_bias:
            self.grads["b"] = grad.sum(axis=(0, 1)).astype(np.float32, copy=False)

    def backward(self, grad):
        self.backward_params(grad)
        b, ot, _ = grad.shape
        dxp = np.zeros(self._xp_shape, dtype=np.float32)
        s = self.stride
        for i in range(self.k):
            dxp[:, i : i + s * ot : s, :] += grad @ self.params["W"][i].T
        return _unpadded(dxp, (self.pad,))


class Dense(Layer):
    """Fully connected layer over the last axis of flattened input."""

    def __init__(self, units: int, use_bias: bool = True):
        super().__init__()
        self.units = int(units)
        self.use_bias = use_bias

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ValueError(f"Dense expects flat input, got {input_shape}; add Flatten")
        fan_in = input_shape[0]
        self.params["W"] = glorot_uniform((fan_in, self.units), fan_in, self.units, rng)
        if self.use_bias:
            self.params["b"] = np.zeros(self.units, dtype=np.float32)
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (self.units,)
        return self.output_shape

    def forward(self, x, training=False):
        if training:
            self._x = x
        out = x @ self.params["W"]
        if self.use_bias:
            out += self.params["b"]
        return out.astype(np.float32, copy=False)

    def backward_params(self, grad):
        self.grads["W"] = (self._x.T @ grad).astype(np.float32, copy=False)
        if self.use_bias:
            self.grads["b"] = grad.sum(axis=0).astype(np.float32, copy=False)

    def backward(self, grad):
        self.backward_params(grad)
        return grad @ self.params["W"].T


class ReLU(Layer):
    def forward(self, x, training=False):
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad):
        return grad * self._mask


class ReLU6(Layer):
    def forward(self, x, training=False):
        if training:
            self._mask = (x > 0) & (x < 6.0)
        return np.clip(x, 0.0, 6.0)

    def backward(self, grad):
        return grad * self._mask


class Softmax(Layer):
    """Softmax over the last axis. Inference-only within Sequential models —
    training uses :class:`CrossEntropyFromLogits` against the logits."""

    def forward(self, x, training=False):
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=-1, keepdims=True)
        if training:
            self._out = out
        return out.astype(np.float32, copy=False)

    def backward(self, grad):
        s = self._out
        dot = (grad * s).sum(axis=-1, keepdims=True)
        return s * (grad - dot)


class Flatten(Layer):
    def build(self, input_shape, rng):
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (int(np.prod(input_shape)),)
        return self.output_shape

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Reshape(Layer):
    def __init__(self, target_shape: tuple[int, ...]):
        super().__init__()
        self.target_shape = tuple(target_shape)

    def build(self, input_shape, rng):
        if int(np.prod(input_shape)) != int(np.prod(self.target_shape)):
            raise ValueError(f"cannot reshape {input_shape} to {self.target_shape}")
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = self.target_shape
        return self.output_shape

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape((x.shape[0],) + self.target_shape)

    def backward(self, grad):
        return grad.reshape(self._shape)


def _untrimmed(dx_trim: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A pool's input gradient as float32 of the input's ``shape``; the rows
    and columns the pool dropped (``size % pool``), if any, get zero."""
    if dx_trim.shape == shape:
        return dx_trim.astype(np.float32, copy=False)
    dx = np.zeros(shape, dtype=np.float32)
    dx[tuple(slice(n) for n in dx_trim.shape)] = dx_trim
    return dx


class MaxPool2D(Layer):
    """Non-overlapping max pooling (stride == pool size)."""

    def __init__(self, pool_size: int = 2):
        super().__init__()
        self.p = int(pool_size)

    def build(self, input_shape, rng):
        h, w, c = input_shape
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (h // self.p, w // self.p, c)
        return self.output_shape

    def forward(self, x, training=False):
        b, h, w, c = x.shape
        p = self.p
        th, tw = (h // p) * p, (w // p) * p
        xt = x[:, :th, :tw, :].reshape(b, th // p, p, tw // p, p, c)
        out = xt.max(axis=(2, 4))
        if training:
            self._x_trim = xt
            self._out = out
            self._orig_shape = x.shape
        return out

    def backward(self, grad):
        b, oh, ow, c = grad.shape
        p = self.p
        mask = self._x_trim == self._out[:, :, None, :, None, :]
        # Split ties evenly so gradient mass is conserved.
        counts = mask.sum(axis=(2, 4), keepdims=True)
        spread = mask * (grad[:, :, None, :, None, :] / counts)
        return _untrimmed(spread.reshape(b, oh * p, ow * p, c), self._orig_shape)


class MaxPool1D(Layer):
    """Non-overlapping 1-D max pooling."""

    def __init__(self, pool_size: int = 2):
        super().__init__()
        self.p = int(pool_size)

    def build(self, input_shape, rng):
        t, c = input_shape
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (t // self.p, c)
        return self.output_shape

    def forward(self, x, training=False):
        b, t, c = x.shape
        p = self.p
        tt = (t // p) * p
        xt = x[:, :tt, :].reshape(b, tt // p, p, c)
        out = xt.max(axis=2)
        if training:
            self._x_trim = xt
            self._out = out
            self._orig_shape = x.shape
        return out

    def backward(self, grad):
        b, ot, c = grad.shape
        p = self.p
        mask = self._x_trim == self._out[:, :, None, :]
        counts = mask.sum(axis=2, keepdims=True)
        spread = mask * (grad[:, :, None, :] / counts)
        return _untrimmed(spread.reshape(b, ot * p, c), self._orig_shape)


class AvgPool2D(Layer):
    """Non-overlapping average pooling."""

    def __init__(self, pool_size: int = 2):
        super().__init__()
        self.p = int(pool_size)

    def build(self, input_shape, rng):
        h, w, c = input_shape
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (h // self.p, w // self.p, c)
        return self.output_shape

    def forward(self, x, training=False):
        b, h, w, c = x.shape
        p = self.p
        th, tw = (h // p) * p, (w // p) * p
        xt = x[:, :th, :tw, :].reshape(b, th // p, p, tw // p, p, c)
        if training:
            self._orig_shape = x.shape
        return xt.mean(axis=(2, 4))

    def backward(self, grad):
        b, oh, ow, c = grad.shape
        p = self.p
        expanded = np.repeat(np.repeat(grad, p, axis=1), p, axis=2) / (p * p)
        return _untrimmed(expanded, self._orig_shape)


class GlobalAvgPool2D(Layer):
    def build(self, input_shape, rng):
        h, w, c = input_shape
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (c,)
        return self.output_shape

    def forward(self, x, training=False):
        if training:
            self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad):
        b, h, w, c = self._shape
        return np.broadcast_to(grad[:, None, None, :], self._shape) / (h * w)


class GlobalAvgPool1D(Layer):
    def build(self, input_shape, rng):
        t, c = input_shape
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (c,)
        return self.output_shape

    def forward(self, x, training=False):
        if training:
            self._shape = x.shape
        return x.mean(axis=1)

    def backward(self, grad):
        b, t, c = self._shape
        return np.broadcast_to(grad[:, None, :], self._shape) / t


class BatchNorm(Layer):
    """Batch normalisation over the channel (last) axis."""

    def __init__(self, momentum: float = 0.9, eps: float = 1e-3):
        super().__init__()
        self.momentum = float(momentum)
        self.eps = float(eps)

    def build(self, input_shape, rng):
        c = input_shape[-1]
        self.params["gamma"] = np.ones(c, dtype=np.float32)
        self.params["beta"] = np.zeros(c, dtype=np.float32)
        self.running_mean = np.zeros(c, dtype=np.float32)
        self.running_var = np.ones(c, dtype=np.float32)
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        return self.output_shape

    def forward(self, x, training=False):
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(np.float32, copy=False)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(np.float32, copy=False)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = (x - mean) * inv_std
            self._x_hat = x_hat
            self._inv_std = inv_std
            self._axes = axes
            self._n = x.size // x.shape[-1]
            return (self.params["gamma"] * x_hat + self.params["beta"]).astype(
                np.float32, copy=False
            )
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.params["gamma"] * inv_std
        shift = self.params["beta"] - self.running_mean * scale
        return (x * scale + shift).astype(np.float32, copy=False)

    def backward(self, grad):
        axes, n = self._axes, self._n
        x_hat, inv_std = self._x_hat, self._inv_std
        self.grads["gamma"] = (grad * x_hat).sum(axis=axes).astype(np.float32, copy=False)
        self.grads["beta"] = grad.sum(axis=axes).astype(np.float32, copy=False)
        g = grad * self.params["gamma"]
        term = g - g.mean(axis=axes) - x_hat * (g * x_hat).mean(axis=axes)
        return (term * inv_std).astype(np.float32, copy=False)


class Dropout(Layer):
    def __init__(self, rate: float = 0.25, seed: int = 0):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self._rng = ensure_rng(seed)

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return (x * self._mask).astype(np.float32, copy=False)

    def backward(self, grad):
        return grad * self._mask


class Residual(Layer):
    """``y = x + f(x)`` where ``f`` is a list of sublayers.

    The building block for MobileNetV2-style inverted residuals.  The
    sublayers must preserve the input shape.
    """

    def __init__(self, sublayers: list[Layer]):
        super().__init__()
        self.sublayers = list(sublayers)

    def build(self, input_shape, rng):
        shape = tuple(input_shape)
        for layer in self.sublayers:
            shape = layer.build(shape, rng)
        if shape != tuple(input_shape):
            raise ValueError(
                f"Residual branch changed shape {tuple(input_shape)} -> {shape}"
            )
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        return self.output_shape

    def forward(self, x, training=False):
        h = x
        for layer in self.sublayers:
            h = layer.forward(h, training=training)
        return x + h

    def backward(self, grad):
        g = grad
        for layer in reversed(self.sublayers):
            g = layer.backward(g)
        return grad + g

    def walk(self):
        for layer in self.sublayers:
            yield layer
