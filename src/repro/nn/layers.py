"""Layer implementations with explicit forward/backward passes.

Conventions:

- activations are channels-last: NHWC for 2-D, ``(batch, time,
  channels)`` for 1-D;
- ``build(input_shape)`` receives the per-sample shape (no batch dim) and
  returns the per-sample output shape; a conv or pool whose output extent
  is empty on any axis is refused there with a ``ValueError``;
- ``forward(training=True)`` caches what ``backward`` needs in
  underscore-named array attributes; ``backward`` receives dLoss/dOutput,
  *assigns* every parameter gradient in ``self.grads`` and returns
  dLoss/dInput; ``backward_params`` skips that input gradient.

The spatial layers are rank-generic: one convolution (``_Conv``), one
non-overlapping pool (``_Pool``) and one global average pool work over a
kernel or pool tuple of any length, so a 1-D layer is its 2-D twin's code
over one spatial axis and equals that twin at height 1, bit for bit.  The
public classes differ only in their constructors, except that
``DepthwiseConv2D`` keeps its einsum contractions and ``AvgPool2D`` its
backward.  Whatever a call needs besides the batch size (pads, per-tap
slices, tile shapes, reduction axes) is worked out once, in ``build``.

Convolutions lower like the inference kernels (``runtime/kernels.py``):
zero-filled pad buffer, one gather of the window view into the ``(rows, K)``
im2col matrix, one sgemm — the operands ``tensordot`` built through its
transpose + reshape + copy, so results are its bits (docs/training.md).
"""

from __future__ import annotations

import math

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
        return self._record_shapes(input_shape, input_shape)

    def _record_shapes(
        self, input_shape: tuple[int, ...], output_shape: tuple[int, ...]
    ) -> tuple[int, ...]:
        """Record the shapes ``build`` worked out; returns the output's."""
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
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


def _spatial(layer: Layer, input_shape: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """The spatial extents of channels-last ``input_shape``, which must have
    ``rank`` of them."""
    if len(input_shape) != rank + 1:
        raise ValueError(
            f"{layer.name} expects {rank} spatial axes + channels, got input {tuple(input_shape)}"
        )
    return tuple(input_shape[:-1])


def _nonempty(layer: Layer, input_shape: tuple[int, ...], out: tuple[int, ...]) -> tuple[int, ...]:
    """``out``, the spatial output extent of ``layer``'s window over
    ``input_shape``; refused when empty on any axis (the window is larger
    than its padded input), which would otherwise train to NaN or fail
    steps later in an unrelated reshape."""
    if min(out) < 1:
        raise ValueError(
            f"{layer.name} with kernel/pool size {layer.kernel} on input "
            f"{tuple(input_shape)} has an empty output extent {out}"
        )
    return out


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


class _Conv(Layer):
    """Convolution over the ``len(kernel)`` spatial axes of channels-last
    input, weights ``(*kernel, Cin, F)``: the window view times the weights
    as one im2col GEMM, and the input gradient as one GEMM per kernel tap."""

    def __init__(
        self, kernel_size: int | tuple[int, ...], rank: int, stride: int, padding: str,
        use_bias: bool,
    ):
        super().__init__()
        self.kernel = tuple(int(k) for k in np.broadcast_to(kernel_size, rank))
        self.stride = int(stride)
        self.padding = padding
        self.use_bias = use_bias

    def _weights(self, c: int) -> tuple[tuple[int, ...], int, int]:
        """``(W shape, fan-in, output channels)`` over ``c`` input channels."""
        return (*self.kernel, c, self.filters), math.prod(self.kernel) * c, self.filters

    def build(self, input_shape, rng):
        spatial = _spatial(self, input_shape, len(self.kernel))
        s = self.stride
        self.pads = tuple(_pad_amount(n, k, s, self.padding) for n, k in zip(spatial, self.kernel))
        out = _nonempty(self, input_shape, tuple(
            _out_size(n, k, s, pad) for n, k, pad in zip(spatial, self.kernel, self.pads)
        ))
        shape, fan_in, channels = self._weights(input_shape[-1])
        self.params["W"] = he_normal(shape, fan_in, rng)
        if self.use_bias:
            self.params["b"] = np.zeros(channels, dtype=np.float32)
        # Per call only the batch varies: every slice and shape is fixed here.
        self._taps = [
            (tap, (slice(None), *(slice(i, i + s * o, s) for i, o in zip(tap, out))))
            for tap in np.ndindex(self.kernel)
        ]
        self._cols = (-1, math.prod(shape[:-1]))
        self._rows = (-1, *out, channels)
        self._bias_axes = tuple(range(len(out) + 1))
        return self._record_shapes(input_shape, (*out, channels))

    def _product(self, view: np.ndarray) -> np.ndarray:
        cols = view.reshape(self._cols)  # the one gather
        return np.dot(cols, self.params["W"].reshape(self._cols[1], -1))

    def forward(self, x, training=False):
        xp = _padded(x, self.pads)
        view = _windows(xp, self.kernel, self.stride)
        out = self._product(view).reshape(self._rows)
        if self.use_bias:
            out += self.params["b"]
        if training:
            self._xp_shape = xp.shape
            self._view = view
        return out

    def backward_params(self, grad):
        self.grads["W"] = _weight_grad(self._view, grad, self.params["W"].shape)
        if self.use_bias:
            self.grads["b"] = grad.sum(axis=self._bias_axes).astype(np.float32, copy=False)

    def backward(self, grad):
        self.backward_params(grad)
        weights = self.params["W"]
        dxp = np.zeros(self._xp_shape, dtype=np.float32)
        for tap, window in self._taps:
            dxp[window] += grad @ weights[tap].T
        return _unpadded(dxp, self.pads)


class Conv2D(_Conv):
    """2-D convolution, NHWC, weights ``(KH, KW, Cin, F)``."""

    def __init__(
        self,
        filters: int,
        kernel_size: int | tuple[int, int],
        stride: int = 1,
        padding: str = "same",
        use_bias: bool = True,
    ):
        super().__init__(kernel_size, 2, stride, padding, use_bias)
        self.filters = int(filters)


class Conv1D(_Conv):
    """1-D convolution over ``(batch, time, channels)``, weights ``(K, Cin, F)``."""

    def __init__(
        self,
        filters: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str = "same",
        use_bias: bool = True,
    ):
        super().__init__(kernel_size, 1, stride, padding, use_bias)
        self.filters = int(filters)


class DepthwiseConv2D(_Conv):
    """Depthwise 2-D convolution, weights ``(KH, KW, C, depth_multiplier)``.

    Its contractions stay ``einsum(..., optimize=True)``: numpy >= 2.3 makes
    a two-operand ``optimize=True`` einsum a batched matmul, whose bits plain
    einsum does not reproduce (docs/training.md)."""

    def __init__(
        self,
        kernel_size: int | tuple[int, int] = 3,
        stride: int = 1,
        padding: str = "same",
        depth_multiplier: int = 1,
        use_bias: bool = True,
    ):
        super().__init__(kernel_size, 2, stride, padding, use_bias)
        self.depth_multiplier = int(depth_multiplier)

    def _weights(self, c):
        dm = self.depth_multiplier
        return (*self.kernel, c, dm), math.prod(self.kernel), c * dm

    def _product(self, view):
        # (B,OH,OW,KH,KW,C) x (KH,KW,C,D) -> (B,OH,OW,C,D)
        return np.einsum("bxyijc,ijcd->bxycd", view, self.params["W"], optimize=True)

    def backward_params(self, grad):
        g = grad.reshape(*grad.shape[:-1], *self.params["W"].shape[2:])
        self.grads["W"] = np.einsum(
            "bxyijc,bxycd->ijcd", self._view, g, optimize=True
        ).astype(np.float32, copy=False)
        if self.use_bias:
            self.grads["b"] = grad.sum(axis=self._bias_axes).astype(np.float32, copy=False)

    def backward(self, grad):
        self.backward_params(grad)
        weights = self.params["W"]
        g = grad.reshape(*grad.shape[:-1], *weights.shape[2:])
        dxp = np.zeros(self._xp_shape, dtype=np.float32)
        for tap, window in self._taps:
            # (B,OH,OW,C,D) x (C,D) -> (B,OH,OW,C)
            dxp[window] += np.einsum("bxycd,cd->bxyc", g, weights[tap], optimize=True)
        return _unpadded(dxp, self.pads)


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
        return self._record_shapes(input_shape, (self.units,))

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
        return self._record_shapes(input_shape, (int(np.prod(input_shape)),))

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
        return self._record_shapes(input_shape, self.target_shape)

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


class _Pool(Layer):
    """Non-overlapping pooling (stride == pool size) over ``rank`` spatial
    axes of channels-last input."""

    def __init__(self, pool_size: int, rank: int):
        super().__init__()
        self.pool_size = int(pool_size)
        self.kernel = (self.pool_size,) * rank

    def build(self, input_shape, rng):
        spatial = _spatial(self, input_shape, len(self.kernel))
        p = self.pool_size
        out = _nonempty(self, input_shape, tuple(n // p for n in spatial))
        c = input_shape[-1]
        self._trim = (slice(None), *(slice(o * p) for o in out))
        self._tiles = (-1, *(d for o in out for d in (o, p)), c)
        self._untiled = (-1, *(o * p for o in out), c)
        self._axes = tuple(range(2, 2 * len(out) + 1, 2))
        self._expand = (slice(None), *(a for _ in out for a in (slice(None), None)))
        return self._record_shapes(input_shape, (*out, c))

    def _tiled(self, x: np.ndarray) -> np.ndarray:
        """``x`` trimmed to whole windows, each window's cells on ``_axes``."""
        return x[self._trim].reshape(self._tiles)


class _MaxPool(_Pool):
    """Max over each window; a tie shares the window's gradient evenly."""

    def forward(self, x, training=False):
        xt = self._tiled(x)
        out = xt.max(axis=self._axes)
        if training:
            self._x_trim = xt
            self._out = out
            self._orig_shape = x.shape
        return out

    def backward(self, grad):
        mask = self._x_trim == self._out[self._expand]
        # Split ties evenly so gradient mass is conserved.
        counts = mask.sum(axis=self._axes, keepdims=True)
        spread = mask * (grad[self._expand] / counts)
        return _untrimmed(spread.reshape(self._untiled), self._orig_shape)


class MaxPool2D(_MaxPool):
    """Non-overlapping max pooling (stride == pool size)."""

    def __init__(self, pool_size: int = 2):
        super().__init__(pool_size, 2)


class MaxPool1D(_MaxPool):
    """Non-overlapping 1-D max pooling."""

    def __init__(self, pool_size: int = 2):
        super().__init__(pool_size, 1)


class AvgPool2D(_Pool):
    """Non-overlapping average pooling."""

    def __init__(self, pool_size: int = 2):
        super().__init__(pool_size, 2)

    def forward(self, x, training=False):
        if training:
            self._orig_shape = x.shape
        return self._tiled(x).mean(axis=self._axes)

    def backward(self, grad):
        p = self.pool_size
        expanded = np.repeat(np.repeat(grad, p, axis=1), p, axis=2) / (p * p)
        return _untrimmed(expanded, self._orig_shape)


class _GlobalAvgPool(Layer):
    """Mean over the ``rank`` spatial axes of channels-last input."""

    def __init__(self, rank: int):
        super().__init__()
        self.rank = rank

    def build(self, input_shape, rng):
        self._n = math.prod(_spatial(self, input_shape, self.rank))
        self._axes = tuple(range(1, self.rank + 1))
        self._expand = (slice(None), *(None,) * self.rank)
        return self._record_shapes(input_shape, input_shape[-1:])

    def forward(self, x, training=False):
        if training:
            self._shape = x.shape
        return x.mean(axis=self._axes)

    def backward(self, grad):
        return np.broadcast_to(grad[self._expand], self._shape) / self._n


class GlobalAvgPool2D(_GlobalAvgPool):
    def __init__(self):
        super().__init__(2)


class GlobalAvgPool1D(_GlobalAvgPool):
    def __init__(self):
        super().__init__(1)


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
        return self._record_shapes(input_shape, input_shape)

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
        return self._record_shapes(input_shape, input_shape)

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
