"""Layer-level numerical gradient checks and shape contracts."""

import re

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    BatchNorm,
    Conv1D,
    Conv2D,
    CrossEntropyFromLogits,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool1D,
    GlobalAvgPool2D,
    MaxPool1D,
    MaxPool2D,
    ReLU,
    ReLU6,
    Residual,
    Reshape,
    Sequential,
    Softmax,
)
from repro.nn.architectures import ARCHITECTURES

RNG = np.random.default_rng(42)
LOSS = CrossEntropyFromLogits()


def _grad_check(model, x, y, n_samples=4, tol=2e-2):
    """Compare backprop grads against central differences."""
    logits = model.forward(x, training=True)
    _, grad = LOSS(logits, y)
    model.backward(grad)
    failures = []
    for layer in model.walk_layers():
        for key, param in layer.params.items():
            grads = layer.grads[key].reshape(-1)
            flat = param.reshape(-1)
            idx = RNG.choice(flat.size, size=min(n_samples, flat.size), replace=False)
            for i in idx:
                eps, orig = 1e-3, flat[i]
                flat[i] = orig + eps
                lp, _ = LOSS(model.forward(x, training=True), y)
                flat[i] = orig - eps
                lm, _ = LOSS(model.forward(x, training=True), y)
                flat[i] = orig
                numeric = (lp - lm) / (2 * eps)
                if abs(numeric - grads[i]) > tol * max(1.0, abs(numeric)):
                    failures.append((layer.name, key, numeric, float(grads[i])))
    assert not failures, failures


def test_dense_gradients():
    x = RNG.standard_normal((6, 5)).astype(np.float32)
    y = np.array([0, 1, 2, 0, 1, 2])
    _grad_check(Sequential([Dense(8), ReLU(), Dense(3)], (5,), seed=0), x, y)


def test_conv2d_gradients_with_stride_and_padding():
    x = RNG.standard_normal((3, 7, 5, 2)).astype(np.float32)
    y = np.array([0, 1, 1])
    model = Sequential(
        [Conv2D(4, 3, stride=2, padding="same"), ReLU(), Flatten(), Dense(2)],
        (7, 5, 2), seed=0,
    )
    _grad_check(model, x, y)


def test_conv2d_valid_padding_gradients():
    x = RNG.standard_normal((3, 6, 6, 1)).astype(np.float32)
    y = np.array([0, 1, 0])
    model = Sequential(
        [Conv2D(3, 3, stride=1, padding="valid"), Flatten(), Dense(2)],
        (6, 6, 1), seed=0,
    )
    assert model.layers[0].output_shape == (4, 4, 3)
    _grad_check(model, x, y)


def test_depthwise_gradients():
    x = RNG.standard_normal((3, 6, 6, 3)).astype(np.float32)
    y = np.array([1, 0, 1])
    model = Sequential(
        [DepthwiseConv2D(3, stride=2, depth_multiplier=2), ReLU6(), Flatten(), Dense(2)],
        (6, 6, 3), seed=0,
    )
    assert model.layers[0].output_shape == (3, 3, 6)
    _grad_check(model, x, y)


def test_conv1d_gradients():
    x = RNG.standard_normal((4, 10, 3)).astype(np.float32)
    y = np.array([0, 1, 2, 1])
    model = Sequential(
        [Conv1D(5, 3, stride=2), ReLU(), GlobalAvgPool1D(), Dense(3)],
        (10, 3), seed=0,
    )
    _grad_check(model, x, y)


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv_gradients_over_stride_and_padding(stride, padding):
    """Odd sizes, and a trainable layer in front so the conv under test
    also has to produce a correct input gradient."""
    y = np.array([0, 1, 2, 1])
    x1 = RNG.standard_normal((4, 11, 3)).astype(np.float32)
    conv1 = Conv1D(5, 3, stride=stride, padding=padding)
    _grad_check(
        Sequential([Conv1D(4, 1), conv1, GlobalAvgPool1D(), Dense(3)], (11, 3), seed=0),
        x1, y,
    )
    assert conv1.output_shape == ({1: 11, 2: 6}[stride] if padding == "same"
                                  else {1: 9, 2: 5}[stride], 5)
    x2 = RNG.standard_normal((4, 7, 5, 2)).astype(np.float32)
    conv2 = Conv2D(3, (3, 5), stride=stride, padding=padding)
    _grad_check(
        Sequential([Conv2D(4, 1), conv2, GlobalAvgPool2D(), Dense(3)], (7, 5, 2), seed=0),
        x2, y,
    )
    assert conv2.output_shape[:2] == (
        {1: (7, 5), 2: (4, 3)}[stride] if padding == "same" else {1: (5, 1), 2: (3, 1)}[stride]
    )


@pytest.mark.parametrize("first, shape", [
    (lambda: Conv1D(4, 3, stride=2), (9, 2)),
    (lambda: Conv2D(3, 3, padding="valid"), (6, 5, 2)),
    (lambda: DepthwiseConv2D(3), (6, 5, 2)),
    (lambda: Dense(6), (10,)),
])
def test_backward_skips_only_the_model_input_gradient(first, shape):
    """``Sequential.backward`` computes no input gradient for the first
    trainable layer (nor anything before it); every parameter gradient
    equals the layer-by-layer backward that does, with the layer first or
    second behind an identity ``Reshape``."""
    x = RNG.standard_normal((4,) + shape).astype(np.float32)
    y = np.array([0, 1, 1, 0])
    tail = [Flatten()] if len(shape) > 1 else []

    def grads(layers, full):
        model = Sequential(layers + tail + [Dense(2)], shape, seed=3)
        _, grad = LOSS(model.forward(x, training=True), y)
        if full:
            for layer in reversed(model.layers):
                grad = layer.backward(grad)
            assert grad.shape == x.shape
        else:
            assert model.backward(grad) is None
        return [g for _, g in model.params_and_grads()]

    reference = grads([first()], full=True)
    assert len(reference) >= 3
    for layers in ([first()], [Reshape(shape), first()]):
        for got, want in zip(grads(layers, full=False), reference, strict=True):
            assert got.dtype == np.float32 and np.array_equal(got, want)


@pytest.mark.parametrize("size", [8, 9])  # 9 % 2: the last row / column is dropped
def test_maxpool_splits_ties_and_zeroes_what_it_trimmed(size):
    grad_of = np.arange(1, 5, dtype=np.float32)
    x1 = RNG.standard_normal((1, size, 1)).astype(np.float32)
    x1[0, 2, 0] = x1[0, 3, 0] = 7.0  # an exact tie in window 1
    pool = MaxPool1D(2)
    pool.build((size, 1), RNG)
    assert pool.forward(x1, training=True).shape == (1, 4, 1)
    dx = pool.backward(grad_of.reshape(1, 4, 1))
    assert dx.shape == x1.shape and dx.dtype == np.float32
    assert dx[0, 2, 0] == dx[0, 3, 0] == 1.0  # window 1's gradient of 2, halved
    assert np.array_equal(dx[0, :8, 0].reshape(4, 2).sum(axis=1), grad_of)
    assert not dx[0, 8:].any()

    x2 = RNG.standard_normal((1, size, size, 1)).astype(np.float32)
    x2[0, 0:2, 2:4, 0] = 9.0  # a four-way tie
    pool = MaxPool2D(2)
    pool.build((size, size, 1), RNG)
    g2 = RNG.standard_normal((1, 4, 4, 1)).astype(np.float32)
    assert pool.forward(x2, training=True).shape == g2.shape
    dx = pool.backward(g2)
    assert dx.shape == x2.shape and dx.dtype == np.float32
    assert np.array_equal(dx[0, 0:2, 2:4, 0], np.full((2, 2), g2[0, 0, 1, 0] / 4))
    windows = dx[0, :8, :8, 0].reshape(4, 2, 4, 2).sum(axis=(1, 3))
    assert np.allclose(windows, g2[0, :, :, 0], atol=1e-6)
    assert not dx[0, 8:].any() and not dx[0, :, 8:].any()


@pytest.mark.parametrize("length", [8, 9])
def test_pool_gradients_when_the_input_is_trimmed_or_not(length):
    y = np.array([0, 1, 0])
    x = RNG.standard_normal((3, length, 2)).astype(np.float32)
    model = Sequential([Conv1D(3, 3), MaxPool1D(2), Flatten(), Dense(2)], (length, 2), seed=0)
    _grad_check(model, x, y)
    x = RNG.standard_normal((3, length, length, 2)).astype(np.float32)
    for pool in (MaxPool2D(2), AvgPool2D(2)):
        model = Sequential([Conv2D(2, 3), pool, Flatten(), Dense(2)], (length, length, 2), seed=0)
        _grad_check(model, x, y)


def test_pool_gradients():
    x = RNG.standard_normal((3, 8, 8, 2)).astype(np.float32)
    y = np.array([0, 1, 0])
    for pool in (MaxPool2D(2), AvgPool2D(2)):
        model = Sequential(
            [Conv2D(2, 3), ReLU(), pool, Flatten(), Dense(2)], (8, 8, 2), seed=0
        )
        _grad_check(model, x, y)


def test_maxpool1d_gradients():
    x = RNG.standard_normal((3, 8, 2)).astype(np.float32)
    y = np.array([0, 1, 0])
    model = Sequential(
        [Conv1D(3, 3), MaxPool1D(2), Flatten(), Dense(2)], (8, 2), seed=0
    )
    _grad_check(model, x, y)


def test_batchnorm_gradients_and_running_stats():
    x = RNG.standard_normal((8, 4, 4, 2)).astype(np.float32) * 3 + 1
    y = RNG.integers(0, 2, 8)
    model = Sequential(
        [Conv2D(3, 3, use_bias=False), BatchNorm(), ReLU(), GlobalAvgPool2D(), Dense(2)],
        (4, 4, 2), seed=0,
    )
    bn = model.layers[1]
    before = bn.running_mean.copy()
    _grad_check(model, x, y)
    assert not np.allclose(bn.running_mean, before)  # stats updated in training
    # Inference mode must use running stats (deterministic, batch-independent).
    single = model.forward(x[:1])
    batch = model.forward(x)[:1]
    assert np.allclose(single, batch, atol=1e-5)


def test_residual_gradients():
    branch = [Conv2D(2, 3, use_bias=False), BatchNorm(), ReLU()]
    model = Sequential(
        [Conv2D(2, 3), Residual(branch), Flatten(), Dense(2)], (5, 5, 1), seed=0
    )
    x = RNG.standard_normal((3, 5, 5, 1)).astype(np.float32)
    y = np.array([0, 1, 1])
    _grad_check(model, x, y)


def test_residual_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Sequential([Residual([Conv2D(5, 3)])], (4, 4, 2), seed=0)


def test_softmax_layer_forward_backward():
    sm = Softmax()
    x = RNG.standard_normal((4, 6)).astype(np.float32)
    out = sm.forward(x, training=True)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    grad_in = sm.backward(np.ones_like(out))
    # Jacobian rows of softmax sum to 0 against constant upstream grad.
    assert np.allclose(grad_in.sum(axis=1), 0.0, atol=1e-5)


def test_dropout_scaling_and_inference_identity():
    drop = Dropout(0.5, seed=0)
    x = np.ones((400, 10), dtype=np.float32)
    out = drop.forward(x, training=True)
    assert abs(out.mean() - 1.0) < 0.1  # inverted dropout preserves mean
    assert np.array_equal(drop.forward(x, training=False), x)
    with pytest.raises(ValueError):
        Dropout(1.5)


def test_reshape_and_flatten():
    model = Sequential([Reshape((4, 2)), Flatten()], (8,), seed=0)
    x = RNG.standard_normal((2, 8)).astype(np.float32)
    assert np.array_equal(model.forward(x), x)
    with pytest.raises(ValueError):
        Sequential([Reshape((3, 3))], (8,), seed=0)


def test_dense_requires_flat_input():
    with pytest.raises(ValueError):
        Sequential([Dense(4)], (3, 3), seed=0)


def test_deterministic_initialisation():
    a = Sequential([Dense(4), Dense(2)], (6,), seed=7)
    b = Sequential([Dense(4), Dense(2)], (6,), seed=7)
    for wa, wb in zip(a.get_weights(), b.get_weights()):
        assert np.array_equal(wa, wb)


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [1, 2])
def test_a_1d_layer_is_its_2d_twin_of_height_1(stride, padding):
    """The design contract of the rank-generic layers: forward, every
    gradient and the input gradient agree to the bit."""
    x = RNG.standard_normal((3, 11, 4)).astype(np.float32)
    conv1 = Conv1D(5, 3, stride=stride, padding=padding)
    conv2 = Conv2D(5, (1, 3), stride=stride, padding=padding)
    conv1.build((11, 4), np.random.default_rng(0))
    conv2.build((1, 11, 4), np.random.default_rng(1))
    conv1.params["b"] = RNG.standard_normal(5).astype(np.float32)
    conv2.params["W"] = conv1.params["W"][None]
    conv2.params["b"] = conv1.params["b"].copy()
    y1 = conv1.forward(x, training=True)
    y2 = conv2.forward(x[:, None], training=True)
    assert np.array_equal(y1, y2[:, 0])
    grad = RNG.standard_normal(y1.shape).astype(np.float32)
    dx1, dx2 = conv1.backward(grad), conv2.backward(grad[:, None])
    assert np.array_equal(dx1, dx2[:, 0])
    assert np.array_equal(conv1.grads["W"], conv2.grads["W"][0])
    assert np.array_equal(conv1.grads["b"], conv2.grads["b"])

    gap1, gap2 = GlobalAvgPool1D(), GlobalAvgPool2D()
    gap1.build((11, 4), RNG)
    gap2.build((1, 11, 4), RNG)
    assert np.array_equal(gap1.forward(x, training=True), gap2.forward(x[:, None], training=True))
    g = RNG.standard_normal((3, 4)).astype(np.float32)
    assert np.array_equal(gap1.backward(g), gap2.backward(g)[:, 0])


@pytest.mark.parametrize("make, message", [
    # Trained to loss [nan, nan] before: the pool's window outgrew its input.
    (lambda: Sequential([Conv1D(4, 3), MaxPool1D(8), GlobalAvgPool1D(), Dense(2)], (5, 2)),
     "MaxPool1D with kernel/pool size (8,) on input (5, 4)"),
    # Built an output shape of (-1, -1, 4) before.
    (lambda: Sequential([Conv2D(4, 5, padding="valid")], (3, 3, 1)),
     "Conv2D with kernel/pool size (5, 5) on input (3, 3, 1)"),
    # Built MaxPool2D -> (0, 0, 32), and the fit died in an unrelated reshape.
    (lambda: ARCHITECTURES["cifar_cnn"]((3, 3, 3), 2),
     "MaxPool2D with kernel/pool size (2, 2) on input (1, 1, 32)"),
], ids=["maxpool1d", "conv2d_valid", "cifar_cnn"])
def test_an_empty_output_extent_is_refused_at_build(make, message):
    with pytest.raises(ValueError, match=re.escape(message) + ".* empty output"):
        make()


def test_a_spatial_layer_refuses_input_of_another_rank():
    for layer, shape in ((Conv1D(4, 3), (5, 5, 2)), (MaxPool2D(2), (8, 2)),
                         (GlobalAvgPool1D(), (4, 4, 2))):
        with pytest.raises(ValueError, match=f"{layer.name} expects"):
            Sequential([layer], shape)
