"""Trained weights are the parent's, to the bit.

``tests/data/train_golden.json`` was recorded by running ``golden_fit`` /
``golden_lr_curve`` below against the *unchanged* c59c8dc tree — the
``np.pad`` + ``np.tensordot`` layers, ``zero_grads()`` before every step
and the ``id(param)``-keyed per-parameter optimizers — before the training
step was lowered (docs/training.md).  Re-record with::

    PYTHONPATH=<c59c8dc checkout>/src python tests/test_nn_train_golden.py

Like the PTQ goldens (``ptq_golden.json``), the digests are a statement
about one numpy + BLAS build: sgemm's summation order is the library's,
so a host with another OpenBLAS may disagree with the file while parent
and change still agree with each other there.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.nn import SGD, Trainer, TrainingConfig, find_learning_rate
from repro.nn.architectures import ARCHITECTURES

GOLDEN_PATH = Path(__file__).parent / "data" / "train_golden.json"

#: name -> (architecture, input shape, kwargs, n samples, config, optimizer)
CASES = {
    # benchmarks/e2e BUILD_IMPULSE: 64 train windows of (50, 13), 160 steps.
    "build_impulse": (
        "conv1d_stack", (50, 13),
        dict(n_layers=3, first_filters=16, last_filters=32), 80,
        TrainingConfig(epochs=20, batch_size=8, learning_rate=5e-3, seed=0), None),
    # Reshape + Conv2D (10x4, stride 2) + DepthwiseConv2D + pointwise + BatchNorm.
    "ds_cnn": (
        "ds_cnn", (25, 10), dict(filters=16, n_blocks=2), 40,
        TrainingConfig(epochs=3, batch_size=8, learning_rate=2e-3, seed=1), None),
    # Conv2D 3x3 + MaxPool2D + AvgPool2D under SGD; 18 % 4 trims the last pool.
    "cifar_cnn_sgd": (
        "cifar_cnn", (18, 18, 3), dict(base_filters=4), 40,
        TrainingConfig(epochs=3, batch_size=8, learning_rate=1e-2, seed=2),
        lambda: SGD(learning_rate=1e-2)),
    # Residual branches, ReLU6, strided depthwise.
    "mobilenet_v2": (
        "mobilenet_v2", (16, 16, 3), dict(alpha=0.35), 24,
        TrainingConfig(epochs=2, batch_size=8, learning_rate=1e-3, seed=3), None),
    # Dense first (its input gradient is the one not computed), odd batch tail.
    "mlp_sgd": (
        "mlp", (12,), dict(hidden=(16, 8)), 50,
        TrainingConfig(epochs=5, batch_size=16, learning_rate=5e-2, seed=4),
        lambda: SGD(learning_rate=5e-2, momentum=0.8)),
}


def _data(input_shape, n, seed):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 3
    x = rng.standard_normal((n, *input_shape)).astype(np.float32)
    return x + y.reshape((n,) + (1,) * len(input_shape)).astype(np.float32), y


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(str(a.dtype).encode() + repr(a.shape).encode() + a.tobytes())
    return sha.hexdigest()


def golden_fit(name: str) -> dict:
    arch, input_shape, kwargs, n, cfg, make_optimizer = CASES[name]
    x, y = _data(input_shape, n, cfg.seed)
    model = ARCHITECTURES[arch](input_shape, 3, seed=cfg.seed, **kwargs)
    optimizer = make_optimizer() if make_optimizer else None
    history = Trainer(model, optimizer=optimizer).fit(x, y, cfg)
    return {
        "weights": _digest(model.get_weights()),
        "train_loss": history.train_loss,
        "val_loss": history.val_loss,
        "best_epoch": history.best_epoch,
    }


def golden_lr_curve() -> dict:
    x, y = _data((30, 6), 48, seed=5)
    model = ARCHITECTURES["conv1d_stack"]((30, 6), 3, n_layers=2, seed=5)
    lr, curve = find_learning_rate(model, x, y, steps=10, batch_size=16, seed=5)
    return {"lr": lr, "curve": [list(point) for point in curve]}


def record() -> dict:
    golden = {name: golden_fit(name) for name in CASES}
    golden["lr_finder"] = golden_lr_curve()
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_trained_weights_and_loss_curves_match_the_parent(name, golden):
    assert golden_fit(name) == golden[name]


def test_lr_finder_returns_the_parents_rate_and_curve(golden):
    """A fresh ``Adam`` per candidate: positional state starts at zero each
    time, as the ``id``-keyed dicts did."""
    assert golden_lr_curve() == golden["lr_finder"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
