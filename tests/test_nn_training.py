"""Trainer behaviour: convergence, the paper's stability features
(checkpoint restore, bias init, LR finder), optimizers, save/load."""

import io

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    CrossEntropyFromLogits,
    Dense,
    MeanSquaredError,
    ReLU,
    Sequential,
    Trainer,
    TrainingConfig,
    find_learning_rate,
)
from repro.nn.architectures import ARCHITECTURES, mlp


def _linear_problem(n=300, d=8, k=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)).astype(np.float32)
    w = rng.standard_normal((d, k))
    return x, (x @ w).argmax(axis=1)


def test_training_converges():
    x, y = _linear_problem()
    model = mlp((8,), 3, hidden=(16,), seed=0)
    history = Trainer(model).fit(
        x, y, TrainingConfig(epochs=25, batch_size=32, learning_rate=0.01, seed=1)
    )
    assert history.val_accuracy[-1] > 0.75
    assert history.train_loss[-1] < history.train_loss[0]


def test_best_checkpoint_restoration():
    """After restore, the model's val loss equals the best epoch's."""
    x, y = _linear_problem(seed=3)
    model = mlp((8,), 3, hidden=(8,), seed=0)
    trainer = Trainer(model)
    cfg = TrainingConfig(epochs=12, batch_size=32, learning_rate=0.05, seed=2)
    history = trainer.fit(x, y, cfg)
    assert history.restored_best
    assert history.best_epoch >= 0
    # best_epoch's recorded val loss is the minimum of the curve.
    assert history.val_loss[history.best_epoch] == pytest.approx(min(history.val_loss))


def test_early_stopping_cuts_epochs():
    x, y = _linear_problem(seed=4)
    model = mlp((8,), 3, hidden=(8,), seed=0)
    history = Trainer(model).fit(
        x, y,
        TrainingConfig(epochs=60, batch_size=32, learning_rate=0.02,
                       early_stop_patience=3, seed=0),
    )
    assert len(history.train_loss) < 60


def test_classifier_bias_initialisation():
    """With log-prior bias init, the initial loss matches prior entropy."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 6)).astype(np.float32)
    y = np.array([0] * 180 + [1] * 20)  # 90/10 imbalance
    model = mlp((6,), 2, hidden=(), seed=0)
    priors = np.bincount(y) / len(y)
    model.init_classifier_bias(priors)
    loss_fn = CrossEntropyFromLogits()
    loss, _ = loss_fn(model.predict(x), y)
    prior_entropy = -(priors * np.log(priors)).sum()
    assert abs(loss - prior_entropy) < 0.25


def test_lr_finder_returns_usable_rate():
    x, y = _linear_problem(seed=5)
    model = mlp((8,), 3, hidden=(8,), seed=0)
    saved = model.get_weights()
    lr, curve = find_learning_rate(model, x, y, steps=12, seed=0)
    assert 1e-6 < lr < 1.0
    assert len(curve) >= 3
    # The finder must not mutate the model.
    for a, b in zip(saved, model.get_weights()):
        assert np.array_equal(a, b)


def test_sgd_and_adam_reduce_loss():
    x, y = _linear_problem(seed=6)
    for optimizer in (SGD(learning_rate=0.05), Adam(learning_rate=0.01)):
        model = mlp((8,), 3, hidden=(8,), seed=0)
        history = Trainer(model, optimizer=optimizer).fit(
            x, y, TrainingConfig(epochs=8, batch_size=32, seed=0)
        )
        assert history.train_loss[-1] < history.train_loss[0]


def test_mse_loss_gradient():
    loss = MeanSquaredError()
    pred = np.array([[1.0, 2.0]], dtype=np.float32)
    target = np.array([[0.0, 0.0]], dtype=np.float32)
    value, grad = loss(pred, target)
    assert value == pytest.approx(2.5)
    assert np.allclose(grad, pred)  # d/dp mean((p-t)^2) = 2(p-t)/n = p here


def test_weight_save_load_roundtrip():
    model = mlp((8,), 3, hidden=(8, 4), seed=0)
    buf = io.BytesIO()
    model.save_weights(buf)
    clone = mlp((8,), 3, hidden=(8, 4), seed=99)
    buf.seek(0)
    clone.load_weights(buf)
    x = np.random.default_rng(0).standard_normal((5, 8)).astype(np.float32)
    assert np.allclose(model.predict(x), clone.predict(x))


def test_set_weights_shape_mismatch():
    model = Sequential([Dense(4), ReLU(), Dense(2)], (6,), seed=0)
    weights = model.get_weights()
    weights[0] = weights[0][:, :2]
    with pytest.raises(ValueError):
        model.set_weights(weights)


def test_evaluate_reports_accuracy():
    x, y = _linear_problem(seed=7)
    model = mlp((8,), 3, hidden=(16,), seed=0)
    trainer = Trainer(model)
    trainer.fit(x, y, TrainingConfig(epochs=20, batch_size=32, learning_rate=0.01, seed=0))
    metrics = trainer.evaluate(x, y)
    assert metrics["accuracy"] > 0.8
    assert metrics["loss"] > 0


@pytest.mark.parametrize("make_optimizer", [Adam, lambda: SGD(learning_rate=0.05)])
def test_optimizer_state_survives_replaced_parameter_arrays(make_optimizer):
    """``set_weights`` replaces every parameter array.  State keyed by
    ``id(param)`` restarted its moments there (and could inherit a freed
    array's slot); positional state carries on as if nothing happened."""
    x, y = _linear_problem(seed=8)
    cfg = TrainingConfig(epochs=2, batch_size=32, learning_rate=0.01, seed=0,
                         restore_best=False, init_bias_to_priors=False)

    def two_fits(replace_between):
        model = mlp((8,), 3, hidden=(8,), seed=0)
        trainer = Trainer(model, optimizer=make_optimizer())
        trainer.fit(x, y, cfg)
        steps = getattr(trainer.optimizer, "_t", None)
        state = trainer.optimizer._state.copy()
        assert state.any() and state.dtype == np.float32
        if replace_between:
            model.set_weights(model.get_weights())
            assert np.array_equal(trainer.optimizer._state, state)
        trainer.fit(x, y, cfg)
        if steps is not None:
            assert steps == 2 * 8 and trainer.optimizer._t == 2 * steps
        return model.get_weights()

    for a, b in zip(two_fits(True), two_fits(False), strict=True):
        assert np.array_equal(a, b)


def test_optimizer_refuses_parameters_of_other_shapes():
    x, y = _linear_problem(seed=9)
    optimizer = Adam()
    for hidden, ok in (((8,), True), ((8,), True), ((6,), False)):
        model = mlp((8,), 3, hidden=hidden, seed=0)
        _, grad = CrossEntropyFromLogits()(model.forward(x[:16], training=True), y[:16])
        model.backward(grad)
        before = model.get_weights()
        if ok:
            optimizer.step(model.params_and_grads())
            continue
        with pytest.raises(ValueError, match="sized for parameters"):
            optimizer.step(model.params_and_grads())
        assert optimizer._t == 2
        for a, b in zip(before, model.get_weights(), strict=True):
            assert np.array_equal(a, b)


def test_predict_on_an_empty_batch_is_float32():
    model = mlp((8,), 3, hidden=(4,), seed=0)
    empty = np.zeros((0, 8))
    assert model.predict(np.zeros((2, 8))).dtype == np.float32
    for method, shape in ((model.predict, (0, 3)), (model.predict_proba, (0, 3)),
                          (model.predict_classes, (0,))):
        out = method(empty)
        assert out.shape == shape
        assert out.dtype == (np.int64 if method == model.predict_classes else np.float32)


@pytest.mark.parametrize("arch, shape, kwargs", [
    ("conv1d_stack", (20, 5), dict(n_layers=2, first_filters=4, last_filters=8)),
    ("ds_cnn", (12, 6), dict(filters=8, n_blocks=1)),
    ("cifar_cnn", (9, 9, 2), dict(base_filters=2)),
])
def test_fit_leaves_no_per_batch_cache_on_the_model(arch, shape, kwargs):
    """A learn block's model lives as long as its project; what a layer
    cached for ``backward`` on the last batch must not."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((24,) + shape).astype(np.float32)
    model = ARCHITECTURES[arch](shape, 3, seed=0, **kwargs)
    model.forward(x[:4], training=True)
    assert any(isinstance(v, np.ndarray) and k.startswith("_")
               for layer in model.walk_layers() for k, v in vars(layer).items())
    Trainer(model).fit(x, np.arange(24) % 3, TrainingConfig(epochs=1, batch_size=8))
    for layer in model.walk_layers():
        kept = {id(a) for a in (*layer.params.values(), *layer.grads.values())}
        kept |= {id(getattr(layer, n, None)) for n in ("running_mean", "running_var")}
        for name, value in vars(layer).items():
            assert not isinstance(value, np.ndarray) or id(value) in kept, (layer.name, name)
    assert model.predict(x).shape == (24, 3)
