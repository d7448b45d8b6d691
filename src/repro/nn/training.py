"""Training loop with the paper's stability features (Sec. 4.3).

Implements minibatch training with validation tracking, best-model
checkpoint restoration, early stopping, and the learning-rate finder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import CrossEntropyFromLogits
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam, Optimizer
from repro.utils.rng import ensure_rng


@dataclass
class TrainingConfig:
    """Hyperparameters for :class:`Trainer.fit`."""

    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    validation_split: float = 0.2
    restore_best: bool = True  # best-model checkpoint restoration
    early_stop_patience: int | None = None
    init_bias_to_priors: bool = True  # classifier bias initialisation
    shuffle: bool = True
    seed: int = 0
    verbose: bool = False


@dataclass
class History:
    """Per-epoch metrics from one fit call."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1
    restored_best: bool = False


class Trainer:
    """Fits a :class:`Sequential` classifier on ``(X, y_int)`` data."""

    def __init__(
        self,
        model: Sequential,
        optimizer: Optimizer | None = None,
        loss=None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss = loss or CrossEntropyFromLogits()

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        config: TrainingConfig | None = None,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
    ) -> History:
        cfg = config or TrainingConfig()
        rng = ensure_rng(cfg.seed)
        x = np.asarray(x, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)

        if x_val is None and cfg.validation_split > 0 and len(x) >= 5:
            order = rng.permutation(len(x))
            n_val = max(1, int(len(x) * cfg.validation_split))
            val_idx, train_idx = order[:n_val], order[n_val:]
            x_val, y_val = x[val_idx], y[val_idx]
            x, y = x[train_idx], y[train_idx]

        if self.optimizer is None:
            self.optimizer = Adam(learning_rate=cfg.learning_rate)
        else:
            self.optimizer.learning_rate = cfg.learning_rate

        n_classes = self.model.output_shape[-1]
        if cfg.init_bias_to_priors and n_classes > 1:
            priors = np.bincount(y, minlength=n_classes).astype(np.float64) + 1.0
            try:
                self.model.init_classifier_bias(priors)
            except ValueError:
                pass  # model without a biased Dense head

        history = History()
        best_val = np.inf
        best_weights = None
        stale = 0

        for epoch in range(cfg.epochs):
            order = rng.permutation(len(x)) if cfg.shuffle else np.arange(len(x))
            epoch_loss, seen = 0.0, 0
            for start in range(0, len(x), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                xb, yb = x[idx], y[idx]
                logits = self.model.forward(xb, training=True)
                loss, grad = self.loss(logits, yb)
                self.model.backward(grad)
                self.optimizer.step(self.model.params_and_grads())
                epoch_loss += loss * len(idx)
                seen += len(idx)
            history.train_loss.append(epoch_loss / max(seen, 1))

            if x_val is not None and len(x_val):
                val_logits = self.model.predict(x_val)
                val_loss, _ = self.loss(val_logits, y_val)
                val_acc = float((val_logits.argmax(axis=1) == y_val).mean())
                history.val_loss.append(val_loss)
                history.val_accuracy.append(val_acc)
                if cfg.verbose:
                    print(
                        f"epoch {epoch}: loss={history.train_loss[-1]:.4f} "
                        f"val_loss={val_loss:.4f} val_acc={val_acc:.3f}"
                    )
                if val_loss < best_val - 1e-6:
                    best_val = val_loss
                    history.best_epoch = epoch
                    stale = 0
                    if cfg.restore_best:
                        best_weights = self.model.get_weights()
                else:
                    stale += 1
                    if (
                        cfg.early_stop_patience is not None
                        and stale > cfg.early_stop_patience
                    ):
                        break

        if best_weights is not None and cfg.restore_best:
            self.model.set_weights(best_weights)
            history.restored_best = True
        self.model.drop_caches()  # the model outlives the fit; its last batch need not
        return history

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> dict:
        logits = self.model.predict(np.asarray(x, dtype=np.float32))
        loss, _ = self.loss(logits, np.asarray(y, dtype=np.int64))
        acc = float((logits.argmax(axis=1) == y).mean())
        return {"loss": loss, "accuracy": acc}


def find_learning_rate(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    min_lr: float = 1e-5,
    max_lr: float = 1.0,
    steps: int = 30,
    batch_size: int = 32,
    seed: int = 0,
) -> tuple[float, list[tuple[float, float]]]:
    """Exponential learning-rate sweep (the paper's "learning rate finding").

    Runs one minibatch step per candidate LR on a throwaway copy of the
    weights, recording the loss after each step; returns the LR one decade
    below the divergence point (the usual smith-style heuristic) plus the
    full ``(lr, loss)`` curve.
    """
    rng = ensure_rng(seed)
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y, dtype=np.int64)
    saved = model.get_weights()
    loss_fn = CrossEntropyFromLogits()
    lrs = np.geomspace(min_lr, max_lr, steps)
    curve: list[tuple[float, float]] = []
    best_lr, best_drop = float(lrs[0]), -np.inf

    logits = model.predict(x[: min(len(x), 256)])
    base_loss, _ = loss_fn(logits, y[: min(len(y), 256)])

    for lr in lrs:
        model.set_weights(saved)
        opt = Adam(learning_rate=float(lr))
        idx = rng.choice(len(x), size=min(batch_size, len(x)), replace=False)
        out = model.forward(x[idx], training=True)
        loss, grad = loss_fn(out, y[idx])
        model.backward(grad)
        opt.step(model.params_and_grads())
        after_logits = model.predict(x[: min(len(x), 256)])
        after_loss, _ = loss_fn(after_logits, y[: min(len(y), 256)])
        curve.append((float(lr), float(after_loss)))
        if np.isfinite(after_loss):
            drop = base_loss - after_loss
            if drop > best_drop:
                best_drop, best_lr = drop, float(lr)
        else:
            break

    model.set_weights(saved)
    # One decade of safety margin below the steepest-improvement LR.
    return max(best_lr / 10.0, min_lr), curve
