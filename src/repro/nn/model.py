"""Sequential model container."""

from __future__ import annotations

import io

import numpy as np

from repro.nn.layers import Dense, Layer, Residual
from repro.utils.rng import ensure_rng


class Sequential:
    """An ordered stack of layers with a fixed per-sample input shape."""

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...], seed: int = 0):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        rng = ensure_rng(seed)
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.build(shape, rng)
        self.output_shape = shape
        trainable = [bool(l.params) or isinstance(l, Residual) for l in self.layers]
        self._first_trainable = trainable.index(True) if True in trainable else 0

    # -- inference / training passes ----------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        h = np.asarray(x, dtype=np.float32)
        for layer in self.layers:
            h = layer.forward(h, training=training)
        return h

    def backward(self, grad: np.ndarray) -> None:
        """Assign every parameter gradient.  Stops at the first layer that
        has parameters: nothing reads the gradient of the model's input."""
        g = grad
        for layer in reversed(self.layers[self._first_trainable + 1 :]):
            g = layer.backward(g)
        self.layers[self._first_trainable].backward_params(g)

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Batched forward pass (no training caches)."""
        x = np.asarray(x, dtype=np.float32)
        outs = [np.zeros((0,) + self.output_shape, dtype=np.float32)]  # an empty batch's result
        for start in range(0, len(x), batch_size):
            outs.append(self.forward(x[start : start + batch_size]))
        return np.concatenate(outs, axis=0)

    def predict_proba(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Softmax over the final logits."""
        logits = self.predict(x, batch_size=batch_size)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def predict_classes(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        return self.predict(x, batch_size=batch_size).argmax(axis=-1)

    # -- parameter plumbing ---------------------------------------------------

    def walk_layers(self):
        """Yield all layers depth-first, expanding Residual branches."""
        for layer in self.layers:
            if isinstance(layer, Residual):
                yield layer
                for sub in layer.walk():
                    yield sub
            else:
                yield layer

    def params_and_grads(self) -> list[tuple[np.ndarray, np.ndarray]]:
        pairs = []
        for layer in self.walk_layers():
            for key, param in layer.params.items():
                grad = layer.grads.get(key)
                if grad is not None:
                    pairs.append((param, grad))
        return pairs

    def drop_caches(self) -> None:
        """Forget what the last training pass cached for ``backward``."""
        for layer in self.walk_layers():
            for name, value in list(vars(layer).items()):
                if name.startswith("_") and isinstance(value, np.ndarray):
                    delattr(layer, name)

    def count_params(self) -> int:
        return sum(
            int(p.size) for layer in self.walk_layers() for p in layer.params.values()
        )

    # -- weight (de)serialisation ---------------------------------------------

    def get_weights(self) -> list[np.ndarray]:
        weights = []
        for layer in self.walk_layers():
            for key in sorted(layer.params):
                weights.append(layer.params[key].copy())
            if hasattr(layer, "running_mean"):
                weights.append(layer.running_mean.copy())
                weights.append(layer.running_var.copy())
        return weights

    def set_weights(self, weights: list[np.ndarray]) -> None:
        it = iter(weights)
        for layer in self.walk_layers():
            for key in sorted(layer.params):
                value = next(it)
                if layer.params[key].shape != value.shape:
                    raise ValueError(
                        f"{layer.name}.{key}: shape {layer.params[key].shape} "
                        f"!= stored {value.shape}"
                    )
                layer.params[key] = value.astype(np.float32).copy()
            if hasattr(layer, "running_mean"):
                layer.running_mean = next(it).astype(np.float32).copy()
                layer.running_var = next(it).astype(np.float32).copy()

    def save_weights(self, path_or_buf) -> None:
        weights = self.get_weights()
        np.savez(path_or_buf, **{f"w{i}": w for i, w in enumerate(weights)})

    def load_weights(self, path_or_buf) -> None:
        archive = np.load(path_or_buf)
        self.set_weights([archive[f"w{i}"] for i in range(len(archive.files))])

    def weight_bytes(self) -> bytes:
        """Serialized weights, used for firmware-image size accounting."""
        buf = io.BytesIO()
        self.save_weights(buf)
        return buf.getvalue()

    # -- convenience -----------------------------------------------------------

    def init_classifier_bias(self, class_priors: np.ndarray) -> None:
        """Initialise the final Dense bias to log class priors.

        One of the paper's stability tricks (Sec. 4.3): with imbalanced data
        the initial loss matches the prior entropy instead of exploding.
        """
        final = None
        for layer in self.walk_layers():
            if isinstance(layer, Dense):
                final = layer
        if final is None or "b" not in final.params:
            raise ValueError("model has no biased Dense layer")
        priors = np.asarray(class_priors, dtype=np.float64)
        priors = np.maximum(priors / priors.sum(), 1e-12)
        final.params["b"] = np.log(priors).astype(np.float32)

    def summary(self) -> str:
        lines = [f"Input {self.input_shape}"]
        for layer in self.layers:
            n = sum(int(p.size) for p in layer.params.values())
            if isinstance(layer, Residual):
                n = sum(
                    int(p.size)
                    for sub in [layer, *layer.walk()]
                    for p in sub.params.values()
                )
            lines.append(f"{layer.name:<20} out={layer.output_shape} params={n}")
        lines.append(f"Total params: {self.count_params()}")
        return "\n".join(lines)
