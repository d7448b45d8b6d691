"""Optimizers: SGD with momentum and Adam.

State is positional — flat float32 rows in ``params_and_grads()`` order, sized
at the first step — so a step is a dozen ufunc calls however many parameters
there are, a model that *replaces* its arrays (``set_weights``) keeps its moments,
and each element sees a per-parameter update's float32 operations in order.
"""

from __future__ import annotations

import numpy as np


class Optimizer:
    slots = 0  # state rows per parameter element

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)
        self._shapes: list[tuple[int, ...]] | None = None

    def step(self, params_and_grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        shapes = [param.shape for param, _ in params_and_grads]
        if self._shapes is None:
            size = sum(param.size for param, _ in params_and_grads)
            self._shapes, self._state = shapes, np.zeros((self.slots, size), dtype=np.float32)
        elif shapes != self._shapes:
            raise ValueError(
                f"optimizer state was sized for parameters {self._shapes}, "
                f"stepped with {shapes}; use a new optimizer for a new model"
            )
        delta = self._delta(np.concatenate([grad.reshape(-1) for _, grad in params_and_grads]))
        start = 0
        for param, _ in params_and_grads:
            param += delta[start : start + param.size].reshape(param.shape)
            start += param.size

    def _delta(self, grad: np.ndarray) -> np.ndarray:
        """What this step adds to the flattened parameters."""
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with classical momentum."""

    slots = 1

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9):
        super().__init__(learning_rate)
        self.momentum = float(momentum)

    def _delta(self, grad):
        velocity = self._state[0]
        velocity *= self.momentum
        velocity -= self.learning_rate * grad
        return velocity


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    slots = 2

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-7,
    ):
        super().__init__(learning_rate)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self._t = 0

    def _delta(self, grad):
        self._t += 1
        m, v = self._state
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        step = m / (1.0 - self.beta1**self._t)
        step *= -self.learning_rate
        denom = v / (1.0 - self.beta2**self._t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        return step
