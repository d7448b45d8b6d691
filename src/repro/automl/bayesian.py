"""Surrogate-model (Bayesian-optimisation-style) search.

The paper's other "future work" search strategy (Eggensperger et al.,
2013).  Configurations are encoded as numeric vectors; an RBF-kernel
regressor over observed accuracies supplies mean + uncertainty, and an
upper-confidence-bound acquisition picks the next candidate from a random
pool.  Deliberately simple — the point is the strategy interface, not
state-of-the-art BO.
"""

from __future__ import annotations

import json

import numpy as np

from repro.automl.tuner import EonTuner, TunerTrial
from repro.utils.rng import ensure_rng


def _encode(dsp_spec: dict, model_spec: dict, vocab: dict[str, int]) -> np.ndarray:
    """Config -> numeric vector: categorical one-hot + normalised scalars."""
    vec = np.zeros(len(vocab) + 8)
    for cat_key in ("type", "architecture"):
        for spec in (dsp_spec, model_spec):
            if cat_key in spec:
                token = f"{cat_key}={spec[cat_key]}"
                if token in vocab:
                    vec[vocab[token]] = 1.0
    numeric = []
    for spec in (dsp_spec, model_spec):
        for key in sorted(spec):
            value = spec[key]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                numeric.append(float(value))
    numeric = numeric[:8]
    scale = np.array([1e-4 if v > 100 else (1.0 if v < 1 else 1e-2) for v in numeric])
    vec[len(vocab) : len(vocab) + len(numeric)] = np.array(numeric) * scale
    return vec


def _build_vocab(space) -> dict[str, int]:
    vocab: dict[str, int] = {}
    for spec in space.all_dsp():
        token = f"type={spec['type']}"
        vocab.setdefault(token, len(vocab))
    for spec in space.all_models():
        token = f"architecture={spec['architecture']}"
        vocab.setdefault(token, len(vocab))
    return vocab


def _rbf_predict(
    x_obs: np.ndarray, y_obs: np.ndarray, x_new: np.ndarray, bandwidth: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Nadaraya-Watson mean + distance-based uncertainty."""
    from scipy.spatial.distance import cdist  # at the point of use: see repro.dsp.mfcc

    d = cdist(x_new, x_obs)
    w = np.exp(-(d**2) / (2 * bandwidth**2))
    norm = w.sum(axis=1, keepdims=True)
    mean = np.where(
        norm > 1e-9, (w @ y_obs[:, None]) / np.maximum(norm, 1e-9), y_obs.mean()
    ).ravel()
    sigma = np.exp(-norm.ravel())  # far from data -> high uncertainty
    return mean, sigma


def surrogate_search(
    tuner: EonTuner,
    n_trials: int = 12,
    n_init: int = 4,
    pool_size: int = 64,
    kappa: float = 1.0,
    seed: int = 0,
) -> list[TunerTrial]:
    """UCB acquisition over an RBF surrogate; falls back to random draws
    until ``n_init`` observations exist."""
    rng = ensure_rng(seed)
    vocab = _build_vocab(tuner.space)
    observed: list[tuple[np.ndarray, float]] = []
    seen: set[str] = set()
    results: list[TunerTrial] = []

    def _draw_unseen() -> tuple[dict, dict] | None:
        for _ in range(50):
            pair = tuner.space.sample(rng)
            key = json.dumps(pair, sort_keys=True)
            if key not in seen:
                seen.add(key)
                return pair
        return None

    for i in range(n_trials):
        if len(observed) < n_init:
            pair = _draw_unseen()
        else:
            pool = [_draw_unseen() for _ in range(pool_size)]
            pool = [p for p in pool if p is not None]
            if not pool:
                break
            x_obs = np.stack([x for x, _ in observed])
            y_obs = np.array([y for _, y in observed])
            x_pool = np.stack([_encode(d, m, vocab) for d, m in pool])
            mean, sigma = _rbf_predict(x_obs, y_obs, x_pool)
            pair = pool[int(np.argmax(mean + kappa * sigma))]
        if pair is None:
            break
        dsp_spec, model_spec = pair
        trial = tuner.evaluate_config(dsp_spec, model_spec, seed=seed + i)
        trial.extra["strategy"] = "surrogate"
        results.append(trial)
        if trial.trained and trial.accuracy is not None:
            observed.append((_encode(dsp_spec, model_spec, vocab), trial.accuracy))
    return results
