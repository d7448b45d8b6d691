"""Shared fixtures: small, fast artifacts reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def tiny_classification_problem():
    """A small, linearly-learnable (X, y) pair: 3 classes, (16, 8) inputs."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((240, 16, 8)).astype(np.float32)
    templates = rng.standard_normal((3, 16, 8)).astype(np.float32)
    y = np.array([int(np.argmax([(s * t).sum() for t in templates])) for s in x])
    return x, y


@pytest.fixture(scope="session")
def trained_tiny_model(tiny_classification_problem):
    """A trained DS-CNN on the tiny problem — shared by graph/quantize/
    runtime tests so the suite trains it once."""
    from repro.nn import Trainer, TrainingConfig
    from repro.nn.architectures import ds_cnn

    x, y = tiny_classification_problem
    model = ds_cnn((16, 8), 3, filters=16, n_blocks=2, seed=0)
    Trainer(model).fit(
        x, y, TrainingConfig(epochs=10, batch_size=32, learning_rate=3e-3, seed=1)
    )
    return model


@pytest.fixture(scope="session")
def tiny_graphs(trained_tiny_model, tiny_classification_problem):
    """(float_graph, int8_graph) for the trained tiny model."""
    from repro.graph import sequential_to_graph
    from repro.quantize import quantize_graph

    x, _ = tiny_classification_problem
    float_graph = sequential_to_graph(trained_tiny_model, "tiny")
    int8_graph = quantize_graph(float_graph, x[:64])
    return float_graph, int8_graph


@pytest.fixture(scope="session")
def small_keyword_dataset():
    from repro.data.synthetic import keyword_dataset

    return keyword_dataset(
        keywords=["yes", "no"], samples_per_class=12, sample_rate=8000,
        include_noise=True, include_unknown=False, seed=0,
    )


@pytest.fixture
def sample_digest_calls(monkeypatch):
    """A list that grows by one per SHA-256 :mod:`repro.data.dataset`
    starts — i.e. per sample content digest actually computed."""
    import hashlib
    import types

    from repro.data import dataset as dataset_module

    calls = []

    def counting_sha256(*args):
        calls.append(1)
        return hashlib.sha256(*args)

    monkeypatch.setattr(dataset_module, "hashlib",
                        types.SimpleNamespace(sha256=counting_sha256))
    return calls
