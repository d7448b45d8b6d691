"""The three MLPerf-Tiny-derived benchmark tasks of Sec. 5.1.

``paper_scale_graphs`` builds untrained graphs with the paper's topology and
input sizes — resource estimation (Tables 2 and 4 memory columns) does not
depend on weight values.  ``trained_task`` trains reduced-scale models on
the synthetic-substitute datasets for the accuracy columns; results are
cached per process so every table and bench shares one training run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.impulse import ImageInput, Impulse, TimeSeriesInput
from repro.core.learn_blocks import ClassificationBlock
from repro.data.synthetic import keyword_dataset, person_dataset, texture_dataset
from repro.dsp import ImageBlock, MFCCBlock
from repro.graph import Graph, sequential_to_graph
from repro.nn import TrainingConfig
from repro.nn.architectures import cifar_cnn, ds_cnn, mobilenet_v1
from repro.quantize import quantize_graph
from repro.utils.rng import ensure_rng

TASKS = ("kws", "vww", "ic")


@dataclass
class PaperScaleSpec:
    """Untrained paper-topology graphs + DSP block for profiling."""

    name: str
    float_graph: Graph
    int8_graph: Graph
    dsp_block: object
    raw_shape: tuple[int, ...]


_PAPER_CACHE: dict[str, PaperScaleSpec] = {}


def paper_scale_graphs(task: str) -> PaperScaleSpec:
    """Build (and cache) the paper-scale profiling spec for one task."""
    if task in _PAPER_CACHE:
        return _PAPER_CACHE[task]
    rng = ensure_rng(0)

    if task == "kws":
        # DS-CNN on 49x10 MFCC over 1 s of 16 kHz audio (Sørensen et al.).
        block = MFCCBlock(
            sample_rate=16000, frame_length=0.04, frame_stride=0.02,
            n_filters=40, n_coefficients=10,
        )
        raw_shape = (16000,)
        model = ds_cnn((49, 10), 12, filters=64, n_blocks=4, seed=0)
        calib_shape = (49, 10)
    elif task == "vww":
        # MobileNetV1 alpha=0.25 on 96x96 RGB.
        block = ImageBlock(width=96, height=96, channels=3)
        raw_shape = (96, 96, 3)
        model = mobilenet_v1((96, 96, 3), 2, alpha=0.25, depth=8, seed=0)
        calib_shape = (96, 96, 3)
    elif task == "ic":
        # "Simple CNN" on CIFAR-10-shaped input.
        block = ImageBlock(width=32, height=32, channels=3)
        raw_shape = (32, 32, 3)
        model = cifar_cnn((32, 32, 3), 10, base_filters=16, seed=0)
        calib_shape = (32, 32, 3)
    else:
        raise ValueError(f"unknown task {task!r}; options: {TASKS}")

    float_graph = sequential_to_graph(model, name=task)
    calib = rng.standard_normal((8,) + calib_shape).astype(np.float32)
    int8_graph = quantize_graph(float_graph, calib)
    spec = PaperScaleSpec(task, float_graph, int8_graph, block, raw_shape)
    _PAPER_CACHE[task] = spec
    return spec


@dataclass
class TrainedTask:
    """A trained reduced-scale task bundle for accuracy measurements."""

    name: str
    impulse: Impulse
    label_map: dict[str, int]
    float_graph: Graph
    int8_graph: Graph
    x_test: np.ndarray
    y_test: np.ndarray
    float_accuracy: float
    int8_accuracy: float


_TRAINED_CACHE: dict[tuple, TrainedTask] = {}


def trained_task(task: str, seed: int = 0, samples_per_class: int | None = None) -> TrainedTask:
    """Train (once per process) a reduced-scale model for ``task``."""
    key = (task, seed, samples_per_class)
    if key in _TRAINED_CACHE:
        return _TRAINED_CACHE[key]

    if task == "kws":
        n = samples_per_class or 30
        dataset = keyword_dataset(
            keywords=["yes", "no", "up", "down"], samples_per_class=n,
            sample_rate=8000, include_noise=True, include_unknown=True, seed=seed,
        )
        impulse = Impulse(
            TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                            frequency_hz=8000),
            [MFCCBlock(sample_rate=8000, frame_length=0.02, frame_stride=0.02,
                       n_filters=32, n_coefficients=13)],
            ClassificationBlock(
                architecture="ds_cnn",
                arch_kwargs=dict(filters=24, n_blocks=2),
                training=TrainingConfig(epochs=18, batch_size=16,
                                        learning_rate=3e-3, seed=seed),
            ),
        )
    elif task == "vww":
        n = samples_per_class or 100
        dataset = person_dataset(n_per_class=n, size=64, seed=seed)
        impulse = Impulse(
            ImageInput(width=64, height=64, channels=1),
            [ImageBlock(width=64, height=64, channels=1)],
            ClassificationBlock(
                architecture="mobilenet_v1",
                arch_kwargs=dict(alpha=0.25, depth=4),
                training=TrainingConfig(epochs=8, batch_size=16,
                                        learning_rate=2e-3, seed=seed),
            ),
        )
    elif task == "ic":
        n = samples_per_class or 40
        dataset = texture_dataset(n_per_class=n, size=32, seed=seed)
        impulse = Impulse(
            ImageInput(width=32, height=32, channels=3),
            [ImageBlock(width=32, height=32, channels=3)],
            ClassificationBlock(
                architecture="cifar_cnn",
                arch_kwargs=dict(base_filters=12),
                training=TrainingConfig(epochs=10, batch_size=16,
                                        learning_rate=2e-3, seed=seed),
            ),
        )
    else:
        raise ValueError(f"unknown task {task!r}")

    x_train, y_train, label_map = impulse.features_for_dataset(dataset, "train")
    x_test, y_test, _ = impulse.features_for_dataset(dataset, "test", label_map)
    impulse.learn_block.fit(x_train, y_train, seed=seed)
    model = impulse.learn_block.model

    float_graph = sequential_to_graph(model, name=task)
    int8_graph = quantize_graph(float_graph, x_train[: min(len(x_train), 96)])

    from repro.runtime import EONModel, run_graph

    float_preds = run_graph(float_graph, x_test).argmax(axis=1)
    int8_preds = EONModel(int8_graph).classify(x_test)
    bundle = TrainedTask(
        name=task,
        impulse=impulse,
        label_map=label_map,
        float_graph=float_graph,
        int8_graph=int8_graph,
        x_test=x_test,
        y_test=y_test,
        float_accuracy=float((float_preds == y_test).mean()),
        int8_accuracy=float((int8_preds == y_test).mean()),
    )
    _TRAINED_CACHE[key] = bundle
    return bundle
