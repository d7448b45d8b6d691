"""Impulse wiring: windowing, feature extraction, serialization, render."""

import numpy as np
import pytest

from repro.core import ClassificationBlock, ImageInput, Impulse, TimeSeriesInput
from repro.core.learn_blocks import AnomalyBlock
from repro.data.dataset import Dataset, Sample
from repro.dsp import MFEBlock, RawBlock, SpectralAnalysisBlock, extract_features


def test_time_series_windowing():
    block = TimeSeriesInput(window_size_ms=1000, window_increase_ms=500,
                            frequency_hz=100)
    series = np.arange(250, dtype=np.float32)
    windows = block.windows(series)
    assert windows.shape == (4, 100)
    assert np.array_equal(windows[1], series[50:150])


def test_short_sample_zero_padded():
    block = TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                            frequency_hz=100)
    windows = block.windows(np.ones(40, dtype=np.float32))
    assert windows.shape == (1, 100)
    assert windows[0, 50] == 0.0


def test_multi_axis_windowing():
    block = TimeSeriesInput(window_size_ms=500, window_increase_ms=500,
                            frequency_hz=100, axes=3)
    data = np.zeros((120, 3), dtype=np.float32)
    assert block.windows(data).shape == (2, 50, 3)
    with pytest.raises(ValueError):
        block.windows(np.zeros(120, dtype=np.float32))


def test_image_input():
    block = ImageInput(width=16, height=16, channels=1)
    out = block.windows(np.zeros((16, 16), dtype=np.float32))
    assert out.shape == (1, 16, 16, 1)


def test_feature_shape_single_block():
    imp = Impulse(
        TimeSeriesInput(window_size_ms=1000, frequency_hz=8000),
        [MFEBlock(sample_rate=8000, n_filters=20)],
        ClassificationBlock(),
    )
    shape = imp.feature_shape()
    assert shape[1] == 20


def test_multi_dsp_blocks_concatenate():
    imp = Impulse(
        TimeSeriesInput(window_size_ms=1000, frequency_hz=100, axes=3),
        [SpectralAnalysisBlock(sample_rate=100), RawBlock()],
        AnomalyBlock(),
    )
    shape = imp.feature_shape()
    spectral = SpectralAnalysisBlock(sample_rate=100)
    expected = 3 * spectral.features_per_axis + 100 * 3
    assert shape == (expected,)
    window = np.random.default_rng(0).standard_normal((100, 3)).astype(np.float32)
    assert extract_features(imp.dsp_blocks, window[None])[0].shape == (expected,)


def test_features_for_dataset_label_map_stability():
    ds = Dataset()
    rng = np.random.default_rng(0)
    for label in ("b", "a"):
        for _ in range(3):
            ds.add(Sample(data=rng.standard_normal(100).astype(np.float32),
                          label=label), category="train")
    imp = Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=100),
        [RawBlock()],
        ClassificationBlock(),
    )
    x, y, lm = imp.features_for_dataset(ds, "train")
    assert lm == {"a": 0, "b": 1}
    assert x.shape[0] == 6
    # Passing the map back keeps indices stable.
    _, y2, lm2 = imp.features_for_dataset(ds, "train", label_map=lm)
    assert lm2 == lm


def test_impulse_spec_roundtrip():
    imp = Impulse(
        TimeSeriesInput(window_size_ms=500, window_increase_ms=250,
                        frequency_hz=8000),
        [MFEBlock(sample_rate=8000, n_filters=24)],
        ClassificationBlock(architecture="conv1d_stack",
                            arch_kwargs={"n_layers": 2}),
    )
    clone = Impulse.from_dict(imp.to_dict())
    assert clone.input_block.window_size_ms == 500
    assert clone.dsp_blocks[0].n_filters == 24
    assert clone.learn_block.architecture == "conv1d_stack"
    assert clone.feature_shape() == imp.feature_shape()


def test_render_shows_dataflow():
    imp = Impulse(
        TimeSeriesInput(frequency_hz=8000),
        [MFEBlock(sample_rate=8000)],
        ClassificationBlock(),
    )
    text = imp.render()
    assert text.startswith("[Time series data]")
    assert "-->" in text


def test_empty_dsp_rejected():
    with pytest.raises(ValueError):
        Impulse(TimeSeriesInput(), [], ClassificationBlock())
