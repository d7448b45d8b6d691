"""DSP autotune heuristics."""

import numpy as np
import pytest

from repro.dsp import MFCCBlock, MFEBlock, SpectralAnalysisBlock, autotune_dsp


def _tone_windows(freq, rate, n=4):
    t = np.arange(rate) / rate
    rng = np.random.default_rng(0)
    return [
        (np.sin(2 * np.pi * freq * t) + 0.05 * rng.standard_normal(rate)).astype(
            np.float32
        )
        for _ in range(n)
    ]


def test_autotune_mfe_narrows_band_for_lowband_signal():
    low = autotune_dsp("mfe", _tone_windows(400, 8000), 8000)
    wide = autotune_dsp("mfe", _tone_windows(3500, 8000), 8000)
    assert isinstance(low, MFEBlock)
    assert low.high_hz < wide.high_hz
    assert low.n_filters <= wide.n_filters


def test_autotune_mfcc_returns_mfcc():
    block = autotune_dsp("mfcc", _tone_windows(1000, 8000), 8000)
    assert isinstance(block, MFCCBlock)
    assert block.n_coefficients <= block.n_filters


def test_autotune_spectral_sets_fft_and_filter():
    rng = np.random.default_rng(0)
    t = np.arange(256) / 100
    windows = [
        np.stack([np.sin(2 * np.pi * 5 * t)] * 3, axis=1)
        + 0.01 * rng.standard_normal((256, 3))
        for _ in range(3)
    ]
    block = autotune_dsp("spectral-analysis", windows, 100)
    assert isinstance(block, SpectralAnalysisBlock)
    assert block.fft_length & (block.fft_length - 1) == 0  # power of two
    assert block.fft_length <= 256


def test_autotune_unknown_block():
    with pytest.raises(ValueError):
        autotune_dsp("image", [np.zeros(10)], 100)


def test_autotune_spectral_reads_1_axis_windows_whole():
    """A 1-axis ``(n,)`` window tunes like the same data on 3 axes: its
    first axis is all n samples, not the first sample."""
    t = np.arange(200) / 100
    one_axis = [np.sin(2 * np.pi * 5 * t + k).astype(np.float32)
                for k in range(4)]
    three_axes = [np.stack([w] * 3, axis=1) for w in one_axis]
    a = autotune_dsp("spectral-analysis", one_axis, 100)
    b = autotune_dsp("spectral-analysis", three_axes, 100)
    assert a.to_dict() == b.to_dict()
    assert a.filter_cutoff_hz > 5.0
