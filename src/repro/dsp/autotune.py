"""DSP autotune (paper Sec. 4.2).

Given a handful of representative windows, pick sensible hyperparameters for
the matching block type — the "sensible defaults + autotune" path the paper
offers novices before they reach for the full EON Tuner.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.base import DSPBlock
from repro.dsp.mfcc import MFCCBlock
from repro.dsp.mfe import MFEBlock
from repro.dsp.spectral import SpectralAnalysisBlock


def _dominant_bandwidth(windows: list[np.ndarray], sample_rate: int) -> float:
    """Frequency below which 95% of the average spectral energy lives."""
    acc = None
    for w in windows:
        spec = np.abs(np.fft.rfft(np.asarray(w, dtype=np.float64).reshape(-1))) ** 2
        acc = spec if acc is None else acc[: len(spec)] + spec[: len(acc)]
    if acc is None or acc.sum() <= 0:
        return sample_rate / 2.0
    cum = np.cumsum(acc) / acc.sum()
    idx = int(np.searchsorted(cum, 0.95))
    return idx * sample_rate / (2.0 * (len(acc) - 1) or 1.0)


def autotune_dsp(
    block_type: str,
    windows: list[np.ndarray],
    sample_rate: int,
) -> DSPBlock:
    """Return a configured block of ``block_type`` tuned to the data.

    Heuristics mirror the production autotuner: audio front-ends size their
    mel band to the occupied bandwidth; the spectral block sizes its FFT to
    the window length and low-passes away out-of-band energy.
    """
    if block_type in ("mfe", "mfcc"):
        bandwidth = _dominant_bandwidth(windows, sample_rate)
        high_hz = float(min(sample_rate / 2.0, max(bandwidth * 1.25, 1000.0)))
        # Narrower band -> fewer filters carry signal; keep 1 filter / ~100 Hz
        # clamped to the usual speech range.
        n_filters = int(np.clip(round(high_hz / 100.0), 20, 40))
        common = dict(
            sample_rate=sample_rate,
            frame_length=0.02,
            frame_stride=0.01,
            n_filters=n_filters,
            high_hz=high_hz,
        )
        if block_type == "mfe":
            return MFEBlock(**common)
        return MFCCBlock(n_coefficients=min(13, n_filters), **common)

    if block_type == "spectral-analysis":
        n = min(int(np.prod(np.asarray(windows[0]).shape[:1])), 1024)
        fft = 1
        while fft * 2 <= n:
            fft *= 2
        # The first axis of each window, whatever its rank: a 1-axis
        # ``(n,)`` window is all of its n samples, not its first one.
        bandwidth = _dominant_bandwidth(
            [np.reshape(w, (len(w), -1))[:, 0] for w in windows], sample_rate
        )
        cutoff = float(min(sample_rate / 2.0, bandwidth * 1.5))
        return SpectralAnalysisBlock(
            sample_rate=sample_rate,
            fft_length=max(fft, 16),
            filter_type="low" if cutoff < sample_rate / 2.0 else "none",
            filter_cutoff_hz=cutoff,
        )

    raise ValueError(f"autotune does not support block type {block_type!r}")
