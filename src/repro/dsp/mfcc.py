"""Mel-frequency cepstral coefficient (MFCC) block.

The other audio front-end from Table 3 / Figure 2 — MFE followed by a DCT-II
decorrelation, keeping the first ``n_coefficients`` cepstra.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.base import DSPBlock, OpCounts, register_dsp_block
from repro.dsp.mfe import MFEBlock
from repro.dsp.window import num_frames


@register_dsp_block
class MFCCBlock(DSPBlock):
    """MFCCs over a framed audio window (MFE + orthonormal DCT-II)."""

    block_type = "mfcc"

    def __init__(
        self,
        sample_rate: int = 16000,
        frame_length: float = 0.02,
        frame_stride: float = 0.01,
        n_filters: int = 40,
        n_coefficients: int = 13,
        fft_length: int | None = None,
        window: str = "hann",
        low_hz: float = 0.0,
        high_hz: float | None = None,
    ):
        if n_coefficients > n_filters:
            raise ValueError("n_coefficients cannot exceed n_filters")
        self.n_coefficients = int(n_coefficients)
        self._mfe = MFEBlock(
            sample_rate=sample_rate,
            frame_length=frame_length,
            frame_stride=frame_stride,
            n_filters=n_filters,
            fft_length=fft_length,
            window=window,
            low_hz=low_hz,
            high_hz=high_hz,
        )

    @property
    def sample_rate(self) -> int:
        return self._mfe.sample_rate

    @property
    def frame_length(self) -> float:
        return self._mfe.frame_length

    @property
    def frame_stride(self) -> float:
        return self._mfe.frame_stride

    @property
    def n_filters(self) -> int:
        return self._mfe.n_filters

    def transform(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=np.float32).reshape(-1)
        power = self._mfe._power_spectrogram(window)
        energies = power @ self._mfe._bank.T
        log_e = np.log(np.maximum(energies, 1e-30))
        # Imported at the point of use: ``repro.core`` imports this module
        # into every server and serving worker, few of which run an MFCC.
        import scipy.fft

        cepstra = scipy.fft.dct(log_e, type=2, norm="ortho", axis=1)
        feats = cepstra[:, : self.n_coefficients]
        # Per-feature standardisation constant used by the production block
        # so features land in a quantization-friendly range.
        return (feats / 10.0).astype(np.float32)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        n = num_frames(
            int(np.prod(input_shape)),
            self._mfe.frame_samples,
            self._mfe.stride_samples,
        )
        return (n, self.n_coefficients)

    def op_counts(self, input_shape: tuple[int, ...]) -> OpCounts:
        base = self._mfe.op_counts(input_shape)
        frames = num_frames(
            int(np.prod(input_shape)),
            self._mfe.frame_samples,
            self._mfe.stride_samples,
        )
        dct_macs = 2.0 * self._mfe.n_filters * self.n_coefficients
        return OpCounts(
            flops=base.flops + frames * dct_macs,
            slow_ops=base.slow_ops,
            copies=base.copies,
        )

    def buffer_bytes(self, input_shape: tuple[int, ...]) -> int:
        # MFE scratch plus the DCT basis row buffer.
        return self._mfe.buffer_bytes(input_shape) + 4 * self._mfe.n_filters

    def config(self) -> dict:
        cfg = self._mfe.config()
        cfg.pop("noise_floor_db")
        cfg["n_coefficients"] = self.n_coefficients
        return cfg

    def __repr__(self) -> str:
        return (
            f"MFCC ({self.frame_length:g}, {self.frame_stride:g}, {self.n_filters})"
        )
