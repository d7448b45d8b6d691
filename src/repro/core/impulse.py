"""The Impulse: input block -> DSP block(s) -> learn block.

An impulse is the dataflow a user assembles in the Studio (Figure 2).  The
input block slices raw sensor streams into fixed windows; DSP blocks turn
windows into features; the learn block consumes features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.dsp.base import DSPBlock, extract_features, get_dsp_block


@dataclass
class TimeSeriesInput:
    """Windowing config for time-series sensors (audio, accelerometer)."""

    window_size_ms: float = 1000.0
    window_increase_ms: float = 500.0
    frequency_hz: float = 16000.0
    axes: int = 1

    @property
    def window_samples(self) -> int:
        return max(1, int(round(self.window_size_ms * self.frequency_hz / 1000.0)))

    @property
    def stride_samples(self) -> int:
        return max(1, int(round(self.window_increase_ms * self.frequency_hz / 1000.0)))

    def raw_shape(self) -> tuple[int, ...]:
        return (self.window_samples,) if self.axes == 1 else (self.window_samples, self.axes)

    def windows(self, series: np.ndarray) -> np.ndarray:
        """Slice a full recording into overlapping windows.

        A recording shorter than one window is zero-padded to one window —
        matching the Studio behaviour of padding short samples.
        """
        series = np.asarray(series, dtype=np.float32)
        if series.ndim == 1 and self.axes > 1:
            raise ValueError("multi-axis input block got 1-D data")
        length = series.shape[0]
        win, stride = self.window_samples, self.stride_samples
        if length < win:
            pad = [(0, win - length)] + [(0, 0)] * (series.ndim - 1)
            return np.pad(series, pad)[None, ...]
        n = 1 + (length - win) // stride
        return np.stack([series[i * stride : i * stride + win] for i in range(n)])

    def to_dict(self) -> dict:
        return {
            "type": "time-series",
            "window_size_ms": self.window_size_ms,
            "window_increase_ms": self.window_increase_ms,
            "frequency_hz": self.frequency_hz,
            "axes": self.axes,
        }


@dataclass
class ImageInput:
    """Input block for camera data — no windowing, just a shape contract."""

    width: int = 96
    height: int = 96
    channels: int = 1

    def raw_shape(self) -> tuple[int, ...]:
        return (self.height, self.width, self.channels)

    def windows(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image, dtype=np.float32)
        if image.ndim == 2:
            image = image[:, :, None]
        return image[None, ...]

    def to_dict(self) -> dict:
        return {
            "type": "image",
            "width": self.width,
            "height": self.height,
            "channels": self.channels,
        }


class Impulse:
    """Input + DSP + learn dataflow."""

    def __init__(
        self,
        input_block: TimeSeriesInput | ImageInput,
        dsp_blocks: list[DSPBlock],
        learn_block,
    ):
        if not dsp_blocks:
            raise ValueError("an impulse needs at least one DSP block")
        self.input_block = input_block
        self.dsp_blocks = list(dsp_blocks)
        self.learn_block = learn_block

    # -- shapes -----------------------------------------------------------

    def feature_shape(self) -> tuple[int, ...]:
        raw = self.input_block.raw_shape()
        shapes = [b.output_shape(raw) for b in self.dsp_blocks]
        if len(shapes) == 1:
            return shapes[0]
        # Multiple DSP blocks concatenate on flattened features.
        return (sum(int(np.prod(s)) for s in shapes),)

    # -- feature extraction ---------------------------------------------------

    def features_for_dataset(
        self,
        dataset: Dataset,
        category: str | None = None,
        label_map: dict[str, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
        """Feature matrix + integer labels over every window of a dataset."""
        if label_map is None:
            label_map = {lbl: i for i, lbl in enumerate(dataset.labels)}
        xs, ys = [], []
        for sample in dataset.samples(category=category):
            feats = extract_features(self.dsp_blocks, self.input_block.windows(sample.data))
            xs.append(feats)
            ys.extend([label_map[sample.label]] * len(feats))
        if not xs:
            shape = self.feature_shape()
            return np.zeros((0,) + shape, np.float32), np.zeros(0, np.int64), label_map
        return np.concatenate(xs).astype(np.float32), np.asarray(ys, np.int64), label_map

    # -- presentation -----------------------------------------------------------

    def render(self) -> str:
        """ASCII dataflow — the Figure 2 Studio view."""
        input_label = (
            "Time series data"
            if isinstance(self.input_block, TimeSeriesInput)
            else "Image data"
        )
        boxes = [input_label] + [b.describe() for b in self.dsp_blocks]
        boxes.append(self.learn_block.describe())
        boxes.append("Output features")
        return " --> ".join(f"[{b}]" for b in boxes)

    def to_dict(self) -> dict:
        return {
            "input": self.input_block.to_dict(),
            "dsp": [b.to_dict() for b in self.dsp_blocks],
            "learn": self.learn_block.to_dict(),
        }

    @staticmethod
    def from_dict(spec: dict) -> "Impulse":
        from repro.core.learn_blocks import learn_block_from_dict

        in_spec = dict(spec["input"])
        kind = in_spec.pop("type")
        input_block = (
            TimeSeriesInput(**in_spec) if kind == "time-series" else ImageInput(**in_spec)
        )
        dsp = [get_dsp_block(b) for b in spec["dsp"]]
        learn = learn_block_from_dict(spec["learn"])
        return Impulse(input_block, dsp, learn)
