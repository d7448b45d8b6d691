"""DSP block interface and registry.

A block is a pure function from a raw window to a feature tensor, plus the
bookkeeping the rest of the platform needs:

- ``output_shape`` without running the transform (for model input wiring),
- ``op_counts`` (for the latency estimator, Sec. 4.4),
- ``buffer_bytes`` (for the RAM estimator),
- ``config`` round-tripping (for project serialisation and the EON Tuner).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OpCounts:
    """Operation counts for one invocation of a DSP block.

    ``flops`` covers multiply/add-class work (FFT butterflies, filterbank
    MACs); ``slow_ops`` covers transcendental calls (log, exp, sqrt) which
    cost many cycles each on an MCU; ``copies`` counts element moves.
    """

    flops: float = 0.0
    slow_ops: float = 0.0
    copies: float = 0.0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.flops + other.flops,
            self.slow_ops + other.slow_ops,
            self.copies + other.copies,
        )


class DSPBlock(ABC):
    """Base class for preprocessing blocks."""

    #: registry key; subclasses override.
    block_type: str = "base"

    @abstractmethod
    def transform(self, window: np.ndarray) -> np.ndarray:
        """Turn one raw window into a float32 feature tensor."""

    @abstractmethod
    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Feature shape for a raw window of ``input_shape``."""

    @abstractmethod
    def op_counts(self, input_shape: tuple[int, ...]) -> OpCounts:
        """Per-window operation counts for latency estimation."""

    @abstractmethod
    def buffer_bytes(self, input_shape: tuple[int, ...]) -> int:
        """Peak scratch RAM (bytes) the on-device implementation needs."""

    @abstractmethod
    def config(self) -> dict:
        """JSON-serialisable constructor kwargs."""

    # -- shared helpers ----------------------------------------------------

    def describe(self) -> str:
        """One-line summary used by the Studio dataflow renderer (Fig. 2)."""
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.config().items()))
        return f"{self.block_type}({params})"

    def __repr__(self) -> str:
        return self.describe()

    def to_dict(self) -> dict:
        return {"type": self.block_type, "config": self.config()}


_REGISTRY: dict[str, type[DSPBlock]] = {}


def register_dsp_block(cls: type[DSPBlock]) -> type[DSPBlock]:
    """Class decorator adding ``cls`` to the block registry."""
    _REGISTRY[cls.block_type] = cls
    return cls


def get_dsp_block(spec: dict) -> DSPBlock:
    """Instantiate a block from its ``to_dict`` representation."""
    block_type = spec["type"]
    if block_type not in _REGISTRY:
        raise KeyError(
            f"unknown DSP block type {block_type!r}; "
            f"registered: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[block_type](**spec.get("config", {}))


def extract_features(blocks: Sequence[DSPBlock], windows: np.ndarray) -> np.ndarray:
    """The float32 features of a batch of raw windows under a DSP block
    sequence, one row per window: one block's output as it is, several
    blocks' outputs flattened and concatenated in block order.  Each
    block transforms one window at a time."""
    feats = [np.stack([b.transform(w) for w in windows]) for b in blocks]
    if len(feats) > 1:
        feats = [np.concatenate([f.reshape(len(f), -1) for f in feats], axis=1)]
    return feats[0].astype(np.float32, copy=False)
