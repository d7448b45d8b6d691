"""repro.compress — mixed-precision quantization + structured pruning.

A compression spec is a flat ``str -> str|float`` mapping using the
weighted-layer index space shared by the pruner and the quantizer:

- ``"compress.precision.<layer>"``: ``"int8" | "int4" | "f32"`` weight
  precision for that layer (others default to int8);
- ``"compress.sparsity.<layer>"``: target output-channel sparsity in
  [0, 1) — channels are physically removed, not masked.

Flat string keys survive JSON round-trips unchanged, so specs ride
inside tuner ``model_spec`` dicts through worker-process frames and
trial serialization without special handling.

:func:`apply_compression` is the single entry point: prune first (on
the float graph), then post-training-quantize with the precision map.
An empty spec — or one whose every precision is ``"int8"`` and every
sparsity 0 — yields the uniform-int8 graph byte for byte, so
compression is strictly opt-in.

Searching over specs is an ordinary EON Tuner sweep whose space is a
:class:`repro.automl.CompressionSpace` (see ``EonTuner.compression_space``).
"""

from __future__ import annotations

import numpy as np

from repro.compress.prune import (
    UnsupportedPruning,
    channel_norms,
    keep_mask,
    prunable_layers,
    prune_graph,
    weighted_ops,
)
from repro.graph.graph import Graph
from repro.quantize.ptq import PRECISIONS, quantize_graph

PRECISION_KEY = "compress.precision."
SPARSITY_KEY = "compress.sparsity."


def split_spec(spec: dict) -> tuple[dict[int, str], dict[int, float]]:
    """Parse a flat compression spec into (precision_map, sparsity_map).

    Unknown ``compress.*`` keys raise ValueError; non-compress keys are
    rejected too — callers should pre-filter with
    ``k.startswith("compress.")``.
    """
    precision: dict[int, str] = {}
    sparsity: dict[int, float] = {}
    for key, value in spec.items():
        if key.startswith(PRECISION_KEY):
            layer = int(key[len(PRECISION_KEY):])
            if value not in PRECISIONS:
                raise ValueError(
                    f"{key}={value!r}: precision must be one of {PRECISIONS}"
                )
            precision[layer] = str(value)
        elif key.startswith(SPARSITY_KEY):
            layer = int(key[len(SPARSITY_KEY):])
            s = float(value)
            if not 0.0 <= s < 1.0:
                raise ValueError(f"{key}={value!r}: sparsity must be in [0, 1)")
            sparsity[layer] = s
        else:
            raise ValueError(f"unrecognized compression key {key!r}")
    return precision, sparsity


def apply_compression(
    graph: Graph,
    spec: dict,
    calibration_data: np.ndarray,
    per_channel: bool = True,
) -> Graph:
    """Prune then quantize a float graph according to a flat spec.

    Always quantizes: with no ``compress.precision.*`` keys (or only
    int8 ones) the result is the uniform-int8 graph, byte for byte.
    """
    precision, sparsity = split_spec(spec)
    if any(s > 0.0 for s in sparsity.values()):
        graph = prune_graph(graph, sparsity)
    return quantize_graph(
        graph,
        calibration_data,
        per_channel=per_channel,
        precision_map=precision,
    )


__all__ = [
    "PRECISION_KEY",
    "SPARSITY_KEY",
    "UnsupportedPruning",
    "apply_compression",
    "channel_norms",
    "keep_mask",
    "prunable_layers",
    "prune_graph",
    "split_spec",
    "weighted_ops",
]
