"""Activation-range calibration over a representative dataset."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.graph import Graph


@dataclass
class ActivationStats:
    """Running min/max per activation tensor id."""

    mins: dict[int, float] = field(default_factory=dict)
    maxs: dict[int, float] = field(default_factory=dict)

    def update(self, tensor_id: int, values: np.ndarray) -> None:
        lo = float(values.min())
        hi = float(values.max())
        self.mins[tensor_id] = min(self.mins.get(tensor_id, lo), lo)
        self.maxs[tensor_id] = max(self.maxs.get(tensor_id, hi), hi)

    def range_for(self, tensor_id: int) -> tuple[float, float]:
        # Quantized ranges must bracket zero so that zero is exactly
        # representable (padding, ReLU cut-offs).
        lo = min(self.mins.get(tensor_id, 0.0), 0.0)
        hi = max(self.maxs.get(tensor_id, 0.0), 0.0)
        if hi - lo < 1e-8:
            hi = lo + 1e-8
        return lo, hi


def calibrate_activations(
    graph: Graph, samples: np.ndarray, batch_size: int = 32
) -> ActivationStats:
    """Run ``samples`` through the float graph recording activation ranges.

    The dispatch path records every authored activation with the same
    float32 kernels a compiled plan binds.  Import of the executor is
    deferred to avoid a circular dependency (runtime imports quantize for
    its int8 kernels).
    """
    from repro.runtime.executor import run_graph_dispatch

    stats = ActivationStats()
    samples = np.asarray(samples, dtype=np.float32)
    for start in range(0, len(samples), batch_size):
        batch = samples[start : start + batch_size]
        activations = run_graph_dispatch(graph, batch, record=True)
        for tid, values in activations.items():
            stats.update(tid, values)
    return stats
