"""Cycle-counting device emulator — the Renode substitute.

Runs a graph through its one compiled plan (what serving executes, so
outputs are bit-identical to serving's) while charging cycles from
the device's cost model op by op, so "measured-on-emulator" latency and
the static estimate agree by construction (the property the paper relies
on when it presents estimator output as early-design-space truth).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dsp.base import DSPBlock, transform_window
from repro.graph.graph import Graph
from repro.profile.devices import DeviceProfile
from repro.profile.latency import LatencyEstimator
from repro.runtime.executor import dequantize_output, run_graph


@dataclass
class EmulationTrace:
    """Per-op cycle ledger from one emulated inference."""

    op_cycles: list[tuple[str, float]] = field(default_factory=list)
    dsp_cycles: float = 0.0

    @property
    def inference_cycles(self) -> float:
        return sum(c for _, c in self.op_cycles)

    @property
    def total_cycles(self) -> float:
        return self.dsp_cycles + self.inference_cycles


class EmulatedDevice:
    """Runs DSP + inference for single samples, counting cycles."""

    def __init__(self, device: DeviceProfile):
        self.device = device
        self._estimator = LatencyEstimator(device)

    def run(
        self,
        graph: Graph,
        sample: np.ndarray,
        dsp_blocks: Sequence[DSPBlock] = (),
        features: np.ndarray | None = None,
    ) -> tuple[np.ndarray, EmulationTrace]:
        """Process one raw sample end to end; returns (probabilities, trace).

        Every block of ``dsp_blocks`` is charged for the raw sample.
        ``features`` lets a caller that already ran them over ``sample``
        supply the result, so the transform is not repeated.
        """
        trace = EmulationTrace()
        raw = np.asarray(sample, dtype=np.float32)
        trace.dsp_cycles = float(
            sum(self._estimator.dsp_cycles(block, raw.shape) for block in dsp_blocks)
        )
        if features is None:
            features = transform_window(dsp_blocks, raw) if dsp_blocks else raw
        trace.op_cycles = [
            (op.opcode, self._estimator.op_cycles(graph, i))
            for i, op in enumerate(graph.ops)
        ]
        probs = dequantize_output(graph, run_graph(graph, np.asarray(features)[None]))[0]
        return probs, trace

    def latency_ms(self, trace: EmulationTrace) -> dict[str, float]:
        d = self.device
        return {
            "dsp_ms": d.ms(trace.dsp_cycles),
            "inference_ms": d.ms(trace.inference_cycles),
            "total_ms": d.ms(trace.total_cycles),
        }
