"""Cycle-counting device emulator — the Renode substitute.

Runs a graph through its one compiled plan (what serving executes, so
outputs are bit-identical to serving's) while charging cycles from
the device's cost model op by op, so "measured-on-emulator" latency and
the static estimate agree by construction (the property the paper relies
on when it presents estimator output as early-design-space truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.base import DSPBlock
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
        dsp_block: DSPBlock | None = None,
        features: np.ndarray | None = None,
    ) -> tuple[np.ndarray, EmulationTrace]:
        """Process one raw sample end to end; returns (probabilities, trace).

        ``features`` lets a caller that already ran ``dsp_block`` over
        ``sample`` supply the result, so the transform is not repeated;
        DSP cycles are still accounted from the raw sample shape.
        """
        trace = EmulationTrace()
        raw = np.asarray(sample, dtype=np.float32)
        if dsp_block is not None:
            trace.dsp_cycles = self._estimator.dsp_cycles(dsp_block, raw.shape)
            if features is None:
                features = dsp_block.transform(raw)
        elif features is None:
            features = raw
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
