"""Latency estimation: graph + DSP blocks -> milliseconds on a device.

Walks the graph charging ``cycles = op_overhead + work * cost`` per op,
where ``work`` is MACs for conv/dense-class ops and elements for the rest.
The same model prices DSP blocks from their
:class:`repro.dsp.base.OpCounts`.  This is the estimator behind the EON
Tuner's latency column (Fig. 3) and the Table 2 reproduction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dsp.base import DSPBlock
from repro.graph.graph import Graph
from repro.graph.ops import op_macs
from repro.profile.devices import DeviceProfile

_CONV_OPS = ("CONV_2D", "DEPTHWISE_CONV_2D", "CONV_1D")


@dataclass(frozen=True)
class LatencyBreakdown:
    """DSP + inference latency (ms), as Table 2 reports them."""

    dsp_ms: float
    inference_ms: float
    overhead_ms: float

    @property
    def total_ms(self) -> float:
        return self.dsp_ms + self.inference_ms + self.overhead_ms


class LatencyEstimator:
    """Prices graphs and DSP blocks on a :class:`DeviceProfile`."""

    #: cycles charged for the classifier-invocation glue that Table 2's
    #: "total" includes beyond DSP + inference.
    INVOKE_OVERHEAD_CYCLES = 150_000

    def __init__(self, device: DeviceProfile):
        self.device = device

    # -- NN graph ---------------------------------------------------------------

    def op_cycles(self, graph: Graph, op_index: int) -> float:
        op = graph.ops[op_index]
        d = self.device
        is_int8 = graph.tensors[op.outputs[0]].dtype == "int8"
        macs = op_macs(op, graph.tensors)
        out_elems = int(np.prod(graph.tensors[op.outputs[0]].shape))

        if op.opcode in _CONV_OPS:
            per_mac = d.cyc_mac_conv_i8 if is_int8 else d.cyc_mac_conv_f32
            if op.opcode == "DEPTHWISE_CONV_2D":
                # Depthwise kernels have worse MAC efficiency than standard
                # conv (less data reuse); both TFLM and CMSIS-NN show ~1.6x.
                per_mac *= 1.6
            work = macs * per_mac
        elif op.opcode == "FULLY_CONNECTED":
            per_mac = d.cyc_mac_fc_i8 if is_int8 else d.cyc_mac_fc_f32
            work = macs * per_mac
        elif op.opcode == "RESHAPE":
            work = 0.0  # buffer aliasing, no copy
        elif op.opcode == "SOFTMAX":
            per = d.dsp_cyc_per_slow_op  # exp per class
            work = out_elems * per
        else:  # pools, ADD
            per = d.cyc_elem_i8 if is_int8 else d.cyc_elem_f32
            work = macs * per
        return d.op_overhead_cycles + work

    def graph_cycles(self, graph: Graph) -> float:
        return sum(self.op_cycles(graph, i) for i in range(len(graph.ops)))

    def inference_ms(self, graph: Graph) -> float:
        return self.device.ms(self.graph_cycles(graph))

    # -- DSP block ----------------------------------------------------------------

    def dsp_cycles(self, block: DSPBlock, input_shape: tuple[int, ...]) -> float:
        counts = block.op_counts(input_shape)
        d = self.device
        return (
            d.dsp_block_overhead_cycles
            + counts.flops * d.dsp_cyc_per_flop
            + counts.slow_ops * d.dsp_cyc_per_slow_op
            + counts.copies * d.dsp_cyc_per_copy
        )

    def dsp_ms(self, block: DSPBlock, input_shape: tuple[int, ...]) -> float:
        return self.device.ms(self.dsp_cycles(block, input_shape))

    # -- end to end -----------------------------------------------------------------

    def end_to_end(
        self,
        graph: Graph,
        dsp_blocks: Sequence[DSPBlock],
        raw_input_shape: tuple[int, ...],
    ) -> LatencyBreakdown:
        """Full Table-2-style breakdown for one classification call: every
        block of the impulse runs over the raw window, then the graph."""
        dsp_cycles = sum(self.dsp_cycles(b, raw_input_shape) for b in dsp_blocks)
        return LatencyBreakdown(
            dsp_ms=self.device.ms(dsp_cycles),
            inference_ms=self.inference_ms(graph),
            overhead_ms=self.device.ms(self.INVOKE_OVERHEAD_CYCLES),
        )
