"""Operator fusion: exact-GEMM lowering + conv/pool collapse.

Two annotations, both consumed by the plan binder
(``repro.runtime.executor._bind_op``), which keeps the original opcode —
so the TFLM registry check, serialization, and codegen all keep working
— and hands them to the op's plan-bound kernel:

``gemm_exact``
    The int8 contraction (conv im2col / dense) is provably exact in
    float64 BLAS: the plan kernels fold the input zero point into the
    bias and contract uncentered int8 operands, so every partial sum is
    bounded by ``2*K*128*128 + max|bias|``
    (:func:`gemm_accumulator_bound`).  When that bound is below 2**53 —
    the largest integer float64 represents exactly — the pass annotates
    the op and the binder prepares float64 operands: dgemm, ~10x over
    numpy's int64 matmul, bit-identical.

``fused_pool`` / ``fused_pool_kind``
    A conv immediately followed by its only consumer, a pool, collapses
    into one op producing the pool's output.  Max pooling commutes with
    requantization (monotone, per-channel), so the int8 kernel pools the
    accumulators *before* requantizing — pool^2 less requant work.
    Average pooling has its own rounding, so it runs after requantization
    (and float pools simply compose) — same arithmetic as unfused, one
    less tensor materialized.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.runtime.passes.base import GraphPass, consumers, register_pass

#: Largest integer magnitude float64 represents exactly.
_F64_EXACT_BOUND = 2 ** 53

#: conv opcode -> the pool opcodes it can absorb, with the fusion kind.
_POOL_FUSION = {
    "CONV_2D": {"MAX_POOL_2D": "max", "AVG_POOL_2D": "avg"},
    "DEPTHWISE_CONV_2D": {"MAX_POOL_2D": "max", "AVG_POOL_2D": "avg"},
    "CONV_1D": {"MAX_POOL_1D": "max"},
}

_GEMM_OPS = ("CONV_2D", "CONV_1D", "FULLY_CONNECTED")


def gemm_accumulator_bound(w_shape, bias_data) -> int:
    """Worst-case |partial sum| of a zero-point-folded int8 contraction
    with this weight shape: K uncentered products of magnitude <=
    128*128, plus a folded bias of at most ``max|bias| + 128*K*128``."""
    k = int(np.prod(w_shape[:-1]))
    max_bias = int(np.abs(bias_data.astype(np.int64)).max()) if bias_data.size else 0
    return 2 * k * 128 * 128 + max_bias


@register_pass
class FusionPass(GraphPass):
    """Annotate exact-GEMM lowering; collapse conv+pool pairs."""

    name = "fuse"

    def run(self, graph: Graph) -> dict:
        stats = {"gemm_lowered": 0, "pools_fused": 0}
        self._lower_gemm(graph, stats)
        changed = True
        while changed:
            changed = self._fuse_one_pool(graph, stats)
        return stats

    def _lower_gemm(self, graph: Graph, stats: dict) -> None:
        for op in graph.ops:
            if op.opcode not in _GEMM_OPS or op.attrs.get("gemm_exact"):
                continue
            if graph.tensors[op.outputs[0]].dtype != "int8":
                continue
            w, b = graph.tensors[op.inputs[1]], graph.tensors[op.inputs[2]]
            if w.data is None or b.data is None:
                continue
            if gemm_accumulator_bound(w.shape, b.data) < _F64_EXACT_BOUND:
                op.attrs["gemm_exact"] = True
                stats["gemm_lowered"] += 1

    def _fuse_one_pool(self, graph: Graph, stats: dict) -> bool:
        for oi, op in enumerate(graph.ops):
            kinds = _POOL_FUSION.get(op.opcode)
            if kinds is None or "fused_pool" in op.attrs:
                continue
            out_id = op.outputs[0]
            if out_id == graph.output_id:
                continue
            readers = consumers(graph, out_id)
            if len(readers) != 1:
                continue
            pool_op = graph.ops[readers[0]]
            kind = kinds.get(pool_op.opcode)
            if kind is None:
                continue
            op.attrs["fused_pool"] = int(pool_op.attrs["pool_size"])
            op.attrs["fused_pool_kind"] = kind
            op.outputs = [pool_op.outputs[0]]
            del graph.ops[readers[0]]
            stats["pools_fused"] += 1
            return True
        return False
