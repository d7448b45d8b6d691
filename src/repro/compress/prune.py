"""Structured (channel) pruning: physically shrink conv/dense tensors.

Magnitude-based: for each pruned layer the output channels with the
smallest L2 weight norm are removed — weights, bias, and the output
activation tensor all shrink, and every downstream consumer is rewired
(its input-channel weight axis sliced, pool/reshape/GAP shapes
recomputed) so the result is a smaller graph that verifies clean, not a
masked one that merely multiplies by zero.

Layer indices here are *weighted-layer* indices — 0-based over
conv/dense ops in execution order — the same numbering
``repro.quantize.ptq.quantize_graph``'s ``precision_map`` uses, so a
joint compression spec addresses both with one index space.

Not every layer is prunable: depthwise convs can't drop output channels
independently of their input, the final classifier sets the class
count, and a channel mask that would reach an ADD (residual join) or
TRANSPOSE is rejected rather than miscompiled.  :func:`prunable_layers`
reports the safe set; :func:`prune_graph` raises
:class:`UnsupportedPruning` on anything outside it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ops import WEIGHTED_OPS, GOp, GTensor

#: Ops that carry a last-axis channel mask through unchanged.
_PASS_THROUGH = (
    "MAX_POOL_2D", "MAX_POOL_1D", "AVG_POOL_2D",
    "GLOBAL_AVG_POOL_2D", "GLOBAL_AVG_POOL_1D", "SOFTMAX",
    "QUANTIZE", "DEQUANTIZE",
)


class UnsupportedPruning(ValueError):
    """The requested channel mask cannot be rewired through the graph."""


def weighted_ops(graph: Graph) -> list[int]:
    """Op indices of weighted layers, in weighted-layer-index order."""
    return [oi for oi, op in enumerate(graph.ops) if op.opcode in WEIGHTED_OPS]


def channel_norms(graph: Graph, layer: int) -> np.ndarray:
    """Per-output-channel L2 norms of one weighted layer's weights."""
    oi = weighted_ops(graph)[layer]
    op = graph.ops[oi]
    w = graph.tensors[op.inputs[1]].data
    if op.opcode == "DEPTHWISE_CONV_2D":
        # (KH, KW, C, DM): the (C, DM) pair is the output channel.
        return np.sqrt((w.astype(np.float64) ** 2).sum(axis=(0, 1))).reshape(-1)
    axes = tuple(range(w.ndim - 1))
    return np.sqrt((w.astype(np.float64) ** 2).sum(axis=axes))


def keep_mask(norms: np.ndarray, sparsity: float, min_channels: int = 1) -> np.ndarray:
    """Boolean keep mask retaining the ``ceil((1 - sparsity) * C)``
    largest-norm channels (at least ``min_channels``).  Ties break on
    channel order, so the mask is deterministic."""
    c = len(norms)
    n_keep = int(np.ceil((1.0 - float(sparsity)) * c))
    n_keep = max(min_channels, min(c, n_keep))
    order = np.argsort(-norms, kind="stable")[:n_keep]
    mask = np.zeros(c, dtype=bool)
    mask[order] = True
    return mask


def _reshape_mask(in_mask: np.ndarray, in_shape, out_shape):
    """Push a last-axis mask through RESHAPE; None means unsupported."""
    if len(out_shape) == 1:
        # Flatten: channels are the fastest-varying axis in C-order, so
        # the flat feature mask tiles the channel mask.
        lead = int(np.prod(in_shape[:-1]))
        return np.tile(in_mask, lead)
    if out_shape[-1] == in_shape[-1]:
        return in_mask  # channel axis preserved
    return None


def prune_graph(
    graph: Graph,
    sparsity_map: dict[int, float],
    min_channels: int = 1,
) -> Graph:
    """Return a physically smaller clone of a float graph.

    ``sparsity_map`` maps weighted-layer indices to target sparsities in
    [0, 1); entries of 0 are no-ops.  Raises :class:`UnsupportedPruning`
    when a mask would reach a residual ADD, a TRANSPOSE, a depthwise
    conv's own output selection, or the graph output (the classifier).
    """
    w_ops = weighted_ops(graph)
    bad = sorted(k for k in sparsity_map if not 0 <= int(k) < len(w_ops))
    if bad:
        raise UnsupportedPruning(
            f"sparsity map indexes layers {bad}, but the graph has "
            f"{len(w_ops)} weighted layer(s)"
        )
    own_mask: dict[int, np.ndarray] = {}
    for layer, s in sparsity_map.items():
        layer = int(layer)
        if not 0.0 <= float(s) < 1.0:
            raise UnsupportedPruning(f"sparsity {s!r} for layer {layer} not in [0, 1)")
        if float(s) == 0.0:
            continue
        oi = w_ops[layer]
        if graph.ops[oi].opcode == "DEPTHWISE_CONV_2D":
            raise UnsupportedPruning(
                f"layer {layer} is depthwise: its output channels are bound "
                f"to its input and cannot be pruned independently"
            )
        mask = keep_mask(channel_norms(graph, layer), float(s), min_channels)
        if not mask.all():
            own_mask[oi] = mask

    new_t = [
        GTensor(t.name, t.shape, t.dtype, data=t.data, quant=t.quant)
        for t in graph.tensors
    ]
    tmask: dict[int, np.ndarray] = {}  # tensor id -> keep mask (orig channels)
    new_ops: list[GOp] = []

    def shrink(tid: int, mask: np.ndarray) -> None:
        tmask[tid] = mask
        t = new_t[tid]
        new_t[tid] = GTensor(
            t.name, t.shape[:-1] + (int(mask.sum()),), t.dtype,
            data=t.data, quant=t.quant,
        )

    for oi, op in enumerate(graph.ops):
        attrs = dict(op.attrs)
        oc = op.opcode
        if oc in WEIGHTED_OPS:
            in_id, w_id, b_id = op.inputs
            in_mask = tmask.get(in_id)
            w = new_t[w_id].data
            b = new_t[b_id].data
            if oc == "DEPTHWISE_CONV_2D":
                if in_mask is not None:
                    dm = w.shape[3]
                    w = w[:, :, in_mask, :]
                    out_mask = np.repeat(in_mask, dm)
                    b = b[out_mask]
                    shrink(op.outputs[0], out_mask)
            else:
                if in_mask is not None:  # Cin is second to last in every weight
                    w = w[..., in_mask, :]
                keep = own_mask.get(oi)
                if keep is not None:
                    w = w[..., keep]
                    b = b[keep]
                    shrink(op.outputs[0], keep)
            if w is not new_t[w_id].data:
                new_t[w_id] = GTensor(
                    new_t[w_id].name, w.shape, new_t[w_id].dtype, data=w
                )
            if b is not new_t[b_id].data:
                new_t[b_id] = GTensor(
                    new_t[b_id].name, b.shape, new_t[b_id].dtype, data=b
                )
        elif oc in _PASS_THROUGH:
            in_mask = tmask.get(op.inputs[0])
            if in_mask is not None:
                shrink(op.outputs[0], in_mask)
        elif oc == "RESHAPE":
            in_mask = tmask.get(op.inputs[0])
            if in_mask is not None:
                out_mask = _reshape_mask(
                    in_mask, graph.tensors[op.inputs[0]].shape,
                    graph.tensors[op.outputs[0]].shape,
                )
                if out_mask is None:
                    raise UnsupportedPruning(
                        f"op {oi} (RESHAPE) folds the pruned channel axis"
                    )
                shrink(op.outputs[0], out_mask)
                attrs["shape"] = list(new_t[op.outputs[0]].shape)
        elif oc == "ADD":
            if any(tmask.get(t) is not None for t in op.inputs):
                raise UnsupportedPruning(
                    f"op {oi} (ADD) joins a pruned branch: residual adds "
                    f"need matching channel sets on both sides"
                )
        elif oc == "TRANSPOSE":
            if tmask.get(op.inputs[0]) is not None:
                raise UnsupportedPruning(
                    f"op {oi} (TRANSPOSE) may move the pruned channel axis"
                )
        new_ops.append(GOp(oc, list(op.inputs), list(op.outputs), attrs))

    if tmask.get(graph.output_id) is not None:
        raise UnsupportedPruning(
            "channel mask reaches the graph output (the classifier layer "
            "sets the class count and cannot be pruned)"
        )

    out = Graph(name=graph.name)
    for t in new_t:
        out.add_tensor(t)
    for op in new_ops:
        out.add_op(op)
    out.input_id = graph.input_id
    out.output_id = graph.output_id
    out.validate()
    return out


def prunable_layers(graph: Graph) -> list[int]:
    """Weighted-layer indices whose output channels prune safely.

    Excludes depthwise convs, the final classifier, and any layer whose
    mask would reach an ADD/TRANSPOSE or the graph output — decided by
    the same propagation rules :func:`prune_graph` enforces, via a dry
    run with a one-channel mask.
    """
    w_ops = weighted_ops(graph)
    safe = []
    for layer, oi in enumerate(w_ops):
        op = graph.ops[oi]
        if op.opcode == "DEPTHWISE_CONV_2D":
            continue
        n_out = graph.tensors[op.inputs[1]].shape[-1]
        if n_out < 2:
            continue
        probe = {layer: 1.0 / n_out}  # drop exactly one channel
        try:
            prune_graph(graph, probe)
        except UnsupportedPruning:
            continue
        safe.append(layer)
    return safe
