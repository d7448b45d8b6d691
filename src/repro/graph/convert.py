"""Convert a trained :class:`repro.nn.Sequential` into a float32 Graph.

Applies the inference-time operator fusions the paper lists under
"Compression and Optimization" (Sec. 4.5):

- BatchNorm folding into the preceding conv / depthwise-conv / dense weights;
- ReLU / ReLU6 fusion into the preceding op's ``activation`` attribute;
- Dropout removal.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ops import GOp, GTensor
from repro.nn import layers as L
from repro.nn.model import Sequential


def _fold_batchnorm(
    bn: L.BatchNorm,
    weight: np.ndarray,
    bias: np.ndarray | None,
    depthwise: bool = False,
):
    """Fold BN statistics into conv/dense weights.

    Conv/dense weights carry output channels on the last axis; depthwise
    weights are ``(KH, KW, C, DM)`` with output channel ``c*DM + d``, so the
    per-output-channel scale is reshaped to ``(C, DM)`` before broadcasting.
    """
    gamma, beta = bn.params["gamma"], bn.params["beta"]
    mean, var = bn.running_mean, bn.running_var
    k = gamma / np.sqrt(var + bn.eps)
    if depthwise:
        folded_w = (weight * k.reshape(weight.shape[-2], weight.shape[-1])).astype(
            np.float32
        )
    else:
        folded_w = (weight * k).astype(np.float32)
    base = bias if bias is not None else 0.0
    folded_b = ((base - mean) * k + beta).astype(np.float32)
    return folded_w, folded_b


class _Builder:
    def __init__(self, graph: Graph):
        self.graph = graph

    def const(self, name: str, data: np.ndarray) -> int:
        return self.graph.add_tensor(
            GTensor(name, tuple(data.shape), "float32", data=data.astype(np.float32))
        )

    def act(self, name: str, shape: tuple[int, ...]) -> int:
        return self.graph.add_tensor(GTensor(name, tuple(shape), "float32"))


def _emit_layers(
    layers: list[L.Layer],
    current: int,
    builder: _Builder,
    prefix: str,
) -> int:
    """Emit ops for a layer list starting from tensor ``current``; returns the
    final tensor id.  Handles BN-fold / activation-fuse peepholes."""
    graph = builder.graph
    i = 0
    n = len(layers)
    while i < n:
        layer = layers[i]
        nxt = layers[i + 1] if i + 1 < n else None
        nxt2 = layers[i + 2] if i + 2 < n else None

        if isinstance(layer, (L.Conv2D, L.DepthwiseConv2D, L.Conv1D, L.Dense)):
            weight = layer.params["W"]
            bias = layer.params.get("b")
            consumed = 1
            if isinstance(nxt, L.BatchNorm):
                weight, bias = _fold_batchnorm(
                    nxt, weight, bias, depthwise=isinstance(layer, L.DepthwiseConv2D)
                )
                consumed = 2
                nxt = nxt2
            activation = "none"
            if isinstance(nxt, L.ReLU):
                activation, consumed = "relu", consumed + 1
            elif isinstance(nxt, L.ReLU6):
                activation, consumed = "relu6", consumed + 1
            if bias is None:
                bias = np.zeros(weight.shape[-1], dtype=np.float32)

            w_id = builder.const(f"{prefix}w{i}", weight)
            b_id = builder.const(f"{prefix}b{i}", bias)
            out_id = builder.act(f"{prefix}t{i}", layer.output_shape)
            attrs = {"activation": activation}
            if isinstance(layer, L.Conv2D):
                opcode = "CONV_2D"
                attrs.update(
                    stride=layer.stride, pad_h=list(layer.pads[0]), pad_w=list(layer.pads[1])
                )
            elif isinstance(layer, L.DepthwiseConv2D):
                opcode = "DEPTHWISE_CONV_2D"
                attrs.update(
                    stride=layer.stride,
                    pad_h=list(layer.pads[0]),
                    pad_w=list(layer.pads[1]),
                    depth_multiplier=layer.depth_multiplier,
                )
            elif isinstance(layer, L.Conv1D):
                opcode = "CONV_1D"
                attrs.update(stride=layer.stride, pad=list(layer.pads[0]))
            else:
                opcode = "FULLY_CONNECTED"
            graph.add_op(GOp(opcode, [current, w_id, b_id], [out_id], attrs))
            current = out_id
            i += consumed
            continue

        if isinstance(layer, L.Residual):
            branch_out = _emit_layers(
                layer.sublayers, current, builder, prefix=f"{prefix}r{i}_"
            )
            out_id = builder.act(f"{prefix}t{i}", layer.output_shape)
            graph.add_op(GOp("ADD", [current, branch_out], [out_id], {"activation": "none"}))
            current = out_id
            i += 1
            continue

        if isinstance(layer, (L.MaxPool2D, L.MaxPool1D, L.AvgPool2D)):
            opcode = {
                L.MaxPool2D: "MAX_POOL_2D",
                L.MaxPool1D: "MAX_POOL_1D",
                L.AvgPool2D: "AVG_POOL_2D",
            }[type(layer)]
            out_id = builder.act(f"{prefix}t{i}", layer.output_shape)
            graph.add_op(GOp(opcode, [current], [out_id], {"pool_size": layer.pool_size}))
            current = out_id
            i += 1
            continue

        if isinstance(layer, (L.GlobalAvgPool2D, L.GlobalAvgPool1D)):
            opcode = (
                "GLOBAL_AVG_POOL_2D"
                if isinstance(layer, L.GlobalAvgPool2D)
                else "GLOBAL_AVG_POOL_1D"
            )
            out_id = builder.act(f"{prefix}t{i}", layer.output_shape)
            graph.add_op(GOp(opcode, [current], [out_id], {}))
            current = out_id
            i += 1
            continue

        if isinstance(layer, (L.Flatten, L.Reshape)):
            out_id = builder.act(f"{prefix}t{i}", layer.output_shape)
            graph.add_op(
                GOp("RESHAPE", [current], [out_id], {"shape": list(layer.output_shape)})
            )
            current = out_id
            i += 1
            continue

        if isinstance(layer, (L.Dropout,)):
            i += 1  # identity at inference
            continue

        if isinstance(layer, (L.ReLU, L.ReLU6)):
            # Unfused standalone activation (rare: after pool/add).  Emit as
            # a zero-weight ADD with fused activation to stay in the op set.
            out_id = builder.act(f"{prefix}t{i}", layer.output_shape)
            zero = builder.const(f"{prefix}z{i}", np.zeros(1, dtype=np.float32))
            act = "relu" if isinstance(layer, L.ReLU) else "relu6"
            graph.add_op(GOp("ADD", [current, zero], [out_id], {"activation": act}))
            current = out_id
            i += 1
            continue

        if isinstance(layer, L.Softmax):
            out_id = builder.act(f"{prefix}t{i}", layer.output_shape)
            graph.add_op(GOp("SOFTMAX", [current], [out_id], {}))
            current = out_id
            i += 1
            continue

        if isinstance(layer, L.BatchNorm):
            # BN not preceded by a weighted layer: fold into an affine ADD.
            raise NotImplementedError(
                "standalone BatchNorm (not after conv/dense) is not supported"
            )

        raise NotImplementedError(f"cannot convert layer {layer.name}")
    return current


def sequential_to_graph(
    model: Sequential, name: str = "model", add_softmax: bool = True
) -> Graph:
    """Convert a trained Sequential into a float32 inference Graph."""
    graph = Graph(name=name)
    builder = _Builder(graph)
    input_id = builder.act("input", model.input_shape)
    graph.input_id = input_id
    current = _emit_layers(model.layers, input_id, builder, prefix="")
    if add_softmax and (not graph.ops or graph.ops[-1].opcode != "SOFTMAX"):
        out_shape = graph.tensors[current].shape
        out_id = builder.act("probabilities", out_shape)
        graph.add_op(GOp("SOFTMAX", [current], [out_id], {}))
        current = out_id
    graph.output_id = current
    graph.validate()
    return graph
