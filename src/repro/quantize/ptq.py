"""Post-training quantization: float32 Graph -> int8 (or mixed) Graph.

One builder serves every request.  Each op runs in one of two domains —
quantized (int8 activations; weights int8 or int4) or float — and a
``precision_map`` ({weighted-layer index -> "int8" | "int4" | "f32"})
picks the domain per weighted layer: int4 layers pack weights
two-per-byte with per-channel scales (activations stay int8 and run the
exact int8 kernels), f32 layers keep float weights, and QUANTIZE /
DEQUANTIZE boundary ops are inserted wherever adjacent layers disagree
on domain.  No map — or one that only says int8 — is simply "every
weighted layer int8": no boundary is ever needed and the result is the
uniform int8 graph.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ops import (
    SAME_QPARAMS_OPS,
    WEIGHTED_OPS,
    GOp,
    GTensor,
    QuantParams,
)
from repro.quantize.calibrate import ActivationStats, calibrate_activations
from repro.quantize.fixedpoint import quantize_multiplier

#: Softmax output is fixed at scale 1/256, zero point -128 (TFLite convention)
#: so probabilities use the full int8 range.
SOFTMAX_SCALE = 1.0 / 256.0
SOFTMAX_ZP = -128

#: Weighted-layer precisions a precision map may assign.
PRECISIONS = ("int8", "int4", "f32")


def _activation_qparams(lo: float, hi: float) -> QuantParams:
    scale = (hi - lo) / 255.0
    zp = int(round(-128 - lo / scale))
    return QuantParams(scale=np.array([scale]), zero_point=int(np.clip(zp, -128, 127)))


def _quantize_weights(
    opcode: str, w: GTensor, precision: str, per_channel: bool
) -> GTensor:
    """Symmetric weight quantization of one weighted op, int8 or int4.

    int4 is always per-channel; int8 follows ``per_channel`` except for
    dense layers, which stay per-tensor (TFLite).  The output channel is
    the last weight axis — for depthwise weights (KH, KW, C, DM) the
    (C, DM) pair, with scales stored flattened to C*DM so they line up
    with the bias / requant-multiplier vectors.  int4 values are stored
    int8-valued in [-8, 7]; packing happens at serialisation.
    """
    qmax = 7 if precision == "int4" else 127
    per_channel = precision == "int4" or (
        per_channel and opcode != "FULLY_CONNECTED"
    )
    depthwise = opcode == "DEPTHWISE_CONV_2D"
    if per_channel:
        axes = (0, 1) if depthwise else tuple(range(w.data.ndim - 1))
        scale = np.maximum(np.abs(w.data).max(axis=axes), 1e-9) / float(qmax)
        if precision == "int8" and not depthwise:
            # int8 conv/dense round a float64 quotient, depthwise and int4
            # a float32 one (about one weight per million lands on the
            # other side of .5); kept so re-quantizing reproduces old bytes.
            scale = scale.astype(np.float64)
    else:
        scale = np.array([max(float(np.abs(w.data).max()), 1e-9) / qmax])
    data = np.clip(np.round(w.data / scale), -qmax - 1, qmax).astype(np.int8)
    quant = QuantParams(
        scale=scale.reshape(-1), zero_point=0, per_channel=per_channel
    )
    return GTensor(w.name, w.shape, precision, data=data, quant=quant)


def _add_rescale(a_scale: float, b_scale: float, out_scale: float) -> dict:
    """TFLite ADD: rescale both inputs to twice the larger input scale at
    20 fractional bits, sum, then rescale to the output scale."""
    twice_max = 2.0 * max(a_scale, b_scale)
    left_shift = 20
    attrs: dict = {"left_shift": left_shift}
    attrs["mult1"], attrs["shift1"] = quantize_multiplier(a_scale / twice_max)
    attrs["mult2"], attrs["shift2"] = quantize_multiplier(b_scale / twice_max)
    attrs["out_mult"], attrs["out_shift"] = quantize_multiplier(
        twice_max / ((1 << left_shift) * out_scale)
    )
    return attrs


def _resolve_precision_map(
    graph: Graph, precision_map: dict[int, str] | None
) -> dict[int, str]:
    resolved = {int(k): str(v) for k, v in (precision_map or {}).items()}
    bad = sorted(set(resolved.values()) - set(PRECISIONS))
    if bad:
        raise ValueError(
            f"unknown precision(s) {bad}; expected one of {PRECISIONS}"
        )
    n_weighted = sum(op.opcode in WEIGHTED_OPS for op in graph.ops)
    out_of_range = sorted(k for k in resolved if not 0 <= k < n_weighted)
    if out_of_range:
        raise ValueError(
            f"precision map indexes layers {out_of_range}, but the graph "
            f"has {n_weighted} weighted layer(s)"
        )
    return resolved


def _assign_domains(
    graph: Graph, pmap: dict[int, str]
) -> tuple[list[str], dict[int, str]]:
    """Per-op and per-activation domain: ``"q"`` (quantized) or ``"f"``.

    Weighted ops pick their domain from ``pmap``; every other op inherits
    its activation input's domain.  Ops ahead of the first weighted layer
    inherit from their consumer, and an op with no weighted ancestor or
    descendant at all (a pool/softmax-only graph) is quantized.
    """
    dom_op: list[str | None] = [None] * len(graph.ops)
    dom_t: dict[int, str] = {}
    deferred: list[int] = []
    wi = 0
    for oi, op in enumerate(graph.ops):
        if op.opcode in WEIGHTED_OPS:
            d = "f" if pmap.get(wi, "int8") == "f32" else "q"
            wi += 1
        else:
            x = next(t for t in op.inputs if not graph.tensors[t].is_const)
            d = dom_t.get(x)
            if d is None:
                deferred.append(oi)
        dom_op[oi] = d
        if d is not None:
            for t in op.outputs:
                dom_t[t] = d
    if deferred:
        consumers: dict[int, list[int]] = {}
        for oi, op in enumerate(graph.ops):
            for t in op.inputs:
                consumers.setdefault(t, []).append(oi)
        for oi in reversed(deferred):
            op = graph.ops[oi]
            d = next(
                (dom_op[c] for c in consumers.get(op.outputs[0], ())
                 if dom_op[c] is not None),
                "q",
            )
            dom_op[oi] = d
            for t in op.outputs:
                dom_t[t] = d
    dom_t.setdefault(
        graph.input_id,
        next((dom_op[oi] for oi, op in enumerate(graph.ops)
              if graph.input_id in op.inputs), "q"),
    )
    return dom_op, dom_t


def quantize_graph(
    graph: Graph,
    calibration_data: np.ndarray,
    stats: ActivationStats | None = None,
    per_channel: bool = True,
    precision_map: dict[int, str] | None = None,
) -> Graph:
    """Quantize a float graph using calibration data.

    Per-op requantization multipliers are precomputed here (as Q31
    mantissa/exponent pairs) and stored in op attrs, exactly as a converter
    bakes them into the flatbuffer — the runtime does integer math only.

    ``precision_map`` maps weighted-layer indices (0-based, in execution
    order over conv/dense ops) to ``"int8"``, ``"int4"`` or ``"f32"``;
    unlisted layers default to int8.  The result is named ``<name>_int8``
    when every weighted layer is int8 and ``<name>_mixed`` otherwise.
    """
    pmap = _resolve_precision_map(graph, precision_map)
    if stats is None:
        stats = calibrate_activations(graph, calibration_data)
    dom_op, dom_t = _assign_domains(graph, pmap)

    # -- activation qparams (every activation, both domains: a float-domain
    # tensor still needs qparams if a boundary later quantizes it) --------
    softmax_outs = {
        t for op in graph.ops if op.opcode == "SOFTMAX" for t in op.outputs
    }
    act_q: dict[int, QuantParams] = {}
    for tid, t in enumerate(graph.tensors):
        if t.is_const:
            continue
        if tid in softmax_outs:
            act_q[tid] = QuantParams(
                scale=np.array([SOFTMAX_SCALE]), zero_point=SOFTMAX_ZP
            )
        else:
            act_q[tid] = _activation_qparams(*stats.range_for(tid))
    # Walk in execution order so same-qparams chains propagate.
    for oi, op in enumerate(graph.ops):
        if op.opcode in SAME_QPARAMS_OPS and dom_op[oi] == "q":
            act_q[op.outputs[0]] = act_q[op.inputs[0]]

    # -- clone tensors in their home domain --------------------------------
    uniform = all(v == "int8" for v in pmap.values())
    q = Graph(name=f"{graph.name}_{'int8' if uniform else 'mixed'}")
    q_id: dict[int, int] = {}
    f_id: dict[int, int] = {}
    for tid, t in enumerate(graph.tensors):
        if t.is_const:
            # Weights are quantized below, where the consuming op is known
            # (bias scale depends on the input's scale).  Placeholder clone.
            q.add_tensor(GTensor(t.name, t.shape, t.dtype, data=t.data, quant=None))
        elif dom_t.get(tid, "q") == "q":
            q.add_tensor(GTensor(t.name, t.shape, "int8", quant=act_q[tid]))
            q_id[tid] = tid
        else:
            q.add_tensor(GTensor(t.name, t.shape, "float32"))
            f_id[tid] = tid

    # -- memoized domain boundaries ----------------------------------------
    def to_q(tid: int) -> int:
        if tid not in q_id:
            t = graph.tensors[tid]
            new = q.add_tensor(
                GTensor(f"{t.name}::q", t.shape, "int8", quant=act_q[tid])
            )
            q.add_op(GOp("QUANTIZE", [f_id[tid]], [new], {}))
            q_id[tid] = new
        return q_id[tid]

    def to_f(tid: int) -> int:
        if tid not in f_id:
            t = graph.tensors[tid]
            new = q.add_tensor(GTensor(f"{t.name}::f", t.shape, "float32"))
            q.add_op(GOp("DEQUANTIZE", [q_id[tid]], [new], {}))
            f_id[tid] = new
        return f_id[tid]

    # -- clone ops, quantizing weights per the map -------------------------
    wi = 0
    for oi, op in enumerate(graph.ops):
        attrs = dict(op.attrs)
        into = to_q if dom_op[oi] == "q" else to_f
        inputs = [
            tid if graph.tensors[tid].is_const else into(tid) for tid in op.inputs
        ]
        if op.opcode in WEIGHTED_OPS:
            precision = pmap.get(wi, "int8")
            wi += 1
            if precision != "f32":
                in_id, w_id, b_id = op.inputs
                w = _quantize_weights(
                    op.opcode, graph.tensors[w_id], precision, per_channel
                )
                q.tensors[w_id] = w
                b_tensor = graph.tensors[b_id]
                bias_scale = float(act_q[in_id].scale[0]) * w.quant.scale
                b_int32 = np.round(b_tensor.data / bias_scale).astype(np.int64)
                b_int32 = np.clip(b_int32, -(2**31), 2**31 - 1).astype(np.int32)
                q.tensors[b_id] = GTensor(
                    b_tensor.name, b_tensor.shape, "int32", data=b_int32,
                    quant=QuantParams(
                        scale=bias_scale, zero_point=0,
                        per_channel=w.quant.per_channel,
                    ),
                )
                out_q = act_q[op.outputs[0]]
                out_scale = float(out_q.scale[0])
                mults = [quantize_multiplier(float(s) / out_scale) for s in bias_scale]
                attrs["out_mult"] = [m for m, _ in mults]
                attrs["out_shift"] = [s for _, s in mults]
                attrs.update(_fused_clamp(attrs.get("activation", "none"), out_q))
        elif op.opcode == "ADD" and dom_op[oi] == "q":
            a_id, b_id = op.inputs
            bt = graph.tensors[b_id]
            b_q = act_q[a_id if bt.is_const else b_id]
            if bt.is_const:
                # Zero-constant ADDs (standalone activations) quantize the
                # constant to the input's qparams.
                q.tensors[b_id] = GTensor(
                    bt.name, bt.shape, "int8", data=b_q.quantize(bt.data), quant=b_q
                )
            out_q = act_q[op.outputs[0]]
            attrs.update(_add_rescale(
                float(act_q[a_id].scale[0]), float(b_q.scale[0]),
                float(out_q.scale[0]),
            ))
            attrs.update(_fused_clamp(attrs.get("activation", "none"), out_q))
        q.add_op(GOp(op.opcode, inputs, list(op.outputs), attrs))

    q.input_id = graph.input_id
    q.output_id = graph.output_id
    q.validate()
    return q


def _fused_clamp(activation: str, out_q: QuantParams) -> dict:
    """Turn a fused float activation into int8 clamp bounds."""
    zp = out_q.zero_point
    scale = float(out_q.scale[0])
    if activation == "relu":
        return {"clamp_min": max(-128, zp), "clamp_max": 127}
    if activation == "relu6":
        return {
            "clamp_min": max(-128, zp),
            "clamp_max": min(127, zp + int(round(6.0 / scale))),
        }
    return {"clamp_min": -128, "clamp_max": 127}
