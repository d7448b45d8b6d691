"""Per-opcode transfer functions: infer output shape/dtype from inputs.

Each transfer function receives the op and its *declared* input tensors
and returns the facts the op's kernels actually produce — the expected
output shapes and dtypes plus any attribute requirements.  The verifier
compares these against the declared output tensors.

Shape conventions match the runtime kernels (``repro.runtime.kernels``):
tensor shapes are per-sample (no batch dimension), images are HWC,
time series are (T, C), conv weights are (KH, KW, Cin, Cout), depthwise
weights (KH, KW, C, DM), conv1d weights (K, Cin, Cout), dense weights
(F, N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The op-class tables are re-exported for repro.analysis.verify.
from repro.graph.ops import SAME_QPARAMS_OPS, WEIGHTED_OPS, GOp, GTensor

#: Expected (n_inputs, n_outputs) per opcode.
ARITY: dict[str, tuple[int, int]] = {
    "CONV_2D": (3, 1),
    "DEPTHWISE_CONV_2D": (3, 1),
    "CONV_1D": (3, 1),
    "FULLY_CONNECTED": (3, 1),
    "MAX_POOL_2D": (1, 1),
    "MAX_POOL_1D": (1, 1),
    "AVG_POOL_2D": (1, 1),
    "GLOBAL_AVG_POOL_2D": (1, 1),
    "GLOBAL_AVG_POOL_1D": (1, 1),
    "RESHAPE": (1, 1),
    "ADD": (2, 1),
    "SOFTMAX": (1, 1),
    "QUANTIZE": (1, 1),
    "DEQUANTIZE": (1, 1),
    "TRANSPOSE": (1, 1),
}


class InferenceError(ValueError):
    """A transfer function cannot produce facts for this op (bad attrs,
    malformed operand shapes).  The verifier maps these to G012/G013."""


@dataclass(frozen=True)
class OpFacts:
    """What a transfer function derived for one op."""

    out_shapes: tuple[tuple[int, ...], ...]
    out_dtype: str


def _require_attr(op: GOp, key: str):
    try:
        return op.attrs[key]
    except KeyError:
        raise InferenceError(f"missing required attr {key!r}") from None


def _pad_pair(op: GOp, key: str) -> tuple[int, int]:
    value = _require_attr(op, key)
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InferenceError(f"attr {key!r} must be a [before, after] pair")
    return int(value[0]), int(value[1])


def _stride(op: GOp) -> int:
    stride = int(_require_attr(op, "stride"))
    if stride < 1:
        raise InferenceError(f"stride must be >= 1, got {stride}")
    return stride


def _conv_extent(size: int, kernel: int, pad: tuple[int, int], stride: int,
                 axis: str) -> int:
    out = (size + pad[0] + pad[1] - kernel) // stride + 1
    if out < 1:
        raise InferenceError(
            f"kernel ({kernel}) larger than padded {axis} extent ({size}+{pad})"
        )
    return out


def _weighted_dtypes(x: GTensor, w: GTensor, b: GTensor) -> str:
    """Weight/bias dtype rules for conv/dense, returning the out dtype."""
    if x.dtype == "int8":
        if w.dtype not in ("int8", "int4"):
            raise InferenceError(
                f"int8 op expects int8/int4 weights, got {w.dtype}"
            )
        if b.dtype != "int32":
            raise InferenceError(f"int8 op expects int32 bias, got {b.dtype}")
        return "int8"
    if x.dtype == "float32":
        if w.dtype != "float32" or b.dtype != "float32":
            raise InferenceError(
                f"float32 op expects float32 weights/bias, got {w.dtype}/{b.dtype}"
            )
        return "float32"
    raise InferenceError(f"unsupported input dtype {x.dtype!r}")


def _conv2d(op: GOp, ins: list[GTensor]) -> OpFacts:
    x, w, b = ins
    if len(x.shape) != 3:
        raise InferenceError(f"CONV_2D input must be HWC, got {x.shape}")
    if len(w.shape) != 4:
        raise InferenceError(f"CONV_2D weights must be (KH,KW,Cin,Cout), got {w.shape}")
    kh, kw, cin, cout = w.shape
    if x.shape[2] != cin:
        raise InferenceError(
            f"input channels {x.shape[2]} != weight Cin {cin}"
        )
    if b.shape != (cout,):
        raise InferenceError(f"bias shape {b.shape} != ({cout},)")
    stride = _stride(op)
    oh = _conv_extent(x.shape[0], kh, _pad_pair(op, "pad_h"), stride, "height")
    ow = _conv_extent(x.shape[1], kw, _pad_pair(op, "pad_w"), stride, "width")
    return OpFacts(((oh, ow, cout),), _weighted_dtypes(x, w, b))


def _dwconv2d(op: GOp, ins: list[GTensor]) -> OpFacts:
    x, w, b = ins
    if len(x.shape) != 3:
        raise InferenceError(f"DEPTHWISE_CONV_2D input must be HWC, got {x.shape}")
    if len(w.shape) != 4:
        raise InferenceError(
            f"DEPTHWISE_CONV_2D weights must be (KH,KW,C,DM), got {w.shape}"
        )
    kh, kw, c, dm = w.shape
    if x.shape[2] != c:
        raise InferenceError(f"input channels {x.shape[2]} != weight C {c}")
    if b.shape != (c * dm,):
        raise InferenceError(f"bias shape {b.shape} != ({c * dm},)")
    stride = _stride(op)
    oh = _conv_extent(x.shape[0], kh, _pad_pair(op, "pad_h"), stride, "height")
    ow = _conv_extent(x.shape[1], kw, _pad_pair(op, "pad_w"), stride, "width")
    return OpFacts(((oh, ow, c * dm),), _weighted_dtypes(x, w, b))


def _conv1d(op: GOp, ins: list[GTensor]) -> OpFacts:
    x, w, b = ins
    if len(x.shape) != 2:
        raise InferenceError(f"CONV_1D input must be (T,C), got {x.shape}")
    if len(w.shape) != 3:
        raise InferenceError(f"CONV_1D weights must be (K,Cin,Cout), got {w.shape}")
    k, cin, cout = w.shape
    if x.shape[1] != cin:
        raise InferenceError(f"input channels {x.shape[1]} != weight Cin {cin}")
    if b.shape != (cout,):
        raise InferenceError(f"bias shape {b.shape} != ({cout},)")
    ot = _conv_extent(x.shape[0], k, _pad_pair(op, "pad"), _stride(op), "time")
    return OpFacts(((ot, cout),), _weighted_dtypes(x, w, b))


def _fully_connected(op: GOp, ins: list[GTensor]) -> OpFacts:
    x, w, b = ins
    if len(w.shape) != 2:
        raise InferenceError(f"FULLY_CONNECTED weights must be (F,N), got {w.shape}")
    f, n = w.shape
    if not x.shape or x.shape[-1] != f:
        raise InferenceError(f"input features {x.shape} do not end in F={f}")
    if b.shape != (n,):
        raise InferenceError(f"bias shape {b.shape} != ({n},)")
    return OpFacts((x.shape[:-1] + (n,),), _weighted_dtypes(x, w, b))


def _pool2d(op: GOp, ins: list[GTensor]) -> OpFacts:
    (x,) = ins
    if len(x.shape) != 3:
        raise InferenceError(f"{op.opcode} input must be HWC, got {x.shape}")
    pool = int(_require_attr(op, "pool_size"))
    if pool < 1:
        raise InferenceError(f"pool_size must be >= 1, got {pool}")
    oh, ow = x.shape[0] // pool, x.shape[1] // pool
    if oh < 1 or ow < 1:
        raise InferenceError(f"pool {pool} larger than input extent {x.shape[:2]}")
    return OpFacts(((oh, ow, x.shape[2]),), x.dtype)


def _pool1d(op: GOp, ins: list[GTensor]) -> OpFacts:
    (x,) = ins
    if len(x.shape) != 2:
        raise InferenceError(f"{op.opcode} input must be (T,C), got {x.shape}")
    pool = int(_require_attr(op, "pool_size"))
    if pool < 1:
        raise InferenceError(f"pool_size must be >= 1, got {pool}")
    ot = x.shape[0] // pool
    if ot < 1:
        raise InferenceError(f"pool {pool} larger than input extent {x.shape[0]}")
    return OpFacts(((ot, x.shape[1]),), x.dtype)


def _gap2d(op: GOp, ins: list[GTensor]) -> OpFacts:
    (x,) = ins
    if len(x.shape) != 3:
        raise InferenceError(f"{op.opcode} input must be HWC, got {x.shape}")
    return OpFacts(((x.shape[2],),), x.dtype)


def _gap1d(op: GOp, ins: list[GTensor]) -> OpFacts:
    (x,) = ins
    if len(x.shape) != 2:
        raise InferenceError(f"{op.opcode} input must be (T,C), got {x.shape}")
    return OpFacts(((x.shape[1],),), x.dtype)


def _reshape(op: GOp, ins: list[GTensor]) -> OpFacts:
    (x,) = ins
    shape = op.attrs.get("shape")
    if shape is None:
        raise InferenceError("missing required attr 'shape'")
    out_shape = tuple(int(d) for d in shape)
    if int(np.prod(x.shape)) != int(np.prod(out_shape)):
        raise InferenceError(
            f"cannot reshape {x.shape} ({int(np.prod(x.shape))} elems) "
            f"to {out_shape} ({int(np.prod(out_shape))} elems)"
        )
    return OpFacts((out_shape,), x.dtype)


def _add(op: GOp, ins: list[GTensor]) -> OpFacts:
    a, b = ins
    if b.dtype != a.dtype:
        raise InferenceError(f"ADD operand dtypes differ: {a.dtype} vs {b.dtype}")
    try:
        out_shape = tuple(int(d) for d in np.broadcast_shapes(a.shape, b.shape))
    except ValueError:
        raise InferenceError(
            f"ADD operands do not broadcast: {a.shape} vs {b.shape}"
        ) from None
    return OpFacts((out_shape,), a.dtype)


def _softmax(op: GOp, ins: list[GTensor]) -> OpFacts:
    (x,) = ins
    return OpFacts((x.shape,), x.dtype)


def _quantize(op: GOp, ins: list[GTensor]) -> OpFacts:
    (x,) = ins
    if x.dtype != "float32":
        raise InferenceError(f"QUANTIZE input must be float32, got {x.dtype}")
    return OpFacts((x.shape,), "int8")


def _dequantize(op: GOp, ins: list[GTensor]) -> OpFacts:
    (x,) = ins
    if x.dtype != "int8":
        raise InferenceError(f"DEQUANTIZE input must be int8, got {x.dtype}")
    return OpFacts((x.shape,), "float32")


def _transpose(op: GOp, ins: list[GTensor]) -> OpFacts:
    (x,) = ins
    perm = op.attrs.get("perm")
    if perm is None:
        raise InferenceError("missing required attr 'perm'")
    perm = tuple(int(d) for d in perm)
    if sorted(perm) != list(range(len(x.shape))):
        raise InferenceError(
            f"perm {perm} is not a permutation of axes of {x.shape}"
        )
    return OpFacts((tuple(x.shape[d] for d in perm),), x.dtype)


TRANSFER: dict[str, callable] = {
    "CONV_2D": _conv2d,
    "DEPTHWISE_CONV_2D": _dwconv2d,
    "CONV_1D": _conv1d,
    "FULLY_CONNECTED": _fully_connected,
    "MAX_POOL_2D": _pool2d,
    "AVG_POOL_2D": _pool2d,
    "MAX_POOL_1D": _pool1d,
    "GLOBAL_AVG_POOL_2D": _gap2d,
    "GLOBAL_AVG_POOL_1D": _gap1d,
    "RESHAPE": _reshape,
    "ADD": _add,
    "SOFTMAX": _softmax,
    "QUANTIZE": _quantize,
    "DEQUANTIZE": _dequantize,
    "TRANSPOSE": _transpose,
}


def infer_op(op: GOp, input_tensors: list[GTensor]) -> OpFacts:
    """Run the opcode's transfer function over declared input tensors.

    Raises :class:`InferenceError` when the operands/attrs are malformed;
    arity must already have been checked against :data:`ARITY`.
    """
    fn = TRANSFER.get(op.opcode)
    if fn is None:
        raise InferenceError(f"no transfer function for opcode {op.opcode!r}")
    return fn(op, input_tensors)
