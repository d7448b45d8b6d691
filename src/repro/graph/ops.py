"""Graph op and tensor definitions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Supported opcodes.  Mirrors the TFLM op registry subset the evaluation
#: models need; the EON Compiler emits one kernel call per entry.
OPCODES = (
    "CONV_2D",
    "DEPTHWISE_CONV_2D",
    "CONV_1D",
    "FULLY_CONNECTED",
    "MAX_POOL_2D",
    "MAX_POOL_1D",
    "AVG_POOL_2D",
    "GLOBAL_AVG_POOL_2D",
    "GLOBAL_AVG_POOL_1D",
    "RESHAPE",
    "ADD",
    "SOFTMAX",
    "QUANTIZE",
    "DEQUANTIZE",
    "TRANSPOSE",
)

#: Weighted ops: (input, weight, bias) in, one activation out.  Their
#: execution order is the layer index precision maps and the pruner use.
WEIGHTED_OPS = ("CONV_2D", "DEPTHWISE_CONV_2D", "CONV_1D", "FULLY_CONNECTED")

#: Ops whose int8 kernels move raw quantized values with no rescale: the
#: output must carry the input's qparams unchanged (TFLite's "same scale"
#: constraint).  The quantizer propagates them; the verifier checks them.
SAME_QPARAMS_OPS = (
    "MAX_POOL_2D", "MAX_POOL_1D", "AVG_POOL_2D",
    "GLOBAL_AVG_POOL_2D", "GLOBAL_AVG_POOL_1D", "RESHAPE", "TRANSPOSE",
)

ACTIVATIONS = ("none", "relu", "relu6")


@dataclass
class QuantParams:
    """Affine quantization parameters.

    ``scale`` is a scalar array for per-tensor quantization or a 1-D array
    for per-channel (axis = last weight axis).  ``zero_point`` is always
    per-tensor, as in TFLite (per-channel weights are symmetric, zp = 0).
    """

    scale: np.ndarray
    zero_point: int = 0
    per_channel: bool = False

    def __post_init__(self):
        self.scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))

    def _scale_for(self, ndim: int, axis: int) -> np.ndarray:
        if not self.per_channel:
            return self.scale
        shape = [1] * ndim
        shape[axis] = -1
        return self.scale.reshape(shape)

    def quantize(
        self, values: np.ndarray, axis: int = -1, out=None, work=None
    ) -> np.ndarray:
        """int8 of ``values`` (into ``out`` when given); the float64
        working array is ``work`` when given."""
        values = np.asarray(values)
        q = np.divide(values, self._scale_for(values.ndim, axis), out=work)
        np.round(q, out=q)
        q += self.zero_point
        np.clip(q, -128, 127, out=q)
        if out is None:
            return q.astype(np.int8)
        np.copyto(out, q, casting="unsafe")
        return out

    def dequantize(
        self, q: np.ndarray, axis: int = -1, out=None, work=None
    ) -> np.ndarray:
        """float32 of ``q`` (into ``out`` when given), computed in
        float64 (in ``work`` when given)."""
        q = np.asarray(q)
        r = np.subtract(q, self.zero_point, out=work, dtype=np.float64)
        r *= self._scale_for(q.ndim, axis)
        if out is None:
            return r.astype(np.float32)
        np.copyto(out, r, casting="same_kind")
        return out


def pack_int4(values: np.ndarray) -> np.ndarray:
    """Pack int4 values (int8 storage, range [-8, 7]) two-per-byte.

    Little-nibble-first: element 2i lands in the low nibble, 2i+1 in the
    high nibble.  An odd element count pads the final high nibble with
    zero.  Returns a flat ``uint8`` array of ``ceil(n / 2)`` bytes.
    """
    flat = np.asarray(values, dtype=np.int8).reshape(-1)
    if flat.size and (flat.min() < -8 or flat.max() > 7):
        raise ValueError("int4 pack: values outside [-8, 7]")
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, dtype=np.int8)])
    nibbles = flat.astype(np.uint8) & 0x0F
    return (nibbles[0::2] | (nibbles[1::2] << 4)).astype(np.uint8)


def unpack_int4(packed: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`pack_int4`: bytes -> sign-extended int8 array."""
    packed = np.asarray(packed, dtype=np.uint8).reshape(-1)
    lo = packed & 0x0F
    hi = packed >> 4
    nibbles = np.empty(packed.size * 2, dtype=np.uint8)
    nibbles[0::2] = lo
    nibbles[1::2] = hi
    # Sign-extend the 4-bit two's-complement values.
    out = nibbles.astype(np.int8)
    out[out >= 8] -= 16
    n = int(np.prod(shape))
    return out[:n].reshape(shape)


@dataclass
class GTensor:
    """A tensor in the graph: constant (weights) or activation.

    ``int4`` tensors (weights only) hold their ``data`` *unpacked* — an
    int8-valued array in [-8, 7] with the logical shape — so kernels run
    the existing exact int8 paths unchanged; the two-nibbles-per-byte
    packing applies only to ``size_bytes`` and serialization.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str = "float32"  # float32 | int8 | int4 (weights) | int32
    data: np.ndarray | None = None  # set for constants
    quant: QuantParams | None = None

    @property
    def is_const(self) -> bool:
        return self.data is not None

    @property
    def size_bytes(self) -> int:
        n = int(np.prod(self.shape))
        if self.dtype == "int4":
            return (n + 1) // 2  # two nibbles per byte, odd tail padded
        itemsize = {"float32": 4, "int8": 1, "int32": 4}[self.dtype]
        return n * itemsize


@dataclass
class GOp:
    """One operation: opcode, tensor indices, and static attributes."""

    opcode: str
    inputs: list[int]
    outputs: list[int]
    attrs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.opcode not in OPCODES:
            raise ValueError(f"unknown opcode {self.opcode!r}")


def kernel_precision(op: GOp, tensors: list[GTensor]) -> str:
    """The precision of the kernel body an op links: its output dtype's
    (int32 counts as int8), or ``"int4"`` for a weighted int8 op with
    int4 weights."""
    if tensors[op.outputs[0]].dtype not in ("int8", "int32"):
        return "float32"
    if op.opcode in WEIGHTED_OPS and tensors[op.inputs[1]].dtype == "int4":
        return "int4"
    return "int8"


def op_macs(op: GOp, tensors: list[GTensor]) -> int:
    """Multiply-accumulate count for one op (drives the latency model)."""
    out = tensors[op.outputs[0]]
    out_elems = int(np.prod(out.shape))
    if op.opcode == "CONV_2D":
        w = tensors[op.inputs[1]]
        kh, kw, cin, _ = w.shape
        return out_elems * kh * kw * cin
    if op.opcode == "DEPTHWISE_CONV_2D":
        w = tensors[op.inputs[1]]
        kh, kw, _, _ = w.shape
        return out_elems * kh * kw
    if op.opcode == "CONV_1D":
        w = tensors[op.inputs[1]]
        k, cin, _ = w.shape
        return out_elems * k * cin
    if op.opcode == "FULLY_CONNECTED":
        w = tensors[op.inputs[1]]
        return int(np.prod(w.shape))
    if op.opcode in ("MAX_POOL_2D", "MAX_POOL_1D", "AVG_POOL_2D"):
        pool = op.attrs.get("pool_size", 2)
        dims = 2 if op.opcode.endswith("2D") else 1
        return out_elems * pool**dims
    if op.opcode in ("GLOBAL_AVG_POOL_2D", "GLOBAL_AVG_POOL_1D"):
        src = tensors[op.inputs[0]]
        return int(np.prod(src.shape))
    if op.opcode == "ADD":
        return out_elems
    if op.opcode == "SOFTMAX":
        return out_elems * 4  # exp + divide, folded into "mac-equivalents"
    if op.opcode in ("QUANTIZE", "DEQUANTIZE", "TRANSPOSE"):
        return out_elems  # one scale/move per element
    return 0
