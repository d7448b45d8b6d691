"""Shared graph execution: compiled plans + the reference dispatch path.

Two ways to execute a :class:`repro.graph.Graph`:

- :func:`compile_plan` resolves every op **once** into a bound closure
  (kernel function, weights, biases, quant params and attributes all
  pre-looked-up), so repeated invokes run a straight list of closures.
  This is the hot path used by :func:`run_graph`,
  :class:`repro.runtime.interpreter.TFLMInterpreter` and
  :class:`repro.runtime.eon.EONModel`.
- :func:`run_graph_dispatch` binds every authored op again on every
  call — the reference implementation for equivalence tests, and
  (``record=True``) the calibration path that returns every activation.

There is one op switch, the binder.  :func:`_bind_spec` binds an op to
the generic kernels of ``repro.runtime.kernels`` (the spec);
:func:`_bind_native` binds it to EON's C kernel (``repro.runtime.native``,
built once per host from ``eon_kernels.c``) where there is one: every
int8 conv / depthwise / conv1d / dense / global average pool op and
every float32 depthwise op with depth multiplier 1, on a host with a
compiler, when the layer passes the C kernel's checks (the int32 proof
for int8).  A plan binds
``_bind_native(...) or _bind_spec(...)``; dispatch binds ``_bind_spec``
alone, unfused, into freshly allocated arrays, so it never shares C, the
arena, fusion or an in-place ADD with the plan it checks.  The float32
depthwise spec, ``dwconv2d_f32``, performs the C kernel's float32
operations in the same order, so outputs are bit-identical on every
route.  Both routes see an op as :func:`_nhwc` maps it: the spec's
kernels are NHWC and 2-D only, and a 1-D conv, dense layer or 1-D pool
runs on them as C walks it, through reshaped views of the op's buffers.

The binder is also the plan optimizer.  While binding the authored
graph it makes two local decisions, from the graph's structure and
``graph.lifetimes()`` alone — never from op attributes, which a
deserialized blob could forge — and each exact (docs/plan.md):

- **conv+pool fusion** — a conv whose only reader is a compatible pool,
  and whose output is not the graph output, runs that pool in its own
  step; the pool's step is dropped and the pre-pool tensor never exists;
- **in-place ADD** — an ADD whose operand dies at the op writes into
  that operand's buffer, unless the operand is the graph input, a
  constant, or an input or output of a RESHAPE/TRANSPOSE.

A plan executes in EON's arena (docs/plan.md, "Execution arena"), as
the generated ``eon_run_classifier`` does.  ``plan.arena`` —
``plan_arena(plan)``, over the *step* lifetimes of
:meth:`CompiledPlan.lifetimes` — gives every activation a 16-byte
aligned offset per row; a batch of ``rows`` puts it at ``offset *
rows`` in one buffer the calling thread holds for the call.  The batch
is copied in, every bound closure writes its output view in place
(RESHAPE and TRANSPOSE copy into their own slot), and the output is
copied out.  Padded inputs, im2col matrices, pre-pool tensors and the C
kernels' accumulators live in a scratch region past the arena, one
step's buffers back to back.  Buffers are reused across calls,
threads and plans (:data:`ARENA_RETAIN_BYTES` caps what is kept), so a
warm execute allocates nothing that scales with the batch.  A graph
caches one plan (``graph._plan``) that TFLM and EON share, and a plan
is batch-polymorphic, so one plan serves every batch size.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ops import WEIGHTED_OPS, GOp
from repro.quantize.fixedpoint import checked_mantissa, total_shift_of
from repro.runtime import kernels as K
from repro.runtime import native
from repro.runtime.arena import ArenaPlan, _align, plan_arena


#: pool kind -> its NHWC kernels ``fn(x, (ph, pw), out=None)``, float32
#: and int8 (index by ``is_int8``).
_POOLS = {"max": (K.maxpool2d_f32, K.maxpool2d_i8), "avg": (K.avgpool2d_f32, K.avgpool2d_i8)}

#: pool opcode -> its kind.
_POOL_KINDS = {"MAX_POOL_2D": "max", "MAX_POOL_1D": "max", "AVG_POOL_2D": "avg"}

#: The 1-D opcodes: each runs as its 2-D twin of height 1.
_ONE_D = ("CONV_1D", "MAX_POOL_1D", "GLOBAL_AVG_POOL_1D")


# -- plan compilation -----------------------------------------------------

#: conv opcode -> the pool opcodes it can absorb.
_POOL_FUSION = {
    "CONV_2D": ("MAX_POOL_2D", "AVG_POOL_2D"),
    "DEPTHWISE_CONV_2D": ("MAX_POOL_2D", "AVG_POOL_2D"),
    "CONV_1D": ("MAX_POOL_1D",),
}

#: Opcodes whose inputs and outputs an in-place ADD never writes into.
#: Plans copy both into their own slots (as the generated C does), so
#: this is conservative; it keeps the binder's decisions those the
#: views-era plans made.
_VIEW_OPS = ("RESHAPE", "TRANSPOSE")


class _Nhwc(NamedTuple):
    """An op as the NHWC 2-D kernels walk it (:func:`_nhwc`)."""

    x: tuple  # input shape, per row
    y: tuple  # output shape, per row (a fused conv's: before its pool)
    w: np.ndarray | None  # weights (kh, kw, cin, cout); None unweighted
    stride: int
    pad_h: tuple
    pad_w: tuple
    window: tuple | None  # (ph, pw) of the op's pool or the one it absorbed


def _nhwc(graph: Graph, op: GOp, pool_size: int | None = None) -> _Nhwc:
    """``op`` as the NHWC 2-D kernels walk it, spec and C alike: a
    CONV_1D / MAX_POOL_1D / GLOBAL_AVG_POOL_1D is its 2-D twin of height
    1 (a 1-D pool window is ``(1, size)``), and a FULLY_CONNECTED a 1x1
    conv over a 1xM image, M the product of its input's leading axes (1
    for a vector).  Every shape has the op's own element order, so the
    kernels run on reshaped views of the buffers the op reads and writes.
    ``pool_size`` is that of a pool a conv absorbed."""
    t, a = graph.tensors, op.attrs
    x, y = (tuple(t[tid].shape) for tid in (op.inputs[0], op.outputs[0]))
    w = t[op.inputs[1]].data if op.opcode in WEIGHTED_OPS else None
    stride, pad_h, pad_w = 1, (0, 0), (0, 0)
    if op.opcode == "FULLY_CONNECTED":
        x, y = ((1, math.prod(s[:-1]), s[-1]) for s in (x, y))
        w = w[None, None]
    elif op.opcode in _ONE_D:
        x, y = (1,) + x, (1,) + y
    if op.opcode == "CONV_1D":
        w, stride, pad_w = w[None], a["stride"], tuple(a["pad"])
    elif op.opcode in ("CONV_2D", "DEPTHWISE_CONV_2D"):
        stride, pad_h, pad_w = a["stride"], tuple(a["pad_h"]), tuple(a["pad_w"])
    size = a["pool_size"] if op.opcode in _POOL_KINDS else pool_size
    window = None if size is None else (1, size) if op.opcode in _ONE_D else (size, size)
    return _Nhwc(x, y, w, stride, pad_h, pad_w, window)


def _bind_op(
    graph: Graph, op: GOp, pool: tuple[int, str] | None
) -> tuple[Callable[[dict, np.ndarray, dict], object], tuple]:
    """Resolve one op into a closure over pre-fetched weights/attrs,
    plus the scratch that closure needs: its C kernel
    (:func:`_bind_native`) or, failing that, its spec kernel
    (:func:`_bind_spec`).  ``pool`` is the ``(size, kind)`` of the pool
    a conv absorbs, decided by :func:`_bind_steps`."""
    return _bind_native(graph, op, pool) or _bind_spec(graph, op, pool)


def _bind_spec(
    graph: Graph, op: GOp, pool: tuple[int, str] | None
) -> tuple[Callable[[dict, np.ndarray, dict], object], tuple]:
    """``op`` bound to the kernels of ``repro.runtime.kernels`` (the spec),
    and the scratch they need; no C.  Plans bind it where
    :func:`_bind_native` does not, and :func:`run_graph_dispatch` binds
    every op through it, unfused.

    All dispatch decisions (opcode, dtype, activation), tensor-table
    lookups, attribute reads and weight-side dtype preparation happen
    here, once.  The closure ``fn(v, out, s)`` only indexes the
    activation views ``v`` and calls the kernel, which writes the
    step's output view ``out``.  The scratch spec is ``(name, per-row
    shape, dtype)`` entries, and ``s`` maps each name — a keyword of the
    kernel — to a view of that shape with the batch's rows in front.
    A fused pool pools the conv's output into ``out``.
    """
    t = graph.tensors
    a = op.attrs
    is_int8 = t[op.outputs[0]].dtype == "int8"
    x_id = op.inputs[0]
    in_shape = tuple(t[x_id].shape)
    act = a.get("activation", "none")

    if op.opcode in WEIGHTED_OPS:
        g = _nhwc(graph, op, pool and pool[0])
        b = t[op.inputs[2]].data
        depthwise = op.opcode == "DEPTHWISE_CONV_2D"
        xs, ys = (-1, *g.x), (-1, *g.y)
        if pool:  # the step writes the pooled tensor
            ys = (-1, g.y[0] // g.window[0], g.y[1] // g.window[1], g.y[2])
        scratch = []
        if is_int8:
            # A forged multiplier is refused here, as the spec refuses it
            # when it runs.
            checked_mantissa(a["out_mult"])
            total_shift_of(a["out_shift"])
            conv = functools.partial(
                K.dwconv2d_i8 if depthwise else K.conv2d_i8, w=g.w, bias=b,
                stride=g.stride, pad_h=g.pad_h, pad_w=g.pad_w,
                in_zp=t[x_id].quant.zero_point, out_zp=t[op.outputs[0]].quant.zero_point,
                out_mult=a["out_mult"], out_shift=a["out_shift"],
                clamp_min=a["clamp_min"], clamp_max=a["clamp_max"],
            )
        else:
            if any(g.pad_h + g.pad_w):
                grown = (g.x[0] + sum(g.pad_h), g.x[1] + sum(g.pad_w), g.x[2])
                scratch.append(("xp", grown, t[x_id].dtype))
            if depthwise:
                scratch.append(("prod", g.y, np.float32))
            elif g.w.shape[:2] != (1, 1) or g.stride != 1:  # not pointwise
                scratch.append(("col", (math.prod(g.y[:-1]), math.prod(g.w.shape[:-1])), np.float32))
            kernel = K.dwconv2d_f32 if depthwise else K.conv2d_f32
            conv = lambda x, **s: kernel(x, g.w, b, g.stride, g.pad_h, g.pad_w, act, **s)  # noqa: E731
        if pool:
            if not is_int8:  # the conv's own ``out`` is scratch: the pre-pool tensor
                scratch.append(("out", g.y, np.float32))
            pool_fn = _POOLS[pool[1]][is_int8]
            return (
                lambda v, out, s: pool_fn(conv(v[x_id].reshape(xs), **s), g.window, out.reshape(ys))
            ), tuple(scratch)
        if is_int8:
            return (lambda v, out, s: np.copyto(out.reshape(ys), conv(v[x_id].reshape(xs)))), ()
        return (lambda v, out, s: conv(v[x_id].reshape(xs), out=out.reshape(ys), **s)), tuple(scratch)

    if op.opcode in _POOL_KINDS:
        g = _nhwc(graph, op)
        fn, xs, ys = _POOLS[_POOL_KINDS[op.opcode]][is_int8], (-1, *g.x), (-1, *g.y)
        return (lambda v, out, s: fn(v[x_id].reshape(xs), g.window, out.reshape(ys))), ()

    if op.opcode in ("GLOBAL_AVG_POOL_2D", "GLOBAL_AVG_POOL_1D"):
        fn, xs = K.gap2d_i8 if is_int8 else K.gap2d_f32, (-1, *_nhwc(graph, op).x)
        return (lambda v, out, s: fn(v[x_id].reshape(xs), out)), ()

    if op.opcode == "RESHAPE":
        # A copy into the step's own slot, as the generated C does: a
        # view would keep reading the input's slot after the arena has
        # handed it to a later tensor.
        return (lambda v, out, s: np.copyto(out, v[x_id].reshape(out.shape))), ()
    if op.opcode == "TRANSPOSE":
        axes = (0,) + tuple(int(d) + 1 for d in a["perm"])
        return (lambda v, out, s: np.copyto(out, np.transpose(v[x_id], axes))), ()

    if op.opcode == "ADD":
        # An in-place ADD needs nothing here: the arena gives its output
        # its operand's offset, so ``out`` is that operand's view.
        b_id = op.inputs[1]
        b_const = t[b_id].data if t[b_id].is_const else None
        if is_int8:
            kw = dict(
                zp_a=t[op.inputs[0]].quant.zero_point,
                zp_b=t[b_id].quant.zero_point,
                out_zp=t[op.outputs[0]].quant.zero_point,
                left_shift=a["left_shift"],
                mult1=a["mult1"], shift1=a["shift1"],
                mult2=a["mult2"], shift2=a["shift2"],
                out_mult=a["out_mult"], out_shift=a["out_shift"],
                clamp_min=a["clamp_min"], clamp_max=a["clamp_max"],
            )
            if b_const is not None:
                return (lambda v, out, s: K.add_i8(v[x_id], b_const, out=out, **kw)), ()
            return (lambda v, out, s: K.add_i8(v[x_id], v[b_id], out=out, **kw)), ()
        if b_const is not None:
            return (lambda v, out, s: K.add_f32(v[x_id], b_const, act, out)), ()
        return (lambda v, out, s: K.add_f32(v[x_id], v[b_id], act, out)), ()

    if op.opcode == "SOFTMAX":
        if is_int8:
            qp = t[x_id].quant
            in_scale, in_zp = float(qp.scale[0]), qp.zero_point
            return (lambda v, out, s: K.softmax_i8(v[x_id], in_scale, in_zp, out)), ()
        return (lambda v, out, s: K.softmax_f32(v[x_id], out)), ()

    if op.opcode == "QUANTIZE":
        out_q = t[op.outputs[0]].quant
        return (
            lambda v, out, s: out_q.quantize(v[x_id].astype(np.float32, copy=False), out=out, **s)
        ), (("work", in_shape, np.float64),)
    if op.opcode == "DEQUANTIZE":
        in_q = t[x_id].quant
        return (
            lambda v, out, s: in_q.dequantize(v[x_id], out=out, **s)
        ), (("work", in_shape, np.float64),)

    raise NotImplementedError(f"no kernel for opcode {op.opcode}")


_INT = (int, np.integer)


def _native_params(graph: Graph, op: GOp, pool: tuple[int, str] | None) -> dict | None:
    """The layer constants of ``op`` as the C kernels walk it, NHWC
    (:func:`_nhwc`) — ``native.PARAMS`` but the zero points and clamp,
    which the caller adds — or ``None`` where its shapes are not the ones
    the kernel walks (a depth multiplier, a graph that would fail at
    execute anyway)."""
    g = _nhwc(graph, op, pool and pool[0])
    if len(g.x) != 3 or g.w.ndim != 4 or len(g.y) != 3:
        return None
    (h, wd, c), (kh, kw, wc, cout) = g.x, g.w.shape
    (pt, pb), (pl, pr), stride = g.pad_h, g.pad_w, g.stride
    if not all(isinstance(v, _INT) and v >= 0 for v in (pt, pb, pl, pr)):
        return None
    if not (isinstance(stride, _INT) and stride >= 1 and wc == c):
        return None
    oh, ow = (h + pt + pb - kh) // stride + 1, (wd + pl + pr - kw) // stride + 1
    if op.opcode == "DEPTHWISE_CONV_2D":
        if cout != 1:
            return None
        cout = c
    if min(oh, ow) < 1 or g.y != (oh, ow, cout):
        return None
    (ph, pw), avg = g.window or (1, 1), pool is not None and pool[1] == "avg"
    if min(ph, pw) < 1 or (avg and ph * pw >= 1 << 24):  # int32 sums of int8
        return None
    return dict(
        h=h, w=wd, c=c, pt=pt, pb=pb, pl=pl, pr=pr, kh=kh, kw=kw, stride=stride,
        oh=oh, ow=ow, cout=cout, pool_h=ph, pool_w=pw, pool_avg=int(avg),
    )


def _native_scratch(params: dict, dtype) -> tuple:
    """The padded image a C kernel writes per row, when it pads."""
    p = params
    if not (p["pt"] or p["pb"] or p["pl"] or p["pr"]):
        return ()
    shape = (p["h"] + p["pt"] + p["pb"], p["w"] + p["pl"] + p["pr"], p["c"])
    return (("xp", shape, dtype),)


def _bind_native(
    graph: Graph, op: GOp, pool: tuple[int, str] | None
) -> tuple[native.NativeKernel, tuple] | None:
    """``op`` bound to its C kernel, with its scratch: an int8 CONV_2D /
    DEPTHWISE_CONV_2D / CONV_1D / FULLY_CONNECTED to ``eon_conv_i8`` /
    ``eon_dwconv_i8`` (a fused pool included), an int8
    GLOBAL_AVG_POOL_2D / _1D to ``eon_gap_i8``, a float32
    DEPTHWISE_CONV_2D to ``eon_dwconv_f32`` (a fused pool pools the
    kernel's pre-pool output in numpy).  ``None`` — bind the spec — for
    any other op, and where the kernel library is unavailable,
    :func:`_native_params` refuses the shapes (a depth multiplier), an
    int8 layer fails the int32 proof, a global pool's int32 sums could
    overflow or a float32 activation is not one the kernel clamps."""
    lib = native.load()
    if lib is None:
        return None
    t, a = graph.tensors, op.attrs
    if op.opcode in ("GLOBAL_AVG_POOL_2D", "GLOBAL_AVG_POOL_1D"):
        x = _nhwc(graph, op).x
        if t[op.inputs[0]].dtype != "int8" or t[op.outputs[0]].dtype != "int8" or len(x) != 3:
            return None
        if not 1 <= x[0] * x[1] < 1 << 24:  # int32 sums of int8
            return None
        return native.GapKernel(lib, *x, op.inputs[0]), ()
    if op.opcode not in WEIGHTED_OPS:
        return None
    x_t, w, b = t[op.inputs[0]], t[op.inputs[1]].data, t[op.inputs[2]].data
    if t[op.outputs[0]].dtype != "int8":
        act = a.get("activation", "none")
        if op.opcode != "DEPTHWISE_CONV_2D" or x_t.dtype != "float32" or act not in native.F32_CLAMPS:
            return None
        params = _native_params(graph, op, None)
        if params is None or np.shape(b) != (params["c"],):
            return None
        params.update(in_zp=0, out_zp=0, clamp_min=0, clamp_max=0)
        scratch, pool_fn = _native_scratch(params, np.float32), None
        if pool:
            pool_fn = (_POOLS[pool[1]][False], (pool[0], pool[0]))
            scratch += (("out", tuple(t[op.outputs[0]].shape), np.float32),)
        return native.DepthwiseF32Kernel(lib, params, w[..., 0], b, act, op.inputs[0], pool_fn), scratch

    if x_t.dtype != "int8" or w.dtype != np.int8:
        return None
    params = _native_params(graph, op, pool)
    if params is None:
        return None
    in_zp, out_zp, cout = x_t.quant.zero_point, t[op.outputs[0]].quant.zero_point, params["cout"]
    depthwise = op.opcode == "DEPTHWISE_CONV_2D"
    prepared = (K.prepare_dwconv_i8 if depthwise else K.prepare_gemm_i32)(w, b, in_zp)
    if prepared is None:
        return None
    weights, bias = prepared
    mant, shift = checked_mantissa(a["out_mult"]), total_shift_of(a["out_shift"])
    if bias.shape != (cout,) or mant.size not in (1, cout) or shift.size not in (1, cout):
        return None
    if not (-128 <= in_zp <= 127 and -128 <= out_zp <= 127):
        return None  # unrepresentable: the verifier's G021, unless skipped
    params.update(in_zp=in_zp, out_zp=out_zp, clamp_min=a["clamp_min"], clamp_max=a["clamp_max"])
    kernel = native.ConvKernel(lib, depthwise, params, weights, bias, mant, shift, op.inputs[0])
    return kernel, (("acc", (kernel.scratch_size,), np.int32),) + _native_scratch(params, np.int8)


@dataclass(frozen=True)
class PlanStep:
    """One compiled step: output tensor id + fully bound kernel closure.

    ``ops`` are the authored op indices the step runs: ``(op,)``, or
    ``(conv, pool)`` for a conv that absorbed its pool — the step keeps
    the conv's opcode and writes the pool's output.  ``reads`` are the
    activation ids the closure ``fn`` reads (a :class:`native.NativeKernel`
    for a step bound to C).  ``inplace_src`` is the tensor id
    whose buffer the step writes its output into (``None`` for ordinary
    steps); the arena gives both the same offset.  ``scratch`` is the
    ``(name, per-row shape, dtype)`` spec of the closure's temporaries
    (:func:`_bind_spec`).
    """

    opcode: str
    out_id: int
    fn: Callable[[dict, np.ndarray, dict], object]
    ops: tuple[int, ...]
    reads: tuple[int, ...] = ()
    inplace_src: int | None = None
    scratch: tuple = ()


def _bind_steps(graph: Graph, lifetimes: dict[int, tuple[int, int]]) -> list[PlanStep]:
    """Bind the authored ops into steps, deciding conv+pool fusion and
    in-place ADDs on the way (see the module docstring)."""
    ops, t = graph.ops, graph.tensors
    readers: dict[int, set[int]] = {}
    for oi, op in enumerate(ops):
        for tid in op.inputs:
            readers.setdefault(tid, set()).add(oi)
    views = {
        tid for op in ops if op.opcode in _VIEW_OPS
        for tid in (*op.inputs, *op.outputs)
    }
    steps: list[PlanStep] = []
    absorbed: set[int] = set()  # pool ops their conv's step runs
    for oi, op in enumerate(ops):
        if oi in absorbed:
            continue
        out_id, step_ops, pool, inplace_id = op.outputs[0], (oi,), None, None
        only = readers.get(out_id, ())
        if op.opcode in _POOL_FUSION and out_id != graph.output_id and len(only) == 1:
            (pi,) = only
            if ops[pi].opcode in _POOL_FUSION[op.opcode]:
                absorbed.add(pi)
                step_ops = (oi, pi)
                pool = (int(ops[pi].attrs["pool_size"]), _POOL_KINDS[ops[pi].opcode])
                out_id = ops[pi].outputs[0]
        if op.opcode == "ADD":
            out_t = t[out_id]
            inplace_id = next((
                tid for tid in op.inputs
                if not t[tid].is_const and tid != graph.input_id
                and tid not in views and lifetimes[tid][1] == oi
                and tuple(t[tid].shape) == tuple(out_t.shape)
                and t[tid].dtype == out_t.dtype
            ), None)
        reads = tuple(tid for tid in op.inputs if not t[tid].is_const)
        fn, scratch = _bind_op(graph, op, pool)
        steps.append(PlanStep(
            op.opcode, out_id, fn, step_ops, reads, inplace_id, scratch,
        ))
    return steps


# -- the execution arena ------------------------------------------------------

#: Largest buffer (activations + scratch, bytes) kept for reuse between
#: executes.  It is above the largest serving chunk of the paper-scale
#: models — VWW int8 at ``ModelServer``'s ``max_batch=32`` needs 23.6 MB
#: (VWW float32 19.8 MB, KWS float32 3.6 MB) — so serving never
#: reallocates; a call needing more (a large evaluation batch) runs in a
#: buffer dropped on return.
ARENA_RETAIN_BYTES = 24 << 20

#: Idle buffers kept: one per thread that executes concurrently, so
#: handler threads that come and go share them instead of each growing
#: its own.
_IDLE_BUFFERS = 4

#: Carvings one buffer remembers before it forgets them all.
_CARVINGS_PER_BUFFER = 64


class _Buffer:
    """One execution buffer plus the views plans have carved from it,
    keyed by ``(plan serial, rows)``.  A thread holds it for one execute."""

    __slots__ = ("data", "carvings")

    def __init__(self, nbytes: int):
        self.data = np.empty(nbytes, dtype=np.uint8)
        self.carvings: dict[tuple[int, int], tuple] = {}


_idle: list[_Buffer] = []
_idle_lock = threading.Lock()
_serials = itertools.count()


def _acquire_buffer(nbytes: int) -> _Buffer:
    """The most recently released idle buffer, replaced by a fresh one
    when it is smaller than ``nbytes``."""
    buf = None
    if nbytes <= ARENA_RETAIN_BYTES:
        with _idle_lock:
            if _idle:
                buf = _idle.pop()
    if buf is None or buf.data.nbytes < nbytes:
        buf = _Buffer(nbytes)
    return buf


def _return_buffer(buf: _Buffer) -> None:
    if buf.data.nbytes <= ARENA_RETAIN_BYTES:
        with _idle_lock:
            if len(_idle) < _IDLE_BUFFERS:
                _idle.append(buf)


class CompiledPlan:
    """A straight-line executable plan over a graph.

    Holds the bound :class:`PlanStep` list; :meth:`lifetimes` gives each
    activation's first and last step, which the arena planner turns into
    buffer offsets.  Closures fetch weights at compile time (a C kernel
    lays out its own copy), so editing a tensor's ``data`` afterwards
    requires recompiling the plan.
    """

    def __init__(self, graph: Graph, verify: bool = True):
        if verify and not getattr(graph, "_verified_ok", False):
            # Full verification (topology + shapes/dtypes/quant/liveness)
            # once per graph lifetime — the success memo is cleared by
            # structural edits, so an unchanged graph is never re-checked.
            # The arena cross-check is skipped here because the planner
            # re-validates at plan time.
            from repro.analysis.verify import verify_graph_or_raise

            verify_graph_or_raise(graph, arena=False)
        elif not verify:
            graph.validate()
        self.graph = graph
        self.steps = _bind_steps(graph, graph.lifetimes())
        self._arena = None
        self._scratch = None
        self._serial = next(_serials)

    def __len__(self) -> int:
        return len(self.steps)

    def lifetimes(self) -> dict[int, tuple[int, int]]:
        """First-write / last-read *step* index per materialised activation.

        The step analogue of ``Graph.lifetimes()``: the graph input is
        alive from step 0, the graph output past the last step, and a
        fused conv's pre-pool tensor, which no step writes, has none.  An
        in-place ADD's output starts at the step where its operand dies;
        the arena places both in one buffer.
        """
        graph = self.graph
        first = {graph.input_id: 0}
        last = {graph.input_id: 0}
        for si, step in enumerate(self.steps):
            for tid in step.reads:
                last[tid] = si
            first.setdefault(step.out_id, si)
            last[step.out_id] = si
        last[graph.output_id] = len(self.steps)
        return {tid: (first[tid], last[tid]) for tid in first}

    @property
    def arena(self) -> ArenaPlan:
        """EON's step arena, ``plan_arena(self)``, planned on first use
        and kept: execution, the RAM estimate and the generated C all
        read this one plan."""
        if self._arena is None:
            self._arena = plan_arena(self)
        return self._arena

    def _scratch_region(self) -> tuple[list, int]:
        """Per-row scratch layouts (:func:`_scratch_layout`) of the input
        load, then of every step, and the bytes the largest spans; laid
        out on first use, like the arena, so compiling does not pay."""
        if self._scratch is None:
            # Loading a float batch into an int8 input quantizes it
            # through a float64 working copy.
            in_t = self.graph.tensors[self.graph.input_id]
            load = (("work", tuple(in_t.shape), np.float64),) if in_t.dtype == "int8" else ()
            layouts = [_scratch_layout(spec) for spec in [load] + [st.scratch for st in self.steps]]
            self._scratch = layouts, max(total for _, total in layouts)
        return self._scratch

    def _carve(self, data: np.ndarray, rows: int) -> tuple:
        """Views of ``data`` for a batch of ``rows``: each activation at
        its arena offset times ``rows``, each step's scratch past the
        arena — every offset and size scaled by ``rows``, so a 16-byte
        aligned row layout stays aligned — and the call that runs each
        step on them (a C kernel's pointers are bound here, once)."""

        def view(offset, shape, dtype):
            start = offset * rows
            stop = start + rows * _nbytes(shape, dtype)
            return data[start:stop].view(dtype).reshape((rows, *shape))

        arena, t = self.arena, self.graph.tensors
        views = {tid: view(off, t[tid].shape, t[tid].dtype) for tid, off in arena.offsets.items()}
        load, *scratch = [
            {name: view(arena.total_bytes + off, shape, dtype) for name, off, shape, dtype in placed}
            for placed, _ in self._scratch_region()[0]
        ]
        runs = [
            st.fn.carve(views, views[st.out_id], s) if isinstance(st.fn, native.NativeKernel)
            else functools.partial(st.fn, views, views[st.out_id], s)
            for st, s in zip(self.steps, scratch)
        ]
        return views, load, runs

    def execute(self, batch: np.ndarray) -> np.ndarray:
        """Run the plan over a batch in EON's arena, as the generated
        ``eon_run_classifier`` does: copy the batch in, run every step
        into its slot, copy the output out (so it survives the next
        execute).  The buffer is the calling thread's for the call."""
        batch = np.asarray(batch)
        rows = batch.shape[0]
        graph = self.graph
        buf = _acquire_buffer((self.arena.total_bytes + self._scratch_region()[1]) * rows)
        try:
            key = (self._serial, rows)
            carved = buf.carvings.get(key)
            if carved is None:
                if len(buf.carvings) >= _CARVINGS_PER_BUFFER:
                    buf.carvings.clear()
                carved = buf.carvings[key] = self._carve(buf.data, rows)
            views, load_scratch, runs = carved
            _load_input(graph, batch, views[graph.input_id], **load_scratch)
            for run in runs:
                run()
            return views[graph.output_id].copy()
        finally:
            _return_buffer(buf)


def _nbytes(shape, dtype) -> int:
    return math.prod(shape) * np.dtype(dtype).itemsize


def _scratch_layout(spec: tuple) -> tuple[tuple, int]:
    """One step's scratch entries placed per row, back to back, as
    ``(name, offset, shape, dtype)``, and the bytes they span."""
    placed, end = [], 0
    for name, shape, dtype in spec:
        placed.append((name, end, shape, dtype))
        end += _align(_nbytes(shape, dtype))
    return tuple(placed), end


def _load_input(graph: Graph, batch: np.ndarray, dst: np.ndarray, work=None) -> None:
    """Caller input into ``dst``, the input's slot, in the graph's input
    dtype: float input to an int8 graph is quantized with the input
    tensor's qparams (through ``work``), as the SDK does on-device."""
    batch = batch.reshape(dst.shape)
    quant = graph.tensors[graph.input_id].quant
    if dst.dtype == np.int8 and batch.dtype != np.int8:
        quant.quantize(batch.astype(np.float32, copy=False), out=dst, work=work)
    else:
        np.copyto(dst, batch, casting="unsafe")


# Guards only the creation of per-graph compile locks (cheap, constant
# work).  Actual compilation serializes per graph, so concurrent shards
# warming *different* models still compile in parallel while racers on
# the *same* cold graph build exactly one plan.
_PLAN_LOCKS_GUARD = threading.Lock()


def compile_plan(
    graph: Graph,
    cache: bool = True,
    verify: bool = True,
    engine: str | None = None,
) -> CompiledPlan:
    """Compile (or fetch the cached) execution plan for ``graph``.

    A graph has one plan (``graph._plan``): the TFLM interpreter, EON
    and ``run_graph`` all run it, at every batch size.  Structural edits
    via ``Graph.add_tensor``/``Graph.add_op`` clear it.  Thread-safe:
    concurrent callers racing on a cold graph get the same plan object.
    Every cold compile runs the full graph verifier
    (``repro.analysis.verify_graph``); ``verify=False`` opts out, falling
    back to the structural ``Graph.validate()``.

    ``engine`` is ignored.  It is kept only because
    ``benchmarks/e2e/probes.py`` still passes it, and is to be deleted
    together with that argument.
    """
    if not cache:
        return CompiledPlan(graph, verify=verify)
    plan = graph._plan
    if plan is not None:
        return plan
    with _PLAN_LOCKS_GUARD:
        lock = getattr(graph, "_plan_compile_lock", None)
        if lock is None:
            lock = threading.Lock()
            graph._plan_compile_lock = lock
    with lock:
        plan = graph._plan
        if plan is None:
            plan = graph._plan = CompiledPlan(graph, verify=verify)
    return plan


# -- entry points ----------------------------------------------------------


def run_graph(graph: Graph, batch: np.ndarray) -> np.ndarray:
    """Execute the graph over a batch (via its compiled plan).

    Float graphs take/return float32.  int8 graphs accept float input (which
    is quantized with the input tensor's qparams, as the SDK does on-device)
    or pre-quantized int8, and return the raw int8 output tensor.
    """
    return compile_plan(graph).execute(batch)


def run_graph_dispatch(
    graph: Graph,
    batch: np.ndarray,
    record: bool = False,
) -> np.ndarray | dict[int, np.ndarray]:
    """Reference path: every authored op bound through :func:`_bind_spec`
    on every call and run into a freshly allocated output and scratch —
    no C kernel, no fusion, no arena, no in-place ADD.

    Produces bit-identical outputs to :func:`run_graph`.  With
    ``record=True`` returns every activation of the authored graph
    (calibration observes them all; a float32 graph runs the same f32
    kernels here as in its plan).
    """
    batch = np.asarray(batch)
    t = graph.tensors

    def fresh(shape, dtype):
        return np.empty((batch.shape[0], *shape), dtype)

    in_t = t[graph.input_id]
    values = {graph.input_id: fresh(in_t.shape, in_t.dtype)}
    _load_input(graph, batch, values[graph.input_id])
    for op in graph.ops:
        fn, scratch = _bind_spec(graph, op, None)
        out_t = t[op.outputs[0]]
        out = values[op.outputs[0]] = fresh(out_t.shape, out_t.dtype)
        fn(values, out, {name: fresh(shape, dtype) for name, shape, dtype in scratch})
    return values if record else values[graph.output_id]


def dequantize_output(graph: Graph, output: np.ndarray) -> np.ndarray:
    """int8 graph output -> float probabilities."""
    out_t = graph.tensors[graph.output_id]
    if out_t.dtype == "int8":
        return out_t.quant.dequantize(output)
    return output
