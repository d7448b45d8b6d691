"""Shared graph execution: compiled plans + the reference dispatch path.

Two ways to execute a :class:`repro.graph.Graph`:

- :func:`compile_plan` resolves every op **once** into a bound closure
  (kernel function, weights, biases, quant params and attributes all
  pre-looked-up), so repeated invokes run a straight list of closures.
  This is the hot path used by :func:`run_graph`,
  :class:`repro.runtime.interpreter.TFLMInterpreter` and
  :class:`repro.runtime.eon.EONModel`.
- :func:`run_graph_dispatch` re-resolves each op through the opcode
  dispatch chain on every call — the reference implementation for
  equivalence tests, and (``record=True``) the calibration path that
  returns every activation.

Dispatch calls the generic kernels (the spec); plans bind the
``*_i8_plan`` family of ``repro.runtime.kernels``, whose rewrites are
each proven exact at bind time, so outputs are bit-identical.

The binder is also the plan optimizer.  While binding the authored
graph it makes three local decisions, from the graph's structure and
``graph.lifetimes()`` alone — never from op attributes, which a
deserialized blob could forge — and each exact (docs/plan.md):

- **conv+pool fusion** — a conv whose only reader is a compatible pool,
  and whose output is not the graph output, runs that pool in its own
  step; the pool's step is dropped and the pre-pool tensor never exists;
- **exact GEMM** — ``prepare_gemm_i8`` runs an int8 contraction in
  float64 BLAS when it proves every partial sum below 2**53;
- **in-place ADD** — an ADD whose operand dies at the op writes into
  that operand's buffer, unless the operand is the graph input, a
  constant, or shares its buffer with a RESHAPE/TRANSPOSE view.

A plan drops each activation after the last *step* that reads it
(:meth:`CompiledPlan.lifetimes`); EON's arena and generated C read the
same steps.  A graph caches one plan (``graph._plan``) that TFLM and EON
share, and a plan is batch-polymorphic (kernels read window strides off
the arrays they are handed), so one plan serves every batch size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ops import GOp
from repro.runtime import kernels as K


def _kernel_call(graph: Graph, op: GOp, values: dict[int, np.ndarray]) -> np.ndarray:
    """Execute one op against the tensor-id -> array map."""
    t = graph.tensors
    a = op.attrs
    is_int8 = t[op.outputs[0]].dtype == "int8"
    x = values[op.inputs[0]]

    if op.opcode in ("CONV_2D", "DEPTHWISE_CONV_2D"):
        w = t[op.inputs[1]].data
        b = t[op.inputs[2]].data
        fn_f = K.conv2d_f32 if op.opcode == "CONV_2D" else K.dwconv2d_f32
        fn_i = K.conv2d_i8 if op.opcode == "CONV_2D" else K.dwconv2d_i8
        if is_int8:
            return fn_i(
                x, w, b, a["stride"], a["pad_h"], a["pad_w"],
                in_zp=t[op.inputs[0]].quant.zero_point,
                out_zp=t[op.outputs[0]].quant.zero_point,
                out_mult=a["out_mult"], out_shift=a["out_shift"],
                clamp_min=a["clamp_min"], clamp_max=a["clamp_max"],
            )
        return fn_f(x, w, b, a["stride"], a["pad_h"], a["pad_w"], a.get("activation", "none"))

    if op.opcode == "CONV_1D":
        w = t[op.inputs[1]].data
        b = t[op.inputs[2]].data
        if is_int8:
            return K.conv1d_i8(
                x, w, b, a["stride"], a["pad"],
                in_zp=t[op.inputs[0]].quant.zero_point,
                out_zp=t[op.outputs[0]].quant.zero_point,
                out_mult=a["out_mult"], out_shift=a["out_shift"],
                clamp_min=a["clamp_min"], clamp_max=a["clamp_max"],
            )
        return K.conv1d_f32(x, w, b, a["stride"], a["pad"], a.get("activation", "none"))

    if op.opcode == "FULLY_CONNECTED":
        w = t[op.inputs[1]].data
        b = t[op.inputs[2]].data
        if is_int8:
            return K.fc_i8(
                x, w, b,
                in_zp=t[op.inputs[0]].quant.zero_point,
                out_zp=t[op.outputs[0]].quant.zero_point,
                out_mult=a["out_mult"], out_shift=a["out_shift"],
                clamp_min=a["clamp_min"], clamp_max=a["clamp_max"],
            )
        return K.fc_f32(x, w, b, a.get("activation", "none"))

    if op.opcode == "MAX_POOL_2D":
        return K.maxpool2d_i8(x, a["pool_size"]) if is_int8 else K.maxpool2d_f32(x, a["pool_size"])
    if op.opcode == "MAX_POOL_1D":
        return K.maxpool1d_i8(x, a["pool_size"]) if is_int8 else K.maxpool1d_f32(x, a["pool_size"])
    if op.opcode == "AVG_POOL_2D":
        return K.avgpool2d_i8(x, a["pool_size"]) if is_int8 else K.avgpool2d_f32(x, a["pool_size"])
    if op.opcode == "GLOBAL_AVG_POOL_2D":
        return K.gap2d_i8(x) if is_int8 else K.gap2d_f32(x)
    if op.opcode == "GLOBAL_AVG_POOL_1D":
        return K.gap1d_i8(x) if is_int8 else K.gap1d_f32(x)

    if op.opcode == "RESHAPE":
        return x.reshape((x.shape[0],) + tuple(t[op.outputs[0]].shape))

    if op.opcode == "ADD":
        other = (
            t[op.inputs[1]].data
            if t[op.inputs[1]].is_const
            else values[op.inputs[1]]
        )
        if is_int8:
            return K.add_i8(
                x, other,
                zp_a=t[op.inputs[0]].quant.zero_point,
                zp_b=t[op.inputs[1]].quant.zero_point,
                out_zp=t[op.outputs[0]].quant.zero_point,
                left_shift=a["left_shift"],
                mult1=a["mult1"], shift1=a["shift1"],
                mult2=a["mult2"], shift2=a["shift2"],
                out_mult=a["out_mult"], out_shift=a["out_shift"],
                clamp_min=a["clamp_min"], clamp_max=a["clamp_max"],
            )
        return K.add_f32(x, other, a.get("activation", "none"))

    if op.opcode == "SOFTMAX":
        if is_int8:
            qp = t[op.inputs[0]].quant
            return K.softmax_i8(x, float(qp.scale[0]), qp.zero_point)
        return K.softmax_f32(x)

    if op.opcode == "QUANTIZE":
        return t[op.outputs[0]].quant.quantize(x.astype(np.float32))
    if op.opcode == "DEQUANTIZE":
        return t[op.inputs[0]].quant.dequantize(x)
    if op.opcode == "TRANSPOSE":
        perm = tuple(int(d) for d in a["perm"])
        return np.transpose(x, (0,) + tuple(d + 1 for d in perm))

    raise NotImplementedError(f"no kernel for opcode {op.opcode}")


# -- plan compilation -----------------------------------------------------

#: conv opcode -> {pool opcode it can absorb: pool kind}.
_POOL_FUSION = {
    "CONV_2D": {"MAX_POOL_2D": "max", "AVG_POOL_2D": "avg"},
    "DEPTHWISE_CONV_2D": {"MAX_POOL_2D": "max", "AVG_POOL_2D": "avg"},
    "CONV_1D": {"MAX_POOL_1D": "max"},
}

#: Opcodes whose plan kernels may return a view of their input's buffer.
_VIEW_OPS = ("RESHAPE", "TRANSPOSE")


def _requantizer(graph: Graph, op: GOp) -> K.Requantizer:
    """The op's requantization, validated and pre-cast once."""
    a = op.attrs
    return K.Requantizer(
        a["out_mult"], a["out_shift"],
        graph.tensors[op.outputs[0]].quant.zero_point,
        a["clamp_min"], a["clamp_max"],
    )


def _bind_op(
    graph: Graph, op: GOp, pool: tuple[int, str] | None, inplace_id: int | None
) -> Callable[[dict[int, np.ndarray]], np.ndarray]:
    """Resolve one op into a closure over pre-fetched weights/attrs.

    All dispatch decisions (opcode, dtype, activation), tensor-table
    lookups, attribute reads and weight-side dtype preparation happen
    here, once; the returned closure only indexes the live-values map
    and calls the kernel.

    int8 conv / dense ops bind the ``*_i8_plan`` kernels on operands
    prepared here (zero point folded into the bias, requantizer
    constants, and the GEMM / depthwise dtype each layer's exactness
    proof allows — see the notes in ``repro.runtime.kernels``).
    ``pool`` is the ``(size, kind)`` of the pool a conv absorbs and
    ``inplace_id`` the dying operand an ADD writes into, both decided by
    :func:`_bind_steps`.
    """
    t = graph.tensors
    a = op.attrs
    is_int8 = t[op.outputs[0]].dtype == "int8"
    x_id = op.inputs[0]
    pool_size, pool_kind = pool or (None, "max")

    if op.opcode in ("CONV_2D", "DEPTHWISE_CONV_2D"):
        w = t[op.inputs[1]].data
        b = t[op.inputs[2]].data
        stride, pad_h, pad_w = a["stride"], a["pad_h"], a["pad_w"]
        if is_int8:
            in_zp = t[x_id].quant.zero_point
            rq = _requantizer(graph, op)
            if op.opcode == "DEPTHWISE_CONV_2D":
                taps, bias = K.prepare_dwconv_i8(w, b, in_zp)
                return lambda v: K.dwconv2d_i8_plan(
                    v[x_id], taps, bias, stride, pad_h, pad_w, in_zp, rq,
                    pool=pool_size, pool_kind=pool_kind,
                )
            kh, kw = w.shape[0], w.shape[1]
            w2d, bias = K.prepare_gemm_i8(w, b, in_zp)
            return lambda v: K.conv2d_i8_plan(
                v[x_id], w2d, kh, kw, bias, stride, pad_h, pad_w, in_zp, rq,
                pool=pool_size, pool_kind=pool_kind,
            )
        act = a.get("activation", "none")
        fn = K.dwconv2d_f32 if op.opcode == "DEPTHWISE_CONV_2D" else K.conv2d_f32
        base = lambda v: fn(v[x_id], w, b, stride, pad_h, pad_w, act)
        if pool_size:
            pfn = K.maxpool2d_f32 if pool_kind == "max" else K.avgpool2d_f32
            return lambda v: pfn(base(v), pool_size)
        return base

    if op.opcode == "CONV_1D":
        w = t[op.inputs[1]].data
        b = t[op.inputs[2]].data
        stride, pad = a["stride"], a["pad"]
        if is_int8:
            k = w.shape[0]
            in_zp = t[x_id].quant.zero_point
            rq = _requantizer(graph, op)
            w2d, bias = K.prepare_gemm_i8(w, b, in_zp)
            return lambda v: K.conv1d_i8_plan(
                v[x_id], w2d, k, bias, stride, pad, in_zp, rq, pool=pool_size
            )
        act = a.get("activation", "none")
        if pool_size:
            return lambda v: K.maxpool1d_f32(
                K.conv1d_f32(v[x_id], w, b, stride, pad, act), pool_size
            )
        return lambda v: K.conv1d_f32(v[x_id], w, b, stride, pad, act)

    if op.opcode == "FULLY_CONNECTED":
        w = t[op.inputs[1]].data
        b = t[op.inputs[2]].data
        if is_int8:
            rq = _requantizer(graph, op)
            w2d, bias = K.prepare_gemm_i8(w, b, t[x_id].quant.zero_point)
            return lambda v: K.fc_i8_plan(v[x_id], w2d, bias, rq)
        act = a.get("activation", "none")
        return lambda v: K.fc_f32(v[x_id], w, b, act)

    if op.opcode in ("MAX_POOL_2D", "MAX_POOL_1D", "AVG_POOL_2D"):
        size = a["pool_size"]
        fn = {
            ("MAX_POOL_2D", True): K.maxpool2d_i8,
            ("MAX_POOL_2D", False): K.maxpool2d_f32,
            ("MAX_POOL_1D", True): K.maxpool1d_i8,
            ("MAX_POOL_1D", False): K.maxpool1d_f32,
            ("AVG_POOL_2D", True): K.avgpool2d_i8,
            ("AVG_POOL_2D", False): K.avgpool2d_f32,
        }[(op.opcode, is_int8)]
        return lambda v: fn(v[x_id], size)

    if op.opcode == "GLOBAL_AVG_POOL_2D":
        fn = K.gap2d_i8 if is_int8 else K.gap2d_f32
        return lambda v: fn(v[x_id])
    if op.opcode == "GLOBAL_AVG_POOL_1D":
        fn = K.gap1d_i8 if is_int8 else K.gap1d_f32
        return lambda v: fn(v[x_id])

    if op.opcode == "RESHAPE":
        out_shape = tuple(t[op.outputs[0]].shape)
        return lambda v: v[x_id].reshape((v[x_id].shape[0],) + out_shape)

    if op.opcode == "ADD":
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
            if inplace_id is not None:
                if b_const is not None:
                    return lambda v: K.add_i8(
                        v[x_id], b_const, out=v[inplace_id], **kw
                    )
                return lambda v: K.add_i8(
                    v[x_id], v[b_id], out=v[inplace_id], **kw
                )
            if b_const is not None:
                return lambda v: K.add_i8(v[x_id], b_const, **kw)
            return lambda v: K.add_i8(v[x_id], v[b_id], **kw)
        act = a.get("activation", "none")
        if inplace_id is not None:
            def add_f32_inplace(v):
                out = np.add(
                    v[x_id],
                    b_const if b_const is not None else v[b_id],
                    out=v[inplace_id],
                )
                return K.activate_f32(out, act)  # the tail add_f32 runs

            return add_f32_inplace
        if b_const is not None:
            return lambda v: K.add_f32(v[x_id], b_const, act)
        return lambda v: K.add_f32(v[x_id], v[b_id], act)

    if op.opcode == "SOFTMAX":
        if is_int8:
            qp = t[op.inputs[0]].quant
            in_scale, in_zp = float(qp.scale[0]), qp.zero_point
            return lambda v: K.softmax_i8(v[x_id], in_scale, in_zp)
        return lambda v: K.softmax_f32(v[x_id])

    if op.opcode == "QUANTIZE":
        out_q = t[op.outputs[0]].quant
        return lambda v: out_q.quantize(v[x_id].astype(np.float32))
    if op.opcode == "DEQUANTIZE":
        in_q = t[x_id].quant
        return lambda v: in_q.dequantize(v[x_id])
    if op.opcode == "TRANSPOSE":
        axes = (0,) + tuple(int(d) + 1 for d in a["perm"])
        return lambda v: np.ascontiguousarray(np.transpose(v[x_id], axes))

    raise NotImplementedError(f"no kernel for opcode {op.opcode}")


@dataclass(frozen=True)
class PlanStep:
    """One compiled step: output tensor id + fully bound kernel closure.

    ``ops`` are the authored op indices the step runs: ``(op,)``, or
    ``(conv, pool)`` for a conv that absorbed its pool — the step keeps
    the conv's opcode and writes the pool's output.  ``reads`` are the
    activation ids the closure reads.  ``inplace_src`` is the tensor id
    whose buffer the closure reuses for its output (``None`` for ordinary
    allocating steps); the arena gives both the same offset.
    """

    opcode: str
    out_id: int
    fn: Callable[[dict[int, np.ndarray]], np.ndarray]
    ops: tuple[int, ...]
    reads: tuple[int, ...] = ()
    inplace_src: int | None = None


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
            kind = _POOL_FUSION[op.opcode].get(ops[pi].opcode)
            if kind is not None:
                absorbed.add(pi)
                step_ops = (oi, pi)
                pool = (int(ops[pi].attrs["pool_size"]), kind)
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
        steps.append(PlanStep(
            op.opcode, out_id, _bind_op(graph, op, pool, inplace_id),
            step_ops, reads, inplace_id,
        ))
    return steps


class CompiledPlan:
    """A straight-line executable plan over a graph.

    Holds the bound :class:`PlanStep` list plus, per step, the activation
    tensor ids whose step lifetime ends at that step (freed as execution
    proceeds).  Closures snapshot weights at compile time (int8 weights
    are pre-cast to the kernels' accumulator dtype), so editing a
    tensor's ``data`` afterwards requires recompiling the plan.
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
        # Dead-activation schedule: tensor ids to drop after each step.
        # The graph output lives past the last step, so it is never
        # scheduled for release.
        self._release: list[list[int]] = [[] for _ in self.steps]
        for tid, (_, last) in self.lifetimes().items():
            if tid != graph.output_id:
                self._release[last].append(tid)

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

    def execute(self, batch: np.ndarray) -> np.ndarray:
        """Run the plan over a batch, dropping each dead activation as
        soon as its last reader has run."""
        values: dict[int, np.ndarray] = {
            self.graph.input_id: prepare_input(self.graph, batch)
        }
        for step, dead in zip(self.steps, self._release):
            values[step.out_id] = step.fn(values)
            for tid in dead:
                del values[tid]
        return values[self.graph.output_id]


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


def prepare_input(graph: Graph, batch: np.ndarray) -> np.ndarray:
    """Coerce caller input to the graph's input dtype (quantizing float
    input for int8 graphs, as the SDK does on-device)."""
    batch = np.asarray(batch)
    in_t = graph.tensors[graph.input_id]
    if in_t.dtype == "int8" and batch.dtype != np.int8:
        batch = in_t.quant.quantize(batch.astype(np.float32))
    elif in_t.dtype == "float32":
        batch = batch.astype(np.float32)
    return batch


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
    """Reference path: per-invoke opcode dispatch, no plan, no freeing.

    Produces bit-identical outputs to :func:`run_graph`.  With
    ``record=True`` returns every activation of the authored graph
    (calibration observes them all; a float32 graph runs the same f32
    kernels here as in its plan).
    """
    values: dict[int, np.ndarray] = {graph.input_id: prepare_input(graph, batch)}
    for op in graph.ops:
        values[op.outputs[0]] = _kernel_call(graph, op, values)
    if record:
        return values
    return values[graph.output_id]


def dequantize_output(graph: Graph, output: np.ndarray) -> np.ndarray:
    """int8 graph output -> float probabilities."""
    out_t = graph.tensors[graph.output_id]
    if out_t.dtype == "int8":
        return out_t.quant.dequantize(output)
    return output
