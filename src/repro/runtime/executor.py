"""Shared graph execution: compiled plans + the reference dispatch path.

Two ways to execute a :class:`repro.graph.Graph`:

- :func:`compile_plan` resolves every op **once** into a bound closure
  (kernel function, weights, biases, quant params and attributes all
  pre-looked-up), so repeated invokes run a straight list of closures.
  This is the hot path used by :func:`run_graph`,
  :class:`repro.runtime.interpreter.TFLMInterpreter` and
  :class:`repro.runtime.eon.EONModel`.
- :func:`run_graph_dispatch` re-resolves each op through the opcode
  dispatch chain on every call — the pre-plan behaviour, kept as the
  reference implementation for equivalence tests and the serving
  benchmark's baseline.

Dispatch calls the generic kernels (the spec); plans bind the
``*_i8_plan`` family of ``repro.runtime.kernels``, whose rewrites are
each proven exact at bind time, so outputs are bit-identical.  Compiled
plans additionally use ``graph.lifetimes()`` to drop dead activations as
execution proceeds (non-record mode), so peak Python-side memory tracks
the arena plan instead of the sum of all activations.

By default :func:`compile_plan` first runs the graph through the
``repro.runtime.passes`` optimization pipeline (fusion, constant
folding, simplification, in-place reuse — each bracketed by the graph
verifier) and binds the optimized graph; ``passes=None`` binds the
authored graph exactly as before.  Optimized plans produce bit-identical
outputs (the pipeline only applies provably exact rewrites), and
``record=True`` execution transparently delegates to an unoptimized plan
so every authored activation is still observable.  Plans are cached per
``(pass signature, engine)`` on the graph instance; a plan is
batch-polymorphic (kernels read window strides off the arrays they are
handed), so one plan serves every batch size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ops import GOp
from repro.runtime import kernels as K
from repro.runtime.passes import DEFAULT_PASS_NAMES, PassConfig, run_passes


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

def _requantizer(graph: Graph, op: GOp) -> K.Requantizer:
    """The op's requantization, validated and pre-cast once."""
    a = op.attrs
    return K.Requantizer(
        a["out_mult"], a["out_shift"],
        graph.tensors[op.outputs[0]].quant.zero_point,
        a["clamp_min"], a["clamp_max"],
    )


def _bind_op(graph: Graph, op: GOp) -> Callable[[dict[int, np.ndarray]], np.ndarray]:
    """Resolve one op into a closure over pre-fetched weights/attrs.

    All dispatch decisions (opcode, dtype, activation), tensor-table
    lookups, attribute reads and weight-side dtype preparation happen
    here, once; the returned closure only indexes the live-values map
    and calls the kernel.

    int8 conv / dense ops bind the ``*_i8_plan`` kernels on operands
    prepared here (zero point folded into the bias, requantizer
    constants, and the GEMM / depthwise dtype each layer's exactness
    proof allows — see the notes in ``repro.runtime.kernels``).
    Pass-pipeline annotations (``gemm_exact``, ``fused_pool``,
    ``inplace`` — see ``repro.runtime.passes``) pick the float64 GEMM
    route and the pool a conv absorbs.
    """
    t = graph.tensors
    a = op.attrs
    is_int8 = t[op.outputs[0]].dtype == "int8"
    x_id = op.inputs[0]

    if op.opcode in ("CONV_2D", "DEPTHWISE_CONV_2D"):
        w = t[op.inputs[1]].data
        b = t[op.inputs[2]].data
        stride, pad_h, pad_w = a["stride"], a["pad_h"], a["pad_w"]
        fused_pool = a.get("fused_pool")
        pool_kind = a.get("fused_pool_kind", "max")
        if is_int8:
            in_zp = t[x_id].quant.zero_point
            rq = _requantizer(graph, op)
            if op.opcode == "DEPTHWISE_CONV_2D":
                taps, bias = K.prepare_dwconv_i8(w, b, in_zp)
                return lambda v: K.dwconv2d_i8_plan(
                    v[x_id], taps, bias, stride, pad_h, pad_w, in_zp, rq,
                    pool=fused_pool, pool_kind=pool_kind,
                )
            kh, kw = w.shape[0], w.shape[1]
            w2d, bias = K.prepare_gemm_i8(w, b, in_zp, a.get("gemm_exact"))
            return lambda v: K.conv2d_i8_plan(
                v[x_id], w2d, kh, kw, bias, stride, pad_h, pad_w, in_zp, rq,
                pool=fused_pool, pool_kind=pool_kind,
            )
        act = a.get("activation", "none")
        fn = K.dwconv2d_f32 if op.opcode == "DEPTHWISE_CONV_2D" else K.conv2d_f32
        base = lambda v: fn(v[x_id], w, b, stride, pad_h, pad_w, act)
        if fused_pool:
            pfn = K.maxpool2d_f32 if pool_kind == "max" else K.avgpool2d_f32
            return lambda v: pfn(base(v), fused_pool)
        return base

    if op.opcode == "CONV_1D":
        w = t[op.inputs[1]].data
        b = t[op.inputs[2]].data
        stride, pad = a["stride"], a["pad"]
        fused_pool = a.get("fused_pool")
        if is_int8:
            k = w.shape[0]
            in_zp = t[x_id].quant.zero_point
            rq = _requantizer(graph, op)
            w2d, bias = K.prepare_gemm_i8(w, b, in_zp, a.get("gemm_exact"))
            return lambda v: K.conv1d_i8_plan(
                v[x_id], w2d, k, bias, stride, pad, in_zp, rq, pool=fused_pool
            )
        act = a.get("activation", "none")
        if fused_pool:
            return lambda v: K.maxpool1d_f32(
                K.conv1d_f32(v[x_id], w, b, stride, pad, act), fused_pool
            )
        return lambda v: K.conv1d_f32(v[x_id], w, b, stride, pad, act)

    if op.opcode == "FULLY_CONNECTED":
        w = t[op.inputs[1]].data
        b = t[op.inputs[2]].data
        if is_int8:
            rq = _requantizer(graph, op)
            w2d, bias = K.prepare_gemm_i8(
                w, b, t[x_id].quant.zero_point, a.get("gemm_exact")
            )
            return lambda v: K.fc_i8_plan(v[x_id], w2d, bias, rq)
        act = a.get("activation", "none")
        return lambda v: K.fc_f32(v[x_id], w, b, act)

    if op.opcode in ("MAX_POOL_2D", "MAX_POOL_1D", "AVG_POOL_2D"):
        pool = a["pool_size"]
        fn = {
            ("MAX_POOL_2D", True): K.maxpool2d_i8,
            ("MAX_POOL_2D", False): K.maxpool2d_f32,
            ("MAX_POOL_1D", True): K.maxpool1d_i8,
            ("MAX_POOL_1D", False): K.maxpool1d_f32,
            ("AVG_POOL_2D", True): K.avgpool2d_i8,
            ("AVG_POOL_2D", False): K.avgpool2d_f32,
        }[(op.opcode, is_int8)]
        return lambda v: fn(v[x_id], pool)

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
        inplace_id = (
            op.inputs[a["inplace"]] if "inplace" in a else None
        )
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
    """One compiled op: output tensor id + fully bound kernel closure.

    ``inplace_src`` is the tensor id whose buffer the closure reuses for
    its output (``None`` for ordinary allocating steps) — the liveness
    accounting credits the reuse instead of double-counting.
    """

    opcode: str
    out_id: int
    fn: Callable[[dict[int, np.ndarray]], np.ndarray]
    inplace_src: int | None = None


class CompiledPlan:
    """A straight-line executable plan over a graph.

    Holds one :class:`PlanStep` per op plus, per step, the list of
    activation tensor ids whose lifetime ends at that step (freed during
    non-record execution).  Closures snapshot weights at compile time
    (int8 weights are pre-cast to the kernels' accumulator dtype), so
    editing a tensor's ``data`` afterwards requires recompiling the plan.
    """

    def __init__(
        self,
        graph: Graph,
        verify: bool = True,
        *,
        source_graph: Graph | None = None,
        pass_outcome=None,
        engine: str | None = None,
    ):
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
        #: The authored graph this plan was compiled from (``graph``
        #: itself when no pass pipeline ran).  Record-mode execution
        #: delegates to an unoptimized plan over it so every authored
        #: activation stays observable.
        self.source_graph = source_graph if source_graph is not None else graph
        #: ``repro.runtime.passes.PassOutcome`` when the pipeline ran.
        self.pass_outcome = pass_outcome
        self.engine = engine
        self.steps: list[PlanStep] = [
            PlanStep(
                op.opcode,
                op.outputs[0],
                _bind_op(graph, op),
                op.inputs[op.attrs["inplace"]] if "inplace" in op.attrs else None,
            )
            for op in graph.ops
        ]
        # Dead-activation schedule: tensor ids to drop after each step.
        # The graph output's lifetime extends past the last op, so it is
        # never scheduled for release.
        lifetimes = graph.lifetimes()
        self._release: list[list[int]] = [[] for _ in graph.ops]
        for tid, (_, last) in lifetimes.items():
            if tid != graph.output_id and last < len(graph.ops):
                self._release[last].append(tid)

    def __len__(self) -> int:
        return len(self.steps)

    def prepare_input(self, batch: np.ndarray) -> np.ndarray:
        """Coerce caller input to the graph's input dtype (quantizing
        float input for int8 graphs, as the SDK does on-device)."""
        batch = np.asarray(batch)
        in_t = self.graph.tensors[self.graph.input_id]
        if in_t.dtype == "int8" and batch.dtype != np.int8:
            batch = in_t.quant.quantize(batch.astype(np.float32))
        elif in_t.dtype == "float32":
            batch = batch.astype(np.float32)
        return batch

    def execute(
        self, batch: np.ndarray, record: bool = False
    ) -> np.ndarray | dict[int, np.ndarray]:
        """Run the plan over a batch.

        With ``record=True`` returns every activation tensor (used by
        calibration and the active-learning embedding hook) and nothing
        is freed; otherwise dead activations are dropped as soon as
        their last consumer has run.  Plans over a pass-optimized graph
        delegate record-mode execution to an unoptimized plan over the
        authored graph, so fusion/folding never hides an activation from
        calibration or the embedding hook.
        """
        if record and self.source_graph is not self.graph:
            return compile_plan(self.source_graph, passes=None).execute(
                batch, record=True
            )
        values: dict[int, np.ndarray] = {
            self.graph.input_id: self.prepare_input(batch)
        }
        if record:
            for step in self.steps:
                values[step.out_id] = step.fn(values)
            return values
        for step, dead in zip(self.steps, self._release):
            values[step.out_id] = step.fn(values)
            for tid in dead:
                del values[tid]
        return values[self.graph.output_id]

    def live_tensor_peak(self, batch_size: int = 1) -> int:
        """Peak bytes of simultaneously-live activations under the
        release schedule (per sample times ``batch_size``) — the
        Python-side analogue of the arena plan's footprint."""
        sizes = {
            tid: self.graph.tensors[tid].size_bytes
            for tid in self.graph.lifetimes()
        }
        live = {self.graph.input_id}
        peak = sizes[self.graph.input_id]
        for step, dead in zip(self.steps, self._release):
            if step.inplace_src is not None:
                # The step writes into a dying input's buffer; the
                # "output" is the same allocation, not a second one.
                live.discard(step.inplace_src)
            live.add(step.out_id)
            peak = max(peak, sum(sizes[t] for t in live))
            live -= set(dead)
        return peak * batch_size


# Guards only the creation of per-graph compile locks (cheap, constant
# work).  Actual compilation serializes per graph, so concurrent shards
# warming *different* models still compile in parallel while racers on
# the *same* cold graph build exactly one plan.
_PLAN_LOCKS_GUARD = threading.Lock()

#: Cache key of the default-configured plan in ``graph._plan_cache``;
#: the one entry FIFO eviction never drops (same object back until a
#: structural edit).
_DEFAULT_PLAN_KEY = (DEFAULT_PASS_NAMES, None)

#: Keyed-plan cache capacity per graph (FIFO eviction).
_PLAN_CACHE_CAP = 16


def _pass_outcome(graph: Graph, config: PassConfig):
    """Run (or fetch the memoized) pass pipeline for this config."""
    memo = graph._pass_outcomes
    outcome = memo.get(config.names)
    if outcome is None:
        outcome = run_passes(graph, config)
        memo[config.names] = outcome
    return outcome


def _build_plan(graph, verify, config, engine) -> CompiledPlan:
    if config is None:
        return CompiledPlan(graph, verify=verify, engine=engine)
    outcome = _pass_outcome(graph, config)
    return CompiledPlan(
        outcome.graph,
        verify=True,
        source_graph=graph,
        pass_outcome=outcome,
        engine=engine,
    )


def _store_plan(graph: Graph, key, plan: CompiledPlan) -> None:
    store = graph._plan_cache
    while len(store) >= _PLAN_CACHE_CAP:
        store.pop(next(k for k in store if k != _DEFAULT_PLAN_KEY))
    store[key] = plan


def compile_plan(
    graph: Graph,
    cache: bool = True,
    verify: bool = True,
    passes: object = "default",
    engine: str | None = None,
) -> CompiledPlan:
    """Compile (or fetch the cached) execution plan for ``graph``.

    ``passes`` selects the optimization pipeline run before binding:
    ``"default"`` (the production pipeline — see
    ``repro.runtime.passes``), ``None`` (bind the authored graph exactly,
    the pre-pipeline behaviour), a :class:`~repro.runtime.passes.PassConfig`,
    or an iterable of registered pass names.  ``engine`` is an opaque
    cache-key component so e.g. the TFLM interpreter and the EON
    compiler never share plan objects.  A plan runs every batch size.

    Plans are memoized on the graph instance per
    ``(pass signature, engine)``; structural edits via
    ``Graph.add_tensor``/``Graph.add_op`` invalidate every cached plan.
    Thread-safe: concurrent callers racing on a cold graph get the same
    plan object.  Every cold compile runs the full graph verifier
    (``repro.analysis.verify_graph``); ``verify=False`` opts out,
    falling back to the legacy structural ``Graph.validate()`` — and
    also disables the pass pipeline, since the pipeline *is* a sequence
    of verifier brackets.
    """
    config = PassConfig.normalize(passes)
    if not verify or (config is not None and not config.names):
        config = None
    key = (config.names if config is not None else None, engine)
    if not cache:
        return _build_plan(graph, verify, config, engine)
    plan = graph._plan_cache.get(key)
    if plan is not None:
        return plan
    with _PLAN_LOCKS_GUARD:
        lock = getattr(graph, "_plan_compile_lock", None)
        if lock is None:
            lock = threading.Lock()
            graph._plan_compile_lock = lock
    with lock:
        plan = graph._plan_cache.get(key)
        if plan is None:
            plan = _build_plan(graph, verify, config, engine)
            _store_plan(graph, key, plan)
    return plan


# -- entry points ----------------------------------------------------------


def run_graph(
    graph: Graph,
    batch: np.ndarray,
    record: bool = False,
) -> np.ndarray | dict[int, np.ndarray]:
    """Execute the graph over a batch (via its compiled plan).

    Float graphs take/return float32.  int8 graphs accept float input (which
    is quantized with the input tensor's qparams, as the SDK does on-device)
    or pre-quantized int8, and return the raw int8 output tensor.

    With ``record=True`` returns every activation tensor (used by
    calibration and the active-learning embedding hook).
    """
    return compile_plan(graph).execute(batch, record=record)


def run_graph_dispatch(
    graph: Graph,
    batch: np.ndarray,
    record: bool = False,
) -> np.ndarray | dict[int, np.ndarray]:
    """Reference path: per-invoke opcode dispatch, no plan, no freeing.

    Kept for equivalence tests and as the baseline in
    ``benchmarks/bench_serving_throughput.py``; produces bit-identical
    outputs to :func:`run_graph`.
    """
    batch = np.asarray(batch)
    in_t = graph.tensors[graph.input_id]
    if in_t.dtype == "int8" and batch.dtype != np.int8:
        batch = in_t.quant.quantize(batch.astype(np.float32))
    elif in_t.dtype == "float32":
        batch = batch.astype(np.float32)

    values: dict[int, np.ndarray] = {graph.input_id: batch}
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
