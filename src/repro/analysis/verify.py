"""The graph IR verifier: invariant checks over ``repro.graph.Graph``.

:func:`verify_graph` runs every check and returns a :class:`Report` of
structured :class:`Diagnostic` objects instead of raising on the first
problem.  It subsumes the legacy ``Graph.validate()`` structural checks
(which now delegate to :func:`check_topology`) and adds:

- shape/dtype inference per op (``repro.analysis.infer``) compared
  against declared tensor metadata;
- quantization consistency (zero points within dtype bounds, positive
  scales, per-channel scale arity, qparams carried unchanged through
  same-scale ops);
- liveness (dead ops, unreachable tensors) and an arena cross-check
  against ``Graph.lifetimes()`` / the arena planner's no-overlap
  invariant.

``compile_plan`` runs :func:`verify_graph` on every cold compile (the
``verify=False`` opt-out skips it) and ``graph_from_bytes`` runs it on
every deserialized graph.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Report
from repro.analysis.infer import (
    ARITY,
    SAME_QPARAMS_OPS,
    InferenceError,
    WEIGHTED_OPS,
    infer_op,
)
from repro.graph.graph import Graph

#: int8 representable bounds — zero points outside this range cannot be
#: encoded in the tensor's own dtype.
_DTYPE_BOUNDS = {
    "int8": (-128, 127),
    "int4": (-8, 7),
    "int32": (-(2**31), 2**31 - 1),
}


class GraphVerificationError(ValueError):
    """A graph failed verification.  Subclasses ``ValueError`` so every
    pre-verifier caller (``compile_plan``, ``graph_from_bytes``,
    ``Graph.validate``) keeps its exception contract; carries the full
    :class:`Report` for callers that want structure.

    The message starts with the first error's message verbatim, so the
    legacy ``Graph.validate()`` wording is preserved as a prefix.
    """

    def __init__(self, report: Report):
        self.report = report
        errors = report.errors
        message = errors[0].message if errors else "graph verification failed"
        if len(errors) > 1:
            message += f" (+{len(errors) - 1} more error(s))"
        super().__init__(message)


# -- topology (the legacy Graph.validate contract) -------------------------


def check_topology(graph: Graph) -> Report:
    """Structural checks: id bounds, execution-order def-before-use,
    exactly one producer per activation tensor, output produced.

    Diagnostics are emitted in the exact scan order (and with the exact
    messages) of the legacy ``Graph.validate()``, which now raises the
    first of these as a ``ValueError``.
    """
    report = Report(subject=graph.name)
    n = len(graph.tensors)
    if not (0 <= graph.input_id < n and 0 <= graph.output_id < n):
        report.add("G006", "input/output tensor ids out of range",
                   hint="set graph.input_id/output_id to valid tensor indices")
    produced = {graph.input_id}
    producers: dict[int, int] = {}
    for oi, op in enumerate(graph.ops):
        for t in op.inputs:
            if not 0 <= t < n:
                report.add("G001", f"op {oi} input {t} out of range",
                           op_index=oi, tensor_id=t)
                continue
            if not graph.tensors[t].is_const and t not in produced:
                report.add(
                    "G002",
                    f"op {oi} ({op.opcode}) consumes tensor {t} before production",
                    op_index=oi, tensor_id=t,
                    hint="reorder ops so every producer precedes its consumers",
                )
        for t in op.outputs:
            if not 0 <= t < n:
                report.add("G001", f"op {oi} output {t} out of range",
                           op_index=oi, tensor_id=t)
                continue
            if t in producers:
                report.add("G003", f"tensor {t} produced twice",
                           op_index=oi, tensor_id=t,
                           hint=f"tensor {t} is already written by op {producers[t]}")
                continue
            if graph.tensors[t].is_const:
                report.add("G004", f"op {oi} writes constant tensor {t}",
                           op_index=oi, tensor_id=t,
                           hint="ops may only write activation tensors")
                continue
            producers[t] = oi
            produced.add(t)
    if graph.output_id not in produced:
        report.add("G005", "output tensor is never produced",
                   tensor_id=graph.output_id)
    return report


# -- shape / dtype inference ----------------------------------------------


def check_shapes(graph: Graph) -> Report:
    """Compare each op's inferred output shapes/dtypes against the
    declared tensors.  Ops with out-of-range indices are skipped (the
    topology check owns those)."""
    report = Report(subject=graph.name)
    n = len(graph.tensors)
    for oi, op in enumerate(graph.ops):
        if any(not 0 <= t < n for t in op.inputs + op.outputs):
            continue
        arity = ARITY.get(op.opcode)
        if arity is not None and (len(op.inputs), len(op.outputs)) != arity:
            report.add(
                "G013",
                f"op {oi} ({op.opcode}) has {len(op.inputs)} input(s)/"
                f"{len(op.outputs)} output(s); expected {arity[0]}/{arity[1]}",
                op_index=oi,
            )
            continue
        try:
            facts = infer_op(op, [graph.tensors[t] for t in op.inputs])
        except InferenceError as exc:
            report.add("G012", f"op {oi} ({op.opcode}): {exc}", op_index=oi)
            continue
        for out_id, want in zip(op.outputs, facts.out_shapes):
            got = tuple(graph.tensors[out_id].shape)
            if got != tuple(want):
                report.add(
                    "G010",
                    f"op {oi} ({op.opcode}) produces shape {tuple(want)} but "
                    f"tensor {out_id} declares {got}",
                    op_index=oi, tensor_id=out_id,
                    hint="fix the declared shape or the op's operands/attrs",
                )
            declared = graph.tensors[out_id].dtype
            if declared != facts.out_dtype:
                report.add(
                    "G011",
                    f"op {oi} ({op.opcode}) produces dtype {facts.out_dtype} "
                    f"but tensor {out_id} declares {declared}",
                    op_index=oi, tensor_id=out_id,
                )
    return report


# -- quantization consistency ---------------------------------------------


def check_quantization(graph: Graph) -> Report:
    """Quant-parameter invariants the int8 kernels rely on."""
    report = Report(subject=graph.name)
    for tid, t in enumerate(graph.tensors):
        if t.dtype in ("int8", "int4") and t.quant is None:
            report.add(
                "G020", f"{t.dtype} tensor {tid} ({t.name!r}) has no quant params",
                tensor_id=tid,
                hint="quantized kernels need scale/zero_point to interpret values",
            )
        if t.dtype == "int4":
            # int4 is a weights-only storage format: data lives unpacked
            # as int8 values in [-8, 7] (two nibbles per byte on flash).
            if not t.is_const:
                report.add(
                    "G026",
                    f"int4 tensor {tid} ({t.name!r}) is not a constant "
                    f"(int4 is a packed weight format, not an activation dtype)",
                    tensor_id=tid,
                    hint="activations stay int8; only conv/dense weights pack to int4",
                )
            elif t.data.size and (int(t.data.min()) < -8 or int(t.data.max()) > 7):
                report.add(
                    "G025",
                    f"int4 tensor {tid} ({t.name!r}) holds values in "
                    f"[{int(t.data.min())}, {int(t.data.max())}], outside the "
                    f"packable [-8, 7] range",
                    tensor_id=tid,
                    hint="re-quantize with scale = max_abs / 7 before packing",
                )
        if t.quant is None:
            continue
        scale = np.atleast_1d(t.quant.scale)
        if not np.all(np.isfinite(scale)) or np.any(scale <= 0):
            report.add(
                "G022",
                f"tensor {tid} ({t.name!r}) has non-positive quant scale "
                f"(min {float(scale.min())!r})",
                tensor_id=tid,
            )
        lo, hi = _DTYPE_BOUNDS.get(t.dtype, (None, None))
        zp = t.quant.zero_point
        if lo is not None and not lo <= zp <= hi:
            report.add(
                "G021",
                f"tensor {tid} ({t.name!r}) zero point {zp} outside "
                f"{t.dtype} range [{lo}, {hi}]",
                tensor_id=tid,
                hint="an unrepresentable zero point silently saturates requantization",
            )
        if t.quant.per_channel:
            if zp != 0:
                report.add(
                    "G021",
                    f"tensor {tid} ({t.name!r}) is per-channel but has "
                    f"zero point {zp} (per-channel quantization is symmetric)",
                    tensor_id=tid,
                )
            # Per-channel scales line up with the output-channel axis:
            # last axis for conv/dense weights and bias vectors, the
            # flattened (C, DM) pair for depthwise weights.
            want = {t.shape[-1]} if t.shape else {1}
            if len(t.shape) == 4:
                want.add(t.shape[-2] * t.shape[-1])
            if len(scale) not in want:
                report.add(
                    "G024",
                    f"tensor {tid} ({t.name!r}) has {len(scale)} per-channel "
                    f"scale(s) for shape {t.shape} (expected {sorted(want)})",
                    tensor_id=tid,
                )
    # Same-scale ops must carry input qparams through unchanged.
    n = len(graph.tensors)
    for oi, op in enumerate(graph.ops):
        if op.opcode not in SAME_QPARAMS_OPS or not op.inputs or not op.outputs:
            continue
        if not (0 <= op.inputs[0] < n and 0 <= op.outputs[0] < n):
            continue
        t_in, t_out = graph.tensors[op.inputs[0]], graph.tensors[op.outputs[0]]
        if t_in.dtype != "int8" or t_in.quant is None or t_out.quant is None:
            continue
        if (t_in.quant.zero_point != t_out.quant.zero_point
                or not np.array_equal(t_in.quant.scale, t_out.quant.scale)):
            report.add(
                "G023",
                f"op {oi} ({op.opcode}) must preserve qparams but input "
                f"tensor {op.inputs[0]} and output tensor {op.outputs[0]} differ",
                op_index=oi, tensor_id=op.outputs[0],
                hint="same-scale kernels copy raw int8 values; rescaling needs "
                     "an explicit requantize step",
            )
    return report


# -- liveness: dead ops, unreachable tensors, arena cross-check ------------


def check_liveness(graph: Graph) -> Report:
    """Dead ops (outputs unreachable from the graph output) and
    activation tensors no op ever touches.  Both are warnings: the graph
    still executes, but it wastes arena bytes and kernel invokes."""
    report = Report(subject=graph.name)
    needed = {graph.output_id}
    dead: list[int] = []
    for oi in range(len(graph.ops) - 1, -1, -1):
        op = graph.ops[oi]
        if any(t in needed for t in op.outputs):
            needed.update(op.inputs)
        else:
            dead.append(oi)
    for oi in reversed(dead):
        op = graph.ops[oi]
        report.add(
            "G030",
            f"op {oi} ({op.opcode}) is dead: its output(s) "
            f"{list(op.outputs)} never reach the graph output",
            op_index=oi,
            hint="remove the op or rewire a consumer",
        )
    touched = {graph.input_id, graph.output_id}
    for op in graph.ops:
        touched.update(op.inputs)
        touched.update(op.outputs)
    for tid, t in enumerate(graph.tensors):
        if not t.is_const and tid not in touched:
            report.add(
                "G031",
                f"activation tensor {tid} ({t.name!r}) is never read or written",
                tensor_id=tid,
                hint="drop it from the graph so the arena planner ignores it",
            )
    return report


def check_arena(graph: Graph, plan=None) -> Report:
    """Cross-check tensor lifetimes against an arena plan.

    Every read must land inside the reader's declared lifetime window,
    and no two simultaneously-live tensors may share arena bytes
    (:meth:`repro.runtime.arena.ArenaPlan.overlaps`, over the lifetimes
    the arena was planned on).  Pass ``plan`` to audit a specific arena —
    EON's step arena, or a hand-edited one; by default the greedy
    planner's arena over the authored graph is checked.
    """
    report = Report(subject=graph.name)
    lifetimes = graph.lifetimes()
    for oi, op in enumerate(graph.ops):
        for t in op.inputs:
            if graph.tensors[t].is_const:
                continue
            window = lifetimes.get(t)
            if window is None or not window[0] <= oi <= window[1]:
                report.add(
                    "G040",
                    f"op {oi} reads tensor {t} outside its lifetime "
                    f"window {window}",
                    op_index=oi, tensor_id=t,
                )
    if plan is None:
        from repro.runtime.arena import plan_arena  # lazy: avoids an import
        # cycle (runtime.executor verifies graphs through this module)
        plan = plan_arena(graph)
    for a, b in plan.overlaps():
        report.add(
            "G041",
            f"tensors {a} and {b} are simultaneously live but overlap in "
            f"the arena (offsets {plan.offsets[a]} and {plan.offsets[b]})",
            tensor_id=a,
            hint="the arena planner must re-run after any lifetime change",
        )
    return report


# -- the one-call entry point ---------------------------------------------


def verify_graph(graph: Graph, *, arena: bool = True) -> Report:
    """Run every graph check and return the combined report.

    Liveness and arena checks only run once topology is clean (their
    inputs — ``graph.lifetimes()`` — are undefined on graphs with
    def-before-use or unproduced outputs).  ``arena=False`` skips the
    arena planner cross-check (the planner re-validates at plan time).
    """
    report = check_topology(graph)
    topology_ok = report.ok
    report.extend(check_shapes(graph))
    report.extend(check_quantization(graph))
    if topology_ok:
        report.extend(check_liveness(graph))
        if arena:
            report.extend(check_arena(graph))
    return report


def verify_graph_or_raise(graph: Graph, *, arena: bool = True) -> Report:
    """``verify_graph`` that raises :class:`GraphVerificationError` on
    errors (warnings pass).  The ``compile_plan`` / deserialization hook.

    On success the graph's ``_verified_ok`` memo is set, so repeated
    compiles of an unchanged graph skip re-verification (the memo shares
    the compiled-plan invalidation contract: any ``add_tensor``/
    ``add_op`` clears it).
    """
    report = verify_graph(graph, arena=arena)
    if not report.ok:
        raise GraphVerificationError(report)
    graph._verified_ok = True
    return report
