"""The EON Compiler (paper Sec. 4.5, Jongboom 2022).

Compiles a graph to (a) :class:`EONModel`, the one runtime model: the
graph's static execution plan, run without any interpreter dispatch or
runtime tensor metadata, and (b) compilable C++ source in which every
kernel call, buffer offset and shape is resolved at compile time, the
same plan's steps at the offsets of ``plan_arena(plan)`` (the arena
Table 4 prices).

EON and TFLM do the same arithmetic and differ only in overheads: EON
drops the interpreter core and per-tensor structs, which is where the
"up to 55% less RAM and 35% less ROM" headline comes from.
:mod:`repro.profile.memory` prices that difference; nothing here runs
it, so one model serves either engine bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ops import GTensor, kernel_precision, pack_int4
from repro.runtime.arena import ArenaPlan
from repro.runtime.executor import (
    _POOL_KINDS, CompiledPlan, PlanStep, compile_plan, dequantize_output,
)

#: int4 weights are emitted packed, two nibbles per byte.
_CTYPE = {"float32": "float", "int8": "int8_t", "int4": "uint8_t", "int32": "int32_t"}
_SUFFIX = {"float32": "f32", "int8": "i8", "int4": "i4"}


def _float_literal(v: float) -> str:
    """Nine significant digits round-trip every float32; the point keeps
    e.g. ``0`` and ``1`` from being integer constants, which take no
    ``f`` suffix."""
    s = f"{v:.9g}"
    if "." not in s and "e" not in s:
        s += ".0"
    return s + "f"


class EONModel:
    """A compiled model: the graph and its one plan, run with no
    interpreter dispatch and no per-tensor metadata."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.plan = compile_plan(graph)

    def invoke(self, batch: np.ndarray) -> np.ndarray:
        """Raw output tensor (an int8 graph returns int8 — use
        :meth:`predict_proba` or :meth:`classify` for floats).  The
        static plan is a straight-line sequence of bound kernels, every
        step at its arena offset; it runs every batch size."""
        return self.plan.execute(batch)

    def predict_proba(self, batch: np.ndarray) -> np.ndarray:
        return dequantize_output(self.graph, self.invoke(batch))

    def classify(self, batch: np.ndarray) -> np.ndarray:
        return self.predict_proba(batch).argmax(axis=-1)


class EONCompiler:
    """Ahead-of-time compiler from Graph to :class:`EONModel`.

    Code generation walks the plan's steps, one kernel call per step: a
    conv that absorbed its pool is one fused call writing the pooled
    tensor, and an in-place ADD writes its operand's buffer.
    """

    def compile(self, graph: Graph) -> EONModel:
        return EONModel(graph)

    # -- C++ code generation -----------------------------------------------

    def generate_source(self, graph: Graph) -> dict[str, str]:
        """Emit ``model.h`` / ``model.cpp`` with weights, arena offsets and
        one fully-resolved kernel call per plan step."""
        plan = compile_plan(graph)
        arena = plan.arena
        return {
            "eon_model.h": self._emit_header(graph, arena),
            "eon_model.cpp": self._emit_cpp(plan, arena),
        }

    def _emit_header(self, graph: Graph, arena: ArenaPlan) -> str:
        in_t = graph.tensors[graph.input_id]
        out_t = graph.tensors[graph.output_id]
        lines = [
            "// Generated by the EON Compiler (repro). Do not edit.",
            "#pragma once",
            "#include <stdint.h>",
            "",
            f"#define EON_ARENA_SIZE {arena.total_bytes}",
            f"#define EON_INPUT_ELEMENTS {int(np.prod(in_t.shape))}",
            f"#define EON_OUTPUT_ELEMENTS {int(np.prod(out_t.shape))}",
            "",
            f"int eon_run_classifier(const {_CTYPE[in_t.dtype]}* input,",
            f"                       {_CTYPE[out_t.dtype]}* output);",
            "",
        ]
        return "\n".join(lines)

    def _array_literal(self, name: str, t: GTensor) -> str:
        # int4 weights as the packed bytes graph_to_bytes stores.
        flat = pack_int4(t.data) if t.dtype == "int4" else t.data.reshape(-1)
        fmt = _float_literal if t.dtype == "float32" else str
        body = ", ".join(fmt(v) for v in flat.tolist())
        return f"static const {_CTYPE[t.dtype]} {name}[{flat.size}] = {{ {body} }};"

    def _emit_cpp(self, plan: CompiledPlan, arena: ArenaPlan) -> str:
        graph = plan.graph
        lines = [
            "// Generated by the EON Compiler (repro). Do not edit.",
            '#include "eon_model.h"',
            '#include "eon_kernels.h"  // reference kernels, shipped with the SDK',
            "#include <string.h>  // memcpy",
            "",
            "static uint8_t eon_arena[EON_ARENA_SIZE];",
            "",
        ]
        const_names: dict[int, str] = {}
        for tid, t in enumerate(graph.tensors):
            if t.is_const:
                cname = f"g_{t.name}".replace("-", "_")
                const_names[tid] = cname
                lines.append(self._array_literal(cname, t))
        lines.append("")

        def buf(tid: int) -> str:
            t = graph.tensors[tid]
            return f"(({_CTYPE[t.dtype]}*)(eon_arena + {arena.offsets[tid]}))"

        in_t = graph.tensors[graph.input_id]
        out_t = graph.tensors[graph.output_id]
        lines += [
            f"int eon_run_classifier(const {_CTYPE[in_t.dtype]}* input,",
            f"                       {_CTYPE[out_t.dtype]}* output) {{",
            f"  memcpy({buf(graph.input_id)}, input, "
            f"{in_t.size_bytes});",
        ]
        for step in plan.steps:
            lines.append("  " + self._emit_call(graph, step, const_names, buf))
        lines += [
            f"  memcpy(output, {buf(graph.output_id)}, {out_t.size_bytes});",
            "  return 0;",
            "}",
            "",
        ]
        return "\n".join(lines)

    def _emit_call(self, graph: Graph, step: PlanStep, const_names, buf) -> str:
        t = graph.tensors
        op = graph.ops[step.ops[0]]
        a = dict(op.attrs)
        name = op.opcode.lower()
        if len(step.ops) == 2:  # conv + the pool it absorbed: one call
            pool = graph.ops[step.ops[1]]
            a["pool_size"] = pool.attrs["pool_size"]
            name += f"_{_POOL_KINDS[pool.opcode]}pool"
        prec = kernel_precision(op, t)
        is_int = prec != "float32"
        args = [const_names[tid] if t[tid].is_const else buf(tid) for tid in op.inputs]
        # An in-place ADD's output shares its operand's arena offset.
        args.append(buf(step.out_id))
        args.append("{" + ",".join(str(d) for d in t[op.inputs[0]].shape) + "}")
        args.append("{" + ",".join(str(d) for d in t[step.out_id].shape) + "}")
        for key in ("stride", "pool_size", "left_shift"):
            if key in a:
                args.append(f"/*{key}=*/{a[key]}")
        if "pad_h" in a:
            args.append(f"/*pad=*/{{{a['pad_h'][0]},{a['pad_w'][0]}}}")
        if is_int and "clamp_min" in a:
            args.append(f"/*clamp=*/{{{a['clamp_min']},{a['clamp_max']}}}")
        act = a.get("activation", "none")
        if not is_int and act != "none":
            args.append(f"EON_ACT_{act.upper()}")
        return f"eon_{name}_{_SUFFIX[prec]}({', '.join(args)});"
