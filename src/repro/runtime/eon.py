"""The EON Compiler (paper Sec. 4.5, Jongboom 2022).

Compiles a graph to (a) a static execution plan run without any interpreter
dispatch or runtime tensor metadata, and (b) compilable C++ source in which
every kernel call, buffer offset and shape is resolved at compile time.
The generated code calls the same kernels the interpreter dispatches to, so
outputs are bit-identical; only the overheads differ — EON drops the
interpreter core and per-tensor structs, which is where the "up to 55% less
RAM and 35% less ROM" headline comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ops import GOp
from repro.runtime.arena import ArenaPlan, plan_arena
from repro.runtime.executor import CompiledPlan, compile_plan, dequantize_output

_CTYPE = {"float32": "float", "int8": "int8_t", "int32": "int32_t"}


@dataclass
class EONModel:
    """A compiled model: static plan + optional generated sources."""

    graph: Graph
    arena: ArenaPlan
    plan: CompiledPlan | None = None
    sources: dict[str, str] = field(default_factory=dict)

    def invoke(self, batch: np.ndarray) -> np.ndarray:
        # Static plan: a straight-line sequence of bound kernels, no
        # registry lookups, dead activations freed as they die.  The one
        # plan runs every batch size.
        if self.plan is None:
            self.plan = compile_plan(self.graph, engine="eon")
        return self.plan.execute(batch)

    def predict_proba(self, batch: np.ndarray) -> np.ndarray:
        return dequantize_output(self.graph, self.invoke(batch))

    def classify(self, batch: np.ndarray) -> np.ndarray:
        return self.predict_proba(batch).argmax(axis=-1)

    @property
    def arena_bytes(self) -> int:
        return self.arena.total_bytes

    def ram_overhead_bytes(self) -> int:
        """EON keeps no runtime metadata — just a small static context."""
        return 256

    def engine_name(self) -> str:
        return "eon"


class EONCompiler:
    """Ahead-of-time compiler from Graph to :class:`EONModel`.

    Code generation walks the authored graph, one call per op; the
    plan's bind-time decisions (conv+pool fusion, exact GEMM, in-place
    ADD) change which Python kernels it binds, not the emitted C++.
    """

    def compile(self, graph: Graph, emit_source: bool = False) -> EONModel:
        graph.validate()
        arena = plan_arena(graph)
        model = EONModel(
            graph=graph,
            arena=arena,
            plan=compile_plan(graph, engine="eon"),
        )
        if emit_source:
            model.sources = self.generate_source(graph, arena)
        return model

    # -- C++ code generation -----------------------------------------------

    def generate_source(self, graph: Graph, arena: ArenaPlan | None = None) -> dict[str, str]:
        """Emit ``model.h`` / ``model.cpp`` with weights, arena offsets and
        one fully-resolved kernel call per op."""
        if arena is None:
            arena = plan_arena(graph)
        header = self._emit_header(graph, arena)
        cpp = self._emit_cpp(graph, arena)
        return {"eon_model.h": header, "eon_model.cpp": cpp}

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

    def _array_literal(self, name: str, data: np.ndarray, ctype: str) -> str:
        flat = data.reshape(-1)
        if ctype == "float":
            body = ", ".join(f"{v:.8g}f" for v in flat)
        else:
            body = ", ".join(str(int(v)) for v in flat)
        return f"static const {ctype} {name}[{flat.size}] = {{ {body} }};"

    def _emit_cpp(self, graph: Graph, arena: ArenaPlan) -> str:
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
                lines.append(self._array_literal(cname, t.data, _CTYPE[t.dtype]))
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
        for op in graph.ops:
            lines.append("  " + self._emit_call(graph, op, arena, const_names, buf))
        lines += [
            f"  memcpy(output, {buf(graph.output_id)}, {out_t.size_bytes});",
            "  return 0;",
            "}",
            "",
        ]
        return "\n".join(lines)

    def _emit_call(self, graph, op: GOp, arena, const_names, buf) -> str:
        a = op.attrs
        t = graph.tensors
        is_int8 = t[op.outputs[0]].dtype == "int8"
        suffix = "i8" if is_int8 else "f32"
        args = []
        for tid in op.inputs:
            args.append(const_names[tid] if t[tid].is_const else buf(tid))
        args.append(buf(op.outputs[0]))
        in_shape = t[op.inputs[0]].shape
        out_shape = t[op.outputs[0]].shape
        args.append("{" + ",".join(str(d) for d in in_shape) + "}")
        args.append("{" + ",".join(str(d) for d in out_shape) + "}")
        for key in ("stride", "pool_size", "left_shift"):
            if key in a:
                args.append(f"/*{key}=*/{a[key]}")
        if "pad_h" in a:
            args.append(f"/*pad=*/{{{a['pad_h'][0]},{a['pad_w'][0]}}}")
        if is_int8 and "clamp_min" in a:
            args.append(f"/*clamp=*/{{{a['clamp_min']},{a['clamp_max']}}}")
        act = a.get("activation", "none")
        if not is_int8 and act != "none":
            args.append(f"EON_ACT_{act.upper()}")
        fn = f"eon_{op.opcode.lower()}_{suffix}"
        return f"{fn}({', '.join(args)});"
