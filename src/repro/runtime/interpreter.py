"""TFLM-style interpreter.

Executes a graph through a plan compiled at construction time (the
AllocateTensors-equivalent step), carrying the runtime bookkeeping a real
TFLM interpreter holds in SRAM: a tensor struct per tensor, a node struct
per op, and the arena.  The profiler charges these
structures to RAM and the interpreter core + registered kernels to flash,
which is exactly the overhead the EON Compiler removes (Sec. 5.3).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.runtime.arena import ArenaPlan, plan_arena
from repro.runtime.executor import CompiledPlan, compile_plan, dequantize_output


class TFLMInterpreter:
    """Interpreter-style engine over a float32 or int8 graph."""

    #: bytes of RAM per TfLiteTensor-equivalent runtime struct
    TENSOR_STRUCT_BYTES = 64
    #: bytes of RAM per node/registration pair
    NODE_STRUCT_BYTES = 32
    #: fixed interpreter state (MicroInterpreter, allocator, error reporter)
    FIXED_RAM_BYTES = 1536

    def __init__(self, graph: Graph):
        graph.validate()
        self.graph = graph
        self.arena: ArenaPlan = plan_arena(graph)
        # AllocateTensors-equivalent: every opcode is resolved to a bound
        # kernel once, here, instead of per-invoke — the same steps EON
        # binds.
        self._plan: CompiledPlan = compile_plan(graph, engine="tflm")
        self._registry = {op.opcode for op in graph.ops}

    # -- execution -------------------------------------------------------------

    def invoke(self, batch: np.ndarray) -> np.ndarray:
        """Run inference; returns the raw output tensor (int8 graphs return
        int8 — use :meth:`classify` or :meth:`predict_proba` for floats)."""
        # TFLM fidelity: an opcode removed from the registry (a kernel the
        # firmware never linked) must refuse to run, even though the plan
        # has it bound.  The check walks the authored ops, not the plan's
        # steps: a pool a conv step absorbed still needs its kernel.
        for op in self.graph.ops:
            if op.opcode not in self._registry:
                raise RuntimeError(f"op {op.opcode} not registered")
        return self._plan.execute(batch)

    def predict_proba(self, batch: np.ndarray) -> np.ndarray:
        return dequantize_output(self.graph, self.invoke(batch))

    def classify(self, batch: np.ndarray) -> np.ndarray:
        return self.predict_proba(batch).argmax(axis=-1)

    # -- resource accounting -----------------------------------------------------

    @property
    def arena_bytes(self) -> int:
        return self.arena.total_bytes

    def ram_overhead_bytes(self) -> int:
        """Runtime RAM beyond the arena: tensor metadata + node structs +
        fixed interpreter state."""
        return (
            self.FIXED_RAM_BYTES
            + self.TENSOR_STRUCT_BYTES * len(self.graph.tensors)
            + self.NODE_STRUCT_BYTES * len(self.graph.ops)
        )

    def engine_name(self) -> str:
        return "tflm"
