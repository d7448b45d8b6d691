"""TFLM-style interpreter.

Executes a graph through its compiled plan, bound once at construction
(the AllocateTensors-equivalent step), and refuses any op whose kernel
is not in its registry.  What a real TFLM interpreter costs — tensor and
node structs, the interpreter core, an arena over the authored ops — is
modelled in :mod:`repro.profile.memory`: the overhead the EON Compiler
removes (Sec. 5.3).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.runtime.executor import compile_plan, dequantize_output


class TFLMInterpreter:
    """Interpreter-style engine over a float32 or int8 graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        # AllocateTensors-equivalent: every opcode is resolved to a bound
        # kernel once, here, instead of per-invoke — the graph's one plan,
        # which EON runs too.
        self._plan = compile_plan(graph)
        self._registry = {op.opcode for op in graph.ops}

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
