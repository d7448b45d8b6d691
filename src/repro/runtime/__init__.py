"""Inference runtimes.

Two engines execute the same :class:`repro.graph.Graph` through its one
compiled plan and produce bit-identical outputs; they differ in the
overheads they carry — exactly the comparison of paper Sec. 5.3, priced
by :mod:`repro.profile.memory`:

- :class:`repro.runtime.interpreter.TFLMInterpreter`: op registry over
  the authored ops, the TFLM model.
- :class:`repro.runtime.eon.EONCompiler`: the static plan plus generated
  C++ source running its steps in the step arena, the EON Compiler model.
"""

from repro.runtime.arena import ArenaPlan, plan_arena
from repro.runtime.executor import (
    CompiledPlan,
    compile_plan,
    run_graph,
    run_graph_dispatch,
)
from repro.runtime.interpreter import TFLMInterpreter
from repro.runtime.eon import EONCompiler, EONModel

__all__ = [
    "run_graph",
    "run_graph_dispatch",
    "compile_plan",
    "CompiledPlan",
    "plan_arena",
    "ArenaPlan",
    "TFLMInterpreter",
    "EONCompiler",
    "EONModel",
]
