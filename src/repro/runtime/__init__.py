"""Inference runtime.

One model class executes a :class:`repro.graph.Graph`:
:class:`repro.runtime.eon.EONModel`, the graph's one compiled plan, made
by :class:`repro.runtime.eon.EONCompiler` (which also emits the plan as
C++ source).  The TFLM and EON engines of paper Sec. 5.3 do the same
arithmetic and differ in RAM and flash only — interpreter core,
per-tensor structs, the arena over the authored ops — which
:mod:`repro.profile.memory` prices; no runtime path depends on the
engine.
"""

from repro.runtime.arena import ArenaPlan, plan_arena
from repro.runtime.executor import (
    CompiledPlan,
    compile_plan,
    run_graph,
    run_graph_dispatch,
)
from repro.runtime.eon import EONCompiler, EONModel

# The deleted TFLM interpreter's name, importable only because the frozen
# benchmarks/e2e workloads build their oracle with it.  It is EONModel:
# no registry, no second plan, no isinstance meaning.
TFLMInterpreter = EONModel

__all__ = [
    "run_graph",
    "run_graph_dispatch",
    "compile_plan",
    "CompiledPlan",
    "plan_arena",
    "ArenaPlan",
    "EONCompiler",
    "EONModel",
]
