"""repro.analysis — static analysis for the platform.

Two legs: the graph IR verifier (shape/dtype/quant inference + invariant
checks over ``repro.graph.Graph``, run by ``compile_plan`` and on
deserialization) and the platform linter (lock discipline, lock order,
API consistency), exposed as ``python -m repro.analysis``.
"""

from repro.analysis.diagnostics import CODES, Diagnostic, Report
from repro.analysis.infer import ARITY, InferenceError, OpFacts, infer_op
from repro.analysis.locklint import (
    lint_lock_discipline,
    lint_lock_order,
)
from repro.analysis.platformlint import lint_platform
from repro.analysis.verify import (
    GraphVerificationError,
    check_arena,
    check_liveness,
    check_quantization,
    check_shapes,
    check_topology,
    verify_graph,
    verify_graph_or_raise,
)

__all__ = [
    "ARITY",
    "CODES",
    "Diagnostic",
    "GraphVerificationError",
    "InferenceError",
    "OpFacts",
    "Report",
    "check_arena",
    "check_liveness",
    "check_quantization",
    "check_shapes",
    "check_topology",
    "infer_op",
    "lint_lock_discipline",
    "lint_lock_order",
    "lint_platform",
    "verify_graph",
    "verify_graph_or_raise",
]
