"""The Graph container: tensors + topologically ordered ops."""

from __future__ import annotations

import numpy as np

from repro.graph.ops import GOp, GTensor


class Graph:
    """An inference graph.

    ``ops`` are stored in execution order (conversion emits them that way).
    ``input_id``/``output_id`` index into ``tensors``.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.tensors: list[GTensor] = []
        self.ops: list[GOp] = []
        self.input_id: int = -1
        self.output_id: int = -1
        # The memoized CompiledPlan every runtime path runs (see
        # repro.runtime.executor.compile_plan); cleared by structural
        # edits.
        self._plan = None
        # Set after a successful full verification (repro.analysis); the
        # compile path skips re-verifying an unchanged graph.  Shares the
        # plan memo's staleness contract: structural edits clear it,
        # in-place tensor mutation requires re-verifying explicitly.
        self._verified_ok = False

    # -- construction --------------------------------------------------------

    def _invalidate(self) -> None:
        """Structural edit: drop every derived memo (plan,
        verification)."""
        self._plan = None
        self._verified_ok = False

    def add_tensor(self, tensor: GTensor) -> int:
        self._invalidate()
        self.tensors.append(tensor)
        return len(self.tensors) - 1

    def add_op(self, op: GOp) -> None:
        self._invalidate()
        self.ops.append(op)

    # -- introspection --------------------------------------------------------

    @property
    def dtype(self) -> str:
        return self.tensors[self.input_id].dtype

    def const_tensors(self) -> list[GTensor]:
        return [t for t in self.tensors if t.is_const]

    def activation_tensors(self) -> list[int]:
        return [i for i, t in enumerate(self.tensors) if not t.is_const]

    def weight_bytes(self) -> int:
        return sum(t.size_bytes for t in self.const_tensors())

    def total_macs(self) -> int:
        from repro.graph.ops import op_macs

        return sum(op_macs(op, self.tensors) for op in self.ops)

    def op_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.opcode] = counts.get(op.opcode, 0) + 1
        return counts

    def validate(self) -> None:
        """Structural checks: index bounds, execution-order def-before-use,
        exactly one producer per activation tensor.

        Delegates to the analysis layer's topology check and raises the
        first error as a ``ValueError`` (a ``GraphVerificationError``),
        preserving the historical messages.  For the full verifier —
        shapes, dtypes, quantization, liveness — use
        ``repro.analysis.verify_graph``.
        """
        from repro.analysis.verify import (  # lazy: analysis imports graph
            GraphVerificationError,
            check_topology,
        )

        report = check_topology(self)
        if not report.ok:
            raise GraphVerificationError(report)

    def lifetimes(self) -> dict[int, tuple[int, int]]:
        """First-def / last-use op index per activation tensor.

        The graph input is alive from "before op 0"; the output must survive
        past the last op.  Used by the plan binder and TFLM's arena.
        """
        first: dict[int, int] = {self.input_id: 0}
        last: dict[int, int] = {self.input_id: 0}
        for oi, op in enumerate(self.ops):
            for t in op.inputs:
                if not self.tensors[t].is_const:
                    last[t] = oi
            for t in op.outputs:
                first.setdefault(t, oi)
                last[t] = oi
        last[self.output_id] = len(self.ops)
        return {t: (first[t], last[t]) for t in first}

    def render(self) -> str:
        """Text rendering of the dataflow (used for the Fig. 2 view)."""
        lines = [f"graph {self.name} ({self.dtype})"]
        for oi, op in enumerate(self.ops):
            ins = ", ".join(
                f"{t}:{'w' if self.tensors[t].is_const else 'a'}{list(self.tensors[t].shape)}"
                for t in op.inputs
            )
            outs = ", ".join(
                f"{t}:{list(self.tensors[t].shape)}" for t in op.outputs
            ) or "(none)"
            act = op.attrs.get("activation", "none")
            suffix = f" +{act}" if act != "none" else ""
            lines.append(
                f"  [{oi:>2}] {op.opcode:<20}{suffix:<7} ({ins}) -> {outs}"
            )
        return "\n".join(lines)
