"""Tensor-arena memory planner.

Activation tensors live in one contiguous SRAM arena; the planner assigns
byte offsets so tensors with overlapping lifetimes never overlap in memory.
The arena is the dominant RAM term of Table 4 for both engines:
``plan_arena(graph)`` places the authored ops' lifetimes (TFLM's arena:
TFLM fuses nothing), ``plan_arena(compile_plan(graph))`` the plan's steps
(EON's: no fused conv's pre-pool tensor, an in-place ADD's output at its
operand's offset).

Strategies:

- ``greedy``: first-fit on tensors sorted by size (descending) — what TFLM's
  ``GreedyMemoryPlanner`` does.  Near-optimal for chain graphs.
- ``naive``: every tensor gets its own slot (no reuse) — the ablation
  baseline showing why planning matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.graph.graph import Graph

if TYPE_CHECKING:
    from repro.runtime.executor import CompiledPlan

_ALIGN = 16  # TFLM aligns arena allocations to 16 bytes


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass
class ArenaPlan:
    """Result of planning: offsets per activation tensor + total size,
    with the lifetimes they were planned on.  ``aliases`` maps an
    in-place output to the tensor whose buffer it shares."""

    offsets: dict[int, int] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)
    total_bytes: int = 0
    strategy: str = "greedy"
    lifetimes: dict[int, tuple[int, int]] = field(default_factory=dict)
    aliases: dict[int, int] = field(default_factory=dict)

    def overlaps(self) -> list[tuple[int, int]]:
        """Return pairs of tensors that violate the no-overlap invariant
        (simultaneously alive AND overlapping in memory, and not one
        buffer by aliasing).  Empty == valid."""
        bad = []
        ids = list(self.offsets)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if self.aliases.get(a, a) == self.aliases.get(b, b):
                    continue
                la, lb = self.lifetimes[a], self.lifetimes[b]
                alive_together = la[0] <= lb[1] and lb[0] <= la[1]
                if not alive_together:
                    continue
                a0, a1 = self.offsets[a], self.offsets[a] + self.sizes[a]
                b0, b1 = self.offsets[b], self.offsets[b] + self.sizes[b]
                if a0 < b1 and b0 < a1:
                    bad.append((a, b))
        return bad


def first_fit(sizes: dict, spans: dict) -> dict:
    """First-fit decreasing: place big buffers first, each at the lowest
    offset that does not collide with an already-placed buffer whose
    inclusive ``(first, last)`` span meets its own."""
    offsets: dict = {}
    for key in sorted(spans, key=lambda k: (-sizes[k], spans[k][0])):
        lt = spans[key]
        conflicts = sorted(
            (offsets[other], offsets[other] + sizes[other])
            for other in offsets
            if lt[0] <= spans[other][1] and spans[other][0] <= lt[1]
        )
        offset = 0
        for c0, c1 in conflicts:
            if offset + sizes[key] <= c0:
                break
            offset = max(offset, c1)
        offsets[key] = offset
    return offsets


def plan_arena(source: Graph | CompiledPlan, strategy: str = "greedy") -> ArenaPlan:
    """Assign arena offsets to every activation of ``source``: an
    authored :class:`Graph` (TFLM's arena) or a compiled plan's steps
    (EON's)."""
    graph, aliases = source, {}
    if not isinstance(source, Graph):
        graph = source.graph
        for step in source.steps:
            if step.inplace_src is not None:
                aliases[step.out_id] = aliases.get(step.inplace_src, step.inplace_src)
    lifetimes = source.lifetimes()
    sizes = {
        tid: _align(graph.tensors[tid].size_bytes)
        for tid in lifetimes
        if not graph.tensors[tid].is_const
    }
    plan = ArenaPlan(strategy=strategy, sizes=sizes, lifetimes=lifetimes, aliases=aliases)
    # One buffer per non-aliased tensor, alive until its last alias dies.
    spans = {tid: lifetimes[tid] for tid in sizes if tid not in aliases}
    for tid, root in aliases.items():
        spans[root] = (spans[root][0], max(spans[root][1], lifetimes[tid][1]))

    if strategy == "naive":
        offset = 0
        for tid in spans:
            plan.offsets[tid] = offset
            offset += sizes[tid]
    elif strategy == "greedy":
        plan.offsets = first_fit(sizes, spans)
    else:
        raise ValueError(f"unknown arena strategy {strategy!r}")

    for tid, root in aliases.items():
        plan.offsets[tid] = plan.offsets[root]
    plan.total_bytes = max(
        (plan.offsets[t] + sizes[t] for t in plan.offsets), default=0
    )
    return plan
