"""Ablation: arena planning strategies.

Greedy lifetime-aware offset assignment (what TFLM and EON both do, over
the authored ops and the plan's steps respectively) versus a naive
no-reuse allocator — the reason the paper's RAM numbers are possible at
all on 256 kB parts.
"""

from conftest import save_result

from repro.experiments.tasks import paper_scale_graphs
from repro.runtime import compile_plan, plan_arena


def test_ablation_arena_planning(benchmark):
    specs = {t: paper_scale_graphs(t) for t in ("kws", "vww", "ic")}

    def plan_all():
        out = {}
        for task, spec in specs.items():
            greedy = plan_arena(spec.int8_graph, strategy="greedy")
            naive = plan_arena(spec.int8_graph, strategy="naive")
            out[task] = (greedy.total_bytes, naive.total_bytes)
        return out

    result = benchmark(plan_all)
    lines = ["Ablation — arena planner (int8 graphs, bytes)"]
    for task, (greedy, naive) in result.items():
        assert greedy <= naive
        assert greedy < 0.7 * naive, f"{task}: greedy should reuse memory substantially"
        lines.append(
            f"  {task:<4} greedy={greedy:>8} naive={naive:>8} "
            f"(saves {(1 - greedy / naive) * 100:.0f}%)"
        )

    # Validity: no two simultaneously-live tensors may overlap, in TFLM's
    # arena over the authored ops or in EON's over the plan's steps.
    for task, spec in specs.items():
        assert plan_arena(spec.int8_graph).overlaps() == []
        assert plan_arena(compile_plan(spec.int8_graph)).overlaps() == []

    text = "\n".join(lines)
    save_result("ablation_arena", text)
    print("\n" + text)
