"""Plan binder: what conv+pool fusion and in-place ADD do to memory.

``plan_arena_reduction`` is TFLM's arena over EON's —
``plan_arena(graph)`` (the authored ops' lifetimes) divided by
``plan_arena(compile_plan(graph))`` (the plan's step lifetimes) —
minimised over the conv-dominated int8 zoo models.  A conv step that
absorbs its pool never allocates the pre-pool activation, so the ratio
is what the binder's decisions save in the arena Table 4 prices.  It is
a deterministic plan property, not a timing, and CI gates it.

Bit-identity is a hard assert, not a metric: every plan must reproduce
the ``run_graph_dispatch`` spec exactly, at more than one batch size.

``plan_faults.<task>.<precision>.b16`` is the steady-state minor page
faults per warm execute of the paper-scale models at batch 16.  A plan
runs in one reused buffer (EON's arena plus its scratch), so a warm
execute should touch no fresh page; informational, with a hard assert
of at most 16 on Linux.
"""

import sys

import numpy as np
import pytest
from conftest import save_metric, save_result, smoke_mode

from repro.experiments.tasks import paper_scale_graphs
from repro.graph import sequential_to_graph
from repro.nn.architectures import cifar_cnn, conv1d_stack, ds_cnn
from repro.quantize import quantize_graph
from repro.runtime import compile_plan, plan_arena, run_graph_dispatch

#: (label, factory, input_shape, n_classes).  The first two are
#: conv-dominated with pools after their convs, the models the gate
#: applies to; DS-CNN (no pools) only has to stay bit-identical.
MODELS = [
    ("cifar_cnn", cifar_cnn, (32, 32, 3), 10),
    ("conv1d_stack", conv1d_stack, (64, 9), 6),
    ("ds_cnn", ds_cnn, (25, 10), 12),
]
GATED = ("cifar_cnn", "conv1d_stack")

BATCH = 4


def _int8_graph(factory, input_shape, n_classes, seed=0):
    rng = np.random.default_rng(seed)
    model = factory(input_shape, n_classes, seed=seed)
    float_graph = sequential_to_graph(model, "plan-bench")
    calib = rng.standard_normal((8,) + input_shape).astype(np.float32)
    return quantize_graph(float_graph, calib)


def test_plan_arena_reduction():
    rng = np.random.default_rng(3)
    lines = ["Plan binder — TFLM (authored) vs. EON (step) arena (int8)"]
    reductions = []
    for label, factory, input_shape, n_classes in MODELS:
        graph = _int8_graph(factory, input_shape, n_classes)
        plan = compile_plan(graph)
        x = rng.standard_normal((BATCH,) + input_shape).astype(np.float32)
        for batch in (x, x[: BATCH - 1]):
            assert np.array_equal(plan.execute(batch), run_graph_dispatch(graph, batch))
        tflm, eon = plan_arena(graph).total_bytes, plan_arena(plan).total_bytes
        reduction = tflm / eon
        if label in GATED:
            reductions.append(reduction)
        lines.append(
            f"  {label:<14} {len(graph.ops):3d} ops -> {len(plan.steps):3d} steps | "
            f"arena {tflm:7d} -> {eon:7d} B (/{reduction:.2f})"
        )
    arena_reduction = float(min(reductions))
    save_metric("plan_arena_reduction", arena_reduction)
    lines.append(f"  min arena reduction over {', '.join(GATED)}: /{arena_reduction:.2f}")
    text = "\n".join(lines)
    save_result("plan_arena_reduction", text)
    print("\n" + text)
    assert arena_reduction > 1.0, "conv+pool fusion no longer shrinks EON's arena"


def test_plan_steady_state_faults():
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(4)
    executes = 5 if smoke_mode() else 20
    lines = ["Plan execution — minor page faults per warm execute, batch 16"]
    worst = 0.0
    for task in ("kws", "ic", "vww"):
        spec = paper_scale_graphs(task)
        for precision, graph in (("f32", spec.float_graph), ("int8", spec.int8_graph)):
            plan = compile_plan(graph)
            x = rng.standard_normal((16,) + tuple(graph.tensors[graph.input_id].shape))
            x = x.astype(np.float32)
            for _ in range(3):  # grow the buffer, carve the views
                plan.execute(x)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(executes):
                plan.execute(x)
            faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / executes
            save_metric(f"plan_faults.{task}.{precision}.b16", faults)
            lines.append(f"  {task:<4} {precision:<5} {faults:7.1f}")
            worst = max(worst, faults)
    text = "\n".join(lines)
    save_result("plan_faults", text)
    print("\n" + text)
    if sys.platform.startswith("linux"):
        assert worst <= 16, "a warm execute touches fresh pages: something allocates per call"
