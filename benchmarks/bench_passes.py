"""Graph-optimization pass pipeline: fused-plan speedup + memory effect.

Measures what ``repro.runtime.passes`` buys on the conv-dominated int8
zoo models, the workloads the pipeline was built for:

1. **Fused vs. unfused int8 plans** — the ``fuse`` pass lowers int8
   contractions to exact float64 GEMM (provably bit-identical under the
   2^53 accumulator bound) and pools max-pool outputs *before*
   requantization.  Both plans bind the same kernel family, so the
   ratio is what the two annotations buy.  ``fusion_speedup_int8`` is
   the geometric mean over the conv-dominated models, gated in CI.
2. **Live-activation peak** — conv+pool collapse skips materializing the
   pre-pool activation, shrinking the Python-side analogue of the arena.
   ``pass_arena_reduction`` is deterministic (a plan property, not a
   timing) and gated.

Bit-identity is a hard assert, not a metric: every fused plan must
reproduce the unfused int8 output exactly, at more than one batch size.

``BENCH_SMOKE=1`` shrinks iteration counts for per-PR CI sampling.
"""

import time

import numpy as np
from conftest import save_metric, save_result, smoke_mode

from repro.graph import sequential_to_graph
from repro.nn.architectures import cifar_cnn, conv1d_stack, ds_cnn
from repro.quantize import quantize_graph
from repro.runtime import compile_plan

#: Conv-dominated zoo members: (label, factory, input_shape, n_classes).
#: These are the models whose int8 plan time is >90% convolution; the
#: fusion gate applies to them (depthwise-dominated models gain little —
#: the f64 GEMM trick needs a real contraction to amortize).
CONV_MODELS = [
    ("cifar_cnn", cifar_cnn, (32, 32, 3), 10),
    ("conv1d_stack", conv1d_stack, (64, 9), 6),
]

BATCH = 4


def _int8_graph(factory, input_shape, n_classes, seed=0):
    rng = np.random.default_rng(seed)
    model = factory(input_shape, n_classes, seed=seed)
    float_graph = sequential_to_graph(model, "passes-bench")
    calib = rng.standard_normal((8,) + input_shape).astype(np.float32)
    return quantize_graph(float_graph, calib)


def _interleaved_best_of(fns: dict, iters: int, reps: int) -> dict:
    """Round-robin timing (best-of-``reps``) so warm-up and CPU-frequency
    drift hit every contestant equally."""
    best = {name: float("inf") for name in fns}
    for _ in range(reps):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(iters):
                fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: t / iters for name, t in best.items()}


def test_fused_plan_speedup_int8():
    rng = np.random.default_rng(3)
    iters, reps = (3, 3) if smoke_mode() else (10, 7)
    lines = ["Pass pipeline — fused vs. unfused int8 plans"]
    speedups = []
    reductions = []

    for label, factory, input_shape, n_classes in CONV_MODELS:
        graph = _int8_graph(factory, input_shape, n_classes)
        x = rng.standard_normal((BATCH,) + input_shape).astype(np.float32)

        unfused = compile_plan(graph, passes=None)
        fused = compile_plan(graph)

        # Bit-identity first — the speedup must not change a single byte,
        # at any batch size the one plan is handed.
        for batch in (x, x[: BATCH - 1]):
            assert np.array_equal(fused.execute(batch), unfused.execute(batch))

        times = _interleaved_best_of(
            {"unfused": lambda: unfused.execute(x),
             "fused": lambda: fused.execute(x)},
            iters=iters, reps=reps,
        )
        speedup = times["unfused"] / times["fused"]
        speedups.append(speedup)

        reduction = unfused.live_tensor_peak() / fused.live_tensor_peak()
        reductions.append(reduction)

        stats = fused.pass_outcome.stats.get("fuse", {})
        lines.append(
            f"  {label:<14} unfused {times['unfused'] * 1e3:7.3f} ms | "
            f"fused {times['fused'] * 1e3:7.3f} ms | {speedup:4.2f}x | "
            f"peak /{reduction:.2f} | "
            f"gemm={stats.get('gemm_lowered', 0)} pools={stats.get('pools_fused', 0)}"
        )

    fusion_speedup = float(np.exp(np.mean(np.log(speedups))))
    arena_reduction = float(min(reductions))
    save_metric("fusion_speedup_int8", fusion_speedup)
    save_metric("pass_arena_reduction", arena_reduction)
    lines.append(
        f"  geomean speedup {fusion_speedup:4.2f}x | "
        f"min peak reduction /{arena_reduction:.2f}"
    )

    text = "\n".join(lines)
    save_result("passes_fusion", text)
    print("\n" + text)
    # The paper-level claim this PR gates: fused int8 plans are >=1.5x
    # on conv-dominated models (CI's floor is baseline*0.8; this is the
    # in-bench hard line).
    assert fusion_speedup >= 1.5, f"fusion speedup {fusion_speedup:.2f}x < 1.5x"


def test_pipeline_falls_back_not_over():
    """A depthwise-heavy model must never get slower than ~noise nor
    wrong: the pipeline applies only what helps and stays bit-identical."""
    graph = _int8_graph(ds_cnn, (25, 10), 12)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((BATCH, 25, 10)).astype(np.float32)
    unfused = compile_plan(graph, passes=None)
    fused = compile_plan(graph)
    assert np.array_equal(fused.execute(x), unfused.execute(x))
    assert not fused.pass_outcome.fell_back
