"""Runtime: dispatch ≡ EON, arena invariants, codegen content."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GOp, Graph, GTensor
from repro.profile import MemoryEstimator
from repro.runtime import (
    EONCompiler,
    EONModel,
    compile_plan,
    plan_arena,
    run_graph,
    run_graph_dispatch,
)

RNG = np.random.default_rng(0)


def test_interpreter_eon_bit_identical(tiny_graphs, tiny_classification_problem):
    """The paper's implicit contract: EON changes resources, not results.
    Dispatch, which binds every authored op on every call as an
    interpreter does, is the reference EON's plan must equal."""
    _, int8_graph = tiny_graphs
    x, _ = tiny_classification_problem
    eon = EONCompiler().compile(int8_graph)
    assert np.array_equal(run_graph_dispatch(int8_graph, x[:32]), eon.invoke(x[:32]))


def test_float_engines_match_executor(tiny_graphs):
    float_graph, _ = tiny_graphs
    x = RNG.standard_normal((4, 16, 8)).astype(np.float32)
    expected = run_graph(float_graph, x)
    assert np.array_equal(run_graph_dispatch(float_graph, x), expected)
    assert np.array_equal(EONCompiler().compile(float_graph).invoke(x), expected)


def test_classify_and_predict_proba(tiny_graphs, tiny_classification_problem):
    _, int8_graph = tiny_graphs
    x, _ = tiny_classification_problem
    model = EONModel(int8_graph)
    probs = model.predict_proba(x[:8])
    assert probs.shape == (8, 3)
    assert (probs >= 0).all()
    assert np.allclose(probs.sum(axis=1), 1.0, atol=0.02)  # int8 rounding
    assert np.array_equal(model.classify(x[:8]), probs.argmax(axis=1))


def test_int8_input_passthrough(tiny_graphs):
    """Pre-quantized inputs skip the implicit quantize step."""
    _, int8_graph = tiny_graphs
    x = RNG.standard_normal((2, 16, 8)).astype(np.float32)
    q_in = int8_graph.tensors[int8_graph.input_id].quant.quantize(x)
    model = EONModel(int8_graph)
    assert np.array_equal(model.invoke(q_in), model.invoke(x))


def test_ram_overhead_ordering(tiny_graphs):
    _, int8_graph = tiny_graphs
    tflm = MemoryEstimator("tflm").estimate(int8_graph)
    eon = MemoryEstimator("eon").estimate(int8_graph)
    assert tflm.runtime_ram_bytes > eon.runtime_ram_bytes
    # DS-CNN has no pool to fuse and no ADD: one planner, equal arenas.
    assert tflm.arena_bytes == eon.arena_bytes == plan_arena(int8_graph).total_bytes


# -- arena planner ----------------------------------------------------------


def test_arena_no_overlap_invariant(tiny_graphs):
    for graph in tiny_graphs:
        plan = plan_arena(graph, strategy="greedy")
        assert plan.overlaps() == []
        assert plan.total_bytes % 16 == 0 or plan.total_bytes == max(
            plan.offsets[t] + plan.sizes[t] for t in plan.offsets
        )


def test_arena_greedy_beats_naive(tiny_graphs):
    for graph in tiny_graphs:
        greedy = plan_arena(graph, strategy="greedy").total_bytes
        naive = plan_arena(graph, strategy="naive").total_bytes
        assert greedy <= naive


def test_arena_unknown_strategy(tiny_graphs):
    with pytest.raises(ValueError):
        plan_arena(tiny_graphs[0], strategy="magic")


def _chain_graph(sizes: list[int]) -> Graph:
    """A synthetic op chain with given activation sizes (floats)."""
    graph = Graph("chain")
    prev = graph.add_tensor(GTensor("t0", (sizes[0],)))
    graph.input_id = prev
    for i, size in enumerate(sizes[1:], start=1):
        w = graph.add_tensor(
            GTensor(f"w{i}", (sizes[i - 1], size),
                    data=np.zeros((sizes[i - 1], size), np.float32))
        )
        b = graph.add_tensor(GTensor(f"b{i}", (size,), data=np.zeros(size, np.float32)))
        out = graph.add_tensor(GTensor(f"t{i}", (size,)))
        graph.add_op(GOp("FULLY_CONNECTED", [prev, w, b], [out], {"activation": "none"}))
        prev = out
    graph.output_id = prev
    graph.validate()
    return graph


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=10))
def test_arena_chain_property(sizes):
    """For any chain: no overlaps, and total >= the largest live pair."""
    graph = _chain_graph(sizes)
    plan = plan_arena(graph, strategy="greedy")
    assert plan.overlaps() == []
    # In a chain, consecutive tensors are simultaneously alive.
    def aligned(n):
        return (n * 4 + 15) // 16 * 16

    worst_pair = max(
        aligned(a) + aligned(b) for a, b in zip(sizes, sizes[1:])
    )
    assert plan.total_bytes >= worst_pair
    assert plan.total_bytes <= sum(aligned(s) for s in sizes)


# -- EON codegen ------------------------------------------------------------


def test_eon_codegen_structure(tiny_graphs):
    _, int8_graph = tiny_graphs
    sources = EONCompiler().generate_source(int8_graph)
    header = sources["eon_model.h"]
    cpp = sources["eon_model.cpp"]
    assert "EON_ARENA_SIZE" in header
    arena = plan_arena(compile_plan(int8_graph)).total_bytes
    assert f"#define EON_ARENA_SIZE {arena}" in header
    assert "eon_run_classifier" in cpp
    # One kernel call per op.
    assert cpp.count("eon_conv_2d_i8(") == int8_graph.op_counts().get("CONV_2D", 0)
    assert "static const int8_t" in cpp  # quantized weights emitted
    assert "eon_softmax_i8(" in cpp


def test_eon_codegen_weights_complete(tiny_graphs):
    _, int8_graph = tiny_graphs
    sources = EONCompiler().generate_source(int8_graph)
    cpp = sources["eon_model.cpp"]
    n_arrays = cpp.count("static const ")
    # one array per constant tensor + the arena buffer is separate
    assert n_arrays == len(int8_graph.const_tensors())
