"""The plan binder's decisions: conv+pool fusion, C kernel or spec and
in-place ADD are decided while binding the authored graph, from its
structure, lifetimes and weights, and change no output bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import GOp, Graph, GTensor, sequential_to_graph
from repro.nn.architectures import cifar_cnn, conv1d_stack, ds_cnn, mlp, mobilenet_v1
from repro.quantize import quantize_graph
from repro.runtime import (
    EONCompiler,
    EONModel,
    compile_plan,
    plan_arena,
    run_graph_dispatch,
)
from repro.runtime import kernels as K
from repro.runtime import native

RNG = np.random.default_rng(0)


def _graph_pair(factory, input_shape, n_classes, seed=0, **kwargs):
    model = factory(input_shape, n_classes, seed=seed, **kwargs)
    fg = sequential_to_graph(model, "binder-test")
    calib = RNG.standard_normal((8,) + input_shape).astype(np.float32)
    return fg, quantize_graph(fg, calib)


def small_int8_graph() -> Graph:
    return _graph_pair(conv1d_stack, (16, 4), 3, n_layers=2)[1]


def _producers(graph: Graph) -> dict[int, GOp]:
    return {t: op for op in graph.ops for t in op.outputs}


def _fused_steps(plan) -> list:
    """Conv steps that absorbed a pool: they write a pool's output."""
    producers = _producers(plan.graph)
    return [s for s in plan.steps if producers[s.out_id].opcode != s.opcode]


# -- bit-identity across the model zoo -------------------------------------

ZOO = [
    (cifar_cnn, (16, 16, 3), 4, {"base_filters": 8}),
    (conv1d_stack, (32, 6), 4, {}),
    (ds_cnn, (13, 8), 6, {"filters": 8, "n_blocks": 2}),
    (mobilenet_v1, (16, 16, 3), 2, {"alpha": 0.25, "depth": 3}),
    (mlp, (17,), 3, {}),
]


@pytest.mark.parametrize(
    "factory,input_shape,n_classes,kwargs",
    ZOO, ids=[f.__name__ for f, *_ in ZOO],
)
def test_optimized_plans_bit_identical(factory, input_shape, n_classes, kwargs):
    """The bound plan, run at two batch sizes, reproduces the dispatch
    spec exactly — float32 too, since both run the same f32 kernels on
    the same batch."""
    for graph in _graph_pair(factory, input_shape, n_classes, **kwargs):
        plan = compile_plan(graph)
        x = RNG.standard_normal((4,) + input_shape).astype(np.float32)
        for batch in (x, x[:3]):
            assert np.array_equal(plan.execute(batch), run_graph_dispatch(graph, batch))


def test_passes_none_binds_the_authored_graph():
    # There is no rewritten copy to opt out of: every plan binds the
    # authored graph itself, optimizations included.
    graph = small_int8_graph()
    plan = compile_plan(graph)
    assert plan.graph is graph
    assert _fused_steps(plan)  # the binder did optimize...
    # ...without writing a pass annotation onto the authored ops.
    assert all(
        "gemm_exact" not in op.attrs and "fused_pool" not in op.attrs
        for op in graph.ops
    )


def test_pipeline_never_mutates_the_source_graph():
    graph = small_int8_graph()
    before = [(op.opcode, tuple(op.inputs), tuple(op.outputs), dict(op.attrs))
              for op in graph.ops]
    n_tensors = len(graph.tensors)
    compile_plan(graph)
    EONModel(graph)
    EONCompiler().generate_source(graph)
    assert len(graph.tensors) == n_tensors
    assert [(op.opcode, tuple(op.inputs), tuple(op.outputs), dict(op.attrs))
            for op in graph.ops] == before


def test_engines_still_agree_bit_for_bit():
    _, qg = _graph_pair(conv1d_stack, (16, 4), 3)
    x = RNG.standard_normal((2, 16, 4)).astype(np.float32)
    eon = EONCompiler().compile(qg)
    assert np.array_equal(run_graph_dispatch(qg, x), eon.invoke(x))
    # The one runtime model runs the graph's one plan.
    assert eon.plan is EONModel(qg).plan is compile_plan(qg)


def test_record_mode_exposes_all_authored_activations():
    graph = small_int8_graph()
    plan = compile_plan(graph)
    fused_away = {
        op.outputs[0] for op in graph.ops
        if op.opcode == "CONV_1D" and op.outputs[0] not in {s.out_id for s in plan.steps}
    }
    assert fused_away  # the plan never materializes these...
    x = RNG.standard_normal((2, 16, 4)).astype(np.float32)
    recorded = run_graph_dispatch(graph, x, record=True)
    # ...and the record path still shows every authored activation.
    assert set(recorded) == set(graph.lifetimes())
    assert fused_away <= set(recorded)
    assert np.array_equal(recorded[graph.output_id], plan.execute(x))


# -- plan caching ----------------------------------------------------------


def test_default_plan_stays_identity_cached():
    graph = small_int8_graph()
    plan = compile_plan(graph)
    assert compile_plan(graph) is plan
    assert graph._plan is plan


def test_every_engine_shares_one_plan():
    graph = small_int8_graph()
    plan = compile_plan(graph)
    assert EONModel(graph).plan is plan
    assert EONCompiler().compile(graph).plan is plan
    # The ignored keyword a frozen caller still passes changes nothing.
    assert compile_plan(graph, engine="eon") is plan


def test_structural_edit_invalidates_every_cached_plan():
    graph = small_int8_graph()
    plan = compile_plan(graph)
    graph.add_tensor(GTensor("scratch", (4,)))
    assert graph._plan is None
    fresh = compile_plan(graph)
    assert fresh is not plan
    assert EONModel(graph).plan is fresh


# -- conv+pool fusion and the C-or-spec choice -------------------------------


def test_fusion_collapses_conv_pool_and_lowers_gemm():
    _, qg = _graph_pair(cifar_cnn, (16, 16, 3), 4, base_filters=8)
    plan = compile_plan(qg)
    producers = _producers(qg)
    fused = _fused_steps(plan)
    # All three conv+pool pairs collapse (two max, one avg); each fused
    # step keeps the conv's opcode and writes the pool's output.
    assert len(fused) == 3 and len(plan.steps) == len(qg.ops) - 3
    assert all(s.opcode == "CONV_2D" for s in fused)
    assert [producers[s.out_id].opcode for s in fused] == [
        "MAX_POOL_2D", "MAX_POOL_2D", "AVG_POOL_2D"
    ]
    for step in plan.steps:
        if step.opcode in ("CONV_2D", "FULLY_CONNECTED"):
            assert isinstance(step.fn, native.ConvKernel) == (native.load() is not None)
    assert plan_arena(plan).total_bytes < plan_arena(qg).total_bytes
    x = RNG.standard_normal((3, 16, 16, 3)).astype(np.float32)
    assert np.array_equal(plan.execute(x), run_graph_dispatch(qg, x))


def test_fusion_needs_the_pool_as_sole_reader_and_a_hidden_output():
    graph = Graph(name="no-fuse")
    x = graph.add_tensor(GTensor("in", (8, 2)))
    w = graph.add_tensor(GTensor("w", (3, 2, 2), data=np.ones((3, 2, 2), np.float32)))
    b = graph.add_tensor(GTensor("b", (2,), data=np.zeros(2, np.float32)))
    conv = graph.add_tensor(GTensor("conv", (8, 2)))
    pooled = graph.add_tensor(GTensor("pooled", (4, 2)))
    graph.input_id, graph.output_id = x, conv
    attrs = {"stride": 1, "pad": [1, 1], "activation": "none"}
    graph.add_op(GOp("CONV_1D", [x, w, b], [conv], attrs))
    graph.add_op(GOp("MAX_POOL_1D", [conv], [pooled], {"pool_size": 2}))
    # The conv output is the graph output: the pool cannot absorb it.
    assert len(compile_plan(graph).steps) == 2
    # A second reader keeps the pre-pool tensor alive: no fusion either.
    total = graph.add_tensor(GTensor("total", (8, 2)))
    graph.add_op(GOp("ADD", [conv, conv], [total], {}))
    graph.output_id = total
    assert len(compile_plan(graph).steps) == 3
    batch = RNG.standard_normal((2, 8, 2)).astype(np.float32)
    assert np.array_equal(compile_plan(graph).execute(batch), run_graph_dispatch(graph, batch))


def test_fusion_keeps_convs_past_the_int32_bound():
    w = np.ones((3, 3, 8, 4), dtype=np.int8)
    k = 3 * 3 * 8
    bound = k * 128 * 128
    for max_bias, fits in ((0, True),
                           (2**31 - 1 - bound, True),
                           (2**31 - bound, False),
                           (2**31, False)):
        bias = np.zeros(4, dtype=np.int64)
        bias[0] = -max_bias - 3 * k  # folding in_zp -3 adds 3 * k: |bias'| is max_bias
        assert (K.prepare_gemm_i32(w, bias, in_zp=-3) is not None) == fits, max_bias
    # A layer past the bound binds the spec and still fuses its pool.
    _, qg = _graph_pair(conv1d_stack, (16, 4), 3, n_layers=1)
    conv = next(op for op in qg.ops if op.opcode == "CONV_1D")
    in_zp = qg.tensors[conv.inputs[0]].quant.zero_point
    w_sum = int(qg.tensors[conv.inputs[1]].data[..., 0].sum(dtype=np.int64))
    qg.tensors[conv.inputs[2]].data[0] = 2**31 - 1 if in_zp * w_sum <= 0 else -(2**31)
    plan = compile_plan(qg, cache=False)
    fused = _fused_steps(plan)
    assert len(fused) == 1 and not isinstance(fused[0].fn, native.NativeKernel)
    x = RNG.integers(-128, 128, size=(2, 16, 4)).astype(np.int8)
    assert np.array_equal(plan.execute(x), run_graph_dispatch(qg, x))


# -- in-place ADD ------------------------------------------------------------


def _softmax_chain(name, *adds):
    """in -> SOFTMAX s1 -> SOFTMAX s2, then ``adds`` as (lhs, rhs, out)
    names over {"in", "s1", "s2", ...}; the last add's output is the
    graph output."""
    graph = Graph(name=name)
    ids = {"in": graph.add_tensor(GTensor("in", (4,)))}
    for n in ("s1", "s2"):
        ids[n] = graph.add_tensor(GTensor(n, (4,)))
    graph.add_op(GOp("SOFTMAX", [ids["in"]], [ids["s1"]], {}))
    graph.add_op(GOp("SOFTMAX", [ids["s1"]], [ids["s2"]], {}))
    for lhs, rhs, out in adds:
        ids[out] = graph.add_tensor(GTensor(out, (4,)))
        graph.add_op(GOp("ADD", [ids[lhs], ids[rhs]], [ids[out]], {}))
    graph.input_id, graph.output_id = ids["in"], ids[adds[-1][2]]
    return graph, ids


def _check_against_dispatch(graph):
    x = RNG.standard_normal((2, 4)).astype(np.float32)
    assert np.array_equal(compile_plan(graph).execute(x), run_graph_dispatch(graph, x))


def test_inplace_annotates_dying_operand_only():
    # A chain, so the input is dead by the time the ADD runs and the
    # three-buffer ADD step is the liveness peak the reuse removes.
    graph, ids = _softmax_chain("inplace", ("s1", "s2", "out"))
    plan = compile_plan(graph)
    assert plan.steps[-1].inplace_src == ids["s1"]  # s1 dies at the add
    _check_against_dispatch(graph)
    # The reuse shows up in EON's arena: the output takes s1's offset.
    arena = plan_arena(plan)
    assert arena.offsets[ids["out"]] == arena.offsets[ids["s1"]]
    assert arena.total_bytes < plan_arena(graph).total_bytes


def test_inplace_never_reuses_the_graph_input():
    # The input may be caller-owned int8 memory passed through uncopied;
    # writing into it would corrupt the caller's buffer.  s2 dies at the
    # add too, so that is the one written.
    graph, ids = _softmax_chain("inplace-input", ("in", "s2", "out"))
    assert compile_plan(graph).steps[-1].inplace_src == ids["s2"]
    _check_against_dispatch(graph)


def test_inplace_skips_view_producing_operands():
    graph = Graph(name="inplace-view")
    a = graph.add_tensor(GTensor("in", (4,)))
    s = graph.add_tensor(GTensor("s", (4,)))
    r = graph.add_tensor(GTensor("r", (4,)))
    out = graph.add_tensor(GTensor("out", (4,)))
    graph.input_id, graph.output_id = a, out
    graph.add_op(GOp("SOFTMAX", [a], [s], {}))
    graph.add_op(GOp("RESHAPE", [s], [r], {"shape": (4,)}))
    graph.add_op(GOp("ADD", [r, a], [out], {}))
    assert compile_plan(graph).steps[-1].inplace_src is None
    _check_against_dispatch(graph)


def test_inplace_skips_operands_a_live_view_aliases():
    """``r`` is a RESHAPE view of ``s`` that outlives it; an ADD writing
    into the dying ``s`` would change what ``r`` reads afterwards."""
    graph = Graph(name="inplace-alias")
    t = {n: graph.add_tensor(GTensor(n, shape)) for n, shape in (
        ("in", (4,)), ("s", (4,)), ("r", (2, 2)), ("u", (4,)),
        ("w", (2, 2)), ("w2", (4,)), ("out", (4,)),
    )}
    ten = graph.add_tensor(GTensor("ten", (4,), data=np.full(4, 10, np.float32)))
    zero = graph.add_tensor(GTensor("zero", (2, 2), data=np.zeros((2, 2), np.float32)))
    graph.input_id, graph.output_id = t["in"], t["out"]
    graph.add_op(GOp("SOFTMAX", [t["in"]], [t["s"]], {}))
    graph.add_op(GOp("RESHAPE", [t["s"]], [t["r"]], {"shape": (2, 2)}))
    graph.add_op(GOp("ADD", [t["s"], ten], [t["u"]], {}))  # s dies here
    graph.add_op(GOp("ADD", [t["r"], zero], [t["w"]], {}))  # ...r reads it later
    graph.add_op(GOp("RESHAPE", [t["w"]], [t["w2"]], {"shape": (4,)}))
    graph.add_op(GOp("ADD", [t["u"], t["w2"]], [t["out"]], {}))
    plan = compile_plan(graph)
    assert plan.steps[2].inplace_src is None
    assert plan.steps[-1].inplace_src == t["u"]
    _check_against_dispatch(graph)


def test_inplace_respects_longer_lifetimes():
    graph, ids = _softmax_chain("inplace-alive", ("s2", "s2", "mid"), ("mid", "s2", "out"))
    plan = compile_plan(graph)
    assert plan.steps[2].inplace_src is None  # s2 is still alive afterwards
    assert plan.steps[3].inplace_src == ids["mid"]
    _check_against_dispatch(graph)
