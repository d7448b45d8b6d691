"""The graph-optimization pass pipeline: verified rewrites, bit-identity,
fallback diagnostics, plan caching, and the four production passes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    GOp,
    Graph,
    GTensor,
    QuantParams,
    sequential_to_graph,
)
from repro.nn.architectures import cifar_cnn, conv1d_stack, ds_cnn, mlp, mobilenet_v1
from repro.quantize import quantize_graph
from repro.runtime import (
    DEFAULT_PASS_NAMES,
    EONCompiler,
    PassConfig,
    TFLMInterpreter,
    compile_plan,
    run_passes,
)
from repro.runtime.executor import _DEFAULT_PLAN_KEY, _PLAN_CACHE_CAP
from repro.runtime.passes import GraphPass, clone_graph

RNG = np.random.default_rng(0)


def _graph_pair(factory, input_shape, n_classes, seed=0, **kwargs):
    model = factory(input_shape, n_classes, seed=seed, **kwargs)
    fg = sequential_to_graph(model, "passes-test")
    calib = RNG.standard_normal((8,) + input_shape).astype(np.float32)
    return fg, quantize_graph(fg, calib)


def small_int8_graph() -> Graph:
    return _graph_pair(conv1d_stack, (16, 4), 3, n_layers=2)[1]


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
    """The optimized plan, run at two batch sizes, reproduces the
    unoptimized int8 output exactly, and the float output within the
    BLAS tolerance."""
    fg, qg = _graph_pair(factory, input_shape, n_classes, **kwargs)
    x = RNG.standard_normal((4,) + input_shape).astype(np.float32)
    for graph, exact in ((qg, True), (fg, False)):
        baseline = compile_plan(graph, passes=None)
        optimized = compile_plan(graph)
        assert not optimized.pass_outcome.fell_back
        for batch in (x, x[:3]):
            got, want = optimized.execute(batch), baseline.execute(batch)
            if exact:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_passes_none_binds_the_authored_graph():
    graph = small_int8_graph()
    plan = compile_plan(graph, passes=None)
    assert plan.graph is graph
    assert plan.source_graph is graph
    assert plan.pass_outcome is None
    # No pass annotation ever appears on the authored ops.
    assert all(
        "gemm_exact" not in op.attrs and "fused_pool" not in op.attrs
        for op in graph.ops
    )


def test_verify_false_disables_the_pipeline():
    # The pipeline is a sequence of verifier brackets; opting out of
    # verification must also opt out of the passes.
    graph = small_int8_graph()
    plan = compile_plan(graph, verify=False, cache=False)
    assert plan.graph is graph and plan.pass_outcome is None


def test_engines_still_agree_bit_for_bit():
    _, qg = _graph_pair(conv1d_stack, (16, 4), 3)
    x = RNG.standard_normal((2, 16, 4)).astype(np.float32)
    interp = TFLMInterpreter(qg)  # authored graph, passes off
    eon = EONCompiler().compile(qg)  # optimized plan
    assert np.array_equal(interp.invoke(x), eon.invoke(x))
    assert eon.plan.pass_outcome is not None


def test_record_mode_exposes_all_authored_activations():
    graph = small_int8_graph()
    plan = compile_plan(graph)
    assert plan.graph is not graph  # fusion actually rewrote something
    x = RNG.standard_normal((2, 16, 4)).astype(np.float32)
    recorded = plan.execute(x, record=True)
    reference = compile_plan(graph, passes=None).execute(x, record=True)
    assert set(recorded) == set(reference)
    for tid in reference:
        assert np.array_equal(recorded[tid], reference[tid])


# -- plan caching ----------------------------------------------------------


def test_default_plan_stays_identity_cached():
    graph = small_int8_graph()
    plan = compile_plan(graph)
    assert compile_plan(graph) is plan
    assert graph._plan_cache[_DEFAULT_PLAN_KEY] is plan


def test_default_plan_survives_fifo_eviction():
    graph = small_int8_graph()
    plan = compile_plan(graph)
    variants = [
        compile_plan(graph, engine=f"e{i}") for i in range(_PLAN_CACHE_CAP + 3)
    ]
    assert len(graph._plan_cache) == _PLAN_CACHE_CAP
    assert compile_plan(graph) is plan
    assert compile_plan(graph, engine="e0") is not variants[0]  # oldest evicted


def test_plans_cached_per_key():
    graph = small_int8_graph()
    default = compile_plan(graph)
    unopt = compile_plan(graph, passes=None)
    eon = compile_plan(graph, engine="eon")
    assert len({id(default), id(unopt), id(eon)}) == 3
    assert compile_plan(graph, passes=None) is unopt
    assert compile_plan(graph, engine="eon") is eon
    # The expensive pass run is shared across keys with the same config.
    assert eon.pass_outcome is default.pass_outcome


def test_structural_edit_invalidates_every_cached_plan():
    graph = small_int8_graph()
    default = compile_plan(graph)
    unopt = compile_plan(graph, passes=None)
    graph._invalidate()
    assert graph._plan_cache == {}
    assert compile_plan(graph, passes=None) is not unopt
    assert compile_plan(graph) is not default


def test_pass_list_accepted_and_cached_under_its_signature():
    graph = small_int8_graph()
    fuse_only = compile_plan(graph, passes=("fuse",))
    assert fuse_only.pass_outcome.config.names == ("fuse",)
    assert compile_plan(graph, passes=["fuse"]) is fuse_only
    assert compile_plan(graph).pass_outcome.config.names == DEFAULT_PASS_NAMES


def test_unknown_pass_name_is_an_error():
    graph = small_int8_graph()
    with pytest.raises(ValueError, match="unknown pass"):
        compile_plan(graph, passes=("no_such_pass",), cache=False)


# -- fallback diagnostics: the verify bracket catches broken passes --------


class _RaisingPass(GraphPass):
    name = "explode"

    def run(self, graph):
        raise RuntimeError("kaboom")


class _CorruptingPass(GraphPass):
    name = "corrupt"

    def run(self, graph):
        # A realistic rewrite bug: a shape that no longer matches the op.
        t = graph.tensors[graph.ops[0].outputs[0]]
        t.shape = tuple(d + 1 for d in t.shape)
        return {"corrupted": 1}


def _broken_registry():
    return {"explode": _RaisingPass, "corrupt": _CorruptingPass}


def test_raising_pass_reports_G051_and_falls_back():
    graph = small_int8_graph()
    outcome = run_passes(
        graph, PassConfig(("explode",)), registry=_broken_registry()
    )
    assert outcome.fell_back
    assert outcome.graph is graph  # byte-for-byte the authored graph
    diag = outcome.diagnostics[0]
    assert diag.code == "G051"
    assert diag.symbol == "explode"
    assert "kaboom" in diag.message


def test_corrupting_pass_caught_at_the_pass_boundary():
    graph = small_int8_graph()
    outcome = run_passes(
        graph, PassConfig(("corrupt",)), registry=_broken_registry()
    )
    assert outcome.fell_back and outcome.graph is graph
    diag = outcome.diagnostics[0]
    assert diag.code == "G050"
    assert diag.symbol == "corrupt"  # names the offending pass
    assert "G010" in diag.message  # and carries the underlying verdict
    # The authored graph was never touched: a fresh plan still runs.
    x = RNG.standard_normal((2, 16, 4)).astype(np.float32)
    compile_plan(graph, passes=None, cache=False).execute(x)


def test_fallback_outcome_still_compiles_and_matches():
    graph = small_int8_graph()
    registry = dict(_broken_registry())
    from repro.runtime.passes import PASS_REGISTRY

    registry.update(PASS_REGISTRY)
    outcome = run_passes(graph, PassConfig(("fuse", "corrupt")), registry=registry)
    assert outcome.fell_back and outcome.applied == ["fuse"]
    assert outcome.graph is graph


# -- individual passes -----------------------------------------------------


def _q(scale=0.1, zp=3):
    return QuantParams(scale=np.array(scale), zero_point=zp)


def test_simplify_cancels_dequantize_quantize():
    graph = Graph(name="dqq")
    q = _q()
    a = graph.add_tensor(GTensor("in", (4, 4, 1), dtype="int8", quant=q))
    f = graph.add_tensor(GTensor("f", (4, 4, 1), dtype="float32"))
    b = graph.add_tensor(GTensor("b", (4, 4, 1), dtype="int8", quant=q))
    out = graph.add_tensor(GTensor("out", (2, 2, 1), dtype="int8", quant=q))
    graph.input_id, graph.output_id = a, out
    graph.add_op(GOp("DEQUANTIZE", [a], [f], {}))
    graph.add_op(GOp("QUANTIZE", [f], [b], {}))
    graph.add_op(GOp("MAX_POOL_2D", [b], [out], {"pool_size": 2}))
    outcome = run_passes(graph, PassConfig(("simplify",)))
    assert not outcome.fell_back
    assert outcome.stats["simplify"]["dq_q_cancelled"] == 1
    assert [op.opcode for op in outcome.graph.ops] == ["MAX_POOL_2D"]
    x = RNG.integers(-128, 128, size=(2, 4, 4, 1)).astype(np.int8)
    want = compile_plan(graph, passes=None).execute(x)
    got = compile_plan(outcome.graph, passes=None, cache=False).execute(x)
    assert np.array_equal(got, want)


def test_simplify_keeps_mismatched_qparams():
    # Different scale on the re-quantize side: a real requantization,
    # not a round-trip — must NOT cancel.
    graph = Graph(name="dqq2")
    a = graph.add_tensor(GTensor("in", (4, 4, 1), dtype="int8", quant=_q(0.1)))
    f = graph.add_tensor(GTensor("f", (4, 4, 1), dtype="float32"))
    b = graph.add_tensor(GTensor("b", (4, 4, 1), dtype="int8", quant=_q(0.2)))
    out = graph.add_tensor(GTensor("out", (2, 2, 1), dtype="int8", quant=_q(0.2)))
    graph.input_id, graph.output_id = a, out
    graph.add_op(GOp("DEQUANTIZE", [a], [f], {}))
    graph.add_op(GOp("QUANTIZE", [f], [b], {}))
    graph.add_op(GOp("MAX_POOL_2D", [b], [out], {"pool_size": 2}))
    outcome = run_passes(graph, PassConfig(("simplify",)))
    assert outcome.stats["simplify"]["dq_q_cancelled"] == 0
    assert len(outcome.graph.ops) == 3


def test_simplify_elides_identity_transpose_and_composes_pairs():
    graph = Graph(name="tt")
    a = graph.add_tensor(GTensor("in", (2, 3, 4)))
    t1 = graph.add_tensor(GTensor("t1", (4, 2, 3)))
    t2 = graph.add_tensor(GTensor("t2", (3, 4, 2)))
    out = graph.add_tensor(GTensor("out", (3, 4, 2)))
    graph.input_id, graph.output_id = a, out
    graph.add_op(GOp("TRANSPOSE", [a], [t1], {"perm": (2, 0, 1)}))
    graph.add_op(GOp("TRANSPOSE", [t1], [t2], {"perm": (2, 0, 1)}))
    graph.add_op(GOp("SOFTMAX", [t2], [out], {}))
    outcome = run_passes(graph, PassConfig(("simplify",)))
    assert not outcome.fell_back
    # The pair composes into one transpose with the combined perm.
    transposes = [op for op in outcome.graph.ops if op.opcode == "TRANSPOSE"]
    assert len(transposes) == 1
    x = RNG.standard_normal((2, 2, 3, 4)).astype(np.float32)
    want = compile_plan(graph, passes=None).execute(x)
    got = compile_plan(outcome.graph, passes=None, cache=False).execute(x)
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_fold_constants_evaluates_weight_only_subgraph():
    graph = Graph(name="fold")
    a = graph.add_tensor(GTensor("in", (4,)))
    const = graph.add_tensor(
        GTensor("c", (2, 2), data=np.arange(4, dtype=np.float32).reshape(2, 2))
    )
    flat = graph.add_tensor(GTensor("flat", (4,)))
    out = graph.add_tensor(GTensor("out", (4,)))
    graph.input_id, graph.output_id = a, out
    graph.add_op(GOp("RESHAPE", [const], [flat], {"shape": (4,)}))
    graph.add_op(GOp("ADD", [a, flat], [out], {}))
    outcome = run_passes(graph, PassConfig(("fold_constants",)))
    assert not outcome.fell_back
    assert outcome.stats["fold_constants"]["ops_folded"] == 1
    assert [op.opcode for op in outcome.graph.ops] == ["ADD"]
    folded = outcome.graph.ops[0].inputs[1]
    folded_t = outcome.graph.tensors[folded]
    assert folded_t.is_const
    np.testing.assert_array_equal(
        folded_t.data, np.arange(4, dtype=np.float32)
    )
    x = RNG.standard_normal((3, 4)).astype(np.float32)
    got = compile_plan(outcome.graph, passes=None, cache=False).execute(x)
    np.testing.assert_allclose(got, x + np.arange(4, dtype=np.float32), rtol=1e-6)


def test_fusion_collapses_conv_pool_and_lowers_gemm():
    _, qg = _graph_pair(cifar_cnn, (16, 16, 3), 4, base_filters=8)
    outcome = run_passes(qg, PassConfig(("fuse",)))
    stats = outcome.stats["fuse"]
    assert stats["pools_fused"] >= 1 and stats["gemm_lowered"] >= 1
    pools_before = sum("POOL" in op.opcode for op in qg.ops)
    pools_after = sum(
        "POOL" in op.opcode and "fused_pool" not in op.attrs
        for op in outcome.graph.ops
    )
    assert pools_after < pools_before
    fused = [op for op in outcome.graph.ops if "fused_pool" in op.attrs]
    # The fused conv keeps its opcode (registry/serialization contract)
    # and produces the pool's (smaller) output.
    assert all(op.opcode.startswith(("CONV", "DEPTHWISE")) for op in fused)


def test_fusion_skips_convs_over_the_f64_bound():
    from repro.runtime.passes.fusion import gemm_accumulator_bound

    w_shape = (3, 3, 8, 4)
    bias = np.zeros(4, dtype=np.int64)
    assert gemm_accumulator_bound(w_shape, bias) == 2 * (3 * 3 * 8) * 128 * 128
    # A contraction whose worst-case accumulator exceeds the 2^53
    # exact-integer range must not be annotated (trigger via the bias,
    # the cheap way to cross the bound on a small model).
    _, qg = _graph_pair(conv1d_stack, (16, 4), 3, n_layers=1)
    conv = next(op for op in qg.ops if op.opcode == "CONV_1D")
    bias_t = qg.tensors[conv.inputs[2]]
    bias_t.data = bias_t.data.astype(np.int64)
    bias_t.data[0] = 2 ** 53  # pushes the bound over the exact range
    outcome = run_passes(qg, PassConfig(("fuse",)))
    fused_conv = next(
        op for op in outcome.graph.ops if op.opcode == "CONV_1D"
    )
    assert "gemm_exact" not in fused_conv.attrs


def test_inplace_annotates_dying_operand_only():
    graph = Graph(name="inplace")
    a = graph.add_tensor(GTensor("in", (4,)))
    s1 = graph.add_tensor(GTensor("s1", (4,)))
    s2 = graph.add_tensor(GTensor("s2", (4,)))
    out = graph.add_tensor(GTensor("out", (4,)))
    graph.input_id, graph.output_id = a, out
    # A chain, so the input is dead by the time the ADD runs and the
    # three-buffer ADD step is the liveness peak the reuse removes.
    graph.add_op(GOp("SOFTMAX", [a], [s1], {}))
    graph.add_op(GOp("SOFTMAX", [s1], [s2], {}))
    graph.add_op(GOp("ADD", [s1, s2], [out], {}))
    outcome = run_passes(graph, PassConfig(("inplace",)))
    add = outcome.graph.ops[-1]
    assert add.attrs["inplace"] == 0  # s1 dies at the add
    x = RNG.standard_normal((2, 4)).astype(np.float32)
    want = compile_plan(graph, passes=None).execute(x)
    got = compile_plan(outcome.graph, passes=None, cache=False).execute(x)
    np.testing.assert_allclose(got, want, rtol=1e-6)
    # The reuse shows up in the liveness accounting.
    base = compile_plan(graph, passes=None)
    opt = compile_plan(outcome.graph, passes=None, cache=False)
    assert opt.live_tensor_peak() < base.live_tensor_peak()


def test_inplace_never_reuses_the_graph_input():
    # prepare_input may pass caller-owned int8 memory straight through;
    # writing into it would corrupt the caller's buffer.
    graph = Graph(name="inplace-input")
    a = graph.add_tensor(GTensor("in", (4,)))
    s = graph.add_tensor(GTensor("s", (4,)))
    out = graph.add_tensor(GTensor("out", (4,)))
    graph.input_id, graph.output_id = a, out
    graph.add_op(GOp("SOFTMAX", [a], [s], {}))
    graph.add_op(GOp("ADD", [a, s], [out], {}))
    outcome = run_passes(graph, PassConfig(("inplace",)))
    add = outcome.graph.ops[-1]
    # Slot 0 (the graph input) is skipped... but slot 1 dies here, so it
    # is legal — `a` itself must never be picked.
    assert add.attrs.get("inplace") != 0


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
    outcome = run_passes(graph, PassConfig(("inplace",)))
    assert "inplace" not in outcome.graph.ops[-1].attrs


def test_inplace_respects_longer_lifetimes():
    graph = Graph(name="inplace-alive")
    a = graph.add_tensor(GTensor("in", (4,)))
    s = graph.add_tensor(GTensor("s", (4,)))
    mid = graph.add_tensor(GTensor("mid", (4,)))
    out = graph.add_tensor(GTensor("out", (4,)))
    graph.input_id, graph.output_id = a, out
    graph.add_op(GOp("SOFTMAX", [a], [s], {}))
    graph.add_op(GOp("ADD", [s, s], [mid], {}))  # s also feeds the next add
    graph.add_op(GOp("ADD", [mid, s], [out], {}))
    outcome = run_passes(graph, PassConfig(("inplace",)))
    first_add = outcome.graph.ops[1]
    assert "inplace" not in first_add.attrs  # s is still alive afterwards


# -- source graph is never mutated -----------------------------------------


def test_pipeline_never_mutates_the_source_graph():
    graph = small_int8_graph()
    before_ops = [(op.opcode, tuple(op.inputs), dict(op.attrs)) for op in graph.ops]
    before_n = len(graph.tensors)
    run_passes(graph, PassConfig())
    assert len(graph.tensors) == before_n
    assert [
        (op.opcode, tuple(op.inputs), dict(op.attrs)) for op in graph.ops
    ] == before_ops


def test_clone_graph_shares_weights_not_structure():
    graph = small_int8_graph()
    clone = clone_graph(graph)
    assert clone.ops is not graph.ops
    assert all(c is not o for c, o in zip(clone.ops, graph.ops))
    w_id = next(
        tid for tid, t in enumerate(graph.tensors) if t.is_const
    )
    assert clone.tensors[w_id].data is graph.tensors[w_id].data


# -- the CLI ---------------------------------------------------------------


def test_passes_dump_cli(capsys):
    from repro.runtime.passes.__main__ import main

    assert main(["--dump", "--arch", "mlp"]) == 0
    out = capsys.readouterr().out
    assert "mlp/int8" in out
    assert "pass(es) applied" in out
