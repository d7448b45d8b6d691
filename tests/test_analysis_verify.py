"""Graph IR verifier: seeded defects, legacy-validate compat, clean zoo."""

import numpy as np
import pytest

from repro.analysis import (
    GraphVerificationError,
    check_arena,
    verify_graph,
    verify_graph_or_raise,
)
from repro.graph import (
    GOp,
    Graph,
    GTensor,
    QuantParams,
    graph_from_bytes,
    graph_to_bytes,
    sequential_to_graph,
)
from repro.nn.architectures import ARCHITECTURES, cifar_cnn, conv1d_stack, ds_cnn, mobilenet_v2
from repro.quantize import quantize_graph
from repro.runtime import compile_plan
from repro.runtime.arena import plan_arena

RNG = np.random.default_rng(0)


def small_graph() -> Graph:
    """A tiny valid float32 graph: conv1d -> GAP -> dense -> softmax."""
    model = conv1d_stack((16, 4), 3, n_layers=1, seed=0)
    return sequential_to_graph(model)


def int8_graph() -> Graph:
    graph = small_graph()
    calib = RNG.standard_normal((8, 16, 4)).astype(np.float32)
    return quantize_graph(graph, calib)


# -- the five seeded defect classes ----------------------------------------


def test_seeded_shape_mismatch_is_G010():
    graph = small_graph()
    conv_out = next(op for op in graph.ops if op.opcode == "CONV_1D").outputs[0]
    good = graph.tensors[conv_out].shape
    graph.tensors[conv_out].shape = (good[0] + 1, good[1])
    report = verify_graph(graph)
    assert "G010" in report.codes()
    assert not report.ok
    diag = report.by_code("G010")[0]
    assert diag.tensor_id == conv_out and diag.op_index is not None


def test_seeded_zero_point_out_of_bounds_is_G021():
    graph = int8_graph()
    act = graph.tensors[graph.input_id]
    act.quant = QuantParams(scale=act.quant.scale, zero_point=300)
    report = verify_graph(graph)
    assert "G021" in report.codes()
    assert "outside" in report.by_code("G021")[0].message


def test_seeded_nonpositive_scale_is_G022():
    graph = int8_graph()
    out = graph.tensors[graph.output_id]
    out.quant = QuantParams(scale=0.0, zero_point=out.quant.zero_point)
    report = verify_graph(graph)
    assert "G022" in report.codes()


def test_seeded_def_before_use_is_G002():
    graph = Graph()
    a = graph.add_tensor(GTensor("in", (4,)))
    b = graph.add_tensor(GTensor("out", (4,)))
    graph.input_id, graph.output_id = a, b
    graph.add_op(GOp("SOFTMAX", [b], [b], {}))
    report = verify_graph(graph)
    assert "G002" in report.codes()


def test_seeded_dead_op_is_G030():
    graph = small_graph()
    # A parallel softmax whose output nothing consumes: dead.
    dead_out = graph.add_tensor(GTensor("dead", graph.tensors[graph.input_id].shape))
    graph.add_op(GOp("SOFTMAX", [graph.input_id], [dead_out], {}))
    report = verify_graph(graph)
    assert "G030" in report.codes()
    assert report.ok  # dead code is a warning, not an error
    assert report.by_code("G030")[0].op_index == len(graph.ops) - 1


def test_retired_codes_are_never_reused():
    from repro.analysis.diagnostics import CODES, RETIRED_CODES, Diagnostic

    assert {"G050", "G051"} <= set(RETIRED_CODES)
    assert not set(RETIRED_CODES) & set(CODES)
    with pytest.raises(ValueError, match="unregistered"):
        Diagnostic("G050", "a pass left the graph unverifiable")


def test_arena_overlap_is_G041():
    graph = small_graph()
    plan = plan_arena(graph)
    assert check_arena(graph, plan=plan).ok
    for tid in plan.offsets:  # squash everything to offset 0
        plan.offsets[tid] = 0
    report = check_arena(graph, plan=plan)
    assert "G041" in report.codes()


# -- structured diagnostics + entry points ---------------------------------


def test_diagnostics_carry_structure_and_hints():
    graph = int8_graph()
    act = graph.tensors[graph.output_id]
    act.quant = QuantParams(scale=act.quant.scale, zero_point=4000)
    report = verify_graph(graph)
    diag = report.by_code("G021")[0]
    assert diag.severity == "error"
    assert diag.tensor_id == graph.output_id
    assert diag.hint
    assert diag.code in diag.format()
    assert diag.to_dict()["code"] == "G021"


def test_compile_plan_verifies_by_default():
    graph = small_graph()
    out_shape = graph.tensors[graph.output_id].shape
    graph.tensors[graph.output_id].shape = (out_shape[0] + 5,)
    with pytest.raises(GraphVerificationError):
        compile_plan(graph, cache=False)
    # Legacy structural-only path still accepts it (shape checks are the
    # verifier's), demonstrating the opt-out.
    compile_plan(graph, cache=False, verify=False)


def test_verify_graph_or_raise_passes_warnings():
    graph = small_graph()
    dead_out = graph.add_tensor(GTensor("dead", graph.tensors[graph.input_id].shape))
    graph.add_op(GOp("SOFTMAX", [graph.input_id], [dead_out], {}))
    report = verify_graph_or_raise(graph)  # warnings don't raise
    assert "G030" in report.codes()


def test_deserialization_rejects_corrupt_graph():
    graph = small_graph()
    blob = graph_to_bytes(graph)
    assert verify_graph(graph_from_bytes(blob)).ok
    graph.tensors[graph.output_id].shape = (99,)
    bad_blob = graph_to_bytes(graph)
    with pytest.raises(ValueError) as excinfo:
        graph_from_bytes(bad_blob)
    assert isinstance(excinfo.value, GraphVerificationError)
    assert "G010" in excinfo.value.report.codes()


def test_wrong_arity_is_G013_and_bad_attr_is_G012():
    graph = Graph()
    a = graph.add_tensor(GTensor("in", (8, 2)))
    b = graph.add_tensor(GTensor("mid", (4, 2)))
    c = graph.add_tensor(GTensor("out", (4, 2)))
    graph.input_id, graph.output_id = a, c
    graph.add_op(GOp("MAX_POOL_1D", [a, a], [b], {"pool_size": 2}))  # 2 inputs
    graph.add_op(GOp("SOFTMAX", [b], [c], {}))
    assert "G013" in verify_graph(graph).codes()

    graph2 = Graph()
    a = graph2.add_tensor(GTensor("in", (8, 2)))
    b = graph2.add_tensor(GTensor("out", (4, 2)))
    graph2.input_id, graph2.output_id = b, b
    graph2.input_id = a
    graph2.add_op(GOp("MAX_POOL_1D", [a], [b], {}))  # missing pool_size
    assert "G012" in verify_graph(graph2).codes()


def test_same_scale_op_qparam_drift_is_G023():
    graph = int8_graph()
    pool_like = next(
        op for op in graph.ops
        if op.opcode in ("MAX_POOL_1D", "GLOBAL_AVG_POOL_1D", "RESHAPE")
    )
    out_t = graph.tensors[pool_like.outputs[0]]
    out_t.quant = QuantParams(scale=out_t.quant.scale * 2.0,
                              zero_point=out_t.quant.zero_point)
    report = verify_graph(graph)
    assert "G023" in report.codes()


# -- legacy Graph.validate contract ----------------------------------------


def test_validate_keeps_legacy_wording_def_before_use():
    graph = Graph()
    a = graph.add_tensor(GTensor("in", (4,)))
    b = graph.add_tensor(GTensor("out", (4,)))
    graph.input_id, graph.output_id = a, b
    graph.add_op(GOp("SOFTMAX", [b], [b], {}))
    with pytest.raises(ValueError, match=r"op 0 \(SOFTMAX\) consumes tensor 1 before production"):
        graph.validate()


def test_validate_keeps_legacy_wording_produced_twice():
    graph = Graph()
    a = graph.add_tensor(GTensor("in", (4,)))
    b = graph.add_tensor(GTensor("out", (4,)))
    graph.input_id, graph.output_id = a, b
    graph.add_op(GOp("SOFTMAX", [a], [b], {}))
    graph.add_op(GOp("SOFTMAX", [a], [b], {}))
    with pytest.raises(ValueError, match=r"tensor 1 produced twice"):
        graph.validate()


def test_validate_keeps_legacy_wording_writes_constant():
    graph = Graph()
    a = graph.add_tensor(GTensor("in", (4,)))
    w = graph.add_tensor(GTensor("w", (4,), data=np.zeros(4, dtype=np.float32)))
    graph.input_id, graph.output_id = a, a
    graph.add_op(GOp("SOFTMAX", [a], [w], {}))
    with pytest.raises(ValueError, match=r"op 0 writes constant tensor 1"):
        graph.validate()
    # The raised error is the structured kind, carrying the full report.
    with pytest.raises(GraphVerificationError) as excinfo:
        graph.validate()
    assert "G004" in excinfo.value.report.codes()


# -- render totality (satellite bugfix) ------------------------------------


def test_render_total_over_zero_and_multi_output_ops():
    graph = small_graph()
    extra = graph.add_tensor(GTensor("extra", graph.tensors[graph.input_id].shape))
    multi = GOp("SOFTMAX", [graph.input_id], [extra], {})
    multi.outputs = [extra, graph.input_id]  # bypass normal construction
    graph.add_op(multi)
    zero = GOp("SOFTMAX", [graph.input_id], [extra], {})
    zero.outputs = []
    graph.add_op(zero)
    text = graph.render()  # must not raise
    assert "(none)" in text
    assert f"{extra}:" in text


# -- property test: real pipelines always verify clean ---------------------


ARCH_BUILDS = [
    lambda: ds_cnn((16, 8), 3, filters=8, n_blocks=2, seed=0),
    lambda: mobilenet_v2((16, 16, 1), 2, seed=0),
    lambda: conv1d_stack((24, 6), 4, n_layers=2, seed=0),
    lambda: cifar_cnn((16, 16, 3), 5, base_filters=8, seed=0),
]


@pytest.mark.parametrize("build", ARCH_BUILDS)
def test_every_converted_graph_verifies_clean_f32_and_int8(build):
    model = build()
    graph = sequential_to_graph(model)
    report = verify_graph(graph)
    assert report.ok and not report.warnings, report.format()
    calib = RNG.standard_normal((8,) + tuple(model.input_shape)).astype(np.float32)
    q_report = verify_graph(quantize_graph(sequential_to_graph(model), calib))
    assert q_report.ok and not q_report.warnings, q_report.format()


def test_tuner_trial_graphs_verify_clean():
    """Sampled EON-Tuner model specs produce verifiable graphs (f32+int8)."""
    from repro.automl.space import kws_search_space

    rng = np.random.default_rng(7)
    feature_shape = (49, 13)
    for _ in range(4):
        _, model_spec = kws_search_space().sample(rng)
        spec = dict(model_spec)
        arch = spec.pop("architecture")
        shape = feature_shape
        if arch in ("mobilenet_v1", "mobilenet_v2", "cifar_cnn"):
            shape = feature_shape + (1,)
        model = ARCHITECTURES[arch](shape, 3, seed=0, **spec)
        graph = sequential_to_graph(model)
        assert verify_graph(graph).ok, verify_graph(graph).format()
        calib = rng.standard_normal((6,) + shape).astype(np.float32)
        q = quantize_graph(sequential_to_graph(model), calib)
        assert verify_graph(q).ok, verify_graph(q).format()
