"""One plan all the way down: EON's arena, its RAM estimate and its
generated C are all read from the compiled plan's steps, while TFLM's
arena stays on the authored ops."""

from __future__ import annotations

import re
import shutil
import subprocess

import numpy as np
import pytest

from repro.analysis.verify import check_arena
from repro.experiments.tasks import paper_scale_graphs
from repro.graph import GOp, Graph, GTensor, sequential_to_graph
from repro.graph.ops import pack_int4
from repro.nn.architectures import ARCHITECTURES, conv1d_stack
from repro.profile import MemoryEstimator
from repro.quantize import quantize_graph
from repro.runtime import EONCompiler, compile_plan, plan_arena, run_graph_dispatch
from repro.runtime.eon import _float_literal

ZOO_SHAPES = {
    "ds_cnn": ((13, 8), 4),
    "mobilenet_v1": ((16, 16, 3), 3),
    "mobilenet_v2": ((16, 16, 3), 3),
    "conv1d_stack": ((32, 6), 4),
    "cifar_cnn": ((16, 16, 3), 4),
    "mlp": ((17,), 3),
}


def _calib(shape):
    return np.random.default_rng(1).standard_normal((8,) + shape).astype(np.float32)


def _zoo_graph(name: str, precision: str) -> Graph:
    shape, n_classes = ZOO_SHAPES[name]
    graph = sequential_to_graph(ARCHITECTURES[name](shape, n_classes, seed=0), name)
    return graph if precision == "f32" else quantize_graph(graph, _calib(shape))


def _residual_graph() -> Graph:
    """x -> FC a -> FC b; c = ADD(a, b) -> SOFTMAX: ``a`` dies at the ADD,
    so the ADD runs in place in ``a``'s buffer."""
    graph = Graph("residual")
    x = graph.add_tensor(GTensor("x", (8,)))
    ids = [x]
    for i in range(2):
        w = graph.add_tensor(GTensor(f"w{i}", (8, 8), data=np.eye(8, dtype=np.float32) * (i + 1)))
        b = graph.add_tensor(GTensor(f"b{i}", (8,), data=np.zeros(8, np.float32)))
        out = graph.add_tensor(GTensor(f"fc{i}", (8,)))
        graph.add_op(GOp("FULLY_CONNECTED", [ids[-1], w, b], [out], {"activation": "relu"}))
        ids.append(out)
    total = graph.add_tensor(GTensor("sum", (8,)))
    probs = graph.add_tensor(GTensor("probs", (8,)))
    graph.add_op(GOp("ADD", [ids[1], ids[2]], [total], {}))
    graph.add_op(GOp("SOFTMAX", [total], [probs], {}))
    graph.input_id, graph.output_id = x, probs
    return graph


CASES = {
    **{f"{name}-{prec}": (lambda n=name, p=prec: _zoo_graph(n, p))
       for name in ZOO_SHAPES for prec in ("f32", "int8")},
    **{f"paper-{task}-{prec}": (
        lambda t=task, p=prec: getattr(paper_scale_graphs(t), f"{p}_graph"))
       for task in ("kws", "ic", "vww") for prec in ("float", "int8")},
    "residual": _residual_graph,
}


def _kernel_calls(cpp: str) -> list[str]:
    return re.findall(r"^  (eon_\w+)\(", cpp, re.M)


@pytest.mark.parametrize("case", list(CASES))
def test_step_arena_contract(case):
    graph = CASES[case]()
    plan = compile_plan(graph)
    eon = plan_arena(plan)
    tflm = plan_arena(graph)
    # The output outlives every step, so no later buffer can reuse it.
    assert eon.lifetimes[graph.output_id][1] == len(plan.steps)
    assert eon.overlaps() == []
    assert check_arena(graph, plan=eon).ok
    assert eon.total_bytes <= tflm.total_bytes
    for step in plan.steps:
        if step.inplace_src is not None:
            assert eon.offsets[step.out_id] == eon.offsets[step.inplace_src]
    # Table 4 prices exactly these two arenas.
    assert MemoryEstimator("eon").estimate(graph).arena_bytes == eon.total_bytes
    assert MemoryEstimator("tflm").estimate(graph).arena_bytes == tflm.total_bytes
    # The generated C runs the plan's steps in that arena.
    sources = EONCompiler().generate_source(graph)
    assert len(_kernel_calls(sources["eon_model.cpp"])) == len(plan.steps)
    assert f"#define EON_ARENA_SIZE {eon.total_bytes}\n" in sources["eon_model.h"]


def test_inplace_add_writes_its_operands_buffer():
    graph = _residual_graph()
    plan = compile_plan(graph)
    (add,) = [s for s in plan.steps if s.inplace_src is not None]
    arena = plan_arena(plan)
    offset = arena.offsets[add.inplace_src]
    assert arena.offsets[add.out_id] == offset
    # The alias pair shares bytes while both are live, and is no collision.
    assert arena.lifetimes[add.out_id][0] == arena.lifetimes[add.inplace_src][1]
    assert arena.overlaps() == []
    call = next(
        line for line in EONCompiler().generate_source(graph)["eon_model.cpp"].splitlines()
        if line.startswith("  eon_add_f32(")
    )
    assert call.count(f"(eon_arena + {offset}))") == 2  # operand and output
    x = np.random.default_rng(0).standard_normal((3, 8)).astype(np.float32)
    assert np.array_equal(plan.execute(x), run_graph_dispatch(graph, x))


def test_fused_step_is_one_call_writing_the_pooled_tensor():
    graph = _zoo_graph("cifar_cnn", "int8")
    plan = compile_plan(graph)
    fused = [s for s in plan.steps if len(s.ops) == 2]
    assert len(fused) == 3
    arena = plan_arena(plan)
    cpp = EONCompiler().generate_source(graph)["eon_model.cpp"]
    calls = _kernel_calls(cpp)
    assert calls.count("eon_conv_2d_maxpool_i8") == 2
    assert calls.count("eon_conv_2d_avgpool_i8") == 1
    assert "eon_max_pool_2d_i8" not in calls
    for step in fused:
        # The pre-pool tensor has no offset: no step ever writes it.
        assert graph.ops[step.ops[0]].outputs[0] not in arena.offsets
        assert step.out_id == graph.ops[step.ops[1]].outputs[0]


def test_table4_eon_arena_shrinks_only_where_the_binder_fuses():
    """Paper-scale IC is conv+pool: fusion cuts EON's arena.  KWS (DS-CNN)
    and VWW (MobileNet) have nothing to fuse and no in-place ADD."""
    for task, shrinks in (("kws", False), ("ic", True), ("vww", False)):
        spec = paper_scale_graphs(task)
        for graph in (spec.float_graph, spec.int8_graph):
            tflm = MemoryEstimator("tflm").estimate(graph).arena_bytes
            eon = MemoryEstimator("eon").estimate(graph).arena_bytes
            assert (eon < tflm) if shrinks else (eon == tflm), task


def test_wasm_reports_the_arena_of_its_engine():
    from repro.core import ClassificationBlock, Impulse, TimeSeriesInput
    from repro.deploy.wasm import build_wasm
    from repro.dsp import RawBlock

    graph = _zoo_graph("cifar_cnn", "int8")
    impulse = Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=3),
        [RawBlock()], ClassificationBlock(),
    )
    labels = {str(i): i for i in range(4)}
    for engine, source in (("eon", compile_plan(graph)), ("tflm", graph)):
        artifact = build_wasm(graph, impulse, labels, engine=engine)
        assert artifact.metadata["arena_bytes"] == plan_arena(source).total_bytes


# -- emitted constants -------------------------------------------------------


def test_float_literals_round_trip_exactly():
    graph = _zoo_graph("conv1d_stack", "f32")
    cpp = EONCompiler().generate_source(graph)["eon_model.cpp"]
    by_name = {f"g_{t.name}".replace("-", "_"): t for t in graph.tensors if t.is_const}
    arrays = re.findall(r"^static const float (\w+)\[(\d+)\] = \{ (.*) \};$", cpp, re.M)
    assert len(arrays) == len(by_name)
    literal = re.compile(r"-?\d+(\.\d*(e[+-]\d+)?|e[+-]\d+)f")
    for name, n, body in arrays:
        values = body.split(", ")
        assert len(values) == int(n)
        assert all(literal.fullmatch(v) for v in values), name
        got = np.array([float(v[:-1]) for v in values], dtype=np.float32)
        want = np.asarray(by_name[name].data, dtype=np.float32).reshape(-1)
        assert got.tobytes() == want.tobytes(), name
    # Zero biases are the literals that used to come out as ``0f``.
    assert "0.0f" in cpp
    bits = np.random.default_rng(0).integers(0, 2**32, 100_000, dtype=np.uint32)
    values = bits.view(np.float32)
    values = values[np.isfinite(values)]
    parsed = np.array([float(_float_literal(v)[:-1]) for v in values.tolist()], np.float32)
    assert parsed.tobytes() == values.tobytes()


def _int4_graph() -> Graph:
    fg = sequential_to_graph(conv1d_stack((32, 6), 4, seed=0))
    return quantize_graph(fg, _calib((32, 6)), precision_map={0: "int4"})


def test_int4_weights_emit_packed_bytes():
    graph = _int4_graph()
    cpp = EONCompiler().generate_source(graph)["eon_model.cpp"]
    int4 = [t for t in graph.tensors if t.dtype == "int4"]
    assert int4
    for t in int4:
        name = f"g_{t.name}".replace("-", "_")
        n, body = re.search(
            rf"static const uint8_t {name}\[(\d+)\] = \{{ (.*) \}};", cpp
        ).groups()
        assert int(n) == t.size_bytes
        assert [int(v) for v in body.split(", ")] == pack_int4(t.data).tolist()
    # The call names the kernel variant the profiler prices.
    assert _kernel_calls(cpp)[0] == "eon_conv_1d_maxpool_i4"


@pytest.mark.parametrize("graph_fn", [
    lambda: _zoo_graph("conv1d_stack", "f32"),
    lambda: _zoo_graph("cifar_cnn", "int8"),
    _int4_graph,
], ids=["f32", "int8", "int4"])
def test_constant_arrays_compile(graph_fn, tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    cpp = EONCompiler().generate_source(graph_fn())["eon_model.cpp"]
    constants = [line for line in cpp.splitlines() if line.startswith("static const")]
    src = tmp_path / "constants.c"
    src.write_text("#include <stdint.h>\n" + "\n".join(constants) + "\n")
    result = subprocess.run(
        [cc, "-fsyntax-only", "-x", "c", str(src)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr[:2000]
