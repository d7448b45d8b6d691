"""Plans run in EON's arena: every step writes its output at
``plan.arena``'s offset (times the batch's rows) in one reused buffer,
its temporaries in the scratch region past it.  The arena planner's
offsets are therefore *executed*: an overlap bug changes an output."""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import check_arena
from repro.graph import GOp, Graph, GTensor, sequential_to_graph
from repro.graph.serialize import graph_from_bytes
from repro.nn.architectures import cifar_cnn, conv1d_stack, ds_cnn, mobilenet_v2
from repro.quantize import quantize_graph
from repro.runtime import compile_plan, run_graph_dispatch
from repro.runtime import executor as E
from test_native_kernels import LIB, committed_blob, spec_plan


@pytest.fixture
def poisoned(monkeypatch):
    """Every execute's buffer — arena and scratch — filled with 0xA5
    first, so a step that reads a byte no earlier step wrote reads
    garbage instead of a stale right answer."""
    acquire = E._acquire_buffer

    def fill(nbytes):
        buf = acquire(nbytes)
        buf.data.fill(0xA5)
        return buf

    monkeypatch.setattr(E, "_acquire_buffer", fill)


def _graphs(factory, input_shape, n_classes, seed=0, **kwargs):
    model = factory(input_shape, n_classes, seed=seed, **kwargs)
    float_graph = sequential_to_graph(model, factory.__name__)
    calib = np.random.default_rng(seed).standard_normal((8,) + input_shape).astype(np.float32)
    return float_graph, quantize_graph(float_graph, calib)


def _residual_graph() -> Graph:
    """x -> FC a -> FC b; ADD(a, b) -> SOFTMAX: ``a`` is live while ``b``
    is written, and the ADD runs in place in ``a``'s slot."""
    graph = Graph("residual")
    x = graph.add_tensor(GTensor("x", (8,)))
    ids = [x]
    for i in range(2):
        w = np.random.default_rng(i).standard_normal((8, 8)).astype(np.float32)
        wid = graph.add_tensor(GTensor(f"w{i}", (8, 8), data=w))
        bid = graph.add_tensor(GTensor(f"b{i}", (8,), data=np.zeros(8, np.float32)))
        out = graph.add_tensor(GTensor(f"fc{i}", (8,)))
        graph.add_op(GOp("FULLY_CONNECTED", [ids[-1], wid, bid], [out], {"activation": "relu"}))
        ids.append(out)
    total = graph.add_tensor(GTensor("sum", (8,)))
    probs = graph.add_tensor(GTensor("probs", (8,)))
    graph.add_op(GOp("ADD", [ids[1], ids[2]], [total], {}))
    graph.add_op(GOp("SOFTMAX", [total], [probs], {}))
    graph.input_id, graph.output_id = x, probs
    return graph


def _assert_arena_matches_reference(graph, seed=0):
    """At b1 and b3, the arena-resident plan equals the freshly
    allocating reference bit for bit: ``run_graph_dispatch`` runs the
    spec kernels, unfused, into arrays it allocates per call."""
    plan = compile_plan(graph)
    shape = tuple(graph.tensors[graph.input_id].shape)
    rng = np.random.default_rng(seed)
    for rows in (1, 3):
        x = rng.standard_normal((rows,) + shape).astype(np.float32)
        got = plan.execute(x)
        want = run_graph_dispatch(graph, x)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),  # conv1d layers
    st.sampled_from([4, 8]),  # first filters
    st.integers(min_value=0, max_value=1000),  # seed
)
def test_conv1d_stacks_in_a_poisoned_arena(n_layers, filters, seed):
    acquire = E._acquire_buffer

    def fill(nbytes):
        buf = acquire(nbytes)
        buf.data.fill(0xA5)
        return buf

    E._acquire_buffer = fill  # hypothesis reruns the body; no function fixture
    try:
        for graph in _graphs(conv1d_stack, (12, 4), 3, seed=seed, n_layers=n_layers,
                             first_filters=filters, last_filters=filters * 2):
            _assert_arena_matches_reference(graph, seed)
    finally:
        E._acquire_buffer = acquire


SHAPES = {
    "conv_pool": (cifar_cnn, (16, 16, 3), 4, {"base_filters": 8}),
    "residual_add": (mobilenet_v2, (16, 16, 3), 3, {}),
    "depthwise": (ds_cnn, (13, 8), 4, {"filters": 8, "n_blocks": 2}),
}


@pytest.mark.parametrize("precision", ["f32", "int8"])
@pytest.mark.parametrize("name", list(SHAPES))
def test_zoo_shapes_in_a_poisoned_arena(poisoned, name, precision):
    factory, shape, n_classes, kwargs = SHAPES[name]
    float_graph, int8_graph = _graphs(factory, shape, n_classes, **kwargs)
    graph = int8_graph if precision == "int8" else float_graph
    if name == "conv_pool":
        assert len(compile_plan(graph).steps) < len(graph.ops)  # fused steps
    if name == "residual_add":
        assert any(s.inplace_src is not None for s in compile_plan(graph).steps)
    _assert_arena_matches_reference(graph)


def test_residual_graph_in_a_poisoned_arena(poisoned):
    _assert_arena_matches_reference(_residual_graph())


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("case", ["residual", "mobilenet_v2-int8"])
def test_an_overlapping_offset_is_flagged_and_corrupts_the_output(case):
    """Shift one offset of the memoised arena so a tensor is written
    over one that a later step still reads: G041 must flag the arena and
    the output must change — the planner's offsets are what runs."""
    if case == "residual":
        graph = _residual_graph()
    else:
        graph = _graphs(mobilenet_v2, (16, 16, 3), 3)[1]
    x = np.random.default_rng(5).standard_normal(
        (2,) + tuple(graph.tensors[graph.input_id].shape)).astype(np.float32)
    want = _digest(compile_plan(graph).execute(x))

    plan = compile_plan(graph, cache=False)
    arena = plan.arena
    assert check_arena(graph, plan=arena).ok
    victim, clobber = next(
        (a, b) for a in arena.offsets for b in arena.offsets
        if a not in arena.aliases and b not in arena.aliases
        and arena.lifetimes[a][0] < arena.lifetimes[b][0] < arena.lifetimes[a][1]
        and arena.sizes[b] <= arena.sizes[a]
    )
    arena.offsets[clobber] = arena.offsets[victim]
    assert "G041" in {d.code for d in check_arena(graph, plan=arena).errors}
    assert _digest(plan.execute(x)) != want


def test_a_returned_output_survives_later_executes():
    graph = _graphs(ds_cnn, (13, 8), 4, filters=8, n_blocks=2)[0]
    plan = compile_plan(graph)
    rng = np.random.default_rng(0)
    x1, x2 = (rng.standard_normal((3, 13, 8)).astype(np.float32) for _ in range(2))
    first = plan.execute(x1)
    kept = first.copy()
    plan.execute(x2)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, plan.execute(x1))


def test_two_threads_on_one_plan_each_get_their_own_answer():
    graph = _graphs(cifar_cnn, (16, 16, 3), 4, base_filters=8)[1]
    plan = compile_plan(graph)
    rng = np.random.default_rng(1)
    inputs = [rng.standard_normal((2, 16, 16, 3)).astype(np.float32) for _ in range(2)]
    wants = [run_graph_dispatch(graph, x) for x in inputs]
    assert not np.array_equal(*wants)
    errors: list[str] = []
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        for n in range(200):
            if not np.array_equal(plan.execute(inputs[i]), wants[i]):
                errors.append(f"thread {i} iteration {n}")
                return

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def test_buffers_and_views_are_reused_across_threads_and_plans(monkeypatch):
    """Handler threads that come and go reuse one idle buffer and the
    views a plan carved from it; two plans share that buffer."""
    carves = []
    carve = E.CompiledPlan._carve
    monkeypatch.setattr(E.CompiledPlan, "_carve",
                        lambda self, data, rows: carves.append(rows) or carve(self, data, rows))
    monkeypatch.setattr(E, "_idle", [])
    float_graph, int8_graph = _graphs(ds_cnn, (13, 8), 4, filters=8, n_blocks=2)
    x = np.zeros((1, 13, 8), np.float32)
    for _ in range(5):
        t = threading.Thread(target=compile_plan(int8_graph).execute, args=(x,))
        t.start()
        t.join()
    assert carves == [1] and len(E._idle) == 1
    compile_plan(float_graph).execute(x)
    compile_plan(float_graph).execute(x)
    assert carves == [1, 1] and len(E._idle) == 1


def test_a_call_over_the_retention_cap_runs_in_a_dropped_buffer(monkeypatch):
    monkeypatch.setattr(E, "_idle", [])
    monkeypatch.setattr(E, "ARENA_RETAIN_BYTES", 1 << 10)
    graph = _graphs(ds_cnn, (13, 8), 4, filters=8, n_blocks=2)[1]
    x = np.random.default_rng(2).standard_normal((4, 13, 8)).astype(np.float32)
    assert np.array_equal(compile_plan(graph).execute(x), run_graph_dispatch(graph, x))
    assert E._idle == []


def test_the_arena_is_planned_on_first_execute_and_shared():
    from repro.profile import MemoryEstimator
    from repro.runtime import EONCompiler

    graph = _residual_graph()
    plan = compile_plan(graph)
    assert plan._arena is None  # compile_plan does not plan it
    plan.execute(np.zeros((1, 8), np.float32))
    arena = plan.arena
    assert MemoryEstimator("eon").estimate(graph).arena_bytes == arena.total_bytes
    EONCompiler().generate_source(graph)
    assert plan.arena is arena


#: The per-row scratch region (bytes) of each committed ``.eir`` plan,
#: bound with and without the kernel library, recorded when a step's
#: scratch buffers were placed by the kernel phases they are live over;
#: back to back, they must take the same bytes.
SCRATCH_BYTES = {"kws": (28480, 3920), "ic": (24576, 24576), "vww": (221184, 221184)}


@pytest.mark.parametrize("route", ["c", "spec"])
@pytest.mark.parametrize("task", sorted(SCRATCH_BYTES))
def test_the_committed_plans_keep_their_scratch_region(task, route):
    if route == "c" and LIB is None:
        pytest.skip("no C compiler / kernel library")
    graph = graph_from_bytes(committed_blob(task))
    plan = compile_plan(graph, cache=False) if route == "c" else spec_plan(graph)
    assert plan._scratch_region()[1] == SCRATCH_BYTES[task][route == "spec"]
