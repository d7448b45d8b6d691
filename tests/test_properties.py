"""Cross-cutting property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.impulse import TimeSeriesInput
from repro.graph import sequential_to_graph
from repro.nn.architectures import conv1d_stack, ds_cnn
from repro.quantize import quantize_graph
from repro.runtime import (
    EONCompiler,
    TFLMInterpreter,
    plan_arena,
    run_graph,
    run_graph_dispatch,
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=50, max_value=400),  # series length
    st.integers(min_value=20, max_value=120),  # window
    st.integers(min_value=5, max_value=120),  # stride
)
def test_windowing_property(length, window, stride):
    """Window count formula, coverage, and content correctness for any
    (length, window, stride) combination."""
    block = TimeSeriesInput(
        window_size_ms=window * 10, window_increase_ms=stride * 10,
        frequency_hz=100,
    )
    series = np.arange(length, dtype=np.float32)
    windows = block.windows(series)
    assert windows.shape[1] == window
    if length < window:
        assert windows.shape[0] == 1
        assert np.array_equal(windows[0, :length], series)
        assert (windows[0, length:] == 0).all()
    else:
        expected = 1 + (length - window) // stride
        assert windows.shape[0] == expected
        for i in range(min(expected, 4)):
            assert np.array_equal(windows[i], series[i * stride: i * stride + window])


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),  # conv1d layers
    st.sampled_from([4, 8]),  # first filters
    st.integers(min_value=2, max_value=5),  # classes
)
def test_engine_equality_property(n_layers, filters, n_classes):
    """For any small architecture: float graph == model output, int8
    interpreter == int8 EON, bit-exact."""
    rng = np.random.default_rng(n_layers * 10 + filters)
    model = conv1d_stack((12, 4), n_classes, n_layers=n_layers,
                         first_filters=filters, last_filters=filters * 2,
                         seed=0)
    x = rng.standard_normal((6, 12, 4)).astype(np.float32)
    graph = sequential_to_graph(model)
    np.testing.assert_allclose(run_graph(graph, x), model.predict_proba(x),
                               atol=1e-4)
    qg = quantize_graph(graph, x)
    a = TFLMInterpreter(qg).invoke(x)
    b = EONCompiler().compile(qg).invoke(x)
    assert np.array_equal(a, b)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),  # conv1d layers
    st.sampled_from([4, 8]),  # first filters
    st.integers(min_value=0, max_value=1000),  # data seed
)
def test_compiled_plan_matches_dispatch_property(n_layers, filters, seed):
    """For any random float32/int8 graph: compiled-plan execution is
    bit-identical to the legacy per-invoke dispatch path, and the arena
    plan stays overlap-free under both strategies."""
    rng = np.random.default_rng(seed)
    model = conv1d_stack((12, 4), 3, n_layers=n_layers,
                         first_filters=filters, last_filters=filters * 2,
                         seed=seed)
    x = rng.standard_normal((5, 12, 4)).astype(np.float32)
    float_graph = sequential_to_graph(model)
    int8_graph = quantize_graph(float_graph, x)
    for graph in (float_graph, int8_graph):
        assert np.array_equal(run_graph(graph, x), run_graph_dispatch(graph, x))
        for strategy in ("greedy", "naive"):
            plan = plan_arena(graph, strategy=strategy)
            assert plan.overlaps() == []


def test_latency_monotone_in_macs():
    """Bigger models cost more estimated time on every device."""
    from repro.profile import DEVICES, LatencyEstimator

    small = sequential_to_graph(ds_cnn((16, 8), 3, filters=8, n_blocks=1, seed=0))
    large = sequential_to_graph(ds_cnn((16, 8), 3, filters=32, n_blocks=4, seed=0))
    assert large.total_macs() > small.total_macs()
    for device in DEVICES.values():
        est = LatencyEstimator(device)
        assert est.inference_ms(large) > est.inference_ms(small)


def test_memory_monotone_in_params():
    from repro.profile import MemoryEstimator

    small = sequential_to_graph(ds_cnn((16, 8), 3, filters=8, n_blocks=1, seed=0))
    large = sequential_to_graph(ds_cnn((16, 8), 3, filters=32, n_blocks=4, seed=0))
    for engine in ("tflm", "eon"):
        est = MemoryEstimator(engine=engine)
        assert est.estimate(large).flash_bytes > est.estimate(small).flash_bytes
        assert est.estimate(large).ram_bytes > est.estimate(small).ram_bytes


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dataset_split_is_pure_function_of_content(seed):
    """A sample's train/test assignment depends only on its content."""
    from repro.data.dataset import Dataset, Sample

    rng = np.random.default_rng(seed)
    data = rng.standard_normal(16).astype(np.float32)
    a = Dataset()
    b = Dataset()
    id_a = a.add(Sample(data=data.copy(), label="x"))
    id_b = b.add(Sample(data=data.copy(), label="x"))
    assert a.get(id_a).category == b.get(id_b).category


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_cancelling_parent_terminates_random_job_dags(data):
    """For any random tree of parent/child jobs, cancelling the root
    eventually terminates every descendant, and after drain() no job in
    the executor is left 'running' or 'queued'."""
    import threading
    import time as _time

    from repro.core.jobs import TERMINAL_STATES, JobExecutor

    executor = JobExecutor(max_workers=4)
    all_jobs = []
    release = threading.Event()

    def leaf(job):
        for _ in range(20):
            job.check_cancelled()
            if release.wait(timeout=0.002):
                break
        return "leaf done"

    def grow(parent, depth):
        n_children = data.draw(st.integers(min_value=0, max_value=3),
                               label=f"children@{depth}")
        for _ in range(n_children):
            if depth < 2 and data.draw(st.booleans(), label="is_parent"):
                node = executor.spawn_parent("node", parent=parent)
                all_jobs.append(node)
                grow(node, depth + 1)
                executor.seal_parent(node)
            else:
                all_jobs.append(executor.submit("leaf", leaf, parent=parent))

    root = executor.spawn_parent("root")
    all_jobs.append(root)
    grow(root, 0)
    executor.seal_parent(root)

    # Cancel at a random point: immediately, or after a tiny head start.
    if data.draw(st.booleans(), label="head_start"):
        _time.sleep(0.005)
    executor.cancel(root.job_id)
    release.set()

    done = executor.drain(timeout=30.0)
    assert {j.job_id for j in done} == {j.job_id for j in all_jobs}
    for job in executor.list_jobs():
        assert job.status in TERMINAL_STATES, (job.name, job.status)
    assert root.status in ("cancelled", "succeeded")  # raced completions ok
    assert executor.queue_depth == 0


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=-128, max_value=127),
)
def test_quantize_dequantize_idempotent(value, scale, zp):
    """quantize(dequantize(q)) == q for every representable point."""
    from repro.graph.ops import QuantParams

    qp = QuantParams(scale=np.array([scale]), zero_point=zp)
    q = qp.quantize(np.array([value], dtype=np.float32))
    again = qp.quantize(qp.dequantize(q))
    assert np.array_equal(q, again)
