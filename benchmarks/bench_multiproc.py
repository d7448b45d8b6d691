"""Cross-process serving throughput: worker processes vs. serial calls.

Measures what the cross-process execution plane buys: a flood of
independent classify requests over several projects, served by
``ModelServer(placement="process")`` worker *processes* (batched queue
gulps, frame-protocol transport) vs. the same flood pushed one-at-a-time
through a default one-shard ``ModelServer``, whose idle shard runs each
``classify`` in its caller.

On a single-core runner the speedup comes from the same place the
threaded tier's does — queue gulps turn N requests into few big
vectorized invokes, amortizing per-request overhead — while the frame
protocol must not eat the win.  On multi-core hardware the workers add
real parallelism on top; the threaded-tier comparison is printed, and
only asserted where there are cores to parallelize over.

int8 results must be bit-identical to the in-process server: both sides
execute the same compiled plan (rehydrated from the same serialized
graph) on the same stacked rows.

``BENCH_SMOKE=1`` shrinks the request counts for per-PR CI sampling.
"""

import os
import time

import numpy as np
from conftest import save_metric, save_result, smoke_mode

from repro.core import Platform
from repro.graph import sequential_to_graph
from repro.nn.architectures import mobilenet_v1
from repro.quantize import quantize_graph
from repro.serve import ModelServer

SERVE_SHAPE = (16, 16)
N_CLASSES = 2


def _mobilenet_graphs(input_shape, seed=0):
    rng = np.random.default_rng(seed)
    model = mobilenet_v1(input_shape, N_CLASSES, alpha=0.25, depth=4, seed=seed)
    float_graph = sequential_to_graph(model, "vww-bench")
    calib = rng.standard_normal((8,) + input_shape).astype(np.float32)
    return float_graph, quantize_graph(float_graph, calib)


def _best_of(fn, repeats=3):
    """Best-of-N wall time: robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_multiproc_serving_throughput():
    n_projects = 6
    n_requests = 96 if smoke_mode() else 192
    workers = 4

    platform = Platform()
    platform.register_user("bench")
    projects = []
    for i in range(n_projects):
        float_graph, int8_graph = _mobilenet_graphs(SERVE_SHAPE, seed=i)
        p = platform.create_project(f"vww-proc-{i}", owner="bench")
        p.float_graph, p.int8_graph = float_graph, int8_graph
        p.label_map = {"no_person": 0, "person": 1}
        projects.append(p)

    rng = np.random.default_rng(4)
    requests = [
        (projects[i % n_projects].project_id,
         rng.standard_normal(int(np.prod(SERVE_SHAPE))).astype(np.float32))
        for i in range(n_requests)
    ]

    single = ModelServer(platform)
    threaded = ModelServer(platform, placement="thread", workers=workers)
    multiproc = ModelServer(platform, placement="process", workers=workers)
    for p in projects:  # warm every tier so compile/spawn time is excluded
        single.get_model(p.project_id)
        threaded.get_model(p.project_id)
        multiproc.get_model(p.project_id)

    def single_pass():
        return [single.classify(pid, f) for pid, f in requests]

    def threaded_pass():
        tickets = [threaded.submit(pid, f) for pid, f in requests]
        return [t.value() for t in tickets]

    def multiproc_pass():
        tickets = [multiproc.submit(pid, f) for pid, f in requests]
        return [t.value() for t in tickets]

    # The acceptance bar first: int8 across the process boundary is
    # bit-identical to the in-process server (dict equality on floats).
    assert multiproc_pass() == single_pass()

    t_single = _best_of(single_pass)
    t_threaded = _best_of(threaded_pass)
    t_multiproc = _best_of(multiproc_pass)
    single_rps = n_requests / t_single
    threaded_rps = n_requests / t_threaded
    multiproc_rps = n_requests / t_multiproc
    speedup = multiproc_rps / single_rps

    snap = multiproc.snapshot()
    busy = sum(1 for s in snap["per_shard"] if s["requests"])
    cores = os.cpu_count() or 1
    text = "\n".join([
        f"Serving — serial vs. {workers} worker processes "
        f"(int8 EON, {n_projects} projects, {cores} core(s))",
        f"  serial     {single_rps:8.1f} req/s ({t_single / n_requests * 1e3:6.2f} ms/req)",
        f"  threaded   {threaded_rps:8.1f} req/s ({t_threaded / n_requests * 1e3:6.2f} ms/req)",
        f"  multiproc  {multiproc_rps:8.1f} req/s ({t_multiproc / n_requests * 1e3:6.2f} ms/req)",
        f"  speedup {speedup:.2f}x over serial | busy shards {busy}/{workers} | "
        f"mean batch {snap['mean_batch_size']:.1f} | restarts {snap['restarts']}",
    ])
    save_result("serving_multiproc_throughput", text)
    save_metric("multiproc_single_rps", single_rps)
    save_metric("multiproc_rps", multiproc_rps)
    save_metric("serving_multiproc_speedup", speedup)
    print("\n" + text)
    threaded.close()
    multiproc.close()
    assert snap["restarts"] == 0, "workers died during the benchmark"
    # The regression gate (serving_multiproc_speedup, floor 1.6) is the
    # binding bound; this is the never-acceptable backstop.
    assert speedup >= 1.5, f"multiproc serving only {speedup:.2f}x serial"
    if cores >= 4:
        # With real cores to spread over, the process plane must at
        # least hold the threaded tier's throughput (the GIL caps the
        # threaded tier; the frame protocol is the process tier's tax).
        assert multiproc_rps >= 0.8 * threaded_rps, (
            f"multiproc {multiproc_rps:.0f} req/s vs threaded "
            f"{threaded_rps:.0f} req/s on {cores} cores"
        )
