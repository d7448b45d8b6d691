"""Telemetry-ingest overhead on the serving hot path.

The monitoring plane (``repro.monitor``) hangs a TelemetryStore off the
serving tier: every served batch emits one record that holds its rows'
top/confidence and 8-dim feature sketches as columns (one vectorized
pass), pushed under a single lock into per-project column rings.  This bench measures
what that costs where it matters — the batched classify path — by
timing the *same* server with the sink detached vs. attached,
round-robin so warm-up and CPU drift hit both sides equally.

Gate: monitoring must stay a near-zero-cost tax.  The hard assert keeps
the overhead under 10% (the closed-loop acceptance bar); the
``monitor_ingest_headroom`` ratio (t_off / t_on, ~1.0 when free) is
gated in ``benchmarks/BENCH_baseline.json`` so CI catches regressions.
Raw store throughput (records/s through ``TelemetryStore.extend``) is
reported informationally.
"""

import time

import numpy as np
from conftest import save_metric, save_result, smoke_mode

from repro.core import Platform
from repro.graph import sequential_to_graph
from repro.monitor import TelemetryRecord, TelemetryStore
from repro.nn.architectures import mobilenet_v1
from repro.quantize import quantize_graph
from repro.serve import ModelServer

SERVE_SHAPE = (16, 16)
N_CLASSES = 2


def _project():
    rng = np.random.default_rng(0)
    model = mobilenet_v1(SERVE_SHAPE, N_CLASSES, alpha=0.25, depth=4, seed=0)
    float_graph = sequential_to_graph(model, "vww-monitor-bench")
    calib = rng.standard_normal((8,) + SERVE_SHAPE).astype(np.float32)
    platform = Platform()
    platform.register_user("bench")
    project = platform.create_project("vww-monitor-bench", owner="bench")
    project.float_graph = float_graph
    project.int8_graph = quantize_graph(float_graph, calib)
    project.label_map = {"no_person": 0, "person": 1}
    return project


def _interleaved_best_of(fns: dict, iters: int, reps: int) -> dict:
    best = {name: float("inf") for name in fns}
    for _ in range(reps):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(iters):
                fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: t / iters for name, t in best.items()}


def test_monitor_ingest_overhead_on_serving_path():
    project = _project()
    server = ModelServer.for_project(project)
    store = TelemetryStore(window=4096)
    rng = np.random.default_rng(1)
    n_requests = 32 if smoke_mode() else 64
    requests = [
        rng.standard_normal(int(np.prod(SERVE_SHAPE))).astype(np.float32)
        for _ in range(n_requests)
    ]
    server.get_model(project.project_id)  # warm the compiled-model cache

    def run_off():
        server.telemetry = None
        server.classify_batch(project.project_id, requests)

    def run_on():
        server.telemetry = store
        server.classify_batch(project.project_id, requests)

    # Results must be identical with the sink attached.
    server.telemetry = None
    want = server.classify_batch(project.project_id, requests)
    server.telemetry = store
    assert server.classify_batch(project.project_id, requests) == want
    assert store.count(project.project_id) == n_requests
    assert server.snapshot()["telemetry_errors"] == 0
    run_off(), run_on()  # warm both paths before timing

    iters, reps = (4, 9) if smoke_mode() else (6, 13)
    times = _interleaved_best_of({"off": run_off, "on": run_on},
                                 iters=iters, reps=reps)
    headroom = times["off"] / times["on"]
    overhead_pct = (times["on"] - times["off"]) / times["off"] * 100.0
    per_record_us = (times["on"] - times["off"]) / n_requests * 1e6

    text = "\n".join([
        "Monitoring — telemetry ingest overhead on the batched serving path",
        f"  monitoring off {times['off'] * 1e3:7.3f} ms/pass "
        f"({n_requests} requests)",
        f"  monitoring on  {times['on'] * 1e3:7.3f} ms/pass",
        f"  overhead {overhead_pct:+.2f}% "
        f"({per_record_us:+.2f} us/record) | headroom {headroom:.3f}",
    ])
    save_result("monitor_ingest_overhead", text)
    save_metric("monitor_ingest_headroom", headroom)
    save_metric("monitor_ingest_overhead_pct", overhead_pct)
    print("\n" + text)
    assert overhead_pct < 10.0, (
        f"telemetry ingest costs {overhead_pct:.1f}% on the serving path "
        "(budget: 10%)"
    )


def test_store_ingest_throughput():
    """Raw TelemetryStore.extend throughput: build + ingest batches of
    one-row records (the worst case — the serving path builds one record
    per served batch)."""
    store = TelemetryStore(window=4096)
    sketch = np.zeros(8, dtype=np.float32)
    batch_size = 32
    batches = 60 if smoke_mode() else 250

    start = time.perf_counter()
    for _ in range(batches):
        store.extend([
            TelemetryRecord(1, model_version="1.0.1", latency_ms=0.2,
                            top="person", confidence=0.9, sketch=sketch)
            for _ in range(batch_size)
        ])
    elapsed = time.perf_counter() - start
    rate = batches * batch_size / elapsed

    text = "\n".join([
        "Monitoring — TelemetryStore batched ingest",
        f"  {batches * batch_size} records in {elapsed * 1e3:.1f} ms "
        f"-> {rate:,.0f} records/s (batches of {batch_size})",
    ])
    save_result("monitor_store_ingest", text)
    save_metric("monitor_ingest_records_per_s", rate)
    print("\n" + text)
    # The ring stayed bounded (and full, once enough records flowed).
    assert store.count(1) == min(batches * batch_size, store.window)
    assert rate > 10_000, f"store ingest only {rate:,.0f} records/s"
