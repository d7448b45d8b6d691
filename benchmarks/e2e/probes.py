"""In-process probes: coarse costs of the layers the socket run cannot
see into (worker-process internals, per-model plan time, WAL primitives).

Same seeded inputs as the workloads, best-of-N and interleaved like the
legacy benches, so allocator warm-up and frequency drift hit every
contestant equally.  Every probe is a few hundred milliseconds; the
whole pass is budgeted at under ten seconds because it rides on every
traced run.
"""

from __future__ import annotations

import io
import json
import shutil
import time
from types import SimpleNamespace

import numpy as np

MODELS = ("kws", "ic", "vww")
PRECISIONS = ("int8", "f32")
BATCHES = (1, 16)
FLOOD_TICKETS = 192
FLOOD_PROJECTS = 4
WAL_RECORDS = 2000


def best_of(fn, iters: int = 1, reps: int = 3) -> float:
    """Seconds per call, best of ``reps`` timings of ``iters`` calls."""
    return interleaved({"_": fn}, iters, reps)["_"]


def interleaved(fns: dict, iters: int, reps: int) -> dict:
    best = {name: float("inf") for name in fns}
    for _ in range(reps):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(iters):
                fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: t / iters for name, t in best.items()}


def spearman(a, b) -> float:
    ranks = [np.argsort(np.argsort(v)).astype(float) for v in (a, b)]
    return float(np.corrcoef(*ranks)[0, 1])


def probe_client(seed: int) -> dict:
    from workloads import ClassifyInputs

    single = ClassifyInputs(seed, precision="int8", rows=1, bodies=1)
    batch = ClassifyInputs(seed, precision="float32", rows=16, bodies=1)
    reply = json.dumps({"status": 200, "data": {
        "classification": dict(zip(single.labels[0],
                                   map(float, single.expected[0][0]))),
        "top": single.labels[0][0], "precision": "int8", "engine": "eon"}})
    times = interleaved({
        "client.encode_single_us": lambda: json.dumps(single.payloads[0]),
        "client.encode_batch16_us": lambda: json.dumps(batch.payloads[0]),
        "client.decode_single_us": lambda: json.loads(reply),
    }, iters=5, reps=5)
    return {name: t * 1e6 for name, t in times.items()}


def probe_runtime(seed: int) -> dict:
    """Plan compile + execute per zoo model x precision x batch, and how
    the measured single-row cost ranks against ``LatencyEstimator``."""
    from repro.experiments.tasks import paper_scale_graphs
    from repro.profile.devices import get_device
    from repro.profile.latency import LatencyEstimator
    from repro.runtime import EONCompiler, compile_plan

    rng = np.random.default_rng([seed, 3])
    estimator = LatencyEstimator(get_device("linux_x86"))
    out, runs, graphs = {}, {}, {}
    for model in MODELS:
        spec = paper_scale_graphs(model)
        for prec, graph in (("int8", spec.int8_graph), ("f32", spec.float_graph)):
            graphs[model, prec] = graph
            # cache=False: plans are memoized per graph, and a cached
            # fetch is not a compile.
            out[f"runtime.compile_ms.{model}.{prec}"] = best_of(
                lambda: compile_plan(graph, cache=False, engine="eon")) * 1e3
            compiled = EONCompiler().compile(graph)
            shape = tuple(graph.tensors[graph.input_id].shape)
            for b in BATCHES:
                x = rng.standard_normal((b,) + shape).astype(np.float32)
                runs[f"{model}.{prec}.b{b}"] = (
                    lambda m=compiled, x=x: m.predict_proba(x))
    times = interleaved(runs, iters=1, reps=4)
    for key, t in times.items():
        out[f"runtime.execute_us.{key}"] = t * 1e6
    for model in MODELS:
        for prec in PRECISIONS:
            out[f"runtime.batch_scaling.{model}.{prec}"] = (
                times[f"{model}.{prec}.b16"] / (16 * times[f"{model}.{prec}.b1"]))
    points = list(graphs)
    out["profile.estimate_us"] = best_of(
        lambda: estimator.inference_ms(graphs["kws", "int8"])) * 1e6
    out["profile.rank_corr"] = spearman(
        [estimator.inference_ms(graphs[p]) for p in points],
        [times[f"{p[0]}.{p[1]}.b1"] for p in points])
    return out


def probe_serving(seed: int) -> dict:
    """Flood throughput per serving tier, frame codec cost, and the cost
    of one round trip to a worker process."""
    from repro.core.workers.client import WorkerHandle
    from repro.core.workers.frames import pack_array, unpack_array
    from repro.experiments.tasks import paper_scale_graphs
    from repro.serve import (ModelServer, ProcessShardedModelServer,
                             ShardedModelServer)

    kws = paper_scale_graphs("kws")
    registry = SimpleNamespace(projects={
        pid: SimpleNamespace(project_id=pid, float_graph=kws.float_graph,
                             int8_graph=kws.int8_graph, label_map={"a": 0})
        for pid in range(1, FLOOD_PROJECTS + 1)})
    rng = np.random.default_rng([seed, 5])
    rows = rng.standard_normal((FLOOD_TICKETS, 490)).astype(np.float32)
    flood = [(1 + i % FLOOD_PROJECTS, row) for i, row in enumerate(rows)]
    out = {}

    def flood_rps(fire) -> float:
        # One warm flood (plans specialise per batch size on first
        # sight), one timed: a process-tier rep costs a second and the
        # probe pass rides on every traced run.
        fire()
        return FLOOD_TICKETS / best_of(fire, reps=1)

    inline = ModelServer(registry)
    out["serve.flood_rps.inline"] = flood_rps(
        lambda: [inline.classify(pid, row) for pid, row in flood])
    for name, tier in (("thread", ShardedModelServer(registry, workers=2)),
                       ("process", ProcessShardedModelServer(registry, workers=2))):
        with tier:
            out[f"serve.flood_rps.{name}"] = flood_rps(
                lambda: [t.value() for t in
                         [tier.submit(pid, row) for pid, row in flood]])

    stacked = {b: rows[:b].reshape(b, 49, 10) for b in BATCHES}
    spec, blob = pack_array(stacked[16])
    out["core.workers.frames.pack_us.b16"] = best_of(
        lambda: pack_array(stacked[16]), iters=20) * 1e6
    out["core.workers.frames.unpack_us.b16"] = best_of(
        lambda: unpack_array(spec, blob), iters=20) * 1e6

    def hop(handle, x):
        spec, blob = pack_array(x)
        _, blobs = handle.request("echo", {"rows": spec}, (blob,))
        return unpack_array(spec, blobs[0])

    # The worker's echo handler returns the frame it got: pack + socket
    # + executor-thread hop + unpack with no model in between, so the hop
    # is measured directly rather than as a difference of two executes.
    # (A classify reply carries 12 floats per row, not 490: upper bound.)
    with WorkerHandle(name="probe") as handle:
        times = interleaved(
            {b: (lambda x=x: hop(handle, x)) for b, x in stacked.items()},
            iters=20, reps=5)
    for b in BATCHES:
        out[f"core.workers.ipc_overhead_us.b{b}"] = times[b] * 1e6
    return out


def probe_build(seed: int, scratch) -> dict:
    """Primitives of the build path: WAL, DSP, WAV, PTQ, graph codec, jobs."""
    from repro.core.jobs import JobExecutor
    from repro.core.storage.engine import StorageEngine
    from repro.experiments.tasks import paper_scale_graphs
    from repro.formats.wav import read_wav, write_wav
    from repro.graph.serialize import graph_from_bytes, graph_to_bytes
    from repro.quantize import quantize_graph

    rng = np.random.default_rng([seed, 9])
    out = {}

    state_dir = scratch / "probe-wal"
    shutil.rmtree(state_dir, ignore_errors=True)
    try:
        engine = StorageEngine(state_dir, compact_every=10 * WAL_RECORDS)
        engine.open()
        op = {"op": "project_meta", "pid": 1, "meta": {"name": "probe"}}
        start = time.perf_counter()
        for _ in range(WAL_RECORDS):
            engine.append(op)
        out["core.storage.wal_append_us"] = (
            (time.perf_counter() - start) / WAL_RECORDS * 1e6)
        engine.close()
        reopened = StorageEngine(state_dir, compact_every=10 * WAL_RECORDS)
        start = time.perf_counter()
        _, tail = reopened.open()
        out["core.storage.recover_ms"] = (time.perf_counter() - start) * 1e3
        if len(tail) != WAL_RECORDS:
            raise RuntimeError(f"WAL replayed {len(tail)} of {WAL_RECORDS}")
        start = time.perf_counter()
        reopened.compact({"records": tail})
        out["core.storage.compact_ms"] = (time.perf_counter() - start) * 1e3
        reopened.close()
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    kws = paper_scale_graphs("kws")
    audio = rng.standard_normal(kws.raw_shape).astype(np.float32) * 0.1
    out["dsp.mfcc_us_per_window"] = best_of(
        lambda: kws.dsp_block.transform(audio), iters=3) * 1e6
    buf = io.BytesIO()
    write_wav(buf, audio[:8000], 8000)
    wav = buf.getvalue()
    out["formats.wav.decode_us"] = best_of(
        lambda: read_wav(io.BytesIO(wav)), iters=10) * 1e6

    calib = rng.standard_normal((8, 49, 10)).astype(np.float32)
    out["quantize.ptq_ms.kws"] = best_of(
        lambda: quantize_graph(kws.float_graph, calib)) * 1e3
    blob = graph_to_bytes(kws.int8_graph)
    out["graph.serialize_ms.kws"] = best_of(
        lambda: graph_to_bytes(kws.int8_graph)) * 1e3
    out["graph.deserialize_ms.kws"] = best_of(
        lambda: graph_from_bytes(blob)) * 1e3

    executor = JobExecutor()
    try:
        out["core.jobs.noop_roundtrip_us"] = best_of(
            lambda: executor.submit("noop", lambda job: None).wait(10.0),
            iters=20) * 1e6
    finally:
        executor.shutdown()
    return out


def run_all(seed: int, scratch) -> dict:
    return {**probe_client(seed), **probe_runtime(seed),
            **probe_serving(seed), **probe_build(seed, scratch)}
