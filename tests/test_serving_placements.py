"""The serving contract, once, on every placement.

``ModelServer(placement="thread"|"process")`` differ only in where a
stacked batch runs; everything a caller can observe — results,
admission errors, counters, telemetry, lifecycle — must be the same.
Placement-specific behaviour (8-thread cache hammer, worker death and
respawn) lives in test_sharded_serving.py / test_process_serving.py.
"""

import contextlib
import threading
import time
import zlib

from types import SimpleNamespace

import numpy as np
import pytest

from repro.monitor.telemetry import TelemetryStore
from repro.serve import (ModelNotTrainedError, ModelServer, ServingError,
                         ServingOverloadedError)

PLACEMENTS = ["thread", "process"]
LABELS = ("a", "b", "c")
RNG = np.random.default_rng(17)

pytestmark = pytest.mark.parametrize("placement", PLACEMENTS)


@pytest.fixture()
def platform(tiny_graphs):
    """A platform with several 'trained' projects sharing the tiny graphs;
    its own ``serving`` (the default one-shard server) is the reference
    the placements are compared with."""
    from repro.core import Platform

    platform = Platform()
    platform.register_user("alice")
    for i in range(4):
        p = platform.create_project(f"placed-p{i}", owner="alice")
        p.float_graph, p.int8_graph = tiny_graphs
        p.label_map = dict(zip(LABELS, range(3)))
    yield platform
    platform.serving.close()


def make_server(platform, placement, **kwargs):
    return ModelServer(platform, placement=placement,
                       workers=kwargs.pop("workers", 2), **kwargs)


def probs(result):
    return [result["classification"][l] for l in LABELS]


@contextlib.contextmanager
def parked_drain(server, pid, row):
    """One submitted request parked inside the runner on shard 0's
    thread — so what is admitted meanwhile stays queued — yielding
    ``(gate, in_flight)``; ``in_flight()`` is that request's result.
    Only that one invoke parks: the runner is restored before the block
    runs, so a runner the block installs serves the queued gulp."""
    shard = server.shards[0]
    gate, entered = threading.Event(), threading.Event()
    run = shard.runner.run

    def parked(model, stacked):
        shard.runner.run = run
        entered.set()
        gate.wait(10)
        return run(model, stacked)

    shard.runner.run = parked
    in_flight = server.submit(pid, row).value
    assert entered.wait(10), "the in-flight request never reached the runner"
    try:
        yield gate, in_flight
    finally:
        gate.set()


def test_results_match_inline_reference(platform, placement,
                                        tiny_classification_problem):
    """int8 is bit-identical (dict equality) on every path — classify,
    classify_batch, submit — to the platform's default one-shard
    server, which runs a lone classify inline in its caller; float32
    agrees to rtol 1e-5 (a batched invoke may reassociate BLAS
    reductions)."""
    x, _ = tiny_classification_problem
    reference = platform.serving
    with make_server(platform, placement) as server:
        for pid in list(platform.projects)[:3]:
            assert server.classify(pid, x[0]) == reference.classify(pid, x[0])
            want = reference.classify_batch(pid, list(x[:6]))
            assert server.classify_batch(pid, list(x[:6])) == want
            tickets = [server.submit(pid, row) for row in x[:6]]
            assert [t.value() for t in tickets] == want

            got = server.classify_batch(pid, list(x[:6]), precision="float32")
            want = reference.classify_batch(pid, list(x[:6]), precision="float32")
            for g, w in zip(got, want):
                assert g["top"] == w["top"]
                np.testing.assert_allclose(probs(g), probs(w), rtol=1e-5, atol=1e-7)
            single = server.classify(pid, x[0], precision="float32")
            np.testing.assert_allclose(probs(single), probs(want[0]),
                                       rtol=1e-5, atol=1e-7)


def test_bad_requests_fail_eagerly_with_zero_work(platform, placement):
    """Admission runs in the caller's thread: bad requests raise the same
    exceptions everywhere and never reach (or spawn) a worker."""
    pid = next(iter(platform.projects))
    good = RNG.standard_normal((16, 8))
    with make_server(platform, placement) as server:
        with pytest.raises(ServingError, match="expected 128 features"):
            server.classify(pid, [1.0, 2.0])
        with pytest.raises(ServingError, match="not numeric"):
            server.submit(pid, ["not", "numbers"])
        with pytest.raises(ServingError, match="unknown precision"):
            server.classify(pid, good, precision="float16")
        with pytest.raises(KeyError):
            server.classify(999, good)
        with pytest.raises(ServingError, match="non-empty list"):
            server.classify_batch(pid, [])
        with pytest.raises(ServingError, match="non-empty list"):
            server.classify_batch(pid, 5)
        untrained = platform.create_project("untrained", owner="alice")
        with pytest.raises(ModelNotTrainedError):
            server.classify(untrained.project_id, good)
        snap = server.snapshot()
        assert snap["requests"] == snap["batches"] == snap["batch_errors"] == 0
        assert all(s["drains"] == 0 for s in snap["per_shard"])
        assert not any(s.get("worker_alive") for s in snap["per_shard"])


def test_batch_admission_is_all_or_nothing(platform, placement,
                                           tiny_classification_problem):
    """A malformed row anywhere in a batch rejects the whole request
    before any row is queued: nothing executes, nothing is counted, and
    no telemetry (drift-baseline input) is written for a request the
    caller saw fail."""
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    with make_server(platform, placement) as server:
        server.telemetry = TelemetryStore()
        with pytest.raises(ServingError, match="expected 128 features"):
            server.classify_batch(pid, [*x[:4], [1.0]])
        snap = server.snapshot()
        assert snap["requests"] == 0 and snap["batches"] == 0
        assert all(s["queue_depth"] == 0 for s in snap["per_shard"])
        assert server.telemetry.count(pid) == 0
        # Queues are FIFO, so a (wrongly) admitted prefix would have run
        # by the time a later request on the same shard returns.
        assert len(server.classify_batch(pid, list(x[:5]))) == 5
        assert server.snapshot()["requests"] == 5
        assert server.telemetry.count(pid) == 5


def test_one_array_batch_equals_the_list_of_rows(platform, placement,
                                                 tiny_classification_problem):
    """``classify_batch`` takes the rows as one array — ``(n, size)`` as a
    packed request decodes to, or ``(n, *feature_shape)`` — validates it
    once, and serves exactly what the list of rows gets, float32
    included (same rows, same batch, same kernels).  The array may be a
    read-only view of request bytes: nothing on the path writes to it."""
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    flat = np.frombuffer(x[:6].tobytes(), dtype="<f4").reshape(6, -1)
    assert not flat.flags.writeable
    with make_server(platform, placement) as server:
        for precision in ("int8", "float32"):
            want = server.classify_batch(pid, [row.tolist() for row in flat],
                                         precision=precision)
            assert server.classify_batch(pid, flat, precision=precision) == want
            assert server.classify_batch(pid, x[:6], precision=precision) == want
            assert server.classify_batch(pid, list(x[:6]), precision=precision) == want
            # Rows of differing nesting still go row by row.
            mixed = [x[0], x[1].reshape(-1).tolist(), *x[2:6]]
            assert server.classify_batch(pid, mixed, precision=precision) == want
        with pytest.raises(ServingError, match="expected 128 features"):
            server.classify_batch(pid, flat.reshape(12, 64))  # the total divides
        with pytest.raises(ServingError, match="expected 128 features"):
            server.classify_batch(pid, flat.reshape(-1))
        with pytest.raises(ServingError, match="non-empty list"):
            server.classify_batch(pid, flat[:0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_non_finite_features_never_pass_admission(platform, placement, bad,
                                                  tiny_classification_problem):
    """NaN / +-Inf (and a double that overflows the float32 cast) are
    refused before a ticket exists — on every entry point, either
    precision, all-or-nothing for a batch — so no worker sees them and
    no NaN confidence reaches the telemetry store."""
    import warnings

    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    poisoned = x[1].astype(np.float64)
    poisoned[3, 5] = bad
    stacked = np.stack([x[0], poisoned])  # float64: the cast is the server's
    with make_server(platform, placement) as server, warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "invalid value encountered in cast"
        server.telemetry = TelemetryStore()
        for precision in ("int8", "float32"):
            for call in (
                lambda: server.classify(pid, poisoned, precision=precision),
                lambda: server.submit(pid, poisoned.tolist(), precision=precision),
                lambda: server.classify_batch(pid, [x[0], poisoned, x[2]],
                                              precision=precision),
                lambda: server.classify_batch(pid, stacked, precision=precision),
            ):
                with pytest.raises(ServingError, match="^features must be finite$"):
                    call()
        snap = server.snapshot()
        assert snap["requests"] == snap["batches"] == snap["batch_errors"] == 0
        assert all(s["queue_depth"] == 0 for s in snap["per_shard"])
        assert server.telemetry.count(pid) == 0


def test_queue_full_sheds_the_whole_group(platform, placement,
                                          tiny_classification_problem):
    """Overload sheds with a clear error instead of queueing unboundedly,
    on every placement; a batch that does not fit is rejected whole.  A
    batch larger than the whole queue can never fit: a plain (not
    retryable) error naming its row count and the capacity."""
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    with make_server(platform, placement, workers=1, max_queue=4) as server:
        server.classify(pid, x[0])  # warm, so the gate below is the only wait
        shard = server.shards[0]
        with pytest.raises(ServingError, match=r"^6 rows exceed .*\(4\)") as err:
            server.classify_batch(pid, list(x[:6]))  # 6 > 4, even when idle
        assert not isinstance(err.value, ServingOverloadedError)
        assert shard.counters()["queue_depth"] == 0
        with parked_drain(server, pid, x[0]) as (gate, in_flight):
            queued = [server.submit(pid, x[i]) for i in range(3)]
            with pytest.raises(ServingOverloadedError, match="queue full"):
                server.classify_batch(pid, list(x[:2]))  # 3 + 2 > 4
            assert shard.counters()["queue_depth"] == 3  # nothing half-queued
            with pytest.raises(ServingError, match="^5 rows exceed"):
                server.classify_batch(pid, list(x[:5]))  # never fits
            queued.append(server.submit(pid, x[3]))  # exactly fills it
            with pytest.raises(ServingOverloadedError, match="queue full"):
                server.submit(pid, x[0])
        assert in_flight()["top"] in LABELS
        assert all(t.value()["top"] in LABELS for t in queued)
        assert server.snapshot()["requests"] == 6


def test_max_batch_chunks_every_placement(platform, placement,
                                          tiny_classification_problem):
    """``max_batch`` caps every batched invoke: a 70-row group is served
    as 32 + 32 + 6 (three worker frames on ``process``), bit-identical
    to the default server."""
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    want = platform.serving.classify_batch(pid, list(x[:70]))
    with make_server(platform, placement, workers=1, max_batch=32) as server:
        assert server.classify_batch(pid, list(x[:70])) == want
        snap = server.snapshot()
        assert snap["batches"] == 3 and snap["batched_requests"] == 70
        assert snap["mean_batch_size"] == pytest.approx(70 / 3)
        assert snap["per_shard"][0]["largest_batch"] == 32


def test_cache_hits_invalidate_retrain_and_lru(platform, placement,
                                               tiny_classification_problem):
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    project = platform.projects[pid]
    with make_server(platform, placement, workers=1, cache_size=2) as server:
        want = server.classify(pid, x[0])
        entry = server.get_model(pid, "int8")
        assert server.get_model(pid, "int8") is entry
        snap = server.snapshot()
        assert (snap["cache_hits"], snap["cache_misses"]) == (2, 1)

        other = list(platform.projects)[1]
        server.get_model(other, "int8")
        server.invalidate(pid)
        assert server.snapshot()["cache_size"] == 1  # only pid's entry dropped
        server.invalidate(other)
        assert server.classify(pid, x[0]) == want  # recompiled, same bits
        assert server.snapshot()["cache_misses"] == 3

        # Retraining replaces the graph object; the cache must recompile.
        from repro.quantize import quantize_graph

        calib = RNG.standard_normal((8, 16, 8)).astype(np.float32)
        project.int8_graph = quantize_graph(project.float_graph, calib)
        assert server.get_model(pid, "int8") is not entry
        assert server.snapshot()["cache_misses"] == 4
        assert server.snapshot()["cache_size"] == 1  # replaced, not added

        # LRU: cache_size is per shard; a third key evicts the oldest,
        # which then has to recompile.
        server.get_model(pid, "float32")
        server.get_model(other, "int8")
        snap = server.snapshot()
        assert (snap["cache_size"], snap["cache_evictions"]) == (2, 1)
        server.get_model(pid, "int8")
        assert server.snapshot()["cache_misses"] == 7
        server.invalidate()
        assert server.snapshot()["cache_size"] == 0



def test_one_model_serves_both_engine_spellings(placement, tiny_graphs, monkeypatch,
                                                tiny_classification_problem):
    """TFLM and EON run the same plan, so the REST route serves either
    ``engine`` from one cached model: one compile, one cache entry and,
    on ``process``, one ``load_model`` sent to the worker."""
    from repro.core import Platform
    from repro.core.workers.client import WorkerHandle

    x, _ = tiny_classification_problem
    loads = []
    request = WorkerHandle.request

    def counted(handle, method, *args, **kwargs):
        if method == "load_model":
            loads.append(method)
        return request(handle, method, *args, **kwargs)

    monkeypatch.setattr(WorkerHandle, "request", counted)
    platform = Platform(serving_backend=placement)
    try:
        platform.register_user("alice")
        project = platform.create_project("spellings", owner="alice")
        project.float_graph, project.int8_graph = tiny_graphs
        project.label_map = dict(zip(LABELS, range(3)))
        replies = {}
        for engine in ("eon", "tflm"):
            reply = platform.gateway.handle(
                "POST", f"/v1/projects/{project.project_id}/classify",
                {"features": x[0].ravel().tolist(), "engine": engine},
                user="alice",
            )
            assert reply["status"] == 200, reply
            replies[engine] = reply["data"]
            assert replies[engine].pop("engine") == engine
        assert replies["eon"] == replies["tflm"]
        stats = platform.gateway.handle("GET", "/v1/serving/stats", user="alice")
        assert (stats["data"]["cache_misses"], stats["data"]["cache_size"]) == (1, 1)
        assert len(loads) == (1 if placement == "process" else 0)
    finally:
        platform.serving.close()

SNAPSHOT_KEYS = {
    "name", "requests", "batches", "batched_requests", "batch_errors",
    "mean_batch_size", "cache_size", "cache_hits", "cache_misses",
    "cache_evictions", "telemetry_errors", "restarts", "workers", "backend",
    "per_shard",
}


def test_snapshot_shape_and_per_shard_sums(platform, placement,
                                           tiny_classification_problem):
    x, _ = tiny_classification_problem
    pids = list(platform.projects)
    with make_server(platform, placement) as server:
        for pid in pids:
            server.classify_batch(pid, list(x[:4]))
        snap = server.snapshot()
        assert set(snap) == SNAPSHOT_KEYS
        assert snap["backend"] == placement
        assert snap["workers"] == len(server.shards)
        assert snap["requests"] == snap["batched_requests"] == 4 * len(pids)
        assert snap["cache_size"] == snap["cache_misses"] == len(pids)
        assert snap["mean_batch_size"] > 1.0
        assert snap["batch_errors"] == snap["restarts"] == 0
        rows = snap["per_shard"]
        assert [s["name"] for s in rows] == [s.name for s in server.shards]
        for key in ("requests", "batches", "cache_size", "cache_hits"):
            assert sum(s[key] for s in rows) == snap[key]
        for pid in pids:  # a model lives only in its owning shard's cache
            owner = server.shard_index(pid, "int8")
            assert rows[owner]["cache_size"] >= 1
        for s in rows:
            # Worker counters only tick on shards that saw traffic — and
            # only those spawned a worker process.
            assert (s["drains"] >= 1) is (s["requests"] > 0)
            assert s["grouped_batches"] >= s["drains"]
            assert s["queue_depth"] == 0
            if placement == "process":
                assert s["worker_alive"] is (s["requests"] > 0)
                assert (s["worker_pid"] is not None) is s["worker_alive"]


def test_wrong_result_row_count_fails_the_batch(platform, placement,
                                                tiny_classification_problem):
    """A runner returning the wrong number of rows fails every ticket of
    that batch with a ServingError naming got vs expected (never
    zip-truncates), ticks batch_errors, and the shard keeps serving."""
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    with make_server(platform, placement, workers=1) as server:
        server.classify(pid, x[0])  # warm the model
        runner = server.shards[0].runner
        run = runner.run
        runner.run = lambda model, stacked: run(model, stacked)[:0]
        with pytest.raises(ServingError, match=r"got 0 result row\(s\) for a batch of 3"):
            server.classify_batch(pid, list(x[:3]))
        runner.run = run
        assert server.classify(pid, x[0])["top"] in LABELS
        snap = server.snapshot()
        assert snap["batch_errors"] == 1
        assert snap["requests"] == 5 and snap["batched_requests"] == 2
        server.invalidate()  # counters are per shard, not per cache entry
        assert server.snapshot()["batch_errors"] == 1


def test_telemetry_one_record_per_served_row(platform, placement,
                                             tiny_classification_problem):
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    with make_server(platform, placement) as server:
        assert server.telemetry is None
        assert set(server.classify(pid, x[0])) == {"classification", "top"}
        store = server.telemetry = TelemetryStore()
        results = server.classify_batch(pid, list(x[:5]))
        server.classify(pid, x[5])
        records = store.recent(pid)
        assert len(records) == store.count(pid) == 6
        shard = server.shards[server.shard_index(pid, "int8")]
        assert {r.source for r in records} == {shard.name}
        assert [r.top for r in records[:5]] == [r["top"] for r in results]
        assert all(r.sketch.shape == (8,) and r.latency_ms >= 0 for r in records)

        # Monitoring never breaks serving: a failing sink is counted.
        server.telemetry = SimpleNamespace(extend=lambda records: 1 / 0)
        assert server.classify(pid, x[0])["top"] in LABELS
        assert server.snapshot()["telemetry_errors"] == 1


def test_close_fails_queued_tickets_and_rejects_new(platform, placement,
                                                    tiny_classification_problem):
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    server = make_server(platform, placement, workers=1)
    want = server.classify(pid, x[0])
    with parked_drain(server, pid, x[0]) as (gate, in_flight):
        queued = [server.submit(pid, x[i]) for i in range(3)]
        threading.Timer(0.2, gate.set).start()
        server.close()
        for ticket in queued:
            with pytest.raises(ServingError, match="shut down"):
                ticket.value()
        assert in_flight() == want  # the in-flight gulp drains normally
    with pytest.raises(ServingError, match="shut down"):
        server.submit(pid, x[0])
    with pytest.raises(ServingError, match="shut down"):
        server.classify_batch(pid, list(x[:2]))
    server.close()  # idempotent


def runner_spy(shard, monkeypatch) -> list[int]:
    """The thread idents that invoke ``shard``'s runner, in order."""
    threads = []
    run = shard.runner.run

    def spy(model, stacked):
        threads.append(threading.get_ident())
        return run(model, stacked)

    monkeypatch.setattr(shard.runner, "run", spy)
    return threads


def test_classify_on_an_idle_shard_runs_in_its_caller(
        platform, placement, tiny_classification_problem, monkeypatch):
    """A caller who waits for its result anyway takes no thread hop when
    its shard is idle — yet the shard thread is started all the same."""
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    want = platform.serving.classify_batch(pid, list(x[:3]))
    with make_server(platform, placement, workers=1) as server:
        shard = server.shards[0]
        ran_on = runner_spy(shard, monkeypatch)
        assert server.classify(pid, x[0]) == want[0]
        assert server.classify_batch(pid, list(x[:3])) == want
        assert ran_on == [threading.get_ident()] * 2
        assert shard._thread.is_alive()
        assert shard.counters()["drains"] == 2


def test_classify_behind_a_parked_drain_runs_on_the_shard_thread(
        platform, placement, tiny_classification_problem, monkeypatch):
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    want = platform.serving.classify(pid, x[1])
    with make_server(platform, placement, workers=1) as server:
        server.classify(pid, x[0])  # warm
        shard = server.shards[0]
        ran_on = runner_spy(shard, monkeypatch)
        box = []
        with parked_drain(server, pid, x[0]) as (gate, in_flight):
            caller = threading.Thread(
                target=lambda: box.append(server.classify(pid, x[1])))
            caller.start()
            deadline = time.monotonic() + 10
            while shard.counters()["queue_depth"] < 1:
                assert time.monotonic() < deadline, "the classify never queued"
                time.sleep(0.001)
            gate.set()
            caller.join(10)
            in_flight()
        assert box == [want]
        assert ran_on == [shard._thread.ident] * 2


def test_a_submit_flood_is_still_drained_by_the_shard_thread(
        platform, placement, tiny_classification_problem, monkeypatch):
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    want = platform.serving.classify_batch(pid, list(x[:10]))
    with make_server(platform, placement, workers=1) as server:
        server.classify(pid, x[0])  # warm
        shard = server.shards[0]
        ran_on = runner_spy(shard, monkeypatch)
        with parked_drain(server, pid, x[0]) as (gate, in_flight):
            tickets = [server.submit(pid, row) for row in x[:10]]
        assert [t.value() for t in tickets] == want
        in_flight()
        assert set(ran_on) == {shard._thread.ident}
        assert server.snapshot()["mean_batch_size"] > 1


def test_concurrent_classify_callers_under_a_short_switch_interval(
        platform, placement, tiny_classification_problem):
    """8 threads classify on one shard at once, so callers race for the
    idle shard and the shard thread: every result is right, every row
    is counted once, and the shard ends idle with nothing queued."""
    import sys

    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    want = platform.serving.classify_batch(pid, list(x[:8]))
    got, errors = {}, []
    with make_server(platform, placement, workers=1) as server:
        server.classify(pid, x[0])  # warm

        def caller(k):
            try:
                got[k] = [server.classify(pid, x[k]) for _ in range(10)]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert all(got[k] == [want[k]] * 10 for k in range(8))
        shard = server.shards[0]
        assert shard.counters()["requests"] == 81
        assert shard.counters()["queue_depth"] == 0
        with shard._cond:
            assert shard._draining == 0


def test_close_waits_for_a_request_running_in_its_caller(
        platform, placement, tiny_classification_problem):
    """The runner closes only after a caller's own drain has finished."""
    x, _ = tiny_classification_problem
    pid = next(iter(platform.projects))
    server = make_server(platform, placement, workers=1)
    want = server.classify(pid, x[0])
    shard = server.shards[0]
    gate, entered = threading.Event(), threading.Event()
    run = shard.runner.run
    shard.runner.run = lambda model, stacked: (
        entered.set(), gate.wait(10), run(model, stacked))[2]
    box = []
    caller = threading.Thread(target=lambda: box.append(server.classify(pid, x[0])))
    caller.start()
    try:
        assert entered.wait(10)
        threading.Timer(0.2, gate.set).start()
        server.close()
        caller.join(10)
    finally:
        gate.set()
    assert box == [want]


def test_shard_index_is_stable_crc32(platform, placement):
    """Placement of a model key is crc32 (not ``hash``), so it is the
    same on every placement and across interpreter restarts."""
    workers = 4
    with make_server(platform, placement, workers=workers) as server:
        seen = set()
        for pid in platform.projects:
            for precision in ("float32", "int8"):
                key = f"{pid}|{precision}".encode()
                idx = server.shard_index(pid, precision)
                assert idx == zlib.crc32(key) % workers
                seen.add(idx)
        assert len(seen) > 1  # keys actually spread across shards


def test_constructor_validation(platform, placement):
    with pytest.raises(ValueError, match="workers"):
        ModelServer(platform, placement=placement, workers=0)
    with pytest.raises(ValueError, match="cache_size"):
        ModelServer(platform, placement=placement, cache_size=0)
    with pytest.raises(ValueError, match="max_batch"):
        ModelServer(platform, placement=placement, max_batch=0)
    for max_queue in (0, -1):
        with pytest.raises(ValueError, match="max_queue"):
            ModelServer(platform, placement=placement, max_queue=max_queue)
    with pytest.raises(ValueError, match="placement"):
        ModelServer(platform, placement=placement + "x")
    with pytest.raises(ValueError, match="placement"):
        ModelServer(platform, placement="inline")
