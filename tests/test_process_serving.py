"""What is specific to ``ModelServer(placement="process")``: worker
death/respawn semantics, a worker that rejects a batch, and the Platform
wiring.  The placement-independent contract (bit-identity included) is
in test_serving_placements.py."""

import threading
import time

import pytest

from repro.core import Platform
from repro.graph.serialize import graph_from_bytes, graph_to_bytes
from repro.serve import ModelServer, ServingError


@pytest.fixture()
def process_platform(tiny_graphs):
    """A platform with several 'trained' projects sharing the tiny graphs."""
    platform = Platform()
    platform.register_user("alice")
    projects = []
    for i in range(4):
        p = platform.create_project(f"proc-p{i}", owner="alice")
        p.float_graph, p.int8_graph = tiny_graphs
        p.label_map = {"a": 0, "b": 1, "c": 2}
        projects.append(p)
    return platform, projects


def test_killed_worker_fails_inflight_cleanly_and_respawns(
    process_platform, tiny_classification_problem, monkeypatch
):
    """Kill the worker process while a batch is in flight: every row of
    it gets a clean ServingError (nobody hangs), the shard respawns the
    worker, and the next request serves the same answer as before."""
    platform, projects = process_platform
    x, _ = tiny_classification_problem
    p = projects[0]
    with ModelServer(platform, placement="process", workers=1) as server:
        want = server.classify(p.project_id, x[0])  # warm + reference
        shard = server.shards[0]
        (handle,) = shard.runner._pool.workers()
        assert handle.alive

        # The batch's exchange parks in the worker's sleep handler, so
        # it is guaranteed to be in flight when the process dies.
        parked = threading.Event()

        def parks_in_sleep(handle, model, stacked):
            parked.set()
            handle.request("sleep", {"s": 30.0})
            raise AssertionError("the sleep outlived its worker")

        monkeypatch.setattr(shard.runner, "_classify", parks_in_sleep)
        tickets = []

        def recording_dispatch(*args, dispatch=shard.dispatch, **kwargs):
            admitted = dispatch(*args, **kwargs)
            tickets.extend(admitted)
            return admitted

        monkeypatch.setattr(shard, "dispatch", recording_dispatch)
        errors = []

        def send_batch():
            try:
                server.classify_batch(p.project_id, list(x[:5]))
            except ServingError as exc:
                errors.append(exc)

        sender = threading.Thread(target=send_batch)
        sender.start()
        assert parked.wait(10.0)
        time.sleep(0.2)
        handle.process.kill()

        start = time.monotonic()
        sender.join(30.0)
        assert not sender.is_alive(), "the caller hung on a dead worker"
        assert time.monotonic() - start < 30.0
        assert len(errors) == 1 and len(tickets) == 5
        for ticket in tickets:
            with pytest.raises(ServingError, match="died mid-request"):
                ticket.value()

        # The shard respawns and the fresh worker reloads the model from
        # its serialized graph — same compiled plan, same bits.
        monkeypatch.undo()
        got = server.classify(p.project_id, x[0])
        assert got == want
        snap = server.snapshot()
        assert snap["restarts"] >= 1
        assert snap["batch_errors"] >= 1
        assert snap["per_shard"][0]["worker_alive"] is True


def test_worker_rejecting_a_batch_fails_it_and_survives(
    process_platform, tiny_classification_problem
):
    """A handler error in the worker (here: ``graph_from_bytes`` refuses
    the blob a model must be reloaded from) is an ok:false reply, not a
    death: the batch fails with a clean ServingError, the process and its
    connection survive, and a reload from the good blob serves the same
    bits."""
    platform, projects = process_platform
    x, _ = tiny_classification_problem
    p = projects[0]
    with ModelServer(platform, placement="process", workers=1) as server:
        want = server.classify(p.project_id, x[0])
        entry = server.get_model(p.project_id, "int8")
        pid_before = server.snapshot()["per_shard"][0]["worker_pid"]
        good_blob = entry.model.graph_blob
        entry.model.model_id += 1000  # the worker never loaded this id
        entry.model.graph_blob = good_blob[: len(good_blob) // 2]
        with pytest.raises(ServingError, match="worker rejected the batch"):
            server.classify(p.project_id, x[0])
        entry.model.graph_blob = good_blob
        assert server.classify(p.project_id, x[0]) == want
        snap = server.snapshot()
        assert snap["batch_errors"] == 1 and snap["restarts"] == 0
        assert snap["per_shard"][0]["worker_pid"] == pid_before


def test_model_evicted_by_the_worker_lru_is_reloaded(
    process_platform, tiny_classification_problem
):
    """The worker keeps 16 compiled models, the parent's shard cache its
    own 8 keys: sixteen retrains of one project push another project's
    model out of the worker while the parent still caches it.  The next
    batch reloads it from the parent-held blob and is served, on the
    same worker."""
    platform, projects = process_platform
    x, _ = tiny_classification_problem
    p1, p2 = projects[0], projects[1]
    with ModelServer(platform, placement="process", workers=1) as server:
        want = server.classify(p1.project_id, x[0])
        blob = graph_to_bytes(p2.int8_graph)
        for _ in range(16):
            p2.int8_graph = graph_from_bytes(blob)  # a retrain: a new graph
            server.classify(p2.project_id, x[0])
        assert server.classify(p1.project_id, x[0]) == want
        snap = server.snapshot()
        assert snap["batch_errors"] == 0 and snap["restarts"] == 0


def test_status_reports_the_worker_while_a_batch_is_in_flight(
    process_platform, tiny_classification_problem
):
    """``status()`` reads the worker without checking it out: it neither
    waits for an in-flight batch nor spawns a worker of its own."""
    platform, projects = process_platform
    x, _ = tiny_classification_problem
    with ModelServer(platform, placement="process", workers=1) as server:
        runner = server.shards[0].runner
        assert runner.status() == {
            "restarts": 0, "worker_pid": None, "worker_alive": False,
        }
        assert runner._pool.workers() == []  # status() spawned nothing
        server.classify(projects[0].project_id, x[0])
        handle = runner._pool.acquire()  # a batch holds the worker
        try:
            start = time.monotonic()
            status = runner.status()
            assert time.monotonic() - start < 1.0
        finally:
            runner._pool.release(handle)
        assert status == {
            "restarts": 0, "worker_pid": handle.pid, "worker_alive": True,
        }


def test_platform_process_backend_wiring(tiny_graphs, tiny_classification_problem):
    """Platform(serving_backend='process') swaps the process tier in
    behind .serving and keeps the monitor's telemetry flowing (emission
    is parent-side, so the store fills exactly like the threaded tiers)."""
    platform = Platform(serving_workers=2, serving_backend="process")
    platform.register_user("alice")
    project = platform.create_project("proc-api", owner="alice")
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = {"a": 0, "b": 1, "c": 2}
    x, _ = tiny_classification_problem
    try:
        results = platform.serving.classify_batch(project.project_id, list(x[:5]))
        assert len(results) == 5
        assert all(r["top"] in ("a", "b", "c") for r in results)
        assert platform.monitor.telemetry.count(project.project_id) == 5
        assert platform.serving.snapshot()["backend"] == "process"
    finally:
        platform.serving.close()
    with pytest.raises(ValueError, match="serving_backend"):
        Platform(serving_backend="fork")

