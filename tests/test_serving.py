"""Serving layer: micro-batching, model cache, API route, compiled plans."""

import threading

import numpy as np
import pytest

from repro.graph import GOp, Graph, GTensor
from repro.runtime import (
    EONCompiler,
    compile_plan,
    plan_arena,
    run_graph,
    run_graph_dispatch,
)
from repro.serve import ModelServer, ServingError
from test_serving_placements import parked_drain

RNG = np.random.default_rng(7)


# -- micro-batching (the shard's one drain loop) ---------------------------


@pytest.fixture()
def batching(served_platform, tiny_classification_problem):
    """``make(**server_kwargs)`` -> a one-shard server over the served
    project, the project id, and the list its runner appends every
    executed batch size to.  Servers are closed at teardown."""
    platform, project = served_platform
    x, _ = tiny_classification_problem
    servers = []

    def make(**kwargs):
        server = ModelServer(platform, **kwargs)
        servers.append(server)
        runner = server.shards[0].runner
        run, calls = runner.run, []

        def spy(model, stacked):
            calls.append(len(stacked))
            return run(model, stacked)

        runner.run = spy
        return server, project.project_id, calls

    yield make, x
    for server in servers:
        server.close()


def test_batcher_coalesces_pending_requests(batching):
    """A backlog that builds up behind a busy shard thread is served as
    one batched invoke."""
    make, x = batching
    server, pid, calls = make()
    want = [server.classify(pid, row) for row in x[:5]]
    del calls[:]
    with parked_drain(server, pid, x[0]) as (gate, in_flight):
        tickets = [server.submit(pid, row) for row in x[:5]]
        assert server.shards[0].counters()["queue_depth"] == 5 and calls == []
    assert [t.value() for t in tickets] == want
    assert in_flight() == want[0]
    assert calls == [1, 5]  # the parked request, then all five at once


def test_batcher_flushes_at_max_batch(batching):
    make, x = batching
    server, pid, calls = make(max_batch=4)
    assert len(server.classify_batch(pid, list(x[:9]))) == 9
    assert calls == [4, 4, 1]
    counters = server.shards[0].counters()
    assert counters["largest_batch"] == 4 and counters["queue_depth"] == 0


def test_batcher_propagates_errors_to_all_waiters(batching):
    make, x = batching
    server, pid, _ = make()

    def explode(model, stacked):
        raise RuntimeError("kernel exploded")

    with parked_drain(server, pid, x[0]) as (gate, in_flight):
        tickets = [server.submit(pid, row) for row in x[:3]]
        server.shards[0].runner.run = explode
    for ticket in tickets:  # one chunk of three, three failures
        with pytest.raises(RuntimeError, match="kernel exploded"):
            ticket.value()
    assert server.shards[0].counters()["batch_errors"] == 1


def test_batcher_threaded_requests_share_batches(batching):
    """16 concurrent callers (more than cores, switching every 10 us)
    hammer one shard: each gets its own row back, whichever drain served
    it, and no ticket or counter update is lost."""
    import sys

    make, x = batching
    server, pid, calls = make(max_batch=64)
    want = [server.classify(pid, row) for row in x[:16]]
    del calls[:]
    results = {}
    rounds = 8

    def worker(i):
        results[i] = [server.classify(pid, x[i]) for _ in range(rounds)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results[i] for i in range(16)] == [[w] * rounds for w in want]
    assert sum(calls) == 16 * rounds  # coalescing is allowed, none required
    counters = server.shards[0].counters()
    assert counters["requests"] == counters["batched_requests"] == 16 + 16 * rounds
    assert counters["queue_depth"] == 0 and counters["batch_errors"] == 0


@pytest.mark.parametrize("bad_rows", [0, 1, 5])
def test_batcher_rejects_wrong_result_row_count(batching, bad_rows):
    """A runner that returns the wrong number of rows must fail every
    ticket with a ServingError naming got vs expected — never silently
    zip-truncate (which would strand tail tickets on result=None)."""
    make, x = batching
    server, pid, _ = make()
    with parked_drain(server, pid, x[0]) as (gate, in_flight):
        tickets = [server.submit(pid, row) for row in x[:3]]
        server.shards[0].runner.run = lambda model, stacked: np.zeros((bad_rows, 3))
    match = rf"got {bad_rows} result row\(s\) for a batch of 3"
    for ticket in tickets:
        with pytest.raises(ServingError, match=match):
            ticket.value()


def test_batcher_failed_flush_does_not_skew_stats(batching):
    """Failed invokes tick batch_errors and leave the batch-size stats
    alone, so mean_batch_size describes batches that produced results."""
    make, x = batching
    server, pid, _ = make()
    runner = server.shards[0].runner
    run = runner.run

    def explode(model, stacked):
        raise RuntimeError("kernel exploded")

    runner.run = explode
    with pytest.raises(RuntimeError):
        server.classify_batch(pid, list(x[:5]))
    counters = server.shards[0].counters()
    assert counters["batch_errors"] == 1 and counters["requests"] == 5
    assert counters["batches"] == counters["batched_requests"] == 0
    assert counters["largest_batch"] == 0 and counters["mean_batch_size"] == 0.0

    runner.run = run
    assert len(server.classify_batch(pid, list(x[:3]))) == 3
    counters = server.shards[0].counters()
    assert counters["batch_errors"] == 1 and counters["batches"] == 1
    assert counters["batched_requests"] == counters["largest_batch"] == 3


def test_interrupted_drain_resolves_every_claimed_ticket(batching, monkeypatch):
    """A non-``Exception`` (Ctrl-C in a caller running its own group)
    propagates to that caller, but every ticket its drain had claimed —
    chunks that never ran included — still resolves, so nobody waits
    forever; the shard keeps serving."""
    make, x = batching
    server, pid, calls = make(max_batch=1)
    want = server.classify(pid, x[0])
    shard = server.shards[0]
    runner = shard.runner
    run, serve, claimed = runner.run, shard._serve, []
    monkeypatch.setattr(shard, "_serve", lambda gulp, groups: (
        claimed.extend(gulp), serve(gulp, groups))[1])

    def interrupt(model, stacked):
        raise KeyboardInterrupt

    runner.run = interrupt
    with pytest.raises(KeyboardInterrupt):
        server.classify_batch(pid, list(x[:3]))
    assert len(claimed) == 3
    for ticket in claimed:
        assert ticket.ready.is_set()
        with pytest.raises(ServingError, match="drain interrupted"):
            ticket.value()
    runner.run = run
    assert server.classify(pid, x[0]) == want
    assert shard.counters()["queue_depth"] == 0
    with shard._cond:
        assert shard._draining == 0


# -- model server -----------------------------------------------------------


@pytest.fixture()
def served_platform(tiny_graphs):
    """A platform with one 'trained' project carrying the tiny graphs."""
    from repro.core import Platform

    platform = Platform()
    platform.register_user("alice")
    project = platform.create_project("served", owner="alice")
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = {"a": 0, "b": 1, "c": 2}
    return platform, project


def test_server_matches_direct_inference(served_platform, tiny_classification_problem):
    platform, project = served_platform
    x, _ = tiny_classification_problem
    server = platform.serving
    features = x[0]

    for precision, graph in (("float32", project.float_graph),
                             ("int8", project.int8_graph)):
        result = server.classify(project.project_id, features, precision=precision)
        expected = EONCompiler().compile(graph).predict_proba(features[None])[0]
        got = np.array([result["classification"][l] for l in ("a", "b", "c")])
        np.testing.assert_allclose(got, expected, atol=1e-6)
        assert result["top"] == ("a", "b", "c")[int(expected.argmax())]


def test_server_batch_matches_singles(served_platform, tiny_classification_problem):
    platform, project = served_platform
    x, _ = tiny_classification_problem
    server = platform.serving
    batch_results = server.classify_batch(project.project_id, list(x[:6]))
    singles = [server.classify(project.project_id, row) for row in x[:6]]
    for br, sr in zip(batch_results, singles):
        assert br == sr


def test_f32_batch_vs_single_tolerance_contract(served_platform,
                                                tiny_classification_problem):
    """The float32 serving contract is numerical, not bitwise: a batched
    invoke may reassociate BLAS reductions differently from a
    single-row invoke, so outputs agree to allclose(rtol=1e-5) — and
    that is the guarantee ``classify_batch`` documents.  (int8 stays
    exactly equal: integer arithmetic does not reassociate.)"""
    platform, project = served_platform
    x, _ = tiny_classification_problem
    server = platform.serving
    labels = ("a", "b", "c")

    batch = server.classify_batch(project.project_id, list(x[:12]),
                                  precision="float32")
    singles = [server.classify(project.project_id, row, precision="float32")
               for row in x[:12]]
    for br, sr in zip(batch, singles):
        assert br["top"] == sr["top"]
        np.testing.assert_allclose(
            [br["classification"][l] for l in labels],
            [sr["classification"][l] for l in labels],
            rtol=1e-5, atol=1e-7,
        )


def test_classify_rest_route(served_platform, tiny_classification_problem):
    platform, project = served_platform
    x, _ = tiny_classification_problem
    api = platform.gateway
    pid = project.project_id
    feats = x[0].reshape(-1).tolist()

    single = api.handle("POST", f"/v1/projects/{pid}/classify",
                        {"features": feats}, user="alice")
    assert single["status"] == 200
    assert set(single["data"]["classification"]) == {"a", "b", "c"}
    assert single["data"]["top"] in ("a", "b", "c")

    batch = api.handle("POST", f"/v1/projects/{pid}/classify",
                       {"batch": [feats, feats], "precision": "float32"},
                       user="alice")
    assert batch["status"] == 200 and batch["data"]["batch_size"] == 2

    assert api.handle("POST", f"/v1/projects/{pid}/classify", {},
                      user="alice")["status"] == 400
    assert api.handle("POST", f"/v1/projects/{pid}/classify",
                      {"features": feats, "batch": [feats]},
                      user="alice")["status"] == 400
    assert api.handle("POST", f"/v1/projects/{pid}/classify",
                      {"features": [0.0, 1.0]}, user="alice")["status"] == 400
    assert api.handle("POST", f"/v1/projects/{pid}/classify",
                      {"features": ["not", "numbers"]}, user="alice")["status"] == 400
    assert api.handle("POST", f"/v1/projects/{pid}/classify",
                      {"batch": 5}, user="alice")["status"] == 400
    # A malformed row mid-batch fails cleanly without stranding tickets.
    bad_batch = api.handle("POST", f"/v1/projects/{pid}/classify",
                           {"batch": [feats, [1.0], feats]}, user="alice")
    assert bad_batch["status"] == 400
    again = api.handle("POST", f"/v1/projects/{pid}/classify",
                       {"features": feats}, user="alice")
    assert again["status"] == 200
    assert api.handle("POST", "/v1/projects/999/classify",
                      {"features": feats}, user="alice")["status"] == 404

    project.int8_graph = None
    platform.serving.invalidate(pid)
    assert api.handle("POST", f"/v1/projects/{pid}/classify",
                      {"features": feats}, user="alice")["status"] == 409

    stats = api.handle("GET", "/v1/serving/stats")
    assert stats["status"] == 200 and stats["data"]["requests"] >= 3


# -- compiled plans ---------------------------------------------------------


def _fc_chain() -> Graph:
    graph = Graph("chain")
    t0 = graph.add_tensor(GTensor("t0", (4,)))
    w = graph.add_tensor(GTensor("w", (4, 2), data=np.ones((4, 2), np.float32)))
    b = graph.add_tensor(GTensor("b", (2,), data=np.zeros(2, np.float32)))
    t1 = graph.add_tensor(GTensor("t1", (2,)))
    graph.add_op(GOp("FULLY_CONNECTED", [t0, w, b], [t1], {"activation": "none"}))
    graph.input_id, graph.output_id = t0, t1
    return graph


def test_plan_is_cached_and_invalidated():
    graph = _fc_chain()
    plan = compile_plan(graph)
    assert compile_plan(graph) is plan
    graph.add_tensor(GTensor("scratch", (4,)))
    assert graph._plan is None
    assert compile_plan(graph) is not plan


def test_plan_matches_dispatch_reference(tiny_graphs, tiny_classification_problem):
    x, _ = tiny_classification_problem
    for graph in tiny_graphs:
        expected = run_graph_dispatch(graph, x[:16])
        assert np.array_equal(run_graph(graph, x[:16]), expected)
        assert np.array_equal(compile_plan(graph).execute(x[:16]), expected)
        assert np.array_equal(EONCompiler().compile(graph).invoke(x[:16]), expected)


def test_plan_record_keeps_all_activations(tiny_graphs):
    float_graph, _ = tiny_graphs
    x = RNG.standard_normal((2, 16, 8)).astype(np.float32)
    recorded = run_graph_dispatch(float_graph, x, record=True)
    assert recorded.keys() == float_graph.lifetimes().keys()
    assert np.array_equal(recorded[float_graph.output_id], run_graph(float_graph, x))


def test_plan_live_peak_below_total_activations(tiny_graphs):
    """Placing the plan's step lifetimes keeps the arena under the sum
    of every activation it holds."""
    for graph in tiny_graphs:
        arena = plan_arena(compile_plan(graph))
        assert 0 < arena.total_bytes < sum(arena.sizes.values())


def _random_chain_graph(rng, dtype="float32"):
    """A random FC chain; int8 variants go through quantize_graph."""
    from repro.graph import sequential_to_graph
    from repro.nn.architectures import conv1d_stack
    from repro.quantize import quantize_graph

    n_layers = int(rng.integers(1, 3))
    filters = int(rng.choice([4, 8]))
    model = conv1d_stack((12, 4), 3, n_layers=n_layers,
                         first_filters=filters, last_filters=filters * 2,
                         seed=int(rng.integers(0, 100)))
    graph = sequential_to_graph(model)
    if dtype == "int8":
        calib = rng.standard_normal((16, 12, 4)).astype(np.float32)
        graph = quantize_graph(graph, calib)
    return graph


@pytest.mark.parametrize("dtype", ["float32", "int8"])
def test_plan_equivalence_random_graphs(dtype):
    rng = np.random.default_rng(42 if dtype == "float32" else 43)
    for _ in range(4):
        graph = _random_chain_graph(rng, dtype)
        x = rng.standard_normal((5, 12, 4)).astype(np.float32)
        assert np.array_equal(run_graph(graph, x), run_graph_dispatch(graph, x))
