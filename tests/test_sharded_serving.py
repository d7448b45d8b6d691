"""What is specific to ``ModelServer(placement="thread")``: the sharded
cache under concurrent clients, and the Platform/REST wiring.  The
placement-independent contract is in test_serving_placements.py."""

import threading

import numpy as np
import pytest

from repro.core import Platform
from repro.serve import ModelServer


@pytest.fixture()
def sharded_platform(tiny_graphs):
    """A platform with several 'trained' projects sharing the tiny graphs."""
    platform = Platform()
    platform.register_user("alice")
    projects = []
    for i in range(6):
        p = platform.create_project(f"shard-p{i}", owner="alice")
        p.float_graph, p.int8_graph = tiny_graphs
        p.label_map = {"a": 0, "b": 1, "c": 2}
        projects.append(p)
    return platform, projects


def test_sharded_cache_hammered_from_8_threads(sharded_platform,
                                               tiny_classification_problem):
    """The concurrency contract: 8 client threads hammering the
    sharded cache (mixed projects/precisions, interleaved invalidations)
    produce correct results and no lost requests."""
    platform, projects = sharded_platform
    x, _ = tiny_classification_problem
    with ModelServer(platform, placement="thread", workers=4,
                     cache_size=2) as server:
        with ModelServer(platform) as reference:
            expected = {
                (p.project_id, precision): reference.classify(
                    p.project_id, x[0], precision=precision)
                for p in projects for precision in ("float32", "int8")
            }
        errors = []
        n_per_thread = 25

        def hammer(tid):
            rng = np.random.default_rng(tid)
            try:
                for i in range(n_per_thread):
                    p = projects[int(rng.integers(len(projects)))]
                    precision = ("float32", "int8")[int(rng.integers(2))]
                    got = server.classify(p.project_id, x[0], precision=precision)
                    want = expected[(p.project_id, precision)]
                    if precision == "int8":
                        assert got == want
                    else:
                        np.testing.assert_allclose(
                            [got["classification"][l] for l in ("a", "b", "c")],
                            [want["classification"][l] for l in ("a", "b", "c")],
                            rtol=1e-5)
                    if i % 10 == 5:
                        server.invalidate(p.project_id)  # force recompiles
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((tid, exc))

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        snap = server.snapshot()
        assert snap["requests"] == 8 * n_per_thread
        assert snap["cache_misses"] >= snap["cache_evictions"]


def test_sharded_platform_behind_rest_api(tiny_graphs, tiny_classification_problem):
    """Platform(serving_workers=N) swaps the sharded tier in behind the
    classify route, and /v1/serving/stats aggregates per-shard counters."""
    platform = Platform(serving_workers=4)
    platform.register_user("alice")
    project = platform.create_project("sharded-api", owner="alice")
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = {"a": 0, "b": 1, "c": 2}
    x, _ = tiny_classification_problem
    api = platform.gateway
    feats = x[0].reshape(-1).tolist()

    single = api.handle("POST", f"/v1/projects/{project.project_id}/classify",
                        {"features": feats}, user="alice")
    assert single["status"] == 200 and single["data"]["top"] in ("a", "b", "c")
    batch = api.handle("POST", f"/v1/projects/{project.project_id}/classify",
                       {"batch": [feats] * 3}, user="alice")
    assert batch["status"] == 200 and batch["data"]["batch_size"] == 3

    stats = api.handle("GET", "/v1/serving/stats")
    assert stats["status"] == 200
    assert stats["data"]["workers"] == 4 and stats["data"]["backend"] == "thread"
    assert stats["data"]["requests"] == 4
    assert len(stats["data"]["per_shard"]) == 4
    assert sum(s["requests"] for s in stats["data"]["per_shard"]) == 4
    platform.serving.close()

