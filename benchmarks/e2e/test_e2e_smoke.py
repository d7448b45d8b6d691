"""Smoke test of the end-to-end benchmark: every workload for about a
second plus one traced pass, against the names in ``BENCHMARK.json``."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as e2e  # noqa: E402
from workloads import WORKLOADS, InvalidRun, Server  # noqa: E402

SEED = 5
NAMES = [w["name"] for w in e2e.SPEC["workloads"]]


def check_contract(result, spec):
    line = json.loads(result.contract_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(spec), "metric names differ from BENCHMARK.json"
    for name, metric in line["metrics"].items():
        assert metric["unit"] == spec[name]["unit"]
        assert isinstance(metric["value"], float)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    return line


def test_benchmark_json_names_the_workloads():
    assert NAMES == list(WORKLOADS)
    assert e2e.SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in e2e.END_TO_END


@pytest.mark.parametrize("name", NAMES)
def test_workload_end_to_end(name):
    result = e2e.run_end_to_end(name, SEED, seconds=1.0, warmup_s=0.3,
                                launches=1)
    line = check_contract(result, e2e.END_TO_END)
    assert result.info["error_rate"] == 0
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_pass_reports_every_layer():
    result = e2e.run_traced("classify_concurrent", SEED, seconds=1.0,
                            warmup_s=0.3)
    check_contract(result, e2e.PER_LAYER)
    trace = json.loads((e2e.ROOT / result.info["trace_file"]).read_text())
    spans = trace["spans"]
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans) > 0
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["end"] >= s["start"] for s in spans)
    handles = [s for s in spans if s["name"] == "api.gateway.handle"]
    assert handles and all(s["rid"] is not None for s in handles)
    # The layers this workload runs through are non-zero, the ones it
    # never enters read exactly 0.
    for name in ("api.http.self_ms", "api.gateway.self_ms", "serve.self_ms",
                 "runtime.execute_ms", "monitor.telemetry.self_ms"):
        assert result.metrics[name] > 0, name
    for name in ("core.storage.record_ms", "core.workers.request_ms",
                 "nn.train_job_ms"):
        assert result.metrics[name] == 0, name


def test_oracle_is_live():
    """A deliberately wrong expected value must be booked as a failure."""
    workload = WORKLOADS["classify_single"](SEED)
    for expected in workload.inputs.expected:
        expected[0, 0] += 1e-3
    with Server(**workload.server_args) as server:
        units, _, _ = e2e.drive(workload, server, 0.2, warmup_s=0.0)
    failed, errors = e2e.failures(units)
    assert failed == len(units) > 0
    assert "oracle" in errors[0]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_bytes(name):
    bodies = WORKLOADS[name](SEED).request_bodies()
    assert bodies == WORKLOADS[name](SEED).request_bodies()
    assert bodies != WORKLOADS[name](SEED + 1).request_bodies()


def test_dead_server_is_an_invalid_run():
    server = Server(projects=0, warm=None)
    try:
        server.proc.kill()
        server.proc.wait()
        with pytest.raises(InvalidRun):
            server.stats()
    finally:
        server.stop()
