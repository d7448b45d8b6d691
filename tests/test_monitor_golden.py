"""The monitor's verdicts on a recorded telemetry stream, pinned.

A deterministic stream goes through every emitter of the monitoring
plane: int8 serving in batches of 1 and of 32, fleet devices that retain
their raw windows (and one unflashed device that fails), a REST push,
and gateway requests.  An in-distribution phase is followed by a shifted
one.  Every ``MonitorService.evaluate`` payload (detectors, telemetry
summary, window sizes) and the alert log must equal
``tests/data/telemetry_golden.json``.  The reference is auto-captured,
so the golden pins the detectors and the window readers, not how a
pinned reference is chosen.

Timestamps, latencies, alert creation times and project ids vary from
run to run and are left out; the latency SLO is off for that reason.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, Platform, TimeSeriesInput
from repro.deploy import build_artifact
from repro.device import VirtualDevice
from repro.dsp import RawBlock

GOLDEN = Path(__file__).parent / "data" / "telemetry_golden.json"
LABEL_MAP = {"a": 0, "b": 1, "c": 2}
PAYLOAD_KEYS = ("health", "skipped", "recent_records", "reference_records",
                "evaluations", "alerts_total", "detectors", "telemetry")


def _impulse() -> Impulse:
    return Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=8),
        [RawBlock()],
        ClassificationBlock(),
    )


def record_stream(tiny_graphs, x) -> dict:
    """Run the stream and return the JSON-safe payloads it produced."""
    platform = Platform()
    platform.register_user("u")
    project = platform.create_project("golden", owner="u")
    pid = project.project_id
    project.set_impulse(_impulse())
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = dict(LABEL_MAP)
    image = build_artifact("firmware", tiny_graphs[1], _impulse(), LABEL_MAP,
                           "eon", "p").metadata["image"]
    for did in ("d0", "d1"):
        platform.fleet.register(VirtualDevice(did, "nano33ble"))
    platform.fleet.ota_update(image)
    platform.fleet.register(VirtualDevice("bare", "nano33ble"))
    service = platform.monitor
    service.watch_fleet(pid)
    service.set_policy(pid, {"reference_size": 64, "min_records": 16,
                             "window": 256})
    api, serving = platform.gateway, platform.serving

    def serve(rows, batch):
        rows = [np.asarray(r, np.float32).reshape(-1) for r in rows]
        if batch == 1:
            for row in rows:
                serving.classify(pid, row, precision="int8")
        else:
            for start in range(0, len(rows), batch):
                serving.classify_batch(pid, rows[start:start + batch],
                                       precision="int8")

    def devices(windows):
        for i, window in enumerate(windows):
            platform.fleet.classify_on(f"d{i % 2}", window)

    payloads = []

    def sweep():
        snap = service.evaluate(pid)
        payloads.append({key: snap.get(key) for key in PAYLOAD_KEYS})

    # In distribution: the oldest 64 rows become the reference.
    serve(x[0:16], batch=1)
    serve(x[16:80], batch=32)
    devices(x[80:96])
    with pytest.raises(RuntimeError, match="no firmware"):
        platform.fleet.classify_on("bare", x[96])
    rng = np.random.default_rng(7)

    def push(tops, centre, raw_rows, **extra):
        records = []
        for i, top in enumerate(tops):
            c = float(rng.uniform(0.4, 0.99))
            record = {"project_id": pid, "model_version": "1.0.0",
                      "confidence": c, "margin": c / 2, "source": "field-1",
                      "sketch": rng.normal(centre, 1, 8).round(4).tolist(),
                      **extra}
            if top is not None:
                record["top"] = top
            if i < len(raw_rows):
                record["raw"] = raw_rows[i].reshape(-1)[:16].tolist()
            records.append(record)
        assert api.handle("POST", "/v1/telemetry", {"records": records},
                          user="u")["status"] == 200

    push(["a", "a", "b", None], 0.0, x[97:101])
    for _ in range(5):
        assert api.handle("GET", f"/v1/projects/{pid}",
                          user="u")["status"] == 200
    assert api.handle("GET", f"/v1/projects/{pid}/jobs/999",
                      user="u")["status"] == 404
    sweep()

    serve(x[101:133], batch=32)
    serve(x[133:141], batch=1)
    devices(x[141:149])
    push(["a", "b", "a", "c", "a", "b", "a", "a"], 0.0, x[149:151])
    sweep()

    # Shifted inputs: the model's confidence and the sketches move.
    shifted = x[149:221] * 2.0 + 3.0
    serve(shifted[0:64], batch=32)
    serve(shifted[64:72], batch=1)
    devices(x[221:229] * 2.0 + 3.0)
    push(["b", "c"] * 12, 2.5, x[229:233])
    push(["c"], 2.5, (), ok=False, error="sensor fault")
    for _ in range(3):
        api.handle("GET", f"/v1/projects/{pid}", user="u")
    sweep()
    sweep()  # no new traffic: same verdict, no new alert

    alerts = [{k: v for k, v in a.items()
               if k not in ("created_at", "project_id")}
              for a in service.alerts(pid)]
    platform.serving.close()
    return json.loads(json.dumps({"sweeps": payloads, "alerts": alerts}))


def test_detector_payloads_match_the_golden(tiny_graphs,
                                            tiny_classification_problem):
    x, _ = tiny_classification_problem
    got = record_stream(tiny_graphs, x)
    want = json.loads(GOLDEN.read_text())
    assert got["alerts"] == want["alerts"]
    for i, (g, w) in enumerate(zip(got["sweeps"], want["sweeps"])):
        assert g == w, f"sweep {i} differs"
    assert len(got["sweeps"]) == len(want["sweeps"])
