"""The closed production loop, end to end through the /v1/ API:

train -> roll out to a device fleet -> devices serve traffic (telemetry)
-> drifted traffic raises a drift alert -> the auto_retrain policy routes
the drift-window samples back into the dataset and retrains -> the new
model version ships via a canary OTA rollout gated on monitor health.

This is the "monitor in production, feed data back, retrain, redeploy"
half of the MLOps lifecycle (paper Sec. 4), asserted via REST routes.
"""

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, Platform, TimeSeriesInput
from repro.data.synthetic import vibration_dataset
from repro.dsp import SpectralAnalysisBlock
from repro.nn import TrainingConfig

N_DEVICES = 5
WINDOW_ROWS = 200  # one 2s window at 100 Hz


def _impulse_spec() -> dict:
    return Impulse(
        TimeSeriesInput(window_size_ms=2000, window_increase_ms=2000,
                        frequency_hz=100, axes=3),
        [SpectralAnalysisBlock(sample_rate=100, fft_length=64)],
        ClassificationBlock(
            architecture="mlp", arch_kwargs=dict(hidden=(16,)),
            training=TrainingConfig(epochs=25, batch_size=16,
                                    learning_rate=3e-3, seed=0),
        ),
    ).to_dict()


def _wait_job(api, pid, jid, timeout=120.0):
    r = api.handle("GET", f"/v1/projects/{pid}/jobs/{jid}",
                   {"wait_s": timeout}, user="ops")
    assert r["status"] == 200
    return r


def test_closed_loop_drift_to_canary_rollout():
    platform = Platform()
    api = platform.gateway
    assert api.handle("POST", "/v1/users", {"username": "ops"})["status"] == 200
    pid = api.handle("POST", "/v1/projects", {"name": "prod-loop"},
                     user="ops")["data"]["project_id"]
    project = platform.get_project(pid)
    for s in vibration_dataset(samples_per_class=12, seed=0):
        project.dataset.add(s, category=s.category)
    train_before = len(project.dataset.samples(category="train"))

    assert api.handle("POST", f"/v1/projects/{pid}/impulse",
                      {"impulse": _impulse_spec()}, user="ops")["status"] == 200
    jid = api.handle("POST", f"/v1/projects/{pid}/train", {}, user="ops")["data"]["job_id"]
    assert _wait_job(api, pid, jid)["data"]["job_status"] == "succeeded"
    assert project.model_revision == 1

    # -- initial fleet rollout of revision 1 --------------------------------
    for i in range(N_DEVICES):
        assert api.handle("POST", "/v1/fleet/devices",
                          {"device_id": f"dev-{i}", "profile": "nano33ble"},
                          user="ops")["status"] == 200
    r = api.handle("POST", "/v1/fleet/rollout",
                   {"project_id": pid, "canary_fraction": 0.4}, user="ops")
    assert r["status"] == 200 and r["data"]["image_version"] == "1.0.1"
    r = api.handle("GET", f"/v1/fleet/rollout/{r['data']['job_id']}",
                   {"wait_s": 60.0}, user="ops")
    assert r["data"]["job_status"] == "succeeded" and not r["data"]["result"]["aborted"]
    versions = api.handle("GET", "/v1/fleet/devices", {})["data"]["devices"]
    assert set(versions.values()) == {"1.0.1"}

    # -- monitoring policy: auto_retrain with a health-gated canary ---------
    r = api.handle("POST", f"/v1/projects/{pid}/monitor/policy", {
        "reference_size": 16, "min_records": 8, "window": 64,
        "confidence_shift_threshold": 0.2, "label_mix_threshold": 0.2,
        "feature_drift_threshold": 0.3,
        "auto_retrain": True, "max_drift_samples": 16,
        "canary_fraction": 0.4, "cooldown_s": 300,
    }, user="ops")
    assert r["status"] == 200 and r["data"]["policy"]["auto_retrain"] is True

    # -- baseline traffic: devices classify in-distribution recordings ------
    recordings = [s.data[:WINDOW_ROWS] for s in project.dataset.samples()][:16]
    assert len(recordings) == 16
    for i, data in enumerate(recordings):
        r = api.handle("POST",
                       f"/v1/fleet/devices/dev-{i % N_DEVICES}/classify",
                       {"data": data.tolist()}, user="ops")
        assert r["status"] == 200 and r["data"]["top"]
    r = api.handle("POST", f"/v1/projects/{pid}/monitor/reference",
                   {}, user="ops")
    assert r["status"] == 200 and r["data"]["reference_records"] == 16

    # -- drifted traffic: scaled + noisy inputs on the same fleet -----------
    rng = np.random.default_rng(1)
    for i, data in enumerate(recordings):
        drifted = data * 3.0 + rng.normal(0, 0.8, size=data.shape)
        r = api.handle("POST",
                       f"/v1/fleet/devices/dev-{i % N_DEVICES}/classify",
                       {"data": drifted.tolist()}, user="ops")
        assert r["status"] == 200

    # -- one monitor sweep: drift alert + closed loop kickoff ---------------
    r = api.handle("POST", f"/v1/projects/{pid}/monitor/evaluate",
                   {"wait_s": 60.0}, user="ops")
    assert r["status"] == 200
    assert r["data"]["health"] == "drift"
    assert "started_loop_job" in r["data"], f"no loop started: {r['data']['detectors']}"
    triggered = [d["detector"] for d in r["data"]["detectors"] if d["triggered"]]
    assert triggered, "expected at least one drift detector to trigger"
    # Per-label attribution rides along in the monitor payload.
    by_name = {d["detector"]: d for d in r["data"]["detectors"]}
    assert "per_label_ks" in by_name["confidence_shift"]["detail"]
    assert "per_label_psi" in by_name["label_mix_shift"]["detail"]

    alerts = api.handle("GET", f"/v1/projects/{pid}/monitor/alerts",
                        {}, user="ops")["data"]["alerts"]
    drift_alerts = [a for a in alerts if a["severity"] == "warning"]
    assert drift_alerts
    assert any(a["action"] and "auto_retrain" in a["action"]
               for a in drift_alerts)
    assert all(a["model_version"] == "1.0.1" for a in drift_alerts)

    # -- the loop: drift samples -> retrain -> health-gated canary OTA ------
    r = api.handle("GET", f"/v1/projects/{pid}/monitor",
                   {"wait_loop_s": 180.0}, user="ops")
    assert r["status"] == 200
    loop = r["data"]["loop_jobs"][-1]
    assert loop["job_status"] == "succeeded", loop
    result = loop["result"]
    assert result["model_version"] == "1.0.2"
    assert result["drift_samples_routed"] > 0
    assert result["rollout"] is not None
    assert result["rollout"]["aborted"] is False
    assert result["rollout"]["health_gate_passed"] is True
    assert sorted(result["rollout"]["updated"]) == sorted(
        f"dev-{i}" for i in range(N_DEVICES)
    )

    # Drift-window samples were routed back into the training set through
    # the ingestion service (visible in the data summary).
    summary = api.handle("GET", f"/v1/projects/{pid}/data/summary",
                         {}, user="ops")
    assert summary["status"] == 200
    train_after = len(project.dataset.samples(category="train"))
    assert train_after > train_before
    routed = [s for s in project.dataset.samples(category="train")
              if s.metadata.get("monitor")]
    assert len(routed) == result["drift_samples_routed"]
    assert all(s.metadata["device_type"] == "monitor-drift" for s in routed)

    # The whole fleet runs the retrained model version.
    versions = api.handle("GET", "/v1/fleet/devices", {})["data"]["devices"]
    assert set(versions.values()) == {"1.0.2"}
    assert project.model_revision == 2

    # The monitor re-baselined for the new generation.
    r = api.handle("GET", f"/v1/projects/{pid}/monitor", {}, user="ops")
    assert r["data"]["health"] == "baselining"
    assert r["data"]["telemetry"]["records"] == 0
    assert r["data"]["alerts_total"] == len(alerts)  # history preserved
