"""The /v1/ API driven in process: routing, payloads, auth, end-to-end
automation.  ``api`` is ``platform.gateway``; ``user=`` is the trusted
in-process identity."""

import base64
import io

import numpy as np
import pytest

from repro.core import Platform
from repro.formats.wav import write_wav


@pytest.fixture()
def api():
    platform = Platform()
    platform.register_user("alice")
    return platform.gateway


def _wav_b64(freq=440.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(2000) / 2000
    audio = np.sin(2 * np.pi * freq * t) + 0.1 * rng.standard_normal(2000)
    buf = io.BytesIO()
    write_wav(buf, audio.astype(np.float32) * 0.5, 2000)
    return base64.b64encode(buf.getvalue()).decode()


IMPULSE_SPEC = {
    "input": {"type": "time-series", "window_size_ms": 1000,
              "window_increase_ms": 1000, "frequency_hz": 2000, "axes": 1},
    "dsp": [{"type": "mfe", "config": {"sample_rate": 2000, "n_filters": 16}}],
    "learn": {"type": "classification", "architecture": "conv1d_stack",
              "arch_kwargs": {"n_layers": 2, "first_filters": 8,
                              "last_filters": 16},
              "training": {"epochs": 25, "batch_size": 8,
                           "learning_rate": 3e-3, "seed": 0}},
}


def test_unknown_route(api):
    assert api.handle("GET", "/v1/nonsense") == {
        "status": 404, "error": "no route GET /v1/nonsense"}


def test_create_and_get_project(api):
    created = api.handle("POST", "/v1/projects", {"name": "demo"}, user="alice")
    assert created["status"] == 200
    pid = created["data"]["project_id"]
    fetched = api.handle("GET", f"/v1/projects/{pid}", user="alice")
    assert fetched["data"]["name"] == "demo"
    assert fetched["data"]["samples"] == 0


def test_project_requires_name(api):
    assert api.handle("POST", "/v1/projects", {}, user="alice")["status"] == 400


def test_permission_denied_for_stranger(api):
    pid = api.handle("POST", "/v1/projects", {"name": "p"}, user="alice")["data"]["project_id"]
    api.platform.register_user("eve")
    response = api.handle("GET", f"/v1/projects/{pid}", user="eve")
    assert response["status"] == 403


def test_full_automation_flow(api):
    """The Sec. 4.9 promise: the whole workflow is drivable over the API."""
    pid = api.handle("POST", "/v1/projects", {"name": "auto"}, user="alice")["data"]["project_id"]

    # Upload two classes of tones.
    for label, freq in (("low", 200.0), ("high", 800.0)):
        for i in range(14):
            response = api.handle(
                "POST", f"/v1/projects/{pid}/data",
                {"payload_b64": _wav_b64(freq, seed=i), "label": label,
                 "format": "wav"},
                user="alice",
            )
            assert response["status"] == 200

    summary = api.handle("GET", f"/v1/projects/{pid}/data/summary", user="alice")
    assert set(summary["data"]["distribution"]) == {"low", "high"}

    set_resp = api.handle("POST", f"/v1/projects/{pid}/impulse",
                          {"impulse": IMPULSE_SPEC}, user="alice")
    assert set_resp["status"] == 200

    get_resp = api.handle("GET", f"/v1/projects/{pid}/impulse", user="alice")
    assert "mfe" in get_resp["data"]["dataflow"]

    # Training is asynchronous: the route answers immediately with a job
    # id, and GET /jobs/<jid> (here with a long-poll) tracks it to done.
    train = api.handle("POST", f"/v1/projects/{pid}/train", {"seed": 0},
                       user="alice")
    assert train["status"] == 200
    assert train["data"]["job_status"] in ("queued", "running")

    job = api.handle("GET", f"/v1/projects/{pid}/jobs/{train['data']['job_id']}",
                     {"wait_s": 60.0}, user="alice")
    assert job["data"]["job_status"] == "succeeded"
    assert job["data"]["progress"] == 1.0
    assert "accuracy" in job["data"]["result"] or job["data"]["result"]  # training metrics

    test = api.handle("POST", f"/v1/projects/{pid}/test", {}, user="alice")
    assert test["status"] == 200
    assert test["data"]["accuracy"] > 0.7  # two tones are trivially separable

    profile = api.handle("POST", f"/v1/projects/{pid}/profile",
                         {"device": "nano33ble"}, user="alice")
    assert profile["data"]["total_ms"] > 0

    deploy = api.handle("POST", f"/v1/projects/{pid}/deploy",
                        {"target": "cpp"}, user="alice")
    assert deploy["status"] == 200
    assert any("eon_model" in f for f in deploy["data"]["artifact"]["files"])

    version = api.handle("POST", f"/v1/projects/{pid}/versions",
                         {"message": "v1"}, user="alice")
    assert version["data"]["version_id"] == 1

    public = api.handle("POST", f"/v1/projects/{pid}/public",
                        {"tags": ["audio"]}, user="alice")
    assert public["data"]["public"]
    listing = api.handle("GET", "/v1/projects", {"tag": "audio"})
    assert any(p["project_id"] == pid for p in listing["data"]["projects"])


def test_missing_body_key_is_400_not_404(api):
    """Regression: a request missing a required body key used to surface
    as 404 via the blanket KeyError mapping; it must be a 400."""
    pid = api.handle("POST", "/v1/projects", {"name": "p"}, user="alice")["data"]["project_id"]
    upload = api.handle("POST", f"/v1/projects/{pid}/data", {"label": "x"},
                        user="alice")
    assert upload["status"] == 400
    assert "payload_b64" in upload["error"]
    impulse = api.handle("POST", f"/v1/projects/{pid}/impulse", {}, user="alice")
    assert impulse["status"] == 400
    assert "impulse" in impulse["error"]
    # 404 stays reserved for genuinely missing resources.
    assert api.handle("POST", "/v1/projects/999/data",
                      {"payload_b64": ""}, user="alice")["status"] == 404


def test_bad_base64_is_400(api):
    pid = api.handle("POST", "/v1/projects", {"name": "p"}, user="alice")["data"]["project_id"]
    response = api.handle("POST", f"/v1/projects/{pid}/data",
                          {"payload_b64": "!!not-base64!!"}, user="alice")
    assert response["status"] == 400


def test_malformed_impulse_spec_is_400(api):
    pid = api.handle("POST", "/v1/projects", {"name": "p"}, user="alice")["data"]["project_id"]
    response = api.handle("POST", f"/v1/projects/{pid}/impulse",
                          {"impulse": {"input": {"type": "time-series"}}},
                          user="alice")
    assert response["status"] == 400


def test_job_status_missing(api):
    """Regression: an unknown job id used to surface as a bare KeyError
    (a 500 in a real gateway); it must be a clean 404 with a message."""
    pid = api.handle("POST", "/v1/projects", {"name": "p"}, user="alice")["data"]["project_id"]
    response = api.handle("GET", f"/v1/projects/{pid}/jobs/99", user="alice")
    assert response["status"] == 404
    assert response["error"] == "no job 99"
    cancel = api.handle("POST", f"/v1/projects/{pid}/jobs/99/cancel", user="alice")
    assert cancel["status"] == 404 and cancel["error"] == "no job 99"


def test_job_status_malformed_params_are_400(api):
    pid = _project_with_data(api, n_per_class=2)
    train = api.handle("POST", f"/v1/projects/{pid}/train", {}, user="alice")
    jid = train["data"]["job_id"]
    bad_wait = api.handle("GET", f"/v1/projects/{pid}/jobs/{jid}",
                          {"wait_s": "soon"}, user="alice")
    assert bad_wait["status"] == 400
    bad_offset = api.handle("GET", f"/v1/projects/{pid}/jobs/{jid}",
                            {"log_offset": "x"}, user="alice")
    assert bad_offset["status"] == 400
    api.handle("GET", f"/v1/projects/{pid}/jobs/{jid}", {"wait_s": 60.0},
               user="alice")  # let the job finish before teardown


def _project_with_data(api, n_per_class=14):
    pid = api.handle("POST", "/v1/projects", {"name": "jobs"}, user="alice")["data"]["project_id"]
    for label, freq in (("low", 200.0), ("high", 800.0)):
        for i in range(n_per_class):
            api.handle("POST", f"/v1/projects/{pid}/data",
                       {"payload_b64": _wav_b64(freq, seed=i), "label": label,
                        "format": "wav"}, user="alice")
    api.handle("POST", f"/v1/projects/{pid}/impulse",
               {"impulse": IMPULSE_SPEC}, user="alice")
    return pid


def test_train_job_async_lifecycle(api):
    """POST /train answers immediately; the job transitions
    queued -> running -> succeeded with progress and streamable logs."""
    pid = _project_with_data(api)
    train = api.handle("POST", f"/v1/projects/{pid}/train", {}, user="alice")
    assert train["status"] == 200
    assert train["data"]["job_status"] in ("queued", "running")
    jid = train["data"]["job_id"]

    done = api.handle("GET", f"/v1/projects/{pid}/jobs/{jid}",
                      {"wait_s": 60.0}, user="alice")
    assert done["data"]["job_status"] == "succeeded"
    assert done["data"]["progress"] == 1.0
    assert any("training" in line for line in done["data"]["logs"])

    # Log streaming: a second read from the returned offset is empty.
    rest = api.handle("GET", f"/v1/projects/{pid}/jobs/{jid}",
                      {"log_offset": done["data"]["log_offset"]}, user="alice")
    assert rest["data"]["logs"] == []

    listing = api.handle("GET", f"/v1/projects/{pid}/jobs", user="alice")
    assert any(j["job_id"] == jid and j["job_status"] == "succeeded"
               for j in listing["data"]["jobs"])


def test_cancel_queued_train_job(api):
    """Cancelling a still-queued job works over the API: with every
    worker of the project's executor busy, the train job stays queued."""
    import threading

    pid = _project_with_data(api)
    platform = api.platform
    project = platform.projects[pid]
    gate = threading.Event()
    blockers = [project.jobs.submit(f"blocker-{i}", lambda j: gate.wait(timeout=10.0))
                for i in range(project.jobs.max_workers)]
    queued = api.handle("POST", f"/v1/projects/{pid}/train", {}, user="alice")
    assert project.jobs.status(queued["data"]["job_id"]) == "queued"
    cancel = api.handle("POST",
                        f"/v1/projects/{pid}/jobs/{queued['data']['job_id']}/cancel",
                        user="alice")
    gate.set()
    assert cancel["status"] == 200 and cancel["data"]["job_status"] == "cancelled"
    status = api.handle("GET", f"/v1/projects/{pid}/jobs/{queued['data']['job_id']}",
                        {"wait_s": 10.0}, user="alice")
    assert status["data"]["job_status"] == "cancelled"
    for blocker in blockers:
        blocker.wait(timeout=10.0)


def test_profile_deploy_autotune_as_jobs(api):
    pid = _project_with_data(api)
    train = api.handle("POST", f"/v1/projects/{pid}/train", {}, user="alice")
    api.handle("GET", f"/v1/projects/{pid}/jobs/{train['data']['job_id']}",
               {"wait_s": 60.0}, user="alice")

    prof = api.handle("POST", f"/v1/projects/{pid}/jobs/profile",
                      {"device": "nano33ble"}, user="alice")
    assert prof["status"] == 200
    prof_done = api.handle("GET", f"/v1/projects/{pid}/jobs/{prof['data']['job_id']}",
                           {"wait_s": 30.0}, user="alice")
    assert prof_done["data"]["job_status"] == "succeeded"
    assert prof_done["data"]["result"]["total_ms"] > 0

    dep = api.handle("POST", f"/v1/projects/{pid}/jobs/deploy",
                     {"target": "cpp"}, user="alice")
    dep_done = api.handle("GET", f"/v1/projects/{pid}/jobs/{dep['data']['job_id']}",
                          {"wait_s": 30.0}, user="alice")
    assert dep_done["data"]["job_status"] == "succeeded"
    assert any("eon_model" in f for f in dep_done["data"]["result"]["manifest"]["files"])

    tune = api.handle("POST", f"/v1/projects/{pid}/jobs/autotune", {},
                      user="alice")
    tune_done = api.handle("GET", f"/v1/projects/{pid}/jobs/{tune['data']['job_id']}",
                           {"wait_s": 30.0}, user="alice")
    assert tune_done["data"]["job_status"] == "succeeded"
    assert tune_done["data"]["result"]["config"]
    # Autotune swapped the DSP block, which invalidates trained graphs.
    assert api.platform.projects[pid].float_graph is None


def test_autotune_without_impulse_is_409(api):
    pid = api.handle("POST", "/v1/projects", {"name": "p"}, user="alice")["data"]["project_id"]
    response = api.handle("POST", f"/v1/projects/{pid}/jobs/autotune", {},
                          user="alice")
    assert response["status"] == 409


def test_user_creation(api):
    assert api.handle("POST", "/v1/users", {"username": "new"})["status"] == 200
    assert api.handle("POST", "/v1/users", {})["status"] == 400
