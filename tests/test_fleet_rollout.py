"""Fleet OTA rollouts as jobs: canary gating, per-device retry budgets,
rollback consistency, cancellation, and the REST surface."""

import copy
import threading

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, TimeSeriesInput
from repro.core.jobs import JobExecutor
from repro.deploy import build_artifact
from repro.device import DeviceFleet, VirtualDevice
from repro.dsp import RawBlock


@pytest.fixture()
def image(tiny_graphs):
    impulse = Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=8),
        [RawBlock()],
        ClassificationBlock(),
    )
    artifact = build_artifact("firmware", tiny_graphs[1], impulse,
                              {"a": 0, "b": 1, "c": 2}, "eon", "p")
    return artifact.metadata["image"]


def _fleet(n: int, prefix: str = "d") -> DeviceFleet:
    fleet = DeviceFleet()
    for i in range(n):
        fleet.register(VirtualDevice(f"{prefix}{i}", "nano33ble"))
    return fleet


def _v2(image):
    v2 = copy.deepcopy(image)
    v2.version = "2.0.0"
    return v2


def test_async_rollout_updates_whole_fleet(image):
    fleet = _fleet(6)
    executor = JobExecutor()
    job = fleet.ota_update_async(image, executor)
    job.wait(timeout=30.0)
    assert job.status == "succeeded"
    report = job.result
    assert sorted(report["updated"]) == [f"d{i}" for i in range(6)]
    assert report["failed"] == [] and not report["aborted"]
    assert set(fleet.versions().values()) == {"1.0.0"}
    assert job.progress == 1.0
    # Streamable per-device log lines on the parent job.
    for i in range(6):
        assert any(f"d{i}: updated" in line for line in job.logs)
    lines, offset = job.read_logs(0)
    assert lines and job.read_logs(offset)[0] == []


def test_canary_abort_when_failures_exceed_threshold(image):
    """One of two canaries corrupts (rate 0.5 > threshold 0): updated
    canaries roll back, the fleet-wide stage never runs."""
    fleet = _fleet(8, "c")
    executor = JobExecutor()
    fleet.ota_update_async(image, executor).wait(timeout=30.0)

    job = fleet.ota_update_async(
        _v2(image), executor, canary_fraction=0.25, inject_failures={"c0"}
    )
    job.wait(timeout=30.0)
    assert job.status == "succeeded"  # the *rollout decision* worked
    report = job.result
    assert report["aborted"] is True
    assert report["canary_failure_rate"] == 0.5
    assert report["updated"] == []
    assert "c0" in report["failed"]
    assert sorted(report["rolled_back"]) == ["c0", "c1"]
    assert sorted(report["skipped"]) == [f"c{i}" for i in range(2, 8)]
    # Every device is back on (or still at) 1.0.0 — versions consistent.
    assert set(fleet.versions().values()) == {"1.0.0"}
    assert any("aborted" in line for line in job.logs)


def test_threshold_tolerates_canary_failures(image):
    """With a lenient threshold the same canary failure does not stop
    the rollout; only the corrupt device rolls back."""
    fleet = _fleet(8, "c")
    executor = JobExecutor()
    fleet.ota_update_async(image, executor).wait(timeout=30.0)

    job = fleet.ota_update_async(
        _v2(image), executor, canary_fraction=0.25,
        failure_threshold=0.5, inject_failures={"c0"},
    )
    job.wait(timeout=30.0)
    report = job.result
    assert report["aborted"] is False
    versions = fleet.versions()
    assert versions["c0"] == "1.0.0"  # rolled back to its previous image
    assert all(versions[f"c{i}"] == "2.0.0" for i in range(1, 8))
    assert sorted(report["updated"]) == [f"c{i}" for i in range(1, 8)]


def test_retry_budget_is_per_device_not_per_rollout(image):
    """Two devices each corrupt twice; with retries_per_device=2 both
    recover on their third attempt — one device's retries don't consume
    another's budget."""
    fleet = _fleet(6)
    executor = JobExecutor()
    job = fleet.ota_update_async(
        image, executor, retries_per_device=2,
        inject_failures={"d1": 2, "d4": 2},
    )
    job.wait(timeout=30.0)
    report = job.result
    assert sorted(report["updated"]) == [f"d{i}" for i in range(6)]
    assert report["failed"] == []
    by_name = {c.name: c for c in executor.children(job.job_id)}
    assert by_name["ota-flash:d1"].attempts == 3
    assert by_name["ota-flash:d4"].attempts == 3
    assert by_name["ota-flash:d0"].attempts == 1


def test_retry_budget_exhausted_rolls_device_back(image):
    fleet = _fleet(4)
    executor = JobExecutor()
    fleet.ota_update_async(image, executor).wait(timeout=30.0)

    job = fleet.ota_update_async(
        _v2(image), executor, canary_fraction=0.5,
        failure_threshold=1.0,  # never abort: isolate the retry behaviour
        retries_per_device=1, inject_failures={"d3": 5},
    )
    job.wait(timeout=30.0)
    report = job.result
    assert report["failed"] == ["d3"] and "d3" in report["rolled_back"]
    versions = fleet.versions()
    assert versions["d3"] == "1.0.0"  # back on the previous image
    assert all(versions[f"d{i}"] == "2.0.0" for i in range(3))
    by_name = {c.name: c for c in executor.children(job.job_id)}
    assert by_name["ota-flash:d3"].attempts == 2  # budget honoured


def test_aborted_rollout_returns_fresh_canaries_to_unflashed(image):
    """A canary that had no firmware before the rollout is rolled back
    to none, not left on the rejected image."""
    fleet = _fleet(4)
    job = fleet.ota_update_async(image, JobExecutor(), canary_fraction=0.5,
                                 health_gate=lambda: False).wait(30.0)
    assert job.status == "succeeded" and job.result["aborted"] is True
    assert sorted(job.result["rolled_back"]) == ["d0", "d1"]
    assert set(fleet.versions().values()) == {"unflashed"}
    for did in ("d0", "d1"):
        with pytest.raises(RuntimeError, match="no firmware flashed"):
            fleet.classify_on(did, np.zeros((16, 8), dtype=np.float32))


def test_cancel_mid_rollout_leaves_versions_consistent(image, monkeypatch):
    """Cancelling a rollout drops queued devices; every device ends up
    wholly on the old or the new image, never half-flashed."""
    fleet = _fleet(8)
    executor = JobExecutor()
    fleet.ota_update_async(image, executor).wait(timeout=30.0)

    started = threading.Event()
    release = threading.Event()
    original = DeviceFleet._try_flash

    def gated(self, device, img, corrupt=False):
        if img.version == "2.0.0":
            started.set()
            assert release.wait(timeout=10.0)
        return original(self, device, img, corrupt=corrupt)

    monkeypatch.setattr(DeviceFleet, "_try_flash", gated)
    job = fleet.ota_update_async(
        _v2(image), executor, canary_fraction=0.125, max_inflight=1
    )
    assert started.wait(timeout=10.0)
    executor.cancel(job.job_id)
    release.set()
    job.wait(timeout=30.0)
    assert job.status == "cancelled"
    report = job.result
    assert report["skipped"], "queued devices should have been dropped"
    versions = fleet.versions()
    assert set(versions.values()) <= {"1.0.0", "2.0.0"}
    assert len(report["updated"]) + len(report["skipped"]) + len(
        report["failed"]
    ) == 8


def test_concurrent_rollouts_are_refused(image, monkeypatch):
    """Overlapping rollouts would corrupt each other's rollback state, so
    the fleet serializes them: the second request is refused while the
    first is in flight, and accepted once it settles."""
    fleet = _fleet(4)
    executor = JobExecutor()

    started = threading.Event()
    release = threading.Event()
    original = DeviceFleet._try_flash

    def gated(self, device, img, corrupt=False):
        started.set()
        assert release.wait(timeout=10.0)
        return original(self, device, img, corrupt=corrupt)

    monkeypatch.setattr(DeviceFleet, "_try_flash", gated)
    first = fleet.ota_update_async(image, executor)
    assert started.wait(timeout=10.0)
    with pytest.raises(RuntimeError, match="already in progress"):
        fleet.ota_update_async(_v2(image), executor)
    with pytest.raises(RuntimeError, match="already in progress"):
        fleet.ota_update(_v2(image))  # the blocking wrapper respects it too
    release.set()
    first.wait(timeout=30.0)
    assert first.status == "succeeded"
    second = fleet.ota_update_async(_v2(image), executor)
    second.wait(timeout=30.0)
    assert second.status == "succeeded"
    assert set(fleet.versions().values()) == {"2.0.0"}


def test_sync_rollout_blocks_async(image, monkeypatch):
    """The gate is bidirectional: an in-flight synchronous ota_update
    refuses a concurrent async rollout too."""
    fleet = _fleet(3)
    started = threading.Event()
    release = threading.Event()
    original = DeviceFleet._try_flash

    def gated(self, device, img, corrupt=False):
        started.set()
        assert release.wait(timeout=10.0)
        return original(self, device, img, corrupt=corrupt)

    monkeypatch.setattr(DeviceFleet, "_try_flash", gated)
    result = {}

    def run_sync():
        result["report"] = fleet.ota_update(image)

    t = threading.Thread(target=run_sync)
    t.start()
    assert started.wait(timeout=10.0)
    with pytest.raises(RuntimeError, match="already in progress"):
        fleet.ota_update_async(_v2(image), JobExecutor())
    release.set()
    t.join(timeout=30.0)
    assert sorted(result["report"].updated) == ["d0", "d1", "d2"]
    # The slot frees once the sync rollout returns.
    job = fleet.ota_update_async(_v2(image), JobExecutor())
    job.wait(timeout=30.0)
    assert job.status == "succeeded"


def test_rollout_on_empty_fleet(image):
    fleet = DeviceFleet()
    executor = JobExecutor()
    job = fleet.ota_update_async(image, executor)
    job.wait(timeout=10.0)
    assert job.status == "succeeded"
    assert job.result["updated"] == [] and job.result["devices_total"] == 0


def test_rollout_unknown_device_rejected(image):
    fleet = _fleet(2)
    with pytest.raises(KeyError, match="ghost"):
        fleet.ota_update_async(image, JobExecutor(), device_ids=["ghost"])


def test_sync_ota_update_unchanged_semantics(image):
    """The blocking wrapper does the same staged rollout and reports
    aborts explicitly."""
    fleet = _fleet(8, "c")
    fleet.ota_update(image)
    report = fleet.ota_update(_v2(image), canary_fraction=0.25,
                              inject_failures={"c0"})
    assert report.aborted is True
    assert report.updated == []
    assert set(fleet.versions().values()) == {"1.0.0"}


def test_sync_rollout_failure_raises_and_frees_the_slot(image, monkeypatch):
    """A rollback flash that itself fails fails the rollout job; the
    blocking wrapper raises that job's error (a RuntimeError carrying the
    device's message, as a direct call to the device would) rather than
    wait forever on a parent nobody will seal."""
    fleet = _fleet(4)
    fleet.ota_update(image)
    original = VirtualDevice.flash
    broken = {"on": True}

    def faulty(self, img):
        if broken["on"] and self.device_id == "d0":
            raise RuntimeError("flash bus fault")
        original(self, img)

    monkeypatch.setattr(VirtualDevice, "flash", faulty)
    with pytest.raises(RuntimeError, match="flash bus fault"):
        fleet.ota_update(_v2(image), inject_failures={"d0"})
    broken["on"] = False
    report = fleet.ota_update(_v2(image))
    assert sorted(report.updated) == ["d0", "d1", "d2", "d3"]


def test_async_rollout_fails_when_a_rollback_fails(image, monkeypatch):
    """The canary barrier is never reached when a canary's rollback
    raises; the parent must still seal and land as failed."""
    fleet = _fleet(4)
    fleet.ota_update(image)
    original = VirtualDevice.flash

    def faulty(self, img):
        if self.device_id == "d0":
            raise RuntimeError("flash bus fault")
        original(self, img)

    monkeypatch.setattr(VirtualDevice, "flash", faulty)
    job = fleet.ota_update_async(_v2(image), JobExecutor(),
                                 inject_failures={"d0"})
    job.wait(timeout=30.0)
    assert job.status == "failed"
    assert job.error == "RuntimeError: flash bus fault"


def _rest_fleet_project(tiny_graphs, member="ops"):
    from repro.core import Platform

    platform = Platform()
    api = platform.gateway
    api.handle("POST", "/v1/users", {"username": member})
    pid = api.handle("POST", "/v1/projects", {"name": "fleet-proj"},
                     user=member)["data"]["project_id"]
    project = platform.get_project(pid)
    project.set_impulse(Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=8),
        [RawBlock()],
        ClassificationBlock(),
    ))
    # Wire trained graphs directly — the API deploy path only needs them.
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = {"a": 0, "b": 1, "c": 2}
    return platform, api, pid


def test_rest_rollout_roundtrip(tiny_graphs):
    """Register devices, roll out a trained project's firmware with an
    injected transient failure, and stream the result over the API."""
    platform, api, pid = _rest_fleet_project(tiny_graphs)

    for i in range(4):
        r = api.handle("POST", "/v1/fleet/devices",
                       {"device_id": f"r{i}"}, user="ops")
        assert r["status"] == 200
    # Duplicate registration is a clean 409.
    assert api.handle("POST", "/v1/fleet/devices",
                      {"device_id": "r0"}, user="ops")["status"] == 409
    # Mutating fleet routes need a registered user.
    assert api.handle("POST", "/v1/fleet/devices",
                      {"device_id": "x"}, user="mallory")["status"] == 403

    r = api.handle("POST", "/v1/fleet/rollout",
                   {"project_id": pid, "canary_fraction": 0.5,
                    "failure_threshold": 1.0, "retries": 1,
                    "inject_failures": {"r1": 1}}, user="ops")
    assert r["status"] == 200 and r["data"]["devices_total"] == 4
    jid = r["data"]["job_id"]

    r = api.handle("GET", f"/v1/fleet/rollout/{jid}", {"wait_s": 30.0},
                   user="ops")
    assert r["status"] == 200 and r["data"]["job_status"] == "succeeded"
    assert sorted(r["data"]["result"]["updated"]) == ["r0", "r1", "r2", "r3"]
    assert r["data"]["devices"]["r1"] == "succeeded"
    assert r["data"]["result"]["aborted"] is False

    versions = api.handle("GET", "/v1/fleet/devices", {})["data"]["devices"]
    assert set(versions.values()) == {"1.0.0"}

    # Unknown rollout job -> 404, not a 500.
    assert api.handle("GET", "/v1/fleet/rollout/999", {},
                      user="ops")["status"] == 404
    # Cancel by an unregistered user is refused before touching the job.
    assert api.handle("POST", f"/v1/fleet/rollout/{jid}/cancel", {},
                      user="mallory")["status"] == 403


def test_rest_rollout_cancel_needs_project_membership(tiny_graphs):
    """A registered user outside the project can read a rollout's status
    but can neither start nor cancel it."""
    platform, api, pid = _rest_fleet_project(tiny_graphs, member="alice")
    api.handle("POST", "/v1/users", {"username": "bob"})
    for i in range(4):
        api.handle("POST", "/v1/fleet/devices", {"device_id": f"r{i}"},
                   user="alice")
    body = {"project_id": pid, "health_gate": True, "soak_s": 30.0}
    r = api.handle("POST", "/v1/fleet/rollout", body, user="alice")
    assert r["status"] == 200
    jid = r["data"]["job_id"]
    assert api.handle("POST", "/v1/fleet/rollout", body,
                      user="bob")["status"] == 403
    assert api.handle("POST", f"/v1/fleet/rollout/{jid}/cancel", {},
                      user="bob")["status"] == 403
    child = platform.fleet_jobs.children(jid)[0].job_id
    assert api.handle("POST", f"/v1/fleet/rollout/{child}/cancel", {},
                      user="bob")["status"] == 403
    r = api.handle("GET", f"/v1/fleet/rollout/{jid}", {}, user="bob")
    assert r["status"] == 200 and r["data"]["job_status"] == "running"
    r = api.handle("POST", f"/v1/fleet/rollout/{jid}/cancel", {},
                   user="alice")
    assert r["status"] == 200
    assert platform.fleet_jobs.get(jid).wait(30.0).status == "cancelled"


def test_rest_rollout_requires_trained_project():
    from repro.core import Platform

    platform = Platform()
    api = platform.gateway
    api.handle("POST", "/v1/users", {"username": "ops"})
    pid = api.handle("POST", "/v1/projects", {"name": "untrained"},
                     user="ops")["data"]["project_id"]
    r = api.handle("POST", "/v1/fleet/rollout", {"project_id": pid},
                   user="ops")
    assert r["status"] == 409
    r = api.handle("POST", "/v1/fleet/rollout", {}, user="ops")
    assert r["status"] == 400  # missing project_id


def test_rest_malformed_numeric_bodies_are_400():
    """User-supplied numbers that don't parse are clean 400s, not
    unhandled ValueErrors."""
    from repro.core import Platform

    platform = Platform()
    api = platform.gateway
    api.handle("POST", "/v1/users", {"username": "ops"})
    pid = api.handle("POST", "/v1/projects", {"name": "p"},
                     user="ops")["data"]["project_id"]
    r = api.handle("POST", f"/v1/projects/{pid}/tuner",
                   {"n_trials": "six"}, user="ops")
    assert r["status"] == 400 and "n_trials" in r["error"]
    r = api.handle("POST", "/v1/fleet/rollout",
                   {"project_id": pid, "canary_fraction": "lots"},
                   user="ops")
    assert r["status"] == 400
    r = api.handle("POST", "/v1/fleet/rollout",
                   {"project_id": pid, "inject_failures": {"d0": "x"}},
                   user="ops")
    assert r["status"] == 400 and "inject_failures" in r["error"]
