"""The monitoring plane: telemetry store, drift/SLO detectors, policies,
serving/fleet emission, health-gated rollouts, and the REST surface."""

import copy
import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, Platform, TimeSeriesInput
from repro.core.jobs import JobExecutor
from repro.deploy import build_artifact
from repro.device import DeviceFleet, VirtualDevice
from repro.dsp import RawBlock, extract_features
from repro.monitor import (
    ConfidenceShiftDetector,
    ErrorRateSLODetector,
    FeatureDriftDetector,
    LabelMixShiftDetector,
    LatencySLODetector,
    MonitorPolicy,
    MonitorService,
    TelemetryRecord,
    TelemetryStore,
    ks_statistic,
    psi,
)


def _records(n, project_id=1, confidence=0.9, top="a", ok=True,
             latency_ms=1.0, sketch=None, raw=None, source="serving"):
    return [
        TelemetryRecord(project_id, confidence=confidence, top=top, ok=ok,
                        latency_ms=latency_ms, sketch=sketch, raw=raw,
                        source=source)
        for _ in range(n)
    ]


def _window(records):
    """The rows of ``records`` as the detectors read them."""
    store = TelemetryStore(window=len(records))
    store.extend(records)
    return store.recent(records[0].project_id)


# -- telemetry store ---------------------------------------------------------


def test_store_ring_is_bounded_per_project():
    store = TelemetryStore(window=8, raw_window=2)
    store.extend(_records(20, project_id=1))
    store.extend(_records(3, project_id=2))
    assert store.count(1) == 8
    assert store.count(2) == 3
    assert store.total_records == 23
    assert store.project_ids() == [1, 2]


def test_store_ring_keeps_the_newest_rows_of_batch_records():
    """Multi-row records wrap around the ring as slices, a record longer
    than the ring keeps its newest rows, and rows are numbered in ingest
    order across the store."""
    def batch(values):
        values = np.asarray(values, dtype=np.float64)
        return TelemetryRecord(1, top=["a"] * len(values), confidence=values)

    store = TelemetryStore(window=5)
    store.extend([batch([0.0, 0.1, 0.2]), batch([0.3, 0.4, 0.5, 0.6])])
    rows = store.recent(1)
    assert rows.seq.tolist() == [2, 3, 4, 5, 6]
    assert rows.confidence.tolist() == [0.2, 0.3, 0.4, 0.5, 0.6]
    store.extend([batch(np.arange(12) / 10), TelemetryRecord(1, confidence=0.9)])
    rows = store.recent(1)
    assert rows.seq.tolist() == [15, 16, 17, 18, 19] == list(range(15, 20))
    assert rows.confidence.tolist() == [0.8, 0.9, 1.0, 1.1, 0.9]
    assert rows.top.tolist() == ["a", "a", "a", "a", None]
    assert store.total_records == 20 and store.count(1) == 5
    with pytest.raises(ValueError, match="one value per row"):
        TelemetryRecord(1, top="a", confidence=[0.1, 0.2])


def test_store_raw_ring_is_bounded_separately():
    store = TelemetryStore(window=64, raw_window=4)
    store.extend(_records(10, raw=np.ones(5, dtype=np.float32)))
    assert store.count(1) == 10
    candidates = store.drift_candidates(1)
    assert len(candidates) == 4
    # raw_window genuinely bounds payload memory: only the raw ring holds
    # payloads (the newest four); every row stays in the main ring.
    assert all(r is not None for r in candidates.raw)
    assert all(r is None for r in store.recent(1).raw)
    assert candidates.seq.tolist() == store.recent(1).seq[-4:].tolist()
    # raw_window=0 never retains payloads at all.
    none_store = TelemetryStore(window=8, raw_window=0)
    none_store.extend(_records(3, raw=np.ones(5, dtype=np.float32)))
    assert len(none_store.drift_candidates(1)) == 0
    assert all(r is None for r in none_store.recent(1).raw)


def test_store_recent_filters():
    store = TelemetryStore()
    store.extend(_records(4, source="dev-0"))
    store.extend(_records(2, source="serving"))
    a, b = _records(1)[0], _records(1)[0]
    a.model_version, b.model_version = "1.0.1", "1.0.2"
    store.extend([a, b])
    assert len(store.recent(1, source="dev-0")) == 4
    assert len(store.recent(1, model_version="1.0.2")) == 1
    assert len(store.recent(1, n=3)) == 3
    assert len(store.recent(99)) == 0


def test_store_concurrent_ingest_preserves_totals():
    store = TelemetryStore(window=10_000)
    n_threads, per_thread = 8, 200

    def pump():
        for i in range(per_thread // 10):
            if i % 2:  # one-row records and one ten-row record
                store.extend(_records(10))
            else:
                store.extend([TelemetryRecord(1, top=[None] * 10,
                                              confidence=np.zeros(10))])

    threads = [threading.Thread(target=pump) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # widen any unsynchronised ring write
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert store.total_records == n_threads * per_thread
    assert store.count(1) == n_threads * per_thread
    # Every row landed once, in its own slot, numbered in ingest order.
    assert store.recent(1).seq.tolist() == list(range(n_threads * per_thread))


def test_store_summary():
    store = TelemetryStore()
    store.extend(_records(3, top="yes") + _records(1, top="no", ok=False))
    summary = store.summary(1)
    assert summary["by_label"] == {"yes": 3, "no": 1}
    assert summary["error_rate"] == pytest.approx(0.25)


# -- detector statistics -----------------------------------------------------


def test_ks_statistic_extremes():
    assert ks_statistic([0, 0, 0], [1, 1, 1]) == 1.0
    assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_statistic([], [1.0]) == 0.0


def test_psi_behaviour():
    assert psi({"a": 10, "b": 10}, {"a": 10, "b": 10}) == pytest.approx(0.0, abs=1e-6)
    assert psi({"a": 10}, {"b": 10}) > 1.0
    assert psi({}, {}) == 0.0


def test_confidence_shift_detector():
    rng = np.random.default_rng(0)
    ref = _window([TelemetryRecord(1, confidence=c)
                   for c in rng.uniform(0.85, 0.99, 200)])
    same = _window([TelemetryRecord(1, confidence=c)
                    for c in rng.uniform(0.85, 0.99, 200)])
    collapsed = _window([TelemetryRecord(1, confidence=c)
                         for c in rng.uniform(0.3, 0.6, 200)])
    detector = ConfidenceShiftDetector(threshold=0.25)
    assert not detector.evaluate(ref, same).triggered
    result = detector.evaluate(ref, collapsed)
    assert result.triggered and result.score > 0.9


def test_label_mix_detector():
    ref = _window(_records(50, top="a") + _records(50, top="b"))
    same = _window(_records(25, top="a") + _records(25, top="b"))
    skewed = _window(_records(50, top="b"))
    detector = LabelMixShiftDetector(threshold=0.25)
    assert not detector.evaluate(ref, same).triggered
    assert detector.evaluate(ref, skewed).triggered


def test_confidence_shift_per_label_attribution():
    """The detail names which predicted class's confidence moved: 'a'
    collapses, 'b' stays — per-label KS must separate them."""
    rng = np.random.default_rng(1)
    ref = _window(
        [TelemetryRecord(1, top="a", confidence=c)
         for c in rng.uniform(0.85, 0.99, 100)]
        + [TelemetryRecord(1, top="b", confidence=c)
           for c in rng.uniform(0.85, 0.99, 100)]
    )
    recent = _window(
        [TelemetryRecord(1, top="a", confidence=c)
         for c in rng.uniform(0.3, 0.5, 100)]      # class a got uncertain
        + [TelemetryRecord(1, top="b", confidence=c)
           for c in rng.uniform(0.85, 0.99, 100)]  # class b unchanged
    )
    result = ConfidenceShiftDetector(threshold=0.25).evaluate(ref, recent)
    per_label = result.detail["per_label_ks"]
    assert set(per_label) == {"a", "b"}
    assert per_label["a"] > 0.9 and per_label["b"] < 0.25
    # Labels present on only one side are skipped, not crashed on.
    result = ConfidenceShiftDetector().evaluate(
        _window(_records(10, top="a")), _window(_records(10, top="c"))
    )
    assert result.detail["per_label_ks"] == {}


def test_label_mix_per_label_psi_sums_to_score():
    ref = _window(_records(50, top="a") + _records(50, top="b"))
    skewed = _window(_records(10, top="a") + _records(90, top="b"))
    result = LabelMixShiftDetector(threshold=0.25).evaluate(ref, skewed)
    contributions = result.detail["per_label_psi"]
    assert set(contributions) == {"a", "b"}
    assert all(v >= 0 for v in contributions.values())
    assert sum(contributions.values()) == pytest.approx(result.score, abs=1e-3)
    # The vanished class contributes the bigger term.
    assert contributions["a"] > contributions["b"]


def test_feature_drift_detector():
    rng = np.random.default_rng(0)
    ref = _window([TelemetryRecord(1, sketch=rng.normal(0, 1, 8))
                   for _ in range(100)])
    same = _window([TelemetryRecord(1, sketch=rng.normal(0, 1, 8))
                    for _ in range(100)])
    shifted = _window([TelemetryRecord(1, sketch=rng.normal(4, 1, 8))
                       for _ in range(100)])
    detector = FeatureDriftDetector(threshold=0.35)
    assert not detector.evaluate(ref, same).triggered
    assert detector.evaluate(ref, shifted).triggered
    # No sketches at all -> cleanly not triggered.
    no_sketch = detector.evaluate(_window(_records(5)), _window(_records(5)))
    assert not no_sketch.triggered and "reason" in no_sketch.detail


def test_a_sketch_of_another_width_is_refused_not_truncated():
    """One short sketch used to cut every row of both windows to its
    width: a single ``sketch=[]`` row scored a fully shifted window 0.0
    with ``per_dimension == []``.  Records now refuse it, and the
    detector always compares all SKETCH_DIM dimensions."""
    for bad in ([], [0.1] * 7, [0.1] * 9):
        with pytest.raises(ValueError, match="sketch"):
            TelemetryRecord(1, sketch=bad)
    rng = np.random.default_rng(0)
    ref = _window([TelemetryRecord(1, sketch=rng.normal(0, 1, 8))
                   for _ in range(100)])
    shifted = _window([TelemetryRecord(1, sketch=rng.normal(4, 1, 8))
                       for _ in range(100)] + _records(1))
    result = FeatureDriftDetector(threshold=0.35).evaluate(ref, shifted)
    assert result.triggered and result.score > 0.9
    assert len(result.detail["per_dimension"]) == 8


def test_slo_detectors():
    lat = LatencySLODetector(max_p95_ms=10.0)
    assert not lat.evaluate(None, _window(_records(20, latency_ms=1.0))).triggered
    assert lat.evaluate(None, _window(_records(20, latency_ms=50.0))).triggered
    err = ErrorRateSLODetector(max_rate=0.1)
    assert not err.evaluate(None, _window(_records(20, ok=True))).triggered
    assert err.evaluate(
        None, _window(_records(5, ok=True) + _records(5, ok=False))).triggered


# -- policy ------------------------------------------------------------------


def test_policy_update_and_validation():
    policy = MonitorPolicy()
    policy.update({"auto_retrain": True, "window": 32, "max_latency_ms": 5})
    assert policy.auto_retrain is True and policy.window == 32
    with pytest.raises(ValueError, match="unknown policy key"):
        policy.update({"no_such_knob": 1})
    with pytest.raises(ValueError):
        policy.update({"canary_fraction": 2.0})
    with pytest.raises(ValueError):
        policy.update({"window": 0})


@pytest.mark.parametrize("key", [
    "confidence_shift_threshold", "label_mix_threshold",
    "feature_drift_threshold", "cooldown_s", "soak_s", "max_latency_ms",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_policy_refuses_non_finite_numbers(served_project, key, value):
    """A NaN threshold never triggers (its detector is off) and a NaN
    cooldown never backs off; the REST route answers either with a 400
    (``json.loads`` parses a bare ``NaN``) and keeps the policy."""
    policy = MonitorPolicy()
    with pytest.raises(ValueError, match=f"{key} must be a finite number"):
        policy.update({key: value})
    assert policy == MonitorPolicy()
    platform, project = served_project
    pid = project.project_id
    r = platform.gateway.handle("POST", f"/v1/projects/{pid}/monitor/policy",
                                {key: value}, user="u")
    assert r["status"] == 400 and "finite" in r["error"]
    assert platform.monitor.monitor(pid).policy == MonitorPolicy()


def test_policy_refuses_more_min_records_than_the_window():
    """A sweep judges at most ``window`` rows, so a larger
    ``min_records`` would skip every sweep forever."""
    policy = MonitorPolicy()
    with pytest.raises(ValueError, match="min_records must be <= window"):
        policy.update({"min_records": 257})
    with pytest.raises(ValueError, match="min_records must be <= window"):
        policy.update({"window": 8})
    assert policy == MonitorPolicy()
    policy.update({"window": 8, "min_records": 8})
    assert (policy.window, policy.min_records) == (8, 8)


def test_rejected_policy_update_rolls_back():
    """A rejected update must leave the policy untouched — half-applied
    settings would otherwise block every later update via validate()."""
    policy = MonitorPolicy()
    with pytest.raises(ValueError):
        policy.update({"canary_fraction": 2.0, "window": 16})
    assert policy.canary_fraction == 0.25
    assert policy.window == 256
    # And the policy is still updatable afterwards.
    policy.update({"window": 64})
    assert policy.window == 64


# -- serving emission --------------------------------------------------------


@pytest.fixture()
def served_project(tiny_graphs):
    platform = Platform()
    platform.register_user("u")
    project = platform.create_project("mon", owner="u")
    project.set_impulse(Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=8),
        [RawBlock()],
        ClassificationBlock(),
    ))
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = {"a": 0, "b": 1, "c": 2}
    return platform, project


def test_serving_emits_telemetry(served_project):
    platform, project = served_project
    store = platform.monitor.telemetry
    rows = [np.random.default_rng(0).standard_normal(16 * 8).tolist()
            for _ in range(6)]
    results = platform.serving.classify_batch(project.project_id, rows)
    rows = store.recent(project.project_id)
    assert len(rows) == 6
    assert rows.top.tolist() == [r["top"] for r in results]
    # Each row's confidence is its top class's probability, bit for bit.
    assert rows.confidence.tolist() == [max(r["classification"].values())
                                        for r in results]
    assert rows.sketch.shape == (6, 8) and np.isfinite(rows.sketch).all()
    assert set(rows.model_version) == {"1.0.0"}
    assert (rows.latency_ms >= 0.0).all()
    assert all(r is None for r in rows.raw)  # serving does not retain payloads
    assert len(store.drift_candidates(project.project_id)) == 0
    assert platform.serving.snapshot()["telemetry_errors"] == 0


def test_serving_without_telemetry_unchanged(tiny_graphs):
    from repro.serve import ModelServer

    platform, project = None, None
    plat = Platform()
    plat.register_user("u")
    project = plat.create_project("off", owner="u")
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = {"a": 0, "b": 1, "c": 2}
    with ModelServer.for_project(project) as server:
        assert server.telemetry is None
        result = server.classify(project.project_id, np.zeros(16 * 8))
    assert set(result) == {"classification", "top"}


def test_sharded_serving_propagates_telemetry(tiny_graphs):
    plat = Platform(serving_workers=3)
    plat.register_user("u")
    project = plat.create_project("shard-mon", owner="u")
    project.float_graph, project.int8_graph = tiny_graphs
    project.label_map = {"a": 0, "b": 1, "c": 2}
    # The Platform wired every shard to the monitor store at construction.
    assert plat.serving.telemetry is plat.monitor.telemetry
    rows = [np.zeros(16 * 8).tolist() for _ in range(4)]
    plat.serving.classify_batch(project.project_id, rows)
    records = plat.monitor.telemetry.recent(project.project_id)
    assert len(records) == 4
    assert set(records.source) <= {f"shard-{i}" for i in range(3)}
    plat.serving.close()


# -- fleet emission + health-gated rollout -----------------------------------


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


def _fleet(n):
    fleet = DeviceFleet()
    for i in range(n):
        fleet.register(VirtualDevice(f"d{i}", "nano33ble"))
    return fleet


def test_fleet_classify_emits_telemetry_with_raw(image):
    fleet = _fleet(2)
    fleet.ota_update(image)
    store = TelemetryStore()
    fleet.telemetry = store
    fleet.telemetry_project = 7
    data = np.random.default_rng(0).standard_normal((16, 8)).astype(np.float32)
    result = fleet.classify_on("d0", data)
    assert result["top"] in ("a", "b", "c")
    rows = store.recent(7)
    assert len(rows) == 1
    assert rows.source[0] == "d0"
    assert rows.model_version[0] == "1.0.0"
    candidates = store.drift_candidates(7)
    assert candidates.seq.tolist() == rows.seq.tolist()
    assert candidates.raw[0].shape == (16, 8)
    # The sketch is taken in the feature domain (same projection as the
    # serving tier's sketches for this impulse).
    from repro.active import feature_sketch

    impulse = fleet.devices["d0"]._impulse
    feats = extract_features(impulse.dsp_blocks, impulse.input_block.windows(data)[:1])
    assert np.allclose(rows.sketch[0], feature_sketch(feats.reshape(1, -1))[0])
    # Unflashed device: error telemetry + the exception propagates.
    fleet.register(VirtualDevice("bare", "nano33ble"))
    with pytest.raises(RuntimeError, match="no firmware"):
        fleet.classify_on("bare", data)
    assert not store.recent(7).ok.all()
    with pytest.raises(KeyError):
        fleet.classify_on("ghost", data)


def test_unbound_fleet_emits_nothing(image):
    fleet = _fleet(1)
    fleet.ota_update(image)
    fleet.classify_on("d0", np.zeros((16, 8), dtype=np.float32))  # no sink


def test_rollout_health_gate_failure_aborts(image):
    fleet = _fleet(8)
    fleet.ota_update(image)
    executor = JobExecutor()
    v2 = copy.deepcopy(image)
    v2.version = "2.0.0"
    job = fleet.ota_update_async(
        v2, executor, canary_fraction=0.25, health_gate=lambda: False
    )
    job.wait(timeout=30.0)
    assert job.status == "succeeded"
    report = job.result
    assert report["aborted"] is True
    assert report["health_gate_passed"] is False
    assert len(report["skipped"]) == 6
    # Every device is still (or back) on the old version.
    assert set(fleet.versions().values()) == {"1.0.0"}
    assert any("health gate failed" in line for line in job.logs)


def test_rollout_health_gate_exception_counts_as_unhealthy(image):
    fleet = _fleet(4)
    executor = JobExecutor()

    def broken_gate():
        raise RuntimeError("monitor on fire")

    job = fleet.ota_update_async(image, executor, health_gate=broken_gate)
    job.wait(timeout=30.0)
    assert job.result["aborted"] is True
    assert job.result["health_gate_passed"] is False
    assert any("monitor on fire" in line for line in job.logs)


def test_rollout_health_gate_pass_with_soak(image):
    fleet = _fleet(4)
    executor = JobExecutor()
    calls = []

    def gate():
        calls.append(1)
        return True

    job = fleet.ota_update_async(image, executor, health_gate=gate,
                                 soak_s=0.05)
    job.wait(timeout=30.0)
    assert job.status == "succeeded"
    assert job.result["aborted"] is False
    assert job.result["health_gate_passed"] is True
    assert len(calls) == 1
    assert sorted(job.result["updated"]) == ["d0", "d1", "d2", "d3"]
    assert any("soaking canary cohort" in line for line in job.logs)


def test_monitor_service_health_gate(image):
    plat = Platform()
    plat.register_user("u")
    project = plat.create_project("gate", owner="u")
    pid = project.project_id
    gate = plat.monitor.health_gate(pid)
    assert gate() is True  # no telemetry: no evidence of harm
    plat.monitor.telemetry.extend(
        _records(20, project_id=pid, ok=False)
    )
    assert gate() is False  # error-rate SLO breached
    # Scoped to a model version that has no traffic -> healthy.
    scoped = plat.monitor.health_gate(pid, model_version="9.9.9")
    assert scoped() is True


# -- evaluation, alerts, daemon ----------------------------------------------


def _drift_setup(pid=1):
    plat = Platform()
    plat.register_user("u")
    project = plat.create_project("drifty", owner="u")
    service = plat.monitor
    service.set_policy(project.project_id, {
        "reference_size": 20, "min_records": 10, "window": 64,
    })
    rng = np.random.default_rng(0)
    service.telemetry.extend([
        TelemetryRecord(project.project_id, confidence=c, top="a",
                        model_version="1.0.1")
        for c in rng.uniform(0.85, 0.99, 20)
    ])
    return plat, project, service, rng


def test_evaluate_baselines_then_detects_drift():
    plat, project, service, rng = _drift_setup()
    pid = project.project_id
    # First sweep: captures the reference, not enough fresh records yet.
    snap = service.evaluate(pid)
    assert snap["skipped"] is True and snap["reference_records"] == 20
    # Healthy traffic: no alerts.
    service.telemetry.extend([
        TelemetryRecord(pid, confidence=c, top="a")
        for c in rng.uniform(0.85, 0.99, 30)
    ])
    snap = service.evaluate(pid)
    assert snap["health"] == "ok" and snap["alerts_total"] == 0
    # Confidence collapse: drift alert, edge-triggered once.
    service.telemetry.extend([
        TelemetryRecord(pid, confidence=c, top="a")
        for c in rng.uniform(0.2, 0.5, 40)
    ])
    snap = service.evaluate(pid)
    assert snap["health"] == "drift"
    alerts = service.alerts(pid)
    assert len(alerts) == 1
    assert alerts[0]["detector"] == "confidence_shift"
    assert alerts[0]["severity"] == "warning"
    assert alerts[0]["action"] is None  # auto_retrain is off
    # Still drifted on the next sweep: no duplicate alert.
    service.evaluate(pid)
    assert len(service.alerts(pid)) == 1
    # A traffic pause (sweep skipped for lack of records) must not fake
    # a recovery: the last evaluated status survives the skip.
    service.telemetry.clear(pid)
    snap = service.evaluate(pid)
    assert snap["skipped"] is True and snap["health"] == "drift"


def test_slo_breach_is_critical():
    plat, project, service, rng = _drift_setup()
    pid = project.project_id
    service.set_policy(pid, {"max_latency_ms": 5.0})
    service.evaluate(pid)  # capture reference
    service.telemetry.extend([
        TelemetryRecord(pid, confidence=c, top="a", latency_ms=80.0)
        for c in rng.uniform(0.85, 0.99, 30)
    ])
    snap = service.evaluate(pid)
    assert snap["health"] == "unhealthy"
    assert any(a["severity"] == "critical" and a["detector"] == "latency_slo"
               for a in service.alerts(pid))


def test_sweep_is_a_monitor_job():
    plat, project, service, rng = _drift_setup()
    job = service.sweep().wait(30.0)
    assert job.status == "succeeded" and job.name == "monitor-sweep"
    assert job.result == {"projects": {project.project_id: "baselining"}}
    assert any("captured reference window" in line for line in job.logs)
    one = service.sweep(project.project_id).wait(30.0)
    assert one.status == "succeeded"
    assert one.name == f"monitor-sweep p{project.project_id}"
    assert one.result["health"] == "baselining" and one.result["skipped"]


def test_route_drift_samples_skips_unlabeled_and_failed(served_project):
    """Only healthy, predicted records may be routed back: a top-less or
    failed record must not mint a phantom 'unlabeled' training class."""
    platform, project = served_project
    good = TelemetryRecord(project.project_id, top="a", confidence=0.9,
                           raw=np.ones((16, 8), dtype=np.float32))
    topless = TelemetryRecord(project.project_id, top=None,
                              raw=np.ones((16, 8), dtype=np.float32) * 2)
    failed = TelemetryRecord(project.project_id, top="b", ok=False,
                             raw=np.ones((16, 8), dtype=np.float32) * 3)
    store = TelemetryStore()
    store.extend([good, topless, failed])
    routed = platform.monitor.route_drift_samples(
        project, store.drift_candidates(project.project_id)
    )
    assert routed == 1
    assert project.dataset.labels == ["a"]
    sample = project.dataset.samples()[0]
    assert sample.category == "train"
    assert sample.metadata["monitor"] is True


def test_fleet_telemetry_attribution_per_device(image):
    """Two projects rolling out to disjoint device subsets keep their
    telemetry separate; per-device bindings win over the default."""
    plat = Platform()
    plat.register_user("u")
    a = plat.create_project("proj-a", owner="u")
    b = plat.create_project("proj-b", owner="u")
    for did in ("dev-a", "dev-b", "dev-c"):
        plat.fleet.register(VirtualDevice(did, "nano33ble"))
    plat.fleet.ota_update(image)
    plat.monitor.watch_fleet(a.project_id)  # fleet-wide default: A
    plat.monitor.watch_fleet(b.project_id, device_ids=["dev-b"])
    data = np.zeros((16, 8), dtype=np.float32)
    plat.fleet.classify_on("dev-a", data)
    plat.fleet.classify_on("dev-b", data)
    plat.fleet.classify_on("dev-c", data)
    store = plat.monitor.telemetry
    assert store.recent(a.project_id).source.tolist() == ["dev-a", "dev-c"]
    assert store.recent(b.project_id).source.tolist() == ["dev-b"]
    assert sorted(plat.fleet.devices_for_project(a.project_id)) == [
        "dev-a", "dev-c"]
    assert plat.fleet.devices_for_project(b.project_id) == ["dev-b"]
    # A later fleet-wide binding supersedes stale per-device routes (the
    # fleet was reflashed; old subset attributions must not leak on).
    plat.monitor.watch_fleet(a.project_id)
    assert plat.fleet.telemetry_projects == {}


def test_loop_rollout_scoped_to_project_devices(served_project):
    """Auto-retrain rollouts must never reflash another project's
    devices on a shared fleet: the closed loop targets the devices
    attributed to the retraining project."""
    from repro.data import Sample
    from repro.monitor.telemetry import TelemetryWindow
    from repro.nn import TrainingConfig

    platform, project_a = served_project
    project_b = platform.create_project("mon-b", owner="u")
    project_b.set_impulse(Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=16, axes=8),
        [RawBlock()],
        ClassificationBlock(training=TrainingConfig(epochs=3)),
    ))
    rng = np.random.default_rng(0)
    for i in range(20):
        scale = 1.0 + 3.0 * (i % 2)
        project_b.dataset.add(Sample(
            (rng.standard_normal((16, 8)) * scale).astype(np.float32),
            label="ab"[i % 2]), category="train")
    for did in ("d0", "d1", "d2", "d3"):
        platform.fleet.register(VirtualDevice(did, "nano33ble"))
    platform.monitor.watch_fleet(project_a.project_id, device_ids=["d0", "d1"])
    platform.monitor.watch_fleet(project_b.project_id, device_ids=["d2", "d3"])
    loop = platform.monitor.start_retrain_loop(
        project_b, TelemetryWindow()).wait(120.0)
    assert loop.status == "succeeded", loop.error
    assert loop.result["model_version"] == "1.0.1"
    report = loop.result["rollout"]
    assert sorted(report["updated"]) == ["d2", "d3"]
    assert report["health_gate_passed"] is True
    versions = platform.fleet.versions()
    assert versions["d0"] == versions["d1"] == "unflashed"
    assert versions["d2"] == versions["d3"] == "1.0.1"


def test_a_pinned_reference_is_compared_with_later_traffic_only():
    """Pinning takes the newest rows; the next sweep judges the rows
    after them, never the older traffic before the pin."""
    plat = Platform()
    plat.register_user("u")
    pid = plat.create_project("pinned", owner="u").project_id
    service = plat.monitor
    service.set_policy(pid, {"reference_size": 64, "min_records": 16})
    rng = np.random.default_rng(0)
    service.telemetry.extend([TelemetryRecord(pid, confidence=c, top="a")
                              for c in rng.uniform(0.9, 0.99, 200)])
    service.telemetry.extend([TelemetryRecord(pid, confidence=c, top="a")
                              for c in rng.uniform(0.5, 0.7, 64)])
    assert service.set_reference(pid) == 64
    snap = service.evaluate(pid)  # no traffic since the pin
    assert snap["skipped"] is True and snap["recent_records"] == 0
    assert snap["health"] == "ok" and service.alerts(pid) == []
    # Traffic like the pinned window after the pin: judged, and healthy.
    service.telemetry.extend([TelemetryRecord(pid, confidence=c, top="a")
                              for c in rng.uniform(0.5, 0.7, 32)])
    snap = service.evaluate(pid)
    assert snap["recent_records"] == 32 and "skipped" not in snap
    assert snap["health"] == "ok" and service.alerts(pid) == []


def test_set_reference_empty_capture_preserves_baseline():
    plat, project, service, rng = _drift_setup()
    pid = project.project_id
    assert service.set_reference(pid) == 20  # captures the seeded traffic
    service.telemetry.clear(pid)
    # Nothing to capture now: report 0 and keep the pinned baseline.
    assert service.set_reference(pid) == 0
    assert len(service.monitor(pid).reference) == 20


def test_max_drift_samples_zero_disables_routing():
    plat, project, service, rng = _drift_setup()
    pid = project.project_id
    service.set_policy(pid, {"auto_retrain": True, "max_drift_samples": 0})
    service.evaluate(pid)  # capture reference
    service.telemetry.extend([
        TelemetryRecord(pid, confidence=c, top="a",
                        raw=np.ones(4, dtype=np.float32))
        for c in rng.uniform(0.2, 0.5, 40)
    ])
    snap = service.evaluate(pid)
    assert "started_loop_job" in snap
    loop = service.monitor(pid).loop_jobs[-1]
    loop.wait(30.0)  # fails later (no impulse) — the count is in the log
    assert any("0 drift-window sample(s) to route back" in line
               for line in loop.logs)


def test_auto_retrain_routes_only_the_recent_windows_usable_raw_rows():
    """The loop's drift samples are the raw rows of the recent window
    that carry a prediction and succeeded: not the reference's rows, not
    a top-less or failed row."""
    plat = Platform()
    plat.register_user("u")
    pid = plat.create_project("routes", owner="u").project_id
    service = plat.monitor
    service.set_policy(pid, {"reference_size": 20, "min_records": 10,
                             "window": 64, "auto_retrain": True,
                             "max_drift_samples": 100})
    rng = np.random.default_rng(0)
    raw = np.ones(4, dtype=np.float32)
    service.telemetry.extend([TelemetryRecord(pid, confidence=c, top="a", raw=raw)
                              for c in rng.uniform(0.85, 0.99, 20)])
    service.evaluate(pid)  # the 20 raw rows become the reference
    service.telemetry.extend(
        [TelemetryRecord(pid, confidence=c, top="a", raw=raw)
         for c in rng.uniform(0.2, 0.5, 30)]
        + [TelemetryRecord(pid, confidence=0.3, raw=raw),
           TelemetryRecord(pid, confidence=0.3, top="a", ok=False, raw=raw)])
    assert "started_loop_job" in service.evaluate(pid)
    loop = service.monitor(pid).loop_jobs[-1]
    loop.wait(30.0)  # fails later (no impulse) — the count is in the log
    assert any("30 drift-window sample(s) to route back" in line
               for line in loop.logs)


def test_loop_fails_cleanly_without_impulse():
    plat = Platform()
    plat.register_user("u")
    project = plat.create_project("noimp", owner="u")
    job = plat.monitor.start_retrain_loop(project, [], reason="test")
    job.wait(30.0)
    assert job.status == "failed"
    assert "impulse" in job.error


def test_auto_retrain_respects_cooldown_and_single_loop():
    plat, project, service, rng = _drift_setup()
    pid = project.project_id
    service.set_policy(pid, {"auto_retrain": True, "cooldown_s": 300})
    service.evaluate(pid)  # capture reference
    service.telemetry.extend([
        TelemetryRecord(pid, confidence=c, top="a")
        for c in rng.uniform(0.2, 0.5, 40)
    ])
    snap = service.evaluate(pid)
    assert "started_loop_job" in snap
    pm = service.monitor(pid)
    pm.loop_jobs[-1].wait(30.0)  # fails fast (no impulse) — that's fine
    # Drift persists, but the cooldown blocks a second loop.
    service.telemetry.extend([
        TelemetryRecord(pid, confidence=c, top="a")
        for c in rng.uniform(0.2, 0.5, 10)
    ])
    snap = service.evaluate(pid)
    assert "started_loop_job" not in snap
    assert len(pm.loop_jobs) == 1


# -- REST surface ------------------------------------------------------------


def test_rest_monitor_routes(served_project):
    platform, project = served_project
    api = platform.gateway
    pid = project.project_id

    # Policy: partial update, echo, validation.
    r = api.handle("POST", f"/v1/projects/{pid}/monitor/policy",
                   {"min_records": 4, "reference_size": 4, "window": 32},
                   user="u")
    assert r["status"] == 200 and r["data"]["policy"]["min_records"] == 4
    assert api.handle("POST", f"/v1/projects/{pid}/monitor/policy",
                      {"bogus_knob": 1}, user="u")["status"] == 400
    assert api.handle("POST", f"/v1/projects/{pid}/monitor/policy",
                      {"window": 0}, user="u")["status"] == 400
    # Membership is enforced on mutation.
    assert api.handle("POST", f"/v1/projects/{pid}/monitor/policy",
                      {"window": 8}, user="mallory")["status"] == 403

    # No telemetry yet: reference capture is a clean 409.
    assert api.handle("POST", f"/v1/projects/{pid}/monitor/reference",
                      {}, user="u")["status"] == 409

    # Telemetry push (the device path) — records can end up in a
    # training set, so anonymous pushes are 403 and so are pushes into
    # a project the (registered) caller is not a member of.
    assert api.handle("POST", "/v1/telemetry",
                      {"records": [{"project_id": pid}]},
                      user="mallory")["status"] == 403
    platform.register_user("intruder")
    assert api.handle("POST", "/v1/telemetry",
                      {"records": [{"project_id": pid}]},
                      user="intruder")["status"] == 403
    r = api.handle("POST", "/v1/telemetry", {"records": [
        {"project_id": pid, "confidence": 0.95, "top": "a",
         "source": "field-1", "raw": [0.0] * 16},
        {"project_id": pid, "confidence": 0.91, "top": "a"},
    ]}, user="u")
    assert r["status"] == 200 and r["data"]["accepted"] == 2
    assert api.handle("POST", "/v1/telemetry",
                      {"records": [{"project_id": 999}]},
                      user="u")["status"] == 404
    assert api.handle("POST", "/v1/telemetry",
                      {"records": [{"confidence": 1}]},
                      user="u")["status"] == 400
    assert api.handle("POST", "/v1/telemetry", {"records": []},
                      user="u")["status"] == 400
    assert api.handle("POST", "/v1/telemetry", {}, user="u")["status"] == 400

    r = api.handle("POST", f"/v1/projects/{pid}/monitor/reference",
                   {}, user="u")
    assert r["status"] == 200 and r["data"]["reference_records"] == 2

    # Status + summary.
    r = api.handle("GET", f"/v1/projects/{pid}/monitor", {}, user="u")
    assert r["status"] == 200
    assert r["data"]["telemetry"]["records"] == 2
    assert r["data"]["telemetry"]["by_source"].get("field-1") == 1
    assert r["data"]["telemetry"]["raw_retained"] == 1

    # Serve traffic through the platform tier; it lands in the monitor.
    rows = [np.zeros(16 * 8).tolist() for _ in range(6)]
    api.handle("POST", f"/v1/projects/{pid}/classify", {"batch": rows},
               user="u")
    r = api.handle("POST", f"/v1/projects/{pid}/monitor/evaluate", {},
                   user="u")
    assert r["status"] == 200 and r["data"]["sweep_job_status"] == "succeeded"
    assert r["data"]["recent_records"] >= 6

    r = api.handle("GET", f"/v1/projects/{pid}/monitor/alerts", {}, user="u")
    assert r["status"] == 200 and isinstance(r["data"]["alerts"], list)

    # Unknown project -> 404 end to end.
    assert api.handle("GET", "/v1/projects/999/monitor", {},
                      user="u")["status"] == 404


@pytest.mark.parametrize("bad", [
    {"latency_ms": float("nan")}, {"latency_ms": float("inf")},
    {"confidence": float("-inf")},
    {"sketch": [0.5, float("nan")]}, {"raw": [float("inf")] * 4},
    {"source": "gateway"},
])
def test_telemetry_push_refuses_non_finite_values_and_the_gateway_source(served_project, bad):
    """A pushed NaN latency would make the window's p95 NaN, so the SLO
    detector would score NaN and never trigger, and a rollout's health
    gate would pass a breaching canary; the ``gateway`` source names the
    gateway's own traffic, which a device must not pass itself off as.
    Both are a 400 that stores nothing."""
    platform, project = served_project
    api, pid = platform.gateway, project.project_id
    slow = [{"project_id": pid, "latency_ms": 500.0} for _ in range(50)]
    assert api.handle("POST", "/v1/telemetry", {"records": slow}, user="u")["status"] == 200
    r = api.handle("POST", "/v1/telemetry",
                   {"records": [{"project_id": pid, "latency_ms": 500.0},
                                {"project_id": pid, **bad}]}, user="u")
    assert r["status"] == 400 and "records[1]" in r["error"]
    recent = platform.monitor.telemetry.recent(pid)
    assert len(recent) == 50
    result = LatencySLODetector(max_p95_ms=100.0).evaluate(None, recent)
    assert result.score == 5.0 and result.triggered


@pytest.mark.parametrize("sketch", [[], [0.5] * 7, [0.5] * 9])
def test_telemetry_push_refuses_a_sketch_of_another_width(served_project, sketch):
    """A pushed sketch must be SKETCH_DIM numbers: one ``"sketch": []``
    used to switch off feature-drift detection for the whole window."""
    platform, project = served_project
    api, pid = platform.gateway, project.project_id
    r = api.handle("POST", "/v1/telemetry", {"records": [
        {"project_id": pid, "sketch": [0.5] * 8},
        {"project_id": pid, "sketch": sketch},
    ]}, user="u")
    assert r["status"] == 400 and "records[1]" in r["error"]
    assert len(platform.monitor.telemetry.recent(pid)) == 0


def test_rest_fleet_device_classify(image):
    plat = Platform()
    plat.register_user("ops")
    api = plat.gateway
    plat.fleet.register(VirtualDevice("edge-0", "nano33ble"))
    plat.fleet.ota_update(image)
    data = np.zeros((16, 8), dtype=np.float32).tolist()
    # Emits telemetry, so it needs a registered caller.
    assert api.handle("POST", "/v1/fleet/devices/edge-0/classify",
                      {"data": data}, user="mallory")["status"] == 403
    r = api.handle("POST", "/v1/fleet/devices/edge-0/classify",
                   {"data": data}, user="ops")
    assert r["status"] == 200 and r["data"]["top"] in ("a", "b", "c")
    r = api.handle("POST", "/v1/fleet/devices/ghost/classify",
                   {"data": data}, user="ops")
    assert r["status"] == 404
    assert r["error"] == "unknown device 'ghost'"  # no repr-quoting
    assert api.handle("POST", "/v1/fleet/devices/edge-0/classify",
                      {}, user="ops")["status"] == 400
    plat.fleet.register(VirtualDevice("bare", "nano33ble"))
    assert api.handle("POST", "/v1/fleet/devices/bare/classify",
                      {"data": data}, user="ops")["status"] == 409


def test_failed_rollout_does_not_steal_telemetry_binding(served_project):
    """A rejected rollout request must not rebind fleet telemetry: the
    binding happens only once the rollout is accepted."""
    platform, project = served_project
    api = platform.gateway
    r = api.handle("POST", "/v1/fleet/rollout",
                   {"project_id": project.project_id,
                    "device_ids": ["ghost"]}, user="u")
    assert r["status"] == 404  # unknown device rejects the rollout
    assert platform.fleet.telemetry_project is None
    assert platform.fleet.telemetry_projects == {}


# -- ingest cost pins --------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 32])
def test_telemetry_retains_at_most_160_bytes_per_row(served_project, batch):
    """A full 4,096-row store holds its rows in columns: at most 160
    retained bytes per row, whatever the serving batch size."""
    platform, project = served_project
    pid = project.project_id
    rows = [np.random.default_rng(0).standard_normal(16 * 8).tolist()
            for _ in range(batch)]
    platform.serving.classify_batch(pid, rows)  # warm the serving path
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = platform.serving.telemetry = TelemetryStore(window=4096)
        for _ in range(4096 // batch):
            platform.serving.classify_batch(pid, rows)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert store.count(pid) == 4096
    assert retained / 4096 <= 160, f"{retained / 4096:.0f} B/row"


def test_a_served_chunk_reaches_the_store_as_one_record(served_project):
    platform, project = served_project
    calls = []

    class Recording(TelemetryStore):
        def extend(self, records):
            calls.append(list(records))
            return super().extend(records)

    store = platform.serving.telemetry = Recording()
    rows = [np.random.default_rng(0).standard_normal(16 * 8).tolist()
            for _ in range(32)]
    platform.serving.classify_batch(project.project_id, rows)
    assert len(calls) == 1 and len(calls[0]) == 1
    assert len(calls[0][0]) == 32 and store.count(project.project_id) == 32
