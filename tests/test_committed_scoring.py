"""A trained model is scored by its committed graph's one plan.

Project testing, live classification, calibration, serving, the EIM
runner and flashed firmware all run ``float_graph`` / ``int8_graph``
through the same compiled plan, so they agree bit for bit; the live
``repro.nn`` model left in the learn block is for training only.
"""

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, Platform, TimeSeriesInput
from repro.core.storage import load_project, save_project
from repro.data.synthetic import keyword_dataset, streaming_scene
from repro.deploy import EIMBundle, EIMRunner
from repro.device import VirtualDevice
from repro.dsp import MFCCBlock
from repro.nn import TrainingConfig
from repro.runtime import run_graph
from repro.runtime.executor import dequantize_output
from repro.serve import ModelServer

SAMPLE_RATE = 8000


def _kws_impulse():
    return Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=SAMPLE_RATE),
        [MFCCBlock(sample_rate=SAMPLE_RATE, frame_length=0.02, frame_stride=0.02,
                   n_filters=32, n_coefficients=13)],
        ClassificationBlock(
            architecture="ds_cnn",
            arch_kwargs=dict(filters=16, n_blocks=2),
            training=TrainingConfig(epochs=18, batch_size=16,
                                    learning_rate=3e-3, seed=0),
        ),
    )


def _populate(project):
    for s in keyword_dataset(keywords=["yes", "no"], samples_per_class=20,
                             sample_rate=SAMPLE_RATE, include_noise=True,
                             include_unknown=False, seed=0):
        project.dataset.add(s, category=s.category)
    project.set_impulse(_kws_impulse())


@pytest.fixture(scope="module")
def kws():
    platform = Platform()
    platform.register_user("u")
    project = platform.create_project("kws-scoring", owner="u")
    _populate(project)
    project.train(seed=0)
    return platform, project


def _windows(project, n=3):
    """Raw one-window recordings from the test split."""
    return [s.data for s in project.dataset.samples(category="test")[:n]]


def _plan_probs(graph, feats):
    return dequantize_output(graph, run_graph(graph, feats))


def _ranked_probs(ranked, labels):
    scores = dict(ranked)
    return np.array([scores[label] for label in labels], dtype=np.float32)


def _check_reloaded(project, original):
    audio = _windows(original, 1)[0]
    labels = sorted(project.label_map, key=project.label_map.get)
    ranked = project.classify_sample(audio)
    feats = project.impulse.features_for_window(audio)[None]
    want = _plan_probs(project.float_graph, feats)[0]
    assert np.array_equal(_ranked_probs(ranked, labels), want)
    assert ranked == original.classify_sample(audio)
    stream, events = streaming_scene("yes", n_events=2, duration=4.0,
                                     sample_rate=SAMPLE_RATE, seed=1)
    front = project.calibrate(stream, events, "yes", sample_rate=SAMPLE_RATE,
                              stride_s=0.5, population=6, generations=2, seed=0)
    assert front


def test_reloaded_project_scores_its_committed_graph(kws, tmp_path):
    _, project = kws
    save_project(project, tmp_path / "proj")
    _check_reloaded(load_project(tmp_path / "proj"), project)


def test_restarted_platform_scores_its_committed_graph(tmp_path):
    d = tmp_path / "state"
    p1 = Platform(state_dir=d)
    p1.register_user("u")
    project = p1.create_project("kws-durable", owner="u")
    _populate(project)
    project.train(seed=0)
    p2 = Platform(state_dir=d)
    _check_reloaded(p2.get_project(project.project_id), project)


def test_failed_retrain_leaves_scores_of_the_committed_model(kws, monkeypatch):
    """A retrain that dies after ``fit`` (here in quantization) leaves a
    different live model in the learn block but commits nothing: the
    project still scores, and serves, the committed graphs."""
    _, project = kws
    audio = _windows(project, 1)[0]
    report = project.test("float32")
    ranked = project.classify_sample(audio)
    model = project.impulse.learn_block.model

    def broken(*args, **kwargs):
        raise RuntimeError("quantizer down")

    monkeypatch.setattr("repro.core.project.quantize_graph", broken)
    try:
        job = project.train_async(seed=1).wait()
        assert job.status == "failed" and "quantizer down" in job.error
        assert project.impulse.learn_block.model is not model  # fit ran
        after = project.test("float32")
        assert after.accuracy == report.accuracy
        assert np.array_equal(after.matrix, report.matrix)
        assert project.classify_sample(audio) == ranked
    finally:
        project.impulse.learn_block.model = model


def test_precision_selector_rejects_unknown_precisions(kws):
    _, project = kws
    assert project.trained_graph("float32") is project.float_graph
    assert project.trained_graph("int8") is project.int8_graph
    for call in (lambda: project.trained_graph("int4"),
                 lambda: project.test("int4"),
                 lambda: project.profile("nano33ble", precision="int4"),
                 lambda: project.deploy(precision="f32")):
        with pytest.raises(ValueError, match="unknown precision"):
            call()


@pytest.mark.parametrize("precision", ["float32", "int8"])
def test_every_surface_returns_the_plan_probabilities(kws, precision):
    """The project, every serving placement, the REST route under either
    engine spelling, the EIM runner and a device flashed with that
    precision's firmware return bit-identical probabilities for the same
    windows."""
    platform, project = kws
    labels = sorted(project.label_map, key=project.label_map.get)
    audio = _windows(project)
    feats = [project.impulse.features_for_window(a) for a in audio]
    want = [project.probabilities(f[None], precision)[0] for f in feats]
    graph = project.trained_graph(precision)
    for f, w in zip(feats, want):
        assert np.array_equal(_plan_probs(graph, f[None])[0], w)

    got = {}
    if precision == "float32":
        got["classify_sample"] = [
            _ranked_probs(project.classify_sample(a), labels) for a in audio
        ]
    for placement in ("thread", "process"):
        with ModelServer(platform, placement=placement, workers=2) as server:
            got[placement] = [
                _ranked_probs(server.classify(
                    project.project_id, f, precision=precision,
                )["classification"].items(), labels)
                for f in feats
            ]
    for engine in ("eon", "tflm"):
        replies = [platform.gateway.handle(
            "POST", f"/v1/projects/{project.project_id}/classify",
            {"features": f.ravel().tolist(), "precision": precision,
             "engine": engine}, user="u",
        )["data"] for f in feats]
        assert {r["engine"] for r in replies} == {engine}
        got[f"rest/{engine}"] = [
            _ranked_probs(r["classification"].items(), labels) for r in replies
        ]
    eim = EIMRunner(EIMBundle.load(
        project.deploy("eim", precision=precision).files["model.eim"]
    ))
    got["eim"] = [
        _ranked_probs(eim.handle({"type": "classify", "features": f.ravel().tolist()})
                      ["result"]["classification"].items(), labels)
        for f in feats
    ]
    device = VirtualDevice("dev", "nano33ble")
    device.flash(project.deploy("firmware", precision=precision).metadata["image"])
    got["device"] = [
        _ranked_probs(device.classify(a)["classification"].items(), labels)
        for a in audio
    ]
    for surface, probs in got.items():
        for p, w in zip(probs, want):
            assert np.array_equal(p, w), surface
