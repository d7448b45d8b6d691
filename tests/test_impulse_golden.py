"""An impulse turns raw data into features and probabilities one way.

``tests/data/impulse_golden.json`` was recorded against the tree that
still had four feature helpers (``transform_window``,
``DSPBlock.transform_batch``, ``Impulse.features_for_window`` /
``features_for_sample``) and three hand copies of "features ->
probabilities", before they became :func:`repro.dsp.base.extract_features`
and ``EONModel.predict_proba``.  It holds:

- the sha256 of the features of fixed-seed raw windows for every
  registered DSP block type and for a two-block impulse;
- a fixed project's ``classify_sample`` ranking, a flashed
  ``VirtualDevice.classify`` at either precision, and the stream
  probabilities, timestamps and Pareto front of ``calibrate``.

Re-record with::

    PYTHONPATH=src python tests/test_impulse_golden.py

Like the training goldens (``train_golden.json``), the scoring pins are a
statement about one numpy + BLAS build; the feature digests use no BLAS.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import repro.calibration as calibration
from repro.core import ClassificationBlock, ImageInput, Impulse, Project, TimeSeriesInput
from repro.data.synthetic import keyword_dataset, streaming_scene
from repro.device import VirtualDevice
from repro.dsp import (
    CustomBlock,
    ImageBlock,
    MFCCBlock,
    MFEBlock,
    RawBlock,
    SpectralAnalysisBlock,
    register_custom_transform,
)
from repro.dsp.base import _REGISTRY, extract_features
from repro.nn import TrainingConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "impulse_golden.json"
SAMPLE_RATE = 8000


def _golden_stats(window, gain=1.0):
    w = np.asarray(window, np.float64).reshape(-1)
    return [gain * w.mean(), gain * w.std(), float(np.abs(w).max())]


register_custom_transform("golden-stats", _golden_stats)

#: case -> (DSP blocks, raw window shape, window seed)
FEATURE_CASES = {
    "mfe": (lambda: [MFEBlock(sample_rate=SAMPLE_RATE, frame_length=0.025,
                              frame_stride=0.02, n_filters=24)], (8000,), 0),
    "mfcc": (lambda: [MFCCBlock(sample_rate=SAMPLE_RATE, frame_length=0.02,
                                frame_stride=0.02, n_filters=32,
                                n_coefficients=13)], (8000,), 1),
    "spectral-analysis": (lambda: [SpectralAnalysisBlock(
        sample_rate=100, fft_length=64, filter_type="low",
        filter_cutoff_hz=20.0)], (200, 3), 2),
    "raw": (lambda: [RawBlock(scale=0.5)], (16, 8), 3),
    "image": (lambda: [ImageBlock(width=24, height=20, channels=1)], (48, 40, 3), 4),
    "custom": (lambda: [CustomBlock(name="golden-stats", params={"gain": 2.0})],
               (64, 2), 5),
    "spectral+raw": (lambda: [SpectralAnalysisBlock(sample_rate=100, fft_length=64),
                              RawBlock()], (200, 3), 6),
}


def _digest(a: np.ndarray) -> str:
    sha = hashlib.sha256()
    sha.update(str(a.dtype).encode() + repr(a.shape).encode() + a.tobytes())
    return sha.hexdigest()


def _windows(shape, seed, n=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *shape)).astype(np.float32)


def golden_features(case: str) -> str:
    blocks, shape, seed = FEATURE_CASES[case]
    return _digest(extract_features(blocks(), _windows(shape, seed)))


def _project() -> Project:
    """A small trained 8 kHz keyword project (1 s windows, 0.5 s hop)."""
    project = Project("impulse-golden")
    for s in keyword_dataset(keywords=["yes", "no"], samples_per_class=16,
                             sample_rate=SAMPLE_RATE, include_noise=True,
                             include_unknown=False, seed=0):
        project.dataset.add(s, category=s.category)
    project.set_impulse(Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=500,
                        frequency_hz=SAMPLE_RATE),
        [MFCCBlock(sample_rate=SAMPLE_RATE, frame_length=0.02, frame_stride=0.02,
                   n_filters=32, n_coefficients=13)],
        ClassificationBlock(
            architecture="conv1d_stack",
            arch_kwargs=dict(n_layers=2, first_filters=8, last_filters=16),
            training=TrainingConfig(epochs=15, batch_size=8,
                                    learning_rate=5e-3, seed=0),
        ),
    ))
    project.train(seed=0)
    return project


def _recording(project) -> np.ndarray:
    """2.5 s of test audio: four 1 s windows at a 0.5 s hop."""
    audio = np.concatenate([s.data for s in project.dataset.samples(category="test")[:3]])
    return audio[: int(2.5 * SAMPLE_RATE)]


def golden_scores(project) -> dict:
    recording = _recording(project)
    scores = {"classify_sample": [list(kv) for kv in project.classify_sample(recording)]}
    for precision in ("float32", "int8"):
        device = VirtualDevice("golden", "nano33ble")
        device.flash(project.deploy("firmware", precision=precision).metadata["image"])
        result = device.classify(recording)
        scores[f"device/{precision}"] = {
            "classification": sorted(result["classification"].items()),
            "features": _digest(device._last_features),
        }
    stream, events = streaming_scene("yes", n_events=3, duration=8.0,
                                     sample_rate=SAMPLE_RATE, snr_db=0.0,
                                     distractor_rate=0.5, seed=1)
    ga = calibration.calibrate
    stream_probs = {}

    def spy(probs, times, *args, **kwargs):
        stream_probs.update(probs=_digest(probs), times=_digest(times))
        return ga(probs, times, *args, **kwargs)

    calibration.calibrate = spy
    try:
        front = project.calibrate(stream, events, "yes", sample_rate=SAMPLE_RATE,
                                  population=8, generations=3, seed=0)
    finally:
        calibration.calibrate = ga
    scores["calibrate"] = dict(stream_probs, front=[
        [asdict(r.config), r.outcome.far_per_hour, r.outcome.frr] for r in front
    ])
    return scores


def record() -> dict:
    return {
        "features": {case: golden_features(case) for case in FEATURE_CASES},
        "scores": json.loads(json.dumps(golden_scores(_project()))),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def project():
    return _project()


def test_every_registered_block_type_has_a_feature_case():
    kinds = {b.block_type for blocks, _, _ in FEATURE_CASES.values() for b in blocks()}
    assert kinds == set(_REGISTRY)


@pytest.mark.parametrize("case", sorted(FEATURE_CASES))
def test_features_match_the_recorded_digests(case, golden):
    assert golden_features(case) == golden["features"][case]


def test_features_of_a_batch_are_each_windows_features():
    """One window at a time or all at once: the same rows."""
    for blocks, shape, seed in FEATURE_CASES.values():
        windows = _windows(shape, seed)
        batch = extract_features(blocks(), windows)
        rows = np.concatenate([extract_features(blocks(), w[None]) for w in windows])
        assert batch.dtype == np.float32
        assert np.array_equal(batch, rows)


def test_classify_device_and_calibrate_match_the_recorded_scores(project, golden):
    assert json.loads(json.dumps(golden_scores(project))) == golden["scores"]


def test_calibrate_refuses_a_stream_at_another_sample_rate(project):
    stream = np.zeros(4 * 16000, np.float32)
    with pytest.raises(ValueError, match=r"16000.*8000"):
        project.calibrate(stream, [(1.0, 1.5)], "yes", sample_rate=16000)


def test_calibrate_refuses_an_image_impulse(project):
    images = Project("image-calibrate")
    images.impulse = Impulse(ImageInput(width=8, height=8),
                             [ImageBlock(width=8, height=8)], ClassificationBlock())
    images.label_map = dict(project.label_map)
    with pytest.raises(ValueError, match="time-series.*ImageInput"):
        images.calibrate(np.zeros(64, np.float32), [], "yes", sample_rate=SAMPLE_RATE)


def test_calibrate_has_no_window_length_knob(project):
    with pytest.raises(TypeError, match="window_s"):
        project.calibrate(np.zeros(SAMPLE_RATE * 2, np.float32), [], "yes",
                          sample_rate=SAMPLE_RATE, window_s=0.5)


def test_calibrate_frames_the_stream_with_the_impulse_window(project, monkeypatch):
    """A stream that is not a whole number of strides long: one window
    per full stride, each ending ``window_samples`` after its start."""
    seen = {}

    def spy(probs, times, *args, **kwargs):
        seen.update(probs=probs, times=times)
        return []

    monkeypatch.setattr(calibration, "calibrate", spy)
    inp = project.impulse.input_block
    stride = SAMPLE_RATE // 4
    stream = np.zeros(int(2.3 * SAMPLE_RATE), np.float32)
    project.calibrate(stream, [], "yes", sample_rate=SAMPLE_RATE, stride_s=0.25)
    n = 1 + (len(stream) - inp.window_samples) // stride
    expected = (np.arange(n) * stride + inp.window_samples) / SAMPLE_RATE
    np.testing.assert_array_equal(seen["times"], expected)
    assert seen["probs"].shape == (n, len(project.label_map))


@pytest.mark.parametrize("stride_s", [0.0, -0.25, 1e-5])
def test_calibrate_refuses_a_stride_under_one_sample(project, stride_s):
    with pytest.raises(ValueError, match="stride_s"):
        project.calibrate(np.zeros(SAMPLE_RATE * 2, np.float32), [], "yes",
                          sample_rate=SAMPLE_RATE, stride_s=stride_s)


def test_calibrate_refuses_a_stream_shorter_than_one_window(project):
    with pytest.raises(ValueError, match="shorter than one window"):
        project.calibrate(np.zeros(SAMPLE_RATE // 2, np.float32), [], "yes",
                          sample_rate=SAMPLE_RATE)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
