"""Project persistence + the CLI driving a full workflow on disk."""

import errno
import io
import json
import os
import threading

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import ClassificationBlock, Impulse, Platform, TimeSeriesInput
from repro.core.project import Project
from repro.core.storage import load_project, save_project
from repro.data.dataset import Sample
from repro.data.synthetic import vibration_dataset
from repro.dsp import SpectralAnalysisBlock
from repro.formats.wav import write_wav
from repro.nn import TrainingConfig


def _trained_project():
    platform = Platform()
    platform.register_user("alice")
    project = platform.create_project("persist", owner="alice")
    for s in vibration_dataset(samples_per_class=14, seed=0):
        project.dataset.add(s, category=s.category)
    project.set_impulse(
        Impulse(
            TimeSeriesInput(window_size_ms=2000, window_increase_ms=2000,
                            frequency_hz=100, axes=3),
            [SpectralAnalysisBlock(sample_rate=100, fft_length=64)],
            ClassificationBlock(
                architecture="mlp", arch_kwargs=dict(hidden=(16,)),
                training=TrainingConfig(epochs=25, batch_size=16,
                                        learning_rate=3e-3, seed=0),
            ),
        )
    )
    project.train(seed=0)
    return project


def test_save_load_roundtrip(tmp_path):
    project = _trained_project()
    baseline = project.test(precision="int8").accuracy
    save_project(project, tmp_path / "proj")

    restored = load_project(tmp_path / "proj")
    assert restored.name == "persist"
    assert len(restored.dataset) == len(project.dataset)
    assert restored.label_map == project.label_map
    assert restored.int8_graph is not None
    # int8 evaluation reproduces exactly from the persisted graph.
    assert restored.test(precision="int8").accuracy == pytest.approx(baseline)
    # float evaluation falls back to the persisted float graph.
    assert restored.test(precision="float32").accuracy > 0.6


def test_save_untrained_project(tmp_path):
    platform = Platform()
    platform.register_user("alice")
    project = platform.create_project("empty", owner="alice")
    save_project(project, tmp_path / "p")
    restored = load_project(tmp_path / "p")
    assert len(restored.dataset) == 0
    assert restored.impulse is None
    assert restored.float_graph is None


def test_categories_survive_roundtrip(tmp_path):
    project = _trained_project()
    save_project(project, tmp_path / "p")
    restored = load_project(tmp_path / "p")
    orig = {s.content_hash(): s.category for s in project.dataset}
    back = {s.content_hash(): s.category for s in restored.dataset}
    assert orig == back


def test_classify_outputs_bit_identical_after_roundtrip(tmp_path):
    """Property-style: a saved+reloaded project's trained f32/int8 graphs
    produce bit-identical outputs for real feature windows and random
    probes alike."""
    from repro.runtime import EONModel

    project = _trained_project()
    save_project(project, tmp_path / "p")
    restored = load_project(tmp_path / "p")
    assert restored.model_revision == project.model_revision

    real_x, _, _ = restored.impulse.features_for_dataset(
        restored.dataset, category="test", label_map=restored.label_map
    )
    for graph, twin in ((project.float_graph, restored.float_graph),
                        (project.int8_graph, restored.int8_graph)):
        shape = tuple(graph.tensors[graph.input_id].shape)
        probes = [np.asarray(real_x, np.float32)]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            probes.append(rng.standard_normal((8,) + shape).astype(np.float32))
        for x in probes:
            a = EONModel(graph).predict_proba(x)
            b = EONModel(twin).predict_proba(x)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


def test_tuner_leaderboard_and_provenance_roundtrip(tmp_path):
    """A reloaded project keeps its tuner leaderboards and knows which
    trial produced its deployed model."""
    from repro.automl import EonTuner, TunerTrial, kws_search_space
    from repro.core.project import Project

    project = Project(name="prov", owner="alice")
    project.set_impulse(
        Impulse(
            TimeSeriesInput(window_size_ms=2000, window_increase_ms=2000,
                            frequency_hz=100, axes=3),
            [SpectralAnalysisBlock(sample_rate=100, fft_length=64)],
            ClassificationBlock(architecture="mlp"),
        )
    )
    tuner = EonTuner(
        np.zeros((4, 200, 3), np.float32), np.array([0, 1, 0, 1]),
        kws_search_space(sample_rate=100),
    )
    tuner.trials.append(TunerTrial(
        dsp_spec={"type": "spectral-analysis", "sample_rate": 100,
                  "fft_length": 64},
        model_spec={"architecture": "mlp", "hidden": [16]},
        dsp_name="spectral(64)", model_name="mlp-16",
        accuracy=0.91, dsp_ms=1.0, nn_ms=2.0, dsp_ram_kb=1.0,
        nn_ram_kb=2.0, flash_kb=30.0, trained=True, meets_constraints=True,
    ))
    tuner.trials.append(TunerTrial(
        dsp_spec={"type": "spectral-analysis", "sample_rate": 100,
                  "fft_length": 32},
        model_spec={"architecture": "mlp", "hidden": [8]},
        dsp_name="spectral(32)", model_name="mlp-8",
        accuracy=0.84, dsp_ms=0.5, nn_ms=1.0, dsp_ram_kb=0.5,
        nn_ram_kb=1.0, flash_kb=20.0, trained=True, meets_constraints=True,
    ))
    project.tuners[7] = tuner
    project.apply_tuner_result(7, rank=1)
    assert project.applied_trial["job_id"] == 7
    assert project.applied_trial["model"] == "mlp-16"

    save_project(project, tmp_path / "p")
    restored = load_project(tmp_path / "p")
    assert restored.applied_trial == project.applied_trial
    assert restored.saved_leaderboards == {7: tuner.leaderboard()}
    assert restored.leaderboards() == {7: tuner.leaderboard()}
    assert restored.saved_leaderboards[7][0]["accuracy"] == pytest.approx(0.91)

    # Provenance survives a second hop even with no live tuner objects.
    save_project(restored, tmp_path / "p2")
    again = load_project(tmp_path / "p2")
    assert again.leaderboards() == {7: tuner.leaderboard()}
    assert again.applied_trial["rank"] == 1


def test_project_without_tuner_history_saves_no_tuners_json(tmp_path):
    from repro.core.project import Project

    project = Project(name="plain", owner="a")
    save_project(project, tmp_path / "p")
    assert not (tmp_path / "p" / "tuners.json").exists()
    assert load_project(tmp_path / "p").leaderboards() == {}


# -- CLI -------------------------------------------------------------------


def _wav_file(path, freq, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(2000) / 2000
    audio = (np.sin(2 * np.pi * freq * t) + 0.1 * rng.standard_normal(2000)) * 0.5
    with open(path, "wb") as fh:
        write_wav(fh, audio.astype(np.float32), 2000)


def test_cli_full_workflow(tmp_path, capsys):
    proj = str(tmp_path / "proj")
    assert cli_main(["create", "--dir", proj, "--name", "cli-kws"]) == 0

    # Ingest two tone classes.
    for label, freq in (("low", 200.0), ("high", 800.0)):
        files = []
        for i in range(12):
            path = tmp_path / f"{label}{i}.wav"
            _wav_file(path, freq, seed=i)
            files.append(str(path))
        assert cli_main(["ingest", "--dir", proj, "--label", label] + files) == 0

    spec = {
        "input": {"type": "time-series", "window_size_ms": 1000,
                  "window_increase_ms": 1000, "frequency_hz": 2000, "axes": 1},
        "dsp": [{"type": "mfe", "config": {"sample_rate": 2000, "n_filters": 16}}],
        "learn": {"type": "classification", "architecture": "conv1d_stack",
                  "arch_kwargs": {"n_layers": 2, "first_filters": 8,
                                  "last_filters": 16},
                  "training": {"epochs": 25, "batch_size": 8,
                               "learning_rate": 3e-3, "seed": 0}},
    }
    spec_path = tmp_path / "impulse.json"
    spec_path.write_text(json.dumps(spec))
    assert cli_main(["set-impulse", "--dir", proj, "--spec", str(spec_path)]) == 0

    assert cli_main(["train", "--dir", proj, "--seed", "0"]) == 0
    assert cli_main(["summary", "--dir", proj]) == 0
    assert cli_main(["test", "--dir", proj, "--precision", "int8"]) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out

    # Serve classification for a fresh recording via the serving layer.
    clip = tmp_path / "query.wav"
    _wav_file(clip, 800.0, seed=99)
    shard_threads = lambda: {t for t in threading.enumerate()
                             if t.name.startswith("serve-")}
    before = shard_threads()
    assert cli_main(["classify", "--dir", proj, "--precision", "int8",
                     str(clip)]) == 0
    out = capsys.readouterr().out
    assert "high (" in out  # an 800 Hz tone classifies as the 'high' class
    assert "batch(es)" in out
    # The command closes the server it opened: no shard thread outlives it.
    assert shard_threads() <= before

    # Same recording through the multi-worker sharded serving tier.
    clip2 = tmp_path / "query2.wav"
    _wav_file(clip2, 200.0, seed=98)
    assert cli_main(["serve", "--dir", proj, "--workers", "4",
                     str(clip), str(clip2)]) == 0
    out = capsys.readouterr().out
    assert "worker shard(s)" in out
    assert "high (" in out and "low (" in out

    # Replay traffic with drift injection through the monitored serving
    # layer: the drifted phase must raise drift alerts.
    assert cli_main(["monitor", "--dir", proj, "--windows", "8"]) == 0
    assert shard_threads() <= before
    out = capsys.readouterr().out
    assert "reference pinned" in out
    assert "monitor status: drift" in out
    assert "TRIGGERED" in out and "ALERT" in out

    # And with --auto-retrain the closed loop routes the drifted raw
    # recordings back into the dataset, retrains, and saves the new
    # model revision back into the project directory.
    before = len(load_project(proj).dataset)
    assert cli_main(["monitor", "--dir", proj, "--windows", "8",
                     "--auto-retrain"]) == 0
    out = capsys.readouterr().out
    assert "closed loop complete" in out
    assert "8 drift-window sample(s) to route back" in out
    reloaded = load_project(proj)
    assert reloaded.model_revision == 2
    assert len(reloaded.dataset) > before

    assert cli_main(["profile", "--dir", proj, "--device", "rp2040"]) == 0
    out_dir = tmp_path / "build"
    assert cli_main(["deploy", "--dir", proj, "--target", "wasm",
                     "--out", str(out_dir)]) == 0
    assert (out_dir / "model.bin").exists()
    assert (out_dir / "edge-impulse-standalone.wat").exists()


def _printed_versions(out: str) -> dict:
    """The ``  dev-i: <version>`` lines ``fleet-rollout`` ends with."""
    return dict(line.strip().split(": ", 1) for line in out.splitlines()
                if line.startswith("  dev-"))


def test_cli_fleet_rollout_ships_the_project_model_version(tmp_path, capsys):
    project = _trained_project()
    save_project(project, tmp_path / "p")
    version = f"1.0.{project.model_revision}"
    capsys.readouterr()
    assert cli_main(["fleet-rollout", "--dir", str(tmp_path / "p"),
                     "--devices", "4"]) == 0
    out = capsys.readouterr().out
    assert "rollout succeeded: 4 updated" in out
    assert _printed_versions(out) == {f"dev-{i}": version for i in range(4)}

    # A failed canary over a zero threshold aborts before the fleet-wide
    # stage: the canary rolls back to unflashed, the rest is never touched.
    assert cli_main(["fleet-rollout", "--dir", str(tmp_path / "p"),
                     "--devices", "4", "--canary", "0.25", "--threshold",
                     "0", "--inject-failures", "dev-0"]) == 1
    out = capsys.readouterr().out
    assert "[ABORTED at canary]" in out
    assert _printed_versions(out) == {f"dev-{i}": "unflashed"
                                      for i in range(4)}


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli_main(["frobnicate"])


def test_cli_profile_rejects_unknown_precision(tmp_path, capsys):
    """An unknown precision is refused before the project loads, rather
    than profiled as float32 under the unknown label."""
    with pytest.raises(SystemExit):
        cli_main(["profile", "--dir", str(tmp_path), "--precision", "int4"])
    assert "invalid choice: 'int4'" in capsys.readouterr().err


def test_resave_removes_stale_files(tmp_path):
    """Re-saving a project over a previous save must not leave stale
    files behind: a dropped impulse, a cleared model, or a stray .eir
    would otherwise resurrect on the next load."""
    project = _trained_project()
    target = tmp_path / "proj"
    save_project(project, target)
    assert (target / "impulse.json").exists()
    assert (target / "models" / "int8.eir").exists()
    # Something else littered the models dir between saves.
    (target / "models" / "old-revision.eir").write_bytes(b"stale")

    project.impulse = None
    project.float_graph = None
    project.int8_graph = None
    save_project(project, target)

    assert not (target / "impulse.json").exists()
    assert not (target / "models" / "float.eir").exists()
    assert not (target / "models" / "int8.eir").exists()
    assert not (target / "models" / "old-revision.eir").exists()
    restored = load_project(target)
    assert restored.impulse is None
    assert restored.float_graph is None and restored.int8_graph is None


# -- the per-sample dataset layout (PR 22) -----------------------------------


def _small_project(n=4):
    project = Project("layout", owner="alice")
    rng = np.random.default_rng(5)
    for i in range(n):
        project.dataset.add(Sample(
            data=rng.standard_normal((6, 2)).astype(np.float32),
            label=f"c{i % 2}", sensor="accel", interval_ms=10.0,
            metadata={"i": i},
        ))
    return project


def _dataset_state(project):
    return [(s.sample_id, s.label, s.category, s.sensor, s.interval_ms,
             s.metadata, s.content_hash()) for s in project.dataset]


def test_dataset_is_one_content_addressed_file_per_sample(tmp_path):
    project = _small_project()
    save_project(project, tmp_path / "proj")
    names = sorted(p.name for p in (tmp_path / "proj" / "dataset").iterdir())
    assert names == sorted(
        [f"{s.content_hash()}.npy" for s in project.dataset] + ["samples.json"]
    )
    first = next(iter(project.dataset))
    on_disk = np.load(tmp_path / "proj" / "dataset"
                      / f"{first.content_hash()}.npy")
    assert on_disk.dtype == np.float32
    assert np.array_equal(on_disk, first.data)
    assert _dataset_state(load_project(tmp_path / "proj")) \
        == _dataset_state(project)


def test_load_hashes_each_sample_once(tmp_path, sample_digest_calls):
    """The digest that verifies a file against its name is the one the
    dataset then dedups on: recovery hashes once per sample too."""
    save_project(_small_project(6), tmp_path / "proj")
    del sample_digest_calls[:]
    restored = load_project(tmp_path / "proj")
    assert len(restored.dataset) == 6 and len(sample_digest_calls) == 6


def test_hostile_sample_file_bytes_raise_one_clear_error(tmp_path):
    """Every strict prefix and every single-bit flip of a sample file:
    load raises ValueError naming the file, or (a flip that decodes to
    the same array, e.g. '<f4' -> '=f4' in the header) loads exactly the
    original — never wrong data, never another exception type."""
    project = _small_project(1)
    save_project(project, tmp_path / "proj")
    sample = next(iter(project.dataset))
    target = tmp_path / "proj" / "dataset" / f"{sample.content_hash()}.npy"
    good = target.read_bytes()
    expected = _dataset_state(project)

    def check(blob):
        # A new file each time: rewriting one in place truncates it, and
        # a truncating rewrite can flush to disk on close (ext4's
        # auto_da_alloc), which made this sweep take minutes.
        target.unlink()
        target.write_bytes(blob)
        try:
            restored = load_project(tmp_path / "proj")
        except ValueError as exc:
            assert target.name in str(exc)
            return False
        assert _dataset_state(restored) == expected
        return True

    assert check(good)
    for cut in range(len(good)):
        assert not check(good[:cut]), f"prefix of {cut} bytes loaded"
    assert not check(good + b"\x00")  # padded
    tolerated = 0
    for i in range(len(good)):
        for bit in range(8):
            flipped = bytearray(good)
            flipped[i] ^= 1 << bit
            tolerated += check(bytes(flipped))
    # A payload flip can never be tolerated: the digest covers it.
    assert tolerated <= 8  # 3 with numpy 2.4, all in the 128-byte header


def test_pickled_misnamed_or_escaping_sample_files_are_rejected(tmp_path):
    project = _small_project(2)
    save_project(project, tmp_path / "proj")
    dataset_dir = tmp_path / "proj" / "dataset"
    a, b = [dataset_dir / f"{s.content_hash()}.npy" for s in project.dataset]
    good_a, good_b = a.read_bytes(), b.read_bytes()

    # An object array: rejected on its dtype, before anything unpickles.
    with open(a, "wb") as fh:
        np.save(fh, np.array([{"boom": 1}], dtype=object), allow_pickle=True)
    with pytest.raises(ValueError, match=a.name):
        load_project(tmp_path / "proj")
    # float64 content under a sample's name.
    with open(a, "wb") as fh:
        np.save(fh, np.zeros((6, 2), dtype=np.float64))
    with pytest.raises(ValueError, match="expected C-order float32"):
        load_project(tmp_path / "proj")
    # Two valid files under each other's names.
    a.write_bytes(good_b)
    b.write_bytes(good_a)
    with pytest.raises(ValueError, match="does not hash to its name"):
        load_project(tmp_path / "proj")
    a.write_bytes(good_a)
    b.write_bytes(good_b)
    # A missing file.
    a.unlink()
    with pytest.raises(ValueError, match=a.name):
        load_project(tmp_path / "proj")
    a.write_bytes(good_a)
    load_project(tmp_path / "proj")
    # samples.json naming something that is not a digest.
    sidecar = dataset_dir / "samples.json"
    entries = json.loads(sidecar.read_text())
    entries[0]["digest"] = "../../outside"
    sidecar.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match="not a sample digest"):
        load_project(tmp_path / "proj")


def test_tree_with_the_old_single_archive_still_loads(tmp_path):
    """A tree as f7a5cf1 wrote it (dataset/samples.npz keyed s<i>) is
    read; the next save rewrites it in the one current format."""
    project = _small_project(3)
    save_project(project, tmp_path / "proj")
    dataset_dir = tmp_path / "proj" / "dataset"
    entries = json.loads((dataset_dir / "samples.json").read_text())
    arrays = {}
    for i, (entry, sample) in enumerate(zip(entries, project.dataset)):
        (dataset_dir / f"{entry.pop('digest')}.npy").unlink()
        entry["key"] = f"s{i}"
        arrays[f"s{i}"] = sample.data
    np.savez_compressed(dataset_dir / "samples.npz", **arrays)
    (dataset_dir / "samples.json").write_text(json.dumps(entries))

    restored = load_project(tmp_path / "proj")
    assert _dataset_state(restored) == _dataset_state(project)
    save_project(restored, tmp_path / "proj")
    assert not (dataset_dir / "samples.npz").exists()
    assert _dataset_state(load_project(tmp_path / "proj")) \
        == _dataset_state(project)


def test_resave_drops_unreferenced_samples_and_rewrites_none(tmp_path):
    project = _small_project(4)
    target = tmp_path / "proj"
    save_project(project, target)
    dataset_dir = target / "dataset"
    # Another tree shares these inodes, as a superseded checkpoint does.
    other = tmp_path / "other"
    other.mkdir()
    for f in dataset_dir.glob("*.npy"):
        os.link(f, other / f.name)
    shared = {f.name: f.read_bytes() for f in other.iterdir()}
    before = {f.name: (f.stat().st_ino, f.stat().st_mtime_ns)
              for f in dataset_dir.glob("*.npy")}
    (dataset_dir / "interrupted.partial").write_bytes(b"torn")

    removed, relabelled, *_ = [s.sample_id for s in project.dataset]
    gone = {project.dataset.get(removed).content_hash(),
            project.dataset.get(relabelled).content_hash()}
    project.dataset.remove(removed)
    project.dataset.relabel(relabelled, "renamed")
    save_project(project, target)

    after = {f.name: (f.stat().st_ino, f.stat().st_mtime_ns)
             for f in dataset_dir.glob("*.npy")}
    assert sorted(after) == sorted(
        f"{s.content_hash()}.npy" for s in project.dataset)
    assert not any(f"{digest}.npy" in after for digest in gone)
    assert not (dataset_dir / "interrupted.partial").exists()
    # Kept samples were not touched at all; the other tree's bytes (even
    # of the two this tree dropped) are what they were.
    assert all(after[name] == before[name] for name in after if name in before)
    assert {f.name: f.read_bytes() for f in other.iterdir()} == shared
    assert _dataset_state(load_project(target)) == _dataset_state(project)


def test_link_from_shares_inodes_and_falls_back_to_writing(tmp_path,
                                                          monkeypatch):
    project = _small_project(5)
    save_project(project, tmp_path / "t1")
    save_project(project, tmp_path / "t2", link_from=tmp_path / "t1")

    def inodes(tree):
        return {f.name: f.stat().st_ino
                for f in (tmp_path / tree / "dataset").glob("*.npy")}

    def content(tree):
        return {str(f.relative_to(tmp_path / tree)): f.read_bytes()
                for f in sorted((tmp_path / tree).rglob("*")) if f.is_file()}

    assert inodes("t2") == inodes("t1") and len(inodes("t2")) == 5

    def no_links(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(os, "link", no_links)
    save_project(project, tmp_path / "t3", link_from=tmp_path / "t1")
    assert not set(inodes("t3").values()) & set(inodes("t1").values())
    assert content("t3") == content("t2") == content("t1")
    # A link_from tree that lacks a sample (or is gone) is not an error.
    monkeypatch.undo()
    save_project(project, tmp_path / "t4", link_from=tmp_path / "missing")
    assert content("t4") == content("t1")
