"""Project lifecycle: train/test/profile/deploy, versions, sharing."""

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, Platform, TimeSeriesInput
from repro.data.dataset import Sample
from repro.dsp import RawBlock, SpectralAnalysisBlock
from repro.nn import TrainingConfig


def _vibration_project(platform, name="proj", epochs=30):
    """A fast-training project over spectral features."""
    from repro.data.synthetic import vibration_dataset

    project = platform.create_project(name, owner="alice")
    for sample in vibration_dataset(samples_per_class=18, seed=0):
        project.dataset.add(sample, category=sample.category)
    project.set_impulse(
        Impulse(
            TimeSeriesInput(window_size_ms=2000, window_increase_ms=2000,
                            frequency_hz=100, axes=3),
            [SpectralAnalysisBlock(sample_rate=100, fft_length=64)],
            ClassificationBlock(
                architecture="mlp", arch_kwargs=dict(hidden=(24,)),
                training=TrainingConfig(epochs=epochs, batch_size=16,
                                        learning_rate=3e-3, seed=0),
            ),
        )
    )
    return project


@pytest.fixture(scope="module")
def trained_project():
    platform = Platform()
    platform.register_user("alice")
    project = _vibration_project(platform)
    project.train(seed=0)
    return platform, project


def test_train_produces_graphs(trained_project):
    _, project = trained_project
    assert project.float_graph is not None
    assert project.int8_graph is not None
    assert project.int8_graph.dtype == "int8"
    job = project.jobs.jobs[1]
    assert job.status == "succeeded"


def test_holdout_evaluation(trained_project):
    _, project = trained_project
    report = project.test()
    assert report.accuracy > 0.7
    assert report.matrix.sum() == len(project.dataset.samples(category="test"))
    report8 = project.test(precision="int8")
    assert report8.accuracy > 0.6


def test_classify_sample(trained_project):
    _, project = trained_project
    sample = project.dataset.samples(category="test")[0]
    ranked = project.classify_sample(sample.data)
    assert ranked[0][1] >= ranked[-1][1]
    assert abs(sum(p for _, p in ranked) - 1.0) < 1e-3


def test_profile_targets(trained_project):
    _, project = trained_project
    for device in ("nano33ble", "rp2040"):
        result = project.profile(device, precision="int8", engine="eon")
        assert result["total_ms"] > 0
        assert result["fits"]
    eon = project.profile("nano33ble", "int8", "eon")
    tflm = project.profile("nano33ble", "int8", "tflm")
    assert eon["ram_kb"] < tflm["ram_kb"]


def test_deploy_targets(trained_project):
    _, project = trained_project
    for target in ("cpp", "arduino", "eim", "firmware"):
        artifact = project.deploy(target=target, engine="eon", precision="int8")
        assert artifact.total_bytes() > 0
        assert artifact.manifest()["target"] == target


def test_untrained_project_guards():
    platform = Platform()
    platform.register_user("alice")
    project = _vibration_project(platform, name="fresh")
    with pytest.raises(RuntimeError):
        project.test()
    with pytest.raises(RuntimeError):
        project.profile("nano33ble")
    with pytest.raises(RuntimeError):
        project.deploy()


def test_train_without_impulse():
    platform = Platform()
    platform.register_user("alice")
    project = platform.create_project("empty", owner="alice")
    with pytest.raises(RuntimeError):
        project.train()


def test_version_commit_restore():
    platform = Platform()
    platform.register_user("alice")
    project = _vibration_project(platform, name="versioned", epochs=2)
    v1 = project.commit_version("baseline")
    n_before = len(project.dataset)
    extra = Sample(data=np.zeros((200, 3), dtype=np.float32), label="junk")
    project.dataset.add(extra)
    assert len(project.dataset) == n_before + 1
    project.restore_version(v1.version_id)
    assert len(project.dataset) == n_before
    assert project.impulse is not None


@pytest.mark.parametrize("version_id", [0, -1, 3])
def test_restore_version_rejects_unknown_ids(version_id):
    platform = Platform()
    platform.register_user("alice")
    project = _vibration_project(platform, name="versions", epochs=2)
    project.commit_version("one")
    project.commit_version("two")
    with pytest.raises(KeyError, match=r"valid ids are 1\.\.2"):
        project.restore_version(version_id)


def test_collaboration_and_permissions():
    platform = Platform()
    platform.register_user("alice")
    platform.register_user("bob")
    project = platform.create_project("private", owner="alice")
    with pytest.raises(PermissionError):
        project.require_member("bob")
    project.add_collaborator("bob")
    project.require_member("bob")  # no raise


def test_public_clone():
    platform = Platform()
    platform.register_user("alice")
    platform.register_user("mallory")
    project = _vibration_project(platform, name="shared", epochs=2)
    with pytest.raises(PermissionError):
        platform.clone_project(project.project_id, "mallory")
    project.make_public(tags=["vibration"])
    clone = platform.clone_project(project.project_id, "mallory")
    assert clone.owner == "mallory"
    assert len(clone.dataset) == len(project.dataset)
    assert clone.impulse is not None
    found = platform.public_projects(query="shared")
    assert project in found


def test_platform_stats():
    platform = Platform()
    platform.register_user("a")
    platform.create_organization("org", owner="a")
    platform.create_project("p", owner="a", organization="org")
    stats = platform.stats()
    assert stats == {"users": 1, "projects": 1, "public_projects": 0,
                     "organizations": 1}


def test_org_members_become_collaborators():
    platform = Platform()
    platform.register_user("a")
    platform.register_user("b")
    platform.create_organization("team", owner="a")
    platform.join_organization("team", "b")
    project = platform.create_project("teamproj", owner="a", organization="team")
    project.require_member("b")
