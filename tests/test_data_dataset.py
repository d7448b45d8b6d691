"""Dataset: dedup, deterministic splits, distribution, mutation."""

import copy

import numpy as np
import pytest

from repro.data.dataset import Dataset, Sample
from repro.data.versioning import DatasetVersionStore


def _sample(value, label="a"):
    return Sample(data=np.full(10, float(value), dtype=np.float32), label=label)


def test_add_and_len():
    ds = Dataset()
    for i in range(5):
        ds.add(_sample(i))
    assert len(ds) == 5


def test_content_dedup():
    ds = Dataset()
    first = ds.add(_sample(1))
    second = ds.add(_sample(1))
    assert first == second
    assert len(ds) == 1


def test_same_data_different_label_not_duplicate():
    ds = Dataset()
    ds.add(_sample(1, "a"))
    ds.add(_sample(1, "b"))
    assert len(ds) == 2


def test_deterministic_split():
    """The hash split must be identical across independent ingestions."""
    a, b = Dataset(), Dataset()
    for i in range(50):
        a.add(_sample(i))
    for i in reversed(range(50)):
        b.add(_sample(i))
    cat_a = {s.content_hash(): s.category for s in a}
    cat_b = {s.content_hash(): s.category for s in b}
    assert cat_a == cat_b


def test_split_ratio_near_80_20():
    ds = Dataset()
    for i in range(300):
        ds.add(_sample(i))
    assert 0.7 < ds.split_ratio() < 0.9


def test_explicit_category_respected():
    ds = Dataset()
    sid = ds.add(_sample(1), category="test")
    assert ds.get(sid).category == "test"


def test_remove_and_relabel():
    ds = Dataset()
    sid = ds.add(_sample(1, "old"))
    ds.relabel(sid, "new")
    assert ds.get(sid).label == "new"
    ds.remove(sid)
    assert len(ds) == 0
    with pytest.raises(KeyError):
        ds.remove(sid)


def test_move_category_validation():
    ds = Dataset()
    sid = ds.add(_sample(1))
    ds.move_to_category(sid, "test")
    assert ds.get(sid).category == "test"
    with pytest.raises(ValueError):
        ds.move_to_category(sid, "validation")


def test_class_distribution_and_summary():
    ds = Dataset()
    for i in range(6):
        ds.add(_sample(i, "x"), category="train")
    for i in range(6, 8):
        ds.add(_sample(i, "y"), category="test")
    dist = ds.class_distribution()
    assert dist["x"]["train"] == 6
    assert dist["y"]["test"] == 2
    assert "x" in ds.summary()


def test_arrays_with_label_map():
    ds = Dataset()
    ds.add(_sample(1, "b"), category="train")
    ds.add(_sample(2, "a"), category="train")
    x, y, label_map = ds.arrays(category="train")
    assert x.shape == (2, 10)
    assert label_map == {"a": 0, "b": 1}
    assert set(y.tolist()) == {0, 1}


def test_filter_by_label():
    ds = Dataset()
    ds.add(_sample(1, "a"))
    ds.add(_sample(2, "b"))
    assert len(ds.samples(label="a")) == 1


def test_sample_duration():
    s = Sample(data=np.zeros((100, 3)), label="x", interval_ms=10.0)
    assert s.duration_ms == 1000.0


# -- the digest index (PR 22) ------------------------------------------------


def test_remove_then_readd_is_accepted():
    ds = Dataset()
    sid = ds.add(_sample(1))
    ds.remove(sid)
    assert ds.add(_sample(1)) == sid
    assert len(ds) == 1
    assert ds.add(_sample(1)) == sid  # and deduplicated again afterwards
    assert len(ds) == 1


def test_relabel_moves_the_index_entry():
    ds = Dataset()
    sid = ds.add(_sample(1, "old"))
    ds.relabel(sid, "new")
    # The new label + data is what the dataset holds now ...
    assert ds.add(_sample(1, "new")) == sid
    assert len(ds) == 1
    # ... and the old label + data is a new sample again, stored beside
    # the relabelled one (whose id is the old content's prefix).
    other = ds.add(_sample(1, "old"))
    assert other != sid and other.startswith(sid)
    assert len(ds) == 2
    assert ds.get(sid).label == "new" and ds.get(other).label == "old"


def test_relabel_into_a_duplicate_is_refused():
    ds = Dataset()
    a = ds.add(_sample(1, "a"))
    b = ds.add(_sample(1, "b"))
    with pytest.raises(ValueError, match="already holds this data"):
        ds.relabel(a, "b")
    assert ds.get(a).label == "a"
    assert ds.add(_sample(1, "a")) == a and ds.add(_sample(1, "b")) == b
    ds.relabel(a, "a")  # relabelling to the same label is a no-op
    assert len(ds) == 2


def test_a_held_sample_changes_only_through_its_dataset():
    """The duplicate index is keyed by the digest of label + data: a
    direct assignment on a held sample would leave it stale, so it is
    refused and the dataset stays whole."""
    ds = Dataset()
    sid = ds.add(_sample(1, "a"))
    held = ds.get(sid)
    with pytest.raises(AttributeError, match="Dataset.relabel"):
        held.label = "b"
    with pytest.raises(AttributeError, match="remove and re-add"):
        held.data = np.full(10, 2.0)
    assert held.label == "a" and held.data[0] == 1.0
    assert ds.add(_sample(1, "a")) == sid  # still deduplicated
    assert ds.add(_sample(1, "b")) != sid  # nothing half-applied
    # A refused relabel leaves the sample held; a successful one too.
    with pytest.raises(ValueError, match="already holds this data"):
        ds.relabel(sid, "b")
    ds.relabel(sid, "c")
    with pytest.raises(AttributeError):
        held.label = "d"
    # Once removed it is the caller's again, and goes back in as edited.
    ds.remove(sid)
    held.label = "e"
    assert ds.add(held) == sid and ds.get(sid).label == "e"
    assert ds.add(_sample(1, "e")) == sid
    assert ds.add(_sample(1, "c")) != sid
    # A version snapshot's clones are held too (they back a checkout).
    clone = copy.deepcopy(held)
    with pytest.raises(AttributeError):
        clone.label = "f"


def _golden_dataset():
    rng = np.random.default_rng(22)
    ds = Dataset("golden")
    shapes = [(64,), (32, 3), (8, 8, 3), (64,), (16, 2), (64,), (5,), (40, 1)]
    for i, shape in enumerate(shapes):
        data = rng.standard_normal(shape).astype(np.float32)
        ds.add(Sample(data=data, label=f"class{i % 3}"))
    return ds


def test_ids_split_and_version_match_values_recorded_before_the_index():
    """Recorded at f7a5cf1 (the commit before the memo and the index):
    digests, and so sample ids, the 80/20 split and dataset version ids,
    must not move."""
    ds = _golden_dataset()
    assert [s.sample_id for s in ds] == [
        "2ff4afbedf05399d", "66feeeb1f126c0bd", "3b69990d5f1eb2ac",
        "af0bc92053ae4f49", "3e0f273b2f85ea42", "df7a7a280e007ea3",
        "655255d305cc2949", "25a6ae70b3474060",
    ]
    assert [s.category for s in ds] == [
        "train", "train", "test", "train", "test", "train", "train", "train",
    ]
    assert ds.get("3b69990d5f1eb2ac").content_hash() == (
        "3b69990d5f1eb2ac5a26367a28a0fe007a48a7f4f2376860cc7ccdb2e8c2bb9b"
    )
    assert DatasetVersionStore._version_of(ds) == "beaa25415f71f1bb"


def test_ingesting_100_samples_hashes_100_times(sample_digest_calls):
    """The quadratic must not come back: one SHA-256 per uploaded
    sample (5,150 at f7a5cf1, which re-hashed the set on every add)."""
    ds = Dataset()
    for i in range(100):
        ds.add(_sample(i))
    assert len(ds) == 100
    assert len(sample_digest_calls) == 100
    for i in range(100):  # re-uploads hash the upload, not the set
        ds.add(_sample(i))
    assert len(sample_digest_calls) == 200 and len(ds) == 100


def test_sample_data_is_a_private_read_only_copy():
    source = np.arange(6, dtype=np.float32).reshape(3, 2)
    sample = Sample(data=source, label="a")
    digest = sample.content_hash()
    source[0, 0] = 99.0  # the caller's array is not the sample's
    assert sample.data[0, 0] == 0.0 and sample.content_hash() == digest
    with pytest.raises(ValueError, match="read-only"):
        sample.data[0, 0] = 1.0
    # A Fortran-ordered upload is stored (and hashed) in C order.
    assert Sample(data=np.asfortranarray(sample.data), label="a") \
        .content_hash() == digest


def test_assigning_data_or_label_drops_the_digest_memo():
    sample = _sample(1, "a")
    before = sample.content_hash()
    sample.label = "b"
    assert sample.content_hash() == _sample(1, "b").content_hash() != before
    sample.data = np.full(10, 2.0)
    assert sample.content_hash() == _sample(2, "b").content_hash()
    assert sample.data.dtype == np.float32 and not sample.data.flags.writeable
    # A deep copy shares the immutable array and stays guarded.
    clone = copy.deepcopy(sample)
    assert clone.data is sample.data and clone.metadata is not sample.metadata
    clone.label = "c"
    assert sample.label == "b"
    assert clone.content_hash() == _sample(2, "c").content_hash()
