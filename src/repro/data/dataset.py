"""Samples and datasets.

A :class:`Dataset` is the project-local data store: labelled sensor windows
with metadata, split into train/test by a deterministic content hash so the
split survives re-ingestion and collaboration (paper Sec. 2.4's data
consistency challenge).
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Sample:
    """One labelled sensor recording.

    ``data`` is a private, read-only float32 copy of what the caller
    passed, so the content digest can be computed once and kept: the
    only ways to change what it covers are assigning ``data`` or
    ``label``, and both drop the memo.  While a :class:`Dataset` holds
    the sample, both assignments are refused — its duplicate index is
    keyed by that digest, so content changes go through the dataset.
    """

    data: np.ndarray
    label: str
    sample_id: str = ""
    category: str = "train"  # train | test
    sensor: str = "unknown"
    interval_ms: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.sample_id:
            self.sample_id = self.content_hash()[:16]

    def __setattr__(self, name, value):
        if name == "data":
            value = np.array(value, dtype=np.float32, order="C")  # a copy
            value.setflags(write=False)
        if name in ("data", "label"):
            if self.__dict__.get("_owned"):
                raise AttributeError(
                    f"sample {self.sample_id!r} is held by a dataset: change "
                    f"its {name} with Dataset.relabel, or remove and re-add"
                )
            object.__setattr__(self, "_digest", None)
        object.__setattr__(self, name, value)

    def __deepcopy__(self, memo):
        # The array is immutable, so a clone shares it (and the digest
        # memo); a default deep copy would hand back a writable array
        # next to a memo that no longer guards it.
        clone = copy.copy(self)
        clone.metadata = copy.deepcopy(self.metadata, memo)
        return clone

    def content_hash(self) -> str:
        """SHA-256 over label, shape and bytes; computed once."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(self.label.encode("utf-8"))
            h.update(str(self.data.shape).encode())
            h.update(self.data.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    @property
    def duration_ms(self) -> float:
        return float(self.data.shape[0] * self.interval_ms)


def ordered_labels(label_map: dict[str, int]) -> list[str]:
    """The labels of ``label_map`` (label -> class index) in class-index
    order: the order of a classifier's output columns."""
    return sorted(label_map, key=label_map.__getitem__)


class Dataset:
    """An ordered, deduplicated collection of samples."""

    def __init__(self, name: str = "dataset"):
        self.name = name
        self._samples: dict[str, Sample] = {}
        # Content digest -> sample id, one entry per sample: what makes
        # the duplicate check a lookup instead of a re-hash of the set.
        self._by_digest: dict[str, str] = {}

    # -- mutation ----------------------------------------------------------

    def add(self, sample: Sample, category: str | None = None) -> str:
        """Add a sample; duplicate content is rejected (returns existing id).

        When ``category`` is None the sample is assigned train/test by
        content hash at the conventional 80/20 ratio — deterministic across
        runs and machines.
        """
        content = sample.content_hash()
        existing = self._by_digest.get(content)
        if existing is not None:
            return existing
        if category is not None:
            sample.category = category
        else:
            sample.category = "test" if int(content[:8], 16) % 5 == 0 else "train"
        if sample.sample_id in self._samples:
            # A relabelled sample keeps the id of its old content, so the
            # 16-digit prefix can be taken too: lengthen it until free.
            sample.sample_id = next(
                content[:n] for n in range(16, len(content) + 1)
                if content[:n] not in self._samples
            )
        self._samples[sample.sample_id] = sample
        self._by_digest[content] = sample.sample_id
        sample._owned = True
        return sample.sample_id

    def remove(self, sample_id: str) -> None:
        if sample_id not in self._samples:
            raise KeyError(f"no sample {sample_id!r}")
        sample = self._samples.pop(sample_id)
        del self._by_digest[sample.content_hash()]
        sample._owned = False

    def relabel(self, sample_id: str, label: str) -> None:
        """Change a sample's label; refused when the same data already
        exists under ``label`` (the collection stays deduplicated)."""
        sample = self._samples[sample_id]
        old_label, old_digest = sample.label, sample.content_hash()
        sample._owned = False
        try:
            sample.label = label
            twin = self._by_digest.get(sample.content_hash(), sample_id)
            if twin != sample_id:
                sample.label = old_label
                raise ValueError(
                    f"sample {twin!r} already holds this data as {label!r}"
                )
        finally:
            sample._owned = True
        del self._by_digest[old_digest]
        self._by_digest[sample.content_hash()] = sample_id

    def move_to_category(self, sample_id: str, category: str) -> None:
        if category not in ("train", "test"):
            raise ValueError("category must be 'train' or 'test'")
        self._samples[sample_id].category = category

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples.values())

    def get(self, sample_id: str) -> Sample:
        return self._samples[sample_id]

    @property
    def labels(self) -> list[str]:
        return sorted({s.label for s in self._samples.values()})

    def samples(self, category: str | None = None, label: str | None = None) -> list[Sample]:
        out = []
        for s in self._samples.values():
            if category is not None and s.category != category:
                continue
            if label is not None and s.label != label:
                continue
            out.append(s)
        return out

    def arrays(
        self, category: str | None = None, label_map: dict[str, int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
        """Stack samples into ``(X, y_int, label_map)`` for training."""
        if label_map is None:
            label_map = {lbl: i for i, lbl in enumerate(self.labels)}
        chosen = self.samples(category=category)
        if not chosen:
            return np.zeros((0,)), np.zeros((0,), dtype=np.int64), label_map
        x = np.stack([s.data for s in chosen]).astype(np.float32)
        y = np.array([label_map[s.label] for s in chosen], dtype=np.int64)
        return x, y, label_map

    # -- reporting ------------------------------------------------------------

    def class_distribution(self) -> dict[str, dict[str, int]]:
        """Per-label train/test counts — the GUI's split/balance view."""
        dist: dict[str, dict[str, int]] = {}
        for s in self._samples.values():
            bucket = dist.setdefault(s.label, {"train": 0, "test": 0})
            bucket[s.category] += 1
        return dist

    def split_ratio(self) -> float:
        """Fraction of samples in the training split."""
        if not self._samples:
            return 0.0
        n_train = sum(1 for s in self._samples.values() if s.category == "train")
        return n_train / len(self._samples)

    def summary(self) -> str:
        dist = self.class_distribution()
        lines = [f"dataset {self.name}: {len(self)} samples, {len(dist)} classes"]
        for label in sorted(dist):
            d = dist[label]
            lines.append(f"  {label:<16} train={d['train']:<5} test={d['test']}")
        return "\n".join(lines)
