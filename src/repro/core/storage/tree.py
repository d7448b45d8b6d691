"""Project persistence: save/load a project as a directory tree.

The hosted platform stores projects server-side; the CLI-driven offline
equivalent is a directory containing the project manifest, the impulse
spec, the dataset and the trained graphs — everything needed to resume
work or hand a project to a collaborator.

The dataset is one write-once, content-addressed file per sample
(``dataset/<content digest>.npy``, uncompressed float32) beside a JSON
metadata sidecar, so a save costs what changed: a sample file that is
already there is left alone, and one that a previous tree holds is
hard-linked rather than rewritten.  Nothing ever opens an existing
sample file for writing — its inode may be shared with another tree.

Re-saving over an existing tree must leave the directory reflecting the
*current* project state: artifacts a prior save wrote but the project no
longer carries (a cleared impulse, deleted models, dropped tuner
history, removed or relabelled samples, the single ``samples.npz`` older
versions wrote) are removed, never silently resurrected by the next
:func:`load_project`.

This module is also the heavy-blob tier of the durable control plane
(:mod:`repro.core.storage.engine`): the write-ahead log journals cheap
metadata mutations and references project trees saved here by revision.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re

import numpy as np
from numpy.lib import format as npy_format

from repro.core.impulse import Impulse
from repro.core.project import Project
from repro.data.dataset import Sample
from repro.graph.serialize import graph_from_bytes, graph_to_bytes


_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


def _write_sample_file(data: np.ndarray, target: pathlib.Path,
                       link_dir: pathlib.Path | None) -> None:
    """Make ``target`` hold ``data``: by hard link to the file of the
    same name in ``link_dir`` (another tree's ``dataset/``) when that
    works, else by writing it.  The write goes through a temporary
    name, so a kill cannot leave a torn file under a digest a later
    save would trust."""
    if link_dir is not None:
        try:
            os.link(link_dir / target.name, target)
            return
        except OSError:
            # Not in that tree, the tree is already pruned, or the
            # filesystem has no hard links: write the bytes instead.
            pass
    partial = target.with_suffix(".partial")
    with open(partial, "wb") as fh:
        np.save(fh, data, allow_pickle=False)
    os.replace(partial, target)


def _read_sample_file(dataset_dir: pathlib.Path, digest: str) -> np.ndarray:
    """Decode ``dataset/<digest>.npy``, trusting neither the name (it
    comes from ``samples.json``) nor the bytes: the header must describe
    a C-order float32 array of 1-3 dimensions whose size is exactly the
    rest of the file, checked before the payload is read (a pickled
    object array fails the dtype check unread)."""
    if not _DIGEST_RE.fullmatch(digest):
        raise ValueError(f"{dataset_dir}: {digest!r} is not a sample digest")
    path = dataset_dir / f"{digest}.npy"
    try:
        with open(path, "rb") as fh:
            try:
                if npy_format.read_magic(fh) != (1, 0):
                    raise ValueError("not the version 1.0 np.save writes")
                shape, fortran_order, dtype = (
                    npy_format.read_array_header_1_0(fh))
            except Exception as exc:
                # numpy parses the header as Python source; on hostile
                # bytes that leaks tokenizer and ast errors of any type.
                raise ValueError(f"bad .npy header ({exc!r})") from exc
            if dtype != np.dtype("<f4") or fortran_order:
                raise ValueError(f"expected C-order float32, found {dtype}")
            if not 1 <= len(shape) <= 3:
                raise ValueError(f"expected 1-3 dimensions, found {shape}")
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held != 4 * math.prod(shape):
                raise ValueError(
                    f"shape {shape} needs {4 * math.prod(shape)} bytes, "
                    f"file holds {held}"
                )
            return np.frombuffer(fh.read(), dtype="<f4").reshape(shape)
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable sample file {path}: {exc}") from exc


def save_project(project: Project, path: str | pathlib.Path,
                 link_from: str | pathlib.Path | None = None) -> None:
    """Write the full project state under ``path``.

    ``link_from`` names another saved tree of the same project on the
    same filesystem (the durable registry passes the checkpoint it is
    about to supersede): samples both trees hold are hard-linked from
    it.  The result is a complete tree either way.
    """
    root = pathlib.Path(path)
    link_dir = (pathlib.Path(link_from) / "dataset"
                if link_from is not None else None)
    (root / "dataset").mkdir(parents=True, exist_ok=True)
    (root / "models").mkdir(exist_ok=True)

    manifest = {
        "name": project.name,
        "owner": project.owner,
        "collaborators": sorted(project.collaborators),
        "public": project.public,
        "tags": project.tags,
        "label_map": project.label_map,
        "hmac_key": project.ingestion.hmac_key,
        "model_revision": project.model_revision,
    }
    (root / "project.json").write_text(json.dumps(manifest, indent=2))

    # Tuner provenance: leaderboards (live searches merged over any
    # previously-loaded ones) and which trial produced the deployed
    # model, so a reloaded project keeps its optimization history.
    leaderboards = project.leaderboards()
    tuners_json = root / "tuners.json"
    if leaderboards or project.applied_trial is not None:
        tuners_json.write_text(json.dumps(
            {
                "leaderboards": {str(jid): rows
                                 for jid, rows in sorted(leaderboards.items())},
                "applied_trial": project.applied_trial,
            },
            indent=2,
        ))
    elif tuners_json.exists():
        tuners_json.unlink()

    impulse_json = root / "impulse.json"
    if project.impulse is not None:
        impulse_json.write_text(json.dumps(project.impulse.to_dict(), indent=2))
    elif impulse_json.exists():
        # A prior save configured an impulse this project no longer has;
        # leaving the file behind would resurrect it on the next load.
        impulse_json.unlink()

    metadata = []
    present = set(os.listdir(root / "dataset"))
    keep = {"samples.json"}
    for sample in project.dataset:
        digest = sample.content_hash()
        name = f"{digest}.npy"
        if name not in present:
            _write_sample_file(sample.data, root / "dataset" / name, link_dir)
        keep.add(name)
        metadata.append(
            {
                "digest": digest,
                "sample_id": sample.sample_id,
                "label": sample.label,
                "category": sample.category,
                "sensor": sample.sensor,
                "interval_ms": sample.interval_ms,
                "metadata": sample.metadata,
            }
        )
    (root / "dataset" / "samples.json").write_text(json.dumps(metadata, indent=2))
    for stale in present - keep:
        (root / "dataset" / stale).unlink()

    for name, graph in (("float", project.float_graph), ("int8", project.int8_graph)):
        target = root / "models" / f"{name}.eir"
        if graph is not None:
            target.write_bytes(graph_to_bytes(graph))
        elif target.exists():
            target.unlink()
    # Stray model files (an interrupted save, a renamed precision, a
    # hand-copied artifact) must not survive a re-save either.
    for stray in (root / "models").glob("*.eir"):
        if stray.name not in ("float.eir", "int8.eir"):
            stray.unlink()


def load_project(path: str | pathlib.Path) -> Project:
    """Reconstruct a project saved with :func:`save_project`."""
    root = pathlib.Path(path)
    manifest = json.loads((root / "project.json").read_text())
    project = Project(
        name=manifest["name"],
        owner=manifest["owner"],
        hmac_key=manifest.get("hmac_key"),
    )
    for user in manifest.get("collaborators", []):
        project.add_collaborator(user)
    project.public = manifest.get("public", False)
    project.tags = list(manifest.get("tags", []))
    project.label_map = dict(manifest.get("label_map", {}))
    project.model_revision = int(manifest.get("model_revision", 0))

    tuners_json = root / "tuners.json"
    if tuners_json.exists():
        doc = json.loads(tuners_json.read_text())
        project.saved_leaderboards = {
            int(jid): rows for jid, rows in doc.get("leaderboards", {}).items()
        }
        project.applied_trial = doc.get("applied_trial")

    samples_json = root / "dataset" / "samples.json"
    if samples_json.exists():
        metadata = json.loads(samples_json.read_text())
        # Trees older than the per-sample layout hold one archive, keyed
        # per entry; it is opened only if an entry still points into it.
        legacy = None
        for entry in metadata:
            digest = entry.get("digest")
            if digest is not None:
                data = _read_sample_file(root / "dataset", str(digest))
            else:
                if legacy is None:
                    legacy = np.load(root / "dataset" / "samples.npz")
                data = legacy[entry["key"]]
            sample = Sample(
                data=data,
                label=entry["label"],
                sample_id=entry["sample_id"],
                sensor=entry["sensor"],
                interval_ms=entry["interval_ms"],
                metadata=entry["metadata"],
            )
            # The one hash recovery pays per sample: it both verifies the
            # file against its name and is the memo ``add`` dedups on.
            if digest is not None and sample.content_hash() != digest:
                raise ValueError(
                    f"sample file {root / 'dataset' / digest}.npy does not "
                    f"hash to its name (label {sample.label!r}, content "
                    f"{sample.content_hash()})"
                )
            project.dataset.add(sample, category=entry["category"])

    impulse_json = root / "impulse.json"
    if impulse_json.exists():
        project.set_impulse(Impulse.from_dict(json.loads(impulse_json.read_text())))

    for name in ("float", "int8"):
        target = root / "models" / f"{name}.eir"
        if target.exists():
            graph = graph_from_bytes(target.read_bytes())
            if name == "float":
                project.float_graph = graph
            else:
                project.int8_graph = graph
    return project
