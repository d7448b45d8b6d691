"""The durable control plane: journaling + recovery for :class:`Platform`.

:class:`DurableRegistry` sits between the in-memory platform and the
:class:`~repro.core.storage.engine.StorageEngine`.  It maintains a plain
JSON-safe **state mirror** — the reduction of every op ever journaled —
which is what compaction snapshots; mutators journal an op *and* fold it
into the mirror under one lock, so snapshot == replay by construction.

Two durability tiers:

- **Metadata** (users, orgs, tokens + scopes, project meta, job
  lifecycles, monitor baselines) is journaled per-mutation through the
  WAL.  Cheap: one ``os.write`` per op.
- **Heavy blobs** (datasets, trained graphs) are checkpointed as
  directory trees (:mod:`repro.core.storage.tree`) at commit points —
  after a train commit, a DSP autotune, an applied tuner trial — into
  ``state_dir/projects/p<pid>@<rev>.<n>/``, and *referenced* from the
  WAL by a ``project_saved`` op.  A kill mid-checkpoint leaves an
  orphan directory the WAL never points at; the previous checkpoint
  stays live and orphans are swept on the next recovery.  Sample files
  are content-addressed and hard-linked from the previous checkpoint,
  so a commit rewrites only the samples that changed.

Recovery (:meth:`DurableRegistry.recover`) rebuilds exact platform
state: tokens resolve again, projects reload **lazily** (the tree loads
on first access, via :class:`LazyProjectMap`), and jobs that were
in flight at the kill recover to a terminal ``failed("interrupted by
restart")`` — or, with ``resume_jobs=True``, re-runnable train specs are
resubmitted.
"""

from __future__ import annotations

import pathlib
import shutil
import threading

import numpy as np

from repro.core.jobs import TERMINAL_STATES
from repro.core.storage.engine import COMPACT_MARKER_OP, StorageEngine
from repro.core.storage.tree import load_project, save_project

#: How many reference-window telemetry records a ``monitor_reference``
#: op may spill — bounds the WAL record, not the in-memory window.
MAX_SPILLED_REFERENCE = 512

#: Job kinds whose journaled spec can be resubmitted after a restart.
RESUMABLE_KINDS = ("train",)


def initial_state() -> dict:
    """The empty state mirror (what a fresh ``state_dir`` reduces to)."""
    return {
        "users": {},          # username -> {"organizations": [...]}
        "organizations": {},  # name -> {"members": [...], "project_ids": [...]}
        "tokens": {},         # token -> {"user": ..., "scope": ...}
        "projects": {},       # str(pid) -> metadata (see project_create)
        "jobs": {},           # str(pid) -> {str(jid) -> lifecycle entry}
        "monitor": {},        # str(pid) -> {"records": [...], "health": ...}
    }


def apply_op(state: dict, op: dict) -> dict:
    """Fold one journaled op into ``state`` (the replay reducer).

    Total over any op sequence a valid WAL can contain: unknown ops and
    compaction markers are no-ops, and out-of-order job records (a
    ``job_end`` appended by the worker thread before the submitter's
    ``job_begin`` reached the log) merge instead of erroring — any
    prefix of a valid WAL reduces without raising.
    """
    kind = op.get("op")
    if kind == "user_add":
        state["users"].setdefault(op["username"], {"organizations": []})
    elif kind == "org_add":
        state["organizations"][op["name"]] = {
            "members": [op["owner"]], "project_ids": [],
        }
        user = state["users"].setdefault(op["owner"], {"organizations": []})
        if op["name"] not in user["organizations"]:
            user["organizations"].append(op["name"])
    elif kind == "org_join":
        org = state["organizations"].setdefault(
            op["org"], {"members": [], "project_ids": []}
        )
        if op["username"] not in org["members"]:
            org["members"].append(op["username"])
        user = state["users"].setdefault(op["username"], {"organizations": []})
        if op["org"] not in user["organizations"]:
            user["organizations"].append(op["org"])
    elif kind == "org_project":
        org = state["organizations"].setdefault(
            op["org"], {"members": [], "project_ids": []}
        )
        if op["pid"] not in org["project_ids"]:
            org["project_ids"].append(op["pid"])
    elif kind == "token_add":
        state["tokens"][op["token"]] = {
            "user": op["user"], "scope": op.get("scope", "operator"),
        }
    elif kind == "token_del":
        state["tokens"].pop(op["token"], None)
    elif kind == "project_create":
        pid = str(op["pid"])
        state["projects"][pid] = {
            "name": op["name"],
            "owner": op["owner"],
            "hmac_key": op.get("hmac_key"),
            "collaborators": [op["owner"]],
            "public": False,
            "tags": [],
            "revision": 0,
            "tree": None,  # no checkpoint yet: loads as an empty project
        }
    elif kind == "project_meta":
        meta = state["projects"].get(str(op["pid"]))
        if meta is not None:  # meta for an unknown pid: tolerated no-op
            meta["name"] = op["name"]
            meta["collaborators"] = sorted(op["collaborators"])
            meta["public"] = bool(op["public"])
            meta["tags"] = list(op["tags"])
    elif kind == "project_saved":
        meta = state["projects"].get(str(op["pid"]))
        if meta is not None:
            meta["revision"] = int(op["revision"])
            meta["tree"] = op["tree"]
    elif kind == "job_begin":
        entry = state["jobs"].setdefault(str(op["pid"]), {}).setdefault(
            str(op["jid"]), {}
        )
        # Merge, don't overwrite: the worker's job_end may already be
        # here (terminal status wins over "began").
        entry.setdefault("status", None)
        entry["name"] = op["name"]
        entry["kind"] = op.get("kind")
        entry["spec"] = op.get("spec")
    elif kind == "job_end":
        entry = state["jobs"].setdefault(str(op["pid"]), {}).setdefault(
            str(op["jid"]), {"name": op.get("name"), "kind": None, "spec": None}
        )
        entry["status"] = op["status"]
        entry["error"] = op.get("error")
    elif kind == "monitor_reference":
        state["monitor"][str(op["pid"])] = {
            "records": op["records"], "health": op.get("health", "ok"),
        }
    elif kind == COMPACT_MARKER_OP:
        pass
    # Unknown ops fall through: a newer writer's records must not brick
    # an older reader's recovery.
    return state


def reduce_ops(ops, state: dict | None = None) -> dict:
    """Reduce a sequence of ops over ``state`` (default: empty)."""
    state = state if state is not None else initial_state()
    for op in ops:
        apply_op(state, op)
    return state


class LazyProjectMap(dict):
    """``dict[int, Project]`` whose recovered entries load on first access.

    Recovery registers each journaled project as *pending*; the heavy
    directory tree only loads when something actually touches the
    project.  Aggregate views (``values()``, ``items()``) materialize
    everything — the public-project index genuinely needs all of them.
    """

    def __init__(self, loader):
        super().__init__()
        self._loader = loader  # loader(pid) -> Project
        self._pending: set[int] = set()

    def add_pending(self, pid: int) -> None:
        if not dict.__contains__(self, pid):
            self._pending.add(pid)

    def _materialize(self, pid: int):
        self._pending.discard(pid)
        project = self._loader(pid)
        dict.__setitem__(self, pid, project)
        return project

    def _materialize_all(self) -> None:
        for pid in sorted(self._pending):
            self._materialize(pid)

    @property
    def pending_ids(self) -> list[int]:
        return sorted(self._pending)

    def __getitem__(self, pid):
        if not dict.__contains__(self, pid) and pid in self._pending:
            return self._materialize(pid)
        return dict.__getitem__(self, pid)

    def __setitem__(self, pid, project):
        self._pending.discard(pid)
        dict.__setitem__(self, pid, project)

    def __delitem__(self, pid):
        self._pending.discard(pid)
        if dict.__contains__(self, pid):
            dict.__delitem__(self, pid)

    def __contains__(self, pid):
        return dict.__contains__(self, pid) or pid in self._pending

    def __len__(self):
        return dict.__len__(self) + len(self._pending)

    def __iter__(self):
        yield from dict.__iter__(self)
        yield from sorted(self._pending)

    def get(self, pid, default=None):
        return self[pid] if pid in self else default

    def keys(self):
        return list(self)

    def values(self):
        self._materialize_all()
        return dict.values(self)

    def items(self):
        self._materialize_all()
        return dict.items(self)

    def pop(self, pid, *default):
        self._pending.discard(pid)
        return dict.pop(self, pid, *default)


class _ProjectDurability:
    """The hook object a durable platform installs on each project: as
    ``project._durability`` (project.py calls it at its commit points —
    its only coupling to the storage layer) and as the project
    executor's ``journal``, so every job the executor creates — train,
    profile, deploy, tuner / compression parents and their trial
    children — is journaled begun and, once, landed."""

    def __init__(self, registry: "DurableRegistry", pid: int):
        self.registry = registry
        self.pid = pid

    def meta_changed(self, project) -> None:
        self.registry.record({
            "op": "project_meta",
            "pid": project.project_id,
            "name": project.name,
            "collaborators": sorted(project.collaborators),
            "public": project.public,
            "tags": list(project.tags),
        })

    def committed(self, project) -> None:
        """A mutating job committed trained state: checkpoint the tree."""
        self.registry.checkpoint(project)

    def job_begun(self, job) -> None:
        self.registry.record({
            "op": "job_begin", "pid": self.pid, "jid": job.job_id,
            "name": job.name, "kind": job.name, "spec": job.spec,
        })

    def job_done(self, job) -> None:
        self.registry.record({
            "op": "job_end", "pid": self.pid, "jid": job.job_id,
            "name": job.name, "status": job.status, "error": job.error,
        })


class DurableRegistry:
    """Journals a :class:`Platform`'s control-plane mutations and
    rebuilds its exact state on open."""

    def __init__(self, platform, state_dir: str | pathlib.Path,
                 compact_every: int = 512, fsync: bool = False,
                 resume_jobs: bool = False):
        self.platform = platform
        self.engine = StorageEngine(
            state_dir, compact_every=compact_every, fsync=fsync
        )
        self.projects_dir = self.engine.state_dir / "projects"
        self.projects_dir.mkdir(exist_ok=True)
        self.resume_jobs = resume_jobs
        self.state = initial_state()  # guarded-by: _lock
        # RLock: checkpoint() journals while already holding the lock.
        self._lock = threading.RLock()
        self._checkpoints = 0  # guarded-by: _lock (unique tree dir names)
        self.resumed_jobs: list[int] = []  # job ids resubmitted on recovery

    # -- journaling (the runtime write path) --------------------------------

    def record(self, op: dict) -> None:
        """Journal one mutation: fold into the mirror, append to the WAL,
        compact when the log is due."""
        with self._lock:
            apply_op(self.state, op)
            self.engine.append(op)
            if self.engine.should_compact():
                self.engine.compact(self.state)

    def checkpoint(self, project) -> None:
        """Save ``project``'s heavy tree and journal the reference.

        Every checkpoint writes a *fresh* directory and only then
        journals it — a kill mid-save leaves the WAL pointing at the
        previous good tree, never at a torn one.  Samples the previous
        tree already holds are hard-linked into the fresh one, so the
        commit costs what changed; each tree is still complete on its
        own, and pruning the old one drops names, not the shared bytes.
        """
        pid = project.project_id
        with self._lock:
            self._checkpoints += 1
            n = self._checkpoints
            previous = self.state["projects"].get(str(pid), {}).get("tree")
        dirname = f"p{pid}@{project.model_revision}.{n}"
        save_project(
            project, self.projects_dir / dirname,
            link_from=self.projects_dir / previous if previous else None,
        )
        self.record({
            "op": "project_saved", "pid": pid,
            "revision": project.model_revision, "tree": dirname,
        })
        # The new checkpoint is durable and referenced: superseded trees
        # for this project can go.
        for old in self.projects_dir.glob(f"p{pid}@*"):
            if old.name != dirname:
                shutil.rmtree(old, ignore_errors=True)

    def bind_project(self, project) -> None:
        hooks = _ProjectDurability(self, project.project_id)
        project._durability = project.jobs.journal = hooks

    def spill_reference(self, project_id: int, window) -> None:
        """Journal a monitor reference window (bounded; raw payloads are
        never spilled — they are drift-loop working data, not baseline)."""
        rows = window[-MAX_SPILLED_REFERENCE:]
        names = ("model_version", "latency_ms", "top", "confidence", "ok",
                 "source")
        spilled = [
            dict(zip(names, values), project_id=project_id,
                 sketch=sketch if np.isfinite(sketch).all() else None)
            for *values, sketch in zip(*(getattr(rows, name).tolist()
                                         for name in names), rows.sketch.tolist())
        ]
        pm = self.platform.monitor.monitor(project_id)
        self.record({
            "op": "monitor_reference", "pid": project_id,
            "records": spilled, "health": pm.status,
        })

    # -- recovery -----------------------------------------------------------

    def recover(self) -> None:
        """Rebuild the platform from ``state_dir`` and arm journaling."""
        from repro.core.project import ensure_project_id_floor
        from repro.core.registry import Organization, User

        snapshot, tail = self.engine.open()
        platform = self.platform
        # The whole rebuild runs under _lock (RLock — the materializing
        # loads below re-enter through record()).  Resumed jobs journal
        # from worker threads; they just block until recovery finishes.
        with self._lock:
            self.state = snapshot if snapshot is not None else initial_state()
            reduce_ops(tail, self.state)

            for username, entry in self.state["users"].items():
                platform.users[username] = User(
                    username=username, organizations=set(entry["organizations"])
                )
            for name, entry in self.state["organizations"].items():
                platform.organizations[name] = Organization(
                    name=name, members=set(entry["members"]),
                    project_ids=list(entry["project_ids"]),
                )
            for token, entry in self.state["tokens"].items():
                platform.api_tokens[token] = entry["user"]
                platform.api_token_scopes[token] = entry.get("scope", "operator")

            lazy = LazyProjectMap(self._load_project)
            for existing_pid, project in platform.projects.items():
                lazy[existing_pid] = project
            platform.projects = lazy
            max_pid = 0
            for pid_str in self.state["projects"]:
                lazy.add_pending(int(pid_str))
                max_pid = max(max_pid, int(pid_str))
            ensure_project_id_floor(max_pid)

            for pid_str, entry in self.state["monitor"].items():
                self._restore_reference(int(pid_str), entry)

            if self.resume_jobs:
                # Interrupted re-runnable jobs need their project live
                # now, not on first API touch.
                for pid_str, jobs in self.state["jobs"].items():
                    if any(e.get("status") not in TERMINAL_STATES
                           and e.get("kind") in RESUMABLE_KINDS
                           for e in jobs.values()):
                        lazy[int(pid_str)]  # materializes + resumes

            # Orphan trees (a checkpoint that died before its journal
            # entry, or pruning that lost the race with a kill) are
            # unreachable: nothing in the WAL references them.
            live = {m["tree"]
                    for m in self.state["projects"].values() if m["tree"]}
        for tree in self.projects_dir.iterdir():
            if tree.is_dir() and tree.name not in live:
                shutil.rmtree(tree, ignore_errors=True)

        monitor = getattr(platform, "monitor", None)
        if monitor is not None:
            monitor.on_reference = self.spill_reference

    def _restore_reference(self, pid: int, entry: dict) -> None:
        from repro.monitor.telemetry import (SKETCH_DIM, TelemetryRecord,
                                             TelemetryStore)

        # Replayed through a scratch store.  A sketch of another width (an
        # older writer took any) is dropped, not a failed recovery.
        rows = TelemetryStore(window=max(1, len(entry["records"])), raw_window=0)
        rows.extend([TelemetryRecord.from_dict(
            r if len(r.get("sketch") or ()) == SKETCH_DIM else {**r, "sketch": None}
        ) for r in entry["records"]])
        pm = self.platform.monitor.monitor(pid)
        pm.reference = rows.recent(pid)
        pm.reference.seq[:] = -1  # no sequence numbers: before every live row
        if pm.reference:
            pm.status = entry.get("health") or "ok"

    def _load_project(self, pid: int):
        """Materialize one recovered project (LazyProjectMap loader)."""
        from repro.core.project import Project

        with self._lock:
            # Shallow copy: journal appends may mutate the live entry
            # while we load the tree below.
            meta = dict(self.state["projects"][str(pid)])
        if meta["tree"] is not None:
            project = load_project(self.projects_dir / meta["tree"])
        else:
            project = Project(
                name=meta["name"], owner=meta["owner"],
                hmac_key=meta.get("hmac_key"),
            )
        project.project_id = pid
        # WAL-side metadata may be newer than the checkpointed tree
        # (make_public / add_collaborator journal instantly, trees only
        # at commit points) — the journal wins.
        project.name = meta["name"]
        project.collaborators = set(meta["collaborators"]) | {project.owner}
        project.public = bool(meta["public"])
        project.tags = list(meta["tags"])
        self.bind_project(project)
        self._recover_jobs(project)
        return project

    def _recover_jobs(self, project) -> None:
        """Rebuild the project's job history; interrupted jobs land
        terminal (``failed: interrupted by restart``), and re-runnable
        specs are resubmitted when ``resume_jobs`` is on."""
        with self._lock:
            entries = {
                jid: dict(entry)
                for jid, entry in self.state["jobs"].get(
                    str(project.project_id), {}).items()
            }
        to_resume = []
        for jid_str, entry in sorted(entries.items(), key=lambda kv: int(kv[0])):
            status, error = entry.get("status"), entry.get("error")
            if status not in TERMINAL_STATES:
                status, error = "failed", "interrupted by restart"
                if entry.get("kind") in RESUMABLE_KINDS and entry.get("spec"):
                    to_resume.append(entry)
            project.jobs.restore_job(
                int(jid_str), name=entry.get("name") or "job",
                status=status, error=error,
            )
        for entry in to_resume:
            if self.resume_jobs:
                try:
                    job = project.train_async(**entry["spec"])
                except Exception:
                    # The durable state predates what the spec needs
                    # (e.g. the impulse was never checkpointed): the
                    # interrupted-failed record above stands.
                    continue
                self.resumed_jobs.append(job.job_id)

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        """Checkpoint every *loaded* project and compact.  Called on
        graceful shutdown; a hard kill instead relies on the WAL plus the
        last commit-point checkpoints.  Never-touched pending projects
        need no checkpoint — their trees are already on disk."""
        projects = self.platform.projects
        loaded = (list(dict.values(projects))
                  if isinstance(projects, LazyProjectMap)
                  else list(projects.values()))
        for project in loaded:
            self.checkpoint(project)
        with self._lock:
            self.engine.compact(self.state)

    def close(self) -> None:
        self.engine.close()

    def stats(self) -> dict:
        with self._lock:
            return dict(
                self.engine.stats(),
                projects=len(self.state["projects"]),
                tokens=len(self.state["tokens"]),
            )
