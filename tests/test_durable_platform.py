"""DurableRegistry: journal + recover the whole platform across restarts."""

from __future__ import annotations

import errno
import json
import os

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, Platform, TimeSeriesInput
from repro.core.storage.durable import (
    LazyProjectMap,
    apply_op,
    initial_state,
    reduce_ops,
)
from repro.data.dataset import Sample
from repro.data.synthetic import vibration_dataset
from repro.dsp import SpectralAnalysisBlock
from repro.monitor.telemetry import TelemetryRecord
from repro.nn import TrainingConfig


def _impulse():
    return Impulse(
        TimeSeriesInput(window_size_ms=2000, window_increase_ms=2000,
                        frequency_hz=100, axes=3),
        [SpectralAnalysisBlock(sample_rate=100, fft_length=64)],
        ClassificationBlock(
            architecture="mlp", arch_kwargs=dict(hidden=(16,)),
            training=TrainingConfig(epochs=25, batch_size=16,
                                    learning_rate=3e-3, seed=0),
        ),
    )


def _populate(project):
    for s in vibration_dataset(samples_per_class=14, seed=0):
        project.dataset.add(s, category=s.category)
    project.set_impulse(_impulse())


class TestApplyOp:
    def test_unknown_op_is_noop(self):
        state = initial_state()
        assert apply_op(state, {"op": "from_the_future", "x": 1}) == initial_state()

    def test_job_end_before_begin_merges(self):
        """The cross-thread append race: the worker's job_end can hit the
        log before the submitter's job_begin.  The reducer must merge,
        and the terminal status must win."""
        ops = [
            {"op": "job_end", "pid": 1, "jid": 5, "name": "train",
             "status": "succeeded", "error": None},
            {"op": "job_begin", "pid": 1, "jid": 5, "name": "train",
             "kind": "train", "spec": {"seed": 0}},
        ]
        entry = reduce_ops(ops)["jobs"]["1"]["5"]
        assert entry["status"] == "succeeded"
        assert entry["kind"] == "train"

    def test_meta_for_unknown_project_tolerated(self):
        state = reduce_ops([{
            "op": "project_meta", "pid": 42, "name": "x",
            "collaborators": [], "public": True, "tags": [],
        }])
        assert state["projects"] == {}

    def test_every_prefix_reduces(self):
        ops = [
            {"op": "user_add", "username": "u"},
            {"op": "org_add", "name": "o", "owner": "u"},
            {"op": "project_create", "pid": 1, "name": "p", "owner": "u"},
            {"op": "org_project", "org": "o", "pid": 1},
            {"op": "token_add", "token": "t", "user": "u", "scope": "read"},
            {"op": "job_begin", "pid": 1, "jid": 1, "name": "train",
             "kind": "train", "spec": None},
            {"op": "job_end", "pid": 1, "jid": 1, "name": "train",
             "status": "succeeded", "error": None},
            {"op": "token_del", "token": "t"},
        ]
        for cut in range(len(ops) + 1):
            reduce_ops(ops[:cut])  # must never raise


class TestLazyProjectMap:
    def test_pending_counts_without_loading(self):
        loaded = []

        def loader(pid):
            loaded.append(pid)
            return f"project-{pid}"

        lazy = LazyProjectMap(loader)
        lazy.add_pending(1)
        lazy.add_pending(2)
        assert len(lazy) == 2
        assert 1 in lazy and 2 in lazy and 3 not in lazy
        assert sorted(lazy) == [1, 2]
        assert loaded == []  # membership/len never materialize
        assert lazy[2] == "project-2"
        assert loaded == [2]
        assert len(list(lazy.values())) == 2  # values() loads the rest
        assert sorted(loaded) == [1, 2]


class TestDurableRegistry:
    def test_identity_roundtrip(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        p1.register_user("bob")
        p1.create_organization("acme", owner="alice")
        p1.join_organization("acme", "bob")
        read_tok = p1.issue_token("alice", scope="read")
        op_tok = p1.issue_token("bob")
        dead_tok = p1.issue_token("bob")
        p1.revoke_token(dead_tok)

        p2 = Platform(state_dir=d)
        assert set(p2.users) == {"alice", "bob"}
        assert p2.organizations["acme"].members == {"alice", "bob"}
        assert "acme" in p2.users["bob"].organizations
        assert p2.resolve_token(read_tok) == "alice"
        assert p2.token_scope(read_tok) == "read"
        assert p2.token_scope(op_tok) == "operator"
        assert p2.resolve_token(dead_tok) is None

    def test_project_metadata_journal_overlays_tree(self, tmp_path):
        """make_public / add_collaborator journal instantly; trees only
        at commit points.  After a restart the journal must win over the
        stale checkpointed manifest."""
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        project = p1.create_project("proj", owner="alice")
        p1.checkpoint(project.project_id)  # tree says private, no collabs
        project.make_public(tags=["demo"])
        project.add_collaborator("alice")

        p2 = Platform(state_dir=d)
        restored = p2.get_project(project.project_id)
        assert restored.public
        assert restored.tags == ["demo"]

    def test_projects_recover_lazily(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        pid_a = p1.create_project("a", owner="alice").project_id
        pid_b = p1.create_project("b", owner="alice").project_id
        p1.flush()

        p2 = Platform(state_dir=d)
        assert isinstance(p2.projects, LazyProjectMap)
        assert set(p2.projects.pending_ids) == {pid_a, pid_b}
        assert len(p2.projects) == 2
        p2.get_project(pid_a)
        assert p2.projects.pending_ids == [pid_b]  # b still untouched

    def test_project_ids_do_not_collide_after_restart(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        pid = p1.create_project("a", owner="alice").project_id

        p2 = Platform(state_dir=d)
        fresh = p2.create_project("b", owner="alice")
        assert fresh.project_id > pid

    def test_unknown_org_rejected_before_creating(self, tmp_path):
        p1 = Platform(state_dir=tmp_path / "state")
        p1.register_user("alice")
        with pytest.raises(KeyError, match="unknown organization"):
            p1.create_project("p", owner="alice", organization="ghost")
        assert len(p1.projects) == 0

    def test_compaction_threshold_preserves_state(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d, wal_compact_every=8)
        for i in range(30):
            p1.register_user(f"user{i}")
        stats = p1._durable.stats()
        assert stats["compactions"] >= 1
        assert (d / "snapshot.json").exists()

        p2 = Platform(state_dir=d)
        assert len(p2.users) == 30

    def test_orphan_trees_swept_on_recovery(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        project = p1.create_project("proj", owner="alice")
        p1.checkpoint(project.project_id)
        # A checkpoint that died before its journal entry.
        orphan = d / "projects" / "p999@0.77"
        orphan.mkdir()
        (orphan / "junk.bin").write_bytes(b"x")

        p2 = Platform(state_dir=d)
        assert not orphan.exists()
        assert len(p2.projects) == 1  # the real checkpoint survived
        assert p2.get_project(project.project_id).name == "proj"

    def test_monitor_reference_spills_and_restores(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        pid = p1.create_project("proj", owner="alice").project_id
        p1.monitor.telemetry.extend([
            TelemetryRecord(project_id=pid, latency_ms=float(i),
                            top="ok", confidence=0.9)
            for i in range(5)
        ])
        assert p1.monitor.set_reference(pid) == 5

        p2 = Platform(state_dir=d)
        pm = p2.monitor.monitor(pid)
        assert len(pm.reference) == 5
        assert pm.status == "ok"
        assert pm.reference.latency_ms.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        # Restored rows have no sequence numbers: they precede every row.
        assert (pm.reference.seq == -1).all()

    @pytest.mark.parametrize("row_format", ["current", "with ts/margin/error"])
    def test_monitor_reference_restores_from_either_row_format(self, tmp_path,
                                                              row_format):
        """A reference spilled by an older writer also carries ``ts``,
        ``margin`` and ``error``: recovery ignores those keys and restores
        the same columns as a spill in the current format."""
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        pid = p1.create_project("proj", owner="alice").project_id
        p1.monitor.telemetry.extend([
            TelemetryRecord(pid, model_version=f"1.0.{i % 2}",
                            latency_ms=float(i), top=None if i == 2 else "ok",
                            confidence=0.5 + i / 10, ok=i != 3,
                            source=f"dev-{i % 2}",
                            sketch=None if i == 1 else np.full(8, i / 4))
            for i in range(5)
        ])
        assert p1.monitor.set_reference(pid) == 5
        spilled = p1._durable.state["monitor"][str(pid)]["records"]
        assert set(spilled[0]) == {"project_id", "model_version", "latency_ms",
                                   "top", "confidence", "ok", "source", "sketch"}
        if row_format != "current":
            p1._durable.record({"op": "monitor_reference", "pid": pid, "records": [
                {**r, "ts": 1.7e9 + i, "margin": r["confidence"] / 2,
                 "error": None if r["ok"] else "sensor fault"}
                for i, r in enumerate(spilled)], "health": "ok"})
        want = p1.monitor.monitor(pid).reference

        got = Platform(state_dir=d).monitor.monitor(pid).reference
        for name in ("latency_ms", "ok", "top", "confidence", "source",
                     "model_version"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()
        np.testing.assert_array_equal(got.sketch, want.sketch)  # NaN row too
        assert (got.seq == -1).all()


class TestJobRecovery:
    def test_interrupted_job_lands_terminal_failed(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        project = p1.create_project("proj", owner="alice")
        pid = project.project_id
        # A job_begin whose job_end never reached the log — exactly what
        # a hard kill mid-job leaves behind.
        p1._durable.record({
            "op": "job_begin", "pid": pid, "jid": 7,
            "name": "train seed=0", "kind": "train", "spec": None,
        })

        p2 = Platform(state_dir=d)
        job = p2.get_project(pid).jobs.get(7)
        assert job.status == "failed"
        assert job.error == "interrupted by restart"

    def test_completed_job_history_restores(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        project = p1.create_project("proj", owner="alice")
        pid = project.project_id
        p1._durable.record({
            "op": "job_begin", "pid": pid, "jid": 3,
            "name": "train seed=0", "kind": "train", "spec": None,
        })
        p1._durable.record({
            "op": "job_end", "pid": pid, "jid": 3,
            "name": "train seed=0", "status": "succeeded", "error": None,
        })

        p2 = Platform(state_dir=d)
        restored = p2.get_project(pid)
        job = restored.jobs.get(3)
        assert job.status == "succeeded" and job.error is None
        # New submissions never collide with restored job ids.
        assert restored.jobs.submit("noop", lambda job: None).job_id > 3

    def test_every_job_is_journaled_and_ids_are_never_reissued(self, tmp_path):
        """train -> profile -> deploy -> 4-trial tune -> restart: the whole
        history comes back with its terminal statuses (the journal hangs
        on the project executor, not on individual submit sites), and the
        next job's id is above every pre-restart id, trial children
        included — so it can never collide with a saved leaderboard."""
        import time

        from repro.automl import SearchSpace

        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        project = p1.create_project("proj", owner="alice")
        pid = project.project_id
        _populate(project)
        assert project.train(seed=0).job_id == 1
        assert project.profile_async("nano33ble").wait(60).job_id == 2
        assert project.deploy_async().wait(60).job_id == 3
        space = SearchSpace(
            dsp_templates=[{"type": "spectral-analysis", "sample_rate": 100,
                            "fft_length": [32, 64]}],
            model_templates=[{"architecture": "mlp", "hidden": [(8,), (16,)]}],
        )
        tune = project.tune_async(n_trials=4, space=space, train_epochs=2)
        assert tune.wait(120).status == "succeeded" and len(tune.children) == 4
        before = {j.job_id: (j.name, j.status) for j in project.jobs.list_jobs()}
        assert len(before) == 8 and max(before) == max(tune.children)
        # A job's journal entry lands just after its waiters wake (the
        # registry lock covers mirror update + WAL append together).
        def journaled():
            with p1._durable._lock:
                entries = p1._durable.state["jobs"].get(str(pid), {})
                return len(entries) == 8 and all(
                    e.get("status") for e in entries.values())

        deadline = time.monotonic() + 10
        while not journaled():
            assert time.monotonic() < deadline, "job ends never journaled"
            time.sleep(0.01)

        restored = Platform(state_dir=d).get_project(pid)
        after = {j.job_id: (j.name, j.status) for j in restored.jobs.list_jobs()}
        assert after == before
        assert [after[i] for i in (1, 2, 3)] == [
            ("train", "succeeded"), ("profile", "succeeded"),
            ("deploy", "succeeded"),
        ]
        assert restored.profile_async("nano33ble").job_id == max(before) + 1

    def test_resume_resubmits_interrupted_train(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        project = p1.create_project("proj", owner="alice")
        pid = project.project_id
        _populate(project)
        p1.checkpoint(pid)  # dataset + impulse durable, untrained
        p1._durable.record({
            "op": "job_begin", "pid": pid, "jid": 9, "name": "train seed=0",
            "kind": "train",
            "spec": {"seed": 0, "quantize": True, "retries": 0},
        })

        p2 = Platform(state_dir=d, resume_jobs=True)
        assert p2._durable.resumed_jobs  # the spec was resubmitted
        restored = p2.get_project(pid)
        resumed = restored.jobs.get(p2._durable.resumed_jobs[0])
        resumed.wait(timeout=120)
        assert resumed.status == "succeeded"
        assert restored.model_revision == 1
        assert restored.int8_graph is not None
        # Without the flag the same state recovers to a terminal failure.
        p3 = Platform(state_dir=d)


class TestTrainedRoundtrip:
    def test_train_restart_preserves_model(self, tmp_path):
        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        project = p1.create_project("proj", owner="alice")
        pid = project.project_id
        _populate(project)
        job = project.train(seed=0)
        assert job.status == "succeeded"
        baseline = project.test(precision="int8").accuracy
        p1.flush()  # graceful shutdown

        p2 = Platform(state_dir=d)
        restored = p2.get_project(pid)
        assert restored.model_revision == 1
        assert restored.label_map == project.label_map
        assert len(restored.dataset) == len(project.dataset)
        assert restored.test(precision="int8").accuracy == pytest.approx(baseline)
        # The restarted platform keeps training: revision continues.
        job2 = restored.train(seed=1)
        assert job2.status == "succeeded"
        assert restored.model_revision == 2


    def test_landed_search_serves_results_and_recovers_equal(self, tmp_path):
        """train -> tune -> apply on a durable platform: the landed
        search still answers the leaderboard, GET .../tuner/{jid} and
        apply with its windows released, and the reopened project equals
        the live one — samples, digests, graphs, leaderboards."""
        from repro.automl import SearchSpace
        from repro.graph.serialize import graph_to_bytes

        d = tmp_path / "state"
        p1 = Platform(state_dir=d)
        p1.register_user("alice")
        project = p1.create_project("proj", owner="alice")
        pid = project.project_id
        _populate(project)
        project.train(seed=0)
        graphs = {"float": graph_to_bytes(project.float_graph),
                  "int8": graph_to_bytes(project.int8_graph)}
        space = SearchSpace(
            dsp_templates=[{"type": "spectral-analysis", "sample_rate": 100,
                            "fft_length": [32, 64]}],
            model_templates=[{"architecture": "mlp", "hidden": [(8,), (16,)]}],
        )
        tune = project.tune_async(n_trials=3, space=space, train_epochs=2)
        assert tune.wait(120).status == "succeeded"
        tuner = project.tuners[tune.job_id]
        assert tuner.raw is None and tuner._feature_cache == {}
        board = tuner.leaderboard()
        assert board and project.leaderboards() == {tune.job_id: board}
        view = p1.gateway.handle(
            "GET", f"/v1/projects/{pid}/tuner/{tune.job_id}", {}, user="alice")
        assert view["status"] == 200 and view["data"]["leaderboard"] == board

        def state(proj):
            return [(s.sample_id, s.label, s.category, s.content_hash())
                    for s in proj.dataset]

        # What the build leaves behind (the train commit's checkpoint).
        built = Platform(state_dir=d).get_project(pid)
        assert state(built) == state(project)
        assert {"float": graph_to_bytes(built.float_graph),
                "int8": graph_to_bytes(built.int8_graph)} == graphs

        # Applying the winner commits again: unchanged samples are
        # linked, the leaderboard is persisted with the new impulse.
        applied = p1.gateway.handle(
            "POST", f"/v1/projects/{pid}/tuner/{tune.job_id}/apply",
            {"rank": 1}, user="alice")
        assert applied["status"] == 200, applied
        restored = Platform(state_dir=d).get_project(pid)
        assert state(restored) == state(project)
        assert restored.leaderboards() == {tune.job_id: board}
        as_saved = lambda doc: json.loads(json.dumps(doc))  # tuples -> lists
        assert restored.applied_trial == as_saved(project.applied_trial)
        assert restored.impulse.to_dict() == as_saved(project.impulse.to_dict())
        assert restored.float_graph is None  # a new impulse drops the model


class TestLinkedCheckpoints:
    """Checkpoints hard-link unchanged samples from the tree they
    supersede (PR 22); every tree stays complete on its own."""

    @staticmethod
    def _project(platform, n=100):
        platform.register_user("alice")
        project = platform.create_project("proj", owner="alice")
        rng = np.random.default_rng(3)
        for i in range(n):
            project.dataset.add(Sample(
                data=rng.standard_normal(12).astype(np.float32),
                label=f"c{i % 3}",
            ))
        return project

    @staticmethod
    def _live_tree(platform, pid):
        durable = platform._durable
        return durable.projects_dir / durable.state["projects"][str(pid)]["tree"]

    @staticmethod
    def _sample_files(tree):
        return {f.name: f for f in (tree / "dataset").glob("*.npy")}

    @staticmethod
    def _dataset_state(project):
        return [(s.sample_id, s.label, s.category, s.content_hash())
                for s in project.dataset]

    def test_second_checkpoint_of_unchanged_dataset_rewrites_nothing(
            self, tmp_path):
        p1 = Platform(state_dir=tmp_path / "state")
        project = self._project(p1)
        pid = project.project_id
        p1.checkpoint(pid)
        first = self._live_tree(p1, pid)
        inodes = {name: f.stat().st_ino
                  for name, f in self._sample_files(first).items()}
        assert len(inodes) == 100

        p1.checkpoint(pid)
        second = self._live_tree(p1, pid)
        assert second != first and not first.exists()  # superseded, pruned
        rewritten = [name for name, f in self._sample_files(second).items()
                     if f.stat().st_ino != inodes.get(name)]
        assert rewritten == [] and len(self._sample_files(second)) == 100

        # One more sample, one relabel: exactly those two files are new.
        project.dataset.add(Sample(data=np.ones(12, np.float32), label="c0"))
        project.dataset.relabel(next(iter(project.dataset)).sample_id, "zz")
        p1.checkpoint(pid)
        third = self._sample_files(self._live_tree(p1, pid))
        assert len(third) == 101
        assert sum(1 for name, f in third.items()
                   if f.stat().st_ino != inodes.get(name)) == 2

        # The pruned trees took nothing with them.
        p2 = Platform(state_dir=tmp_path / "state")
        assert self._dataset_state(p2.get_project(pid)) \
            == self._dataset_state(project)

    def test_kill_between_tree_and_journal_recovers_previous_tree(
            self, tmp_path):
        """The new tree is on disk, linked to the live one, but its
        ``project_saved`` never reached the WAL: recovery must serve the
        previous tree complete and sweep the orphan."""
        p1 = Platform(state_dir=tmp_path / "state")
        project = self._project(p1, n=20)
        pid = project.project_id
        p1.checkpoint(pid)
        committed = self._dataset_state(project)
        live = self._live_tree(p1, pid)

        project.dataset.add(Sample(data=np.ones(12, np.float32), label="c0"))
        durable = p1._durable
        journal = durable.record

        def killed_before_journal(op):
            if op["op"] == "project_saved":
                raise KeyboardInterrupt("kill -9")
            journal(op)

        durable.record = killed_before_journal
        with pytest.raises(KeyboardInterrupt):
            p1.checkpoint(pid)
        orphans = [t for t in durable.projects_dir.iterdir() if t != live]
        assert len(orphans) == 1
        assert len(self._sample_files(orphans[0])) == 21
        assert live.exists()  # pruning comes after the journal entry

        p2 = Platform(state_dir=tmp_path / "state")
        assert not orphans[0].exists()
        assert self._dataset_state(p2.get_project(pid)) == committed

    def test_filesystem_without_links_writes_an_identical_tree(
            self, tmp_path, monkeypatch):
        p1 = Platform(state_dir=tmp_path / "state")
        project = self._project(p1, n=10)
        pid = project.project_id
        p1.checkpoint(pid)
        p1.checkpoint(pid)

        def content(tree):
            return {str(f.relative_to(tree)): f.read_bytes()
                    for f in sorted(tree.rglob("*")) if f.is_file()}

        linked_tree = self._live_tree(p1, pid)
        linked = content(linked_tree)
        linked_inodes = {f.stat().st_ino
                         for f in self._sample_files(linked_tree).values()}

        def no_links(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", no_links)
        p1.checkpoint(pid)
        written_tree = self._live_tree(p1, pid)
        assert content(written_tree) == linked
        assert not linked_inodes & {
            f.stat().st_ino
            for f in self._sample_files(written_tree).values()}
        p2 = Platform(state_dir=tmp_path / "state")
        assert self._dataset_state(p2.get_project(pid)) \
            == self._dataset_state(project)

    def test_bit_rot_is_carried_by_link_refused_on_load_and_repairable(
            self, tmp_path):
        """The trade-off docs/storage.md names: a checkpoint trusts a
        present sample file by name, so a damaged one rides into the next
        tree; the load refuses it loudly, and deleting the named file
        while the project is live lets the next commit rewrite it."""
        p1 = Platform(state_dir=tmp_path / "state")
        project = self._project(p1, n=5)
        pid = project.project_id
        p1.checkpoint(pid)
        name, victim = sorted(self._sample_files(
            self._live_tree(p1, pid)).items())[0]
        good = victim.read_bytes()
        victim.write_bytes(good[:-1] + bytes([good[-1] ^ 0x01]))

        p1.checkpoint(pid)  # links the damaged inode forward
        carried = self._sample_files(self._live_tree(p1, pid))[name]
        assert carried.read_bytes() != good
        with pytest.raises(ValueError, match=name):
            Platform(state_dir=tmp_path / "state").get_project(pid)

        carried.unlink()  # the repair: memory still holds the sample
        p1.checkpoint(pid)
        assert self._sample_files(
            self._live_tree(p1, pid))[name].read_bytes() == good
        p2 = Platform(state_dir=tmp_path / "state")
        assert self._dataset_state(p2.get_project(pid)) \
            == self._dataset_state(project)
