"""A Project: dataset + impulse + training artifacts + deployment.

Mirrors the Studio project lifecycle (Fig. 1/2): ingest data, wire an
impulse, train (as a queued job), evaluate on the holdout split, profile
against device targets, and export deployment artifacts.  Projects support
versioning, collaborators and public sharing (Sec. 6.3).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.impulse import Impulse, TimeSeriesInput
from repro.core.jobs import Job, JobExecutor
from repro.core.learn_blocks import AnomalyBlock, ClassificationBlock
from repro.data.dataset import Dataset
from repro.data.ingestion import IngestionService
from repro.data.versioning import DatasetVersionStore
from repro.evaluate import ClassificationReport, evaluate_classifier
from repro.graph import Graph, sequential_to_graph
from repro.profile import LatencyEstimator, MemoryEstimator, get_device
from repro.quantize import quantize_graph
from repro.runtime.executor import dequantize_output, run_graph

#: The precisions a trained project commits a graph for.
PRECISIONS = ("float32", "int8")

_PROJECT_IDS = itertools.count(1)
_PROJECT_IDS_LOCK = threading.Lock()


def _next_project_id() -> int:
    with _PROJECT_IDS_LOCK:
        return next(_PROJECT_IDS)


def ensure_project_id_floor(floor: int) -> None:
    """Advance the shared id counter past ``floor`` so projects restored
    from a durable ``state_dir`` never collide with freshly created ones."""
    global _PROJECT_IDS
    with _PROJECT_IDS_LOCK:
        nxt = next(_PROJECT_IDS)
        _PROJECT_IDS = itertools.count(max(nxt, floor + 1))


@dataclass
class ProjectVersion:
    """A named snapshot: dataset version + impulse config."""

    version_id: int
    message: str
    dataset_version: str
    impulse_spec: dict | None
    public: bool = False


class Project:
    """One Edge Impulse project."""

    def __init__(self, name: str, owner: str = "owner", hmac_key: str | None = None):
        self.project_id = _next_project_id()
        self.name = name
        self.owner = owner
        self.collaborators: set[str] = {owner}
        self.public = False
        self.tags: list[str] = []

        self.dataset = Dataset(name=f"{name}-data")
        self.ingestion = IngestionService(self.dataset, hmac_key=hmac_key)
        self.dataset_versions = DatasetVersionStore()
        self.project_versions: list[ProjectVersion] = []
        self.jobs = JobExecutor()
        # Serializes jobs that mutate trained state (train, autotune) so
        # two concurrently-submitted mutators cannot interleave writes to
        # label_map / graphs / the impulse; read-only jobs (profile,
        # deploy) run freely alongside.
        self._mutation_lock = threading.Lock()

        self.impulse: Impulse | None = None
        self.label_map: dict[str, int] = {}
        self.float_graph: Graph | None = None
        self.int8_graph: Graph | None = None
        self.last_training_metrics: dict = {}
        # Monotone model revision: bumped on every committed (re)train.
        # Serving telemetry and OTA firmware both stamp versions as
        # "1.0.<revision>", so the monitoring plane can tell model
        # generations apart.
        self.model_revision = 0
        # Parent-job id -> the EonTuner behind it (tuner and compression
        # sweeps alike), so the API can render (partial) leaderboards and
        # Pareto fronts while the search runs.  Bounded: only the most
        # recent searches are retained.  A running search pins its raw
        # windows + per-DSP feature caches (multi-MB); once its parent
        # job lands the tuner releases both and keeps only trials.
        self.tuners: dict[int, object] = {}
        self.max_retained_tuners = 8
        # Tuner provenance that survives persistence: leaderboards loaded
        # from disk (job id -> rows; live tuners take precedence — see
        # leaderboards()) and the trial a deployed model came from.
        self.saved_leaderboards: dict[int, list[dict]] = {}
        self.applied_trial: dict | None = None
        # Durable control plane hook (repro.core.storage.durable): set on
        # projects owned by a Platform(state_dir=...) — together with
        # ``self.jobs.journal`` — and None everywhere else, so undurable
        # projects pay nothing.
        self._durability = None

    # -- durability notifications -------------------------------------------

    def _durable_meta(self) -> None:
        if self._durability is not None:
            self._durability.meta_changed(self)

    def _durable_commit(self) -> None:
        """Checkpoint point: trained state just committed (called inside
        the job function, so the tree is saved before the job lands)."""
        if self._durability is not None:
            self._durability.committed(self)

    def _submit(self, name: str, fn, mutates: bool = False,
                retries: int = 0, spec: dict | None = None) -> Job:
        """Queue ``fn`` on the project's executor.  A job that ``mutates``
        trained state runs under the mutation lock; ``spec`` is what a
        durable platform needs to resubmit the job after a restart."""

        def locked(job: Job):
            with self._mutation_lock:
                return fn(job)

        return self.jobs.submit(
            name, locked if mutates else fn, retries=retries, spec=spec
        )

    # -- collaboration ------------------------------------------------------

    def add_collaborator(self, username: str) -> None:
        self.collaborators.add(username)
        self._durable_meta()

    def require_member(self, username: str) -> None:
        if username not in self.collaborators:
            raise PermissionError(f"{username} is not a member of project {self.name}")

    def make_public(self, tags: list[str] | None = None) -> None:
        self.public = True
        if tags:
            self.tags = list(tags)
        self._durable_meta()

    # -- impulse design -------------------------------------------------------

    def set_impulse(self, impulse: Impulse) -> None:
        self.impulse = impulse
        # Changing the impulse invalidates trained artifacts.
        self.float_graph = None
        self.int8_graph = None

    # -- training -----------------------------------------------------------------

    def train_async(
        self, seed: int = 0, quantize: bool = True, retries: int = 0
    ) -> Job:
        """Queue a training job and return it immediately (the hosted
        semantics: ``POST .../train`` answers with a job id while the
        worker pool does the work)."""
        if self.impulse is None:
            raise RuntimeError("set an impulse before training")

        def _train(job: Job) -> dict:
            impulse = self.impulse
            job.log("extracting features")
            job.set_progress(0.05)
            x, y, label_map = impulse.features_for_dataset(self.dataset, category="train")
            if len(x) == 0:
                raise RuntimeError("no training data")
            job.check_cancelled()
            job.log(f"training on {len(x)} windows, {len(label_map)} classes")
            job.set_progress(0.2)
            metrics = impulse.learn_block.fit(x, y, seed=seed)
            job.log(f"training metrics: {metrics}")
            job.set_progress(0.8)
            job.check_cancelled()

            # Build everything locally, then commit label_map + graphs
            # together past the last cancellation point: a cancelled or
            # failed retrain must never leave new labels paired with the
            # previous model's graphs (serving zips them positionally).
            float_graph = int8_graph = None
            if isinstance(impulse.learn_block, ClassificationBlock):
                model = impulse.learn_block.model
                float_graph = sequential_to_graph(model, name=self.name)
                if quantize:
                    calib = x[: min(len(x), 128)]
                    int8_graph = quantize_graph(float_graph, calib)
                    job.log("int8 quantization complete")
            self.label_map = label_map
            if float_graph is not None:
                self.float_graph = float_graph
                self.int8_graph = int8_graph
            self.last_training_metrics = metrics
            self.model_revision += 1
            # Commit point: the tree checkpoint runs inside the job (and
            # the mutation lock), so it is durably referenced before the
            # job's terminal state is journaled.
            self._durable_commit()
            return metrics

        return self._submit(
            "train", _train, mutates=True, retries=retries,
            spec={"seed": seed, "quantize": quantize, "retries": retries},
        )

    def train(self, seed: int = 0, quantize: bool = True) -> Job:
        """Train synchronously: queue the job, wait, raise on failure."""
        job = self.train_async(seed=seed, quantize=quantize).wait()
        if job.status != "succeeded":
            raise RuntimeError(f"training job {job.status}: {job.error}")
        return job

    # -- DSP autotune (as a managed job) ------------------------------------

    def autotune_async(self, block_index: int = 0, max_windows: int = 32) -> Job:
        """Queue a DSP-autotune job (paper Sec. 4.2): fit the block's
        hyperparameters to representative training windows, then swap the
        tuned block into the impulse (which invalidates trained graphs)."""
        if self.impulse is None:
            raise RuntimeError("set an impulse before autotuning")
        if not isinstance(self.impulse.input_block, TimeSeriesInput):
            raise RuntimeError("DSP autotune needs a time-series input block")
        if not 0 <= block_index < len(self.impulse.dsp_blocks):
            raise IndexError(f"no DSP block at index {block_index}")

        def _autotune(job: Job) -> dict:
            from repro.dsp import autotune_dsp

            impulse = self.impulse
            block = impulse.dsp_blocks[block_index]
            job.log(f"autotuning DSP block {block_index} ({block.block_type})")
            windows: list = []
            for sample in self.dataset.samples(category="train"):
                windows.extend(impulse.input_block.windows(sample.data))
                if len(windows) >= max_windows:
                    break
            if not windows:
                raise RuntimeError("no training data to autotune against")
            job.set_progress(0.3)
            job.check_cancelled()
            tuned = autotune_dsp(
                block.block_type,
                windows[:max_windows],
                int(impulse.input_block.frequency_hz),
            )
            impulse.dsp_blocks[block_index] = tuned
            # A new feature extractor invalidates trained artifacts.
            self.set_impulse(impulse)
            self._durable_commit()
            job.log(f"tuned config: {tuned.config()}")
            return {"block_index": block_index, "config": tuned.config(),
                    "windows_used": min(len(windows), max_windows)}

        return self._submit(
            "dsp-autotune", _autotune, mutates=True,
            spec={"block_index": block_index, "max_windows": max_windows},
        )

    # -- EON Tuner (distributed trials on the project's executor) -----------

    def _search_windows(self, max_windows: int) -> tuple[np.ndarray, np.ndarray]:
        """Raw (pre-DSP) training windows + integer labels for a search."""
        names = sorted({s.label for s in self.dataset.samples(category="train")})
        label_map = {l: i for i, l in enumerate(names)}
        windows, ys = [], []
        for sample in self.dataset.samples(category="train"):
            for w in self.impulse.input_block.windows(sample.data):
                windows.append(w)
                ys.append(label_map[sample.label])
            if len(windows) >= max_windows:
                break
        if not windows:
            raise RuntimeError("no training data to tune on")
        return np.stack(windows[:max_windows]), np.array(ys[:max_windows])

    def build_tuner(
        self,
        space=None,
        constraints=None,
        train_epochs: int = 6,
        precision: str = "float32",
        engine: str = "tflm",
        max_windows: int = 256,
    ):
        """Assemble an :class:`repro.automl.EonTuner` over this project's
        training windows (raw, pre-DSP — the tuner searches the DSP
        config itself)."""
        from repro.automl import EonTuner, TunerConstraints, kws_search_space
        from repro.core.impulse import TimeSeriesInput

        if self.impulse is None:
            raise RuntimeError("set an impulse before tuning")
        if not isinstance(self.impulse.input_block, TimeSeriesInput):
            raise RuntimeError("the EON Tuner needs a time-series input block")
        raw, ys = self._search_windows(max_windows)
        space = space or kws_search_space(
            sample_rate=int(self.impulse.input_block.frequency_hz)
        )
        return EonTuner(
            raw,
            ys,
            space,
            constraints=constraints or TunerConstraints(),
            precision=precision,
            engine=engine,
            train_epochs=train_epochs,
        )

    def tune_async(
        self,
        n_trials: int = 6,
        max_inflight: int = 4,
        seed: int = 0,
        space=None,
        constraints=None,
        train_epochs: int = 6,
        retries: int = 0,
        placement: str = "thread",
    ) -> Job:
        """Queue a distributed EON Tuner search: one child job per trial
        on this project's executor, ``max_inflight`` trials in flight.
        Returns the parent job; the tuner behind it is kept in
        ``self.tuners[job.job_id]`` for leaderboard rendering and
        :meth:`apply_tuner_result`.  The search commits nothing to the
        project — applying the winner is an explicit second step — so a
        cancelled or failed search leaves project state untouched."""
        tuner = self.build_tuner(
            space=space, constraints=constraints, train_epochs=train_epochs
        )
        return self._run_sweep(
            tuner, n_trials=n_trials, max_inflight=max_inflight, seed=seed,
            retries=retries, placement=placement,
        )

    def _run_sweep(self, tuner, **run_kwargs) -> Job:
        """Start ``tuner.run_parallel`` on this project's executor and
        retain the tuner under its parent job's id."""
        job = tuner.run_parallel(executor=self.jobs, **run_kwargs)
        self.tuners[job.job_id] = tuner
        while len(self.tuners) > self.max_retained_tuners:
            self.tuners.pop(next(iter(self.tuners)))
        return job

    def apply_tuner_result(self, job_id: int, rank: int = 1) -> None:
        """Swap the impulse to a finished tuner job's ``rank``-th trial
        (1 = best) — the "update the project to this configuration" flow."""
        tuner = self.tuners.get(job_id)
        if tuner is None:
            raise KeyError(f"no tuner ran as job {job_id}")
        if not tuner.trials:
            raise RuntimeError(
                f"tuner job {job_id} committed no trials (cancelled, failed "
                "or empty search) — nothing to apply"
            )
        trained = sorted(
            (t for t in tuner.trials if t.trained and t.meets_constraints),
            key=lambda t: -(t.accuracy or 0),
        )
        if not 1 <= rank <= len(trained):
            raise IndexError(
                f"rank {rank} out of range (tuner has {len(trained)} "
                "feasible trained trials)"
            )
        trial = trained[rank - 1]
        tuner.apply_to_project(self, trial)
        # Provenance: a reloaded project must know which trial its
        # deployed model came from (persisted by repro.core.storage).
        self.applied_trial = {
            "job_id": job_id,
            "rank": rank,
            "dsp": trial.dsp_name,
            "model": trial.model_name,
            "accuracy": None if trial.accuracy is None else float(trial.accuracy),
            "dsp_spec": dict(trial.dsp_spec),
            "model_spec": dict(trial.model_spec),
            "total_ms": float(trial.total_ms),
            "ram_kb": float(trial.ram_kb),
            "flash_kb": float(trial.flash_kb),
        }
        self._durable_commit()

    def leaderboards(self) -> dict[int, list[dict]]:
        """Tuner leaderboards by parent-job id: rows from live tuners
        merged over any loaded from disk (live wins on collision)."""
        merged = dict(self.saved_leaderboards)
        for job_id, tuner in self.tuners.items():
            if getattr(tuner, "trials", None):
                merged[job_id] = tuner.leaderboard()
        return merged

    # -- compression search (repro.compress) --------------------------------

    def compress_async(
        self,
        n_trials: int = 6,
        max_inflight: int = 4,
        seed: int = 0,
        constraints=None,
        precisions: tuple = ("int8", "int4", "f32"),
        sparsities: tuple = (0.0, 0.25, 0.5),
        train_epochs: int = 6,
        engine: str = "tflm",
        max_windows: int = 256,
        retries: int = 0,
        placement: str = "thread",
    ) -> Job:
        """Queue a joint compression search over the *current* impulse
        configuration: an EON Tuner sweep whose space is per-layer weight
        precisions (int8/int4/f32) and channel sparsities, Pareto-scored
        on accuracy vs RAM/flash/latency against a uniform-int8
        baseline.  The baseline is the sweep's first trial job, so this
        call trains nothing.  The tuner is kept in
        ``self.tuners[job.job_id]`` like :meth:`tune_async`'s (its
        ``front()`` renders the Pareto rows); nothing is committed to
        the project.
        """
        if self.impulse is None:
            raise RuntimeError("set an impulse before compressing")
        if not self.impulse.dsp_blocks:
            raise RuntimeError("the impulse has no DSP block")
        learn = self.impulse.learn_block
        if getattr(learn, "expert_factory", None) is not None or not hasattr(
            learn, "architecture"
        ):
            raise RuntimeError(
                "compression search needs a zoo-architecture "
                "classification block"
            )
        dsp_block = self.impulse.dsp_blocks[0]
        dsp_spec = {"type": dsp_block.block_type, **dsp_block.config()}
        model_spec = {"architecture": learn.architecture,
                      **getattr(learn, "arch_kwargs", {})}
        tuner = self.build_tuner(
            constraints=constraints, train_epochs=train_epochs,
            engine=engine, max_windows=max_windows,
        )
        tuner.space = tuner.compression_space(
            dsp_spec, model_spec, precisions=precisions, sparsities=sparsities
        )
        return self._run_sweep(
            tuner, n_trials=n_trials, max_inflight=max_inflight, seed=seed,
            retries=retries, placement=placement,
        )

    def profile_async(
        self, device_key: str, precision: str = "int8", engine: str = "eon"
    ) -> Job:
        """Queue a profiling job; result is the :meth:`profile` dict."""

        def _run(job: Job) -> dict:
            job.log(f"profiling for {device_key} ({precision}/{engine})")
            return self.profile(device_key, precision=precision, engine=engine)

        return self._submit("profile", _run)

    def deploy_async(
        self, target: str = "cpp", engine: str = "eon", precision: str = "int8"
    ) -> Job:
        """Queue a deployment-build job; result holds the artifact and
        its manifest."""

        def _run(job: Job) -> dict:
            job.log(f"building {target} artifact ({precision}/{engine})")
            artifact = self.deploy(target=target, engine=engine, precision=precision)
            job.log(f"artifact built: {artifact.total_bytes()} bytes")
            # The job result crosses the API boundary, so keep it
            # JSON-safe: the manifest, not the artifact object itself.
            return {"manifest": artifact.manifest()}

        return self._submit("deploy", _run)

    # -- evaluation ------------------------------------------------------------------

    def test(self, precision: str = "float32") -> ClassificationReport:
        """Evaluate on the holdout split ("Model testing" in the Studio).

        Scores the committed ``precision`` graph through its one plan —
        the model serving, EIM and flashed firmware run — never the live
        ``repro.nn`` model, whose forward pass is for training only.
        """
        if self.impulse is None:
            raise RuntimeError("no impulse")
        if not self.label_map:
            raise RuntimeError("project is not trained; run train() first")
        x, y, _ = self.impulse.features_for_dataset(
            self.dataset, category="test", label_map=self.label_map
        )
        if len(x) == 0:
            raise RuntimeError("no test data")
        labels = [l for l, _ in sorted(self.label_map.items(), key=lambda kv: kv[1])]
        preds = self.probabilities(x, precision).argmax(axis=1)
        return evaluate_classifier(y, preds, labels)

    def trained_graph(self, precision: str) -> Graph:
        """The committed graph of ``precision`` ("float32" or "int8")."""
        if precision not in PRECISIONS:
            raise ValueError(f"unknown precision {precision!r}; expected one of {PRECISIONS}")
        graph = self.int8_graph if precision == "int8" else self.float_graph
        if graph is None:
            raise RuntimeError(f"no trained {precision} model")
        return graph

    def probabilities(self, x: np.ndarray, precision: str = "float32") -> np.ndarray:
        """Class probabilities of a batch of feature windows, from the
        committed ``precision`` graph's plan."""
        graph = self.trained_graph(precision)
        return dequantize_output(graph, run_graph(graph, x))

    def classify_sample(self, data: np.ndarray) -> list[tuple[str, float]]:
        """Live classification of one raw recording (mean over windows)."""
        if self.impulse is None:
            raise RuntimeError("no impulse")
        from repro.data.dataset import Sample

        feats = self.impulse.features_for_sample(Sample(data=data, label="?"))
        probs = self.probabilities(feats).mean(axis=0)
        labels = [l for l, _ in sorted(self.label_map.items(), key=lambda kv: kv[1])]
        return sorted(zip(labels, probs.tolist()), key=lambda kv: -kv[1])

    # -- profiling --------------------------------------------------------------------

    def profile(self, device_key: str, precision: str = "int8", engine: str = "eon") -> dict:
        """Latency + memory estimates for a device target (Sec. 4.4)."""
        graph = self.trained_graph(precision)
        device = get_device(device_key)
        lat = LatencyEstimator(device)
        mem = MemoryEstimator(engine=engine)
        dsp_block = self.impulse.dsp_blocks[0]
        raw_shape = self.impulse.input_block.raw_shape()
        breakdown = lat.end_to_end(graph, dsp_block, raw_shape)
        memory = mem.estimate(graph, dsp_block, raw_shape)
        return {
            "device": device.name,
            "precision": precision,
            "engine": engine,
            "dsp_ms": breakdown.dsp_ms,
            "inference_ms": breakdown.inference_ms,
            "total_ms": breakdown.total_ms,
            "ram_kb": memory.ram_kb,
            "flash_kb": memory.flash_kb,
            "fits": mem.fits(graph, device, dsp_block, raw_shape),
        }

    # -- deployment ---------------------------------------------------------------------

    def deploy(self, target: str = "cpp", engine: str = "eon", precision: str = "int8"):
        """Export a deployment artifact (Sec. 4.6)."""
        from repro.deploy import build_artifact

        graph = self.trained_graph(precision)
        if self.impulse is None:
            raise RuntimeError("train before deploying")
        return build_artifact(
            target=target,
            graph=graph,
            impulse=self.impulse,
            label_map=self.label_map,
            engine=engine,
            project_name=self.name,
        )

    # -- performance calibration ------------------------------------------------------

    def calibrate(
        self,
        stream: np.ndarray,
        events: list[tuple[float, float]],
        target_label: str,
        sample_rate: float,
        window_s: float = 1.0,
        stride_s: float = 0.25,
        population: int = 16,
        generations: int = 6,
        seed: int = 0,
    ) -> list:
        """Performance calibration (Sec. 4.4): run the trained impulse over
        a stream with known events and return the FAR/FRR Pareto front of
        post-processing configurations."""
        if self.impulse is None or not self.label_map:
            raise RuntimeError("train before calibrating")
        if target_label not in self.label_map:
            raise KeyError(f"unknown label {target_label!r}")
        from repro.calibration import calibrate as ga_calibrate
        from repro.calibration import continuous_probabilities

        def classify(window: np.ndarray) -> np.ndarray:
            feats = self.impulse.features_for_window(window)
            return self.probabilities(feats[None, ...])[0]

        probs, times = continuous_probabilities(
            classify, np.asarray(stream, np.float32), sample_rate,
            window_s=window_s, stride_s=stride_s,
        )
        return ga_calibrate(
            probs, times, events, self.label_map[target_label],
            stream_duration_s=len(stream) / sample_rate,
            population=population, generations=generations, seed=seed,
        )

    # -- versioning ----------------------------------------------------------------------

    def commit_version(self, message: str = "") -> ProjectVersion:
        data_version = self.dataset_versions.commit(self.dataset, message=message)
        version = ProjectVersion(
            version_id=len(self.project_versions) + 1,
            message=message,
            dataset_version=data_version,
            impulse_spec=self.impulse.to_dict() if self.impulse else None,
            public=self.public,
        )
        self.project_versions.append(version)
        return version

    def restore_version(self, version_id: int) -> None:
        n = len(self.project_versions)
        if not 1 <= version_id <= n:
            raise KeyError(f"no project version {version_id}; valid ids are 1..{n}")
        version = self.project_versions[version_id - 1]
        self.dataset = self.dataset_versions.checkout(
            version.dataset_version, name=f"{self.name}-data"
        )
        self.ingestion = IngestionService(self.dataset, hmac_key=self.ingestion.hmac_key)
        if version.impulse_spec:
            self.set_impulse(Impulse.from_dict(version.impulse_spec))

    def clone(self, new_owner: str) -> "Project":
        """Clone a public project (the community workflow of Sec. 6.3)."""
        if not self.public:
            raise PermissionError("only public projects can be cloned")
        twin = Project(name=f"{self.name}-clone", owner=new_owner)
        for sample in self.dataset:
            import copy

            dup = copy.deepcopy(sample)
            twin.dataset.add(dup, category=dup.category)
        if self.impulse is not None:
            twin.set_impulse(Impulse.from_dict(self.impulse.to_dict()))
        return twin
