"""The EON Tuner: constraint-aware random search over DSP x model configs.

For each candidate the tuner (1) prices resources with the profiler — the
"heuristic to quickly estimate the performance of the configurations" the
paper describes — before any training happens, (2) skips training for
configurations that cannot fit the target, and (3) trains survivors briefly
to measure accuracy.  Results render as the Table 3 / Figure 3 view.

A compression sweep is the same search over a
:class:`~repro.automl.space.CompressionSpace`: one fixed (dsp, model)
pair whose per-layer weight precisions and channel sparsities are the
axes.  Its uniform-int8 baseline is planned as the sweep's first trial,
with the sweep's own seed, so it trains in a trial job like any other
and :meth:`EonTuner.front` measures every reduction against it.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.automl.space import CompressionSpace
from repro.compress import apply_compression, prunable_layers, weighted_ops
from repro.dsp.base import DSPBlock, get_dsp_block
from repro.graph import sequential_to_graph
from repro.nn import Trainer, TrainingConfig
from repro.nn.architectures import ARCHITECTURES, describe
from repro.profile import LatencyEstimator, MemoryEstimator, get_device
from repro.runtime.executor import dequantize_output, run_graph
from repro.utils.rng import ensure_rng


@dataclass
class TunerConstraints:
    """Target-device budget the search must respect (Fig. 3, purple box)."""

    device_key: str = "nano33ble"
    max_ram_kb: float | None = None  # default: device RAM minus firmware
    max_flash_kb: float | None = None
    max_latency_ms: float | None = None

    def resolved(self) -> "TunerConstraints":
        device = get_device(self.device_key)
        if device.firmware_ram_bytes >= device.ram_bytes:
            raise ValueError(
                f"firmware RAM overhead ({device.firmware_ram_bytes} B) meets "
                f"or exceeds device RAM ({device.ram_bytes} B) on "
                f"{device.key!r}: no budget remains for a model"
            )
        if device.firmware_flash_bytes >= device.flash_bytes:
            raise ValueError(
                f"firmware flash overhead ({device.firmware_flash_bytes} B) "
                f"meets or exceeds device flash ({device.flash_bytes} B) on "
                f"{device.key!r}: no budget remains for a model"
            )
        return TunerConstraints(
            device_key=self.device_key,
            max_ram_kb=self.max_ram_kb
            if self.max_ram_kb is not None
            else (device.ram_bytes - device.firmware_ram_bytes) / 1024.0,
            max_flash_kb=self.max_flash_kb
            if self.max_flash_kb is not None
            else (device.flash_bytes - device.firmware_flash_bytes) / 1024.0,
            max_latency_ms=self.max_latency_ms,
        )


@dataclass
class TunerTrial:
    """One explored configuration — a row of Table 3."""

    dsp_spec: dict
    model_spec: dict
    dsp_name: str
    model_name: str
    accuracy: float | None = None
    dsp_ms: float = 0.0
    nn_ms: float = 0.0
    dsp_ram_kb: float = 0.0
    nn_ram_kb: float = 0.0
    flash_kb: float = 0.0
    trained: bool = False
    meets_constraints: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return self.dsp_ms + self.nn_ms

    @property
    def ram_kb(self) -> float:
        return self.dsp_ram_kb + self.nn_ram_kb


def pareto_front(trials: list[TunerTrial]) -> list[TunerTrial]:
    """Non-dominated trained trials over (accuracy up; RAM, flash and
    latency down).  A trial is dominated when another is at least as
    good on every axis and strictly better on one.  Sorted by
    descending accuracy."""
    pool = [t for t in trials if t.trained and t.accuracy is not None]

    def dominates(u: TunerTrial, t: TunerTrial) -> bool:
        as_good = (u.accuracy >= t.accuracy and u.ram_kb <= t.ram_kb
                   and u.flash_kb <= t.flash_kb and u.total_ms <= t.total_ms)
        better = (u.accuracy > t.accuracy or u.ram_kb < t.ram_kb
                  or u.flash_kb < t.flash_kb or u.total_ms < t.total_ms)
        return as_good and better

    front = [t for t in pool if not any(dominates(u, t) for u in pool)]
    return sorted(front, key=lambda t: -t.accuracy)


def _dsp_block(dsp_spec: dict) -> DSPBlock:
    """The DSP block a flat ``{"type": ..., **config}`` spec names."""
    return get_dsp_block({"type": dsp_spec["type"],
                          "config": {k: v for k, v in dsp_spec.items()
                                     if k != "type"}})


class EonTuner:
    """Joint DSP/NN search for one project's data."""

    def __init__(
        self,
        raw_windows: np.ndarray,
        labels: np.ndarray,
        space,
        constraints: TunerConstraints | None = None,
        precision: str = "float32",
        engine: str = "tflm",
        train_epochs: int = 12,
        batch_size: int = 16,
        val_fraction: float = 0.25,
    ):
        # The training windows; None once a landed parallel search has
        # released them (see release()).
        self.raw: np.ndarray | None = np.asarray(raw_windows, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.space = space
        self.constraints = (constraints or TunerConstraints()).resolved()
        self.precision = precision
        self.engine = engine
        self.train_epochs = train_epochs
        self.batch_size = batch_size
        self.val_fraction = val_fraction
        self.trials: list[TunerTrial] = []
        self._feature_cache: dict[str, np.ndarray] = {}
        # Parallel trials share the feature cache; the events dict lets
        # one thread own each (expensive) transform while others wait.
        self._cache_lock = threading.Lock()
        self._cache_events: dict[str, threading.Event] = {}

    def release(self) -> None:
        """Drop the training windows and the DSP feature cache.  Results
        (``trials``, :meth:`leaderboard`, :meth:`apply_to_project`) need
        neither, and a search kept for its leaderboard would otherwise
        pin megabytes per project; evaluating further trials on a
        released tuner raises :class:`RuntimeError`."""
        with self._cache_lock:
            self.raw = None
            self._feature_cache.clear()

    # -- internals ----------------------------------------------------------

    def _require_windows(self) -> None:
        if self.raw is None:
            raise RuntimeError(
                "this tuner's search has landed and released its training "
                "windows; build a new tuner to evaluate more configurations"
            )

    def _features(self, dsp_spec: dict) -> tuple[DSPBlock, np.ndarray]:
        key = json.dumps(dsp_spec, sort_keys=True)
        block = _dsp_block(dsp_spec)
        while True:
            with self._cache_lock:
                if key in self._feature_cache:
                    return block, self._feature_cache[key]
                event = self._cache_events.get(key)
                if event is None:
                    event = self._cache_events[key] = threading.Event()
                    owner = True
                else:
                    owner = False
            if owner:
                try:
                    features = block.transform_batch(self.raw)
                except BaseException:
                    with self._cache_lock:
                        del self._cache_events[key]
                    event.set()  # wake waiters so one of them retries
                    raise
                with self._cache_lock:
                    self._feature_cache[key] = features
                event.set()
                return block, features
            event.wait()  # owner finished (or failed) — re-check the cache

    def _build_model(self, model_spec: dict, input_shape, n_classes, seed):
        spec = dict(model_spec)
        arch = spec.pop("architecture")
        factory = ARCHITECTURES[arch]
        if arch in ("mobilenet_v1", "mobilenet_v2", "cifar_cnn") and len(input_shape) == 2:
            input_shape = input_shape + (1,)
        return factory(input_shape, n_classes, seed=seed, **spec), input_shape

    def compression_space(
        self,
        dsp_spec: dict,
        model_spec: dict,
        precisions: tuple = ("int8", "int4", "f32"),
        sparsities: tuple = (0.0, 0.25, 0.5),
    ) -> CompressionSpace:
        """The per-layer compression axes of one fixed (dsp, model) pair.

        Builds the architecture once, untrained, on the feature shape of
        one window, to learn which weighted layers exist and which prune
        safely.  Assign the result to :attr:`space` to make this tuner's
        sweeps compression sweeps.
        """
        self._require_windows()
        feature_shape = _dsp_block(dsp_spec).transform(self.raw[0]).shape
        n_classes = int(self.labels.max()) + 1
        model, _ = self._build_model(
            dict(model_spec), tuple(feature_shape), n_classes, seed=0
        )
        graph = sequential_to_graph(model)
        return CompressionSpace(
            dsp_spec=dict(dsp_spec),
            model_spec=dict(model_spec),
            precision_layers=list(range(len(weighted_ops(graph)))),
            sparsity_layers=prunable_layers(graph),
            precisions=tuple(precisions),
            sparsities=tuple(sparsities),
        )

    def _price(
        self, block: DSPBlock, model, feature_shape, compress_spec=None
    ) -> dict:
        """Resource heuristic: latency + memory from the profiler, before
        (and independent of) training.  A compression spec prices the
        pruned/mixed-precision graph instead — channel counts and
        precision assignments (what RAM/flash/latency depend on) are
        already fixed before training.  An empty spec on an int8 tuner
        is the uniform-int8 graph."""
        graph = sequential_to_graph(model)
        if compress_spec or self.precision == "int8":
            rng = ensure_rng(0)
            calib = rng.standard_normal((8,) + tuple(feature_shape)).astype(np.float32)
            graph = apply_compression(graph, compress_spec or {}, calib)
        device = get_device(self.constraints.device_key)
        lat = LatencyEstimator(device)
        mem = MemoryEstimator(engine=self.engine)
        raw_shape = tuple(self.raw.shape[1:])
        est = mem.estimate(graph)
        return {
            "dsp_ms": lat.dsp_ms(block, raw_shape),
            "nn_ms": lat.inference_ms(graph),
            "dsp_ram_kb": block.buffer_bytes(raw_shape) / 1024.0,
            "nn_ram_kb": est.ram_kb,
            "flash_kb": est.flash_kb,
        }

    def _check(self, trial: TunerTrial) -> bool:
        c = self.constraints
        ok = True
        if c.max_ram_kb is not None and trial.ram_kb > c.max_ram_kb:
            ok = False
        if c.max_flash_kb is not None and trial.flash_kb > c.max_flash_kb:
            ok = False
        if c.max_latency_ms is not None and trial.total_ms > c.max_latency_ms:
            ok = False
        return ok

    def evaluate_config(
        self,
        dsp_spec: dict,
        model_spec: dict,
        seed: int = 0,
    ) -> TunerTrial:
        """Price + (maybe) train one configuration, recording the trial."""
        trial = self._evaluate_trial(dsp_spec, model_spec, seed=seed)
        self.trials.append(trial)
        return trial

    def _evaluate_trial(
        self,
        dsp_spec: dict,
        model_spec: dict,
        seed: int = 0,
    ) -> TunerTrial:
        """One trial's work, without touching ``self.trials`` — safe to run
        concurrently from child jobs (results are committed in submission
        order by the parent job's finalizer)."""
        self._require_windows()
        block, features = self._features(dsp_spec)
        n_classes = int(self.labels.max()) + 1
        # ``compress.*`` keys ride inside the model spec (so trial plans,
        # dedupe keys and worker frames need no protocol changes) but are
        # not architecture kwargs — split them out before building.
        compress_spec = {
            k: v for k, v in model_spec.items() if k.startswith("compress.")
        }
        base_spec = {
            k: v for k, v in model_spec.items() if not k.startswith("compress.")
        }
        model, in_shape = self._build_model(
            base_spec, tuple(features.shape[1:]), n_classes, seed
        )
        feats = features.reshape((len(features),) + in_shape)

        trial = TunerTrial(
            dsp_spec=dict(dsp_spec),
            model_spec=dict(model_spec),
            dsp_name=repr(block) if hasattr(block, "__repr__") else block.describe(),
            model_name=describe(model),
            **self._price(block, model, in_shape, compress_spec),
        )
        if compress_spec:
            trial.extra["compress"] = dict(compress_spec)
        trial.meets_constraints = self._check(trial)
        if trial.meets_constraints:
            rng = ensure_rng(seed)
            order = rng.permutation(len(feats))
            n_val = max(1, int(len(feats) * self.val_fraction))
            val_idx, train_idx = order[:n_val], order[n_val:]
            cfg = TrainingConfig(
                epochs=self.train_epochs,
                batch_size=self.batch_size,
                learning_rate=3e-3,
                validation_split=0.0,
                seed=seed,
            )
            Trainer(model).fit(
                feats[train_idx], self.labels[train_idx], cfg,
                x_val=feats[val_idx], y_val=self.labels[val_idx],
            )
            # Held-out accuracy of the graph the trial would ship, run through
            # its plan: a compressed trial is magnitude-pruned and quantized
            # per its precision map, calibrated on training windows.
            graph = sequential_to_graph(model)
            if compress_spec:
                calib = feats[train_idx][:64] if len(train_idx) else feats[val_idx]
                graph = apply_compression(graph, compress_spec, calib)
            preds = dequantize_output(graph, run_graph(graph, feats[val_idx])).argmax(axis=-1)
            trial.accuracy = float((preds == self.labels[val_idx]).mean())
            trial.trained = True
        return trial

    def _trial_pool(self, size: int):
        """A worker-process pool whose initializer re-sends the tuner's
        evaluation context (``tuner_init``) once per worker lifetime —
        including respawns after a mid-trial death."""
        from dataclasses import asdict

        from repro.core.workers import WorkerPool
        from repro.core.workers.frames import pack_array

        init_params = {
            "constraints": asdict(self.constraints),
            "precision": self.precision,
            "engine": self.engine,
            "train_epochs": self.train_epochs,
            "batch_size": self.batch_size,
            "val_fraction": self.val_fraction,
        }

        def prime(handle):
            # Packed per spawn, not once up front: a blob captured here
            # would outlive release() for as long as the job history
            # keeps the trial closures (and so this pool) alive.
            raw_spec, raw_blob = pack_array(self.raw)
            labels_spec, labels_blob = pack_array(self.labels)
            handle.request(
                "tuner_init",
                dict(init_params, raw=raw_spec, labels=labels_spec),
                (raw_blob, labels_blob), timeout=120.0,
            )

        return WorkerPool(size=size, initializer=prime, name="tuner")

    # -- search strategies ----------------------------------------------------

    def _sample_plan(
        self, n_trials: int, seed: int
    ) -> list[tuple[dict, dict, int]]:
        """Draw the trial plan exactly as serial :meth:`run` does.

        Sampling consumes the search rng in the same order (config draw,
        dedupe, then per-trial seed draw), so a plan executed in parallel
        is bit-identical to the serial sweep.

        A compression sweep plans its uniform-int8 baseline first, under
        the sweep's own seed, unless this tuner already evaluated it; a
        sampled draw equal to the baseline is a duplicate.
        """
        self._require_windows()
        rng = ensure_rng(seed)
        seen: set[str] = set()
        attempts = 0
        planned: list[tuple[dict, dict, int]] = []
        base = self.space.baseline()
        if base is not None:
            seen.add(json.dumps(list(base), sort_keys=True))
            if len(self.trials) < n_trials and self.baseline_trial() is None:
                planned.append((*base, seed))
        while (
            len(self.trials) + len(planned) < n_trials
            and attempts < n_trials * 10
        ):
            attempts += 1
            dsp_spec, model_spec = self.space.sample(rng)
            key = json.dumps([dsp_spec, model_spec], sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            planned.append((dsp_spec, model_spec, int(rng.integers(1 << 31))))
        return planned

    def baseline_trial(
        self, trials: list[TunerTrial] | None = None
    ) -> TunerTrial | None:
        """The evaluated uniform-int8 baseline of a compression sweep
        among ``trials`` (default: the committed ones), or None."""
        base = self.space.baseline()
        if base is None:
            return None
        pool = self.trials if trials is None else trials
        return next(
            (t for t in pool if (t.dsp_spec, t.model_spec) == base), None
        )

    def run(self, n_trials: int = 12, seed: int = 0) -> list[TunerTrial]:
        """Random search (the shipping EON Tuner algorithm)."""
        for dsp_spec, model_spec, trial_seed in self._sample_plan(n_trials, seed):
            self.evaluate_config(dsp_spec, model_spec, seed=trial_seed)
        return self.trials

    def run_parallel(
        self,
        n_trials: int = 12,
        *,
        executor,
        max_inflight: int = 4,
        seed: int = 0,
        retries: int = 0,
        placement: str = "thread",
    ):
        """Distributed random search: one child job per trial on a
        :class:`repro.core.jobs.JobExecutor`, capped at ``max_inflight``
        concurrent trials (the paper's "parallel search" on the hosted
        cluster).  Returns the **parent job** immediately; ``wait()`` on
        it, stream its logs, or cancel it (queued trials are dropped,
        in-flight trials drain, and nothing is committed).

        Per-trial seeds are fixed at planning time, so the committed
        leaderboard is order-independent and bit-identical to a serial
        :meth:`run` with the same ``seed``.  Trials are committed to
        ``self.trials`` (in plan order) only when every trial succeeded.
        However the parent job lands — committed, cancelled or partially
        failed — the tuner then calls :meth:`release`: it keeps serving
        its results but holds no training data.

        ``placement="process"`` evaluates trials in worker *processes*
        (a :class:`repro.core.workers.WorkerPool` of ``max_inflight``
        workers, primed once per worker lifetime with the dataset via
        ``tuner_init``).  Results stay bit-identical — trial seeds are
        fixed at planning time and trial floats round-trip exactly
        through the JSON frame protocol.  A worker dying mid-trial fails
        that child job with ``WorkerDied``; the job's ``retries`` budget
        re-runs it on a freshly-spawned (re-primed) worker.
        """
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if placement not in ("thread", "process"):
            raise ValueError(
                f"unknown placement {placement!r}; expected 'thread' or 'process'"
            )
        planned = self._sample_plan(n_trials, seed)
        total = len(planned)
        pool = None
        if placement == "process":
            pool = self._trial_pool(max_inflight)

        def on_child_done(parent, child):
            done = sum(1 for c in executor.children(parent.job_id) if c.done)
            parent.set_progress(done / total if total else 1.0)
            trial = child.result if child.status == "succeeded" else None
            if trial is not None:
                parent.log(
                    f"trial {child.name}: acc="
                    f"{'-' if trial.accuracy is None else f'{trial.accuracy:.3f}'} "
                    f"({'trained' if trial.trained else 'screened out'}) "
                    f"[{done}/{total}]"
                )
            else:
                parent.log(f"trial {child.name}: {child.status} [{done}/{total}]")

        def finalize(parent, children):
            if pool is not None:
                pool.close()
            self.release()
            completed = [c for c in children if c.status == "succeeded"]
            if parent.cancel_requested or len(completed) != len(children):
                # Cancelled or partially-failed search: commit nothing —
                # the tuner (and any project built on it) is untouched.
                return {
                    "committed": False,
                    "trials_completed": len(completed),
                    "trials_total": len(children),
                }
            self.trials.extend(c.result for c in children)  # plan order
            best = self.best_trial() if self.trials else None
            return {
                "committed": True,
                "trials_total": len(children),
                "trials_trained": sum(1 for t in self.trials if t.trained),
                "best_accuracy": None if best is None else best.accuracy,
                "leaderboard": self.leaderboard(),
            }

        parent = executor.spawn_parent(
            f"eon-tuner ({total} trials, {max_inflight} in flight)",
            finalize=finalize,
            on_child_done=on_child_done,
            fail_on_child_failure=True,
            max_inflight=max_inflight,
        )
        for i, (dsp_spec, model_spec, trial_seed) in enumerate(planned):
            def _trial(job, dsp_spec=dsp_spec, model_spec=model_spec,
                       trial_seed=trial_seed):
                job.log(
                    f"evaluating {dsp_spec['type']} x "
                    f"{model_spec['architecture']} (seed {trial_seed})"
                    + (" [process]" if pool is not None else "")
                )
                job.check_cancelled()
                if pool is None:
                    return self._evaluate_trial(dsp_spec, model_spec, seed=trial_seed)
                result, _ = pool.run(
                    "run_trial",
                    {"dsp_spec": dsp_spec, "model_spec": model_spec,
                     "seed": trial_seed},
                )
                return TunerTrial(**result["trial"])

            executor.submit(
                f"tuner-trial-{i}", _trial, retries=retries, parent=parent,
            )
        executor.seal_parent(parent)
        return parent

    def best_trial(self) -> TunerTrial | None:
        """The most accurate trained, in-budget trial.

        Returns ``None`` when trials ran but none both trained and met
        the constraints; raises :class:`RuntimeError` when no trials have
        run at all (e.g. ``run(n_trials=0)``) — an empty search has no
        leaderboard to pick from.
        """
        if not self.trials:
            raise RuntimeError(
                "no trials have been run; call run()/run_parallel() with "
                "n_trials > 0 before asking for the best trial"
            )
        trained = [t for t in self.trials if t.trained and t.meets_constraints]
        if not trained:
            return None
        return max(trained, key=lambda t: t.accuracy)

    def leaderboard(self, trials: list[TunerTrial] | None = None) -> list[dict]:
        """JSON-safe leaderboard rows (accuracy-sorted trained trials) —
        the ``GET /tuner/<jid>`` payload; pass ``trials`` to rank a
        partial set (e.g. completed child-job results mid-search)."""
        pool = self.trials if trials is None else trials
        rows = sorted(
            (t for t in pool if t.trained), key=lambda t: -(t.accuracy or 0)
        )
        return [
            {
                "rank": i + 1,
                "dsp": t.dsp_name,
                "model": t.model_name,
                "accuracy": None if t.accuracy is None else float(t.accuracy),
                "dsp_ms": float(t.dsp_ms),
                "nn_ms": float(t.nn_ms),
                "total_ms": float(t.total_ms),
                "ram_kb": float(t.ram_kb),
                "flash_kb": float(t.flash_kb),
                "meets_constraints": bool(t.meets_constraints),
            }
            for i, t in enumerate(rows)
        ]

    def front(self, trials: list[TunerTrial] | None = None) -> list[dict]:
        """JSON-safe Pareto rows (:func:`pareto_front`), sorted by
        descending accuracy; pass ``trials`` to rank a partial set.

        ``ram_flash_kb`` is the model footprint (NN RAM + flash, the
        quantities compression moves).  Once a compression sweep's
        baseline is among ``trials``, every row also carries
        ``ram_flash_reduction`` and ``accuracy_drop_pp`` relative to it.
        """
        pool = self.trials if trials is None else trials
        base = self.baseline_trial(pool)
        base_rf = (
            base.nn_ram_kb + base.flash_kb
            if base is not None and base.trained
            else None
        )
        rows = []
        for t in pareto_front(pool):
            rf = t.nn_ram_kb + t.flash_kb
            row = {
                "spec": dict(t.extra.get("compress", {})),
                "baseline": t is base,
                "accuracy": float(t.accuracy),
                "nn_ram_kb": float(t.nn_ram_kb),
                "flash_kb": float(t.flash_kb),
                "ram_flash_kb": float(rf),
                "total_ms": float(t.total_ms),
                "meets_constraints": bool(t.meets_constraints),
            }
            if base_rf:
                row["ram_flash_reduction"] = float(1.0 - rf / base_rf)
                row["accuracy_drop_pp"] = float(
                    (base.accuracy - t.accuracy) * 100.0
                )
            rows.append(row)
        return rows

    def smallest_within(
        self,
        max_accuracy_drop_pp: float = 2.0,
        trials: list[TunerTrial] | None = None,
    ) -> dict | None:
        """The :meth:`front` row with the largest footprint reduction
        whose accuracy stays within ``max_accuracy_drop_pp`` of the
        baseline and which meets the device constraints."""
        candidates = [
            r for r in self.front(trials)
            if r.get("accuracy_drop_pp", float("inf")) <= max_accuracy_drop_pp
            and r["meets_constraints"]
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r["ram_flash_reduction"])

    def apply_to_project(self, project, trial: TunerTrial | None = None) -> None:
        """Update a project's impulse to a tuner result — the "update the
        associated project to this configuration" flow of Sec. 4.7.

        A compression sweep's result is refused: its trials differ only
        in ``compress.*`` keys, which an impulse cannot carry, so
        applying one would discard the trained model for the
        uncompressed architecture it already has.
        """
        from repro.core.impulse import Impulse
        from repro.core.learn_blocks import ClassificationBlock

        if self.space.baseline() is not None:
            raise RuntimeError(
                "a compression sweep's result cannot be applied to the "
                "impulse: there is no compressed deploy path yet"
            )
        trial = trial or self.best_trial()
        if trial is None:
            raise RuntimeError("no feasible trained configuration to apply")
        if project.impulse is None:
            raise RuntimeError("project has no impulse to update")
        dsp = _dsp_block(trial.dsp_spec)
        model_spec = {
            k: v for k, v in trial.model_spec.items()
            if not k.startswith("compress.")
        }
        arch = model_spec.pop("architecture")
        learn = ClassificationBlock(architecture=arch, arch_kwargs=model_spec)
        project.set_impulse(
            Impulse(project.impulse.input_block, [dsp], learn)
        )

    # -- presentation -------------------------------------------------------------

    def results_table(self) -> str:
        """The Table 3 rendering: one row per trained configuration."""
        header = (
            f"{'Preprocessing':<26} {'Model':<26} {'Acc.':>5} "
            f"{'DSP ms':>8} {'NN ms':>8} {'Total':>8} "
            f"{'RAM kB':>8} {'Flash kB':>9}"
        )
        lines = [header, "-" * len(header)]
        if not self.trials:
            lines.append("(no trials run — call run()/run_parallel() first)")
            return "\n".join(lines)
        rows = sorted(
            (t for t in self.trials if t.trained),
            key=lambda t: -(t.accuracy or 0),
        )
        for t in rows:
            lines.append(
                f"{t.dsp_name:<26} {t.model_name:<26} "
                f"{(t.accuracy or 0) * 100:>4.0f}% "
                f"{t.dsp_ms:>8.0f} {t.nn_ms:>8.0f} {t.total_ms:>8.0f} "
                f"{t.ram_kb:>8.0f} {t.flash_kb:>9.0f}"
            )
        skipped = sum(1 for t in self.trials if not t.trained)
        if skipped:
            lines.append(f"({skipped} configurations skipped by the resource screen)")
        return "\n".join(lines)

    def render_figure3(self) -> str:
        """Figure-3-style view: constraints plus stacked DSP/NN bars."""
        c = self.constraints
        device = get_device(c.device_key)
        lines = [
            f"EON Tuner — target: {device.name} "
            f"(RAM<={c.max_ram_kb:.0f}kB, flash<={c.max_flash_kb:.0f}kB"
            + (f", latency<={c.max_latency_ms:.0f}ms" if c.max_latency_ms else "")
            + ")",
            "",
        ]
        trained = sorted(
            (t for t in self.trials if t.trained), key=lambda t: -(t.accuracy or 0)
        )
        max_ms = max((t.total_ms for t in trained), default=1.0)
        for i, t in enumerate(trained):
            dsp_bar = "#" * max(1, int(30 * t.dsp_ms / max_ms))
            nn_bar = "=" * max(1, int(30 * t.nn_ms / max_ms))
            flag = "" if t.meets_constraints else "  [exceeds target]"
            lines.append(
                f"#{i + 1} acc={t.accuracy:.2f} {t.dsp_name} + {t.model_name}{flag}"
            )
            lines.append(
                f"    latency [{dsp_bar}{nn_bar}] {t.total_ms:.0f}ms "
                f"(dsp {t.dsp_ms:.0f} / nn {t.nn_ms:.0f})  "
                f"ram {t.ram_kb:.0f}kB  flash {t.flash_kb:.0f}kB"
            )
        return "\n".join(lines)
