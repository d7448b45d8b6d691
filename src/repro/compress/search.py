"""Joint compression search: Pareto front over accuracy and footprint.

:class:`CompressionSearch` fixes one (dsp, model) configuration and
lets the EON Tuner explore per-layer weight precisions and channel
sparsities (:class:`repro.automl.space.CompressionSpace`).  Every trial
is priced on the *compressed* graph by the profiler and scored on
held-out accuracy of the compressed model, so the result is a Pareto
front over (accuracy, RAM, flash, latency) — including a uniform-int8
baseline trial the reduction figures are measured against.

Trials run through the tuner's machinery unchanged, so
``run_parallel(placement="process")`` works out of the box and yields
the same front as a serial sweep (per-trial seeds are fixed at planning
time).
"""

from __future__ import annotations

import numpy as np

from repro.automl.space import CompressionSpace
from repro.automl.tuner import EonTuner, TunerConstraints, TunerTrial
from repro.compress.prune import prunable_layers, weighted_ops
from repro.graph import sequential_to_graph


def pareto_front(trials: list[TunerTrial]) -> list[TunerTrial]:
    """Non-dominated trained trials over (accuracy up; RAM, flash and
    latency down).  A trial is dominated when another is at least as
    good on every axis and strictly better on one.  Sorted by
    descending accuracy."""
    pool = [t for t in trials if t.trained and t.accuracy is not None]
    front = []
    for t in pool:
        dominated = False
        for u in pool:
            if u is t:
                continue
            as_good = (
                u.accuracy >= t.accuracy
                and u.ram_kb <= t.ram_kb
                and u.flash_kb <= t.flash_kb
                and u.total_ms <= t.total_ms
            )
            better = (
                u.accuracy > t.accuracy
                or u.ram_kb < t.ram_kb
                or u.flash_kb < t.flash_kb
                or u.total_ms < t.total_ms
            )
            if as_good and better:
                dominated = True
                break
        if not dominated:
            front.append(t)
    return sorted(front, key=lambda t: -(t.accuracy or 0.0))


class CompressionSearch:
    """Search per-layer precision/sparsity for one fixed impulse config.

    The constructor probes the architecture once (untrained) to learn
    which weighted layers exist and which prune safely, then builds the
    :class:`CompressionSpace` the internal tuner samples from.
    """

    def __init__(
        self,
        raw_windows: np.ndarray,
        labels: np.ndarray,
        dsp_spec: dict,
        model_spec: dict,
        constraints: TunerConstraints | None = None,
        precisions: tuple = ("int8", "int4", "f32"),
        sparsities: tuple = (0.0, 0.25, 0.5),
        engine: str = "tflm",
        train_epochs: int = 12,
        batch_size: int = 16,
        val_fraction: float = 0.25,
    ):
        # precision="float32" — quantization happens via the compress
        # spec on every trial (the baseline spec is uniform int8).
        self.tuner = EonTuner(
            raw_windows,
            labels,
            space=None,
            constraints=constraints,
            precision="float32",
            engine=engine,
            train_epochs=train_epochs,
            batch_size=batch_size,
            val_fraction=val_fraction,
        )
        _, features = self.tuner._features(dsp_spec)
        n_classes = int(self.tuner.labels.max()) + 1
        model, _ = self.tuner._build_model(
            dict(model_spec), tuple(features.shape[1:]), n_classes, seed=0
        )
        graph = sequential_to_graph(model)
        self.space = CompressionSpace(
            dsp_spec=dict(dsp_spec),
            model_spec=dict(model_spec),
            precision_layers=list(range(len(weighted_ops(graph)))),
            sparsity_layers=prunable_layers(graph),
            precisions=tuple(precisions),
            sparsities=tuple(sparsities),
        )
        self.tuner.space = self.space
        self._baseline: TunerTrial | None = None

    # -- search ------------------------------------------------------------

    def _ensure_baseline(self, seed: int) -> TunerTrial:
        """Evaluate the uniform-int8 reference once, before any sampled
        trial, with the sweep's own seed — identical under serial and
        parallel execution, so the fronts match."""
        if self._baseline is None:
            dsp_spec, model_spec = self.space.baseline()
            self._baseline = self.tuner.evaluate_config(
                dsp_spec, model_spec, seed=seed
            )
            self._baseline.extra["baseline"] = True
        return self._baseline

    def run(self, n_trials: int = 12, seed: int = 0) -> list[TunerTrial]:
        """Serial random search; the baseline counts as trial 0."""
        self._ensure_baseline(seed)
        return self.tuner.run(n_trials, seed=seed)

    def run_parallel(
        self,
        n_trials: int = 12,
        executor=None,
        max_inflight: int = 4,
        seed: int = 0,
        retries: int = 0,
        placement: str = "thread",
    ):
        """Distributed search (thread or process placement).  The
        baseline is evaluated serially up front; the sampled plan is
        then bit-identical to :meth:`run` with the same seed.

        A landed parallel sweep is final: however the job ends, the
        tuner releases its training windows (``EonTuner.release``), so
        :meth:`front` / :meth:`best` keep working but a later
        :meth:`evaluate_spec`, :meth:`run` or :meth:`run_parallel`
        raises :class:`RuntimeError`.  Probe before the sweep."""
        self._ensure_baseline(seed)
        return self.tuner.run_parallel(
            n_trials,
            executor=executor,
            max_inflight=max_inflight,
            seed=seed,
            retries=retries,
            placement=placement,
        )

    def evaluate_spec(self, spec: dict, seed: int = 0) -> TunerTrial:
        """Directed probe: evaluate one explicit compression spec (flat
        ``compress.*`` keys, validated) through the tuner.  The trial is
        recorded alongside sampled ones, so it competes in the Pareto
        front — useful for seeding a sweep with a known-good candidate.
        Call it before :meth:`run_parallel` (or around a serial
        :meth:`run`): once a parallel sweep has landed the training
        windows are released and this raises :class:`RuntimeError`.
        """
        from repro.compress import split_spec

        split_spec(spec)  # raise on malformed keys/values early
        self._ensure_baseline(seed)
        model_spec = dict(self.space.model_spec)
        model_spec.update(spec)
        return self.tuner.evaluate_config(
            dict(self.space.dsp_spec), model_spec, seed=seed
        )

    # -- results -----------------------------------------------------------

    @property
    def trials(self) -> list[TunerTrial]:
        return self.tuner.trials

    @property
    def baseline(self) -> TunerTrial | None:
        """The uniform-int8 reference trial (evaluated first in any
        sweep), or None before the first run."""
        return self._baseline

    def front(self) -> list[dict]:
        """JSON-safe Pareto rows, sorted by descending accuracy.

        ``ram_flash_kb`` is the model footprint (NN RAM + flash, the
        quantities compression moves); ``ram_flash_reduction`` and
        ``accuracy_drop_pp`` are relative to the uniform-int8 baseline.
        """
        base = self._baseline
        base_rf = (
            base.nn_ram_kb + base.flash_kb
            if base is not None and base.trained
            else None
        )
        rows = []
        for t in pareto_front(self.tuner.trials):
            rf = t.nn_ram_kb + t.flash_kb
            row = {
                "spec": dict(t.extra.get("compress", {})),
                "baseline": bool(t.extra.get("baseline", False)),
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

    def best(self, max_accuracy_drop_pp: float = 2.0) -> dict | None:
        """The front row with the largest footprint reduction whose
        accuracy stays within ``max_accuracy_drop_pp`` of the baseline
        (and which meets the device constraints)."""
        candidates = [
            r for r in self.front()
            if r.get("accuracy_drop_pp") is not None
            and r["accuracy_drop_pp"] <= max_accuracy_drop_pp
            and r["meets_constraints"]
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.get("ram_flash_reduction", 0.0))
