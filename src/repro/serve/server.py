"""The model-serving layer (paper Sec. 4.9's hosted inference API).

A :class:`ModelServer` sits over the platform's project registry and
serves classification requests from compiled models.  It is the only
serving class; everything that does not depend on *where a batch runs*
lives here, once:

- admission is synchronous, in the caller's thread: the model key is
  validated, the project and graph resolved, features coerced to one
  finite float32 array of the model's input shape — so bad requests
  (NaN and infinities included) fail fast with ``KeyError`` /
  :class:`ServingError` / :class:`ModelNotTrainedError` and can never
  poison a worker or a telemetry record;
- models are compiled once per ``(project_id, precision)`` and held in
  an LRU cache, partitioned across ``workers`` shards by a stable crc32
  of the key (:mod:`repro.serve.shard`); retraining is detected by
  graph identity, so an entry never serves a stale model.  There is no
  engine in the key: TFLM and EON run the same plan (they differ in
  RAM and flash, which :mod:`repro.profile.memory` prices), so one
  model serves a request that names either;
- every stacked batch goes through :meth:`ModelServer._serve_chunk`:
  one invoke on the shard's runner, the result-row-count guard, label
  ordering, result shaping, counters and telemetry.

Every shard has one queue-draining thread; ``placement`` picks where its
batches run (:mod:`repro.serve.runners`): ``"thread"`` in this process,
``"process"`` in one worker process per shard.  ``classify`` /
``classify_batch`` run in the caller when its shard is idle, else on
the shard thread; ``submit`` always queues for the shard thread.
Results are bit-identical across placements (int8 exactly; float32
within BLAS reassociation, rtol 1e-5).  ``snapshot()`` has one shape on
every placement and is served at ``GET /v1/serving/stats``.
"""

from __future__ import annotations

import time
import zlib
from types import SimpleNamespace

import numpy as np

from repro.active.embeddings import feature_sketch
from repro.data.dataset import ordered_labels
from repro.monitor.telemetry import TelemetryRecord, model_version_of
from repro.serve.runners import LocalRunner, WorkerRunner
from repro.serve.shard import PendingResult, ServingError, _CacheEntry, _Shard

PRECISIONS = ("float32", "int8")
PLACEMENTS = ("thread", "process")

#: Dimensionality of the per-inference feature sketch telemetry carries.
SKETCH_DIM = 8

#: Server name per placement; shards are named ``<name>-<index>``.
_NAMES = {"thread": "shard", "process": "proc-shard"}

#: Per-shard counters that ``snapshot()`` sums into server-wide totals.
_SUMMED = (
    "requests", "batches", "batched_requests", "batch_errors", "cache_size",
    "cache_hits", "cache_misses", "cache_evictions", "telemetry_errors",
    "restarts",
)


class ModelNotTrainedError(ServingError):
    """The project has no trained graph for the requested precision."""


class ModelServer:
    """Batched serving over compiled models with a sharded LRU cache.

    ``cache_size`` and ``max_queue`` are per shard; ``max_batch`` caps
    every batched invoke on every placement.
    """

    def __init__(
        self,
        platform,
        placement: str = "thread",
        workers: int = 1,
        cache_size: int = 8,
        max_batch: int = 32,
        max_queue: int = 4096,
    ):
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; expected {PLACEMENTS}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.platform = platform
        self.placement = placement
        self.workers = workers
        self.cache_size = cache_size
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.name = _NAMES[placement]
        # Optional monitoring sink (a repro.monitor TelemetryStore).  When
        # None — the default — the serving path pays one attribute test
        # per batch and nothing else.  Emission is always parent-side, so
        # the process placement monitors exactly like the others.
        self.telemetry = None

        names = [f"{self.name}-{index}" for index in range(workers)]
        self.shards = [
            _Shard(self, index, name,
                   WorkerRunner(name) if placement == "process" else LocalRunner())
            for index, name in enumerate(names)
        ]

    @classmethod
    def for_project(cls, project, **kwargs) -> "ModelServer":
        """A standalone server over one project (the CLI entry point)."""
        registry = SimpleNamespace(projects={project.project_id: project})
        return cls(registry, **kwargs)

    # -- admission ---------------------------------------------------------

    def shard_index(self, project_id: int, precision: str) -> int:
        """Stable shard assignment for a model key (crc32, not ``hash``,
        so placement survives interpreter restarts and PYTHONHASHSEED —
        and is the same on every placement)."""
        key = f"{project_id}|{precision}".encode()
        return zlib.crc32(key) % self.workers

    def _graph(self, project_id: int, precision: str):
        """Validate a model key and return the trained graph it names.

        Raises ``KeyError`` for an unknown project (a missing resource)
        and :class:`ServingError` for bad parameters or untrained models.
        """
        if precision not in PRECISIONS:
            raise ServingError(f"unknown precision {precision!r}; expected {PRECISIONS}")
        project = self.platform.projects[project_id]
        graph = project.int8_graph if precision == "int8" else project.float_graph
        if graph is None:
            raise ModelNotTrainedError(
                f"project {project_id} has no trained {precision} model"
            )
        return graph

    def feature_shape(self, project_id: int, precision: str = "int8") -> tuple[int, ...]:
        """Shape of one feature window of the model a key names — what a
        transport needs to size-check a packed payload before decoding
        it.  Fails exactly as a classify on the same key would; touches
        no shard, cache counter or worker."""
        graph = self._graph(project_id, precision)
        return tuple(graph.tensors[graph.input_id].shape)

    def _resolve(self, project_id: int, precision: str) -> tuple[_Shard, _CacheEntry]:
        """Validate a model key and fetch (or build) its cache entry in
        the owning shard — without touching any worker."""
        graph = self._graph(project_id, precision)
        shard = self.shards[self.shard_index(project_id, precision)]
        return shard, shard.lookup((project_id, precision), graph)

    def get_model(self, project_id: int, precision: str = "int8") -> _CacheEntry:
        """Resolve the served model for a project **and** warm it where
        it will run (on ``process``: spawn the owning worker and compile
        the model in it)."""
        shard, entry = self._resolve(project_id, precision)
        shard.runner.warm(entry.model)
        return entry

    def invalidate(self, project_id: int | None = None) -> None:
        """Drop cached models (all, or one project's); worker processes
        evict replaced models from their own LRU lazily."""
        for shard in self.shards:
            shard.invalidate(project_id)

    def _coerce_features(self, entry: _CacheEntry, features) -> np.ndarray:
        """One window -> finite float32 of the model's input shape."""
        try:
            with np.errstate(over="ignore"):  # 1e39 -> inf, rejected below
                arr = np.asarray(features, dtype=np.float32)
        except (TypeError, ValueError) as exc:
            raise ServingError(f"features are not numeric: {exc}")
        if arr.size != entry.feature_size:
            raise ServingError(
                f"expected {entry.feature_size} features "
                f"(shape {entry.feature_shape}), got {arr.size}"
            )
        if not np.isfinite(arr).all():
            raise ServingError("features must be finite")
        return arr.reshape(entry.feature_shape)

    def _coerce_batch(self, entry: _CacheEntry, feature_rows) -> np.ndarray:
        """Many windows -> one finite float32 ``(n, *feature_shape)``
        array, all or nothing.  A 2-D array or a rectangular list is
        converted and checked once; anything else (ragged rows, rows of
        the wrong width, a non-numeric cell) goes row by row so the
        error names what one window got wrong."""
        try:
            with np.errstate(over="ignore"):
                arr = np.asarray(feature_rows, dtype=np.float32)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim < 2 or arr[0].size != entry.feature_size:
            arr = np.stack([self._coerce_features(entry, row) for row in feature_rows])
        elif not np.isfinite(arr).all():
            raise ServingError("features must be finite")
        return arr.reshape((len(arr),) + entry.feature_shape)

    # -- classification ----------------------------------------------------

    def submit(self, project_id: int, features, precision: str = "int8") -> PendingResult:
        """Admit one request; returns a ticket whose ``value()`` blocks
        for the result dict.  Raises eagerly (``ServingError`` /
        ``KeyError``) on bad requests and when the owning shard's queue
        is full."""
        shard, entry = self._resolve(project_id, precision)
        return shard.dispatch(entry, [self._coerce_features(entry, features)])[0]

    def classify(self, project_id: int, features, precision: str = "int8") -> dict:
        """Classify one feature window; returns ``{"classification",
        "top"}``.  Runs in the calling thread when its shard is idle;
        otherwise it queues, and concurrent callers share batched
        invokes."""
        shard, entry = self._resolve(project_id, precision)
        row = self._coerce_features(entry, features)
        return shard.dispatch(entry, [row], caller_waits=True)[0].value()

    def classify_batch(
        self, project_id: int, feature_rows, precision: str = "int8"
    ) -> list[dict]:
        """Classify many windows (a list of rows or one 2-D array) in
        micro-batches; one result per row."""
        if (not isinstance(feature_rows, (list, tuple, np.ndarray))
                or len(feature_rows) == 0):
            raise ServingError("batch must be a non-empty list of feature rows")
        shard, entry = self._resolve(project_id, precision)
        # Admission is all-or-nothing: every row is validated before any
        # is queued, and the group is queued under one lock acquisition —
        # so a malformed row (or a full queue) mid-batch cannot leave
        # earlier rows executing for a request the caller saw fail.
        coerced = self._coerce_batch(entry, feature_rows)
        tickets = shard.dispatch(entry, coerced, caller_waits=True)
        return [ticket.value() for ticket in tickets]

    # -- execution (shared by every placement) -----------------------------

    def _serve_chunk(
        self, shard: _Shard, entry: _CacheEntry, stacked: np.ndarray
    ) -> list[dict]:
        """One batched invoke on ``shard``'s runner -> one result dict per
        row.  Called from a drain (the shard's daemon thread, or a
        caller on an idle shard); never while holding a shard lock."""
        telemetry = self.telemetry
        start = time.perf_counter() if telemetry is not None else 0.0
        try:
            probs = np.asarray(shard.runner.run(entry.model, stacked))
            if len(probs) != len(stacked):
                # A wrong-sized result set means some callers would get
                # another request's row: fail the whole batch loudly
                # instead of zip-truncating.
                raise ServingError(
                    f"{shard.name} got {len(probs)} result row(s) for a "
                    f"batch of {len(stacked)} request(s)"
                )
            label_map = self.platform.projects[entry.key[0]].label_map
            labels = ordered_labels(label_map)
            results = [self._to_result(labels, row) for row in probs]
        except Exception:
            shard.count_batch(len(stacked), ok=False)
            raise
        shard.count_batch(len(stacked), ok=True)
        if telemetry is not None:
            latency_ms = (time.perf_counter() - start) * 1000.0 / len(stacked)
            try:
                self._emit_telemetry(
                    telemetry, shard.name, entry.key[0], labels, stacked, probs,
                    latency_ms,
                )
            except Exception:  # noqa: BLE001 - monitoring never breaks serving
                shard.count_telemetry_error()
        return results

    def _to_result(self, labels: list[str], probs: np.ndarray) -> dict:
        classification = {l: float(p) for l, p in zip(labels, probs)}
        top = max(classification, key=classification.get) if classification else None
        return {"classification": classification, "top": top}

    def _emit_telemetry(
        self, telemetry, source: str, project_id: int, labels: list[str],
        stacked: np.ndarray, probs: np.ndarray, latency_ms: float,
    ) -> None:
        """One compact record per served row — vectorized over the batch
        (one argmax/partition/matmul) and pushed to the store under a
        single lock (:meth:`TelemetryStore.extend`)."""
        top_idx = probs.argmax(axis=1)
        conf = probs[np.arange(len(probs)), top_idx]
        if probs.shape[1] > 1:
            margin = conf - np.partition(probs, -2, axis=1)[:, -2]
        else:
            margin = conf
        sketches = feature_sketch(stacked, dim=SKETCH_DIM)
        version = model_version_of(self.platform.projects[project_id])
        # Bulk-convert to Python scalars (one C loop each), share one
        # timestamp and pass arguments by position: per-record
        # float()/time.time() calls and keyword parsing add up on a path
        # that runs once per served batch.
        ts = time.time()
        tops = [labels[t] if t < len(labels) else None for t in top_idx.tolist()]
        telemetry.extend([
            # project_id, model_version, ts, latency_ms, top, confidence,
            # margin, ok, source, sketch
            TelemetryRecord(project_id, version, ts, latency_ms, top, c, m, True, source, s)
            for top, c, m, s in zip(tops, conf.tolist(), margin.tolist(), sketches)
        ])

    # -- observability / lifecycle -----------------------------------------

    def snapshot(self) -> dict:
        """Server-wide totals plus the per-shard breakdown."""
        per_shard = [shard.counters() for shard in self.shards]
        total = {k: sum(s[k] for s in per_shard) for k in _SUMMED}
        total["mean_batch_size"] = (
            total["batched_requests"] / total["batches"] if total["batches"] else 0.0
        )
        total["name"] = self.name
        total["workers"] = self.workers
        total["backend"] = self.placement
        total["per_shard"] = per_shard
        return total

    def close(self) -> None:
        """Stop every shard worker (and worker process): queued requests
        fail cleanly, already-resolved tickets keep their results, and
        later requests are rejected."""
        for shard in self.shards:
            shard.stop()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
