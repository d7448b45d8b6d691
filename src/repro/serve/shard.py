"""One cache partition of a :class:`repro.serve.ModelServer`.

The hosted inference tier scales by sharding: each partition owns a
disjoint slice of the compiled-model cache (its own LRU + lock), so
cache state never needs cross-partition coherence and a cold compile on
one shard never blocks admission on another.  A :class:`_Shard` is that
partition plus its bounded request queue and the one batching loop:
every request, on every placement, is admitted as a
:class:`PendingResult` ticket, and a drain gulps the queue, groups the
gulp by admitted model and executes one batched invoke per
``max_batch`` chunk — so a flood of requests gets the
micro-batching amortization without callers coordinating.  One daemon
thread per shard drains the queue, except that a caller who waits for
its result anyway (``classify``, ``classify_batch``) runs its own group
in its own thread when the shard is idle — queue empty, no drain
running — so a lone request takes no thread hop.  ``submit()`` always
queues.

A chunk executes through ``server._serve_chunk`` on the shard's runner
(:mod:`repro.serve.runners`), so counters, telemetry and result shaping
are the same code on every placement.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque

import numpy as np


class ServingError(Exception):
    """Invalid classify request (bad precision or feature shape, a group
    larger than a shard's whole queue), an overloaded or shut-down
    shard, or a broken serving contract (a runner's row-count
    mismatch)."""


class ServingOverloadedError(ServingError):
    """A shard's bounded queue cannot admit the request now; the caller
    may retry later (HTTP 503 + ``Retry-After``)."""


class PendingResult:
    """Ticket for one admitted request; resolved by the drain that
    claims it.

    ``entry`` is the cache entry the request was admitted against, so a
    drain serves the model version the request was validated for without
    a second cache lookup (which would double-count hit stats).
    """

    __slots__ = ("features", "entry", "ready", "result", "error")

    def __init__(self, features: np.ndarray, entry):
        self.features = features
        self.entry = entry
        self.ready = threading.Event()
        self.result = None
        self.error: Exception | None = None

    def resolve(self, result=None, error: Exception | None = None) -> None:
        self.result = result
        self.error = error
        self.ready.set()

    def value(self):
        """Block until resolved; the result row, or raises the error."""
        self.ready.wait()
        if self.error is not None:
            raise self.error
        return self.result


class _CacheEntry:
    """One served model, as cached by its owning partition."""

    __slots__ = ("key", "graph", "model", "feature_shape", "feature_size")

    def __init__(self, key: tuple[int, str], graph, model):
        self.key = key  # (project_id, precision)
        self.graph = graph
        self.model = model  # whatever the shard's runner built
        self.feature_shape = tuple(graph.tensors[graph.input_id].shape)
        self.feature_size = int(np.prod(self.feature_shape))


class _Shard:
    """A model-cache partition, its counters, its request queue and the
    daemon thread that drains it."""

    def __init__(self, server, index: int, name: str, runner):
        self.server = server
        self.index = index
        self.name = name
        self.runner = runner
        # The cache has its own lock (compiles happen under it); _cond
        # guards the queue and the counters.  They are never nested.
        self._lock = threading.Lock()
        self._cache: OrderedDict[tuple, _CacheEntry] = OrderedDict()  # guarded-by: _lock
        self.cache_hits = 0  # guarded-by: _lock
        self.cache_misses = 0  # guarded-by: _lock
        self.cache_evictions = 0  # guarded-by: _lock
        self._cond = threading.Condition()
        self._queue: deque[PendingResult] = deque()  # guarded-by: _cond
        self._thread: threading.Thread | None = None  # guarded-by: _cond
        self._stop = False  # guarded-by: _cond
        # Drains claimed and not yet served: the shard thread's, and those
        # of callers running their own group on an idle shard.
        self._draining = 0  # guarded-by: _cond
        # ``requests`` counts rows that reached execution; ``batches`` /
        # ``batched_requests`` only successful invokes (failed ones tick
        # ``batch_errors``), so mean_batch_size stays a statement about
        # batches that actually produced results.
        self.requests = 0  # guarded-by: _cond
        self.batches = 0  # guarded-by: _cond
        self.batched_requests = 0  # guarded-by: _cond
        self.largest_batch = 0  # guarded-by: _cond
        self.batch_errors = 0  # guarded-by: _cond
        self.telemetry_errors = 0  # guarded-by: _cond
        self.drains = 0  # guarded-by: _cond
        self.grouped_batches = 0  # guarded-by: _cond

    # -- model cache -------------------------------------------------------

    def lookup(self, key: tuple[int, str], graph) -> _CacheEntry:
        """Fetch (or build and cache) the entry for ``key``.  Retraining
        is detected by graph identity, so an entry never serves a stale
        model."""
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None and entry.graph is graph:
                self.cache_hits += 1
                self._cache.move_to_end(key)
                return entry
            # Building under the lock serializes concurrent misses on the
            # same key, so exactly one model is built.
            self.cache_misses += 1
            entry = _CacheEntry(key, graph, self.runner.build(graph))
            self._cache[key] = entry  # replaces a retrained project's model
            self._cache.move_to_end(key)
            while len(self._cache) > self.server.cache_size:
                self._cache.popitem(last=False)
                self.cache_evictions += 1
            return entry

    def invalidate(self, project_id: int | None) -> None:
        with self._lock:
            for key in [k for k in self._cache
                        if project_id is None or k[0] == project_id]:
                del self._cache[key]

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, entry: _CacheEntry, rows,
                 caller_waits: bool = False) -> list[PendingResult]:
        """Admit coerced ``rows`` as one all-or-nothing group; returns one
        ticket per row.  ``caller_waits`` (the caller blocks on the
        tickets anyway) runs the group in the calling thread when the
        shard is idle; with a backlog or a drain in flight it queues for
        the shard thread."""
        max_queue = self.server.max_queue
        if len(rows) > max_queue:
            # Not an overload: no amount of waiting makes this group fit.
            raise ServingError(
                f"{len(rows)} rows exceed {self.name}'s queue capacity "
                f"({max_queue}); send at most {max_queue} per request"
            )
        tickets = [PendingResult(row, entry) for row in rows]
        with self._cond:
            if self._stop:
                raise ServingError(f"{self.name} is shut down")
            if len(self._queue) + len(tickets) > max_queue:
                raise ServingOverloadedError(
                    f"{self.name} queue full ({max_queue} requests)"
                )
            if self._thread is None or not self._thread.is_alive():
                # Started at the first dispatch, even one the caller runs,
                # so a later burst of submit()s finds it parked and is
                # served as one gulp.
                self._thread = threading.Thread(
                    target=self._worker, name=f"serve-{self.name}", daemon=True
                )
                self._thread.start()
            here = caller_waits and not self._queue and not self._draining
            if here:
                self.drains += 1
                self.grouped_batches += 1
                self._draining += 1
            else:
                self._queue.extend(tickets)
                self._cond.notify()
        if here:
            try:
                self._serve(tickets, [tickets])
            finally:
                with self._cond:
                    self._drained_locked()
        return tickets

    def _worker(self) -> None:
        with self._cond:
            while True:
                while not self._queue:
                    if self._stop:
                        return
                    self._cond.wait()
                gulp, groups = self._gulp_locked()
                self._draining += 1
                # Served outside the lock; retaking it both ends this
                # drain and checks the queue again, so a flood costs the
                # shard thread one lock round-trip per gulp.
                self._cond.release()
                try:
                    self._serve(gulp, groups)
                finally:
                    self._cond.acquire()
                    self._drained_locked()

    def _drained_locked(self) -> None:
        self._draining -= 1
        if self._stop:
            self._cond.notify_all()  # stop() waits for the last drain

    def _gulp_locked(self) -> tuple[list[PendingResult], list]:
        """Claim everything queued — the whole point is to turn a backlog
        into few big invokes — grouped by admitted cache entry (stable
        order).  Grouping on the entry (not just the key) keeps requests
        admitted across a retrain boundary on the model they were
        validated against."""
        gulp = list(self._queue)
        self._queue.clear()
        groups: dict[int, list[PendingResult]] = {}
        for ticket in gulp:
            groups.setdefault(id(ticket.entry), []).append(ticket)
        self.drains += 1
        self.grouped_batches += len(groups)
        return gulp, list(groups.values())

    def _serve(self, gulp: list[PendingResult], groups) -> None:
        """Execute a claimed gulp, one invoke per ``max_batch`` chunk of
        each group."""
        max_batch = self.server.max_batch
        try:
            for tickets in groups:
                for i in range(0, len(tickets), max_batch):
                    self._execute(tickets[i:i + max_batch])
        finally:
            # Only reached with unresolved tickets when a non-``Exception``
            # (KeyboardInterrupt in a caller's own drain) cut the loop short:
            # whoever waits on a claimed ticket must still be woken.
            for ticket in gulp:
                if not ticket.ready.is_set():
                    ticket.resolve(error=ServingError(f"{self.name} drain interrupted"))

    def _execute(self, chunk: list[PendingResult]) -> None:
        try:
            # Features were coerced at admission against this entry, so
            # go straight to the batched invoke.
            results = self.server._serve_chunk(
                self, chunk[0].entry, np.stack([t.features for t in chunk])
            )
        except Exception as exc:  # noqa: BLE001 - isolate per chunk
            for ticket in chunk:
                ticket.resolve(error=exc)
            return
        for ticket, result in zip(chunk, results):
            ticket.resolve(result=result)

    def stop(self) -> None:
        # Claim the leftover queue under the lock so a still-running
        # drain can never see (or double-resolve) these tickets; an
        # in-flight gulp completes normally (the thread then exits, and
        # a caller running its own group finishes it) before the runner
        # closes.
        with self._cond:
            self._stop = True
            leftovers = list(self._queue)
            self._queue.clear()
            thread = self._thread
            self._cond.notify_all()
        for ticket in leftovers:
            ticket.resolve(error=ServingError(f"{self.name} shut down"))
        if thread is not None:
            thread.join(timeout=5.0)
        with self._cond:
            self._cond.wait_for(lambda: not self._draining, timeout=5.0)
        self.runner.close()

    # -- counters ----------------------------------------------------------

    def count_batch(self, rows: int, ok: bool) -> None:
        with self._cond:
            self.requests += rows
            if ok:
                self.batches += 1
                self.batched_requests += rows
                self.largest_batch = max(self.largest_batch, rows)
            else:
                self.batch_errors += 1

    def count_telemetry_error(self) -> None:
        with self._cond:
            self.telemetry_errors += 1

    def counters(self) -> dict:
        """A consistent snapshot of this partition's counters."""
        with self._cond:
            snap = {
                "name": self.name,
                "requests": self.requests,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "largest_batch": self.largest_batch,
                "batch_errors": self.batch_errors,
                "mean_batch_size": (
                    self.batched_requests / self.batches if self.batches else 0.0
                ),
                "telemetry_errors": self.telemetry_errors,
                "queue_depth": len(self._queue),
                "drains": self.drains,
                "grouped_batches": self.grouped_batches,
            }
        with self._lock:
            snap.update(
                cache_size=len(self._cache),
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                cache_evictions=self.cache_evictions,
            )
        snap.update(self.runner.status())
        return snap
