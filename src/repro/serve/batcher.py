"""Micro-batching request queue.

Coalesces pending classify requests into one batched graph invoke.  The
kernels are vectorized over the batch dimension, so one ``invoke`` on N
stacked windows costs far less than N single-sample invokes — the same
amortization a hosted inference tier gets from dynamic batching.

The batcher is synchronous and thread-safe: callers ``submit()`` features
and then ``wait()`` on the returned ticket.  Whoever waits first becomes
the flush leader and runs the batched invoke for every pending request;
concurrent submitters from other threads ride along in the same batch.
Reaching ``max_batch`` pending requests also triggers a flush.
"""

from __future__ import annotations

import threading

import numpy as np


class ServingError(Exception):
    """Invalid classify request (bad engine/precision/feature shape) or a
    broken serving contract (``run_batch`` row-count mismatch)."""


class PendingResult:
    """Ticket for one submitted request; resolved by a batch flush (or,
    on the queued serving placements, by a shard worker).

    ``entry`` is the cache entry the request was admitted against, so a
    shard worker serves the model version the request was validated for
    without a second cache lookup (which would double-count hit stats).
    """

    __slots__ = ("features", "entry", "ready", "result", "error")

    def __init__(self, features: np.ndarray, entry=None):
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


class MicroBatcher:
    """Coalesce classify requests into batched ``run_batch`` calls.

    ``run_batch`` takes a ``(n, *feature_shape)`` array and returns one
    result row per request (any leading-axis indexable).
    """

    def __init__(self, run_batch, max_batch: int = 32):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._run_batch = run_batch
        self.max_batch = max_batch
        self._lock = threading.Lock()
        self._pending: list[PendingResult] = []  # guarded-by: _lock
        # Counters for the serving stats endpoint / benchmark.  Only
        # successful flushes count toward batch sizes; failed batched
        # invokes tick batch_errors instead, so mean_batch_size stays a
        # statement about batches that actually produced results.
        self.batches = 0  # guarded-by: _lock
        self.batched_requests = 0  # guarded-by: _lock
        self.largest_batch = 0  # guarded-by: _lock
        self.batch_errors = 0  # guarded-by: _lock

    def submit(self, features: np.ndarray) -> PendingResult:
        """Queue one request; flushes eagerly once ``max_batch`` accumulate."""
        ticket = PendingResult(np.asarray(features))
        with self._lock:
            self._pending.append(ticket)
            full = len(self._pending) >= self.max_batch
        if full:
            self.flush()
        return ticket

    def flush(self) -> int:
        """Run one batched invoke over up to ``max_batch`` pending
        requests; returns how many were resolved."""
        with self._lock:
            batch = self._pending[: self.max_batch]
            self._pending = self._pending[self.max_batch :]
        if not batch:
            return 0
        try:
            stacked = np.stack([t.features for t in batch])
            results = self._run_batch(stacked)
            if len(results) != len(batch):
                # A wrong-sized result set means some callers would get
                # another request's row (or a silent None): fail the whole
                # batch loudly instead of zip-truncating.
                raise ServingError(
                    f"run_batch returned {len(results)} result row(s) for a "
                    f"batch of {len(batch)} request(s)"
                )
            for ticket, row in zip(batch, results):
                ticket.result = row
        except Exception as exc:  # propagate to every waiter in the batch
            for ticket in batch:
                ticket.error = exc
            with self._lock:
                self.batch_errors += 1
        else:
            with self._lock:
                self.batches += 1
                self.batched_requests += len(batch)
                self.largest_batch = max(self.largest_batch, len(batch))
        finally:
            for ticket in batch:
                ticket.ready.set()
        return len(batch)

    def settle(self, ticket: PendingResult) -> None:
        """Block until ``ticket`` resolves, flushing if nobody else has."""
        while not ticket.ready.is_set():
            if self.flush() == 0:
                # The queue is empty, so our ticket was claimed by an
                # in-flight flush on another thread; its ``finally``
                # always resolves every claimed ticket, so a plain
                # (poll-free) wait on the event cannot hang.
                ticket.ready.wait()

    def wait(self, ticket: PendingResult):
        """:meth:`settle`, then the ticket's result (or its error)."""
        self.settle(ticket)
        return ticket.value()

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)
