"""Span recording around the platform's public seams, owned by the bench.

The launcher wraps class-level methods of ``repro`` (nothing in ``src/``
changes) with :meth:`SpanRecorder.wrap`; every call becomes one span:
``id``, ``parent`` (the enclosing span on the same thread, from a
thread-local stack), ``rid`` (request id, minted where ``mint_rid`` is
set — ``ApiGateway.handle`` — and inherited down the stack), ``name``,
``thread``, ``start``/``end`` (``time.perf_counter``, CLOCK_MONOTONIC:
comparable with the generator process's clock on the same host) and an
optional ``attr``.  Spans stay in memory and are dumped once, at exit.

:func:`link_orphans` and :func:`self_times` are the read side, used by
the generator after the run.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time

#: Span names whose interval can *cause* work on another thread (the
#: serving entry points hand rows to shard/pump threads and block).
SERVE_SPANS = ("serve.classify", "serve.classify_batch")

#: The generator never has more than this many requests in flight
#: (ISSUE: <= nproc connections), which bounds the open serving calls.
MAX_IN_FLIGHT = 2


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []  # list.append is atomic under the GIL
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, cls, method: str, name: str, *, mint_rid: bool = False,
             attr=None) -> None:
        """Replace ``cls.method`` with a span-recording wrapper.  ``attr``
        maps the call's ``(args, kwargs)`` to a short JSON-safe label."""
        original = getattr(cls, method)
        spans, ids, rids, local = self.spans, self._ids, self._rids, self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent, rid = stack[-1]
            else:
                parent, rid = None, None
            if mint_rid:
                rid = next(rids)
            stack.append((span_id, rid))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((
                    span_id, parent, rid, name,
                    threading.current_thread().name, start, end,
                    attr(args, kwargs) if attr is not None else None,
                ))

        setattr(cls, method, traced)

    def dump(self, path) -> None:
        keys = ("id", "parent", "rid", "name", "thread", "start", "end", "attr")
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter",
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def install(recorder: SpanRecorder, platform) -> None:
    """Wrap the seams the per-layer metrics are defined on."""
    from repro.api.gateway import ApiGateway
    from repro.api.router import Router
    from repro.api.schemas import Schema
    from repro.core.jobs import JobExecutor
    from repro.core.storage.durable import DurableRegistry
    from repro.core.workers.client import WorkerHandle
    from repro.monitor.telemetry import TelemetryStore
    from repro.runtime.eon import EONModel

    serving = type(platform.serving)
    recorder.wrap(ApiGateway, "handle", "api.gateway.handle", mint_rid=True,
                  attr=lambda a, k: f"{a[1]} {a[2]}")
    recorder.wrap(Router, "resolve", "api.router.resolve")
    recorder.wrap(Schema, "validate", "api.schemas.validate")
    recorder.wrap(serving, "classify", SERVE_SPANS[0])
    recorder.wrap(serving, "classify_batch", SERVE_SPANS[1])
    recorder.wrap(EONModel, "predict_proba", "runtime.predict_proba",
                  attr=lambda a, k: len(a[1]))
    recorder.wrap(WorkerHandle, "request", "core.workers.request",
                  attr=lambda a, k: a[1])
    recorder.wrap(TelemetryStore, "extend", "monitor.telemetry.extend")
    recorder.wrap(DurableRegistry, "record", "core.storage.record",
                  attr=lambda a, k: a[1].get("op"))
    recorder.wrap(DurableRegistry, "checkpoint", "core.storage.checkpoint")
    recorder.wrap(JobExecutor, "submit", "core.jobs.submit")


# -- read side ---------------------------------------------------------------

def load(path) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def link_orphans(spans: list[dict]) -> int:
    """Give cross-thread work its causing span.

    A serving call blocks its handler thread while a shard or pump thread
    runs the model; the thread-local stack cannot see that.  A root span
    (no parent) that lies inside a serving span's interval is adopted by
    the serving span that ends soonest after it — the one its completion
    released — and inherits that span's request id.  Returns how many
    spans were linked; each gets ``"linked": "time"``.
    """
    serve = sorted((s for s in spans if s["name"] in SERVE_SPANS),
                   key=lambda s: s["start"])
    starts = [s["start"] for s in serve]
    linked = 0
    for span in spans:
        if span["parent"] is not None or span["name"] in SERVE_SPANS \
                or span["name"] == "api.gateway.handle":
            continue
        # At most MAX_IN_FLIGHT serving calls are open at once, so the
        # candidates are the last few that started before this span.
        hi = bisect.bisect_right(starts, span["start"])
        open_calls = [c for c in serve[max(0, hi - MAX_IN_FLIGHT):hi]
                      if c["end"] >= span["end"]]
        if open_calls:
            cause = min(open_calls, key=lambda c: c["end"])
            span["parent"], span["rid"], span["linked"] = (
                cause["id"], cause["rid"], "time")
            linked += 1
    return linked


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover (the
    union of the children's intervals, clipped to the parent's)."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out
