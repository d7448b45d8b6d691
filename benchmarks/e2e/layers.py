"""Per-layer metrics from one traced run.

Attribution is by time window: the closed-loop cycles (:class:`Unit`)
partition the measured interval, a span belongs to the cycle it starts
in (both processes read CLOCK_MONOTONIC), and a layer's value for a
cycle is the summed self time of its spans divided by the cycle's
operations.  Each ``*_ms`` metric is the median of that over cycles —
so a layer a workload never enters reads exactly 0.
"""

from __future__ import annotations

import bisect
from statistics import median

import tracing

#: span name -> the per-layer metric its self time feeds.
SPAN_METRIC = {
    "api.gateway.handle": "api.gateway.self_ms",
    "api.router.resolve": "api.router.resolve_ms",
    "api.schemas.validate": "api.schemas.validate_ms",
    "serve.classify": "serve.self_ms",
    "serve.classify_batch": "serve.self_ms",
    "monitor.telemetry.extend": "monitor.telemetry.self_ms",
    "runtime.predict_proba": "runtime.execute_ms",
    "core.workers.request": "core.workers.request_ms",
    "core.storage.record": "core.storage.record_ms",
    "core.storage.checkpoint": "core.storage.checkpoint_ms",
}

#: Client-side stage timers of ``build_pipeline`` (0 elsewhere).
STAGE_METRICS = (
    "data.ingestion.upload_ms", "nn.train_job_ms", "automl.tuner_job_ms",
    "evaluate.test_ms", "profile.estimate_ms", "deploy.cpp_ms",
)

#: What sums to the ``handle`` span when spans nest properly.
HANDLE_PARTS = (
    "api.gateway.self_ms", "api.schemas.validate_ms", "serve.self_ms",
    "monitor.telemetry.self_ms", "runtime.execute_ms",
    "core.workers.request_ms", "core.storage.record_ms",
    "core.storage.checkpoint_ms",
)


def _delta(before: dict, after: dict, key: str) -> float:
    return (after or {}).get(key, 0) - (before or {}).get(key, 0)


def compute(units, spans: list[dict], before: dict, after: dict) -> dict:
    """``units`` are the traced run's measured cycles, ``spans`` its
    trace, ``before``/``after`` the launcher's ``stats`` around them."""
    tracing.link_orphans(spans)
    selfs = tracing.self_times(spans)
    starts = [u.start for u in units]
    ops = [len(u.latencies) for u in units]
    sums = {metric: [0.0] * len(units) for metric in set(SPAN_METRIC.values())}
    handle = [0.0] * len(units)
    for span in spans:
        k = bisect.bisect_right(starts, span["start"]) - 1
        if k < 0:
            continue  # warm-up
        metric = SPAN_METRIC.get(span["name"])
        if metric is not None:
            sums[metric][k] += selfs[span["id"]]
        if span["name"] == "api.gateway.handle":
            handle[k] += span["end"] - span["start"]

    out = {metric: median(v / n for v, n in zip(values, ops)) * 1e3
           for metric, values in sums.items()}
    # Everything the client waited for that is not inside handle():
    # connect/accept, thread spawn, header parse, JSON both ways, the
    # route resolve api.http does itself, and the socket writes.
    out["api.http.self_ms"] = median(
        (u.request_s - h) / n for u, h, n in zip(units, handle, ops)) * 1e3
    out["api.gateway.handle_ms"] = median(h / n for h, n in zip(handle, ops)) * 1e3

    n_ops = sum(ops)
    serving_before, serving_after = before["serving"], after["serving"]
    batches = _delta(serving_before, serving_after, "batches")
    out["serve.batch_size_mean"] = (
        _delta(serving_before, serving_after, "batched_requests") / batches
        if batches else 0.0)
    hits = _delta(serving_before, serving_after, "cache_hits")
    lookups = hits + _delta(serving_before, serving_after, "cache_misses")
    out["serve.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["core.workers.restarts"] = float(serving_after.get("restarts", 0))
    out["core.storage.wal_records_per_op"] = (
        _delta(before["storage"], after["storage"], "seq") / n_ops)
    jobs = after["jobs"][len(before["jobs"]):]
    for key in ("queue_ms", "run_ms"):
        out[f"core.jobs.{key}"] = (
            median(j[key] for j in jobs) if jobs else 0.0)
    for stage in STAGE_METRICS:
        values = [u.stages[stage] for u in units if stage in u.stages]
        out[stage] = median(values) if values else 0.0
    return out
