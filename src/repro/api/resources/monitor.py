"""Production monitoring: telemetry ingest, monitor views, the closed loop."""

from __future__ import annotations

import numpy as np

from repro.api.errors import ApiError
from repro.api.resources.fleet import require_operator
from repro.api.router import Route
from repro.api.schemas import EMPTY, PAGINATION, Field, Schema, paginate


def telemetry_ingest(ctx) -> dict:
    """Device/client telemetry push: ``{"records": [{...}, ...]}``.

    Each record is one inference and needs ``project_id``; everything
    else (model_version, latency_ms, top, confidence, ok, source, sketch,
    raw) is optional — ``raw`` carries a drift-window sample the
    closed loop may route back into the dataset.  That makes this a
    training-data-influencing route, so like the other mutating fleet
    surfaces it requires a registered caller (real device daemons
    authenticate as the operator that provisioned them).

    A record with a non-finite number (JSON's ``NaN`` / ``Infinity``,
    which ``json.loads`` accepts) is a 400: one NaN latency makes the
    window's p95 NaN, and a NaN score never triggers an SLO.  So is a
    ``sketch`` that is not ``SKETCH_DIM`` (8) numbers (drift is scored
    per dimension), and the ``gateway`` source, which names the gateway's
    own requests in the project summary.
    """
    from repro.monitor import TelemetryRecord

    require_operator(ctx)
    items = ctx.body["records"]
    if not isinstance(items, list) or not items:
        raise ApiError(400, "records must be a non-empty list")
    records = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ApiError(400, f"records[{i}] must be an object")
        try:
            record = TelemetryRecord.from_dict(item)
        except (KeyError, TypeError, ValueError) as exc:
            raise ApiError(400, f"records[{i}] is malformed: {exc!r}")
        arrays = [record.latency_ms, record.confidence]
        arrays += [a for a in (record.sketch, record.raw) if a is not None]
        if not all(np.isfinite(a).all() for a in arrays):
            raise ApiError(400, f"records[{i}] must be finite")
        if record.source == "gateway":
            raise ApiError(400, f"records[{i}]: source {record.source!r} is reserved")
        if record.project_id not in ctx.platform.projects:
            raise ApiError(404, f"no project {record.project_id}")
        # Telemetry can carry training data (raw drift windows), so
        # pushing into a project needs membership of *that* project —
        # being some registered user is not enough.
        ctx.platform.projects[record.project_id].require_member(ctx.user)
        records.append(record)
    return {"accepted": ctx.platform.monitor.telemetry.extend(records)}


def monitor_status(ctx) -> dict:
    """Monitor snapshot: health, detector scores, telemetry summary,
    policy, and closed-loop job states.  ``wait_loop_s`` long-polls the
    most recent retrain-loop job before answering."""
    p = ctx.platform.get_project(ctx.params["pid"], username=ctx.user)
    monitor = ctx.platform.monitor
    wait_loop_s = ctx.body.get("wait_loop_s")
    if wait_loop_s is not None:
        loops = monitor.monitor(p.project_id).loop_jobs
        if loops:
            loops[-1].wait(wait_loop_s)
    return monitor.snapshot(p.project_id)


def monitor_alerts(ctx) -> dict:
    p = ctx.platform.get_project(ctx.params["pid"], username=ctx.user)
    alerts = ctx.platform.monitor.alerts(p.project_id)
    page, meta = paginate(ctx, alerts)
    return {"alerts": page, **meta}


def monitor_policy(ctx) -> dict:
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    try:
        policy = ctx.platform.monitor.set_policy(p.project_id, ctx.body)
    except (TypeError, ValueError) as exc:
        raise ApiError(400, str(exc))
    return {"policy": policy.to_dict()}


def monitor_evaluate(ctx) -> dict:
    """Run one on-demand monitoring sweep as a job and return its
    snapshot (plus the sweep job id)."""
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    job = ctx.platform.monitor.sweep(p.project_id)
    job.wait(ctx.body.get("wait_s", 30.0))
    if job.status == "failed":
        raise ApiError(500, f"monitor sweep failed: {job.error}")
    payload = job.result if isinstance(job.result, dict) else {}
    return {**payload, "sweep_job_id": job.job_id,
            "sweep_job_status": job.status}


def monitor_reference(ctx) -> dict:
    """Pin the current telemetry window as the drift baseline."""
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    count = ctx.platform.monitor.set_reference(p.project_id)
    if count == 0:
        raise ApiError(409, "no telemetry to capture as a reference")
    return {"reference_records": count}


def register(router) -> None:
    router.add(Route(
        "POST", "/v1/telemetry", telemetry_ingest, name="pushTelemetry",
        tag="monitor", summary="Push device/client telemetry records",
        request=Schema(
            Field("records", "list", required=True,
                  doc="telemetry records, one inference each; each needs "
                      "project_id, and a sketch must be 8 finite numbers; "
                      "keys other than model_version, latency_ms, top, "
                      "confidence, ok, source, sketch and raw are ignored"),
        ),
        response={"description": "How many records were accepted",
                  "fields": ("accepted",)},
    ))
    router.add(Route(
        "GET", "/v1/projects/{pid:int}/monitor", monitor_status,
        name="monitorStatus", tag="monitor",
        summary="Monitor snapshot (health, detectors, telemetry, loops)",
        request=Schema(
            Field("wait_loop_s", "float", minimum=0.0, maximum=600.0,
                  clamp=True,
                  doc="long-poll the newest closed-loop job first "
                      "(capped at 600)"),
        ),
        response={"description": "Monitor snapshot",
                  "fields": ("health", "detectors", "telemetry", "policy",
                             "loop_jobs")},
    ))
    router.add(Route(
        "GET", "/v1/projects/{pid:int}/monitor/alerts", monitor_alerts,
        name="monitorAlerts", tag="monitor", summary="Raised alerts",
        paginated=True,
        request=Schema(*PAGINATION),
        response={"description": "One page of alerts",
                  "fields": ("alerts", "total", "limit", "offset")},
    ))
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/monitor/policy", monitor_policy,
        name="setMonitorPolicy", tag="monitor",
        summary="Partially update the monitoring policy",
        request=Schema(extra_doc="partial MonitorPolicy update "
                                 "(thresholds, windows, auto_retrain, ...)"),
        response={"description": "The full post-update policy",
                  "fields": ("policy",)},
    ))
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/monitor/evaluate", monitor_evaluate,
        name="monitorEvaluate", tag="monitor",
        summary="Run one monitoring sweep now (as a job)",
        request=Schema(Field("wait_s", "float", default=30.0, minimum=0.0,
                             maximum=600.0, clamp=True)),
        response={"description": "Sweep snapshot plus the job id",
                  "fields": ("health", "detectors", "sweep_job_id",
                             "sweep_job_status")},
    ))
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/monitor/reference", monitor_reference,
        name="pinReference", tag="monitor",
        summary="Pin the current telemetry window as the drift baseline",
        request=EMPTY,
        response={"description": "Reference window size",
                  "fields": ("reference_records",)},
    ))
