"""Device fleet: registration, field inference, staged OTA rollouts."""

from __future__ import annotations

from repro.api.errors import ApiError
from repro.api.resources.jobs import JOB_VIEW_FIELDS, job_view
from repro.api.router import Route
from repro.api.schemas import EMPTY, PAGINATION, Field, Schema, paginate


def require_operator(ctx) -> None:
    """Mutating fleet routes need a registered platform user — the fleet
    is shared infrastructure, so anonymous callers may look but not
    touch (rollout start and cancel are additionally gated on
    membership of the rolled-out project)."""
    if ctx.user not in ctx.platform.users:
        raise PermissionError(
            f"{ctx.user} is not a registered user; fleet management needs "
            "an account"
        )


def fleet_register(ctx) -> dict:
    from repro.device import VirtualDevice

    require_operator(ctx)
    try:
        device = VirtualDevice(
            str(ctx.body["device_id"]), ctx.body.get("profile", "nano33ble")
        )
        ctx.platform.fleet.register(device)
    except KeyError as exc:
        raise ApiError(400, f"unknown device profile: {exc}")
    except ValueError as exc:
        raise ApiError(409, str(exc))
    return {"device_id": device.device_id, "profile": device.profile.name}


def fleet_devices(ctx) -> dict:
    versions = ctx.platform.fleet.versions()
    ids, meta = paginate(ctx, sorted(versions))
    return {"devices": {did: versions[did] for did in ids}, **meta}


def fleet_device_classify(ctx) -> dict:
    """Run one inference on a fleet device's flashed impulse (the field
    path: emits telemetry — raw window included — when the fleet is
    being monitored, so it needs a registered caller like every other
    telemetry-producing route)."""
    require_operator(ctx)
    try:
        result = ctx.platform.fleet.classify_on(ctx.params["did"],
                                                ctx.body["data"])
    except KeyError as exc:
        # str(KeyError) would repr-quote the message ("\"unknown
        # device 'x'\""), the defect UnknownJobError exists to avoid.
        raise ApiError(404, exc.args[0] if exc.args else str(exc))
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid data: {exc}")
    except RuntimeError as exc:
        raise ApiError(409, str(exc))
    return result


def fleet_rollout(ctx) -> dict:
    """Start a staged OTA rollout job: build firmware from a trained
    project and push it canary-first across the registered fleet
    (:meth:`repro.monitor.MonitorService.rollout`)."""
    body = ctx.body
    p = ctx.platform.get_project(body["project_id"])
    p.require_member(ctx.user)
    inject = body.get("inject_failures")
    try:
        if isinstance(inject, list):
            inject = set(inject)
        elif isinstance(inject, dict):
            inject = {str(k): int(v) for k, v in inject.items()}
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid inject_failures: {exc}")
    device_ids = body.get("device_ids")
    try:
        job = ctx.platform.monitor.rollout(
            p,
            canary_fraction=body.get("canary_fraction", 0.25),
            failure_threshold=body.get("failure_threshold", 0.0),
            max_inflight=body.get("max_inflight", 4),
            retries=body.get("retries", 0),
            device_ids=device_ids,
            engine=body.get("engine", "eon"),
            precision=body.get("precision", "int8"),
            health_gate=bool(body.get("health_gate")),
            soak_s=body.get("soak_s", 0.0),
            inject_failures=inject,
        )
    except KeyError as exc:  # unknown device id — clean 404 message
        raise ApiError(404, exc.args[0] if exc.args else str(exc))
    except ValueError as exc:
        raise ApiError(400, str(exc))
    except RuntimeError as exc:
        # An untrained project, or a rollout already in progress.
        raise ApiError(409, str(exc))
    from repro.monitor import model_version_of

    return {"job_id": job.job_id, "job_status": job.status,
            "image_version": model_version_of(p),
            "devices_total": len(device_ids if device_ids is not None
                                 else ctx.platform.fleet.devices)}


def fleet_rollout_status(ctx) -> dict:
    """Rollout job view: long-poll + per-device log streaming, with the
    rollout report as ``result`` once the job settles."""
    job = ctx.platform.fleet_jobs.get(ctx.params["jid"])
    payload = job_view(job, ctx.body)
    payload["devices"] = {
        c.name.split(":", 1)[1]: c.status
        for c in ctx.platform.fleet_jobs.children(job.job_id)
        if c.name.startswith("ota-flash:")
    }
    return payload


def fleet_rollout_cancel(ctx) -> dict:
    """Cancel a rollout: only a member of the project it rolls out may
    (a flash child's cancel is its parent rollout's)."""
    require_operator(ctx)
    jobs = ctx.platform.fleet_jobs
    job = jobs.get(ctx.params["jid"])
    while job.parent_id is not None:
        job = jobs.get(job.parent_id)
    pid = ctx.platform.monitor.rollout_projects.get(job.job_id)
    if pid is None:  # not (yet) recorded as any project's rollout
        raise PermissionError(f"job {job.job_id} is no project's rollout")
    ctx.platform.get_project(pid).require_member(ctx.user)
    status = jobs.cancel(ctx.params["jid"])
    return {"job_id": ctx.params["jid"], "job_status": status}


def register(router) -> None:
    router.add(Route(
        "POST", "/v1/fleet/devices", fleet_register, name="registerDevice",
        tag="fleet", summary="Register a device in the fleet",
        request=Schema(
            Field("device_id", "str", required=True),
            Field("profile", "str", default="nano33ble",
                  doc="device profile key"),
        ),
        response={"description": "The registered device",
                  "fields": ("device_id", "profile")},
    ))
    router.add(Route(
        "GET", "/v1/fleet/devices", fleet_devices, name="listDevices",
        tag="fleet", summary="Fleet firmware versions", auth="public",
        paginated=True,
        request=Schema(*PAGINATION),
        response={"description": "One page of device -> firmware version",
                  "fields": ("devices", "total", "limit", "offset")},
    ))
    router.add(Route(
        "POST", "/v1/fleet/devices/{did}/classify", fleet_device_classify,
        name="deviceClassify", tag="fleet",
        summary="Run one inference on a fleet device",
        request=Schema(Field("data", "list", required=True,
                             doc="raw sensor window")),
        response={"description": "The device's classification",
                  "fields": ("top", "classification")},
    ))
    router.add(Route(
        "POST", "/v1/fleet/rollout", fleet_rollout, name="startRollout",
        tag="fleet", summary="Start a staged canary-first OTA rollout job",
        request=Schema(
            Field("project_id", "int", required=True),
            Field("canary_fraction", "float", default=0.25,
                  doc="fraction of devices flashed first"),
            Field("failure_threshold", "float", default=0.0,
                  doc="abort when the canary failure rate exceeds this"),
            Field("max_inflight", "int", default=4),
            Field("retries", "int", default=0,
                  doc="per-device flash retry budget"),
            Field("device_ids", "list", doc="subset of the fleet to target"),
            Field("engine", "str", default="eon", enum=("eon", "tflm")),
            Field("precision", "str", default="int8",
                  enum=("float32", "int8")),
            Field("health_gate", "bool",
                  doc="gate the fleet stage on monitor health"),
            Field("soak_s", "float", default=0.0, minimum=0.0,
                  doc="canary soak before the health gate"),
            Field("inject_failures", "any",
                  doc="test hook: device ids (list) or {id: n_attempts}"),
        ),
        response={"description": "The queued rollout job",
                  "fields": ("job_id", "job_status", "image_version",
                             "devices_total")},
    ))
    router.add(Route(
        "GET", "/v1/fleet/rollout/{jid:int}", fleet_rollout_status,
        name="rolloutStatus", tag="fleet",
        summary="Rollout job view with per-device states",
        request=Schema(*JOB_VIEW_FIELDS),
        response={"description": "Job snapshot plus per-device status",
                  "fields": ("job_id", "job_status", "devices", "result")},
    ))
    router.add(Route(
        "POST", "/v1/fleet/rollout/{jid:int}/cancel", fleet_rollout_cancel,
        name="cancelRollout", tag="fleet", summary="Cancel a rollout job",
        request=EMPTY,
        response={"description": "The job's post-cancel status",
                  "fields": ("job_id", "job_status")},
    ))
