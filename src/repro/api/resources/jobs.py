"""Async jobs: train/autotune/profile/deploy, status, cancel, log streams."""

from __future__ import annotations

import time

from repro.api.errors import ApiError
from repro.api.router import Route
from repro.api.schemas import EMPTY, PAGINATION, Field, Schema, paginate

#: Long-poll + log-streaming knobs shared by every job-view route.  The
#: wait is capped like the stream timeout: over sockets each long-poll
#: parks a server thread, so an unbounded wait would be a one-request
#: thread leak.
JOB_VIEW_FIELDS = (
    Field("wait_s", "float", minimum=0.0, maximum=600.0, clamp=True,
          doc="long-poll: block until terminal or this many seconds "
              "(capped at 600)"),
    Field("log_offset", "int", default=0, minimum=0, clamp=True,
          doc="return log lines from this index on"),
)


def job_view(job, body: dict) -> dict:
    """The common job snapshot: optional long-poll, then logs-from-offset
    plus the JSON-safe result (the ``GET /jobs/<jid>`` contract)."""
    wait_s = body.get("wait_s")
    if wait_s is not None:
        job.wait(wait_s)
    payload = job.snapshot(log_offset=body.get("log_offset", 0))
    if isinstance(job.result, dict):
        payload["result"] = job.result
    return payload


def train(ctx) -> dict:
    """Queue training and answer immediately with the job id — the
    hosted contract; poll ``GET /jobs/<jid>`` for progress."""
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    try:
        job = p.train_async(seed=ctx.body.get("seed", 0),
                            retries=ctx.body.get("retries", 0))
    except RuntimeError as exc:
        raise ApiError(409, str(exc))
    return {"job_id": job.job_id, "job_status": job.status}


def autotune(ctx) -> dict:
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    try:
        job = p.autotune_async(block_index=ctx.body.get("block_index", 0))
    except (RuntimeError, IndexError) as exc:
        raise ApiError(409, str(exc))
    return {"job_id": job.job_id, "job_status": job.status}


def profile_job(ctx) -> dict:
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    job = p.profile_async(
        device_key=ctx.body.get("device", "nano33ble"),
        precision=ctx.body.get("precision", "int8"),
        engine=ctx.body.get("engine", "eon"),
    )
    return {"job_id": job.job_id, "job_status": job.status}


def deploy_job(ctx) -> dict:
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    job = p.deploy_async(
        target=ctx.body.get("target", "cpp"),
        engine=ctx.body.get("engine", "eon"),
        precision=ctx.body.get("precision", "int8"),
    )
    return {"job_id": job.job_id, "job_status": job.status}


def list_jobs(ctx) -> dict:
    p = ctx.platform.get_project(ctx.params["pid"], username=ctx.user)
    jobs = [
        {"job_id": j.job_id, "name": j.name, "job_status": j.status,
         "progress": j.progress}
        for j in p.jobs.list_jobs()
    ]
    page, meta = paginate(ctx, jobs)
    return {"jobs": page, **meta}


def job_status(ctx) -> dict:
    p = ctx.platform.get_project(ctx.params["pid"], username=ctx.user)
    return job_view(p.jobs.get(ctx.params["jid"]), ctx.body)


def job_cancel(ctx) -> dict:
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    status = p.jobs.cancel(ctx.params["jid"])
    return {"job_id": ctx.params["jid"], "job_status": status}


def job_logs(ctx):
    """Follow a job's log as a line stream (chunked over HTTP): yields
    every line from ``log_offset`` until the job settles or
    ``timeout_s`` passes, then one ``[job <id> <status>]`` trailer."""
    p = ctx.platform.get_project(ctx.params["pid"], username=ctx.user)
    job = p.jobs.get(ctx.params["jid"])
    offset = ctx.body.get("log_offset", 0)
    deadline = time.monotonic() + ctx.body.get("timeout_s", 60.0)

    def stream():
        nonlocal offset
        while True:
            # Sampled before the read: the consumer may take arbitrarily
            # long over a yielded line, and a job that logs and settles
            # meanwhile must still have those lines read.
            done = job.done
            lines, offset = job.read_logs(offset)
            yield from lines
            if done or time.monotonic() >= deadline:
                break
            job.wait(0.2)
        yield f"[job {job.job_id} {job.status}]"

    return stream()


def register(router) -> None:
    job_ref = {"description": "The queued job",
               "fields": ("job_id", "job_status")}
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/train", train, name="train",
        tag="jobs", summary="Queue a training job",
        request=Schema(
            Field("seed", "int", default=0, doc="training RNG seed"),
            Field("retries", "int", default=0, minimum=0,
                  doc="re-queue budget on failure"),
        ),
        response=job_ref,
    ))
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/jobs/autotune", autotune,
        name="autotune", tag="jobs", summary="Queue a DSP autotune job",
        request=Schema(Field("block_index", "int", default=0,
                             doc="DSP block to autotune")),
        response=job_ref,
    ))
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/jobs/profile", profile_job,
        name="profileJob", tag="jobs", summary="Queue a profiling job",
        request=Schema(
            Field("device", "str", default="nano33ble"),
            Field("precision", "str", default="int8", enum=("float32", "int8")),
            Field("engine", "str", default="eon", enum=("eon", "tflm")),
        ),
        response=job_ref,
    ))
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/jobs/deploy", deploy_job,
        name="deployJob", tag="jobs", summary="Queue a deployment job",
        request=Schema(
            Field("target", "str", default="cpp",
                  enum=("cpp", "arduino", "eim", "firmware", "wasm")),
            Field("engine", "str", default="eon", enum=("eon", "tflm")),
            Field("precision", "str", default="int8", enum=("float32", "int8")),
        ),
        response=job_ref,
    ))
    router.add(Route(
        "GET", "/v1/projects/{pid:int}/jobs", list_jobs, name="listJobs",
        tag="jobs", summary="List the project's jobs", paginated=True,
        request=Schema(*PAGINATION),
        response={"description": "One page of jobs",
                  "fields": ("jobs", "total", "limit", "offset")},
    ))
    router.add(Route(
        "GET", "/v1/projects/{pid:int}/jobs/{jid:int}", job_status,
        name="jobStatus", tag="jobs",
        summary="Job snapshot with long-poll and log streaming",
        request=Schema(*JOB_VIEW_FIELDS),
        response={"description": "Job snapshot",
                  "fields": ("job_id", "job_status", "progress", "logs",
                             "log_offset", "result")},
    ))
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/jobs/{jid:int}/cancel", job_cancel,
        name="cancelJob", tag="jobs", summary="Cancel a queued/running job",
        request=EMPTY,
        response={"description": "The job's post-cancel status",
                  "fields": ("job_id", "job_status")},
    ))
    router.add(Route(
        "GET", "/v1/projects/{pid:int}/jobs/{jid:int}/logs", job_logs,
        name="jobLogs", tag="jobs", stream=True,
        summary="Follow job logs as a chunked line stream",
        request=Schema(
            Field("log_offset", "int", default=0, minimum=0, clamp=True),
            Field("timeout_s", "float", default=60.0, minimum=0.0,
                  maximum=600.0, clamp=True,
                  doc="stop following after this many seconds"),
        ),
        response={"description": "text/plain line stream "
                                 "(one log line per chunk)"},
    ))
