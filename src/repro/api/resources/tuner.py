"""Distributed EON Tuner searches (one child job per trial): DSP x
model sweeps and joint precision/sparsity compression sweeps."""

from __future__ import annotations

from repro.api.errors import ApiError
from repro.api.resources.jobs import JOB_VIEW_FIELDS, job_view
from repro.api.router import Route
from repro.api.schemas import Field, Schema

#: Fields every sweep start takes after ``n_trials``.
RUN_FIELDS = (
    Field("max_inflight", "int", default=4, doc="concurrent trial jobs"),
    Field("seed", "int", default=0),
    Field("epochs", "int", default=6, doc="training epochs per trial"),
    Field("retries", "int", default=0),
    Field("placement", "str", default="thread",
          doc="where trials run: 'thread' (in-process) or "
              "'process' (worker processes)"),
)

CONSTRAINT_FIELDS = (
    Field("device", "str", doc="constraint: target device key"),
    Field("max_ram_kb", "float", doc="constraint: RAM budget"),
    Field("max_flash_kb", "float", doc="constraint: flash budget"),
    Field("max_latency_ms", "float", doc="constraint: latency budget"),
)


def _constraints(body: dict):
    """The request's device budget, or None when it names none."""
    if not any(f.name in body for f in CONSTRAINT_FIELDS):
        return None
    from repro.automl import TunerConstraints

    return TunerConstraints(
        device_key=body.get("device", "nano33ble"),
        max_ram_kb=body.get("max_ram_kb"),
        max_flash_kb=body.get("max_flash_kb"),
        max_latency_ms=body.get("max_latency_ms"),
    )


def _start(ctx, start) -> dict:
    """Queue a sweep with ``start(project, **common_kwargs)`` and answer
    with its parent job; bad arguments are 400, a project that cannot
    be searched yet is 409."""
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    body = ctx.body
    try:
        job = start(
            p,
            n_trials=body.get("n_trials", 6),
            max_inflight=body.get("max_inflight", 4),
            seed=body.get("seed", 0),
            constraints=_constraints(body),
            train_epochs=body.get("epochs", 6),
            retries=body.get("retries", 0),
            placement=body.get("placement", "thread"),
        )
    except ValueError as exc:  # bad axis values, max_inflight < 1, ...
        raise ApiError(400, str(exc))
    except RuntimeError as exc:  # no impulse / no data / expert block
        raise ApiError(409, str(exc))
    return {"job_id": job.job_id, "job_status": job.status,
            "trials_total": len(job.children)}


def _status(ctx, kind: str):
    """Job view of a ``kind`` ("tuner" or "compression") sweep plus its
    completed trials, so results rank live while the search runs.  Any
    sweep is a tuner job; a compression job's space has a baseline."""
    p = ctx.platform.get_project(ctx.params["pid"], username=ctx.user)
    jid = ctx.params["jid"]
    job = p.jobs.get(jid)
    tuner = p.tuners.get(jid)
    if tuner is None or (
        kind == "compression" and tuner.space.baseline() is None
    ):
        raise ApiError(404, f"job {jid} is not a {kind} job")
    payload = job_view(job, ctx.body)
    children = p.jobs.children(job.job_id)
    completed = [c.result for c in children
                 if c.status == "succeeded" and c.result is not None]
    payload["trials_total"] = len(children)
    payload["trials_completed"] = len(completed)
    return payload, tuner, completed


def tuner_start(ctx) -> dict:
    """Queue a distributed tuner search.

    Optional ``space`` (``{"dsp_templates": [...], "model_templates":
    [...]}``) and constraint keys ``device``, ``max_ram_kb``,
    ``max_flash_kb``, ``max_latency_ms``.
    """
    def start(p, **kwargs):
        space = None
        if "space" in ctx.body:
            from repro.automl import SearchSpace

            try:
                space = SearchSpace(
                    dsp_templates=list(ctx.body["space"]["dsp_templates"]),
                    model_templates=list(ctx.body["space"]["model_templates"]),
                )
            except (KeyError, TypeError) as exc:
                raise ApiError(400, f"invalid search space: {exc!r}")
        return p.tune_async(space=space, **kwargs)

    return _start(ctx, start)


def tuner_status(ctx) -> dict:
    """Tuner job view with the (partial) leaderboard: completed trials
    are ranked live while the search is still running."""
    payload, tuner, completed = _status(ctx, "tuner")
    payload["leaderboard"] = tuner.leaderboard(completed)
    return payload


def tuner_apply(ctx) -> dict:
    """Update the project's impulse to a tuner result (rank 1 = best)."""
    p = ctx.platform.get_project(ctx.params["pid"])
    p.require_member(ctx.user)
    jid = ctx.params["jid"]
    job = p.jobs.get(jid)
    if not job.done:
        raise ApiError(409, f"tuner job {jid} is still {job.status}")
    rank = ctx.body.get("rank", 1)
    try:
        p.apply_tuner_result(jid, rank=rank)
    except (IndexError, RuntimeError) as exc:
        raise ApiError(409, str(exc))
    return {"applied": True, "rank": rank, "impulse": p.impulse.to_dict()}


def compress_start(ctx) -> dict:
    """Queue a compression search over the project's current impulse.

    Optional ``precisions`` / ``sparsities`` axis overrides and the
    same constraint keys the tuner takes.  The uniform-int8 baseline is
    the sweep's first trial job, so this answers before anything trains.
    """
    def start(p, **kwargs):
        if "precisions" in ctx.body:
            kwargs["precisions"] = tuple(ctx.body["precisions"])
        if "sparsities" in ctx.body:
            kwargs["sparsities"] = tuple(float(s) for s in ctx.body["sparsities"])
        return p.compress_async(**kwargs)

    return _start(ctx, start)


def compress_status(ctx) -> dict:
    """Compression job view with the (partial) Pareto front."""
    payload, tuner, completed = _status(ctx, "compression")
    payload["front"] = tuner.front(completed)
    payload["best"] = tuner.smallest_within(trials=completed)
    return payload


def register(router) -> None:
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/tuner", tuner_start, name="tunerStart",
        tag="tuner", summary="Queue a distributed EON Tuner search",
        request=Schema(
            Field("n_trials", "int", default=6, doc="trials to run"),
            *RUN_FIELDS,
            Field("space", "dict", doc="search space override "
                                       "(dsp_templates + model_templates)"),
            *CONSTRAINT_FIELDS,
        ),
        response={"description": "The queued tuner job",
                  "fields": ("job_id", "job_status", "trials_total")},
    ))
    router.add(Route(
        "GET", "/v1/projects/{pid:int}/tuner/{jid:int}", tuner_status,
        name="tunerStatus", tag="tuner",
        summary="Tuner job view with the live leaderboard",
        request=Schema(*JOB_VIEW_FIELDS),
        response={"description": "Job snapshot plus leaderboard",
                  "fields": ("job_id", "job_status", "trials_total",
                             "trials_completed", "leaderboard")},
    ))
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/tuner/{jid:int}/apply", tuner_apply,
        name="tunerApply", tag="tuner",
        summary="Apply a tuner result to the project impulse",
        request=Schema(Field("rank", "int", default=1,
                             doc="leaderboard rank to apply (1 = best)")),
        response={"description": "Confirmation plus the new impulse",
                  "fields": ("applied", "rank", "impulse")},
    ))
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/compress", compress_start,
        name="compressStart", tag="compress",
        summary="Queue a joint precision/sparsity compression search",
        request=Schema(
            Field("n_trials", "int", default=6, doc="sampled trials to run "
                  "(the uniform-int8 baseline counts as one of them)"),
            *RUN_FIELDS,
            Field("precisions", "list",
                  doc="weight-precision axis values (int8/int4/f32)"),
            Field("sparsities", "list",
                  doc="channel-sparsity axis values in [0, 1)"),
            *CONSTRAINT_FIELDS,
        ),
        response={"description": "The queued compression job",
                  "fields": ("job_id", "job_status", "trials_total")},
    ))
    router.add(Route(
        "GET", "/v1/projects/{pid:int}/compress/{jid:int}", compress_status,
        name="compressStatus", tag="compress",
        summary="Compression job view with the live Pareto front",
        request=Schema(*JOB_VIEW_FIELDS),
        response={"description": "Job snapshot plus Pareto front",
                  "fields": ("job_id", "job_status", "trials_total",
                             "trials_completed", "front", "best")},
    ))
