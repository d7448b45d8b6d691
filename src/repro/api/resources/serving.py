"""The hosted-inference tier: batched classify + serving stats."""

from __future__ import annotations

from repro.api.errors import ApiError
from repro.api.router import Route
from repro.api.schemas import Field, Schema
from repro.serve import ModelNotTrainedError, ServingError


def classify(ctx) -> dict:
    """Serve classification from the batched serving layer.

    Body: ``features`` (one flat window) or ``batch`` (list of windows),
    plus optional ``precision``/``engine``.
    """
    p = ctx.platform.get_project(ctx.params["pid"], username=ctx.user)
    body = ctx.body
    if ("features" in body) == ("batch" in body):
        raise ApiError(400, "provide exactly one of 'features' or 'batch'")
    precision = body.get("precision", "int8")
    engine = body.get("engine", "eon")
    try:
        if "features" in body:
            result = ctx.platform.serving.classify(
                p.project_id, body["features"], precision=precision,
                engine=engine,
            )
            return {**result, "precision": precision, "engine": engine}
        results = ctx.platform.serving.classify_batch(
            p.project_id, body["batch"], precision=precision, engine=engine
        )
        return {
            "results": results,
            "batch_size": len(results),
            "precision": precision,
            "engine": engine,
        }
    except ModelNotTrainedError as exc:
        raise ApiError(409, str(exc))
    except ServingError as exc:
        raise ApiError(400, str(exc))


def serving_stats(ctx) -> dict:
    return ctx.platform.serving.snapshot()


def register(router) -> None:
    router.add(Route(
        "POST", "/v1/projects/{pid:int}/classify", classify, name="classify",
        tag="serving", summary="Classify via the batched serving layer",
        mutating=False,
        request=Schema(
            Field("features", "list", doc="one flat feature window"),
            Field("batch", "list", doc="list of feature windows"),
            Field("precision", "str", default="int8",
                  enum=("float32", "int8")),
            Field("engine", "str", default="eon", enum=("eon", "tflm")),
        ),
        response={"description": "Classification result(s)",
                  "fields": ("top", "classification", "results",
                             "batch_size")},
    ))
    router.add(Route(
        "GET", "/v1/serving/stats", serving_stats, name="servingStats",
        tag="serving", summary="Serving-tier counters", auth="public",
        cache_ttl_s=0.5,
        response={"description": "Server-wide serving counters plus the "
                                 "per-shard breakdown; the same shape on "
                                 "every placement (per_shard is empty for "
                                 "inline)",
                  "fields": ("name", "requests", "batches", "batched_requests",
                             "batch_errors", "mean_batch_size", "cache_size",
                             "cache_hits", "cache_misses", "cache_evictions",
                             "telemetry_errors", "restarts", "workers",
                             "backend", "per_shard")},
    ))
