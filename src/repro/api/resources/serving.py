"""The hosted-inference tier: batched classify + serving stats.

Feature windows arrive in one of two encodings of the same float32
values.  The list form (``features`` / ``batch``: JSON numbers) is the
public REST contract.  The packed form (``features_b64`` /
``batch_b64`` + ``rows``: base64 of little-endian float32, inside the
same JSON envelope as ``payload_b64`` uploads) is what the SDK sends —
a 16 x 490 batch is 42 KB of base64 instead of 162 KB of float text,
and neither side prints or parses a float.  Admission casts list input
to float32 before anything else, so the two forms of one request get
byte-identical responses.
"""

from __future__ import annotations

import base64
import math

import numpy as np

from repro.api.errors import ApiError
from repro.api.router import Route
from repro.api.schemas import Field, Schema
from repro.serve import ModelNotTrainedError, ServingError, ServingOverloadedError

_PAYLOAD_KEYS = ("features", "batch", "features_b64", "batch_b64")
#: ``retry_after_s`` of a shed (queue-full) classify: a fixed hint, not
#: yet derived from queue depth and recent batch time.
OVERLOAD_RETRY_AFTER_S = 1.0


def _unpack(key: str, text: str, rows: int, shape: tuple[int, ...]) -> np.ndarray:
    """``rows x prod(shape)`` little-endian float32 values from base64
    ``text`` as a read-only ``(rows, size)`` array.

    The length is checked against the model's input size *before*
    decoding, so nothing is allocated from a claimed ``rows`` or from a
    payload of the wrong size; ``rows`` is explicit because a total
    alone cannot tell two half-width windows from one whole one.
    """
    if not isinstance(text, str):
        raise ApiError(400, f"{key} must be a base64 string")
    size = math.prod(shape)
    n_bytes = 4 * rows * size
    if len(text) != 4 * ((n_bytes + 2) // 3):
        got_bytes = len(text) // 4 * 3 - text[-2:].count("=")
        if len(text) % 4 == 0 and got_bytes % (4 * rows) == 0:
            # Whole float32 rows of another width: the list path's message.
            raise ApiError(400, f"expected {size} features (shape {shape}), "
                                f"got {got_bytes // (4 * rows)}")
        raise ApiError(400, f"{key} is not the base64 of {rows} row(s) of "
                            f"{size} little-endian float32 values")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error is one
        raise ApiError(400, f"{key} is not valid base64: {exc}") from None
    if len(raw) != n_bytes:  # padding where data belongs
        raise ApiError(400, f"{key} is not valid base64: misplaced padding")
    return np.frombuffer(raw, dtype="<f4").reshape(rows, size)


def classify(ctx) -> dict:
    """Serve classification from the batched serving layer.

    Body: exactly one of ``features`` (one flat window), ``batch`` (list
    of windows), ``features_b64`` or ``batch_b64`` + ``rows`` (the same,
    packed), plus optional ``precision``/``engine``.
    """
    p = ctx.platform.get_project(ctx.params["pid"], username=ctx.user)
    body = ctx.body
    given = [key for key in _PAYLOAD_KEYS if key in body]
    if len(given) != 1:
        raise ApiError(400, "provide exactly one of 'features', 'batch', "
                            "'features_b64' or 'batch_b64'")
    key = given[0]
    single, packed = key.startswith("features"), key.endswith("_b64")
    precision = body.get("precision", "int8")
    engine = body.get("engine", "eon")
    serving = ctx.platform.serving
    try:
        payload = body[key]
        if packed:
            rows = 1 if single else body.get("rows")
            if rows is None:
                raise ApiError(400, "batch_b64 needs 'rows', the number of "
                                    "feature windows it packs")
            payload = _unpack(
                key, payload, rows,
                serving.feature_shape(p.project_id, precision, engine),
            )
            if single:
                payload = payload[0]
        if single:
            result = serving.classify(
                p.project_id, payload, precision=precision, engine=engine
            )
            return {**result, "precision": precision, "engine": engine}
        results = serving.classify_batch(
            p.project_id, payload, precision=precision, engine=engine
        )
        return {
            "results": results,
            "batch_size": len(results),
            "precision": precision,
            "engine": engine,
        }
    except ModelNotTrainedError as exc:
        raise ApiError(409, str(exc))
    except ServingOverloadedError as exc:
        raise ApiError(503, str(exc), retry_after_s=OVERLOAD_RETRY_AFTER_S)
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
            Field("features_b64", "str",
                  doc="one feature window as base64 of little-endian "
                      "float32; what the SDK sends"),
            Field("batch_b64", "str",
                  doc="`rows` feature windows back to back as base64 of "
                      "little-endian float32; what the SDK sends"),
            Field("rows", "int", minimum=1,
                  doc="number of feature windows in batch_b64 (required "
                      "with it)"),
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
                                 "every placement",
                  "fields": ("name", "requests", "batches", "batched_requests",
                             "batch_errors", "mean_batch_size", "cache_size",
                             "cache_hits", "cache_misses", "cache_evictions",
                             "telemetry_errors", "restarts", "workers",
                             "backend", "per_shard")},
    ))
