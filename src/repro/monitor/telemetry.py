"""Inference telemetry: records in, per-project column rings out.

Production monitoring (paper Sec. 4, the "monitor in production" half of
the MLOps loop) starts with observability on the inference path.  The
serving tier (:mod:`repro.serve`) emits one :class:`TelemetryRecord` per
served batch, its rows as columns; devices, the REST push and ``cli
monitor`` emit one-row records.  :meth:`TelemetryStore.extend` writes
them under one lock into per-project numpy column rings and numbers
every row, so the monitor tells a pinned reference from the traffic
after it.  Raw payloads (drift-window samples the closed loop routes
back into the dataset) live in a much smaller ring of their own.  The
API gateway's requests are no rows at all: each project keeps the
outcomes of its last 1,024 requests for the summary.

``benchmarks/bench_monitor_ingest.py`` gates the overhead of all of this
on the serving path at < 10%.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter, deque

import numpy as np

#: Dimensionality of the feature sketch a telemetry row carries.
SKETCH_DIM = 8

#: Per-row columns of a :class:`TelemetryWindow` and their dtypes; the
#: ``(rows, SKETCH_DIM)`` float32 ``sketch`` column comes on top.
_COLUMNS = {
    "seq": np.int64, "latency_ms": np.float64, "ok": np.bool_,
    "top": object, "confidence": np.float64, "source": object,
    "model_version": object, "raw": object,
}


def model_version_of(project) -> str:
    """The version stamp a project's current model ships under — the
    single definition shared by serving telemetry, OTA firmware stamps,
    and the monitor's version-scoped queries.  Interned, so the rows of
    one revision share one string."""
    return sys.intern(f"1.0.{getattr(project, 'model_revision', 0)}")


class TelemetryRecord:
    """One unit of telemetry ingest: ``n >= 1`` inference rows that share
    a project, model version, latency, outcome and source.

    ``top`` and ``confidence`` are per-row columns, and ``sketch`` is an
    ``(n, SKETCH_DIM)`` matrix; a scalar (and a 1-D sketch) is one row.
    ``raw``, a drift-window sample the closed loop may route back into
    the dataset, rides only on one-row records.
    """

    __slots__ = ("project_id", "model_version", "latency_ms", "top",
                 "confidence", "ok", "source", "sketch", "raw")

    def __init__(self, project_id: int, model_version: str = "unknown",
                 latency_ms: float = 0.0, top=None, confidence=0.0,
                 ok: bool = True, source: str = "serving", sketch=None,
                 raw=None):
        self.confidence = np.array(confidence, np.float64, ndmin=1)
        self.top = np.array(top, object, ndmin=1)
        n = len(self.confidence)
        if self.top.shape != (n,):
            raise ValueError("top and confidence need one value per row")
        if sketch is not None:
            sketch = np.asarray(sketch, np.float32)
            if sketch.size != n * SKETCH_DIM:
                raise ValueError(f"sketch must hold {SKETCH_DIM} numbers per row")
            sketch = sketch.reshape(n, SKETCH_DIM)
        if raw is not None and n != 1:
            raise ValueError("raw rides only on one-row records")
        self.project_id = int(project_id)
        self.model_version = model_version
        self.latency_ms = float(latency_ms)
        self.ok = bool(ok)
        self.source = source
        self.sketch = sketch
        self.raw = None if raw is None else np.asarray(raw, np.float32)

    def __len__(self) -> int:
        return len(self.confidence)

    @classmethod
    def from_dict(cls, body: dict) -> "TelemetryRecord":
        """Build a one-row record from an API payload (the device push path).

        Raises ``ValueError``/``TypeError``/``KeyError`` on malformed
        input; the API layer maps those to a 400.  Undeclared keys are
        ignored.
        """
        top = body.get("top")
        return cls(
            project_id=int(body["project_id"]),
            model_version=str(body.get("model_version", "unknown")),
            latency_ms=float(body.get("latency_ms", 0.0)),
            top=None if top is None else str(top),
            confidence=float(body.get("confidence", 0.0)),
            ok=bool(body.get("ok", True)),
            source=str(body.get("source", "api")),
            sketch=body.get("sketch"),
            raw=body.get("raw"),
        )


class TelemetryWindow:
    """Telemetry rows as columns, oldest first: what readers get.

    ``seq`` is the store's ingest order (-1: restored from the WAL);
    ``top``, ``source``, ``model_version`` and ``raw`` hold objects or
    None, and ``sketch`` is NaN on rows without one.  A slice, mask or
    index array selects a window of copies; empty is falsy.
    """

    __slots__ = (*_COLUMNS, "sketch")

    def __init__(self, rows: int = 0):
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.empty(rows, dtype))
        self.sketch = np.empty((rows, SKETCH_DIM), np.float32)

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, index) -> "TelemetryWindow":
        window = TelemetryWindow.__new__(TelemetryWindow)
        for name in self.__slots__:
            setattr(window, name, getattr(self, name)[index].copy())
        return window

    def counts(self, column: str) -> dict:
        """``{value: rows}`` over a str column; None is not counted."""
        counts = Counter(getattr(self, column).tolist())
        counts.pop(None, None)
        return {key: counts[key] for key in sorted(counts)}

    def error_rate(self) -> float:
        return np.count_nonzero(~self.ok) / len(self) if len(self) else 0.0


class _Ring:
    """The newest ``capacity`` rows written, in columns that grow like a
    list up to ``capacity`` (a project with little traffic holds little).
    ``keep_raw`` rings (fed one-row records) also keep the payloads."""

    __slots__ = ("rows", "capacity", "written", "keep_raw")

    def __init__(self, capacity: int, keep_raw: bool = False):
        self.rows = TelemetryWindow(min(capacity, 16))
        self.capacity = capacity
        self.written = 0
        self.keep_raw = keep_raw

    def __len__(self) -> int:
        return min(self.written, self.capacity)

    def write(self, rec: TelemetryRecord, seq: int) -> None:
        """Append ``rec``'s rows numbered from ``seq``: one row as scalar
        stores, more as at most two slices (keeping the newest rows)."""
        capacity, n = self.capacity, len(rec)
        if len(self.rows) < min(capacity, self.written + n):
            # Not yet wrapped: rows [0, written) keep their positions.
            grown = TelemetryWindow(min(capacity, max(2 * len(self.rows),
                                                      self.written + n)))
            for name in grown.__slots__:
                getattr(grown, name)[:self.written] = getattr(self.rows, name)[:self.written]
            self.rows = grown
        if n == 1:
            self._put(self.written % capacity, rec, 0, seq)
        else:
            k = max(0, n - capacity)
            while k < n:
                at = (self.written + k) % capacity
                m = min(n - k, capacity - at)
                self._put(slice(at, at + m), rec, slice(k, k + m),
                          np.arange(seq + k, seq + k + m))
                k += m
        self.written += n

    def _put(self, at, rec: TelemetryRecord, rows, seq) -> None:
        """Store ``rec``'s ``rows`` at ``at``: two ints or two slices."""
        col = self.rows
        col.seq[at] = seq
        col.latency_ms[at] = rec.latency_ms
        col.ok[at] = rec.ok
        col.source[at] = rec.source
        col.model_version[at] = rec.model_version
        col.top[at] = rec.top[rows]
        col.confidence[at] = rec.confidence[rows]
        col.sketch[at] = np.nan if rec.sketch is None else rec.sketch[rows]
        if self.keep_raw:
            col.raw[at] = rec.raw

    def snapshot(self) -> TelemetryWindow:
        """Copies of the retained rows, oldest first."""
        return self.rows[np.arange(self.written - len(self), self.written)
                         % self.capacity]


class TelemetryStore:
    """Bounded per-project telemetry rings with lock-amortized ingest.

    ``window`` bounds how many rows each project retains; ``raw_window``
    separately bounds how many rows with a raw payload (the candidate
    drift-window samples for the closed retrain loop) it retains.  The
    gateway's request outcomes are kept apart from the rows, so request
    traffic can never evict inference observations from the drift window.
    """

    def __init__(self, window: int = 4096, raw_window: int = 256):
        if window < 1 or raw_window < 0:
            raise ValueError("window must be >= 1, raw_window >= 0")
        self.window = window
        self.raw_window = raw_window
        self._lock = threading.Lock()
        self._rows: dict[int, _Ring] = {}  # guarded-by: _lock
        self._raw: dict[int, _Ring] = {}  # guarded-by: _lock
        self._requests: dict[int, deque] = {}  # guarded-by: _lock
        self.total_records = 0  # guarded-by: _lock

    def extend(self, records) -> int:
        """Ingest records under one lock acquisition; returns how many.
        ``total_records`` counts rows and numbers them (``seq``)."""
        with self._lock:
            for rec in records:
                pid, seq = rec.project_id, self.total_records
                _ring(self._rows, pid, self.window).write(rec, seq)
                if rec.raw is not None and self.raw_window:
                    _ring(self._raw, pid, self.raw_window, True).write(rec, seq)
                self.total_records += len(rec)
        return len(records)

    def record_request(self, project_id: int, ok: bool) -> None:
        """Note one gateway request's outcome: each project keeps its
        last 1,024, which :meth:`summary` counts."""
        with self._lock:
            outcomes = self._requests.get(project_id)
            if outcomes is None:
                outcomes = self._requests[project_id] = deque(maxlen=1024)
            outcomes.append(ok)

    def recent(self, project_id: int, n: int | None = None,
               source: str | None = None,
               model_version: str | None = None) -> TelemetryWindow:
        """Newest-last copy of a project's rows, optionally filtered by
        source (device id / shard name) and model version, then cut to
        the newest ``n``."""
        with self._lock:
            ring = self._rows.get(project_id)
            rows = ring.snapshot() if ring else TelemetryWindow()
        if source is not None:
            rows = rows[rows.source == source]
        if model_version is not None:
            rows = rows[rows.model_version == model_version]
        return rows if n is None else rows[-n:]

    def drift_candidates(self, project_id: int) -> TelemetryWindow:
        """The retained rows with a raw payload — what the closed loop
        routes back into the dataset when drift fires."""
        with self._lock:
            ring = self._raw.get(project_id)
            return ring.snapshot() if ring else TelemetryWindow()

    def count(self, project_id: int) -> int:
        with self._lock:
            return len(self._rows.get(project_id, ()))

    def project_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._rows)

    def clear(self, project_id: int | None = None) -> None:
        with self._lock:
            for rings in (self._rows, self._raw, self._requests):
                if project_id is None:
                    rings.clear()
                else:
                    rings.pop(project_id, None)

    def summary(self, project_id: int) -> dict:
        """JSON-safe per-project ingest summary for the monitor API."""
        rows = self.recent(project_id)
        with self._lock:
            outcomes = self._requests.get(project_id, ())
            requests, failed = len(outcomes), outcomes.count(False)
        return {
            "records": len(rows),
            "window": self.window,
            "raw_retained": len(self.drift_candidates(project_id)),
            "gateway_requests": requests,
            "gateway_error_rate": failed / requests if requests else 0.0,
            "by_source": rows.counts("source"),
            "by_label": rows.counts("top"),
            "by_model_version": rows.counts("model_version"),
            "error_rate": rows.error_rate(),
        }


def _ring(rings: dict, project_id: int, capacity: int,
          keep_raw: bool = False) -> _Ring:
    ring = rings.get(project_id)
    if ring is None:
        ring = rings[project_id] = _Ring(capacity, keep_raw)
    return ring
