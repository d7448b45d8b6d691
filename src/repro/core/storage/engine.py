"""The durable-state engine: append-only WAL + snapshot compaction.

Everything the control plane must not lose on a crash — users, tokens,
project metadata, job lifecycles, monitor baselines — is journaled as
one JSON mutation per **WAL record** and periodically folded into a
snapshot.  Heavy blobs (datasets, trained graphs) never enter the WAL;
they live in per-project directory trees (:mod:`repro.core.storage.tree`)
that the WAL references by revision.

Record layout (little-endian)::

    u32 crc32(payload) | u32 payload_len | payload (JSON, utf-8)

The WAL is an untrusted boundary against our own past self: a hard kill
can leave a torn final record, a partial header, or garbage from a
recycled disk block.  Replay therefore validates everything *before*
trusting it — bounded lengths checked before allocation (mirroring the
``frames.py`` cap-validation idiom), CRC verified over the payload, JSON
decoded defensively — and truncates the file back to the last good
record boundary instead of failing recovery.  A torn tail costs the torn
record only, never the log.

Compaction protocol (crash-safe at every step)::

    1. write ``snapshot.json.tmp`` = {"format", "seq", "state"}
    2. ``os.replace`` -> ``snapshot.json``          (atomic publish)
    3. reset ``wal.log`` to empty
    4. append a ``__compact__`` marker record

Every record carries a monotone ``seq``; replay skips records with
``seq <= snapshot.seq``, so a crash between (2) and (3) — old records
still in the log — or duplicated compaction markers replay to the exact
same state.  :class:`StorageEngine` glues the two together and is what
:class:`~repro.core.storage.durable.DurableRegistry` builds on.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import threading
import zlib

_RECORD = struct.Struct("<II")  # crc32(payload), payload_len

#: Hard cap checked before any allocation: a corrupt length field must
#: not make replay try to read gigabytes (frames.py idiom).
MAX_RECORD_BYTES = 16 * 1024 * 1024

SNAPSHOT_FORMAT = 1

#: WAL op reserved for compaction markers; reducers must ignore it.
COMPACT_MARKER_OP = "__compact__"


class WalCorruption(Exception):
    """A WAL byte stream that cannot be a valid record sequence.

    Raised internally during scanning; recovery converts it into a
    truncation back to the last good record boundary.
    """


def append_record(fd: int, payload: dict) -> bytes:
    """Encode ``payload`` and append it to ``fd`` as one WAL record.

    One ``os.write`` per record: the bytes go straight to the page cache,
    so a hard-killed *process* loses nothing already appended (power-loss
    durability additionally needs ``os.fsync``, see ``fsync=`` on
    :class:`WriteAheadLog`).  Returns the encoded record bytes.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_RECORD_BYTES:
        raise ValueError(
            f"refusing to append {len(body)}-byte WAL record "
            f"(max {MAX_RECORD_BYTES})"
        )
    record = _RECORD.pack(zlib.crc32(body) & 0xFFFFFFFF, len(body)) + body
    os.write(fd, record)
    return record


def scan_records(data: bytes) -> tuple[list[dict], int]:
    """Decode every valid record from ``data``.

    Returns ``(records, good_bytes)`` where ``good_bytes`` is the offset
    of the first byte that is not part of a fully-valid record — the
    truncation point after a torn tail.  Never raises on torn or
    corrupt input; corruption simply ends the scan.
    """
    records: list[dict] = []
    offset = 0
    total = len(data)
    while offset + _RECORD.size <= total:
        crc, length = _RECORD.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            break  # corrupt length field — cannot trust anything after
        start = offset + _RECORD.size
        end = start + length
        if end > total:
            break  # torn tail: the final record was cut mid-payload
        body = data[start:end]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            break  # bit rot / interleaved write — stop at the last good one
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break  # CRC collided with garbage; still not a record
        if not isinstance(payload, dict):
            break
        records.append(payload)
        offset = end
    return records, offset


class WriteAheadLog:
    """One append-only WAL segment file.

    ``replay()`` (called once, on open) truncates a torn tail in place so
    the next append starts at a clean record boundary.  Appends after
    that are single ``os.write`` calls on an ``O_APPEND`` descriptor.
    """

    def __init__(self, path: str | pathlib.Path, fsync: bool = False):
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self._fd: int | None = None
        self.appended = 0  # records appended through this handle

    def replay(self) -> list[dict]:
        """Read every valid record; truncate any torn/corrupt tail."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        records, good = scan_records(data)
        if good < len(data):
            with open(self.path, "r+b") as fh:
                fh.truncate(good)
        return records

    def _ensure_open(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
        return self._fd

    def append(self, payload: dict) -> None:
        fd = self._ensure_open()
        append_record(fd, payload)
        if self.fsync:
            os.fsync(fd)
        self.appended += 1

    def reset(self) -> None:
        """Truncate the segment to empty (post-compaction)."""
        self.close()
        with open(self.path, "wb"):
            pass
        self.appended = 0

    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class StorageEngine:
    """WAL + snapshot storage under one ``state_dir``.

    Layout::

        state_dir/
          wal.log         append-only mutation journal (current segment)
          snapshot.json   latest folded state (atomic os.replace publish)
          projects/       heavy per-project trees (tree.py), by revision

    The engine is payload-agnostic: callers append ``op`` dicts and get
    them back (seq-ordered, deduplicated against the snapshot) from
    :meth:`open`.  ``compact(state)`` folds the caller's current state
    into a fresh snapshot and empties the WAL.
    """

    def __init__(self, state_dir: str | pathlib.Path,
                 compact_every: int = 512, fsync: bool = False):
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.state_dir = pathlib.Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.compact_every = compact_every
        self.wal = WriteAheadLog(self.state_dir / "wal.log", fsync=fsync)
        self.snapshot_path = self.state_dir / "snapshot.json"
        self._lock = threading.RLock()
        self._seq = 0  # guarded-by: _lock
        self._records_since_snapshot = 0  # guarded-by: _lock
        self.compactions = 0  # guarded-by: _lock
        self.recovered_records = 0
        # Test hook: raise after the snapshot is published but before the
        # WAL is reset — "kill mid-compaction".
        self._crash_after_snapshot = False

    # -- recovery ----------------------------------------------------------

    def _load_snapshot(self) -> tuple[int, dict | None]:
        try:
            doc = json.loads(self.snapshot_path.read_text())
            if doc.get("format") != SNAPSHOT_FORMAT:
                raise ValueError(f"unknown snapshot format {doc.get('format')!r}")
            return int(doc["seq"]), doc["state"]
        except FileNotFoundError:
            return 0, None
        except (ValueError, KeyError, TypeError) as exc:
            # A torn snapshot can only be the .tmp of a crashed compaction
            # that never got published — os.replace is atomic — so a bad
            # snapshot.json is an operator-level problem, not a crash
            # artifact.  Refuse loudly rather than silently losing state.
            raise WalCorruption(
                f"unreadable snapshot {self.snapshot_path}: {exc}"
            ) from exc

    def open(self) -> tuple[dict | None, list[dict]]:
        """Recover: returns ``(snapshot_state, tail_ops)``.

        ``tail_ops`` are the WAL records newer than the snapshot, in
        append order, compaction markers filtered out.  A torn WAL tail
        is truncated in place; duplicate/old records (a crash between
        snapshot publish and WAL reset) are skipped by ``seq``.
        """
        with self._lock:
            snap_seq, state = self._load_snapshot()
            records = self.wal.replay()
            tail: list[dict] = []
            seen = snap_seq
            for rec in records:
                seq = rec.get("seq")
                if not isinstance(seq, int) or seq <= seen:
                    continue  # pre-snapshot replay or duplicate marker
                seen = seq
                if rec.get("op") != COMPACT_MARKER_OP:
                    tail.append(rec)
            self._seq = max(snap_seq, seen)
            self._records_since_snapshot = len(tail)
            self.recovered_records = len(tail)
            return state, tail

    # -- journaling --------------------------------------------------------

    def append(self, op: dict) -> int:
        """Stamp ``op`` with the next seq and append it; returns the seq."""
        with self._lock:
            self._seq += 1
            op = dict(op, seq=self._seq)
            self.wal.append(op)
            self._records_since_snapshot += 1
            return self._seq

    def should_compact(self) -> bool:
        with self._lock:
            return self._records_since_snapshot >= self.compact_every

    # -- compaction --------------------------------------------------------

    def compact(self, state: dict) -> None:
        """Fold ``state`` into a new snapshot and empty the WAL."""
        with self._lock:
            tmp = self.snapshot_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(
                {"format": SNAPSHOT_FORMAT, "seq": self._seq, "state": state},
                separators=(",", ":"),
            ))
            os.replace(tmp, self.snapshot_path)  # atomic publish
            if self._crash_after_snapshot:
                raise RuntimeError("crash injected after snapshot publish")
            self.wal.reset()
            self._records_since_snapshot = 0
            self.compactions += 1
            # Informational marker: makes compactions visible in the log
            # and exercises the duplicate-marker replay path.
            self.append({"op": COMPACT_MARKER_OP, "snapshot_seq": self._seq})
            self._records_since_snapshot = 0  # the marker itself is folded

    def stats(self) -> dict:
        with self._lock:
            return {
                "seq": self._seq,
                "wal_records_since_snapshot": self._records_since_snapshot,
                "wal_bytes": self.wal.size_bytes(),
                "compactions": self.compactions,
                "recovered_records": self.recovered_records,
            }

    def close(self) -> None:
        self.wal.close()
