"""Job orchestration: a job table with a real lifecycle (paper Sec. 4.10).

The hosted platform runs every training / tuning / export job in a
container on an autoscaled Kubernetes cluster.  This module reproduces
that control plane as an in-process orchestrator:

- :class:`JobExecutor` is a table of jobs plus a FIFO of queued ones;
  each running job has a thread of its own (at most ``max_workers`` at
  once), and a thread whose job lands runs the next claimable job or
  exits, so an idle executor holds no thread;
- every :class:`Job` moves through ``queued -> running ->
  succeeded | failed | cancelled``, carries a streamable log, a
  ``progress`` fraction, and a retry budget;
- queued jobs can be cancelled outright; running jobs are cancelled
  cooperatively — the job function calls :meth:`Job.check_cancelled`
  at safe points and the executor marks the job ``cancelled``;
- failures are isolated: an exception fails (or retries) that job only.

Distributed workloads (the EON Tuner's parallel trials, fleet OTA
rollouts) are modelled as **parent jobs** with child jobs:

- :meth:`JobExecutor.spawn_parent` creates a coordinator job that never
  occupies a thread — it completes when all of its children are
  terminal (so a fleet of parents can never deadlock the executor);
- children are submitted with ``parent=``; a parent spawned with
  ``max_inflight=N`` runs at most ``N`` of its children at once (the
  per-workload quota of the hosted cluster) — the claim loop passes
  over a capped parent's queued children, so unrelated jobs still run;
- cancelling a parent cascades to every descendant: queued children are
  cancelled outright, running children drain cooperatively, and the
  parent finishes once the last child is terminal;
- an optional ``on_child_done`` callback observes each child as it
  lands (progress aggregation, staged submission of more children) and
  ``finalize`` computes the parent's result from its children.

Submitting is always asynchronous — ``submit`` returns immediately and
callers use :meth:`Job.wait`, :meth:`JobExecutor.drain` or the jobs API
routes to observe completion.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

#: Terminal job states — once reached, a job's status never changes again.
TERMINAL_STATES = ("succeeded", "failed", "cancelled")


class UnknownJobError(KeyError):
    """Lookup of a job id the executor has never issued.

    Subclasses ``KeyError`` so legacy callers that caught ``KeyError``
    keep working, but carries a clear message (the API maps this to a
    404 instead of a blank ``KeyError: 7`` surfacing as a 500).
    """

    def __init__(self, job_id: object):
        super().__init__(f"no job {job_id}")
        self.job_id = job_id

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class JobCancelled(Exception):
    """Raised inside a job function to acknowledge a cancellation request."""


@dataclass
class Job:
    """One unit of background work plus its observable state."""

    job_id: int
    name: str
    fn: Callable[["Job"], object] = field(repr=False, default=None)  # None once landed
    status: str = "queued"  # queued | running | succeeded | failed | cancelled
    logs: list[str] = field(default_factory=list)
    result: object = None
    error: str | None = None
    progress: float = 0.0
    max_retries: int = 0
    attempts: int = 0
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    ended_at: float | None = None
    parent_id: int | None = None
    children: list[int] = field(default_factory=list)
    #: What a journal needs to resubmit the job after a restart (or None).
    spec: dict | None = None

    def __post_init__(self):
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._cancel = threading.Event()
        # Parent-job machinery (set by JobExecutor.spawn_parent).
        self._is_parent = False
        self._sealed = True  # plain jobs have no children to wait on
        self._completing = False
        self._notified_children = 0  # children whose done-note was processed
        self._finalize: Callable[["Job", list["Job"]], object] | None = None
        self._on_child_done: Callable[["Job", "Job"], None] | None = None
        self._fail_on_child_failure = True
        self._max_inflight: int | None = None  # cap on running children
        self._running_children = 0

    # -- job-side hooks -----------------------------------------------------

    def log(self, message: str) -> None:
        with self._lock:
            self.logs.append(message)

    def set_progress(self, fraction: float) -> None:
        """Report completion fraction in [0, 1]; monotonic per attempt."""
        with self._lock:
            self.progress = float(min(1.0, max(0.0, fraction)))

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def check_cancelled(self) -> None:
        """Cooperative cancellation point for running job functions."""
        if self._cancel.is_set():
            raise JobCancelled(f"job {self.job_id} cancelled")

    # -- caller-side observation --------------------------------------------

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> "Job":
        """Block until the job reaches a terminal state (or timeout)."""
        self._done.wait(timeout)
        return self

    def read_logs(self, offset: int = 0) -> tuple[list[str], int]:
        """Log lines from ``offset`` on, plus the next offset — the
        streaming contract the ``GET /jobs/<jid>`` route exposes."""
        with self._lock:
            lines = self.logs[offset:]
            return lines, offset + len(lines)

    def snapshot(self, log_offset: int = 0) -> dict:
        """JSON-compatible view of the job for the API."""
        lines, next_offset = self.read_logs(log_offset)
        return {
            "job_id": self.job_id,
            "name": self.name,
            "job_status": self.status,
            "progress": self.progress,
            "attempts": self.attempts,
            "error": self.error,
            "parent_id": self.parent_id,
            "children": list(self.children),
            "logs": lines,
            "log_offset": next_offset,
        }


class JobExecutor:
    """Job table whose running jobs each hold a thread of their own.

    ``submit`` starts a thread while fewer than ``max_workers`` exist,
    so jobs submitted together run together.  A thread whose job lands
    claims the next claimable job or exits at once, so an executor with
    nothing running holds no thread.  All job threads are daemons.
    """

    def __init__(self, max_workers: int = 8):
        if max_workers < 1:
            raise ValueError("need max_workers >= 1")
        self.max_workers = max_workers
        self.jobs: dict[int, Job] = {}  # guarded-by: _lock
        self._pending: deque[int] = deque()  # guarded-by: _lock
        # Reentrant: parent-completion bookkeeping re-enters the lock
        # from paths that may already hold it (cancel cascade, seal).
        self._lock = threading.RLock()
        self._next_id = 1  # guarded-by: _lock
        self._threads = 0  # guarded-by: _lock (live job threads)
        self._shutdown = False  # guarded-by: _lock
        # Optional lifecycle journal (the durable control plane sets one
        # per project executor): ``job_begun(job)`` for every job this
        # executor creates, ``job_done(job)`` once when it lands — both
        # outside the executor lock.  Set before the first submit.
        self.journal = None

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        name: str,
        fn: Callable[[Job], object],
        retries: int = 0,
        parent: "Job | int | None" = None,
        spec: dict | None = None,
    ) -> Job:
        """Queue a job; returns immediately with the (queued) Job.

        ``parent`` links the job under a coordinator created with
        :meth:`spawn_parent` (and subjects it to that parent's
        ``max_inflight`` cap); ``spec`` rides on the job for the journal
        (what a restart needs to resubmit it).
        """
        with self._lock:
            if self._shutdown:
                raise RuntimeError("executor is shut down")
            parent_job = self._resolve_parent_locked(parent)
            job = Job(
                job_id=self._next_id, name=name, fn=fn, max_retries=retries,
                parent_id=parent_job.job_id if parent_job else None,
                spec=spec,
            )
            self._next_id += 1
            self.jobs[job.job_id] = job
            if parent_job is not None:
                parent_job.children.append(job.job_id)
                if parent_job.cancel_requested:
                    # A cancelled parent accepts no new work: the child is
                    # born cancelled (it still counts as a terminal child).
                    job._cancel.set()
            self._pending.append(job.job_id)
            spawn = self._threads < self.max_workers
            if spawn:
                self._threads += 1
        if spawn:
            threading.Thread(target=self._run_jobs, name="job-worker", daemon=True).start()
        if self.journal is not None:
            self.journal.job_begun(job)
        return job

    def _resolve_parent_locked(self, parent: "Job | int | None") -> Job | None:
        if parent is None:
            return None
        parent_job = self.get(parent.job_id if isinstance(parent, Job) else parent)
        if not parent_job._is_parent:
            raise ValueError(f"job {parent_job.job_id} is not a parent job")
        if parent_job.done:
            raise RuntimeError(
                f"parent job {parent_job.job_id} is already {parent_job.status}"
            )
        return parent_job

    def spawn_parent(
        self,
        name: str,
        parent: "Job | int | None" = None,
        finalize: Callable[[Job, list[Job]], object] | None = None,
        on_child_done: Callable[[Job, Job], None] | None = None,
        fail_on_child_failure: bool = True,
        max_inflight: int | None = None,
    ) -> Job:
        """Create a coordinator job for a family of child jobs.

        The parent never occupies a job thread: it is ``running`` from
        birth and completes when it has been sealed (:meth:`seal_parent`)
        and every child is terminal — or, if cancelled, as soon as its
        (cascaded-cancelled) children have drained.  ``finalize(parent,
        children)`` computes the parent's result; raising inside it fails
        the parent.  ``on_child_done(parent, child)`` fires once per child
        as it lands (outside the executor lock, so it may submit further
        children for staged workloads).  ``max_inflight`` caps how many
        of its children run at once (None: no cap).  Callers MUST
        eventually call :meth:`seal_parent` or :meth:`cancel`, else the
        parent never completes.
        """
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        with self._lock:
            if self._shutdown:
                raise RuntimeError("executor is shut down")
            parent_job = self._resolve_parent_locked(parent)
            job = Job(
                job_id=self._next_id, name=name, fn=None, status="running",
                parent_id=parent_job.job_id if parent_job else None,
            )
            self._next_id += 1
            job.started_at = time.time()
            job._is_parent = True
            job._sealed = False
            job._finalize = finalize
            job._on_child_done = on_child_done
            job._fail_on_child_failure = fail_on_child_failure
            job._max_inflight = max_inflight
            self.jobs[job.job_id] = job
            if parent_job is not None:
                parent_job.children.append(job.job_id)
                if parent_job.cancel_requested:
                    job._cancel.set()
        job.log(f"parent job {job.job_id} ({name}) spawned")
        if self.journal is not None:
            self.journal.job_begun(job)
        return job

    def seal_parent(self, parent: "Job | int") -> None:
        """Declare that no more children will be submitted under
        ``parent``; the parent completes once all children are terminal
        (immediately, if they already are)."""
        notes: list[tuple[str, int]] = []
        with self._lock:
            job = self.get(parent.job_id if isinstance(parent, Job) else parent)
            if not job._is_parent:
                raise ValueError(f"job {job.job_id} is not a parent job")
            job._sealed = True
            notes.append(("check", job.job_id))
        self._process_notes(notes)

    def children(self, job_id: int) -> list[Job]:
        """The child jobs of ``job_id``, in submission order."""
        with self._lock:
            return [self.jobs[c] for c in self.get(job_id).children]

    # -- job threads --------------------------------------------------------

    def _claim_locked(self) -> Job | None:
        """Start the first pending job whose parent is under its cap."""
        for jid in list(self._pending):
            job = self.jobs[jid]
            parent = self.jobs.get(job.parent_id)
            if (parent is not None and parent._max_inflight is not None
                    and parent._running_children >= parent._max_inflight):
                continue  # parent at capacity — leave in order, look on
            self._pending.remove(jid)
            job.status = "running"
            job.started_at = time.time()
            job.attempts += 1
            if parent is not None:
                parent._running_children += 1
            return job
        return None

    def _run_jobs(self) -> None:
        """A job thread: run claimable jobs until none is left, then exit."""
        while True:
            with self._lock:
                job = self._claim_locked()
                if job is None:
                    self._threads -= 1
                    return
            notes = self._run_one(job)
            with self._lock:
                parent = self.jobs.get(job.parent_id)
                if parent is not None:
                    parent._running_children -= 1
            self._process_notes(notes)

    def _run_one(self, job: Job) -> list[tuple[str, int]]:
        notes: list[tuple[str, int]] = []
        job.log(f"job {job.job_id} ({job.name}) started (attempt {job.attempts})")
        try:
            job.check_cancelled()
            job.result = job.fn(job)
        except JobCancelled:
            with self._lock:
                self._finish_locked(job, "cancelled", "job cancelled", notes)
            return notes
        except Exception as exc:  # noqa: BLE001 - job isolation
            job.error = f"{type(exc).__name__}: {exc}"
            if job.attempts <= job.max_retries and not job.cancel_requested:
                job.log(
                    f"attempt {job.attempts} failed ({job.error}); retrying "
                    f"({job.max_retries - job.attempts + 1} retr(y/ies) left)"
                )
                with self._lock:  # this thread claims it again
                    job.status = "queued"
                    job.progress = 0.0
                    self._pending.append(job.job_id)
                return notes
            with self._lock:
                self._finish_locked(
                    job, "failed",
                    "job failed:\n" + traceback.format_exc(limit=3), notes,
                )
            return notes
        job.error = None
        job.set_progress(1.0)
        with self._lock:
            self._finish_locked(job, "succeeded", "job succeeded", notes)
        return notes

    def _finish_locked(
        self, job: Job, status: str, log: str, notes: list[tuple[str, int]]
    ) -> None:
        job.ended_at = time.time()
        job.log(log)  # before the status: a reader that sees `done` has every line
        job.status = status
        # A landed job runs no more code: drop what its closures pin.
        job.fn = job._finalize = job._on_child_done = None
        job._done.set()
        if self.journal is not None:
            notes.append(("ondone", job.job_id))
        if job.parent_id is not None:
            notes.append(("done", job.job_id))

    # -- parent completion --------------------------------------------------

    def _process_notes(self, notes: list[tuple[str, int]]) -> None:
        """Drive parent bookkeeping outside the executor lock.

        ``("ondone", job_id)`` reports a landed job to the journal;
        ``("done", child_id)`` fires the parent's ``on_child_done`` then
        re-checks the parent; ``("check", parent_id)`` re-checks
        completion directly.  Completion of a parent appends a ``done``
        note for *its* parent, so whole trees settle in one pass.
        """
        while notes:
            kind, jid = notes.pop(0)
            with self._lock:
                job = self.jobs.get(jid)
            if job is None:
                continue
            if kind == "ondone":
                try:
                    self.journal.job_done(job)
                except Exception as exc:  # noqa: BLE001 - observer isolation
                    job.log(f"journal error: {type(exc).__name__}: {exc}")
            elif kind == "done":
                with self._lock:
                    parent = self.jobs.get(job.parent_id)
                if parent is None:
                    continue
                if parent._on_child_done is not None:
                    try:
                        parent._on_child_done(parent, job)
                    except Exception as exc:  # noqa: BLE001 - observer isolation
                        parent.log(
                            f"on_child_done callback error for child "
                            f"{job.job_id}: {type(exc).__name__}: {exc}"
                        )
                else:
                    with self._lock:
                        total = len(parent.children)
                        done = sum(
                            1 for c in parent.children if self.jobs[c].done
                        )
                    if total:
                        parent.set_progress(done / total)
                # Count the child as notified only after its callback ran:
                # the parent cannot complete (and finalize cannot read a
                # partially-updated aggregate) until every child's
                # observer has finished.
                with self._lock:
                    parent._notified_children += 1
                notes.append(("check", parent.job_id))
            else:  # "check"
                self._try_complete_parent(job, notes)

    def _try_complete_parent(
        self, parent: Job, notes: list[tuple[str, int]]
    ) -> None:
        with self._lock:
            if not parent._is_parent or parent.done or parent._completing:
                return
            if not (parent._sealed or parent.cancel_requested):
                return  # more children may still be submitted
            kids = [self.jobs[c] for c in parent.children]
            if any(not k.done for k in kids):
                return
            if parent._notified_children < len(kids):
                return  # a sibling's done-note is still being processed
            parent._completing = True
        status = "cancelled" if parent.cancel_requested else "succeeded"
        if status == "succeeded" and parent._fail_on_child_failure:
            failed = [k for k in kids if k.status == "failed"]
            if failed:
                status = "failed"
                parent.error = (
                    f"{len(failed)} child job(s) failed: "
                    + "; ".join(f"job {k.job_id}: {k.error}" for k in failed[:3])
                )
        if parent._finalize is not None:
            try:
                parent.result = parent._finalize(parent, kids)
            except Exception as exc:  # noqa: BLE001 - finalizer isolation
                if status != "cancelled":
                    status = "failed"
                parent.error = f"{type(exc).__name__}: {exc}"
        if status == "succeeded":
            parent.set_progress(1.0)
        with self._lock:
            self._finish_locked(
                parent, status,
                f"parent job {status} ({len(kids)} child job(s))", notes,
            )

    # -- recovery -----------------------------------------------------------

    def restore_job(
        self,
        job_id: int,
        name: str,
        status: str,
        error: str | None = None,
        logs: list[str] | None = None,
    ) -> Job:
        """Recreate a terminal job from a journaled lifecycle (the durable
        control plane's restart path).  The restored job is observable
        (``get``/``wait``/``snapshot``) but never re-executes; ids are
        reserved so post-restart submissions can't collide with history.
        Restoring an id this executor already knows is a no-op.
        """
        if status not in TERMINAL_STATES:
            raise ValueError(
                f"can only restore terminal jobs, not {status!r}"
            )
        with self._lock:
            existing = self.jobs.get(job_id)
            if existing is not None:
                return existing
            job = Job(job_id=job_id, name=name, status=status)
            job.error = error
            job.logs = list(logs) if logs else [f"restored: job {status}"]
            if status == "succeeded":
                job.progress = 1.0
            job._done.set()
            self.jobs[job_id] = job
            self._next_id = max(self._next_id, job_id + 1)
        return job

    # -- control plane ------------------------------------------------------

    def get(self, job_id: int) -> Job:
        with self._lock:
            job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def status(self, job_id: int) -> str:
        """Status string; raises :class:`UnknownJobError` (not a bare
        ``KeyError``) for ids this executor never issued."""
        return self.get(job_id).status

    def cancel(self, job_id: int) -> str:
        """Cancel a job and (recursively) its children.  Queued jobs are
        cancelled immediately; running jobs get a cooperative request
        (honoured at the function's next ``check_cancelled``); parent
        jobs complete once their cascaded-cancelled children drain.
        Returns the job's status after the attempt.
        """
        notes: list[tuple[str, int]] = []
        with self._lock:
            job = self.get(job_id)
            if job.done:
                return job.status
            self._cancel_locked(job, notes)
        self._process_notes(notes)
        return job.status

    def _cancel_locked(self, job: Job, notes: list[tuple[str, int]]) -> None:
        if job.done:
            return
        job._cancel.set()
        for cid in list(job.children):
            self._cancel_locked(self.jobs[cid], notes)
        if job.status == "queued":  # queued exactly while in _pending
            self._pending.remove(job.job_id)
            self._finish_locked(job, "cancelled", "cancelled while queued", notes)
        elif job._is_parent:
            # All children may already be terminal — re-check completion.
            notes.append(("check", job.job_id))

    def wait(self, job_id: int, timeout: float | None = None) -> Job:
        return self.get(job_id).wait(timeout)

    def drain(self, timeout: float | None = None) -> list[Job]:
        """Block until every submitted job is terminal; returns them in
        submission order (the old synchronous-queue contract)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in self.list_jobs():
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            job.wait(remaining)
        return [j for j in self.list_jobs() if j.done]

    def list_jobs(self) -> list[Job]:
        with self._lock:
            return list(self.jobs.values())

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for in-flight jobs."""
        with self._lock:
            self._shutdown = True
        if wait:
            self.drain()
