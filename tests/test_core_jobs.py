"""Job orchestration: lifecycle, isolation, cancellation, retry, job threads."""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.core.jobs import (
    JobCancelled,
    JobExecutor,
    UnknownJobError,
)


def test_job_lifecycle():
    q = JobExecutor()
    started = threading.Event()
    release = threading.Event()

    def work(job):
        started.set()
        release.wait(timeout=5.0)
        return 42

    job = q.submit("work", work)
    assert started.wait(timeout=5.0)
    assert job.status == "running"
    release.set()
    job.wait(timeout=5.0)
    assert job.status == "succeeded"
    assert job.result == 42
    assert job.progress == 1.0
    assert job.started_at is not None and job.ended_at is not None
    assert any("started" in line for line in job.logs)


def test_drain_waits_for_everything():
    q = JobExecutor()
    jobs = [q.submit(f"j{i}", lambda j, i=i: i * i) for i in range(6)]
    done = q.drain(timeout=10.0)
    assert [j.result for j in jobs] == [0, 1, 4, 9, 16, 25]
    assert {j.job_id for j in done} == {j.job_id for j in jobs}


def test_failed_job_isolated():
    q = JobExecutor()

    def boom(job):
        raise RuntimeError("exploded")

    bad = q.submit("bad", boom)
    good = q.submit("good", lambda j: "ok")
    q.drain(timeout=10.0)
    assert bad.status == "failed"
    assert "RuntimeError" in bad.error
    assert good.status == "succeeded"


def test_job_logging_and_streaming():
    q = JobExecutor()

    def chatty(job):
        job.log("step 1")
        job.log("step 2")
        return None

    job = q.submit("chatty", chatty)
    job.wait(timeout=5.0)
    assert "step 1" in job.logs and "step 2" in job.logs
    # Streamed reads resume from the returned offset.
    first, offset = job.read_logs(0)
    assert first == job.logs
    rest, _ = job.read_logs(offset)
    assert rest == []


def test_progress_reporting():
    q = JobExecutor()

    def stepped(job):
        job.set_progress(0.5)
        assert job.progress == 0.5
        return "done"

    job = q.submit("stepped", stepped)
    job.wait(timeout=5.0)
    assert job.progress == 1.0  # success forces 1.0


def test_retry_policy():
    q = JobExecutor()
    attempts = []

    def flaky(job):
        attempts.append(job.attempts)
        if len(attempts) < 3:
            raise RuntimeError("transient")
        return "finally"

    job = q.submit("flaky", flaky, retries=2)
    job.wait(timeout=10.0)
    assert job.status == "succeeded"
    assert job.result == "finally"
    assert attempts == [1, 2, 3]
    assert any("retrying" in line for line in job.logs)


def test_retry_budget_exhausted():
    q = JobExecutor()

    def always_fails(job):
        raise ValueError("permanent")

    job = q.submit("doomed", always_fails, retries=1)
    job.wait(timeout=10.0)
    assert job.status == "failed"
    assert job.attempts == 2
    assert "ValueError" in job.error


def test_jobs_submitted_together_run_together():
    """A default executor gives every in-flight job its own worker: two
    jobs that each wait for the other both finish."""
    q = JobExecutor()
    barrier = threading.Barrier(2)
    jobs = [q.submit(f"j{i}", lambda j: barrier.wait(timeout=5.0))
            for i in range(2)]
    for job in jobs:
        job.wait(timeout=10.0)
    assert [j.status for j in jobs] == ["succeeded", "succeeded"]


def test_cancel_queued_job():
    q = JobExecutor(max_workers=1)
    gate = threading.Event()
    blocker = q.submit("blocker", lambda j: gate.wait(timeout=5.0))
    victim = q.submit("victim", lambda j: "never ran")
    status = q.cancel(victim.job_id)
    gate.set()
    assert status == "cancelled"
    victim.wait(timeout=5.0)
    assert victim.status == "cancelled"
    assert victim.result is None
    blocker.wait(timeout=5.0)
    assert blocker.status == "succeeded"


def test_cancel_running_job_cooperatively():
    q = JobExecutor()
    running = threading.Event()

    def loops(job):
        running.set()
        for _ in range(200):
            job.check_cancelled()
            time.sleep(0.01)
        return "ran to completion"

    job = q.submit("loops", loops)
    assert running.wait(timeout=5.0)
    q.cancel(job.job_id)
    job.wait(timeout=5.0)
    assert job.status == "cancelled"
    assert job.cancel_requested


def test_cancel_terminal_job_is_noop():
    q = JobExecutor()
    job = q.submit("quick", lambda j: 1)
    job.wait(timeout=5.0)
    assert q.cancel(job.job_id) == "succeeded"


def test_unknown_job_id_raises_clear_error():
    q = JobExecutor()
    with pytest.raises(UnknownJobError) as excinfo:
        q.status(99)
    assert "no job 99" in str(excinfo.value)
    # Still a KeyError for legacy callers.
    with pytest.raises(KeyError):
        q.get(99)


def test_running_jobs_peak_at_max_workers():
    """Ten blocked jobs on a four-thread executor: four run at once."""
    q = JobExecutor(max_workers=4)
    gate = threading.Event()
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    def work(job):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        gate.wait(timeout=5.0)
        with lock:
            state["now"] -= 1

    jobs = [q.submit(f"j{i}", work) for i in range(10)]
    deadline = time.monotonic() + 5.0
    while state["peak"] < 4 and time.monotonic() < deadline:
        time.sleep(0.005)
    time.sleep(0.05)  # room for a fifth job to start, were it allowed to
    assert state["peak"] == 4
    assert sum(j.status == "queued" for j in jobs) == 6
    gate.set()
    q.drain(timeout=10.0)
    assert all(j.status == "succeeded" for j in jobs)
    assert state["peak"] == 4


def test_no_job_thread_outlives_the_drained_jobs():
    """Each thread that ran a job exits once nothing is claimable."""
    q = JobExecutor(max_workers=3)
    ran_on = set()

    def work(job):
        ran_on.add(threading.current_thread())
        time.sleep(0.01)

    for i in range(9):
        q.submit(f"j{i}", work)
    q.drain(timeout=10.0)
    assert ran_on and all(t.name == "job-worker" for t in ran_on)
    for t in ran_on:
        t.join(timeout=5.0)
        assert not t.is_alive()
    assert q._threads == 0


def test_racing_submitters_run_every_job_once_within_the_caps():
    """Eight threads race 200 jobs onto a four-thread executor under a
    tiny switch interval; the even-numbered ones sit under a parent
    capped at two, and every fifth fails once and retries.  Each attempt
    runs exactly once, neither cap is ever exceeded, and every job
    thread exits."""
    q = JobExecutor(max_workers=4)
    parent = q.spawn_parent("capped", max_inflight=2)
    lock = threading.Lock()
    state = {"now": 0, "peak": 0, "kids": 0, "kids_peak": 0}
    runs: dict[int, int] = {}

    def work(job, capped, flaky):
        with lock:
            runs[job.job_id] = runs.get(job.job_id, 0) + 1
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
            state["kids"] += capped
            state["kids_peak"] = max(state["kids_peak"], state["kids"])
        time.sleep(0)
        with lock:
            state["now"] -= 1
            state["kids"] -= capped
        if flaky and job.attempts == 1:
            raise RuntimeError("first attempt fails")

    def submitter(k):
        for i in range(25):
            capped = i % 2 == 0
            q.submit(
                f"s{k}-{i}",
                lambda job, c=capped, f=i % 5 == 0: work(job, c, f),
                retries=1, parent=parent if capped else None,
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # widen any unsynchronised claim or count
    try:
        submitters = [threading.Thread(target=submitter, args=(k,)) for k in range(8)]
        for t in submitters:
            t.start()
        for t in submitters:
            t.join(timeout=30.0)
            assert not t.is_alive()
        q.seal_parent(parent)
        q.drain(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    jobs = [j for j in q.list_jobs() if j is not parent]
    assert len(jobs) == 200
    assert all(j.status == "succeeded" for j in jobs)
    assert all(runs[j.job_id] == j.attempts for j in jobs)
    assert sum(j.attempts == 2 for j in jobs) == 40
    assert parent.status == "succeeded" and len(parent.children) == 8 * 13
    assert state["peak"] <= 4 and state["kids_peak"] <= 2
    deadline = time.monotonic() + 5.0
    while q._threads and time.monotonic() < deadline:
        time.sleep(0.005)
    assert q._threads == 0


def test_landed_jobs_release_their_closures():
    """The job table keeps every landed job, not what its closures hold."""

    class Payload:
        pass

    q = JobExecutor()
    refs = []

    def closure_over(payload):
        return lambda job: id(payload)

    def failing_over(payload):
        def fn(job):
            raise RuntimeError(f"boom {id(payload)}")
        return fn

    for i in range(200):
        payload = Payload()
        refs.append(weakref.ref(payload))
        q.submit(f"j{i}", (failing_over if i % 10 == 0 else closure_over)(payload))
    parent_payload = Payload()
    refs.append(weakref.ref(parent_payload))
    parent = q.spawn_parent(
        "parent", finalize=lambda p, kids, pp=parent_payload: len(kids),
        on_child_done=lambda p, kid, pp=parent_payload: None,
    )
    q.submit("child", lambda job: None, parent=parent)
    q.seal_parent(parent)
    del payload, parent_payload
    q.drain(timeout=10.0)
    assert len(q.list_jobs()) == 202 and parent.result == 1
    gc.collect()
    assert sum(r() is not None for r in refs) == 0


def test_shutdown_rejects_new_work():
    q = JobExecutor()
    q.submit("last", lambda j: "ok")
    q.shutdown(wait=True)
    with pytest.raises(RuntimeError):
        q.submit("late", lambda j: None)


# -- parent/child jobs + parent caps ----------------------------------------


def test_group_limit_caps_concurrency():
    """A parent's ``max_inflight`` caps how many of its children run."""
    q = JobExecutor(max_workers=6)
    parent = q.spawn_parent("capped", max_inflight=2)
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    def work(job):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        time.sleep(0.03)
        with lock:
            state["now"] -= 1

    jobs = [q.submit(f"j{i}", work, parent=parent) for i in range(6)]
    q.seal_parent(parent)
    q.drain(timeout=10.0)
    assert all(j.status == "succeeded" for j in jobs)
    assert parent.status == "succeeded"
    assert state["peak"] <= 2


def test_grouped_and_ungrouped_jobs_coexist():
    """A capped parent must not starve jobs outside its family."""
    q = JobExecutor(max_workers=4)
    parent = q.spawn_parent("slow", max_inflight=1)
    gate = threading.Event()
    slow = [q.submit(f"s{i}", lambda j: gate.wait(timeout=5.0), parent=parent)
            for i in range(3)]
    q.seal_parent(parent)
    free = q.submit("free", lambda j: "ran")
    free.wait(timeout=5.0)
    assert free.status == "succeeded"  # while the slow parent is capped
    assert sum(1 for j in slow if j.status == "running") == 1
    gate.set()
    q.drain(timeout=10.0)
    assert all(j.status == "succeeded" for j in slow)
    assert parent.status == "succeeded"


def test_parent_cap_must_be_positive():
    with pytest.raises(ValueError, match="max_inflight"):
        JobExecutor().spawn_parent("p", max_inflight=0)


def test_parent_aggregates_children():
    q = JobExecutor()
    parent = q.spawn_parent(
        "sum", finalize=lambda p, kids: sum(k.result for k in kids)
    )
    for i in range(4):
        q.submit(f"c{i}", lambda j, i=i: i, parent=parent)
    q.seal_parent(parent)
    parent.wait(timeout=10.0)
    assert parent.status == "succeeded"
    assert parent.result == 0 + 1 + 2 + 3
    assert parent.progress == 1.0
    assert [c.job_id for c in q.children(parent.job_id)] == parent.children


def test_parent_with_no_children_completes_on_seal():
    q = JobExecutor()
    parent = q.spawn_parent("empty", finalize=lambda p, kids: len(kids))
    q.seal_parent(parent)
    parent.wait(timeout=5.0)
    assert parent.status == "succeeded"
    assert parent.result == 0


def test_parent_fails_when_child_fails():
    q = JobExecutor()
    parent = q.spawn_parent("family")
    q.submit("ok", lambda j: 1, parent=parent)
    q.submit("boom", lambda j: 1 / 0, parent=parent)
    q.seal_parent(parent)
    parent.wait(timeout=10.0)
    assert parent.status == "failed"
    assert "ZeroDivisionError" in parent.error


def test_parent_tolerates_child_failure_when_asked():
    q = JobExecutor()
    parent = q.spawn_parent(
        "lenient", fail_on_child_failure=False,
        finalize=lambda p, kids: [k.status for k in kids],
    )
    q.submit("ok", lambda j: 1, parent=parent)
    q.submit("boom", lambda j: 1 / 0, parent=parent)
    q.seal_parent(parent)
    parent.wait(timeout=10.0)
    assert parent.status == "succeeded"
    assert sorted(parent.result) == ["failed", "succeeded"]


def test_finalizer_error_fails_parent():
    q = JobExecutor()
    parent = q.spawn_parent(
        "bad-finalize", finalize=lambda p, kids: 1 / 0
    )
    q.submit("ok", lambda j: 1, parent=parent)
    q.seal_parent(parent)
    parent.wait(timeout=10.0)
    assert parent.status == "failed"
    assert "ZeroDivisionError" in parent.error


def test_cancel_parent_cascades_to_children():
    q = JobExecutor(max_workers=1)
    running = threading.Event()

    def slow(job):
        running.set()
        for _ in range(500):
            job.check_cancelled()
            time.sleep(0.005)

    parent = q.spawn_parent("family")
    first = q.submit("slow", slow, parent=parent)
    queued = [q.submit(f"q{i}", lambda j: "never", parent=parent)
              for i in range(3)]
    q.seal_parent(parent)
    assert running.wait(timeout=5.0)
    q.cancel(parent.job_id)
    parent.wait(timeout=10.0)
    assert parent.status == "cancelled"
    assert first.status == "cancelled"  # cooperative, drained
    assert all(c.status == "cancelled" for c in queued)  # dropped outright
    assert all(c.result is None for c in queued)


def test_submit_to_finished_parent_raises():
    q = JobExecutor()
    parent = q.spawn_parent("done")
    q.seal_parent(parent)
    parent.wait(timeout=5.0)
    with pytest.raises(RuntimeError, match="already succeeded"):
        q.submit("late", lambda j: 1, parent=parent)


def test_submit_with_non_parent_raises():
    q = JobExecutor()
    plain = q.submit("plain", lambda j: 1)
    with pytest.raises(ValueError, match="not a parent job"):
        q.submit("child", lambda j: 1, parent=plain)
    q.drain(timeout=5.0)


def test_child_retry_budget_is_per_child():
    q = JobExecutor()
    attempts = {"a": 0, "b": 0}

    def flaky(key):
        def run(job):
            attempts[key] += 1
            if attempts[key] < 2:
                raise RuntimeError("transient")
            return key
        return run

    parent = q.spawn_parent("retrying")
    q.submit("a", flaky("a"), retries=1, parent=parent)
    q.submit("b", flaky("b"), retries=1, parent=parent)
    q.seal_parent(parent)
    parent.wait(timeout=10.0)
    assert parent.status == "succeeded"
    assert attempts == {"a": 2, "b": 2}  # each child used its own budget


def test_nested_parents_complete_bottom_up():
    q = JobExecutor()
    root = q.spawn_parent("root", finalize=lambda p, kids: len(kids))
    mid = q.spawn_parent("mid", parent=root,
                         finalize=lambda p, kids: len(kids))
    q.submit("leaf1", lambda j: 1, parent=mid)
    q.submit("leaf2", lambda j: 2, parent=mid)
    q.seal_parent(mid)
    q.submit("leaf3", lambda j: 3, parent=root)
    q.seal_parent(root)
    root.wait(timeout=10.0)
    assert mid.status == "succeeded" and mid.result == 2
    assert root.status == "succeeded" and root.result == 2  # mid + leaf3
