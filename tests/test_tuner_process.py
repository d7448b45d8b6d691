"""EON Tuner trials on worker processes: bit-identity with the serial
sweep and survival of worker death mid-search."""

import numpy as np
import pytest

from repro.automl import EonTuner, SearchSpace
from repro.core.jobs import JobExecutor
from repro.core.workers.client import WorkerPool


def _tiny_space():
    return SearchSpace(
        dsp_templates=[
            {"type": "mfe", "sample_rate": 4000, "frame_length": [0.02, 0.04],
             "frame_stride": [0.02], "n_filters": [16]},
        ],
        model_templates=[
            {"architecture": "conv1d_stack", "n_layers": [1, 2],
             "first_filters": [8], "last_filters": [8, 16]},
        ],
    )


def _tiny_tuner(**kwargs):
    from repro.data.synthetic import keyword_dataset

    ds = keyword_dataset(keywords=["yes", "no"], samples_per_class=8,
                         sample_rate=4000, include_noise=False,
                         include_unknown=False, seed=0)
    label_map = {l: i for i, l in enumerate(ds.labels)}
    raw = np.stack([s.data for s in ds])
    labels = np.array([label_map[s.label] for s in ds])
    return EonTuner(raw, labels, _tiny_space(), train_epochs=3, **kwargs)


def _trial_key(t):
    return (t.dsp_spec, t.model_spec, t.accuracy, t.trained,
            t.meets_constraints, t.dsp_ms, t.nn_ms, t.dsp_ram_kb,
            t.nn_ram_kb, t.flash_kb)


def test_process_placement_bit_identical_to_serial():
    """Trials evaluated in worker processes commit the exact trials a
    serial run() produces: seeds are fixed at planning time and trial
    floats survive the JSON frame protocol bit-exactly."""
    serial = _tiny_tuner()
    serial.run(n_trials=3, seed=0)

    proc = _tiny_tuner()
    job = proc.run_parallel(
        n_trials=3, executor=JobExecutor(max_workers=4),
        max_inflight=2, seed=0, placement="process",
    )
    job.wait(timeout=300.0)
    assert job.status == "succeeded", job.error
    assert job.result["committed"] is True
    assert len(proc.trials) == len(serial.trials) == 3
    for got, want in zip(proc.trials, serial.trials):
        assert _trial_key(got) == _trial_key(want)
    assert proc.leaderboard() == serial.leaderboard()


def _big_buffers(obj, floor, seen=None):
    """Arrays / byte strings of at least ``floor`` bytes reachable from
    ``obj`` through closures, attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return [obj] if len(obj) >= floor else []
    if isinstance(obj, np.ndarray):
        return [obj] if obj.nbytes >= floor else []
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set)):
        children = list(obj)
    else:
        children = [cell.cell_contents
                    for cell in getattr(obj, "__closure__", None) or ()]
        children += list(getattr(obj, "__dict__", {}).values())
    return [hit for child in children
            for hit in _big_buffers(child, floor, seen)]


@pytest.mark.parametrize("placement", ["thread", "process"])
def test_landed_search_pins_no_training_data(placement):
    """The job history keeps every trial closure — and through it the
    tuner and, on ``process``, the worker pool and its initializer —
    alive; none of them may still hold the windows (or a packed copy)."""
    tuner = _tiny_tuner()
    floor = tuner.raw.nbytes
    executor = JobExecutor(max_workers=4)
    job = tuner.run_parallel(n_trials=3, executor=executor, max_inflight=2,
                             seed=0, placement=placement)
    job.wait(timeout=300.0)
    assert job.status == "succeeded", job.error
    assert tuner.raw is None and tuner._feature_cache == {}
    assert len(tuner.leaderboard()) == len(job.result["leaderboard"]) > 0
    with pytest.raises(RuntimeError, match="released its training windows"):
        tuner.run_parallel(n_trials=1, executor=executor, placement=placement)
    assert _big_buffers(list(executor.jobs.values()), floor) == []


def test_bad_placement_rejected():
    with pytest.raises(ValueError, match="placement"):
        _tiny_tuner().run_parallel(
            n_trials=1, executor=JobExecutor(), placement="gpu"
        )


def test_worker_death_mid_search_is_retried_and_stays_bit_identical(monkeypatch):
    """Kill a trial worker while it holds a trial: the WorkerDied trial
    is re-run on a freshly spawned (re-primed) worker within the job's
    retries budget, and the committed leaderboard is still bit-identical
    to the serial sweep."""
    serial = _tiny_tuner()
    serial.run(n_trials=3, seed=0)

    spawned = []
    original_spawn = WorkerPool._spawn

    def spying_spawn(self, index):
        handle = original_spawn(self, index)
        spawned.append(handle)
        return handle

    monkeypatch.setattr(WorkerPool, "_spawn", spying_spawn)

    # Sabotage exactly one trial: its worker dies while holding the
    # request, deterministically (no sleeps racing fast trials).
    killed = []
    original_run = WorkerPool.run

    def sabotaged_run(self, method, params=None, blobs=(), timeout=600.0):
        handle = self.acquire()
        try:
            if not killed:
                killed.append(handle.pid)
                handle.process.kill()
                handle.process.wait(timeout=10)
            return handle.request(method, params, blobs, timeout=timeout)
        finally:
            self.release(handle)

    monkeypatch.setattr(WorkerPool, "run", sabotaged_run)

    proc = _tiny_tuner()
    job = proc.run_parallel(
        n_trials=3, executor=JobExecutor(max_workers=4),
        max_inflight=1, seed=0, retries=1, placement="process",
    )
    job.wait(timeout=300.0)
    assert job.status == "succeeded", job.error
    assert job.result["committed"] is True
    assert killed, "the sabotage never ran"
    # The killed worker was replaced by a fresh spawn.
    assert len(spawned) >= 2
    assert spawned[0].pid == killed[0]
    assert len(proc.trials) == 3
    for got, want in zip(proc.trials, serial.trials):
        assert _trial_key(got) == _trial_key(want)
    assert proc.leaderboard() == serial.leaderboard()
