"""Distributed EON Tuner trials: serial/parallel equivalence, cancellation
hygiene, and concurrency stress against one shared JobExecutor."""

import functools
import threading

import numpy as np
import pytest

from repro.automl import EonTuner, SearchSpace
from repro.core.jobs import JobExecutor


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


def _tiny_tuner(cls=EonTuner, **kwargs):
    from repro.data.synthetic import keyword_dataset

    ds = keyword_dataset(keywords=["yes", "no"], samples_per_class=8,
                         sample_rate=4000, include_noise=False,
                         include_unknown=False, seed=0)
    label_map = {l: i for i, l in enumerate(ds.labels)}
    raw = np.stack([s.data for s in ds])
    labels = np.array([label_map[s.label] for s in ds])
    return cls(raw, labels, _tiny_space(), train_epochs=3, **kwargs)


def _trial_key(t):
    return (t.dsp_spec, t.model_spec, t.accuracy, t.trained,
            t.meets_constraints, t.dsp_ms, t.nn_ms, t.dsp_ram_kb,
            t.nn_ram_kb, t.flash_kb)


def _assert_released(tuner):
    """However a parallel search landed, the tuner holds no training
    windows or DSP features, and says so instead of failing on a shape."""
    assert tuner.raw is None and tuner._feature_cache == {}
    for search in (tuner.run,
                   functools.partial(tuner.run_parallel, executor=JobExecutor())):
        with pytest.raises(RuntimeError, match="released its training windows"):
            search(n_trials=len(tuner.trials) + 1)


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_parallel_leaderboard_bit_identical_to_serial(max_inflight):
    """Same seed => run_parallel commits the exact trials serial run()
    produces, in the same order, regardless of trial scheduling."""
    serial = _tiny_tuner()
    serial.run(n_trials=4, seed=0)

    parallel = _tiny_tuner()
    executor = JobExecutor(max_workers=4)
    job = parallel.run_parallel(
        n_trials=4, executor=executor, max_inflight=max_inflight, seed=0
    )
    job.wait(timeout=60.0)
    assert job.status == "succeeded", job.error
    assert job.result["committed"] is True

    assert len(parallel.trials) == len(serial.trials) == 4
    for a, b in zip(serial.trials, parallel.trials):
        assert _trial_key(a) == _trial_key(b)
    assert parallel.results_table() == serial.results_table()
    assert parallel.leaderboard() == serial.leaderboard()
    assert parallel.best_trial().accuracy == serial.best_trial().accuracy
    # ... all of it served after the landed search let its data go.
    _assert_released(parallel)
    with pytest.raises(RuntimeError, match="released its training windows"):
        parallel.evaluate_config(*parallel.space.sample(0))
    assert serial.raw is not None and serial._feature_cache  # run() keeps it


def test_parallel_respects_max_inflight():
    """No more than max_inflight trials evaluate concurrently."""
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    class Counting(EonTuner):
        def _evaluate_trial(self, *args, **kwargs):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            try:
                return super()._evaluate_trial(*args, **kwargs)
            finally:
                with lock:
                    state["now"] -= 1

    tuner = _tiny_tuner(cls=Counting)
    executor = JobExecutor(max_workers=8)
    job = tuner.run_parallel(n_trials=6, executor=executor,
                             max_inflight=2, seed=0)
    job.wait(timeout=60.0)
    assert job.status == "succeeded", job.error
    assert state["peak"] <= 2


def test_cancel_mid_search_commits_nothing():
    """Cancelling the parent drains in-flight trials and leaves the
    tuner (and anything built on it) untouched."""
    started = threading.Event()
    release = threading.Event()

    class Gated(EonTuner):
        def _evaluate_trial(self, *args, **kwargs):
            started.set()
            assert release.wait(timeout=10.0)
            return super()._evaluate_trial(*args, **kwargs)

    tuner = _tiny_tuner(cls=Gated)
    executor = JobExecutor(max_workers=2)
    job = tuner.run_parallel(n_trials=4, executor=executor,
                             max_inflight=1, seed=0)
    assert started.wait(timeout=10.0)  # first trial is mid-flight
    executor.cancel(job.job_id)
    release.set()
    job.wait(timeout=60.0)
    assert job.status == "cancelled"
    assert job.result["committed"] is False
    assert tuner.trials == []  # nothing committed
    _assert_released(tuner)
    children = executor.children(job.job_id)
    assert all(c.done for c in children)
    # Queued trials never ran: they were dropped outright.
    assert any(c.status == "cancelled" and c.attempts == 0 for c in children)


def test_project_state_untouched_by_cancelled_search(monkeypatch):
    """Project-level: a cancelled tune_async leaves impulse, label_map
    and graphs exactly as they were."""
    from repro.core import ClassificationBlock, Impulse, TimeSeriesInput
    from repro.core.project import Project
    from repro.data.dataset import Sample
    from repro.data.synthetic import keyword_dataset
    from repro.dsp import get_dsp_block

    project = Project(name="tuned")
    ds = keyword_dataset(keywords=["yes", "no"], samples_per_class=6,
                         sample_rate=4000, include_noise=False,
                         include_unknown=False, seed=0)
    for s in ds:
        project.dataset.add(Sample(data=s.data, label=s.label),
                            category="train")
    mfe = get_dsp_block({"type": "mfe", "config": {
        "sample_rate": 4000, "frame_length": 0.02, "frame_stride": 0.02,
        "n_filters": 16}})
    project.set_impulse(Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=4000),
        [mfe], ClassificationBlock(),
    ))
    impulse_before = project.impulse.to_dict()

    started = threading.Event()
    release = threading.Event()
    original = EonTuner._evaluate_trial

    def gated(self, *args, **kwargs):
        started.set()
        assert release.wait(timeout=10.0)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EonTuner, "_evaluate_trial", gated)
    job = project.tune_async(n_trials=3, max_inflight=1, seed=0,
                             space=_tiny_space(), train_epochs=2)
    assert started.wait(timeout=10.0)
    project.jobs.cancel(job.job_id)
    release.set()
    job.wait(timeout=60.0)
    assert job.status == "cancelled"
    assert project.impulse.to_dict() == impulse_before
    assert project.label_map == {} and project.float_graph is None
    assert project.tuners[job.job_id].trials == []
    _assert_released(project.tuners[job.job_id])
    assert project.leaderboards() == {}
    with pytest.raises(RuntimeError, match="no trials"):
        project.apply_tuner_result(job.job_id)


def test_failed_trial_fails_parent_and_commits_nothing():
    class Exploding(EonTuner):
        def _evaluate_trial(self, dsp_spec, model_spec, **kwargs):
            if model_spec.get("n_layers") == 2:
                raise RuntimeError("synthetic trial crash")
            return super()._evaluate_trial(dsp_spec, model_spec, **kwargs)

    tuner = _tiny_tuner(cls=Exploding)
    executor = JobExecutor(max_workers=4)
    job = tuner.run_parallel(n_trials=4, executor=executor,
                             max_inflight=4, seed=0)
    job.wait(timeout=60.0)
    assert job.status == "failed"
    assert "synthetic trial crash" in job.error
    assert tuner.trials == []
    _assert_released(tuner)


def test_concurrent_tuner_runs_hammer_one_executor():
    """N threads each launch a parallel search against one shared
    JobExecutor; every search succeeds and matches its serial twin."""
    executor = JobExecutor(max_workers=4)
    n_runs = 3
    results: list = [None] * n_runs
    errors: list = []

    def launch(i):
        try:
            tuner = _tiny_tuner()
            job = tuner.run_parallel(n_trials=3, executor=executor,
                                     max_inflight=2, seed=i)
            job.wait(timeout=120.0)
            results[i] = (tuner, job)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=launch, args=(i,)) for i in range(n_runs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not errors
    for i, (tuner, job) in enumerate(results):
        assert job.status == "succeeded", (i, job.error)
        twin = _tiny_tuner()
        twin.run(n_trials=3, seed=i)
        assert [_trial_key(t) for t in tuner.trials] == [
            _trial_key(t) for t in twin.trials
        ]
    # The executor settled: nothing queued or running anywhere.
    assert all(j.done for j in executor.list_jobs())
    assert executor.queue_depth == 0


def test_run_zero_trials_best_trial_raises():
    """Regression: run(n_trials=0) used to yield a misleading empty
    leaderboard; best_trial now refuses loudly."""
    tuner = _tiny_tuner()
    assert tuner.run(n_trials=0, seed=0) == []
    with pytest.raises(RuntimeError, match="no trials have been run"):
        tuner.best_trial()
    assert "no trials run" in tuner.results_table()
    # After a real run the error goes away.
    tuner.run(n_trials=1, seed=0)
    assert tuner.best_trial() is not None or tuner.trials


def test_run_parallel_zero_trials_succeeds_empty():
    tuner = _tiny_tuner()
    executor = JobExecutor()
    job = tuner.run_parallel(n_trials=0, executor=executor, seed=0)
    job.wait(timeout=10.0)
    assert job.status == "succeeded"
    assert job.result["trials_total"] == 0
    assert tuner.trials == []
