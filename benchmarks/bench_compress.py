"""Joint compression search: footprint reduction at iso-accuracy.

The claim behind ``repro.compress``: mixed-precision quantization
(per-layer int8/int4/f32) plus structured channel pruning, searched
jointly over a trained impulse, cuts the model's RAM+flash footprint by
**>= 30 % versus uniform int8 at <= 2 pp held-out accuracy drop**.

Measured on the two Table-3 KWS zoo architectures — the ``conv1d_stack``
family and ``ds_cnn`` — sized so weight bytes dominate the footprint,
priced under the EON memory model.  Each search is an EON Tuner sweep
over the model's ``CompressionSpace``: the uniform-int8 baseline (trial
0), a few randomly sampled joint configurations, and one directed probe
per model (all-int4 for ``ds_cnn``; all-int4 plus 25 % channel sparsity
for the conv stack, which tolerates pruning without fine-tuning).  The
winning variant is whatever ``smallest_within()`` picks off the Pareto
front within the 2 pp budget.

The reduction itself is a deterministic plan property of the compressed
graph (packed int4 tensor sizes, pruned shapes) — timing-free, like
``plan_arena_reduction``.  ``compress_ram_reduction`` (the min over
both models) lands in the bench JSON artifact and is gated by
``scripts/check_bench_regression.py``; the >= 0.30 / <= 2 pp floors are
hard-asserted here for BOTH models.
"""

import time

import numpy as np
from conftest import save_metric, save_result, smoke_mode

from repro.automl import EonTuner
from repro.data.synthetic import keyword_dataset

#: Trials per sweep, the baseline included (smoke: the baseline alone).
N_TRIALS = 1 if smoke_mode() else 4
TRAIN_EPOCHS = 15

def _mfe(stride: float) -> dict:
    return {"type": "mfe", "sample_rate": 4000, "frame_length": stride,
            "frame_stride": stride, "n_filters": 16}


#: (name, dsp_spec, model_spec, directed probe builder).  The probe seeds
#: the sweep with one known-good candidate; sampled trials compete
#: alongside it on the Pareto front.
MODELS = [
    (
        "conv1d_stack 32->256",
        _mfe(0.02),
        {"architecture": "conv1d_stack", "n_layers": 3,
         "first_filters": 32, "last_filters": 256},
        lambda space: {
            **{f"compress.precision.{i}": "int4"
               for i in space.precision_layers},
            **{f"compress.sparsity.{i}": 0.25
               for i in space.sparsity_layers},
        },
    ),
    (
        "ds_cnn 192x6",
        _mfe(0.04),
        {"architecture": "ds_cnn", "filters": 192, "n_blocks": 6},
        lambda space: {f"compress.precision.{i}": "int4"
                       for i in space.precision_layers},
    ),
]


def _data():
    ds = keyword_dataset(keywords=["yes", "no"], samples_per_class=40,
                         sample_rate=4000, include_noise=False,
                         include_unknown=False, seed=0)
    label_map = {l: i for i, l in enumerate(ds.labels)}
    raw = np.stack([s.data for s in ds])
    labels = np.array([label_map[s.label] for s in ds])
    return raw, labels


def test_compress_pareto_reduction():
    raw, labels = _data()
    lines = [
        "repro.compress — joint precision/sparsity search "
        f"({N_TRIALS} planned + 1 directed trial/model, EON memory model)",
    ]
    reductions = []
    for name, dsp_spec, model_spec, probe in MODELS:
        t0 = time.perf_counter()
        tuner = EonTuner(raw, labels, space=None, engine="eon",
                         train_epochs=TRAIN_EPOCHS)
        tuner.space = tuner.compression_space(dsp_spec, model_spec)
        tuner.run(n_trials=N_TRIALS, seed=0)
        tuner.evaluate_config(dsp_spec, {**model_spec, **probe(tuner.space)},
                              seed=0)
        dt = time.perf_counter() - t0

        base = tuner.baseline_trial()
        assert base is not None and base.trained
        best = tuner.smallest_within(max_accuracy_drop_pp=2.0)
        assert best is not None, f"{name}: no variant within the 2 pp budget"
        red, drop = best["ram_flash_reduction"], best["accuracy_drop_pp"]
        base_rf = base.nn_ram_kb + base.flash_kb
        lines.append(
            f"  {name:<22} int8 {base_rf:6.1f} kB -> "
            f"{best['ram_flash_kb']:6.1f} kB  ({red:5.1%} smaller, "
            f"{drop:+.1f} pp, {len(tuner.trials)} trials, {dt:.1f} s)"
        )
        assert red >= 0.30, f"{name}: best reduction {red:.1%} < 30%"
        assert drop <= 2.0, f"{name}: accuracy drop {drop:.1f} pp > 2 pp"
        reductions.append(red)

    worst = min(reductions)
    lines.append(f"  min reduction across models: {worst:.1%} "
                 "(floor 30% at <= 2 pp drop)")
    text = "\n".join(lines)
    save_result("compress", text)
    save_metric("compress_ram_reduction", worst)
    print("\n" + text)
