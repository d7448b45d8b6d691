"""Ablation: performance-calibration GA vs random configuration sampling.

The GA's Pareto front should dominate (or match) the best random configs at
every operating point — the reason the paper uses a genetic algorithm for
post-processing suggestion rather than a grid.
"""

import numpy as np
from conftest import save_result

from repro.calibration import (
    PostProcessConfig,
    StreamingPostProcessor,
    calibrate,
    continuous_probabilities,
    evaluate_detections,
)
from repro.data.synthetic import streaming_scene
from repro.dsp import extract_features
from repro.utils.rng import ensure_rng


def _scene_probs(kws_trained):
    """Continuous classifier output over a synthetic stream."""
    bundle = kws_trained
    impulse = bundle.impulse
    target_label = "yes"
    target_index = bundle.label_map[target_label]
    audio, events = streaming_scene(
        target_label, n_events=6, duration=20.0, sample_rate=8000, seed=3
    )
    model = impulse.learn_block.model

    def classify(window):
        feats = extract_features(impulse.dsp_blocks, window[None])
        return model.predict_proba(feats)[0]

    probs, times = continuous_probabilities(
        classify, audio, sample_rate=8000, window_s=1.0, stride_s=0.25
    )
    return probs, times, events, target_index


def test_ablation_calibration_ga_vs_random(benchmark, kws_trained):
    probs, times, events, target_index = _scene_probs(kws_trained)
    duration = float(times[-1])

    def run_both():
        pareto = calibrate(
            probs, times, events, target_index, duration,
            population=16, generations=6, seed=0,
        )
        rng = ensure_rng(1)
        random_results = []
        for _ in range(16 * 7):  # matched evaluation budget
            cfg = PostProcessConfig(
                threshold=float(rng.uniform(0.2, 0.95)),
                smoothing_windows=int(rng.integers(1, 8)),
                suppression_s=float(rng.uniform(0, 2)),
                min_consecutive=int(rng.integers(1, 4)),
            ).clamped()
            det = StreamingPostProcessor(cfg, target_index).detect(probs, times)
            random_results.append(evaluate_detections(det, events, duration))
        return pareto, random_results

    pareto, random_results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert pareto, "GA produced no Pareto front"

    # Dominance check: no random config strictly dominates a GA front point.
    def dominates(a, b):
        return (
            a.far_per_hour <= b.far_per_hour
            and a.frr <= b.frr
            and (a.far_per_hour < b.far_per_hour or a.frr < b.frr)
        )

    strictly_dominated = sum(
        1
        for p in pareto
        if any(dominates(r, p.outcome) for r in random_results)
    )
    assert strictly_dominated <= len(pareto) // 2, (
        "random sampling dominated most of the GA front"
    )
    # The front must contain a usable operating point.
    assert any(p.outcome.frr <= 0.5 for p in pareto)

    lines = ["Ablation — calibration GA Pareto front (FAR/h, FRR)"]
    for p in pareto:
        c = p.config
        lines.append(
            f"  FAR={p.outcome.far_per_hour:7.1f}/h FRR={p.outcome.frr:.2f}  "
            f"thr={c.threshold:.2f} smooth={c.smoothing_windows} "
            f"suppress={c.suppression_s:.1f}s consec={c.min_consecutive}"
        )
    best_random = min(random_results, key=lambda r: (r.frr, r.far_per_hour))
    lines.append(
        f"  best random: FAR={best_random.far_per_hour:.1f}/h FRR={best_random.frr:.2f}"
    )
    text = "\n".join(lines)
    save_result("ablation_calibration", text)
    print("\n" + text)
