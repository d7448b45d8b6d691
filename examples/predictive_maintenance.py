"""Predictive maintenance: spectral features + anomaly detection.

A rotating machine streams 3-axis vibration data.  We train only on
*normal* operation (K-means anomaly block, Sec. 4.3) and verify that
imbalance and bearing faults score as anomalous — the classic TinyML
predictive-maintenance workload the paper's intro motivates.

Run:  python examples/predictive_maintenance.py
"""

import numpy as np

from repro.core import Impulse, Platform, TimeSeriesInput
from repro.core.learn_blocks import AnomalyBlock
from repro.data.synthetic import vibration_dataset
from repro.dsp import SpectralAnalysisBlock, extract_features


def main() -> None:
    platform = Platform()
    platform.register_user("maintenance")
    project = platform.create_project("motor-monitor", owner="maintenance")

    # Normal-only training data; faults appear only at test time.
    normal = vibration_dataset(modes=["normal"], samples_per_class=50, seed=0)
    for sample in normal:
        project.dataset.add(sample, category="train")
    faults = vibration_dataset(modes=["imbalance", "bearing"],
                               samples_per_class=20, seed=1)

    impulse = Impulse(
        TimeSeriesInput(window_size_ms=2000, window_increase_ms=2000,
                        frequency_hz=100, axes=3),
        [SpectralAnalysisBlock(sample_rate=100, fft_length=64, n_peaks=3)],
        AnomalyBlock(method="kmeans", n_clusters=6),
    )
    project.set_impulse(impulse)
    project.train(seed=0, quantize=False)

    block: AnomalyBlock = impulse.learn_block
    print(f"anomaly threshold: {block.threshold:.2f}\n")

    def first_window(sample) -> np.ndarray:
        windows = impulse.input_block.windows(sample.data)[:1]
        return extract_features(impulse.dsp_blocks, windows)

    x_normal, _, _ = impulse.features_for_dataset(normal)
    normal_scores = block.predict(x_normal)
    print(f"normal scores  : mean={normal_scores.mean():.2f} "
          f"max={normal_scores.max():.2f} "
          f"flagged={100 * block.is_anomaly(x_normal).mean():.0f}%")

    for mode in ("imbalance", "bearing"):
        subset = [s for s in faults if s.label == mode]
        x = np.concatenate([first_window(s) for s in subset])
        scores = block.predict(x)
        flagged = block.is_anomaly(x).mean()
        print(f"{mode:<15}: mean={scores.mean():.2f} "
              f"max={scores.max():.2f} flagged={100 * flagged:.0f}%")

    # GMM comparison (the paper's "near future" feature).
    gmm_block = AnomalyBlock(method="gmm", n_clusters=4)
    gmm_block.fit(x_normal, seed=0)
    x_fault = np.concatenate([first_window(s) for s in faults])
    print(f"\nGMM cross-check: fault detection rate "
          f"{100 * gmm_block.is_anomaly(x_fault).mean():.0f}%")


if __name__ == "__main__":
    main()
