"""Continuous classification over a stream + detection scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def continuous_probabilities(
    classify_window,
    stream: np.ndarray,
    sample_rate: float,
    window_s: float = 1.0,
    stride_s: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Slide a window over ``stream`` and classify each position.

    ``classify_window(window) -> probability vector``.  Returns
    ``(probabilities, end_timestamps_s)``.  Window and stride lengths
    are rounded to whole samples, as :class:`repro.core.TimeSeriesInput`
    rounds its own.
    """
    win = int(round(window_s * sample_rate))
    stride = int(round(stride_s * sample_rate))
    if win < 1:
        raise ValueError(
            f"window_s * sample_rate must be >= 1 sample; got "
            f"window_s={window_s}, sample_rate={sample_rate} -> {win} samples"
        )
    if stride < 1:
        raise ValueError(
            f"stride_s * sample_rate must be >= 1 sample; got "
            f"stride_s={stride_s}, sample_rate={sample_rate} -> {stride} samples"
        )
    if len(stream) < win:
        raise ValueError("stream shorter than one window")
    probs, times = [], []
    for start in range(0, len(stream) - win + 1, stride):
        window = stream[start : start + win]
        probs.append(classify_window(window))
        times.append((start + win) / sample_rate)
    return np.asarray(probs, dtype=np.float32), np.asarray(times)


@dataclass(frozen=True)
class DetectionOutcome:
    """FAR/FRR scoring of a detection list against ground-truth events."""

    true_accepts: int
    false_accepts: int
    false_rejects: int
    n_events: int
    stream_hours: float

    @property
    def far_per_hour(self) -> float:
        """False accepts per hour of streaming audio."""
        return self.false_accepts / self.stream_hours if self.stream_hours else 0.0

    @property
    def frr(self) -> float:
        """Fraction of true events missed."""
        return self.false_rejects / self.n_events if self.n_events else 0.0


def evaluate_detections(
    detections: list[float],
    events: list[tuple[float, float]],
    stream_duration_s: float,
    tolerance_s: float = 0.75,
) -> DetectionOutcome:
    """Greedy one-to-one matching of detections to ground-truth events.

    A detection within ``tolerance_s`` of an event's span counts as a true
    accept; each event can be matched once; everything else is a false
    accept.  Unmatched events are false rejects.
    """
    matched = [False] * len(events)
    true_accepts = 0
    false_accepts = 0
    for det in detections:
        hit = None
        for i, (start, end) in enumerate(events):
            if matched[i]:
                continue
            if start - tolerance_s <= det <= end + tolerance_s:
                hit = i
                break
        if hit is None:
            false_accepts += 1
        else:
            matched[hit] = True
            true_accepts += 1
    return DetectionOutcome(
        true_accepts=true_accepts,
        false_accepts=false_accepts,
        false_rejects=matched.count(False),
        n_events=len(events),
        stream_hours=stream_duration_s / 3600.0,
    )
