"""Windowed drift + health detectors over telemetry windows.

Each detector compares a **reference** window (telemetry captured while
the deployed model was known-good, or set explicitly) against the
**recent** window — both :class:`repro.monitor.telemetry.TelemetryWindow`
columns — and reports a :class:`DetectorResult` with a score,
its threshold, and whether it triggered:

- :class:`ConfidenceShiftDetector` — KS statistic between the reference
  and recent top-1 confidence distributions (drifted inputs flatten the
  softmax long before accuracy can be measured without labels);
- :class:`LabelMixShiftDetector` — PSI between predicted-label mixes
  (a class suddenly dominating or vanishing);
- :class:`FeatureDriftDetector` — max per-dimension KS statistic over
  the feature sketches carried in telemetry (the seeded projections of
  :func:`repro.active.embeddings.feature_sketch`), i.e. input-domain
  drift independent of the model's own outputs;
- :class:`LatencySLODetector` / :class:`ErrorRateSLODetector` — serving
  SLOs over the recent window only; these double as the canary health
  gate for OTA rollouts.

The statistics are deliberately classic (KS / PSI): they are cheap,
distribution-free, and evaluated on the cold path by a monitor sweep
(:meth:`repro.monitor.service.MonitorService.sweep`), never
per-inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.monitor.telemetry import SKETCH_DIM


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |ECDF_a - ECDF_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        return 0.0
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def psi_contributions(expected: dict, actual: dict, eps: float = 1e-4) -> dict:
    """Per-category PSI terms ``(a - e) * log(a / e)``; the PSI is their
    sum.  Every term is >= 0, so the largest ones name the categories
    driving a shift."""
    keys = sorted(set(expected) | set(actual))
    if not keys:
        return {}
    e = np.array([max(float(expected.get(k, 0.0)), 0.0) for k in keys]) + eps
    a = np.array([max(float(actual.get(k, 0.0)), 0.0) for k in keys]) + eps
    e /= e.sum()
    a /= a.sum()
    terms = (a - e) * np.log(a / e)
    return {k: float(t) for k, t in zip(keys, terms)}


def psi(expected: dict, actual: dict, eps: float = 1e-4) -> float:
    """Population Stability Index between two categorical distributions.

    Inputs are ``{category: count_or_probability}``; both sides are
    normalized over the union of categories with ``eps`` smoothing, so a
    category present on one side only contributes a large-but-finite term.
    """
    return float(sum(psi_contributions(expected, actual, eps).values()))


@dataclass
class DetectorResult:
    """One detector's verdict on one evaluation window."""

    detector: str
    score: float
    threshold: float
    triggered: bool
    kind: str = "drift"  # "drift" | "slo"
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "score": round(float(self.score), 6),
            "threshold": float(self.threshold),
            "triggered": bool(self.triggered),
            "kind": self.kind,
            "detail": self.detail,
        }


class ConfidenceShiftDetector:
    """KS shift of the top-1 confidence distribution."""

    name = "confidence_shift"
    kind = "drift"

    def __init__(self, threshold: float = 0.25):
        self.threshold = threshold

    def evaluate(self, reference, recent) -> DetectorResult:
        ref, cur = reference.confidence, recent.confidence
        score = ks_statistic(ref, cur)
        # Per-label attribution: the KS of each predicted class's own
        # confidence distribution, so an alert names *which* class got
        # less certain (labels present on only one side are skipped —
        # that shift is the label-mix detector's finding).
        shared = set(reference.counts("top")) & set(recent.counts("top"))
        per_label = {
            label: round(ks_statistic(ref[reference.top == label],
                                      cur[recent.top == label]), 4)
            for label in sorted(shared)
        }
        return DetectorResult(
            self.name, score, self.threshold, score > self.threshold,
            kind=self.kind,
            detail={
                "reference_mean": float(np.mean(ref)) if len(ref) else None,
                "recent_mean": float(np.mean(cur)) if len(cur) else None,
                "per_label_ks": per_label,
            },
        )


class LabelMixShiftDetector:
    """PSI shift of the predicted-label distribution."""

    name = "label_mix_shift"
    kind = "drift"

    def __init__(self, threshold: float = 0.25):
        self.threshold = threshold

    def evaluate(self, reference, recent) -> DetectorResult:
        ref_mix, cur_mix = reference.counts("top"), recent.counts("top")
        contributions = psi_contributions(ref_mix, cur_mix)
        score = float(sum(contributions.values()))
        return DetectorResult(
            self.name, score, self.threshold, score > self.threshold,
            kind=self.kind,
            detail={
                "reference_mix": ref_mix,
                "recent_mix": cur_mix,
                "per_label_psi": {
                    k: round(v, 4) for k, v in contributions.items()
                },
            },
        )


class FeatureDriftDetector:
    """Max per-dimension KS statistic over telemetry feature sketches."""

    name = "feature_drift"
    kind = "drift"

    def __init__(self, threshold: float = 0.35):
        self.threshold = threshold

    def evaluate(self, reference, recent) -> DetectorResult:
        ref = reference.sketch[np.isfinite(reference.sketch).all(axis=1)]
        cur = recent.sketch[np.isfinite(recent.sketch).all(axis=1)]
        if not len(ref) or not len(cur):
            return DetectorResult(
                self.name, 0.0, self.threshold, False, kind=self.kind,
                detail={"reason": "no feature sketches in window"},
            )
        per_dim = [ks_statistic(ref[:, d], cur[:, d]) for d in range(SKETCH_DIM)]
        score = max(per_dim)
        return DetectorResult(
            self.name, score, self.threshold, score > self.threshold,
            kind=self.kind,
            detail={"per_dimension": [round(s, 4) for s in per_dim]},
        )


class LatencySLODetector:
    """p95 latency of the recent window against a budget (score = ratio)."""

    name = "latency_slo"
    kind = "slo"

    def __init__(self, max_p95_ms: float):
        if max_p95_ms <= 0:
            raise ValueError("max_p95_ms must be > 0")
        self.max_p95_ms = max_p95_ms
        self.threshold = 1.0

    def evaluate(self, reference, recent) -> DetectorResult:
        lats = recent.latency_ms
        p95 = float(np.percentile(lats, 95)) if len(lats) else 0.0
        score = p95 / self.max_p95_ms
        return DetectorResult(
            self.name, score, self.threshold, score > self.threshold,
            kind=self.kind,
            detail={"p95_ms": round(p95, 3), "budget_ms": self.max_p95_ms},
        )


class ErrorRateSLODetector:
    """Fraction of failed inferences in the recent window."""

    name = "error_rate_slo"
    kind = "slo"

    def __init__(self, max_rate: float = 0.05):
        if not 0.0 <= max_rate <= 1.0:
            raise ValueError("max_rate must be in [0, 1]")
        self.threshold = max_rate

    def evaluate(self, reference, recent) -> DetectorResult:
        errors = int(np.count_nonzero(~recent.ok))
        rate = recent.error_rate()
        return DetectorResult(
            self.name, rate, self.threshold, rate > self.threshold,
            kind=self.kind,
            detail={"errors": errors, "window": len(recent)},
        )
