"""Monitor policies and structured alerts.

A :class:`MonitorPolicy` is the per-project contract between the
detectors and the closed loop: window sizes, detector thresholds, the
serving SLOs, and — when ``auto_retrain`` is on — how the retrain →
canary-rollout loop should run (how many drift-window samples to route
back into the dataset, the canary fraction, and the health-gate soak).

Threshold breaches raise :class:`Alert`\\ s: structured, JSON-safe, and
append-only per project — the audit trail of what the monitor saw and
what it did about it.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields


@dataclass
class MonitorPolicy:
    """Per-project monitoring contract."""

    # Windowing.
    window: int = 256           # recent records per evaluation
    reference_size: int = 64    # records auto-captured as the baseline
    min_records: int = 16       # evaluations below this are skipped

    # Drift-detector thresholds.
    confidence_shift_threshold: float = 0.25
    label_mix_threshold: float = 0.25
    feature_drift_threshold: float = 0.35

    # Serving SLOs (latency budget optional).
    max_latency_ms: float | None = None
    max_error_rate: float = 0.05

    # The closed loop.
    auto_retrain: bool = False
    auto_rollout: bool = True         # roll the retrained model to the fleet
    max_drift_samples: int = 32       # samples routed back into the dataset
    retrain_seed: int = 0
    canary_fraction: float = 0.25
    failure_threshold: float = 0.0
    soak_s: float = 0.0               # canary soak before the health gate
    # Minimum seconds between retrain loops.  Non-zero by default so a
    # persistently-failing loop (e.g. a health gate that keeps aborting
    # the rollout) backs off instead of rebuilding firmware on every
    # sweep.
    cooldown_s: float = 60.0

    def to_dict(self) -> dict:
        return asdict(self)

    def update(self, body: dict) -> "MonitorPolicy":
        """Apply a partial update (the ``POST /monitor/policy`` body).

        Unknown keys raise ``ValueError`` so typos in automation scripts
        surface as a 400, not as silently-ignored settings.  A rejected
        update leaves the policy exactly as it was — half-applied
        settings must never leak into a live monitor.
        """
        known = {f.name for f in fields(self)}
        unknown = sorted(set(body) - known)
        if unknown:
            raise ValueError(f"unknown policy key(s): {', '.join(unknown)}")
        previous = {key: getattr(self, key) for key in body}
        try:
            for key, value in body.items():
                if key in ("auto_retrain", "auto_rollout"):
                    value = bool(value)
                elif key in ("window", "reference_size", "min_records",
                             "max_drift_samples", "retrain_seed"):
                    value = int(value)
                elif value is not None:
                    value = float(value)
                setattr(self, key, value)
            self.validate()
        except (TypeError, ValueError):
            for key, value in previous.items():
                setattr(self, key, value)
            raise
        return self

    def validate(self) -> None:
        # A NaN threshold never triggers and a NaN cooldown never backs
        # off: either silently switches a safeguard off.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number")
        if self.window < 1 or self.reference_size < 1 or self.min_records < 1:
            raise ValueError("window/reference_size/min_records must be >= 1")
        if self.min_records > self.window:
            # A sweep judges at most ``window`` rows: it would skip forever.
            raise ValueError("min_records must be <= window")
        if not 0.0 <= self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in [0, 1]")
        if not 0.0 <= self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in [0, 1]")
        if not 0.0 <= self.max_error_rate <= 1.0:
            raise ValueError("max_error_rate must be in [0, 1]")
        if self.max_latency_ms is not None and self.max_latency_ms <= 0:
            raise ValueError("max_latency_ms must be > 0")
        if self.soak_s < 0 or self.cooldown_s < 0:
            raise ValueError("soak_s/cooldown_s must be >= 0")
        if self.max_drift_samples < 0:
            raise ValueError("max_drift_samples must be >= 0")


@dataclass
class Alert:
    """One threshold breach (or closed-loop action) raised by the monitor."""

    alert_id: int
    project_id: int
    detector: str
    severity: str               # "warning" (drift) | "critical" (SLO breach)
    score: float
    threshold: float
    message: str
    window: int                 # records in the evaluated window
    model_version: str | None = None
    action: str | None = None   # e.g. "auto_retrain: loop job 7"
    created_at: float = 0.0

    def __post_init__(self):
        if not self.created_at:
            self.created_at = time.time()

    def to_dict(self) -> dict:
        return asdict(self)
