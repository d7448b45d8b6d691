"""Production monitoring: fleet telemetry, drift detection, and the
closed retrain → rollout loop.

The "monitor in production, feed data back, retrain, redeploy" half of
the MLOps lifecycle (paper Sec. 4).  Deployed models — the hosted
serving tier and field devices alike — emit inference telemetry into
the per-project column rings of a :class:`TelemetryStore`; windowed
drift and SLO detectors score it in on-demand sweeps
(:meth:`MonitorService.sweep`, a ``monitor-sweep`` job: ``POST
.../monitor/evaluate`` or ``cli monitor``); threshold policies raise
structured :class:`Alert`\\ s; and the ``auto_retrain`` policy closes
the loop: drift-window samples are routed back into the dataset, the
model retrains, and the new version ships via a canary OTA rollout
(:meth:`MonitorService.rollout`, the one way a model reaches the fleet)
gated on monitor health.
"""

from repro.monitor.detectors import (
    ConfidenceShiftDetector,
    DetectorResult,
    ErrorRateSLODetector,
    FeatureDriftDetector,
    LabelMixShiftDetector,
    LatencySLODetector,
    ks_statistic,
    psi,
    psi_contributions,
)
from repro.monitor.policy import Alert, MonitorPolicy
from repro.monitor.service import MonitorService, ProjectMonitor, model_version_of
from repro.monitor.telemetry import TelemetryRecord, TelemetryStore

__all__ = [
    "Alert",
    "ConfidenceShiftDetector",
    "DetectorResult",
    "ErrorRateSLODetector",
    "FeatureDriftDetector",
    "LabelMixShiftDetector",
    "LatencySLODetector",
    "MonitorPolicy",
    "MonitorService",
    "ProjectMonitor",
    "TelemetryRecord",
    "TelemetryStore",
    "ks_statistic",
    "model_version_of",
    "psi",
    "psi_contributions",
]
