"""The monitoring plane: per-project monitors + the closed retrain loop.

:class:`MonitorService` hangs off the :class:`repro.core.registry.Platform`
as ``platform.monitor`` and owns:

- the shared :class:`repro.monitor.telemetry.TelemetryStore` that the
  serving tier and the device fleet emit into;
- one :class:`ProjectMonitor` per watched project (reference window,
  policy, alert log, detector results);
- a :class:`repro.core.jobs.JobExecutor` on which monitor sweeps and
  closed-loop jobs run.

The closed loop (policy ``auto_retrain``) is the paper's production
story end-to-end: a drift alert routes the drift-window samples back
into the project's dataset **through the existing
**:class:`repro.data.ingestion.IngestionService` (as signed acquisition
envelopes, pseudo-labeled with the model's own predictions), submits a
retrain job, and — on success — stages a canary OTA rollout of the new
model version whose fleet-wide stage is gated on monitor health, not a
timer.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.jobs import Job, JobExecutor
from repro.monitor.detectors import (
    ConfidenceShiftDetector,
    ErrorRateSLODetector,
    FeatureDriftDetector,
    LabelMixShiftDetector,
    LatencySLODetector,
)
from repro.monitor.policy import Alert, MonitorPolicy
from repro.monitor.telemetry import (
    TelemetryStore,
    TelemetryWindow,
    model_version_of,
)


class ProjectMonitor:
    """Per-project monitoring state (reference window, alerts, loops)."""

    def __init__(self, project_id: int, policy: MonitorPolicy | None = None):
        self.project_id = project_id
        self.policy = policy or MonitorPolicy()
        self.reference = TelemetryWindow()
        self.alerts: list[Alert] = []
        self.last_results: list = []
        self.last_evaluated: float | None = None
        self.evaluations = 0
        self.status = "baselining"  # baselining | ok | drift | unhealthy
        self.loop_jobs: list[Job] = []
        self.max_retained_loops = 8  # bounded like Project.tuners
        # Monotonic clock: only ever compared against a monotonic "now"
        # for the cooldown window, never shown as a timestamp.
        self.last_loop_started: float | None = None
        self._previously_triggered: set[str] = set()
        self._lock = threading.RLock()

    @property
    def active_loop(self) -> Job | None:
        for job in reversed(self.loop_jobs):
            if not job.done:
                return job
        return None


class MonitorService:
    """Fleet-wide telemetry + drift detection + the closed retrain loop."""

    def __init__(self, platform, window: int = 4096, raw_window: int = 256):
        self.platform = platform
        self.telemetry = TelemetryStore(window=window, raw_window=raw_window)
        self.jobs = JobExecutor()
        self._monitors: dict[int, ProjectMonitor] = {}
        self._lock = threading.Lock()
        self._next_alert_id = 1
        # Durability hook (repro.core.storage.durable): called with
        # (project_id, window) whenever a reference window is pinned, so
        # monitor baselines survive a restart.  None on in-memory
        # platforms.
        self.on_reference = None
        # Rollout job id -> the project it put on the fleet (every
        # rollout on ``platform.fleet_jobs`` starts in :meth:`rollout`).
        self.rollout_projects: dict[int, int] = {}

    # -- monitor registry ---------------------------------------------------

    def monitor(self, project_id: int) -> ProjectMonitor:
        """Get (or lazily create) a project's monitor."""
        project_id = int(project_id)
        with self._lock:
            pm = self._monitors.get(project_id)
            if pm is None:
                pm = self._monitors[project_id] = ProjectMonitor(project_id)
            return pm

    def watched_projects(self) -> list[int]:
        """Projects with a monitor or with telemetry on record."""
        with self._lock:
            watched = set(self._monitors)
        return sorted(watched | set(self.telemetry.project_ids()))

    def set_policy(self, project_id: int, body: dict) -> MonitorPolicy:
        """Partial policy update (the ``POST /monitor/policy`` body)."""
        pm = self.monitor(project_id)
        with pm._lock:
            pm.policy.update(body)
            return pm.policy

    def set_reference(self, project_id: int) -> int:
        """Pin the newest ``policy.reference_size`` rows as the reference
        window — "this is what healthy production traffic looks like"."""
        pm = self.monitor(project_id)
        with pm._lock:
            rows = self.telemetry.recent(project_id, n=pm.policy.reference_size)
            if not rows:
                # Nothing to capture: keep any existing baseline intact
                # (the API reports this as a 409, so the caller must not
                # find their previous reference silently destroyed).
                return 0
            pm.reference = rows
            if pm.status == "baselining":
                pm.status = "ok"
            if self.on_reference is not None:
                self.on_reference(project_id, pm.reference)
            return len(pm.reference)

    def watch_fleet(self, project_id: int,
                    device_ids: list[str] | None = None) -> None:
        """Bind device-fleet telemetry emission to this project — for
        the listed devices only, or (``device_ids=None``) as the
        fleet-wide default.  Per-device bindings win over the default,
        so projects rolling out to disjoint fleet subsets keep their
        telemetry (and drift-loop training data) separate."""
        fleet = self.platform.fleet
        fleet.telemetry = self.telemetry
        if device_ids is None:
            fleet.telemetry_project = int(project_id)
            # A fleet-wide rollout reflashed everything: stale per-device
            # routes from earlier subset rollouts must not keep
            # attributing (and leaking) this project's traffic elsewhere.
            fleet.telemetry_projects.clear()
        else:
            for did in device_ids:
                fleet.telemetry_projects[str(did)] = int(project_id)

    # -- evaluation (a sweep's work) ----------------------------------------

    def _detectors(self, policy: MonitorPolicy) -> list:
        detectors = [
            ConfidenceShiftDetector(policy.confidence_shift_threshold),
            LabelMixShiftDetector(policy.label_mix_threshold),
            FeatureDriftDetector(policy.feature_drift_threshold),
            ErrorRateSLODetector(policy.max_error_rate),
        ]
        if policy.max_latency_ms is not None:
            detectors.append(LatencySLODetector(policy.max_latency_ms))
        return detectors

    def evaluate(self, project_id: int, job: Job | None = None) -> dict:
        """Run one monitoring sweep for a project: capture/refresh the
        baseline, score every detector, raise alerts, and (policy
        permitting) kick off the closed retrain loop."""
        pm = self.monitor(project_id)
        with pm._lock:
            policy = pm.policy
            # The gateway's requests are outcome flags outside the rows
            # (TelemetryStore.record_request), so recent() only ever
            # yields inference observations here.
            records = self.telemetry.recent(project_id)
            # Auto-capture the baseline from the oldest traffic if no
            # explicit reference was pinned.
            if not pm.reference and len(records) >= policy.reference_size:
                pm.reference = records[: policy.reference_size]
                if self.on_reference is not None:
                    self.on_reference(project_id, pm.reference)
                if job is not None:
                    job.log(
                        f"project {project_id}: captured reference window "
                        f"({len(pm.reference)} records)"
                    )
            # The recent window is the traffic after the reference's
            # newest row (a reference restored from the WAL has no
            # sequence numbers, seq -1, and sees every row).
            newest = pm.reference.seq.max() if pm.reference else -1
            recent = records[records.seq > newest][-policy.window:]

            if not pm.reference or len(recent) < policy.min_records:
                # A skipped sweep learned nothing: keep the last evaluated
                # status rather than faking a recovery from drift — only
                # a monitor with no baseline at all reads "baselining".
                if not pm.reference:
                    pm.status = "baselining"
                return self._snapshot_locked(pm, skipped=True,
                                             recent_count=len(recent))

            results = [
                d.evaluate(pm.reference, recent)
                for d in self._detectors(policy)
            ]
            pm.last_results = results
            pm.evaluations += 1
            pm.last_evaluated = time.time()

            triggered = [r for r in results if r.triggered]
            drift = [r for r in triggered if r.kind == "drift"]
            slo = [r for r in triggered if r.kind == "slo"]
            pm.status = ("unhealthy" if slo else
                         "drift" if drift else "ok")

            # Edge-triggered alerts: a detector alerts when it crosses its
            # threshold, not on every sweep it stays above it.
            fresh = [
                r for r in triggered
                if r.detector not in pm._previously_triggered
            ]
            pm._previously_triggered = {r.detector for r in triggered}
            version = self._current_version(project_id)
            alerts = [
                self._raise_alert_locked(pm, r, len(recent), version)
                for r in fresh
            ]
            if job is not None:
                for alert in alerts:
                    job.log(f"ALERT {alert.detector}: {alert.message}")

            loop_job = None
            if drift and policy.auto_retrain:
                loop_job = self._maybe_start_loop_locked(pm, drift, recent, job)
                if loop_job is not None:
                    action = f"auto_retrain: loop job {loop_job.job_id}"
                    for alert in alerts:
                        if alert.severity == "warning":
                            alert.action = action
            return self._snapshot_locked(pm, recent_count=len(recent),
                                         started_loop=loop_job)

    def sweep(self, project_id: int | None = None) -> Job:
        """Submit one ``monitor-sweep`` job on the monitor executor: one
        project's :meth:`evaluate`, or (``project_id=None``) every
        watched project's.  Returns the job immediately; its result is
        that project's snapshot, or ``{"projects": {pid: health}}``."""
        if project_id is not None:
            return self.jobs.submit(
                f"monitor-sweep p{project_id}",
                lambda job: self.evaluate(project_id, job=job),
            )

        def _run(job: Job) -> dict:
            statuses = {pid: self.evaluate(pid, job=job)["health"]
                        for pid in self.watched_projects()}
            job.log(f"sweep complete: {statuses or 'no watched projects'}")
            return {"projects": statuses}

        return self.jobs.submit("monitor-sweep", _run)

    def _current_version(self, project_id: int) -> str | None:
        project = self.platform.projects.get(project_id)
        return None if project is None else model_version_of(project)

    def _raise_alert_locked(self, pm: ProjectMonitor, result, window: int,
                            version: str | None) -> Alert:
        with self._lock:
            alert_id = self._next_alert_id
            self._next_alert_id += 1
        alert = Alert(
            alert_id=alert_id,
            project_id=pm.project_id,
            detector=result.detector,
            severity="critical" if result.kind == "slo" else "warning",
            score=float(result.score),
            threshold=float(result.threshold),
            message=(
                f"{result.detector} score {result.score:.3f} exceeds "
                f"threshold {result.threshold:.3f} over {window} record(s)"
            ),
            window=window,
            model_version=version,
        )
        pm.alerts.append(alert)
        return alert

    # -- the closed loop ----------------------------------------------------

    def _maybe_start_loop_locked(self, pm: ProjectMonitor, drift, recent,
                                 job: Job | None) -> Job | None:
        if pm.active_loop is not None:
            return None
        if (pm.policy.cooldown_s and pm.last_loop_started is not None
                and time.monotonic() - pm.last_loop_started < pm.policy.cooldown_s):
            return None
        project = self.platform.projects.get(pm.project_id)
        if project is None:
            return None
        # Only healthy, predicted rows of the recent window can be routed
        # back: a row without a top label would pseudo-label as a phantom
        # class.  max_drift_samples=0 means "retrain without routing
        # anything" (a plain [-0:] slice would be the whole window).
        limit = pm.policy.max_drift_samples
        raw = self.telemetry.drift_candidates(pm.project_id)
        usable = np.isin(raw.seq, recent.seq) & np.not_equal(raw.top, None) & raw.ok
        candidates = raw[usable][-limit:] if limit else TelemetryWindow()
        loop_job = self.start_retrain_loop(
            project, candidates,
            reason=", ".join(r.detector for r in drift),
        )
        pm.last_loop_started = time.monotonic()
        if job is not None:
            job.log(
                f"project {pm.project_id}: auto_retrain loop started as "
                f"job {loop_job.job_id} ({len(candidates)} drift sample(s))"
            )
        return loop_job

    def start_retrain_loop(self, project, drift_records,
                           reason: str = "manual") -> Job:
        """Submit the retrain → canary-rollout loop as a job on the
        monitor executor.  Returns the loop job immediately."""
        pm = self.monitor(project.project_id)
        policy = pm.policy

        def _run(job: Job) -> dict:
            job.log(
                f"closed loop for project {project.project_id} "
                f"(trigger: {reason}): {len(drift_records)} drift-window "
                "sample(s) to route back"
            )
            before = len(project.dataset)
            routed = self.route_drift_samples(project, drift_records)
            job.log(
                f"ingested {routed} envelope(s) via IngestionService "
                f"({len(project.dataset) - before} new sample(s))"
            )
            job.set_progress(0.2)
            job.check_cancelled()

            train = project.train_async(seed=policy.retrain_seed)
            train.wait()
            if train.status != "succeeded":
                raise RuntimeError(
                    f"retrain job {train.job_id} {train.status}: {train.error}"
                )
            version = model_version_of(project)
            job.log(f"retrained model {version} "
                    f"(metrics: {train.result})")
            job.set_progress(0.6)
            job.check_cancelled()

            result = {
                "project_id": project.project_id,
                "trigger": reason,
                "drift_samples_routed": routed,
                "retrain_job": train.job_id,
                "model_version": version,
                "rollout_job": None,
                "rollout": None,
            }
            fleet = self.platform.fleet
            if policy.auto_rollout and fleet.devices:
                # Only the devices attributed to this project (the whole
                # fleet when it is unbound): auto-retrain must never
                # reflash another project's devices on a shared fleet.
                targets = fleet.devices_for_project(project.project_id)
                job.log(
                    f"staging canary rollout of {version} to "
                    f"{'the whole fleet' if targets is None else targets} "
                    f"(canary {policy.canary_fraction:.0%}, "
                    f"soak {policy.soak_s:.1f}s, health-gated)"
                )
                rollout = self.rollout(
                    project, device_ids=targets,
                    canary_fraction=policy.canary_fraction,
                    failure_threshold=policy.failure_threshold,
                    health_gate=True, soak_s=policy.soak_s,
                ).wait()
                result["rollout_job"] = rollout.job_id
                report = rollout.result if isinstance(rollout.result, dict) else {}
                result["rollout"] = report
                if rollout.status != "succeeded":
                    raise RuntimeError(
                        f"rollout job {rollout.job_id} {rollout.status}: "
                        f"{rollout.error}"
                    )
                if report.get("aborted"):
                    raise RuntimeError(
                        f"canary rollout of {version} aborted "
                        f"(health gate passed: "
                        f"{report.get('health_gate_passed')})"
                    )
                job.log(
                    f"rollout of {version} complete: "
                    f"{len(report.get('updated', []))} device(s) updated"
                )
            # A new model generation is live: drop the drift-era telemetry
            # and baseline so the monitor re-baselines on its traffic
            # (otherwise every later sweep re-compares against the old
            # model's world and re-fires forever).
            self.telemetry.clear(project.project_id)
            with pm._lock:
                pm.reference = TelemetryWindow()
                pm.status = "baselining"
                pm._previously_triggered = set()
            job.log("monitor re-baselined for the new model generation")
            job.set_progress(1.0)
            return result

        loop_job = self.jobs.submit(
            f"monitor-retrain-loop p{project.project_id}", _run
        )
        pm.loop_jobs.append(loop_job)
        # Retention is bounded (a loop job pins its logs, result and the
        # closure's drift records); only settled loops are dropped.
        while (len(pm.loop_jobs) > pm.max_retained_loops
               and pm.loop_jobs[0].done):
            pm.loop_jobs.pop(0)
        return loop_job

    def rollout(self, project, *, canary_fraction: float = 0.25,
                failure_threshold: float = 0.0, max_inflight: int = 4,
                retries: int = 0, device_ids: list[str] | None = None,
                engine: str = "eon", precision: str = "int8",
                health_gate: bool = False, soak_s: float = 0.0,
                inject_failures=None) -> Job:
        """Put the project's current model on the fleet: build its
        firmware, stamp it with :func:`model_version_of` (so monitoring
        tells the generations apart), and start the staged canary OTA
        rollout on ``platform.fleet_jobs``.  ``health_gate=True`` gates
        the fleet-wide stage on :meth:`health_gate` for that version
        after ``soak_s`` seconds of canary soak.  Telemetry attribution
        is bound only once the rollout was accepted, so a refused
        request never steals another project's fleet binding.

        Returns the parent rollout job without waiting.  Raises
        ``RuntimeError`` for an untrained project or a rollout already
        in progress, ``KeyError`` for an unknown device and
        ``ValueError`` for an out-of-range fraction.
        """
        artifact = project.deploy(target="firmware", engine=engine,
                                  precision=precision)
        image = artifact.metadata["image"]
        image.version = model_version_of(project)
        gate = (self.health_gate(project.project_id,
                                 model_version=image.version)
                if health_gate else None)
        job = self.platform.fleet.ota_update_async(
            image,
            self.platform.fleet_jobs,
            device_ids=device_ids,
            canary_fraction=canary_fraction,
            failure_threshold=failure_threshold,
            max_inflight=max_inflight,
            retries_per_device=retries,
            inject_failures=inject_failures,
            health_gate=gate,
            soak_s=soak_s,
        )
        self.rollout_projects[job.job_id] = project.project_id
        self.watch_fleet(project.project_id, device_ids=device_ids)
        return job

    def route_drift_samples(self, project, rows: TelemetryWindow) -> int:
        """Route drift-window telemetry rows back into the dataset through
        the project's :class:`~repro.data.ingestion.IngestionService`, as
        acquisition envelopes pseudo-labeled with the model's own
        predictions."""
        from repro.core.impulse import TimeSeriesInput
        from repro.formats.acquisition import AcquisitionPayload, encode_acquisition

        if project.impulse is None:
            raise RuntimeError("project has no impulse; cannot route samples")
        interval_ms = 1.0
        if isinstance(project.impulse.input_block, TimeSeriesInput):
            interval_ms = 1000.0 / project.impulse.input_block.frequency_hz
        routed = 0
        for i in range(len(rows)):
            # A row must carry both a payload and a prediction: the
            # pseudo-label is the model's own top — never a made-up
            # class like "unlabeled", which would silently widen the
            # retrained model's output layer.
            raw, top = rows.raw[i], rows.top[i]
            if raw is None or top is None or not rows.ok[i]:
                continue
            values = np.asarray(raw, dtype=np.float32)
            axes = 1 if values.ndim == 1 else values.shape[1]
            payload = AcquisitionPayload(
                device_name=rows.source[i],
                device_type="monitor-drift",
                interval_ms=interval_ms,
                sensors=[{"name": f"axis{i}", "units": "unit"}
                         for i in range(axes)],
                values=values,
                metadata={"monitor": True,
                          "model_version": rows.model_version[i],
                          "confidence": float(rows.confidence[i])},
            )
            blob = encode_acquisition(
                payload, hmac_key=project.ingestion.hmac_key, fmt="json"
            )
            project.ingestion.ingest(
                blob, label=top, fmt="json", category="train",
            )
            routed += 1
        return routed

    # -- rollout health gate ------------------------------------------------

    def health_gate(self, project_id: int, model_version: str | None = None,
                    min_records: int = 1):
        """A zero-argument health predicate for
        :meth:`repro.device.fleet.DeviceFleet.ota_update_async`: True when
        the project's recent telemetry (optionally for one model version
        only) breaches no serving SLO.  An empty window is healthy — no
        evidence of harm holds the rollout open, the soak time is what
        buys evidence."""

        def gate() -> bool:
            pm = self.monitor(project_id)
            recent = self.telemetry.recent(
                project_id, n=pm.policy.window, model_version=model_version
            )
            return len(recent) < min_records or not any(
                d.evaluate(None, recent).triggered
                for d in self._detectors(pm.policy) if d.kind == "slo"
            )

        return gate

    # -- observation --------------------------------------------------------

    def snapshot(self, project_id: int) -> dict:
        pm = self.monitor(project_id)
        with pm._lock:
            return self._snapshot_locked(pm)

    def _snapshot_locked(self, pm: ProjectMonitor, skipped: bool = False,
                         recent_count: int | None = None,
                         started_loop: Job | None = None) -> dict:
        payload = {
            "project_id": pm.project_id,
            "health": pm.status,
            "policy": pm.policy.to_dict(),
            "telemetry": self.telemetry.summary(pm.project_id),
            "reference_records": len(pm.reference),
            "evaluations": pm.evaluations,
            "last_evaluated": pm.last_evaluated,
            "detectors": [r.to_dict() for r in pm.last_results],
            "alerts_total": len(pm.alerts),
            "loop_jobs": [
                {
                    "job_id": j.job_id,
                    "job_status": j.status,
                    "error": j.error,
                    "result": j.result if isinstance(j.result, dict) else None,
                }
                for j in pm.loop_jobs
            ],
        }
        if skipped:
            payload["skipped"] = True
        if recent_count is not None:
            payload["recent_records"] = recent_count
        if started_loop is not None:
            payload["started_loop_job"] = started_loop.job_id
        return payload

    def alerts(self, project_id: int) -> list[dict]:
        pm = self.monitor(project_id)
        with pm._lock:
            return [a.to_dict() for a in pm.alerts]
