"""Fleet management + over-the-air updates (the SlateSafety story, Sec. 8.2).

The paper's case study hinges on pushing a new model to microcontrollers
already in the field.  The fleet manager does staged OTA rollouts with
checksum verification and automatic rollback on failed verification.

One rollout path: :meth:`DeviceFleet.ota_update_async` runs the staged
rollout as a **job** on a :class:`repro.core.jobs.JobExecutor` — one
flash child job per device (retried per-device via the job retry
budget), a canary cohort gating the fleet-wide stage behind a
failure-rate threshold, cooperative cancellation, and streamable
per-device logs on the parent job.  :meth:`DeviceFleet.ota_update` is a
blocking convenience wrapper for scripts: the same job on a private
one-worker executor, waited on, returned as a :class:`RolloutReport`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.core.jobs import JobExecutor
from repro.deploy.firmware import FirmwareImage
from repro.device.firmware import VirtualDevice
from repro.monitor.telemetry import SKETCH_DIM, TelemetryRecord


@dataclass
class RolloutReport:
    """Outcome of one OTA rollout."""

    image_version: str
    updated: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    rolled_back: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    aborted: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


class DeviceFleet:
    """Registry of field devices with OTA orchestration."""

    def __init__(self):
        self.devices: dict[str, VirtualDevice] = {}
        # Rollouts are serialized per fleet: overlapping rollouts would
        # corrupt each other's previous-image/rollback bookkeeping.
        self._rollout_gate = threading.Lock()
        self._active_rollout = None  # the in-flight parent Job, if any
        # Monitoring plane: when a TelemetryStore is bound (see
        # MonitorService.watch_fleet), on-device inferences emit compact
        # telemetry records.  Attribution is per-device first
        # (``telemetry_projects``: device id -> project id, set when a
        # rollout targets a subset of the fleet), falling back to the
        # fleet-wide ``telemetry_project`` — so two projects sharing one
        # fleet never see each other's traffic.
        self.telemetry = None
        self.telemetry_project: int | None = None
        self.telemetry_projects: dict[str, int] = {}

    def _check_no_active_rollout_locked(self) -> None:
        active = self._active_rollout
        if active is not None and not active.done:
            raise RuntimeError(
                f"a rollout is already in progress (job {active.job_id}); "
                "wait for it or cancel it first"
            )

    def register(self, device: VirtualDevice) -> None:
        if device.device_id in self.devices:
            raise ValueError(f"device {device.device_id!r} already registered")
        self.devices[device.device_id] = device

    def versions(self) -> dict[str, str]:
        return {
            did: (d.firmware.version if d.firmware else "unflashed")
            for did, d in self.devices.items()
        }

    def devices_for_project(self, project_id: int) -> "list[str] | None":
        """Device ids whose telemetry is attributed to ``project_id``
        (per-device bindings first, then the fleet-wide default).
        Returns ``None`` when no bindings exist at all — an unmonitored
        fleet, which callers treat as fleet-wide."""
        if not self.telemetry_projects and self.telemetry_project is None:
            return None
        return [
            did for did in sorted(self.devices)
            if self.telemetry_projects.get(did, self.telemetry_project)
            == project_id
        ]

    # -- on-device inference + telemetry ------------------------------------

    def classify_on(self, device_id: str, data) -> dict:
        """Run one inference on a field device's flashed impulse and emit
        a telemetry record (with the raw window retained as a drift-loop
        candidate) into the bound store, if any."""
        if device_id not in self.devices:
            raise KeyError(f"unknown device {device_id!r}")
        device = self.devices[device_id]
        raw = np.asarray(data, dtype=np.float32)
        try:
            result = device.classify(raw)
        except RuntimeError:
            self._emit_telemetry(device, raw)
            raise
        self._emit_telemetry(device, raw, result=result)
        return result

    def _emit_telemetry(self, device: VirtualDevice, raw: np.ndarray,
                        result: dict | None = None) -> None:
        project_id = self.telemetry_projects.get(
            device.device_id, self.telemetry_project
        )
        if self.telemetry is None or project_id is None:
            return
        version = device.firmware.version if device.firmware else "unflashed"
        if result is None:  # a failed inference: no prediction, no sketch
            self.telemetry.extend((TelemetryRecord(
                project_id, version, ok=False, source=device.device_id,
                raw=raw),))
            return
        timing = result.get("timing", {})
        self.telemetry.extend((TelemetryRecord(
            project_id, version,
            latency_ms=timing.get("dsp_ms", 0.0) + timing.get("inference_ms", 0.0),
            top=result["top"],
            confidence=max(result["classification"].values(), default=0.0),
            source=device.device_id, sketch=self._sketch(device), raw=raw),))

    @staticmethod
    def _sketch(device: VirtualDevice):
        """Sketch in the *feature* domain — the same domain (and hence
        the same cached projection matrix) the serving tier sketches, so
        one project's FeatureDriftDetector never compares device and
        serving sketches drawn from unrelated projections.  Feature size
        is fixed by the flashed impulse, so variable-length recordings
        cannot mint new projection matrices either.  The features come
        from the classify() call that just ran (no second DSP pass)."""
        from repro.active.embeddings import feature_sketch

        feats = device._last_features
        if feats is None:  # only reachable if classify() semantics change
            return None
        return feature_sketch(np.asarray(feats, np.float32).reshape(1, -1), dim=SKETCH_DIM)[0]

    def _try_flash(self, device: VirtualDevice, image: FirmwareImage,
                   corrupt: bool = False) -> bool:
        """Flash with verification; returns success."""
        expected = image.checksum()
        blob = image.graph_blob if not corrupt else image.graph_blob[:-8]
        candidate = FirmwareImage(
            project_name=image.project_name,
            version=image.version,
            impulse_spec=image.impulse_spec,
            labels=image.labels,
            graph_blob=blob,
            engine=image.engine,
        )
        if candidate.checksum() != expected:
            return False
        try:
            device.flash(candidate)
        except Exception:
            return False
        return True

    def ota_update(
        self,
        image: FirmwareImage,
        device_ids: list[str] | None = None,
        canary_fraction: float = 0.25,
        inject_failures: set[str] | None = None,
    ) -> RolloutReport:
        """Blocking staged rollout: canary cohort first, one device at a
        time; aborts the fleet-wide stage if any canary fails, rolling
        canaries back.  Runs :meth:`ota_update_async` on a private
        one-worker executor and waits for it.

        ``inject_failures`` marks device ids whose transfer corrupts —
        the failure-injection hook used by tests.
        """
        job = self.ota_update_async(
            image, JobExecutor(max_workers=1), device_ids=device_ids,
            canary_fraction=canary_fraction, failure_threshold=0.0,
            max_inflight=1, inject_failures=inject_failures,
        ).wait()
        if job.status != "succeeded":
            raise RuntimeError(f"rollout {job.status}: {job.error}")
        return RolloutReport(**{f.name: job.result[f.name]
                                for f in fields(RolloutReport)})

    # -- the staged rollout (as a managed job) -------------------------------

    def ota_update_async(
        self,
        image: FirmwareImage,
        executor,
        device_ids: list[str] | None = None,
        canary_fraction: float = 0.25,
        failure_threshold: float = 0.0,
        max_inflight: int = 4,
        retries_per_device: int = 0,
        inject_failures: "set[str] | dict[str, int] | None" = None,
        health_gate=None,
        soak_s: float = 0.0,
    ):
        """Staged OTA rollout as a parent job on ``executor``.

        Stage 1 flashes the canary cohort (``canary_fraction`` of the
        targets, at least one device), at most ``max_inflight`` devices
        concurrently.  When the last canary lands, the canary failure
        rate is compared to ``failure_threshold``: above it, the rollout
        **aborts** — updated canaries are rolled back and the remaining
        fleet is never touched (``report.aborted``).  Otherwise stage 2
        flashes the rest of the fleet.  Each device is a child job with
        its own retry budget (``retries_per_device``); a device that
        exhausts it is rolled back to its previous image.

        ``health_gate`` turns the canary barrier into a *telemetry-driven*
        wave gate: after the canaries land (and after an optional
        ``soak_s`` seconds of soak, during which canaries serve real
        traffic), the zero-argument predicate is called — typically
        :meth:`repro.monitor.MonitorService.health_gate`.  Returning
        False (or raising) aborts exactly like a failure-threshold
        breach: canaries roll back, the fleet stage never starts, and
        the report carries ``health_gate_passed``.

        ``inject_failures`` is the failure hook used by tests: a set of
        device ids whose transfer always corrupts, or a mapping
        ``device_id -> n`` corrupting only the first ``n`` attempts
        (exercising per-device retries).

        Returns the parent :class:`repro.core.jobs.Job` immediately; its
        ``result`` is the :meth:`RolloutReport.to_dict` payload plus the
        canary failure rate.  Cancelling the parent drops queued devices
        (reported as ``skipped``) and lets in-flight flashes drain.
        """
        targets = device_ids if device_ids is not None else sorted(self.devices)
        for did in targets:
            if did not in self.devices:
                raise KeyError(f"unknown device {did!r}")
        if not 0.0 <= canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in [0, 1]")
        if not 0.0 <= failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in [0, 1]")
        if isinstance(inject_failures, dict):
            inject = dict(inject_failures)
        else:
            # A plain set corrupts every attempt (beyond any retry budget).
            inject = {did: 1 << 30 for did in (inject_failures or ())}

        n_canary = max(1, int(len(targets) * canary_fraction)) if targets else 0
        canary, rest = list(targets[:n_canary]), list(targets[n_canary:])
        canary_set = frozenset(canary)

        state = {
            "lock": threading.Lock(),
            "report": RolloutReport(image_version=image.version),
            "previous": {},  # device id -> firmware before this rollout
            "attempts": {},  # device id -> flash attempts so far
            "canary_done": 0,
            "stage2_started": False,
        }

        def _flash_fn(did):
            def _run(job):
                job.check_cancelled()
                device = self.devices[did]
                with state["lock"]:
                    state["previous"].setdefault(did, device.firmware)
                    state["attempts"][did] = attempt = state["attempts"].get(did, 0) + 1
                    corrupt = attempt <= inject.get(did, 0)
                job.log(f"flashing {did} with {image.version} (attempt {attempt})")
                if not self._try_flash(device, image, corrupt=corrupt):
                    raise RuntimeError(
                        f"firmware verification failed on {did} (attempt {attempt})"
                    )
                job.log(f"{did} verified at {image.version}")
                return {"device_id": did, "version": image.version}
            return _run

        def _submit_device(parent, did):
            # The device id travels in the job name: on_child_done may run
            # (on a job thread) before submit() even returns, so a
            # side-table keyed by job id would race.
            executor.submit(
                f"ota-flash:{did}", _flash_fn(did),
                retries=retries_per_device, parent=parent,
            )

        def _rollback(did) -> None:
            # A device that had no firmware before this rollout goes back
            # to having none, never stays on the rejected image.
            previous = state["previous"][did]
            if previous is None:
                self.devices[did].erase()
            else:
                self.devices[did].flash(previous)

        def on_child_done(parent, child):
            try:
                _child_done(parent, child)
            except Exception as exc:  # e.g. a rollback flash that itself fails
                # Fail the rollout (finalize re-raises) instead of leaving
                # the parent unsealed, and so never done, behind a barrier
                # that can no longer be reached.
                state.setdefault("error", exc)
                executor.seal_parent(parent)
                raise

        def _child_done(parent, child):
            report = state["report"]
            did = child.name.split(":", 1)[1]
            if child.status == "failed":
                # Roll back before recording, so readers of the report
                # never see a failed device still on the new image.
                _rollback(did)
            with state["lock"]:
                if child.status == "succeeded":
                    report.updated.append(did)
                elif child.status == "cancelled":
                    report.skipped.append(did)
                else:
                    report.failed.append(did)
                    report.rolled_back.append(did)
                terminal = (len(report.updated) + len(report.failed)
                            + len(report.skipped))
            if child.status == "failed":
                parent.log(f"{did}: flash failed after {child.attempts} "
                           f"attempt(s), rolled back ({child.error})")
            elif child.status == "succeeded":
                parent.log(f"{did}: updated to {image.version} "
                           f"(attempt {child.attempts})")
            else:
                parent.log(f"{did}: skipped (rollout cancelled)")
            parent.set_progress(terminal / len(targets) if targets else 1.0)

            if did not in canary_set:
                return
            with state["lock"]:
                state["canary_done"] += 1
                if state["canary_done"] < len(canary) or state["stage2_started"]:
                    return
                state["stage2_started"] = True
                failed_canaries = [d for d in report.failed if d in canary_set]
                rate = len(failed_canaries) / len(canary)
                state["canary_rate"] = rate
            def _skip_rest(message: str) -> None:
                with state["lock"]:
                    report.skipped.extend(rest)
                parent.log(f"{message}; {len(rest)} device(s) skipped")
                executor.seal_parent(parent)

            def _abort(reason: str) -> None:
                # Roll back every updated canary; the rest of the fleet
                # is never flashed.
                with state["lock"]:
                    updated = list(report.updated)
                for u in updated:
                    _rollback(u)
                with state["lock"]:
                    for u in updated:
                        report.updated.remove(u)
                        report.rolled_back.append(u)
                    report.skipped.extend(rest)
                    report.aborted = True
                parent.log(
                    f"{reason}: rollout aborted, "
                    f"{len(updated)} canar(y/ies) rolled back, "
                    f"{len(rest)} device(s) untouched"
                )
                executor.seal_parent(parent)

            if parent.cancel_requested:
                _skip_rest("rollout cancelled before the fleet-wide stage")
                return
            if rate > failure_threshold:
                _abort(f"canary failure rate {rate:.0%} exceeds threshold "
                       f"{failure_threshold:.0%}")
                return
            if health_gate is not None:
                if soak_s > 0:
                    parent.log(f"soaking canary cohort for {soak_s:.1f}s "
                               "before the health gate")
                    deadline = time.monotonic() + soak_s
                    while (time.monotonic() < deadline
                           and not parent.cancel_requested):
                        time.sleep(min(0.05, max(0.0, deadline
                                                 - time.monotonic())))
                    if parent.cancel_requested:
                        _skip_rest("rollout cancelled during the canary soak")
                        return
                detail = ""
                try:
                    healthy = bool(health_gate())
                except Exception as exc:  # noqa: BLE001 - gate isolation
                    healthy = False
                    detail = f" ({type(exc).__name__}: {exc})"
                state["health_gate_passed"] = healthy
                if not healthy:
                    _abort("canary health gate failed" + detail)
                    return
                parent.log("canary health gate passed")
            parent.log(
                f"canary cohort healthy ({rate:.0%} <= "
                f"{failure_threshold:.0%}); rolling out to "
                f"{len(rest)} remaining device(s)"
            )
            for did2 in rest:
                _submit_device(parent, did2)
            executor.seal_parent(parent)

        def finalize(parent, children):
            if "error" in state:
                raise state["error"]
            report = state["report"]
            return {
                **report.to_dict(),
                "devices_total": len(targets),
                "canary": list(canary),
                "canary_failure_rate": state.get("canary_rate"),
                "failure_threshold": failure_threshold,
                "health_gate_passed": state.get("health_gate_passed"),
            }

        with self._rollout_gate:
            # Rollouts are serialized per fleet (overlapping rollouts
            # would corrupt each other's rollback state); the slot frees
            # itself when the parent job goes terminal.
            self._check_no_active_rollout_locked()
            parent = executor.spawn_parent(
                f"fleet-rollout {image.version} ({len(targets)} devices, "
                f"{n_canary} canary)",
                finalize=finalize,
                on_child_done=on_child_done,
                fail_on_child_failure=False,
                max_inflight=max_inflight,
            )
            self._active_rollout = parent
        parent.log(
            f"rollout of {image.version}: canary={canary or '[]'} "
            f"then {len(rest)} device(s), abort above "
            f"{failure_threshold:.0%} canary failures"
        )
        if not targets:
            executor.seal_parent(parent)
            return parent
        for did in canary:
            _submit_device(parent, did)
        # Stage 2 is submitted (or abandoned) by the canary barrier in
        # on_child_done; the parent is sealed there.
        return parent
