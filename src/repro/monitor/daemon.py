"""The MonitorDaemon: periodic monitoring sweeps as jobs.

The hosted platform evaluates production monitors on a schedule, not per
request.  :class:`MonitorDaemon` reproduces that: every ``interval_s`` it
submits a ``monitor-sweep`` job to the monitor's
:class:`repro.core.jobs.JobExecutor`; the job runs
:meth:`repro.monitor.service.MonitorService.evaluate_all` — detectors,
alerts, and (policy permitting) closed-loop kickoff all happen inside
managed jobs with streamable logs, never on the serving hot path.

``tick()`` runs a single sweep synchronously, which is what tests and
the CLI use; ``start()``/``stop()`` run the steady-state schedule.
"""

from __future__ import annotations

import threading

from repro.core.jobs import Job


class MonitorDaemon:
    """Periodic sweep scheduler over a :class:`MonitorService`."""

    def __init__(self, service, interval_s: float = 5.0):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.service = service
        self.interval_s = interval_s
        self.sweeps: list[Job] = []
        self.max_retained_sweeps = 64  # the daemon runs forever; jobs pin logs
        self.ticks = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def tick(self, wait: bool = True, timeout: float | None = 30.0) -> Job:
        """Submit one monitoring sweep; by default wait for it."""
        job = self.service.jobs.submit(
            "monitor-sweep", lambda j: self.service.evaluate_all(job=j)
        )
        self.ticks += 1
        self.sweeps.append(job)
        while (len(self.sweeps) > self.max_retained_sweeps
               and self.sweeps[0].done):
            self.sweeps.pop(0)
        if wait:
            job.wait(timeout)
        return job

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the periodic schedule (idempotent)."""
        if self.running:
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self.interval_s):
                try:
                    self.tick(wait=True)
                except RuntimeError:
                    return  # executor shut down under us

        self._thread = threading.Thread(
            target=_loop, name="monitor-daemon", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
