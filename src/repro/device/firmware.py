"""Virtual device firmware: the AT command surface + on-device inference.

The precompiled Edge Impulse firmware exposes "a simple set of AT commands
for usage over a serial port" (Sec. 4.6).  This virtual firmware implements
that protocol over :class:`VirtualSerialPort`:

``AT+HELLO?``, ``AT+CONFIG?``, ``AT+SAMPLESTART=<sensor>,<length_ms>``,
``AT+RUNIMPULSE``, ``AT+FLASH=<checksum>``, ``AT+VERSION?``

Inference runs the flashed graph's one plan — the plan serving, EIM and
``Project.test`` score with, bit for bit — and reports the latency
estimator's price for the flashed impulse, the same numbers
``Project.profile`` gives for the device.
"""

from __future__ import annotations

import numpy as np

from repro.core.impulse import Impulse
from repro.deploy.firmware import FirmwareImage
from repro.device.serial import VirtualSerialPort
from repro.dsp.base import extract_features
from repro.profile.devices import DeviceProfile, get_device
from repro.profile.latency import LatencyBreakdown, LatencyEstimator
from repro.runtime.eon import EONModel


class VirtualDevice:
    """A dev board: sensors + optional flashed impulse firmware."""

    def __init__(
        self,
        device_id: str,
        profile: DeviceProfile | str = "nano33ble",
        sensors: list | None = None,
    ):
        self.device_id = device_id
        self.profile = get_device(profile) if isinstance(profile, str) else profile
        self.sensors = {s.name: s for s in (sensors or [])}
        self.serial = VirtualSerialPort()
        self.firmware: FirmwareImage | None = None
        self._impulse: Impulse | None = None
        self._model: EONModel | None = None
        self._latency: LatencyBreakdown | None = None
        self._last_sample: np.ndarray | None = None
        self._last_sensor: str | None = None
        # DSP features of the most recent classify(), reused by fleet
        # telemetry for feature-domain sketches (no second DSP pass).
        self._last_features: np.ndarray | None = None

    # -- provisioning ------------------------------------------------------

    def flash(self, image: FirmwareImage) -> None:
        """Install a firmware image (USB or OTA path)."""
        self._model = EONModel(image.load_graph())
        self._impulse = Impulse.from_dict(image.impulse_spec)
        self._latency = LatencyEstimator(self.profile).end_to_end(
            self._model.graph, self._impulse.dsp_blocks, self._impulse.input_block.raw_shape()
        )
        self.firmware = image

    def erase(self) -> None:
        """Remove the flashed impulse: the device is unflashed again."""
        self.firmware = self._impulse = self._model = self._latency = None
        self._last_features = None

    # -- sampling / inference -----------------------------------------------

    def acquire(self, sensor: str, length_ms: float) -> np.ndarray:
        if sensor not in self.sensors:
            raise KeyError(f"device has no sensor {sensor!r}")
        sim = self.sensors[sensor]
        n = max(1, int(length_ms * sim.sample_rate / 1000.0))
        self._last_sample = sim.sample(n)
        self._last_sensor = sensor
        return self._last_sample

    def run_impulse(self) -> dict:
        """Classify the last acquired sample with the flashed impulse."""
        if self._last_sample is None:
            raise RuntimeError("no sample acquired")
        data = self._last_sample
        if data.ndim == 2 and data.shape[1] == 1:
            data = data[:, 0]
        return self.classify(data)

    def classify(self, data: np.ndarray) -> dict:
        """Classify one raw recording on-device (first window) with the
        flashed impulse — the field-inference path the monitoring plane
        observes via :meth:`repro.device.fleet.DeviceFleet.classify_on`."""
        if self.firmware is None or self._impulse is None:
            raise RuntimeError("no firmware flashed")
        windows = self._impulse.input_block.windows(np.asarray(data))[:1]
        self._last_features = extract_features(self._impulse.dsp_blocks, windows)[0]
        probs = self._model.predict_proba(self._last_features[None])[0]
        ranked = sorted(
            zip(self.firmware.labels, probs.tolist()), key=lambda kv: -kv[1]
        )
        return {
            "classification": dict(ranked),
            "top": ranked[0][0],
            "timing": {
                "dsp_ms": self._latency.dsp_ms,
                "inference_ms": self._latency.inference_ms,
                "total_ms": self._latency.total_ms,
            },
        }

    # -- AT protocol ------------------------------------------------------------

    def poll(self) -> None:
        """Process every pending AT command on the serial port."""
        while True:
            line = self.serial.device_read()
            if line is None:
                return
            self._handle(line.strip())

    def _reply(self, text: str) -> None:
        self.serial.device_write(text)

    def _handle(self, line: str) -> None:
        if line == "AT+HELLO?":
            self._reply(f"OK {self.device_id} ({self.profile.name})")
        elif line == "AT+CONFIG?":
            sensors = ",".join(self.sensors) or "none"
            fw = self.firmware.checksum() if self.firmware else "none"
            self._reply(f"OK sensors={sensors} firmware={fw}")
        elif line == "AT+VERSION?":
            version = self.firmware.version if self.firmware else "unflashed"
            self._reply(f"OK {version}")
        elif line.startswith("AT+SAMPLESTART="):
            try:
                sensor, length = line.split("=", 1)[1].split(",")
                data = self.acquire(sensor.strip(), float(length))
                self._reply(f"OK sampled {data.shape[0]} readings from {sensor}")
            except (KeyError, ValueError) as exc:
                self._reply(f"ERR {exc}")
        elif line == "AT+RUNIMPULSE":
            try:
                result = self.run_impulse()
                timing = result["timing"]
                self._reply(
                    f"OK top={result['top']} "
                    f"dsp={timing['dsp_ms']:.1f}ms nn={timing['inference_ms']:.1f}ms"
                )
            except RuntimeError as exc:
                self._reply(f"ERR {exc}")
        else:
            self._reply(f"ERR unknown command {line!r}")
