"""Virtual devices: serial, AT protocol, daemon ingestion, OTA fleet."""

import numpy as np
import pytest

from repro.core import ClassificationBlock, Impulse, Platform, TimeSeriesInput
from repro.data.synthetic import vibration_dataset
from repro.device import (
    AccelerometerSimulator,
    DeviceDaemon,
    DeviceFleet,
    MicrophoneSimulator,
    VirtualDevice,
    VirtualSerialPort,
)
from repro.dsp import RawBlock, SpectralAnalysisBlock
from repro.nn import TrainingConfig
from repro.profile import LatencyEstimator, get_device


@pytest.fixture(scope="module")
def firmware_image():
    """A trained vibration-classifier firmware image."""
    platform = Platform()
    platform.register_user("u")
    project = platform.create_project("fw", owner="u")
    for s in vibration_dataset(samples_per_class=12, seed=0):
        project.dataset.add(s, category=s.category)
    project.set_impulse(
        Impulse(
            TimeSeriesInput(window_size_ms=2000, window_increase_ms=2000,
                            frequency_hz=100, axes=3),
            [SpectralAnalysisBlock(sample_rate=100, fft_length=64)],
            ClassificationBlock(
                architecture="mlp", arch_kwargs=dict(hidden=(16,)),
                training=TrainingConfig(epochs=30, batch_size=16,
                                        learning_rate=3e-3, seed=0),
            ),
        )
    )
    project.train(seed=0)
    return project.deploy(target="firmware", engine="eon",
                          precision="int8").metadata["image"]


def test_serial_port_fifo():
    port = VirtualSerialPort()
    port.host_write("one")
    port.host_write("two")
    assert port.device_read() == "one"
    assert port.device_read() == "two"
    assert port.device_read() is None
    port.device_write("reply")
    assert port.host_read() == "reply"
    assert port.host_read_all() == []


def test_sensor_simulators():
    mic = MicrophoneSimulator(sample_rate=8000, seed=0)
    noise = mic.sample(100)
    assert noise.shape == (100, 1)
    mic.queue_clip(np.ones(50, dtype=np.float32))
    clip = mic.sample(100)
    assert clip[0, 0] == 1.0 and clip[-1, 0] == 0.0  # padded

    acc = AccelerometerSimulator(sample_rate=100, mode="bearing", seed=0)
    data = acc.sample(150)
    assert data.shape == (150, 3)


def test_at_protocol(firmware_image):
    device = VirtualDevice("dev-1", "nano33ble",
                           sensors=[AccelerometerSimulator(seed=0)])
    device.flash(firmware_image)
    for command in ("AT+HELLO?", "AT+CONFIG?", "AT+VERSION?",
                    "AT+SAMPLESTART=accelerometer,2000", "AT+RUNIMPULSE"):
        device.serial.host_write(command)
    device.poll()
    replies = device.serial.host_read_all()
    assert replies[0].startswith("OK dev-1")
    assert "sensors=accelerometer" in replies[1]
    assert replies[2] == "OK 1.0.0"
    assert "sampled 200 readings" in replies[3]
    assert replies[4].startswith("OK top=")
    assert "dsp=" in replies[4] and "nn=" in replies[4]


def test_at_protocol_errors(firmware_image):
    device = VirtualDevice("dev-2", "rp2040",
                           sensors=[AccelerometerSimulator(seed=0)])
    device.serial.host_write("AT+RUNIMPULSE")  # nothing flashed
    device.serial.host_write("AT+SAMPLESTART=camera,100")  # no such sensor
    device.serial.host_write("AT+BOGUS")
    device.poll()
    replies = device.serial.host_read_all()
    assert all(r.startswith("ERR") for r in replies)


def test_on_device_inference_classifies(firmware_image):
    """A bearing-fault simulator should be classified as 'bearing'."""
    device = VirtualDevice(
        "dev-3", "nano33ble",
        sensors=[AccelerometerSimulator(mode="bearing", seed=1)],
    )
    device.flash(firmware_image)
    device.acquire("accelerometer", 2000)
    result = device.run_impulse()
    assert result["top"] == "bearing"
    assert result["timing"]["total_ms"] > 0


def test_daemon_uploads_signed_samples(firmware_image):
    platform = Platform()
    platform.register_user("u")
    project = platform.create_project("collect", owner="u", hmac_key="fleetkey")
    device = VirtualDevice("dev-4", "nano33ble",
                           sensors=[AccelerometerSimulator(mode="normal", seed=2)])
    daemon = DeviceDaemon(device, project)
    ids = daemon.collect_dataset("accelerometer", 1000, {"normal": 3})
    assert len(ids) == 3
    assert len(project.dataset) == 3
    sample = project.dataset.get(ids[0])
    assert sample.metadata["device_name"] == "dev-4"
    assert sample.data.shape == (100, 3)


def test_daemon_wrong_key_rejected(firmware_image):
    platform = Platform()
    platform.register_user("u")
    project = platform.create_project("secure", owner="u", hmac_key="right")
    device = VirtualDevice("dev-5", "nano33ble",
                           sensors=[AccelerometerSimulator(seed=0)])
    daemon = DeviceDaemon(device, project, hmac_key="wrong")
    with pytest.raises(Exception):
        daemon.sample_and_upload("accelerometer", 500, "x")
    assert len(project.dataset) == 0


def test_daemon_unknown_sensor_is_clear_valueerror():
    """Regression: an unknown sensor name used to escape as a bare
    KeyError; it must be a ValueError naming the available sensors."""
    platform = Platform()
    platform.register_user("u")
    project = platform.create_project("sensors", owner="u")
    device = VirtualDevice("dev-6", "nano33ble",
                           sensors=[AccelerometerSimulator(seed=0),
                                    MicrophoneSimulator(seed=0)])
    daemon = DeviceDaemon(device, project)
    with pytest.raises(ValueError, match="accelerometer, microphone"):
        daemon.sample_and_upload("gyroscope", 500, "x")
    with pytest.raises(ValueError, match="no sensor 'gyroscope'"):
        daemon.sample_and_upload("gyroscope", 500, "x")
    assert len(project.dataset) == 0
    # A device with no sensors at all says so instead of listing nothing.
    bare = DeviceDaemon(VirtualDevice("dev-7", "nano33ble"), project)
    with pytest.raises(ValueError, match="available sensors: none"):
        bare.sample_and_upload("accelerometer", 500, "x")


def test_fleet_rollout_and_rollback(firmware_image):
    fleet = DeviceFleet()
    for i in range(6):
        fleet.register(VirtualDevice(f"d{i}", "nano33ble",
                                     sensors=[AccelerometerSimulator(seed=i)]))
    report = fleet.ota_update(firmware_image)
    assert sorted(report.updated) == [f"d{i}" for i in range(6)]
    assert set(fleet.versions().values()) == {"1.0.0"}

    # Second image; one device's transfer corrupts -> rollback to 1.0.0.
    import copy

    v2 = copy.deepcopy(firmware_image)
    v2.version = "2.0.0"
    report = fleet.ota_update(v2, inject_failures={"d4"})
    assert "d4" in report.failed and "d4" in report.rolled_back
    versions = fleet.versions()
    assert versions["d4"] == "1.0.0"
    assert all(versions[f"d{i}"] == "2.0.0" for i in range(6) if i != 4)


def test_fleet_canary_abort(firmware_image):
    """If the canary fails, the fleet-wide stage never happens."""
    fleet = DeviceFleet()
    for i in range(8):
        fleet.register(VirtualDevice(f"c{i}", "nano33ble",
                                     sensors=[AccelerometerSimulator(seed=i)]))
    fleet.ota_update(firmware_image)

    import copy

    v2 = copy.deepcopy(firmware_image)
    v2.version = "2.0.0"
    # Canary cohort is the first 25% => c0, c1; fail c0.
    report = fleet.ota_update(v2, canary_fraction=0.25, inject_failures={"c0"})
    assert report.updated == []
    assert set(fleet.versions().values()) == {"1.0.0"}


def test_fleet_duplicate_registration():
    fleet = DeviceFleet()
    fleet.register(VirtualDevice("x", "nano33ble"))
    with pytest.raises(ValueError):
        fleet.register(VirtualDevice("x", "nano33ble"))


@pytest.fixture(scope="module")
def two_block_project():
    """A trained vibration project whose impulse has two DSP blocks."""
    platform = Platform()
    platform.register_user("u")
    project = platform.create_project("two-blocks", owner="u")
    for s in vibration_dataset(samples_per_class=6, seed=0):
        project.dataset.add(s, category=s.category)
    project.set_impulse(
        Impulse(
            TimeSeriesInput(window_size_ms=2000, window_increase_ms=2000,
                            frequency_hz=100, axes=3),
            [SpectralAnalysisBlock(sample_rate=100, fft_length=64), RawBlock()],
            ClassificationBlock(
                architecture="mlp", arch_kwargs=dict(hidden=(8,)),
                training=TrainingConfig(epochs=2, batch_size=16, seed=0),
            ),
        )
    )
    project.train(seed=0)
    return project


def _flash_float32(project, device_id):
    device = VirtualDevice(device_id, "nano33ble")
    device.flash(project.deploy(target="firmware", precision="float32").metadata["image"])
    return device


def test_flashed_device_runs_every_dsp_block(two_block_project):
    """A two-block impulse classifies on the device as it does in the
    project, and the device is charged for both blocks' DSP."""
    project = two_block_project
    device = _flash_float32(project, "dev-two")
    sample = next(iter(project.dataset)).data
    result = device.classify(sample)
    assert result["classification"] == dict(project.classify_sample(sample))
    est = LatencyEstimator(get_device("nano33ble"))
    raw_shape = project.impulse.input_block.raw_shape()
    assert result["timing"]["dsp_ms"] == pytest.approx(
        sum(est.dsp_ms(b, raw_shape) for b in project.impulse.dsp_blocks)
    )


def test_profile_and_flashed_device_price_every_dsp_block_alike(two_block_project):
    """``Project.profile`` charges every DSP block of the impulse, and a
    flashed device reports the same price for the same model."""
    project = two_block_project
    profile = project.profile("nano33ble", precision="float32")
    est = LatencyEstimator(get_device("nano33ble"))
    raw_shape = project.impulse.input_block.raw_shape()
    blocks = project.impulse.dsp_blocks
    assert len(blocks) == 2
    assert profile["dsp_ms"] == pytest.approx(sum(est.dsp_ms(b, raw_shape) for b in blocks))
    device = _flash_float32(project, "dev-price")
    timing = device.classify(next(iter(project.dataset)).data)["timing"]
    assert timing["dsp_ms"] == profile["dsp_ms"]
    assert timing["inference_ms"] == profile["inference_ms"]
    assert timing["total_ms"] == profile["total_ms"]
