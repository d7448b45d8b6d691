"""Device profiles — Table 1 of the paper plus a Linux target for EIM.

Cycle costs reflect each platform's architecture:

- **Arduino Nano 33 BLE Sense** (Cortex-M4F, 64 MHz): hardware FPU but TFLM
  float kernels are plain C (slow); CMSIS-NN gives int8 a ~9x kernel-level
  speedup.  CMSIS-DSP makes the float DSP stage comparatively fast.
- **ESP-EYE** (Xtensa LX6, 160 MHz): decent FPU, no int8 SIMD library in
  this generation, so quantization only buys ~2x.
- **Raspberry Pi Pico** (Cortex-M0+, 133 MHz): no FPU — software floats make
  the float/int8 gap huge (~5x) and the DSP stage expensive.

The float/int8 conv coefficients were calibrated against the paper's
Table 2 KWS row (see DESIGN.md); everything else is derived.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceProfile:
    """Static description + cycle-cost model of a deployment target."""

    key: str
    name: str
    core: str
    clock_hz: float
    flash_bytes: int
    ram_bytes: int
    # NN kernel costs, cycles per multiply-accumulate
    cyc_mac_conv_f32: float
    cyc_mac_conv_i8: float
    cyc_mac_fc_f32: float
    cyc_mac_fc_i8: float
    # elementwise ops (pool compare/accumulate, add, copy), cycles/element
    cyc_elem_f32: float
    cyc_elem_i8: float
    # DSP stage costs
    dsp_cyc_per_flop: float
    dsp_cyc_per_slow_op: float
    dsp_cyc_per_copy: float
    # fixed overheads
    op_overhead_cycles: float  # dispatch/setup per graph op
    dsp_block_overhead_cycles: float
    has_fpu: bool = True
    has_nn_extension: bool = False  # CMSIS-NN-class int8 kernels
    # Firmware footprint reserved before any model fits: RTOS + drivers +
    # the Edge Impulse SDK glue.  The tuner's RAM/flash budgets and
    # MemoryBreakdown.fits() subtract these.
    firmware_ram_bytes: int = 40_000
    firmware_flash_bytes: int = 180_000

    def ms(self, cycles: float) -> float:
        return cycles / self.clock_hz * 1e3


DEVICES: dict[str, DeviceProfile] = {
    "nano33ble": DeviceProfile(
        key="nano33ble",
        name="Arduino Nano 33 BLE Sense",
        core="Cortex-M4F",
        clock_hz=64e6,
        flash_bytes=1_048_576,
        ram_bytes=262_144,
        cyc_mac_conv_f32=68.0,
        cyc_mac_conv_i8=7.6,
        cyc_mac_fc_f32=34.0,
        cyc_mac_fc_i8=6.0,
        cyc_elem_f32=8.0,
        cyc_elem_i8=4.0,
        dsp_cyc_per_flop=6.3,
        dsp_cyc_per_slow_op=60.0,
        dsp_cyc_per_copy=1.0,
        op_overhead_cycles=12_000,
        dsp_block_overhead_cycles=80_000,
        has_fpu=True,
        has_nn_extension=True,
    ),
    "esp_eye": DeviceProfile(
        key="esp_eye",
        name="ESP-EYE (ESP32)",
        core="Tensilica LX6",
        clock_hz=160e6,
        flash_bytes=4_194_304,
        ram_bytes=8_388_608,
        cyc_mac_conv_f32=38.0,
        cyc_mac_conv_i8=18.6,
        cyc_mac_fc_f32=20.0,
        cyc_mac_fc_i8=10.0,
        cyc_elem_f32=6.0,
        cyc_elem_i8=5.0,
        dsp_cyc_per_flop=35.0,
        dsp_cyc_per_slow_op=90.0,
        dsp_cyc_per_copy=2.0,
        op_overhead_cycles=18_000,
        dsp_block_overhead_cycles=120_000,
        has_fpu=True,
        has_nn_extension=False,
    ),
    "rp2040": DeviceProfile(
        key="rp2040",
        name="Raspberry Pi Pico (RP2040)",
        core="Cortex-M0+",
        clock_hz=133e6,
        flash_bytes=16_777_216,
        ram_bytes=270_336,
        cyc_mac_conv_f32=280.0,
        cyc_mac_conv_i8=55.0,
        cyc_mac_fc_f32=140.0,
        cyc_mac_fc_i8=30.0,
        cyc_elem_f32=40.0,
        cyc_elem_i8=8.0,
        dsp_cyc_per_flop=56.0,
        dsp_cyc_per_slow_op=250.0,
        dsp_cyc_per_copy=2.0,
        op_overhead_cycles=15_000,
        dsp_block_overhead_cycles=100_000,
        has_fpu=False,
        has_nn_extension=False,
    ),
    # Linux target for EIM process-runner deployments (Sec. 4.6); not part
    # of Table 1 but used by the Linux/EIM code path.
    "linux_x86": DeviceProfile(
        key="linux_x86",
        name="Linux x86-64",
        core="x86-64",
        clock_hz=2.4e9,
        flash_bytes=1 << 33,
        ram_bytes=1 << 33,
        cyc_mac_conv_f32=0.5,
        cyc_mac_conv_i8=0.25,
        cyc_mac_fc_f32=0.5,
        cyc_mac_fc_i8=0.25,
        cyc_elem_f32=0.5,
        cyc_elem_i8=0.25,
        dsp_cyc_per_flop=0.5,
        dsp_cyc_per_slow_op=4.0,
        dsp_cyc_per_copy=0.25,
        op_overhead_cycles=500,
        dsp_block_overhead_cycles=2_000,
        has_fpu=True,
        has_nn_extension=True,
    ),
}


def get_device(key: str) -> DeviceProfile:
    if key not in DEVICES:
        raise KeyError(f"unknown device {key!r}; available: {sorted(DEVICES)}")
    return DEVICES[key]
