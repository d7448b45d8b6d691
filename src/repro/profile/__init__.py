"""On-device resource estimation (paper Sec. 4.4).

The commercial platform uses Renode emulation plus device benchmarking; we
substitute calibrated per-device cycle-cost models, which price an
impulse's DSP blocks and its graph in one place: ``Project.profile``, the
EON Tuner, Table 2 and a flashed ``VirtualDevice`` all report them.
Coefficients are calibrated once, globally, against the paper's
Table 2 keyword-spotting row — every other task/device cell is then
emergent from MAC counts, so cross-task and cross-device *shape* is a real
prediction, not a fit.
"""

from repro.profile.devices import DEVICES, DeviceProfile, get_device
from repro.profile.latency import LatencyBreakdown, LatencyEstimator
from repro.profile.memory import MemoryBreakdown, MemoryEstimator

__all__ = [
    "DeviceProfile",
    "DEVICES",
    "get_device",
    "LatencyEstimator",
    "LatencyBreakdown",
    "MemoryEstimator",
    "MemoryBreakdown",
]
