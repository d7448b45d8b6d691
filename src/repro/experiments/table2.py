"""Table 2: preprocessing + inference times across devices and precisions.

Paper-scale graphs, cycle-model estimation.  Cells where the deployment
does not fit the device (flash or RAM) print '-', as in the paper.
"""

from __future__ import annotations

from repro.experiments.tasks import TASKS, paper_scale_graphs
from repro.experiments.table1 import TABLE1_KEYS
from repro.profile import LatencyEstimator, MemoryEstimator, get_device

#: Paper's Table 2 values (ms), for EXPERIMENTS.md comparison: task ->
#: device -> precision -> (preprocessing, inference).
PAPER_TABLE2 = {
    "kws": {
        "nano33ble": {"float32": (141.65, 2866.11), "int8": (138.76, 322.71)},
        "esp_eye": {"float32": (305.53, 648.42), "int8": (304.11, 314.14)},
        "rp2040": {"float32": (590.74, 5700.03), "int8": (590.87, 1117.65)},
    },
    "vww": {
        "nano33ble": {"float32": (None, None), "int8": (9.98, 754.74)},
        "esp_eye": {"float32": (24.25, 2309.15), "int8": (9.07, 662.85)},
        "rp2040": {"float32": (None, None), "int8": (56.44, 2205.76)},
    },
    "ic": {
        "nano33ble": {"float32": (1.36, 1518.64), "int8": (1.14, 229.54)},
        "esp_eye": {"float32": (1.09, 340.45), "int8": (1.03, 191.15)},
        "rp2040": {"float32": (4.57, 3048.05), "int8": (6.46, 554.04)},
    },
}


def run() -> dict:
    """-> results[task][device][precision] = dict(ms values) | None."""
    results: dict = {}
    for task in TASKS:
        spec = paper_scale_graphs(task)
        results[task] = {}
        for device_key in TABLE1_KEYS:
            device = get_device(device_key)
            estimator = LatencyEstimator(device)
            mem = MemoryEstimator(engine="tflm")
            results[task][device_key] = {}
            for precision, graph in (
                ("float32", spec.float_graph),
                ("int8", spec.int8_graph),
            ):
                blocks = (spec.dsp_block,)
                if not mem.estimate(graph, blocks, spec.raw_shape).fits(device):
                    results[task][device_key][precision] = None
                    continue
                breakdown = estimator.end_to_end(graph, blocks, spec.raw_shape)
                results[task][device_key][precision] = {
                    "preprocessing_ms": breakdown.dsp_ms,
                    "inference_ms": breakdown.inference_ms,
                    "total_ms": breakdown.total_ms,
                }
    return results


_TASK_TITLES = {
    "kws": "Keyword Spotting (KWS) inference times",
    "vww": "Visual Wake Words (VWW) inference times",
    "ic": "Image Classification (IC) inference times",
}


def render(results: dict | None = None) -> str:
    results = results if results is not None else run()
    lines = ["Table 2 — preprocessing and inference times (ms); '-' = did not fit"]
    devices = [get_device(k).name for k in TABLE1_KEYS]
    header = f"{'':<16}" + "".join(f"{name:>24}" for name in devices)
    sub = f"{'':<16}" + "".join(f"{'Float':>12}{'Int8':>12}" for _ in devices)
    for task in TASKS:
        lines += ["", _TASK_TITLES[task], header, sub]
        for row_key, row_name in (
            ("preprocessing_ms", "Preprocessing"),
            ("inference_ms", "Inference"),
            ("total_ms", "Total"),
        ):
            cells = []
            for device_key in TABLE1_KEYS:
                for precision in ("float32", "int8"):
                    cell = results[task][device_key][precision]
                    cells.append(f"{cell[row_key]:>12.2f}" if cell else f"{'-':>12}")
            lines.append(f"{row_name:<16}" + "".join(cells))
    return "\n".join(lines)


def shape_checks(results: dict | None = None) -> dict[str, bool]:
    """The qualitative claims of Sec. 5.2 that must hold in our reproduction."""
    r = results if results is not None else run()

    def total(task, dev, prec):
        cell = r[task][dev][prec]
        return cell["total_ms"] if cell else None

    kws_m4 = r["kws"]["nano33ble"]
    checks = {
        # Quantization speaks ups inference everywhere it fits.
        "int8_faster_everywhere": all(
            r[t][d]["int8"]["inference_ms"] < r[t][d]["float32"]["inference_ms"]
            for t in TASKS
            for d in TABLE1_KEYS
            if r[t][d]["int8"] and r[t][d]["float32"]
        ),
        # KWS preprocessing rivals/exceeds optimised inference (Sec. 5.2).
        "kws_dsp_dominates_int8_inference": (
            kws_m4["int8"]["preprocessing_ms"]
            > 0.3 * kws_m4["int8"]["inference_ms"]
        ),
        # Software-float M0+ shows the largest float/int8 gap for KWS.
        "pico_largest_quant_gain": (
            total("kws", "rp2040", "float32") / total("kws", "rp2040", "int8")
            > total("kws", "esp_eye", "float32") / total("kws", "esp_eye", "int8")
        ),
        # VWW float does not fit the Nano (flash) — the paper's '-' cell.
        "vww_float_missing_on_nano": r["vww"]["nano33ble"]["float32"] is None,
        # Preprocessing is precision-independent (it runs in float).
        "dsp_precision_independent": all(
            abs(
                r[t][d]["float32"]["preprocessing_ms"]
                - r[t][d]["int8"]["preprocessing_ms"]
            )
            < 1e-6
            for t in TASKS
            for d in TABLE1_KEYS
            if r[t][d]["float32"] and r[t][d]["int8"]
        ),
    }
    return checks
