"""Table 4: RAM / flash under TFLM vs EON, float32 vs int8, per task.

Memory columns come from the paper-scale graphs, each cell one
``MemoryEstimator.estimate`` of the graph behind the task's DSP block: the
Preprocessing row is its DSP RAM, a model row's RAM the rest (as the EON
Tuner splits it).  The accuracy columns come from the trained
reduced-scale models (the engines produce identical outputs, so accuracy is
per-precision, not per-engine — as in the paper).
"""

from __future__ import annotations

from repro.experiments.tasks import TASKS, paper_scale_graphs, trained_task
from repro.profile import MemoryEstimator

#: Paper Table 4 (kB, %): task -> row -> (ram, flash, acc)
PAPER_TABLE4 = {
    "kws": {
        "fp_tflm": (115.8, 148.0, 78.5), "fp_eon": (96.8, 106.7, 78.5),
        "int8_tflm": (38.5, 98.1, 78.5), "int8_eon": (36.4, 65.3, 78.5),
        "dsp_ram": 13.0,
    },
    "vww": {
        "fp_tflm": (398.4, 904.4, 81.1), "fp_eon": (327.7, 861.4, 81.1),
        "int8_tflm": (124.8, 361.2, 79.9), "int8_eon": (131.0, 309.5, 79.9),
        "dsp_ram": 4.0,
    },
    "ic": {
        "fp_tflm": (195.8, 107.5, 70.9), "fp_eon": (162.7, 78.7, 70.9),
        "int8_tflm": (51.9, 63.1, 71.1), "int8_eon": (44.0, 42.1, 71.1),
        "dsp_ram": 4.0,
    },
}


def run(with_accuracy: bool = True, seed: int = 0) -> dict:
    """-> results[task][row] = {"ram_kb", "flash_kb", "accuracy"}."""
    results: dict = {}
    for task in TASKS:
        spec = paper_scale_graphs(task)
        accuracies = {"float32": None, "int8": None}
        if with_accuracy:
            bundle = trained_task(task, seed=seed)
            accuracies = {
                "float32": bundle.float_accuracy,
                "int8": bundle.int8_accuracy,
            }
        task_rows: dict = {}
        for precision, graph in (
            ("fp", spec.float_graph),
            ("int8", spec.int8_graph),
        ):
            for engine in ("tflm", "eon"):
                est = MemoryEstimator(engine=engine).estimate(
                    graph, (spec.dsp_block,), spec.raw_shape
                )
                task_rows["dsp_ram_kb"] = est.dsp_ram_bytes / 1024.0
                task_rows[f"{precision}_{engine}"] = {
                    "ram_kb": (est.ram_bytes - est.dsp_ram_bytes) / 1024.0,
                    "flash_kb": est.flash_kb,
                    "accuracy": accuracies["float32" if precision == "fp" else "int8"],
                }
        results[task] = task_rows
    return results


_ROW_TITLES = {
    "fp_tflm": "FP (TFLM)",
    "fp_eon": "FP (EON)",
    "int8_tflm": "Int8 (TFLM)",
    "int8_eon": "Int8 (EON)",
}

_TASK_TITLES = {"kws": "Keyword Spotting", "vww": "Visual Wake Words",
                "ic": "Image Classification"}


def render(results: dict | None = None) -> str:
    results = results if results is not None else run()
    lines = ["Table 4 — memory estimation (kB; accuracy on holdout set)"]
    header = f"{'':<14}" + "".join(
        f"{_TASK_TITLES[t]:>34}" for t in TASKS
    )
    sub = f"{'':<14}" + "".join(f"{'RAM':>12}{'Flash':>12}{'Acc.':>10}" for _ in TASKS)
    lines += [header, sub]
    dsp_cells = "".join(
        f"{results[t]['dsp_ram_kb']:>12.1f}{'-':>12}{'-':>10}" for t in TASKS
    )
    lines.append(f"{'Preprocessing':<14}" + dsp_cells)
    for row in ("fp_tflm", "fp_eon", "int8_tflm", "int8_eon"):
        cells = []
        for task in TASKS:
            r = results[task][row]
            acc = f"{r['accuracy'] * 100:.1f}" if r["accuracy"] is not None else "-"
            cells.append(f"{r['ram_kb']:>12.1f}{r['flash_kb']:>12.1f}{acc:>10}")
        lines.append(f"{_ROW_TITLES[row]:<14}" + "".join(cells))
    return "\n".join(lines)


def shape_checks(results: dict | None = None) -> dict[str, bool]:
    """The qualitative Table 4 / Sec 5.3 claims."""
    r = results if results is not None else run(with_accuracy=False)
    checks = {}
    for task in TASKS:
        rows = r[task]
        checks[f"{task}_eon_saves_flash_fp"] = (
            rows["fp_eon"]["flash_kb"] < rows["fp_tflm"]["flash_kb"]
        )
        checks[f"{task}_eon_saves_flash_int8"] = (
            rows["int8_eon"]["flash_kb"] < rows["int8_tflm"]["flash_kb"]
        )
        checks[f"{task}_eon_saves_ram_fp"] = (
            rows["fp_eon"]["ram_kb"] < rows["fp_tflm"]["ram_kb"]
        )
        checks[f"{task}_eon_saves_ram_int8"] = (
            rows["int8_eon"]["ram_kb"] < rows["int8_tflm"]["ram_kb"]
        )
        # int8 quantization shrinks the *model* (serialized weights) ~4x;
        # total flash shrinks less because kernel code is precision-
        # independent-ish (int8 kernels are in fact slightly larger).
        from repro.experiments.tasks import paper_scale_graphs
        from repro.graph import graph_to_bytes

        spec = paper_scale_graphs(task)
        # Weights shrink ~4x; the serialized file shrinks a bit less because
        # the structural header and per-channel quant params are
        # precision-independent.
        checks[f"{task}_int8_weights_shrink_4x"] = (
            spec.int8_graph.weight_bytes() < 0.3 * spec.float_graph.weight_bytes()
        )
        checks[f"{task}_int8_model_shrinks_2x"] = len(
            graph_to_bytes(spec.int8_graph)
        ) < 0.5 * len(graph_to_bytes(spec.float_graph))
        checks[f"{task}_int8_total_flash_smaller"] = (
            rows["int8_tflm"]["flash_kb"] < rows["fp_tflm"]["flash_kb"]
        )
        # RAM delta (TFLM - EON) is larger for float than int8 (allocator
        # slack scales with the arena).
        checks[f"{task}_fp_ram_delta_larger"] = (
            rows["fp_tflm"]["ram_kb"] - rows["fp_eon"]["ram_kb"]
        ) > (rows["int8_tflm"]["ram_kb"] - rows["int8_eon"]["ram_kb"])
    return checks
