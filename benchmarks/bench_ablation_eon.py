"""Ablation: where do EON's savings come from?

Decomposes the TFLM-vs-EON RAM/flash delta into its mechanisms for the
paper-scale KWS and IC graphs.  RAM: tensor metadata + allocator slack,
plus the arena the plan's steps save (a conv step that absorbs its pool
never allocates the pre-pool tensor).  Flash: interpreter code and the
flatbuffer parser.  KWS (DS-CNN) has nothing to fuse, IC (conv+pool)
does.
"""

from conftest import save_result

from repro.experiments.tasks import paper_scale_graphs
from repro.profile import MemoryEstimator
from repro.profile.memory import (
    TFLM_FLATBUFFER_PARSER,
    TFLM_INTERPRETER_CODE,
    TFLM_RESOLVER_CODE,
)

TASKS = ("kws", "ic")


def test_ablation_eon_overhead_decomposition(benchmark):
    specs = {task: paper_scale_graphs(task) for task in TASKS}

    def decompose():
        out = {}
        for task, spec in specs.items():
            for precision, graph in (("fp", spec.float_graph), ("int8", spec.int8_graph)):
                tflm = MemoryEstimator(engine="tflm").estimate(graph)
                eon = MemoryEstimator(engine="eon").estimate(graph)
                out[task, precision] = {
                    "ram_delta_kb": tflm.ram_kb - eon.ram_kb,
                    "metadata_kb": (tflm.runtime_ram_bytes - eon.runtime_ram_bytes) / 1024,
                    "arena_kb": (tflm.arena_bytes - eon.arena_bytes) / 1024,
                    "flash_delta_kb": tflm.flash_kb - eon.flash_kb,
                    "interpreter_code_kb": (
                        TFLM_INTERPRETER_CODE + TFLM_RESOLVER_CODE + TFLM_FLATBUFFER_PARSER
                    ) / 1024,
                }
        return out

    result = benchmark(decompose)
    for (task, precision), r in result.items():
        # The RAM delta is exactly metadata/slack plus the fused-step arena.
        assert abs(r["ram_delta_kb"] - r["metadata_kb"] - r["arena_kb"]) < 0.01
        # The flash delta is dominated by interpreter + parser code.
        assert r["flash_delta_kb"] >= r["interpreter_code_kb"] * 0.8
    for precision in ("fp", "int8"):
        assert result["kws", precision]["arena_kb"] == 0  # nothing to fuse
        assert result["ic", precision]["arena_kb"] > 0  # conv+pool steps
    for task in TASKS:
        # Float RAM delta > int8 RAM delta (slack and arena scale with it).
        assert result[task, "fp"]["ram_delta_kb"] > result[task, "int8"]["ram_delta_kb"]

    lines = ["Ablation — EON savings decomposition (paper-scale)"]
    for (task, precision), r in result.items():
        lines.append(
            f"  {task:<4}{precision:<5} RAM saved {r['ram_delta_kb']:6.1f} kB "
            f"(metadata+slack {r['metadata_kb']:6.1f}, step arena {r['arena_kb']:6.1f}) | "
            f"flash saved {r['flash_delta_kb']:6.1f} kB "
            f"(interpreter+parser {r['interpreter_code_kb']:6.1f})"
        )
    text = "\n".join(lines)
    save_result("ablation_eon", text)
    print("\n" + text)
