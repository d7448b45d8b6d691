"""RAM / flash estimation — the model behind Table 4, and the one place
either engine's memory is modelled.

RAM(engine)  = arena + engine runtime overhead + allocator slack
Flash(engine) = serialized model + kernel code for the opcodes present
                (+ interpreter core, resolver and flatbuffer parser for TFLM)

The EON Compiler's savings come from the removals the paper describes
(Sec. 4.5): no interpreter core in flash, no flatbuffer parsing code, no
runtime tensor metadata in RAM, and an arena over the plan's steps
instead of the authored ops (docs/plan.md).  Allocator slack is
proportional to the arena (TFLM's allocator keeps temp buffers and
padding), which is why the paper's RAM delta is larger for float models
than int8 ones.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.dsp.base import DSPBlock
from repro.graph.graph import Graph
from repro.graph.ops import kernel_precision
from repro.graph.serialize import graph_to_bytes
from repro.profile.devices import DeviceProfile
from repro.runtime.arena import plan_arena
from repro.runtime.executor import compile_plan

#: approximate compiled kernel code sizes (bytes) per opcode and precision;
#: int8 kernels (CMSIS-NN-class) are larger than the reference float ones,
#: and int4 weighted kernels add an unpack-to-int8 preamble on top.
KERNEL_CODE_BYTES = {
    "CONV_2D": {"float32": 5200, "int8": 7800, "int4": 8400},
    "DEPTHWISE_CONV_2D": {"float32": 4800, "int8": 7200, "int4": 7800},
    "CONV_1D": {"float32": 3600, "int8": 5200, "int4": 5700},
    "FULLY_CONNECTED": {"float32": 1800, "int8": 2600, "int4": 3000},
    "MAX_POOL_2D": {"float32": 1200, "int8": 1400},
    "MAX_POOL_1D": {"float32": 900, "int8": 1100},
    "AVG_POOL_2D": {"float32": 1400, "int8": 1800},
    "GLOBAL_AVG_POOL_2D": {"float32": 700, "int8": 900},
    "GLOBAL_AVG_POOL_1D": {"float32": 600, "int8": 800},
    "RESHAPE": {"float32": 300, "int8": 300},
    "ADD": {"float32": 900, "int8": 1600},
    "SOFTMAX": {"float32": 1100, "int8": 2200},
    "QUANTIZE": {"float32": 450, "int8": 450},
    "DEQUANTIZE": {"float32": 450, "int8": 450},
    "TRANSPOSE": {"float32": 500, "int8": 500},
}


def kernel_variants(graph: Graph) -> set[tuple[str, str]]:
    """The distinct (opcode, precision) kernel bodies a graph links in
    (:func:`repro.graph.ops.kernel_precision`).  On uniform graphs this
    degenerates to one precision per opcode."""
    return {(op.opcode, kernel_precision(op, graph.tensors)) for op in graph.ops}

#: TFLM-only flash components (interpreter core, op resolver, flatbuffer
#: schema parsing) — the code EON codegen eliminates.
TFLM_INTERPRETER_CODE = 24_576
TFLM_RESOLVER_CODE = 1_536
TFLM_FLATBUFFER_PARSER = 6_144
#: EON emits a small amount of glue per plan step instead (one kernel
#: call each: a fused conv+pool is one step).
EON_GLUE_PER_STEP = 192

#: TFLM's runtime RAM: interpreter state (MicroInterpreter, allocator,
#: error reporter) + one struct per tensor + one per node; EON keeps no
#: runtime metadata, just a small static context.
TFLM_FIXED_RAM = 1536
TFLM_TENSOR_STRUCT = 64
TFLM_NODE_STRUCT = 32
EON_FIXED_RAM = 256

#: allocator slack as a fraction of the arena (temporary allocations,
#: per-allocation padding) — TFLM's biggest RAM overhead beyond metadata.
TFLM_ARENA_SLACK = 0.12
EON_ARENA_SLACK = 0.02


@dataclass(frozen=True)
class MemoryBreakdown:
    """Estimated memory for one (graph, engine) pair."""

    arena_bytes: int
    runtime_ram_bytes: int
    model_flash_bytes: int
    code_flash_bytes: int
    dsp_ram_bytes: int = 0

    @property
    def ram_bytes(self) -> int:
        return self.arena_bytes + self.runtime_ram_bytes + self.dsp_ram_bytes

    @property
    def flash_bytes(self) -> int:
        return self.model_flash_bytes + self.code_flash_bytes

    @property
    def ram_kb(self) -> float:
        return self.ram_bytes / 1024.0

    @property
    def flash_kb(self) -> float:
        return self.flash_bytes / 1024.0

    def fits(self, device: DeviceProfile) -> bool:
        """Whether the deployment fits ``device`` alongside its base
        firmware (the profile's ``firmware_flash_bytes`` /
        ``firmware_ram_bytes``).  Reproduces Table 2's '-' cells (model
        did not fit due to flash or RAM constraints)."""
        return (
            self.flash_bytes + device.firmware_flash_bytes <= device.flash_bytes
            and self.ram_bytes + device.firmware_ram_bytes <= device.ram_bytes
        )


class MemoryEstimator:
    """Prices a graph under either engine, plus its impulse's DSP buffers."""

    def __init__(self, engine: str = "tflm"):
        if engine not in ("tflm", "eon"):
            raise ValueError("engine must be 'tflm' or 'eon'")
        self.engine = engine

    def estimate(
        self,
        graph: Graph,
        dsp_blocks: Sequence[DSPBlock] = (),
        raw_input_shape: tuple[int, ...] = (),
    ) -> MemoryBreakdown:
        """Memory of ``graph`` deployed behind ``dsp_blocks``.  The blocks
        run one after another over the raw window, so DSP RAM is the
        largest block's peak scratch (:meth:`DSPBlock.buffer_bytes`)."""
        kernel_code = sum(
            KERNEL_CODE_BYTES[opcode][prec] for opcode, prec in kernel_variants(graph)
        )
        if self.engine == "tflm":
            arena = plan_arena(graph).total_bytes
            runtime_ram = int(
                TFLM_FIXED_RAM + TFLM_TENSOR_STRUCT * len(graph.tensors)
                + TFLM_NODE_STRUCT * len(graph.ops) + TFLM_ARENA_SLACK * arena
            )
            code = (TFLM_INTERPRETER_CODE + TFLM_RESOLVER_CODE
                    + TFLM_FLATBUFFER_PARSER + kernel_code)
        else:
            plan = compile_plan(graph)
            arena = plan.arena.total_bytes
            runtime_ram = int(EON_FIXED_RAM + EON_ARENA_SLACK * arena)
            code = EON_GLUE_PER_STEP * len(plan.steps) + kernel_code

        dsp_ram = max((b.buffer_bytes(raw_input_shape) for b in dsp_blocks), default=0)
        return MemoryBreakdown(
            arena_bytes=arena,
            runtime_ram_bytes=runtime_ram,
            model_flash_bytes=len(graph_to_bytes(graph)),
            code_flash_bytes=code,
            dsp_ram_bytes=dsp_ram,
        )
