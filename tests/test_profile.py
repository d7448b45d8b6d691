"""Profiler: device registry, latency and memory models."""

import dataclasses

import pytest

from repro.dsp import MFCCBlock, MFEBlock
from repro.profile import DEVICES, LatencyEstimator, MemoryEstimator, get_device


def test_device_registry():
    assert {"nano33ble", "esp_eye", "rp2040", "linux_x86"} <= set(DEVICES)
    with pytest.raises(KeyError):
        get_device("stm32h7")


def test_table1_specs():
    nano = get_device("nano33ble")
    assert nano.clock_hz == 64e6
    assert nano.flash_bytes == 1 << 20
    pico = get_device("rp2040")
    assert not pico.has_fpu  # software float is the point of that row


def test_int8_faster_than_float(tiny_graphs):
    float_graph, int8_graph = tiny_graphs
    for key in ("nano33ble", "esp_eye", "rp2040"):
        est = LatencyEstimator(get_device(key))
        assert est.inference_ms(int8_graph) < est.inference_ms(float_graph)


def test_quant_speedup_ordering(tiny_graphs):
    """M0+ (software float) gains more from int8 than the FPU'd ESP32."""
    float_graph, int8_graph = tiny_graphs

    def speedup(key):
        est = LatencyEstimator(get_device(key))
        return est.inference_ms(float_graph) / est.inference_ms(int8_graph)

    assert speedup("rp2040") > speedup("esp_eye")
    assert speedup("nano33ble") > speedup("esp_eye")  # CMSIS-NN effect


def test_latency_scales_with_clock(tiny_graphs):
    _, int8_graph = tiny_graphs
    slow = LatencyEstimator(get_device("nano33ble")).inference_ms(int8_graph)
    fast = LatencyEstimator(get_device("linux_x86")).inference_ms(int8_graph)
    assert fast < slow / 100


def test_dsp_latency_positive_and_scales():
    block_small = MFCCBlock(sample_rate=8000, n_filters=20, n_coefficients=10)
    block_big = MFCCBlock(sample_rate=8000, n_filters=40, n_coefficients=13)
    est = LatencyEstimator(get_device("nano33ble"))
    small = est.dsp_ms(block_small, (8000,))
    big = est.dsp_ms(block_big, (8000,))
    assert 0 < small < big


def test_end_to_end_breakdown(tiny_graphs):
    _, int8_graph = tiny_graphs
    block = MFCCBlock(sample_rate=8000)
    est = LatencyEstimator(get_device("nano33ble"))
    breakdown = est.end_to_end(int8_graph, (block,), (8000,))
    assert breakdown.dsp_ms == est.dsp_ms(block, (8000,))
    assert breakdown.total_ms == pytest.approx(
        breakdown.dsp_ms + breakdown.inference_ms + breakdown.overhead_ms
    )
    assert breakdown.overhead_ms > 0
    assert est.end_to_end(int8_graph, (), (8000,)).dsp_ms == 0.0


# -- memory --------------------------------------------------------------------


def test_memory_engine_ordering(tiny_graphs):
    for graph in tiny_graphs:
        tflm = MemoryEstimator(engine="tflm").estimate(graph)
        eon = MemoryEstimator(engine="eon").estimate(graph)
        assert eon.ram_bytes < tflm.ram_bytes
        assert eon.flash_bytes < tflm.flash_bytes
        # Model bytes identical — only runtime overheads differ.
        assert eon.model_flash_bytes == tflm.model_flash_bytes


def test_memory_int8_smaller(tiny_graphs):
    float_graph, int8_graph = tiny_graphs
    est = MemoryEstimator(engine="tflm")
    assert est.estimate(int8_graph).ram_bytes < est.estimate(float_graph).ram_bytes
    # Serialized model shrinks; weights specifically shrink ~4x (the header
    # amortises poorly on this tiny model, so the 4x check is on weights).
    assert (
        est.estimate(int8_graph).model_flash_bytes
        < est.estimate(float_graph).model_flash_bytes
    )
    assert int8_graph.weight_bytes() < 0.35 * float_graph.weight_bytes()


def test_fits_boundaries(tiny_graphs):
    _, int8_graph = tiny_graphs
    memory = MemoryEstimator(engine="eon").estimate(int8_graph)
    nano = get_device("nano33ble")
    assert memory.fits(nano)
    # An absurd firmware reservation must fail the fit.
    assert not memory.fits(dataclasses.replace(nano, firmware_flash_bytes=10**7))
    assert not memory.fits(dataclasses.replace(nano, firmware_ram_bytes=10**7))


def test_dsp_ram_is_the_largest_block_buffer(tiny_graphs):
    """The blocks run one after another, so their scratch is reused."""
    _, int8_graph = tiny_graphs
    small = MFEBlock(sample_rate=8000, n_filters=16)
    big = MFCCBlock(sample_rate=8000, n_filters=40, n_coefficients=13)
    small_bytes, big_bytes = small.buffer_bytes((8000,)), big.buffer_bytes((8000,))
    assert 0 < small_bytes < big_bytes
    est = MemoryEstimator(engine="eon")
    for blocks in ((small, big), (big, small)):
        assert est.estimate(int8_graph, blocks, (8000,)).dsp_ram_bytes == big_bytes
    assert est.estimate(int8_graph, (), (8000,)).dsp_ram_bytes == 0


def test_memory_rejects_unknown_engine():
    with pytest.raises(ValueError):
        MemoryEstimator(engine="tvm")
