"""Experiment harnesses: fast integration checks of every table/figure
module (the heavy end-to-end runs live in benchmarks/)."""

import numpy as np
import pytest

from repro.experiments import figure2, table1, table2, table4, table5
from repro.experiments.tasks import TASKS, paper_scale_graphs
from repro.profile import MemoryEstimator


def test_table1_rows():
    rows = table1.run()
    assert [r["platform"] for r in rows] == [
        "Arduino Nano 33 BLE Sense", "ESP-EYE (ESP32)", "Raspberry Pi Pico (RP2040)",
    ]
    assert "Table 1" in table1.render(rows)


def test_paper_scale_graph_shapes():
    kws = paper_scale_graphs("kws")
    in_shape = kws.float_graph.tensors[kws.float_graph.input_id].shape
    assert in_shape == (49, 10)  # the DS-CNN MFCC spectrogram
    vww = paper_scale_graphs("vww")
    assert vww.raw_shape == (96, 96, 3)
    with pytest.raises(ValueError):
        paper_scale_graphs("nlp")


def test_paper_scale_macs_in_band():
    """MAC counts should be the right order of magnitude vs the real
    reference models (DS-CNN ~2.7M, 'simple CNN' ~2M)."""
    kws = paper_scale_graphs("kws").float_graph.total_macs()
    assert 1e6 < kws < 6e6
    ic = paper_scale_graphs("ic").float_graph.total_macs()
    assert 1e6 < ic < 6e6


def test_table2_shape(tiny_graphs):
    results = table2.run()
    checks = table2.shape_checks(results)
    assert all(checks.values()), checks
    text = table2.render(results)
    assert "Keyword Spotting" in text and "-" in text


def test_table2_kws_calibration_close():
    """The calibrated row (KWS) should be within ~25% of the paper."""
    results = table2.run()
    for device in ("nano33ble", "esp_eye", "rp2040"):
        for precision in ("float32", "int8"):
            paper_inf = table2.PAPER_TABLE2["kws"][device][precision][1]
            ours = results["kws"][device][precision]["inference_ms"]
            assert abs(ours - paper_inf) / paper_inf < 0.25, (
                device, precision, ours, paper_inf,
            )


def test_table4_memory_shape():
    results = table4.run(with_accuracy=False)
    checks = table4.shape_checks(results)
    assert all(checks.values()), checks
    text = table4.render(results)
    assert "FP (EON)" in text


def test_table4_preprocessing_ram_is_the_estimators():
    """The Preprocessing cell is the estimator's DSP RAM for the impulse,
    and a model row's RAM is what the estimator charges beside it."""
    results = table4.run(with_accuracy=False)
    for task in TASKS:
        spec = paper_scale_graphs(task)
        est = MemoryEstimator("eon").estimate(spec.int8_graph, (spec.dsp_block,), spec.raw_shape)
        assert est.dsp_ram_bytes > 0
        assert results[task]["dsp_ram_kb"] == est.dsp_ram_bytes / 1024.0
        assert results[task]["int8_eon"]["ram_kb"] == (est.ram_bytes - est.dsp_ram_bytes) / 1024.0


def test_table5_row_is_introspected():
    matrix = table5.run()
    assert table5.shape_checks(matrix)["matches_edge_impulse_row"]
    assert "This reproduction" in table5.render(matrix)


def test_figure2_dataflow():
    result = figure2.run()
    assert result["feature_shape"] == (99, 13)
    assert "mfcc" in result["dataflow"]
    assert "Classification" in result["dataflow"]
