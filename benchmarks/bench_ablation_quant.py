"""Ablation: the quantization trade-off.

int8 costs a little accuracy (sometimes none — the paper notes IC *gains*
from the regularisation effect) and buys a large latency/model-size
reduction.  Measured on the trained KWS task + paper-scale cost model.
"""

import numpy as np
from conftest import save_result

from repro.graph import graph_to_bytes
from repro.profile import LatencyEstimator, get_device
from repro.runtime import EONModel, run_graph


def test_ablation_quantization_tradeoff(benchmark, kws_trained):
    bundle = kws_trained

    def measure():
        dev = get_device("nano33ble")
        est = LatencyEstimator(dev)
        return {
            "float_acc": bundle.float_accuracy,
            "int8_acc": bundle.int8_accuracy,
            "float_ms": est.inference_ms(bundle.float_graph),
            "int8_ms": est.inference_ms(bundle.int8_graph),
            "float_model_kb": len(graph_to_bytes(bundle.float_graph)) / 1024,
            "int8_model_kb": len(graph_to_bytes(bundle.int8_graph)) / 1024,
        }

    r = benchmark(measure)
    assert r["int8_ms"] < r["float_ms"] / 3, "int8 should be >3x faster on M4"
    assert r["int8_model_kb"] < r["float_model_kb"]
    # Weights specifically shrink ~4x (serialized file shrinks less: the
    # structural header is precision-independent).
    assert bundle.int8_graph.weight_bytes() < bundle.float_graph.weight_bytes() / 3
    assert r["int8_acc"] > r["float_acc"] - 0.15, "quantization accuracy cliff"

    # Numerical closeness of the quantized probabilities.
    float_probs = run_graph(bundle.float_graph, bundle.x_test[:32])
    int8_probs = EONModel(bundle.int8_graph).predict_proba(bundle.x_test[:32])
    max_err = float(np.abs(float_probs - int8_probs).max())
    assert max_err < 0.25, f"int8 probabilities far from float: {max_err}"

    text = (
        "Ablation — quantization trade-off (KWS, Nano 33 BLE Sense)\n"
        f"  accuracy: float {r['float_acc']:.3f} -> int8 {r['int8_acc']:.3f}\n"
        f"  latency : float {r['float_ms']:.1f} ms -> int8 {r['int8_ms']:.1f} ms\n"
        f"  model   : float {r['float_model_kb']:.1f} kB -> int8 {r['int8_model_kb']:.1f} kB\n"
        f"  max |p_float - p_int8| on holdout: {max_err:.3f}"
    )
    save_result("ablation_quant", text)
    print("\n" + text)
