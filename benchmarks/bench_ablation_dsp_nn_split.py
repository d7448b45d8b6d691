"""Ablation: the DSP/NN budget split (Sec. 5.4 narrative).

Table 3's rows 3-4 show two ways to spend a budget: more DSP + smaller NN
(lower RAM/flash) versus less DSP + bigger NN (lower latency at similar
accuracy).  This bench builds both ends of that trade and checks the
resource trade-off points the right way.
"""

from conftest import save_result

from repro.dsp import MFEBlock
from repro.graph import sequential_to_graph
from repro.nn.architectures import conv1d_stack
from repro.profile import LatencyEstimator, MemoryEstimator, get_device


def test_ablation_dsp_nn_split(benchmark):
    device = get_device("nano33ble")
    raw_shape = (16000,)

    def build_and_price():
        # "More DSP": long frames, fewer of them, small NN.
        dsp_heavy_block = MFEBlock(
            sample_rate=16000, frame_length=0.05, frame_stride=0.025, n_filters=32
        )
        shape_d = dsp_heavy_block.output_shape(raw_shape)
        model_d = conv1d_stack(shape_d, 4, n_layers=2, first_filters=32,
                               last_filters=64, seed=0)
        # "More NN": short frames, many of them, bigger NN.
        nn_heavy_block = MFEBlock(
            sample_rate=16000, frame_length=0.02, frame_stride=0.01, n_filters=32
        )
        shape_n = nn_heavy_block.output_shape(raw_shape)
        model_n = conv1d_stack(shape_n, 4, n_layers=3, first_filters=32,
                               last_filters=128, seed=0)

        est = LatencyEstimator(device)
        out = {}
        for name, block, model in (
            ("more_dsp", dsp_heavy_block, model_d),
            ("more_nn", nn_heavy_block, model_n),
        ):
            graph = sequential_to_graph(model)
            mem = MemoryEstimator(engine="tflm").estimate(graph, (block,), raw_shape)
            out[name] = {
                "dsp_ms": est.dsp_ms(block, raw_shape),
                "nn_ms": est.inference_ms(graph),
                "ram_kb": mem.ram_kb,
                "flash_kb": mem.flash_kb,
            }
        return out

    r = benchmark(build_and_price)
    more_dsp, more_nn = r["more_dsp"], r["more_nn"]
    # The trade the paper describes: the more-NN config spends more of its
    # time/flash in the network; the more-DSP config is cheaper to store.
    assert more_nn["nn_ms"] > more_dsp["nn_ms"]
    assert more_nn["flash_kb"] > more_dsp["flash_kb"]
    assert more_dsp["dsp_ms"] / more_dsp["nn_ms"] > more_nn["dsp_ms"] / more_nn["nn_ms"]

    text = (
        "Ablation — DSP/NN budget split (KWS front-end, Nano 33 BLE Sense)\n"
        f"  more-DSP : dsp {more_dsp['dsp_ms']:.0f}ms nn {more_dsp['nn_ms']:.0f}ms "
        f"ram {more_dsp['ram_kb']:.0f}kB flash {more_dsp['flash_kb']:.0f}kB\n"
        f"  more-NN  : dsp {more_nn['dsp_ms']:.0f}ms nn {more_nn['nn_ms']:.0f}ms "
        f"ram {more_nn['ram_kb']:.0f}kB flash {more_nn['flash_kb']:.0f}kB"
    )
    save_result("ablation_dsp_nn_split", text)
    print("\n" + text)
