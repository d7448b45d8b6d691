"""repro.compress: int4 packing, mixed-precision PTQ, structured
pruning, and the joint Pareto search (an EON Tuner sweep over a
CompressionSpace)."""

import threading

import numpy as np
import pytest

from repro.analysis import verify_graph
from repro.automl import (
    CompressionSpace,
    EonTuner,
    SearchSpace,
    TunerTrial,
    pareto_front,
)
from repro.compress import (
    UnsupportedPruning,
    apply_compression,
    prunable_layers,
    prune_graph,
    split_spec,
)
from repro.compress.prune import channel_norms, keep_mask, weighted_ops
from repro.graph import graph_from_bytes, graph_to_bytes, sequential_to_graph
from repro.graph.ops import pack_int4, unpack_int4
from repro.quantize import quantize_graph
from repro.runtime import run_graph
from repro.runtime.executor import dequantize_output

RNG = np.random.default_rng(0)


# -- int4 packing -------------------------------------------------------------


def test_pack_unpack_int4_round_trip():
    values = np.arange(-8, 8, dtype=np.int8)  # every nibble value
    packed = pack_int4(values)
    assert packed.dtype == np.uint8 and len(packed) == 8
    assert np.array_equal(unpack_int4(packed, values.shape), values)


def test_pack_int4_odd_length_round_trip():
    values = np.array([-8, 7, 3], dtype=np.int8)
    packed = pack_int4(values)
    assert len(packed) == 2  # ceil(3 / 2)
    assert np.array_equal(unpack_int4(packed, values.shape), values)


def test_pack_int4_rejects_out_of_range():
    with pytest.raises(ValueError, match="\\[-8, 7\\]"):
        pack_int4(np.array([8], dtype=np.int8))
    with pytest.raises(ValueError, match="\\[-8, 7\\]"):
        pack_int4(np.array([-9], dtype=np.int8))


def test_int4_tensor_size_is_half_byte_per_element():
    from repro.graph.ops import GTensor

    t = GTensor("w", (3, 5), "int4")
    assert t.size_bytes == 8  # ceil(15 / 2)


# -- mixed-precision quantization ---------------------------------------------


def _mixed_map(graph, pattern):
    """Cycle ``pattern`` over the graph's weighted layers."""
    n = len(weighted_ops(graph))
    return {i: pattern[i % len(pattern)] for i in range(n)}


def test_uniform_int8_map_is_bit_identical_to_legacy(
    tiny_graphs, tiny_classification_problem
):
    """No map, an empty map and an explicit all-int8 map are the same
    request: compression is strictly opt-in."""
    float_graph, int8_graph = tiny_graphs
    x, _ = tiny_classification_problem
    n = len(weighted_ops(float_graph))
    for pmap in (None, {}, {i: "int8" for i in range(n)}, {n - 1: "int8"}):
        again = quantize_graph(float_graph, x[:64], precision_map=pmap)
        assert again.name.endswith("_int8")
        assert graph_to_bytes(again) == graph_to_bytes(int8_graph)


def test_mixed_graph_verifies_and_serializes(
    tiny_graphs, tiny_classification_problem
):
    float_graph, _ = tiny_graphs
    x, _ = tiny_classification_problem
    mixed = quantize_graph(
        float_graph, x[:64], precision_map=_mixed_map(float_graph, ["int4", "int8", "f32"])
    )
    report = verify_graph(mixed)
    assert report.ok, report.format()
    assert {t.dtype for t in mixed.tensors} >= {"int4", "int8", "float32"}
    round_tripped = graph_from_bytes(graph_to_bytes(mixed))
    assert graph_to_bytes(round_tripped) == graph_to_bytes(mixed)


def test_mixed_graph_inserts_quantize_boundaries(
    tiny_graphs, tiny_classification_problem
):
    """An f32 island inside a quantized graph needs DEQUANTIZE on the
    way in and QUANTIZE on the way out."""
    float_graph, _ = tiny_graphs
    x, _ = tiny_classification_problem
    pmap = _mixed_map(float_graph, ["int8"])
    pmap[1] = "f32"  # one float island mid-graph
    mixed = quantize_graph(float_graph, x[:64], precision_map=pmap)
    opcodes = [op.opcode for op in mixed.ops]
    assert "DEQUANTIZE" in opcodes and "QUANTIZE" in opcodes
    assert verify_graph(mixed).ok


def test_mixed_graph_matches_float_closely(
    trained_tiny_model, tiny_graphs, tiny_classification_problem
):
    """int4/int8 mixed inference tracks the float model on a trained
    network (agreement, not bit-equality — int4 weights are coarse)."""
    float_graph, _ = tiny_graphs
    x, y = tiny_classification_problem
    mixed = quantize_graph(
        float_graph, x[:64], precision_map=_mixed_map(float_graph, ["int8", "int4"])
    )
    float_pred = run_graph(float_graph, x[:96]).argmax(axis=-1)
    mixed_probs = dequantize_output(mixed, run_graph(mixed, x[:96]))
    agreement = float(
        (mixed_probs.argmax(axis=-1) == float_pred).mean()
    )
    assert agreement >= 0.9


def test_int4_weights_shrink_serialized_model(
    tiny_graphs, tiny_classification_problem
):
    float_graph, int8_graph = tiny_graphs
    x, _ = tiny_classification_problem
    all_int4 = quantize_graph(
        float_graph, x[:64], precision_map=_mixed_map(float_graph, ["int4"])
    )
    assert len(graph_to_bytes(all_int4)) < len(graph_to_bytes(int8_graph))


def test_precision_map_validation(tiny_graphs, tiny_classification_problem):
    float_graph, _ = tiny_graphs
    x, _ = tiny_classification_problem
    with pytest.raises(ValueError, match="precision"):
        quantize_graph(float_graph, x[:8], precision_map={0: "int2"})
    n = len(weighted_ops(float_graph))
    with pytest.raises(ValueError, match="weighted"):
        quantize_graph(float_graph, x[:8], precision_map={n: "int4"})


def test_int4_out_of_range_values_are_G025(
    tiny_graphs, tiny_classification_problem
):
    from repro.graph.ops import GTensor

    float_graph, _ = tiny_graphs
    x, _ = tiny_classification_problem
    mixed = quantize_graph(
        float_graph, x[:8], precision_map=_mixed_map(float_graph, ["int4"])
    )
    wid = mixed.ops[weighted_ops(mixed)[0]].inputs[1]
    w = mixed.tensors[wid]
    bad = w.data.copy()
    bad.flat[0] = 9  # unpackable
    mixed.tensors[wid] = GTensor(w.name, w.shape, "int4", data=bad, quant=w.quant)
    assert "G025" in verify_graph(mixed).codes()


def test_int4_on_activation_is_G026(tiny_graphs, tiny_classification_problem):
    from repro.graph.ops import GTensor

    float_graph, _ = tiny_graphs
    x, _ = tiny_classification_problem
    mixed = quantize_graph(
        float_graph, x[:8], precision_map=_mixed_map(float_graph, ["int4"])
    )
    oid = mixed.ops[weighted_ops(mixed)[0]].outputs[0]
    t = mixed.tensors[oid]
    mixed.tensors[oid] = GTensor(t.name, t.shape, "int4", quant=t.quant)
    assert "G026" in verify_graph(mixed).codes()


# -- quantize edge cases ------------------------------------------------------


def test_zero_variance_weight_channel_quantizes_cleanly():
    """An all-zero output channel must hit the scale floor, not divide
    by zero — for int8 and int4 alike."""
    from repro.nn.architectures import conv1d_stack

    model = conv1d_stack((16, 4), 3, n_layers=2, first_filters=8,
                         last_filters=8, seed=0)
    graph = sequential_to_graph(model, "dead_channel")
    oi = weighted_ops(graph)[0]
    wid = graph.ops[oi].inputs[1]
    graph.tensors[wid].data[..., 0] = 0.0  # kill channel 0
    calib = RNG.standard_normal((8, 16, 4)).astype(np.float32)
    for pmap in (None, {0: "int4", 1: "int8"}):
        q = quantize_graph(graph, calib, precision_map=pmap)
        report = verify_graph(q)
        assert report.ok, report.format()
        out = run_graph(q, calib[:2])
        assert np.isfinite(dequantize_output(q, out)).all()


def test_single_sample_calibration(tiny_graphs, tiny_classification_problem):
    float_graph, _ = tiny_graphs
    x, _ = tiny_classification_problem
    q = quantize_graph(float_graph, x[:1],
                       precision_map=_mixed_map(float_graph, ["int8", "int4"]))
    assert verify_graph(q).ok
    assert np.isfinite(
        dequantize_output(q, run_graph(q, x[:4]))
    ).all()


def test_corrupted_per_channel_scales_are_G024_not_a_crash(
    tiny_graphs, tiny_classification_problem
):
    """A qparams length mismatch must surface as a verifier finding, not
    a kernel broadcast error."""
    from repro.graph.ops import GTensor, QuantParams

    float_graph, _ = tiny_graphs
    x, _ = tiny_classification_problem
    q = quantize_graph(float_graph, x[:8])
    wid = q.ops[weighted_ops(q)[0]].inputs[1]
    w = q.tensors[wid]
    q.tensors[wid] = GTensor(
        w.name, w.shape, w.dtype, data=w.data,
        quant=QuantParams(scale=np.atleast_1d(w.quant.scale)[:1][:1],
                          zero_point=0, per_channel=True),
    )
    assert "G024" in verify_graph(q).codes()


# -- structured pruning -------------------------------------------------------


def test_keep_mask_count_and_determinism():
    norms = np.array([0.5, 3.0, 1.0, 2.0, 0.1])
    mask = keep_mask(norms, sparsity=0.5)
    assert mask.sum() == 3  # ceil(0.5 * 5)
    assert list(np.flatnonzero(mask)) == [1, 2, 3]  # top norms, stable ties
    assert keep_mask(norms, sparsity=0.99).sum() == 1  # min_channels floor


def _small_conv1d_graph():
    from repro.nn.architectures import conv1d_stack

    model = conv1d_stack((16, 4), 3, n_layers=2, first_filters=8,
                         last_filters=16, seed=0)
    return sequential_to_graph(model, "prunee")


def test_prune_physically_shrinks_and_verifies():
    graph = _small_conv1d_graph()
    pruned = prune_graph(graph, {0: 0.5, 1: 0.25})
    report = verify_graph(pruned)
    assert report.ok, report.format()
    # Channel counts really shrank (weights and activations both).
    w0 = pruned.tensors[pruned.ops[weighted_ops(pruned)[0]].inputs[1]]
    assert w0.shape[-1] == 4  # 8 * (1 - 0.5)
    assert len(graph_to_bytes(pruned)) < len(graph_to_bytes(graph))
    # Output layer (class count) is untouched and the graph still runs.
    x = RNG.standard_normal((4, 16, 4)).astype(np.float32)
    out = run_graph(pruned, x)
    assert out.shape == run_graph(graph, x).shape


def test_prune_keeps_largest_norm_channels():
    graph = _small_conv1d_graph()
    norms = channel_norms(graph, 0)
    pruned = prune_graph(graph, {0: 0.5})
    kept = keep_mask(norms, 0.5)
    w0 = graph.tensors[graph.ops[weighted_ops(graph)[0]].inputs[1]].data
    w0_pruned = pruned.tensors[pruned.ops[weighted_ops(pruned)[0]].inputs[1]].data
    assert np.array_equal(w0_pruned, w0[..., kept])


def test_prune_zero_sparsity_is_a_no_op():
    graph = _small_conv1d_graph()
    pruned = prune_graph(graph, {0: 0.0})
    assert graph_to_bytes(pruned) == graph_to_bytes(graph)


def test_prune_through_reshape_flatten():
    from repro.nn.architectures import cifar_cnn

    graph = sequential_to_graph(cifar_cnn((16, 16, 3), 4, base_filters=8), "img")
    layers = prunable_layers(graph)
    assert layers  # convs ahead of the flatten are safe
    pruned = prune_graph(graph, {layers[-1]: 0.5})
    report = verify_graph(pruned)
    assert report.ok, report.format()
    x = RNG.standard_normal((2, 16, 16, 3)).astype(np.float32)
    assert run_graph(pruned, x).shape == (2, 4)


def test_prune_rejects_depthwise_and_classifier(tiny_graphs):
    float_graph, _ = tiny_graphs  # ds_cnn: dw convs + final dense
    ops = weighted_ops(float_graph)
    dw = next(
        i for i, oi in enumerate(ops)
        if float_graph.ops[oi].opcode == "DEPTHWISE_CONV_2D"
    )
    with pytest.raises(UnsupportedPruning, match="depthwise"):
        prune_graph(float_graph, {dw: 0.5})
    with pytest.raises(UnsupportedPruning, match="output"):
        prune_graph(float_graph, {len(ops) - 1: 0.5})


def test_prune_rejects_residual_add_masks():
    from repro.nn.architectures import mobilenet_v2

    graph = sequential_to_graph(mobilenet_v2((16, 16, 1), 3, alpha=0.35), "mnv2")
    safe = set(prunable_layers(graph))
    ops = weighted_ops(graph)
    unsafe = [
        i for i in range(len(ops) - 1)
        if i not in safe
        and graph.ops[ops[i]].opcode != "DEPTHWISE_CONV_2D"
    ]
    assert unsafe, "mobilenet_v2 should have residual-protected layers"
    with pytest.raises(UnsupportedPruning):
        prune_graph(graph, {unsafe[0]: 0.5})


def test_prune_validation_errors():
    graph = _small_conv1d_graph()
    with pytest.raises(UnsupportedPruning, match="weighted layer"):
        prune_graph(graph, {99: 0.5})
    with pytest.raises(UnsupportedPruning, match="not in"):
        prune_graph(graph, {0: 1.0})


def test_prunable_layers_excludes_depthwise_and_classifier(tiny_graphs):
    float_graph, _ = tiny_graphs
    ops = weighted_ops(float_graph)
    safe = prunable_layers(float_graph)
    assert safe  # pointwise convs prune fine
    assert len(ops) - 1 not in safe
    for i in safe:
        assert float_graph.ops[ops[i]].opcode != "DEPTHWISE_CONV_2D"


# -- compression specs --------------------------------------------------------


def test_split_spec_parses_flat_keys():
    precision, sparsity = split_spec({
        "compress.precision.0": "int4",
        "compress.precision.2": "f32",
        "compress.sparsity.1": 0.25,
    })
    assert precision == {0: "int4", 2: "f32"}
    assert sparsity == {1: 0.25}


def test_split_spec_rejects_bad_keys_and_values():
    with pytest.raises(ValueError, match="unrecognized"):
        split_spec({"compress.magic.0": 1})
    with pytest.raises(ValueError, match="precision"):
        split_spec({"compress.precision.0": "int2"})
    with pytest.raises(ValueError, match="sparsity"):
        split_spec({"compress.sparsity.0": 1.5})


def test_apply_compression_uniform_int8_is_bit_identical(
    tiny_graphs, tiny_classification_problem
):
    float_graph, int8_graph = tiny_graphs
    x, _ = tiny_classification_problem
    all_int8 = {
        f"compress.precision.{i}": "int8"
        for i in range(len(weighted_ops(float_graph)))
    }
    no_sparsity = {
        f"compress.sparsity.{i}": 0.0 for i in prunable_layers(float_graph)
    }
    for spec in ({}, all_int8, no_sparsity, {**all_int8, **no_sparsity}):
        got = apply_compression(float_graph, spec, x[:64])
        assert got.name.endswith("_int8")
        assert graph_to_bytes(got) == graph_to_bytes(int8_graph)


def test_apply_compression_prunes_then_quantizes(
    tiny_graphs, tiny_classification_problem
):
    float_graph, int8_graph = tiny_graphs
    x, _ = tiny_classification_problem
    layer = prunable_layers(float_graph)[0]
    spec = {
        f"compress.sparsity.{layer}": 0.5,
        "compress.precision.0": "int4",
    }
    got = apply_compression(float_graph, spec, x[:64])
    report = verify_graph(got)
    assert report.ok, report.format()
    assert len(graph_to_bytes(got)) < len(graph_to_bytes(int8_graph))
    probs = dequantize_output(got, run_graph(got, x[:8]))
    assert probs.shape == (8, 3) and np.isfinite(probs).all()


# -- Pareto front -------------------------------------------------------------


def _trial(acc, ram, flash, ms, trained=True):
    return TunerTrial(
        dsp_spec={}, model_spec={}, dsp_name="d", model_name="m",
        accuracy=acc, nn_ram_kb=ram, flash_kb=flash, nn_ms=ms,
        trained=trained,
    )


def test_pareto_front_drops_dominated_points():
    a = _trial(0.9, 10, 100, 5)
    b = _trial(0.8, 5, 50, 3)
    c = _trial(0.8, 12, 120, 6)   # dominated by both a and b
    d = _trial(0.7, 20, 200, 9, trained=False)  # untrained: excluded
    front = pareto_front([a, b, c, d])
    assert front == [a, b]  # sorted by accuracy, c and d gone


def test_pareto_front_keeps_incomparable_points():
    a = _trial(0.9, 10, 100, 5)
    b = _trial(0.95, 20, 100, 5)  # more accurate but bigger
    assert set(id(t) for t in pareto_front([a, b])) == {id(a), id(b)}


# -- CompressionSpace ---------------------------------------------------------


def _space():
    return CompressionSpace(
        dsp_spec={"type": "mfe"},
        model_spec={"architecture": "conv1d_stack"},
        precision_layers=[0, 1, 2],
        sparsity_layers=[0, 1],
    )


def test_compression_space_size_and_baseline():
    space = _space()
    assert space.size() == 3 ** 3 * 3 ** 2
    dsp, model = space.baseline()
    assert dsp == {"type": "mfe"}
    assert model["compress.precision.0"] == "int8"
    assert model["compress.sparsity.1"] == 0.0
    # A DSP x model space has no reference point.
    assert SearchSpace().baseline() is None


def test_compression_space_sampling_is_seeded():
    dsp1, m1 = _space().sample(rng=5)
    dsp2, m2 = _space().sample(rng=5)
    assert (dsp1, m1) == (dsp2, m2)
    assert m1["compress.precision.0"] in ("int8", "int4", "f32")
    assert m1["compress.sparsity.0"] in (0.0, 0.25, 0.5)
    assert m1["architecture"] == "conv1d_stack"


# -- joint search -------------------------------------------------------------


def _tuner(**kwargs):
    """A compression sweep: an EON Tuner whose space is the per-layer
    axes of one fixed (mfe, conv1d_stack) pair."""
    from repro.data.synthetic import keyword_dataset

    ds = keyword_dataset(keywords=["yes", "no"], samples_per_class=8,
                         sample_rate=4000, include_noise=False,
                         include_unknown=False, seed=0)
    label_map = {l: i for i, l in enumerate(ds.labels)}
    raw = np.stack([s.data for s in ds])
    labels = np.array([label_map[s.label] for s in ds])
    dsp = {"type": "mfe", "sample_rate": 4000, "frame_length": 0.05,
           "frame_stride": 0.025, "n_filters": 16}
    model = {"architecture": "conv1d_stack", "n_layers": 2,
             "first_filters": 8, "last_filters": 16}
    tuner = EonTuner(raw, labels, space=None, train_epochs=2, **kwargs)
    tuner.space = tuner.compression_space(dsp, model)
    return tuner


def test_search_serial_front_has_baseline_and_reductions():
    tuner = _tuner()
    trials = tuner.run(n_trials=4, seed=0)
    assert len(trials) == 4  # baseline counts as one
    assert tuner.baseline_trial() is trials[0]
    assert (trials[0].dsp_spec, trials[0].model_spec) == tuner.space.baseline()
    front = tuner.front()
    assert front, "Pareto front is empty"
    for row in front:
        assert set(row) >= {"spec", "accuracy", "ram_flash_kb",
                            "ram_flash_reduction", "accuracy_drop_pp"}
    base_rows = [r for r in front if r["baseline"]]
    for r in base_rows:
        assert r["ram_flash_reduction"] == pytest.approx(0.0)
        assert r["accuracy_drop_pp"] == pytest.approx(0.0)
    best = tuner.smallest_within(max_accuracy_drop_pp=200.0)
    assert best is None or best["accuracy_drop_pp"] <= 200.0


def test_baseline_is_planned_first_under_the_sweep_seed():
    """The uniform-int8 baseline is trial 0 of the plan, with the sweep's
    own seed; no sampled trial repeats it, and a later sweep on the same
    tuner does not plan it again."""
    tuner = _tuner()
    base = tuner.space.baseline()
    plan = tuner._sample_plan(6, seed=7)
    assert len(plan) == 6
    assert plan[0] == (*base, 7)
    assert all((d, m) != base for d, m, _ in plan[1:])

    tuner.run(n_trials=1, seed=0)
    assert tuner.trials[0] is tuner.baseline_trial()
    again = tuner._sample_plan(3, seed=0)
    assert len(again) == 2 and all((d, m) != base for d, m, _ in again)


def test_front_before_the_baseline_lands_has_no_reductions():
    """A live view ranks whatever trials completed; until the baseline is
    among them the rows carry no reductions and nothing is "best"."""
    tuner = _tuner()
    a, b = _trial(0.9, 10, 100, 5), _trial(0.8, 5, 50, 3)
    rows = tuner.front([a, b])
    assert [r["accuracy"] for r in rows] == [0.9, 0.8]
    assert not any(r["baseline"] or "ram_flash_reduction" in r for r in rows)
    assert tuner.smallest_within(trials=[a, b]) is None


# -- project + API surface ----------------------------------------------------


def _project_with_data(plat, pid):
    from repro.core import ClassificationBlock, Impulse, TimeSeriesInput
    from repro.data.dataset import Sample
    from repro.data.synthetic import keyword_dataset
    from repro.dsp import get_dsp_block

    project = plat.get_project(pid)
    ds = keyword_dataset(keywords=["yes", "no"], samples_per_class=8,
                         sample_rate=4000, include_noise=False,
                         include_unknown=False, seed=0)
    for s in ds:
        project.dataset.add(Sample(data=s.data, label=s.label),
                            category="train")
    mfe = get_dsp_block({"type": "mfe", "config": {
        "sample_rate": 4000, "frame_length": 0.05, "frame_stride": 0.025,
        "n_filters": 16}})
    project.set_impulse(Impulse(
        TimeSeriesInput(window_size_ms=1000, window_increase_ms=1000,
                        frequency_hz=4000),
        [mfe],
        ClassificationBlock(architecture="conv1d_stack",
                            arch_kwargs={"n_layers": 2, "first_filters": 8,
                                         "last_filters": 16}),
    ))
    return project


def test_compress_api_routes():
    import json

    from repro.core import Platform

    plat = Platform()
    plat.register_user("ops")
    gw = plat.gateway
    pid = gw.handle("POST", "/v1/projects", {"name": "cmp"},
                    user="ops")["data"]["project_id"]

    # No impulse yet: clean 409, not a stack trace.
    r = gw.handle("POST", f"/v1/projects/{pid}/compress", {}, user="ops")
    assert r["status"] == 409 and "impulse" in r["error"]

    _project_with_data(plat, pid)
    r = gw.handle("POST", f"/v1/projects/{pid}/compress",
                  {"n_trials": 3, "epochs": 2, "max_inflight": 2, "seed": 0},
                  user="ops")
    assert r["status"] == 200, r
    jid = r["data"]["job_id"]

    r = gw.handle("GET", f"/v1/projects/{pid}/compress/{jid}",
                  {"wait_s": 300.0}, user="ops")
    assert r["status"] == 200, r
    data = r["data"]
    assert data["job_status"] == "succeeded"
    assert data["trials_completed"] == data["trials_total"] == 3
    front = data["front"]
    assert front and any(row["baseline"] for row in front)
    assert all("ram_flash_reduction" in row for row in front)
    json.dumps(data)  # the whole payload is JSON-safe

    # A compression sweep is a tuner sweep: the tuner view ranks it too.
    r = gw.handle("GET", f"/v1/projects/{pid}/tuner/{jid}", {}, user="ops")
    assert r["status"] == 200 and len(r["data"]["leaderboard"]) == 3

    # A job that isn't a compression search 404s on the compress view.
    train_jid = gw.handle("POST", f"/v1/projects/{pid}/train",
                          {"epochs": 1}, user="ops")["data"]["job_id"]
    project = plat.get_project(pid)
    project.jobs.get(train_jid).wait(timeout=120.0)
    r = gw.handle("GET", f"/v1/projects/{pid}/compress/{train_jid}",
                  {}, user="ops")
    assert r["status"] == 404

    # A compression result has no deploy path: applying it is a 409 and
    # leaves the impulse, the trained model and the provenance alone.
    impulse, graph = project.impulse.to_dict(), project.float_graph
    assert graph is not None
    r = gw.handle("POST", f"/v1/projects/{pid}/tuner/{jid}/apply", {},
                  user="ops")
    assert r["status"] == 409 and "compression" in r["error"]
    assert project.impulse.to_dict() == impulse
    assert project.float_graph is graph
    assert project.applied_trial is None


def test_compress_refuses_a_multi_block_impulse():
    """A sweep prices and trains one DSP block's features, so an impulse
    with two blocks is refused, by the method and the route alike."""
    from repro.core import Impulse, Platform
    from repro.dsp import RawBlock

    plat = Platform()
    plat.register_user("ops")
    gw = plat.gateway
    pid = gw.handle("POST", "/v1/projects", {"name": "two"},
                    user="ops")["data"]["project_id"]
    project = _project_with_data(plat, pid)
    one = project.impulse
    project.set_impulse(Impulse(one.input_block, [*one.dsp_blocks, RawBlock()],
                                one.learn_block))
    with pytest.raises(RuntimeError, match="one DSP block"):
        project.compress_async(n_trials=2, train_epochs=1)
    r = gw.handle("POST", f"/v1/projects/{pid}/compress",
                  {"n_trials": 2, "epochs": 1}, user="ops")
    assert r["status"] == 409 and "one DSP block" in r["error"]
    assert project.tuners == {}


def test_search_process_placement_matches_serial_front():
    """The acceptance property: process-placement trials produce the
    same Pareto front as a serial sweep."""
    from repro.core.jobs import JobExecutor

    serial = _tuner()
    serial.run(n_trials=3, seed=0)

    proc = _tuner()
    job = proc.run_parallel(
        n_trials=3, executor=JobExecutor(max_workers=4),
        max_inflight=2, seed=0, placement="process",
    )
    job.wait(timeout=300.0)
    assert job.status == "succeeded", job.error
    assert job.result["committed"] is True
    assert proc.front() == serial.front()

    # A landed parallel sweep is final: it released its training windows,
    # so a later probe or sweep is refused by name (not with a shape
    # error) and the results stay served.  The serial sweep keeps its data.
    assert proc.trials[0] is proc.baseline_trial()
    dsp, model = proc.space.baseline()
    for again in (lambda: proc.evaluate_config(dsp, model, seed=0),
                  lambda: proc.run(n_trials=4, seed=1)):
        with pytest.raises(RuntimeError, match="released its training"):
            again()
    assert proc.front() == serial.front()
    assert proc.smallest_within() == serial.smallest_within()
    n_before = len(serial.trials)
    serial.evaluate_config(dsp, model, seed=0)
    assert len(serial.trials) == n_before + 1


def test_compress_request_thread_trains_nothing(monkeypatch):
    """POST /compress answers with every trial, the baseline included,
    queued as a child job: nothing trains in the request thread."""
    from repro.core import Platform
    from repro.nn import Trainer

    fit_threads = []
    fit = Trainer.fit

    def recording_fit(self, *args, **kwargs):
        fit_threads.append(threading.get_ident())
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "fit", recording_fit)
    plat = Platform()
    plat.register_user("ops")
    gw = plat.gateway
    pid = gw.handle("POST", "/v1/projects", {"name": "cmp"},
                    user="ops")["data"]["project_id"]
    _project_with_data(plat, pid)
    r = gw.handle("POST", f"/v1/projects/{pid}/compress",
                  {"n_trials": 2, "epochs": 1, "seed": 3}, user="ops")
    assert r["status"] == 200, r
    assert r["data"]["trials_total"] == 2
    job = plat.get_project(pid).jobs.get(r["data"]["job_id"]).wait(timeout=300.0)
    assert job.status == "succeeded", job.error
    assert len(fit_threads) == 2
    assert threading.get_ident() not in fit_threads

    tuner = plat.get_project(pid).tuners[job.job_id]
    assert tuner.trials[0] is tuner.baseline_trial()
    r = gw.handle("GET", f"/v1/projects/{pid}/compress/{job.job_id}", {},
                  user="ops")
    assert [row for row in r["data"]["front"] if row["baseline"]]

    # A DSP x model sweep is not a compression sweep.
    from repro.automl import kws_search_space

    tuner.space = kws_search_space()
    r = gw.handle("GET", f"/v1/projects/{pid}/compress/{job.job_id}", {},
                  user="ops")
    assert r["status"] == 404


def test_compress_constraints_screen_every_trial():
    """Constraint keys reach the sweep: under an impossible RAM budget
    every trial, the baseline included, is screened out untrained."""
    from repro.core import Platform

    plat = Platform()
    plat.register_user("ops")
    gw = plat.gateway
    pid = gw.handle("POST", "/v1/projects", {"name": "cmp"},
                    user="ops")["data"]["project_id"]
    _project_with_data(plat, pid)
    r = gw.handle("POST", f"/v1/projects/{pid}/compress",
                  {"n_trials": 2, "max_ram_kb": 0.001}, user="ops")
    assert r["status"] == 200, r
    jid = r["data"]["job_id"]
    r = gw.handle("GET", f"/v1/projects/{pid}/compress/{jid}",
                  {"wait_s": 120.0}, user="ops")
    data = r["data"]
    assert data["job_status"] == "succeeded"
    assert data["trials_completed"] == 2
    assert data["front"] == [] and data["best"] is None
    tuner = plat.get_project(pid).tuners[jid]
    assert tuner.constraints.max_ram_kb == 0.001
    assert not any(t.trained for t in tuner.trials)
