"""EON Tuner: search space, constraint screening, strategies."""

import numpy as np
import pytest

from repro.automl import (
    EonTuner,
    SearchSpace,
    TunerConstraints,
    kws_search_space,
)
from repro.utils.rng import ensure_rng


def _tiny_space():
    return SearchSpace(
        dsp_templates=[
            {"type": "mfe", "sample_rate": 4000, "frame_length": [0.02, 0.04],
             "frame_stride": [0.02], "n_filters": [16]},
        ],
        model_templates=[
            {"architecture": "conv1d_stack", "n_layers": [1, 2],
             "first_filters": [8], "last_filters": [8, 16]},
        ],
    )


def _tiny_tuner(constraints=None, **kwargs):
    from repro.data.synthetic import keyword_dataset

    ds = keyword_dataset(keywords=["yes", "no"], samples_per_class=8,
                         sample_rate=4000, include_noise=False,
                         include_unknown=False, seed=0)
    label_map = {l: i for i, l in enumerate(ds.labels)}
    raw = np.stack([s.data for s in ds])
    labels = np.array([label_map[s.label] for s in ds])
    return EonTuner(raw, labels, _tiny_space(),
                    constraints=constraints, train_epochs=3, **kwargs)


def test_space_expansion_and_sampling():
    space = _tiny_space()
    assert len(space.all_dsp()) == 2
    assert len(space.all_models()) == 4
    assert space.size() == 8
    rng = ensure_rng(0)
    dsp, model = space.sample(rng)
    assert dsp["type"] == "mfe"
    assert model["architecture"] == "conv1d_stack"
    assert len(space.enumerate()) == 8


def test_kws_space_matches_table3():
    space = kws_search_space()
    types = {t["type"] for t in space.dsp_templates}
    assert types == {"mfe", "mfcc"}
    archs = {t["architecture"] for t in space.model_templates}
    assert archs == {"conv1d_stack", "mobilenet_v2"}


def test_output_shape_is_the_transform_shape_over_the_kws_space():
    """``compression_space`` reads a DSP config's feature shape from
    ``output_shape`` instead of transforming a window."""
    from repro.automl.tuner import _dsp_block

    window = ensure_rng(0).standard_normal(8000).astype(np.float32)
    configs = kws_search_space(8000).all_dsp()
    assert len(configs) == 32
    for spec in configs:
        block = _dsp_block(spec)
        assert block.output_shape(window.shape) == block.transform(window).shape, spec


def test_spectral_trial_names_are_stable_across_runs():
    """A trial is named by its DSP block's ``repr``, which for a block
    without a short form of its own is ``describe()`` — never the
    object's address, which differs between runs and placements."""
    rng = ensure_rng(0)
    labels = np.arange(24) % 2
    raw = rng.standard_normal((24, 64, 3)).astype(np.float32)
    raw *= 1.0 + labels[:, None, None]
    dsp = {"type": "spectral-analysis", "sample_rate": 100, "fft_length": 32}
    model = {"architecture": "mlp", "hidden": [16]}
    boards = []
    for _ in range(2):
        tuner = EonTuner(raw, labels, space=None, train_epochs=2)
        tuner.space = tuner.compression_space(dsp, model)
        tuner.run(n_trials=3, seed=0)
        assert len(tuner.trials) == 3
        for trial in tuner.trials:
            assert " at 0x" not in trial.dsp_name
            assert trial.dsp_name.startswith("spectral-analysis(")
        assert " at 0x" not in tuner.results_table()
        boards.append(tuner.leaderboard())
    assert boards[0] == boards[1]


def test_tuner_run_and_results():
    tuner = _tiny_tuner()
    trials = tuner.run(n_trials=3, seed=0)
    assert len(trials) == 3
    trained = [t for t in trials if t.trained]
    assert trained, "no configuration trained"
    for t in trained:
        assert t.accuracy is not None
        assert t.nn_ms > 0 and t.flash_kb > 0 and t.ram_kb > 0
    table = tuner.results_table()
    assert "Preprocessing" in table and "conv1d" in table


def test_constraint_screen_skips_training():
    """Impossible budgets mean the heuristic screens everything out."""
    constraints = TunerConstraints(device_key="nano33ble", max_ram_kb=0.001,
                                  max_flash_kb=0.001)
    tuner = _tiny_tuner(constraints=constraints)
    trials = tuner.run(n_trials=3, seed=0)
    assert all(not t.trained for t in trials)
    assert all(not t.meets_constraints for t in trials)
    assert tuner.best_trial() is None
    assert "skipped" in tuner.results_table()


def test_best_trial_is_feasible_maximum():
    tuner = _tiny_tuner()
    tuner.run(n_trials=4, seed=1)
    best = tuner.best_trial()
    assert best is not None
    for t in tuner.trials:
        if t.trained and t.meets_constraints:
            assert best.accuracy >= t.accuracy


def test_duplicate_configs_not_revisited():
    tuner = _tiny_tuner()
    tuner.run(n_trials=8, seed=0)  # space size is 8
    keys = {(str(t.dsp_spec), str(t.model_spec)) for t in tuner.trials}
    assert len(keys) == len(tuner.trials)


def test_figure3_render():
    tuner = _tiny_tuner()
    tuner.run(n_trials=2, seed=0)
    text = tuner.render_figure3()
    assert "EON Tuner — target" in text
    assert "ram" in text and "flash" in text


def test_constraints_resolution_defaults():
    resolved = TunerConstraints(device_key="rp2040").resolved()
    assert resolved.max_ram_kb == pytest.approx((270_336 - 40_000) / 1024)
    assert resolved.max_flash_kb > 10_000  # 16 MB part


def test_constraints_budgets_follow_device_firmware_fields(monkeypatch):
    """Regression: firmware overheads were hard-coded (40 kB / 180 kB);
    they now live on the DeviceProfile, so a profile with a different
    firmware footprint resolves to matching budgets."""
    import dataclasses

    from repro.profile.devices import DEVICES, get_device

    lean = dataclasses.replace(
        get_device("nano33ble"), key="lean",
        firmware_ram_bytes=10_000, firmware_flash_bytes=50_000,
    )
    monkeypatch.setitem(DEVICES, "lean", lean)
    resolved = TunerConstraints(device_key="lean").resolved()
    assert resolved.max_ram_kb == pytest.approx((262_144 - 10_000) / 1024)
    assert resolved.max_flash_kb == pytest.approx((1_048_576 - 50_000) / 1024)


def test_constraints_firmware_exceeding_device_is_a_clear_error(monkeypatch):
    """A profile whose firmware reservation leaves no room for a model
    must fail loudly at resolution, not produce a negative budget."""
    import dataclasses

    from repro.profile.devices import DEVICES, get_device

    cramped = dataclasses.replace(
        get_device("nano33ble"), key="cramped", ram_bytes=32_000,
    )
    monkeypatch.setitem(DEVICES, "cramped", cramped)
    with pytest.raises(ValueError, match="firmware RAM.*no budget"):
        TunerConstraints(device_key="cramped").resolved()

    tight_flash = dataclasses.replace(
        get_device("nano33ble"), key="tight_flash", flash_bytes=100_000,
    )
    monkeypatch.setitem(DEVICES, "tight_flash", tight_flash)
    with pytest.raises(ValueError, match="firmware flash.*no budget"):
        TunerConstraints(device_key="tight_flash").resolved()
