"""Search-space definition for the EON Tuner.

A space is a list of DSP templates and model templates; each template is a
dict whose list-valued entries are swept.  ``sample`` draws one concrete
(dsp_spec, model_spec) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from repro.utils.rng import ensure_rng


def _expand(template: dict) -> list[dict]:
    """All concrete configs from one template (grid over list values)."""
    keys = list(template)
    pools = [v if isinstance(v, list) else [v] for v in (template[k] for k in keys)]
    return [dict(zip(keys, combo)) for combo in product(*pools)]


@dataclass
class SearchSpace:
    """Joint DSP x model space."""

    dsp_templates: list[dict] = field(default_factory=list)
    model_templates: list[dict] = field(default_factory=list)

    def all_dsp(self) -> list[dict]:
        out = []
        for template in self.dsp_templates:
            out.extend(_expand(template))
        return out

    def all_models(self) -> list[dict]:
        out = []
        for template in self.model_templates:
            out.extend(_expand(template))
        return out

    def size(self) -> int:
        return len(self.all_dsp()) * len(self.all_models())

    def sample(self, rng: np.random.Generator | int | None = None) -> tuple[dict, dict]:
        """Random-search draw (Bergstra et al., 2011)."""
        rng = ensure_rng(rng)
        dsp_all, model_all = self.all_dsp(), self.all_models()
        return (
            dict(dsp_all[int(rng.integers(len(dsp_all)))]),
            dict(model_all[int(rng.integers(len(model_all)))]),
        )

    def enumerate(self) -> list[tuple[dict, dict]]:
        return [(d, m) for d in self.all_dsp() for m in self.all_models()]

    def baseline(self) -> None:
        """A DSP x model sweep has no fixed reference point."""
        return None


@dataclass
class CompressionSpace:
    """Per-layer compression axes over one fixed (dsp, model) pair.

    Each weighted layer gets an independent precision axis and each
    prunable layer an independent sparsity axis; ``sample`` draws every
    axis separately, so the space's size is the *product* of the axes
    but a draw costs one rng call per axis — no grid materialization.
    Draws are flat ``compress.*`` keys merged into the model spec, the
    format :func:`repro.compress.apply_compression` consumes.
    """

    dsp_spec: dict
    model_spec: dict
    precision_layers: list[int] = field(default_factory=list)
    sparsity_layers: list[int] = field(default_factory=list)
    precisions: tuple = ("int8", "int4", "f32")
    sparsities: tuple = (0.0, 0.25, 0.5)

    def size(self) -> int:
        return (len(self.precisions) ** len(self.precision_layers)
                * len(self.sparsities) ** len(self.sparsity_layers))

    def baseline(self) -> tuple[dict, dict]:
        """The uniform-int8, unpruned reference configuration.

        Every precision key is ``"int8"`` and every sparsity 0, which
        quantizes to the plain uniform-int8 graph — the Pareto front's
        reduction figures are measured against this point.
        """
        model = dict(self.model_spec)
        for layer in self.precision_layers:
            model[f"compress.precision.{layer}"] = "int8"
        for layer in self.sparsity_layers:
            model[f"compress.sparsity.{layer}"] = 0.0
        return dict(self.dsp_spec), model

    def sample(self, rng: np.random.Generator | int | None = None) -> tuple[dict, dict]:
        rng = ensure_rng(rng)
        model = dict(self.model_spec)
        for layer in self.precision_layers:
            pick = int(rng.integers(len(self.precisions)))
            model[f"compress.precision.{layer}"] = str(self.precisions[pick])
        for layer in self.sparsity_layers:
            pick = int(rng.integers(len(self.sparsities)))
            model[f"compress.sparsity.{layer}"] = float(self.sparsities[pick])
        return dict(self.dsp_spec), model


def kws_search_space(sample_rate: int = 16000) -> SearchSpace:
    """The keyword-spotting space of Table 3: MFE/MFCC front-ends crossed
    with conv1d stacks and a MobileNetV2 option."""
    return SearchSpace(
        dsp_templates=[
            {
                "type": "mfe",
                "sample_rate": sample_rate,
                "frame_length": [0.02, 0.032, 0.05],
                "frame_stride": [0.01, 0.016, 0.02, 0.025],
                "n_filters": [32, 40],
            },
            {
                "type": "mfcc",
                "sample_rate": sample_rate,
                "frame_length": [0.02, 0.05],
                "frame_stride": [0.01, 0.025],
                "n_filters": [32, 40],
                "n_coefficients": [13],
            },
        ],
        model_templates=[
            {
                "architecture": "conv1d_stack",
                "n_layers": [2, 3, 4],
                "first_filters": [16, 32],
                "last_filters": [32, 64, 128, 256],
            },
            {
                "architecture": "mobilenet_v2",
                "alpha": [0.35],
            },
        ],
    )
