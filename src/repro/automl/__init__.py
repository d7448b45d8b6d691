"""AutoML — the EON Tuner (paper Sec. 4.7, Table 3, Figure 3).

Searches the joint DSP-preprocessing x model-architecture space under
device resource constraints.  The algorithm is the shipping one: random
search with a resource-heuristic screen (Hyperband and surrogate-model
search are the paper's "future work" and are not implemented here).
"""

from repro.automl.space import CompressionSpace, SearchSpace, kws_search_space
from repro.automl.tuner import EonTuner, TunerConstraints, TunerTrial, pareto_front

__all__ = [
    "CompressionSpace",
    "SearchSpace",
    "kws_search_space",
    "EonTuner",
    "TunerConstraints",
    "TunerTrial",
    "pareto_front",
]
