"""repro — a from-scratch reproduction of Edge Impulse (MLSys 2023).

An end-to-end TinyML MLOps platform: data ingestion and versioning, DSP
feature extraction, NumPy neural-network training, int8 quantization, TFLM
vs EON runtimes, device latency/memory profiling, EON Tuner AutoML,
performance calibration, active learning, anomaly detection, deployment
exports and a virtual device fleet.

Quickstart::

    from repro.core import Platform, Impulse, TimeSeriesInput, ClassificationBlock
    from repro.dsp import MFCCBlock
    from repro.data.synthetic import keyword_dataset

    platform = Platform()
    platform.register_user("you")
    project = platform.create_project("kws", owner="you")
    for s in keyword_dataset(samples_per_class=30, sample_rate=8000):
        project.dataset.add(s, category=s.category)
    project.set_impulse(Impulse(
        TimeSeriesInput(frequency_hz=8000),
        [MFCCBlock(sample_rate=8000)],
        ClassificationBlock(architecture="conv1d_stack"),
    ))
    project.train()
    print(project.test().render())
    artifact = project.deploy(target="cpp", engine="eon", precision="int8")
"""

__version__ = "1.0.0"

from repro.core import (  # noqa: F401
    ClassificationBlock,
    Impulse,
    ImageInput,
    Platform,
    Project,
    TimeSeriesInput,
)
