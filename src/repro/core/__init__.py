"""The platform core: projects, impulses, jobs, collaboration, API.

This is the paper's primary contribution — the end-to-end MLOps workflow of
Figure 1: collect data -> design an impulse (input + DSP + learn blocks) ->
train -> evaluate -> deploy, with project versioning, team collaboration
and a programmatic API on top.
"""

from repro.core.impulse import Impulse, TimeSeriesInput, ImageInput
from repro.core.learn_blocks import (
    AnomalyBlock,
    ClassificationBlock,
    LearnBlock,
    TransferLearningBlock,
)
from repro.core.project import Project
from repro.core.jobs import (
    Job,
    JobCancelled,
    JobExecutor,
    UnknownJobError,
)
from repro.core.registry import Organization, Platform, User

__all__ = [
    "Impulse",
    "TimeSeriesInput",
    "ImageInput",
    "LearnBlock",
    "ClassificationBlock",
    "AnomalyBlock",
    "TransferLearningBlock",
    "Project",
    "Job",
    "JobCancelled",
    "JobExecutor",
    "UnknownJobError",
    "Platform",
    "Organization",
    "User",
]
