"""DSP preprocessing blocks (paper Sec. 4.2).

Each block turns a raw sensor window into a feature tensor and reports the
operation counts and buffer sizes the profiler needs to estimate on-device
latency and RAM (paper Sec. 4.4).  Blocks are registered by name so impulses
can be (de)serialised and the EON Tuner can sweep over them.
"""

from repro.dsp.base import DSPBlock, OpCounts, extract_features, get_dsp_block, register_dsp_block
from repro.dsp.window import frame_signal, window_function
from repro.dsp.filterbank import mel_filterbank, hz_to_mel, mel_to_hz
from repro.dsp.mfe import MFEBlock
from repro.dsp.mfcc import MFCCBlock
from repro.dsp.spectral import SpectralAnalysisBlock
from repro.dsp.raw import RawBlock
from repro.dsp.image_block import ImageBlock
from repro.dsp.autotune import autotune_dsp
from repro.dsp.custom import CustomBlock, register_custom_transform

__all__ = [
    "DSPBlock",
    "OpCounts",
    "extract_features",
    "register_dsp_block",
    "get_dsp_block",
    "frame_signal",
    "window_function",
    "mel_filterbank",
    "hz_to_mel",
    "mel_to_hz",
    "MFEBlock",
    "MFCCBlock",
    "SpectralAnalysisBlock",
    "RawBlock",
    "ImageBlock",
    "autotune_dsp",
    "CustomBlock",
    "register_custom_transform",
]
