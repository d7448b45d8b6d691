"""Shared utilities: deterministic RNG handling, unit formatting, and the
HTTP/1.1 head codec (:mod:`repro.utils.http1`) of the gateway and the SDK."""

from repro.utils.rng import ensure_rng
from repro.utils.units import human_bytes, human_ms

__all__ = ["ensure_rng", "human_bytes", "human_ms"]
