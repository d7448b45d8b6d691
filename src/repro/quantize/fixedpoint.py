"""Fixed-point multiplier arithmetic for integer-only requantization.

A real-valued rescale factor ``M`` (for example ``in_scale * w_scale /
out_scale``) is represented as a Q31 mantissa plus a power-of-two exponent,
and applied to int32 accumulators with round-to-nearest — the same
construction TFLM's kernels use (via gemmlowp).  Everything is vectorised
over int64 so results are bit-deterministic across platforms.
"""

from __future__ import annotations

import math

import numpy as np


def quantize_multiplier(real: float) -> tuple[int, int]:
    """Decompose ``real`` into ``(mantissa_q31, exponent)``.

    ``real == mantissa_q31 / 2**31 * 2**exponent`` with mantissa in
    ``[2**30, 2**31)`` (or 0).  Raises for negative multipliers, which never
    occur for valid scale ratios.
    """
    if real < 0:
        raise ValueError("quantized multipliers must be non-negative")
    if real == 0.0:
        return 0, 0
    mant, exp = math.frexp(real)  # mant in [0.5, 1)
    q = int(round(mant * (1 << 31)))
    if q == (1 << 31):  # rounding overflowed the mantissa
        q //= 2
        exp += 1
    return q, exp


#: Largest total shift applied.  A product of an int32-range accumulator
#: and a mantissa below 2**31 is below 2**62 in magnitude, so from 63 on
#: every result rounds to 0 — which a shift by 63 already gives, while a
#: shift by 64 or more would overflow the rounding constant ``2**(s-1)``.
#: Post-training quantization emits such shifts: an all-zero output
#: channel gets a 1e-9 weight scale and an exponent near -36.
MAX_TOTAL_SHIFT = 63


def checked_mantissa(mantissa_q31) -> np.ndarray:
    """The Q31 mantissas as int64, rejected unless in ``[0, 2**31)``:
    a larger one would overflow ``acc * mantissa`` (a deserialized graph
    can carry any value)."""
    mant = np.asarray(mantissa_q31, dtype=np.int64)
    if np.any(mant < 0) or np.any(mant >= 1 << 31):
        raise ValueError("multiplier mantissa outside [0, 2**31); accumulator would overflow")
    return mant


def total_shift_of(exponent) -> np.ndarray:
    """``31 - exponent`` as int64, capped at :data:`MAX_TOTAL_SHIFT`;
    raises for a shift below 1 (an exponent that would need a left
    shift)."""
    total = 31 - np.asarray(exponent, dtype=np.int64)
    if np.any(total < 1):
        raise ValueError("multiplier exponent too large; accumulator would overflow")
    return np.minimum(total, MAX_TOTAL_SHIFT)


def multiply_by_quantized_multiplier(
    acc: np.ndarray, mantissa_q31, exponent
) -> np.ndarray:
    """Apply ``(mantissa, exponent)`` to int accumulators with rounding.

    ``acc`` is int64 (int32-range values); mantissa/exponent may be scalars
    or arrays broadcastable against ``acc`` (per-channel requantization).
    Computes ``round(acc * mantissa / 2**(31 - exponent))`` with
    round-half-away-from-zero, matching the reference kernels; the shift
    is capped at :data:`MAX_TOTAL_SHIFT`, which changes no result.
    """
    acc = np.asarray(acc, dtype=np.int64)
    mant = checked_mantissa(mantissa_q31)
    total_shift = total_shift_of(exponent)
    prod = acc * mant
    rounding = np.int64(1) << (total_shift - 1)
    # Round half away from zero, mirroring the positive formula for
    # negatives: ``(|prod| + half) >> shift`` then restore the sign.
    # (The previous ``prod - half + 1 >> shift`` trick over-rounds some
    # negative values by a full LSB, e.g. prod=-5, shift=2 gave -2
    # instead of -1.)
    magnitude = (np.abs(prod) + rounding) >> total_shift
    return np.where(prod >= 0, magnitude, -magnitude)
