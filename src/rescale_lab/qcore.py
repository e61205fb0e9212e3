"""Fixed-point quantization core: each formula of the int8 scheme, once.

Reals map to int8 as ``real = S * (q - Z)``, rounded by :func:`round_half_up`,
the only float rounding.  Output channel c of a weighted layer has the bias
scale ``S_x * S_w,c`` of :func:`bias_scales` and the real factor
``M_c = S_x * S_w,c / S_y`` of :func:`rescale_factors`, which the quantizer
and the validator share.  Integer-only inference replaces each ``M`` in
``(0, 1]`` with a dyadic approximation ``M_q = m * 2**-s``, where ``m`` is a
k-bit unsigned multiplicand with a forced leading one bit and ``s`` is a
right-shift amount.  Applying ``M_q`` to a 32-bit accumulator then needs one
widening multiply, one add, and one arithmetic shift.  This module builds
those approximations from the IEEE-754 binary64 bit fields and applies them
with round-half-up (toward +inf) semantics.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RescalerUnderflow

INT8_MIN = -128
INT8_MAX = 127
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

MIN_BITWIDTH = 2
MAX_BITWIDTH = 32


def shift_budget(k: int) -> int:
    """Largest shift a k-bit rescaler may use: 32-bit accumulators can be
    shifted right by at most ``32 + k - 8`` before every input maps to zero."""
    return 32 + k - 8


def round_half_up(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise round-half-up toward +inf, ``floor(v + 0.5)`` in binary64:
    the engine's convention.  Returns float64: a new array, or ``out`` (a
    float64 array of the values' shape, which may be ``values`` itself)
    rounded in place."""
    if out is None:
        return np.floor(np.asarray(values, dtype=np.float64) + 0.5)
    np.add(values, 0.5, out=out)
    return np.floor(out, out=out)


def bias_scales(in_scale: float, weight_scales: np.ndarray) -> np.ndarray:
    """The accumulator scales ``S_x * S_w,c`` of a weighted layer, one per
    output channel: the scale of its int32 biases."""
    return in_scale * np.asarray(weight_scales, dtype=np.float64)


def rescale_factors(in_scale: float, weight_scales: np.ndarray,
                    out_scale: float) -> list[float]:
    """The real factors ``M_c = S_x * S_w,c / S_y`` of a weighted layer, one
    per output channel."""
    return [float(s) / out_scale for s in bias_scales(in_scale, weight_scales)]


@dataclass(frozen=True)
class QuantParams:
    """Affine int8 quantization parameters: ``real = scale * (q - zero_point)``."""

    scale: float
    zero_point: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise DomainError(f"scale must be finite and > 0, got {self.scale!r}")
        if self.scale < sys.float_info.min:
            raise DomainError(f"scale {self.scale!r} is subnormal")
        if not INT8_MIN <= self.zero_point <= INT8_MAX:
            raise DomainError(f"zero_point {self.zero_point} outside [-128, 127]")

    @property
    def is_symmetric(self) -> bool:
        return self.zero_point == 0


@dataclass(frozen=True)
class FloatDecomposition:
    """A normal binary64 value written as ``(1 + fraction) * 2**exponent``."""

    fraction: float
    exponent: int

    @property
    def value(self) -> float:
        return math.ldexp(1.0 + self.fraction, self.exponent)


@dataclass(frozen=True)
class DyadicRescaler:
    """A dyadic multiplier ``m * 2**-s`` standing in for a real ``M`` in (0, 1].

    ``m`` always keeps its leading bit set (``2**(k-1) <= m < 2**k``), so the
    approximation is exact to k significant bits: ``M_q <= M`` and
    ``(M - M_q) / M < 2**-(k-1)``.  A rescaler built through the warn-and-clamp
    underflow policy carries ``underflowed=True`` and waives those bounds.
    """

    m: int
    s: int
    k: int
    real_value: float
    underflowed: bool = False

    @property
    def quantized_value(self) -> float:
        """Exact value of ``m * 2**-s`` (both fields fit well under 53 bits)."""
        return math.ldexp(self.m, -self.s)

    def validate(self) -> None:
        check_bitwidth(self.k)
        if not 1 <= self.s <= shift_budget(self.k):
            raise DomainError(
                f"shift s={self.s} outside [1, {shift_budget(self.k)}] for k={self.k}"
            )
        if not 0.0 < self.real_value <= 1.0:
            raise DomainError(f"real multiplier {self.real_value!r} outside (0, 1]")
        if self.underflowed:
            if not 0 <= self.m < (1 << self.k):
                raise DomainError(f"multiplicand m={self.m} does not fit {self.k} bits")
            return
        if not (1 << (self.k - 1)) <= self.m < (1 << self.k):
            raise DomainError(
                f"multiplicand m={self.m} lacks the leading bit for k={self.k}"
            )
        if self.quantized_value > self.real_value:
            raise DomainError("quantized value exceeds the real multiplier")
        rel_err = (self.real_value - self.quantized_value) / self.real_value
        if not rel_err < 2.0 ** -(self.k - 1):
            raise DomainError(f"relative error {rel_err} out of bound for k={self.k}")


def decompose_float(value: float) -> FloatDecomposition:
    """Split a normal binary64 ``value`` in (0, 1] into mantissa and exponent.

    Returns ``FloatDecomposition(fraction, exponent)`` with
    ``(1 + fraction) * 2**exponent == value`` exactly, ``0 <= fraction < 1``
    and ``exponent <= 0``.
    """
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise DomainError(f"value {value!r} is not a finite number")
    if value <= 0.0 or value > 1.0:
        raise DomainError(f"value {value!r} outside (0, 1]")
    if value < sys.float_info.min:
        raise DomainError(f"value {value!r} is subnormal")
    mant, exp = math.frexp(value)  # mant in [0.5, 1), value == mant * 2**exp
    # Both steps are exact: 2*mant in [1, 2), and subtracting 1 is exact by
    # the Sterbenz lemma.
    return FloatDecomposition(fraction=2.0 * mant - 1.0, exponent=exp - 1)


def check_bitwidth(k: int) -> None:
    """Raise DomainError unless ``k`` is an int in [2, 32]."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"bit-width k must be an int, got {k!r}")
    if not MIN_BITWIDTH <= k <= MAX_BITWIDTH:
        raise DomainError(f"bit-width k={k} outside [{MIN_BITWIDTH}, {MAX_BITWIDTH}]")


def quantize_rescaler(value: float, k: int, *, on_underflow: str = "error") -> DyadicRescaler:
    """Approximate a real multiplier ``value`` in (0, 1] by ``m * 2**-s``.

    ``m`` is the leading 1 bit of ``value`` followed by its top ``k - 1``
    mantissa bits (bits beyond that are truncated, not rounded), which makes
    the result the largest k-bit leading-1 dyadic not exceeding ``value``.

    ``on_underflow`` selects the policy when the needed shift exceeds the
    budget ``32 + k - 8``: ``"error"`` raises :class:`RescalerUnderflow`,
    ``"clamp"`` emits a warning and returns a degraded rescaler whose
    multiplicand lost its leading bit (possibly all the way to zero).
    """
    check_bitwidth(k)
    if on_underflow not in ("error", "clamp"):
        raise DomainError(f"unknown underflow policy {on_underflow!r}")
    decomposed = decompose_float(value)
    # Exact: 1 + fraction has at most 53 significant bits, and scaling by
    # 2**(k-1) leaves them whole, so floor keeps the top k of them.
    m = math.floor(math.ldexp(1.0 + decomposed.fraction, k - 1))
    s = (k - 1) - decomposed.exponent
    budget = shift_budget(k)
    underflowed = s > budget
    if underflowed:
        if on_underflow == "error":
            raise RescalerUnderflow(
                f"multiplier {value!r} needs shift {s} > budget {budget} at k={k}"
            )
        warnings.warn(
            f"multiplier {value!r} underflows the shift budget at k={k}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        m >>= s - budget
        s = budget
    rescaler = DyadicRescaler(m=m, s=s, k=k, real_value=float(value),
                              underflowed=underflowed)
    rescaler.validate()
    return rescaler


def multiply_by_quantized_multiplier(x: int, rescaler: DyadicRescaler) -> int:
    """Apply ``m * 2**-s`` to a signed 32-bit value with round-half-up.

    Computes ``floor((x*m + 2**(s-1)) * 2**-s)``; exact halves round toward
    +inf for both signs.  The product ``x*m`` fits a signed 64-bit register
    (|x| < 2**31 and m < 2**32); the result is saturated to int32.
    """
    x = int(x)
    total = x * rescaler.m + (1 << (rescaler.s - 1))
    result = total >> rescaler.s  # arithmetic shift == floor division by 2**s
    return min(max(result, INT32_MIN), INT32_MAX)
