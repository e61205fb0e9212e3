"""rescale-lab: integer-only inference with dyadic output rescalers.

The library covers the full loop around the output-rescaling stage of
int8 inference: constructing k-bit dyadic multipliers from binary64
scales, running an integer-only engine with those multipliers, modeling
exactly how much error the rescaling stage injects, and recovering lost
accuracy with a fine-tuning pass that trains through a bit-exact
float emulation of the integer path.
"""

from __future__ import annotations

from .errors import (
    CalibrationError,
    DomainError,
    FormatError,
    OverflowEnvelopeError,
    RescaleLabError,
    RescalerUnderflow,
    ShapeError,
)
from .qcore import (
    DyadicRescaler,
    FloatDecomposition,
    QuantParams,
    decompose_float,
    multiply_by_quantized_multiplier,
    quantize_rescaler,
    shift_budget,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "DomainError",
    "DyadicRescaler",
    "FloatDecomposition",
    "FormatError",
    "OverflowEnvelopeError",
    "QuantParams",
    "RescaleLabError",
    "RescalerUnderflow",
    "ShapeError",
    "decompose_float",
    "multiply_by_quantized_multiplier",
    "quantize_rescaler",
    "shift_budget",
]
