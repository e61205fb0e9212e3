"""Exception types shared across the library."""

from __future__ import annotations


class RescaleLabError(Exception):
    """Base class for all library-specific errors."""


class DomainError(RescaleLabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class RescalerUnderflow(RescaleLabError):
    """A real multiplier is too small to encode within the shift budget.

    Scales this small almost always indicate broken calibration rather
    than a legitimate operating point.
    """


class ShapeError(RescaleLabError, ValueError):
    """Tensor shapes or quantization metadata do not line up."""


class FormatError(RescaleLabError):
    """A serialized model file is malformed or fails validation."""


class CalibrationError(RescaleLabError):
    """Calibration data is missing, empty, or produced invalid statistics."""


class OverflowEnvelopeError(RescaleLabError, OverflowError):
    """An intermediate value left the range the arithmetic contract covers."""
