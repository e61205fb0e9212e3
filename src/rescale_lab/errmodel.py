"""Analytic model of the error introduced by dyadic rescaling.

The rescale stage replaces the real factor M with its k-bit dyadic
approximation M_q and rounds the shifted product.  Dequantizing both
paths gives the rescale error

    eps_r = s_y * a_q * (M_q - M) + s_y * delta_r

where delta_r is the rounding residual of the fixed-point multiply in
output-step units.  All decompositions here are computed with exact
rational arithmetic and returned as correctly rounded binary64, so the
identities hold exactly and the bound comparisons are monotone-safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .kernels import (
    QTensor,
    accumulator_blocks,
    accumulator_bound,
    layer_forward_int,
    quantize_images,
    window_bound,
)
from .model_io import layer_input_params, materialize_rescalers
from .qcore import (
    MAX_BITWIDTH,
    MIN_BITWIDTH,
    DyadicRescaler,
    multiply_by_quantized_multiplier,
    quantize_rescaler,
)


@dataclass(frozen=True)
class RescaleError:
    """Exact decomposition of the rescale error for one accumulator."""

    scale_mismatch: float  # s_y * a_q * (M_q - M)
    rounding: float  # s_y * delta_r
    delta_r: float  # integer result minus a_q * M_q, in output steps
    eps_r: float  # total: s_y * (integer result - a_q * M)


@dataclass(frozen=True)
class LayerErrorReport:
    """Per-channel rescale error bounds for one layer of a model."""

    layer_id: int
    kind: str
    k: int
    s_y: float
    m_real: np.ndarray  # per-channel real rescale factors
    m_quantized: np.ndarray  # per-channel dyadic values at width k
    mismatch: np.ndarray  # per-channel |M_q - M| (exact in binary64)
    max_abs_acc: np.ndarray  # per-channel peak |accumulator| over probes
    analytic_max_abs_acc: np.ndarray  # kernels.accumulator_bound over x - z
    mismatch_bound: np.ndarray  # |M_q - M| * s_y * max_abs_acc
    rounding_floor: float  # s_y / 2
    safe: np.ndarray  # mismatch_bound <= rounding_floor, exact comparison

    @property
    def all_safe(self) -> bool:
        return bool(np.all(self.safe))


def _exact_mismatch(r: DyadicRescaler) -> Fraction:
    """|M_q - M| as an exact rational."""
    return abs(Fraction(r.m, 1 << r.s) - Fraction(r.real_value))


def rescale_error_decompose(a_q: int, r: DyadicRescaler, s_y: float) -> RescaleError:
    """Split the rescale error of one accumulator into its two sources.

    The scale-mismatch term is ``s_y * a_q * (M_q - M)``, with ``M`` the
    rescaler's real value, and the rounding term is ``s_y * delta_r`` with
    ``delta_r`` the residual of the integer multiply against the exact
    product ``a_q * M_q``.  In the no-saturation regime ``delta_r`` lies in
    (-1/2, 1/2].  Every returned float is the correctly rounded value of the
    exact rational quantity.
    """
    a_q = int(a_q)
    m_q = Fraction(r.m, 1 << r.s)
    m_exact = Fraction(r.real_value)
    s_y_exact = Fraction(float(s_y))
    y_int = multiply_by_quantized_multiplier(a_q, r)
    delta = y_int - a_q * m_q
    mismatch = s_y_exact * a_q * (m_q - m_exact)
    rounding = s_y_exact * delta
    eps_r = s_y_exact * (y_int - a_q * m_exact)
    return RescaleError(
        scale_mismatch=float(mismatch),
        rounding=float(rounding),
        delta_r=float(delta),
        eps_r=float(eps_r),
    )


def rescale_error_bound(r: DyadicRescaler, s_y: float, max_abs_acc: int) -> float:
    """Worst-case |eps_r| over accumulators up to ``max_abs_acc``:
    ``|M_q - M| * s_y * max_abs_acc + s_y/2``, correctly rounded."""
    if max_abs_acc < 0:
        raise DomainError(f"max_abs_acc must be non-negative, got {max_abs_acc}")
    s_y_exact = Fraction(float(s_y))
    return float(_exact_mismatch(r) * s_y_exact * int(max_abs_acc) + s_y_exact / 2)


def min_safe_bitwidth(m_real: float, max_abs_acc: int) -> int:
    """Smallest width k in [MIN_BITWIDTH, MAX_BITWIDTH] whose rescaler keeps
    the scale-mismatch error within half an output step at ``max_abs_acc``.

    Returns MAX_BITWIDTH with a RuntimeWarning if no width is safe.
    """
    if max_abs_acc < 0:
        raise DomainError(f"max_abs_acc must be non-negative, got {max_abs_acc}")
    for k in range(MIN_BITWIDTH, MAX_BITWIDTH + 1):
        if _exact_mismatch(quantize_rescaler(m_real, k)) * int(max_abs_acc) <= Fraction(1, 2):
            return k
    warnings.warn(
        f"no rescaler width up to {MAX_BITWIDTH} bits is safe for M={m_real!r} at "
        f"max|acc|={max_abs_acc}",
        RuntimeWarning,
        stacklevel=2,
    )
    return MAX_BITWIDTH


# ---------------------------------------------------------------------------
# Per-layer reports
# ---------------------------------------------------------------------------


def layer_error_report(
    model,
    layer_id: int,
    probe_batches: Iterable[np.ndarray],
) -> LayerErrorReport:
    """Bound the rescale error of one layer from probe data, at the widths
    the model's rescalers carry.

    Probe batches are uint8 image batches; they are quantized with the
    model's input parameters, run through the integer engine up to the
    target layer, and the layer's pre-rescale values are reduced block by
    block (:func:`kernels.accumulator_blocks`).  The
    per-channel peak |accumulator| feeds the mismatch bound; the safe flag
    is an exact rational comparison against the half-step rounding floor.
    """
    if isinstance(probe_batches, np.ndarray):
        probe_batches = [probe_batches]
    if not 0 <= layer_id < len(model.layers):
        raise DomainError(f"layer id {layer_id} outside 0..{len(model.layers) - 1}")
    layer = model.layers[layer_id]
    if layer.kind == "flatten":
        raise DomainError("flatten has no rescale stage to analyze")

    channels = len(layer.rescalers)
    max_abs = np.zeros(channels, dtype=np.int64)
    saw_image = False
    for batch in probe_batches:
        if len(batch) == 0:
            continue
        saw_image = True
        x = QTensor(quantize_images(batch, model.input_params), model.input_params)
        for upstream in model.layers[:layer_id]:
            x = layer_forward_int(x, upstream)
        # Peak |acc| per channel from the int32 extremes of each block,
        # reduced over the images first (one long row each) and widened to
        # int64 after the reduction, so that |-2**31| does not wrap.
        for _, acc in accumulator_blocks(x, layer):
            rows = acc.reshape(acc.shape[0], -1)
            hi = rows.max(axis=0).reshape(-1, channels).max(axis=0)
            lo = rows.min(axis=0).reshape(-1, channels).min(axis=0)
            peak = np.maximum(hi.astype(np.int64), -lo.astype(np.int64))
            np.maximum(max_abs, peak, out=max_abs)
    if not saw_image:
        raise DomainError("probe set is empty")

    s_y = layer.output.scale
    rescalers = layer.rescalers
    m_real = np.array([r.real_value for r in rescalers])
    m_quant = np.array([r.quantized_value for r in rescalers])
    s_y_exact = Fraction(float(s_y))
    # |M_q - M| * peak per channel, in output steps, exactly.
    excess = [_exact_mismatch(r) * int(max_abs[c]) for c, r in enumerate(rescalers)]
    return LayerErrorReport(
        layer_id=layer_id,
        kind=layer.kind,
        k=rescalers[0].k,
        s_y=s_y,
        m_real=m_real,
        m_quantized=m_quant,
        mismatch=np.abs(m_quant - m_real),  # exact: M/2 <= M_q <= M
        max_abs_acc=max_abs,
        analytic_max_abs_acc=(
            np.full(channels, window_bound(layer.window)) if layer.kind == "avgpool"
            else accumulator_bound(layer.weights.data, layer.bias,
                                   layer_input_params(model, layer_id).zero_point)),
        mismatch_bound=np.array([float(e * s_y_exact) for e in excess]),
        rounding_floor=s_y / 2,
        safe=np.array([e <= Fraction(1, 2) for e in excess]),
    )


def model_error_report(
    model, probe_batches: Sequence[np.ndarray], k: int
) -> list[LayerErrorReport]:
    """Reports for every layer that has a rescale stage, at width ``k``."""
    model = materialize_rescalers(model, k)
    return [
        layer_error_report(model, i, probe_batches)
        for i, layer in enumerate(model.layers)
        if layer.kind != "flatten"
    ]
