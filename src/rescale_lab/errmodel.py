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
    layer_accumulator,
    layer_forward_int,
    quantize_real,
    tap_axes,
)
from .qcore import (
    INT8_MAX,
    INT8_MIN,
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
    analytic_max_abs_acc: np.ndarray  # input-independent worst case
    mismatch_bound: np.ndarray  # |M_q - M| * s_y * max_abs_acc
    rounding_floor: float  # s_y / 2
    safe: np.ndarray  # mismatch_bound <= rounding_floor, exact comparison

    @property
    def all_safe(self) -> bool:
        return bool(np.all(self.safe))


def _exact_fraction(value) -> Fraction:
    return Fraction(float(value))


def rescale_error_decompose(
    a_q: int, m_real: float, r: DyadicRescaler, s_y: float
) -> RescaleError:
    """Split the rescale error of one accumulator into its two sources.

    The scale-mismatch term is ``s_y * a_q * (M_q - m_real)`` and the
    rounding term is ``s_y * delta_r`` with ``delta_r`` the residual of the
    integer multiply against the exact product ``a_q * M_q``.  In the
    no-saturation regime ``delta_r`` lies in (-1/2, 1/2].  Every returned
    float is the correctly rounded value of the exact rational quantity.
    """
    a_q = int(a_q)
    m_q = Fraction(r.m, 1 << r.s)
    m_exact = _exact_fraction(m_real)
    s_y_exact = _exact_fraction(s_y)
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


def rescale_error_bound(
    m_real: float, r: DyadicRescaler, s_y: float, max_abs_acc: int
) -> float:
    """Worst-case |eps_r| over accumulators up to ``max_abs_acc``:
    ``|M_q - m_real| * s_y * max_abs_acc + s_y/2``, correctly rounded."""
    if max_abs_acc < 0:
        raise DomainError(f"max_abs_acc must be non-negative, got {max_abs_acc}")
    mismatch = abs(Fraction(r.m, 1 << r.s) - _exact_fraction(m_real))
    s_y_exact = _exact_fraction(s_y)
    return float(mismatch * s_y_exact * int(max_abs_acc) + s_y_exact / 2)


def _mismatch_is_safe(m_real: float, r: DyadicRescaler, max_abs_acc: int) -> bool:
    """Exact test of the degradation-onset condition: scale-mismatch error
    stays at or below half an output step."""
    mismatch = abs(Fraction(r.m, 1 << r.s) - _exact_fraction(m_real))
    return mismatch * int(max_abs_acc) <= Fraction(1, 2)


def min_safe_bitwidth(m_real: float, max_abs_acc: int) -> int:
    """Smallest width k in [2, 32] whose quantized rescaler keeps the
    scale-mismatch error within half an output step at ``max_abs_acc``.

    Returns 32 with a RuntimeWarning if no width satisfies the condition.
    """
    if not 0.0 < float(m_real) <= 1.0:
        raise DomainError(f"rescale factor {m_real!r} outside (0, 1]")
    if max_abs_acc < 0:
        raise DomainError(f"max_abs_acc must be non-negative, got {max_abs_acc}")
    for k in range(2, 33):
        if _mismatch_is_safe(m_real, quantize_rescaler(m_real, k), max_abs_acc):
            return k
    warnings.warn(
        f"no rescaler width up to 32 bits is safe for M={m_real!r} at "
        f"max|acc|={max_abs_acc}",
        RuntimeWarning,
        stacklevel=2,
    )
    return 32


# ---------------------------------------------------------------------------
# Per-layer reports
# ---------------------------------------------------------------------------


def _analytic_worst_case(layer, in_params) -> np.ndarray:
    """Input-independent per-channel bound on |accumulator|."""
    if layer.kind == "avgpool":
        area = layer.window[0] * layer.window[1]
        channels = len(layer.rescalers)
        return np.full(channels, 128 * area, dtype=np.int64)
    z = in_params.zero_point
    reach = max(INT8_MAX - z, z - INT8_MIN)  # max |x - z| over int8 x
    w = layer.weights.data
    tap_abs = np.abs(w.astype(np.int64)).sum(axis=tap_axes(w))
    return reach * tap_abs + np.abs(layer.bias.astype(np.int64))


def layer_error_report(
    model,
    layer_id: int,
    probe_batches: Iterable[np.ndarray],
    k: int,
) -> LayerErrorReport:
    """Bound the rescale error of one layer from probe data.

    Probe batches are uint8 image batches; they are quantized with the
    model's input parameters, run through the integer engine up to the
    target layer, and the layer's pre-rescale values are recorded.  The
    per-channel peak |accumulator| feeds the mismatch bound; the safe flag
    is an exact rational comparison against the half-step rounding floor.
    """
    from .model_io import materialize_rescalers  # local: avoid import cycle

    if isinstance(probe_batches, np.ndarray):
        probe_batches = [probe_batches]
    if not 0 <= layer_id < len(model.layers):
        raise DomainError(f"layer id {layer_id} outside 0..{len(model.layers) - 1}")
    materialized = materialize_rescalers(model, k) if model.k != k else model
    layer = materialized.layers[layer_id]
    if layer.kind == "flatten":
        raise DomainError("flatten has no rescale stage to analyze")

    in_params = (
        materialized.input_params
        if layer_id == 0
        else materialized.layers[layer_id - 1].output
    )
    channels = len(layer.rescalers)
    max_abs = np.zeros(channels, dtype=np.int64)
    saw_probe = False
    for batch in probe_batches:
        saw_probe = True
        images = np.asarray(batch)
        if images.ndim == 3:
            images = images[..., np.newaxis]
        x = QTensor(
            quantize_real(images.astype(np.float64) / 255.0, materialized.input_params),
            materialized.input_params,
        )
        for upstream in materialized.layers[:layer_id]:
            x = layer_forward_int(x, upstream, materialized.k)
        acc = layer_accumulator(x, layer)
        flat = np.abs(acc.astype(np.int64)).reshape(-1, channels)
        np.maximum(max_abs, flat.max(axis=0), out=max_abs)
    if not saw_probe:
        raise DomainError("probe set is empty")

    s_y = layer.output.scale
    rescalers = layer.rescalers
    m_real = np.array([r.real_value for r in rescalers])
    m_quant = np.array([r.quantized_value for r in rescalers])
    mismatch = np.abs(m_quant - m_real)  # exact: M/2 <= M_q <= M
    s_y_exact = _exact_fraction(s_y)
    bound = np.array(
        [
            float(
                abs(Fraction(r.m, 1 << r.s) - _exact_fraction(r.real_value))
                * s_y_exact
                * int(max_abs[c])
            )
            for c, r in enumerate(rescalers)
        ]
    )
    safe = np.array(
        [
            _mismatch_is_safe(r.real_value, r, int(max_abs[c]))
            for c, r in enumerate(rescalers)
        ]
    )
    return LayerErrorReport(
        layer_id=layer_id,
        kind=layer.kind,
        k=k,
        s_y=s_y,
        m_real=m_real,
        m_quantized=m_quant,
        mismatch=mismatch,
        max_abs_acc=max_abs,
        analytic_max_abs_acc=_analytic_worst_case(layer, in_params),
        mismatch_bound=bound,
        rounding_floor=s_y / 2,
        safe=safe,
    )


def model_error_report(
    model, probe_batches: Sequence[np.ndarray], k: int
) -> list[LayerErrorReport]:
    """Reports for every layer that has a rescale stage."""
    return [
        layer_error_report(model, i, probe_batches, k)
        for i, layer in enumerate(model.layers)
        if layer.kind != "flatten"
    ]
