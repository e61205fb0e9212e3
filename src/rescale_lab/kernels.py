"""Integer-only inference kernels.

All layer arithmetic happens on integers: int8 tensors in, a 32-bit
accumulator per output element, then a dyadic rescale back to int8.
The multiply-accumulate stage runs in floats for speed (matmuls, and one
multiply-add per tap for depthwise) and is exact because every partial sum
is an integer the float type holds: float32 when both operands are int8
and the MAC count N has N * 2**14 <= 2**24, float64 otherwise (partial
sums below 2**30, far under 2**53).  The bias is added in int32 once the
int32 envelope check has proven that it cannot wrap; the rescaling stage
runs in place on one int64 buffer.  The same MAC core (:func:`accumulate`,
:func:`window_sum`) also serves the training emulation and the float
reference network, and the emulation runs its exact float64 accumulators
through this module's :func:`check_envelope` and
:func:`rescale_accumulator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OverflowEnvelopeError, ShapeError
from .qcore import INT8_MAX, INT8_MIN, INT32_MAX, INT32_MIN, QuantParams

if TYPE_CHECKING:  # pragma: no cover
    from .model_io import LayerSpec, ModelGraph

# A layer may accumulate at most this many products per output element;
# together with int8 operand bounds it keeps |acc| < 2**31.
MAX_MAC_COUNT = 1 << 16


@dataclass
class QTensor:
    """An int8 tensor plus its quantization parameters.

    Activations carry a per-tensor :class:`QuantParams`.  Weights carry a
    float64 vector of per-channel scales (zero point 0, symmetric): one
    scale per output channel, which is axis 0 for dense ``(out, in)`` and
    conv ``(out, kh, kw, in)`` weights and the last axis for depthwise
    ``(kh, kw, channels)`` weights.
    """

    data: np.ndarray
    qparams: QuantParams | np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.dtype != np.int8:
            raise ShapeError(f"QTensor data must be int8, got {self.data.dtype}")
        if isinstance(self.qparams, QuantParams):
            return
        scales = np.asarray(self.qparams, dtype=np.float64)
        if scales.ndim != 1:
            raise ShapeError("per-channel scales must be a 1-D vector")
        if not np.all(np.isfinite(scales)) or np.any(scales <= 0.0):
            raise ShapeError("per-channel scales must be finite and positive")
        expected = channel_count(self.data)
        if scales.shape[0] != expected:
            raise ShapeError(
                f"{scales.shape[0]} scales for {expected} output channels"
            )
        self.qparams = scales

    @property
    def zero_point(self) -> int:
        if isinstance(self.qparams, QuantParams):
            return self.qparams.zero_point
        return 0  # per-channel weights are symmetric

    @property
    def is_per_channel(self) -> bool:
        return not isinstance(self.qparams, QuantParams)


def channel_axis(weights: np.ndarray) -> int:
    """Output-channel axis by weight rank: dense (out, in) and conv OHWI put
    it first, depthwise (kh, kw, channels) last."""
    if weights.ndim in (2, 4):
        return 0
    if weights.ndim == 3:
        return 2
    raise ShapeError(f"unsupported weight rank {weights.ndim}")


def channel_count(weights: np.ndarray) -> int:
    return weights.shape[channel_axis(weights)]


def tap_axes(weights: np.ndarray) -> tuple[int, ...]:
    """The axes one output channel's taps span: every axis but the channel's.
    Per-channel tap sums reduce over them."""
    axis = channel_axis(weights)
    return tuple(a for a in range(weights.ndim) if a != axis)


def mac_count(weights: np.ndarray) -> int:
    """Products accumulated per output element: the taps of one channel."""
    return math.prod(weights.shape[a] for a in tap_axes(weights))


def quantize_real(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize real values to int8: round-half-up of value/scale, plus the
    zero point, clamped."""
    q = np.floor(np.asarray(values, dtype=np.float64) / params.scale + 0.5)
    q += params.zero_point
    return np.clip(q, INT8_MIN, INT8_MAX).astype(np.int8)


def dequantize_real(q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map int8 values back to reals: ``scale * (q - zero_point)``."""
    return params.scale * (np.asarray(q, dtype=np.float64) - params.zero_point)


def compute_effective_bias(
    bias: np.ndarray, weights: QTensor | np.ndarray, z_in: int
) -> np.ndarray:
    """Fold the input zero point into the bias.

    ``b_eff[c] = bias[c] - z_in * sum(weights of channel c)``; with the input
    padded by ``z_in`` this makes every accumulator equal the zero-corrected
    sum regardless of position.  Raises ``OverflowError`` if a component
    leaves int32 instead of wrapping.
    """
    w = weights.data if isinstance(weights, QTensor) else np.asarray(weights)
    bias = np.asarray(bias)
    if bias.ndim != 1 or bias.shape[0] != channel_count(w):
        raise ShapeError(
            f"bias shape {bias.shape} does not match {channel_count(w)} channels"
        )
    tap_sum = w.astype(np.int64).sum(axis=tap_axes(w))
    b_eff = bias.astype(np.int64) - np.int64(z_in) * tap_sum
    if np.any(b_eff < INT32_MIN) or np.any(b_eff > INT32_MAX):
        raise OverflowError("effective bias leaves the int32 range")
    return b_eff.astype(np.int32)


def _same_padding(in_size: int, k: int, stride: int) -> tuple[int, int, int]:
    """Return (out_size, pad_before, pad_after) for SAME padding."""
    out_size = -(-in_size // stride)  # ceil
    total = max((out_size - 1) * stride + k - in_size, 0)
    return out_size, total // 2, total - total // 2


def _pad_nhwc(x: np.ndarray, pads: tuple[int, int, int, int], value: int) -> np.ndarray:
    top, bottom, left, right = pads
    if top == bottom == left == right == 0:
        return x
    return np.pad(
        x, ((0, 0), (top, bottom), (left, right), (0, 0)), constant_values=value
    )


def _conv_geometry(x_shape, k_h, k_w, stride, padding):
    _, in_h, in_w, _ = x_shape
    s_h, s_w = stride
    if padding == "SAME":
        out_h, pad_t, pad_b = _same_padding(in_h, k_h, s_h)
        out_w, pad_l, pad_r = _same_padding(in_w, k_w, s_w)
    elif padding == "VALID":
        if in_h < k_h or in_w < k_w:
            raise ShapeError("input smaller than kernel under VALID padding")
        out_h = (in_h - k_h) // s_h + 1
        out_w = (in_w - k_w) // s_w + 1
        pad_t = pad_b = pad_l = pad_r = 0
    else:
        raise ShapeError(f"unknown padding {padding!r}")
    return out_h, out_w, (pad_t, pad_b, pad_l, pad_r)


def _mac_dtype(x: np.ndarray, w: np.ndarray) -> type:
    """The float type one layer's MAC runs in, from the operand dtypes and
    the static MAC count.

    int8 x int8 products are at most 2**14 in magnitude, so with
    ``mac_count * 2**14 <= 2**24`` every partial sum is an integer of
    magnitude <= 2**24, which float32 holds exactly in any summation order.
    Everything else runs in float64: wider int8 layers (partial sums below
    2**30, far under 2**53) and float operands, whose bits stay as before.
    """
    if (x.dtype == np.int8 and w.dtype == np.int8
            and mac_count(w) << 14 <= 1 << 24):
        return np.float32
    return np.float64


def accumulate(x, w, kind, stride=(1, 1), padding="VALID", pad_value=0):
    """The multiply-accumulate of one layer, without bias, in the float type
    :func:`_mac_dtype` picks.

    ``x`` is (n, d) for dense and NHWC otherwise; ``w`` is in the layout of
    :func:`channel_axis`; SAME padding fills with ``pad_value``.  Returns
    ``(acc, cols, pads)``: ``cols`` is the operand the weights met and
    ``pads`` the (top, bottom, left, right) padding, both kept for the
    backward pass.  ``cols`` is ``x`` itself for dense, the contiguous
    im2col matrix (n*oh*ow, kh*kw*c) for conv2d, columns in (kh, kw, c)
    order, and the (n, oh, ow, c, kh, kw) window view for depthwise.
    Integer operands give exact sums.
    """
    dtype = _mac_dtype(x, w)
    w = w.astype(dtype, copy=False)
    if kind == "dense":
        return x.astype(dtype, copy=False) @ w.T, x, None
    k_h, k_w = w.shape[1:3] if kind == "conv2d" else w.shape[:2]
    out_h, out_w, pads = _conv_geometry(x.shape, k_h, k_w, stride, padding)
    x_pad = _pad_nhwc(x, pads, pad_value).astype(dtype, copy=False)
    cols = sliding_window_view(x_pad, (k_h, k_w), axis=(1, 2))[:, ::stride[0], ::stride[1]]
    if kind == "conv2d":
        cols = cols.transpose(0, 1, 2, 4, 5, 3).reshape(-1, mac_count(w))
        acc = cols @ w.reshape(w.shape[0], -1).T
        acc = acc.reshape(x.shape[0], out_h, out_w, w.shape[0])
    elif kind == "depthwise":
        # One multiply-add per tap, in (kh, kw) order, over rows of
        # (ow, c) that meet the weights tiled to the row's length.
        n, oh, ow, c = cols.shape[:4]
        w_rows = np.tile(w, (1, 1, ow))
        acc = np.zeros((n, oh, ow * c), dtype)
        for i in range(k_h):
            for j in range(k_w):
                acc += cols[..., i, j].reshape(n, oh, ow * c) * w_rows[i, j]
        acc = acc.reshape(n, oh, ow, c)
    else:
        raise ShapeError(f"layer kind {kind!r} has no multiply-accumulate")
    return acc, cols, pads


def window_sum(x: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """Sum of each non-overlapping (wh, ww) window of an NHWC batch, tap by
    tap in (wh, ww) order; int8 input sums into int32."""
    if x.ndim != 4:
        raise ShapeError("avgpool expects x (n, h, w, c)")
    n, in_h, in_w, c = x.shape
    w_h, w_w = window
    if in_h % w_h or in_w % w_w:
        raise ShapeError(f"input {in_h}x{in_w} not divisible by window {w_h}x{w_w}")
    blocks = x.reshape(n, in_h // w_h, w_h, in_w // w_w, w_w, c)
    taps = [blocks[:, :, i, :, j] for i in range(w_h) for j in range(w_w)]
    out = taps[0].astype(np.result_type(x.dtype, np.int32))
    for tap in taps[1:]:
        out += tap
    return out


def _channel_rows(a: np.ndarray, *vectors: np.ndarray):
    """View the channels-last ``a`` as one row per leading index and tile
    each per-channel vector to a row's length, so in-place elementwise
    passes run one long loop per row instead of a short one per pixel.
    Vectors that are not one entry per channel, and arrays that cannot be
    viewed as rows, are returned as they are."""
    if a.ndim < 2 or a.size == 0 or not a.flags.c_contiguous:
        return a, vectors
    rows = a.reshape(a.shape[0], -1)
    reps = rows.shape[1] // a.shape[-1]
    return rows, [np.tile(v, reps) if v.shape == a.shape[-1:] else v
                  for v in vectors]


def check_envelope(acc: np.ndarray, b_eff: np.ndarray) -> None:
    """Raise if any ``acc + b_eff`` (bias along the last axis) leaves int32.

    ``acc`` may be integer or integer-valued float (the emulation's MAC).
    Whole-tensor extremes give a cheap conservative bound; only when it
    fails are the channels decided one by one.
    """
    if acc.size == 0:
        return
    b_eff = b_eff.astype(np.int64)
    if (int(acc.max()) + int(b_eff.max()) <= INT32_MAX
            and int(acc.min()) + int(b_eff.min()) >= INT32_MIN):
        return
    per_channel = acc.reshape(-1, acc.shape[-1])
    hi = per_channel.max(axis=0).astype(np.int64) + b_eff
    lo = per_channel.min(axis=0).astype(np.int64) + b_eff
    if np.any(hi > INT32_MAX) or np.any(lo < INT32_MIN):
        raise OverflowEnvelopeError("accumulator left the int32 envelope")


def _int_accumulate(x: QTensor, w: QTensor, b_eff: np.ndarray, kind: str,
                    stride=(1, 1), padding="VALID") -> np.ndarray:
    """Exact int32 accumulator of one weighted layer: MAC plus effective
    bias, with SAME padding by the input zero point; raises if it leaves
    the int32 envelope."""
    if mac_count(w.data) > MAX_MAC_COUNT:
        raise ShapeError(f"MAC count {mac_count(w.data)} exceeds {MAX_MAC_COUNT}")
    acc, _, _ = accumulate(x.data, w.data, kind, stride, padding, x.zero_point)
    b_eff = np.asarray(b_eff)
    check_envelope(acc, b_eff)
    # |MAC| <= MAX_MAC_COUNT * 2**14 = 2**30 fits int32, and the check above
    # proved that adding the bias cannot wrap.
    out = acc.astype(np.int32)
    rows, (b_rows,) = _channel_rows(out, b_eff)
    rows += b_rows
    return out


def dense_int(x: QTensor, w: QTensor, b_eff: np.ndarray) -> np.ndarray:
    """Integer dense layer: returns the int32 accumulator ``x @ w.T + b_eff``."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError("dense expects x (n, d) and weights (out, d)")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"dense feature mismatch: x has {x.data.shape[1]}, w has {w.data.shape[1]}"
        )
    return _int_accumulate(x, w, b_eff, "dense")


def conv2d_int(
    x: QTensor,
    w: QTensor,
    b_eff: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    padding: str = "VALID",
) -> np.ndarray:
    """Integer 2-D convolution (cross-correlation), NHWC x OHWI -> int32 acc.

    SAME padding fills with the input zero point, which contributes nothing
    once the effective bias is in place.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d expects x (n, h, w, c) and weights (o, kh, kw, c)")
    if x.data.shape[3] != w.data.shape[3]:
        raise ShapeError(
            f"conv2d channel mismatch: x has {x.data.shape[3]}, w has {w.data.shape[3]}"
        )
    return _int_accumulate(x, w, b_eff, "conv2d", stride, padding)


def depthwise_conv2d_int(
    x: QTensor,
    w: QTensor,
    b_eff: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    padding: str = "VALID",
) -> np.ndarray:
    """Integer depthwise convolution: each channel filtered independently
    with its (kh, kw) slice of the (kh, kw, channels) weights."""
    if x.data.ndim != 4 or w.data.ndim != 3:
        raise ShapeError("depthwise expects x (n, h, w, c) and weights (kh, kw, c)")
    if x.data.shape[3] != w.data.shape[2]:
        raise ShapeError(
            f"depthwise channel mismatch: x has {x.data.shape[3]}, w has {w.data.shape[2]}"
        )
    return _int_accumulate(x, w, b_eff, "depthwise", stride, padding)


def rescale_accumulator(
    acc: np.ndarray, m: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Vectorized round-half-up rescale of int32 accumulators by per-channel
    dyadic multipliers, saturated to int32: ``floor((acc*m + 2**(s-1)) /
    2**s)``.

    ``acc`` may be integer or integer-valued float (the emulation passes its
    exact float64 accumulator); ``m`` and ``s`` broadcast against the
    trailing (channel) axis.  The rescale runs in place on one int64 buffer.
    The product cannot wrap (|acc| <= 2**31, m < 2**32), but adding the
    half step to it could, so the shift goes in two steps:
    ``((acc*m >> (s-1)) + 1) >> 1`` is the same floor.
    """
    out = np.empty(acc.shape, np.int64)
    rows, (m64, s64) = _channel_rows(out, np.asarray(m, dtype=np.int64),
                                     np.asarray(s, dtype=np.int64))
    # Cast to int64 and multiply in one pass.
    np.multiply(acc.reshape(rows.shape), m64, out=rows, dtype=np.int64,
                casting="unsafe")
    rows >>= s64 - 1
    rows += 1
    rows >>= 1
    return np.clip(out, INT32_MIN, INT32_MAX, out=out)


def activation_clamp(activation: str, out_params: QuantParams) -> tuple[int, int]:
    """Integer clamp bounds for an activation applied in the quantized domain.

    Real zero quantizes to the output zero point, so ReLU clamps there; the
    ReLU6 ceiling is the quantized image of 6.0, saturated to int8.
    """
    z = out_params.zero_point
    if activation == "none":
        return INT8_MIN, INT8_MAX
    if activation == "relu":
        return z, INT8_MAX
    if activation == "relu6":
        hi = math.floor(6.0 / out_params.scale + 0.5) + z
        return z, max(INT8_MIN, min(INT8_MAX, hi))
    raise ShapeError(f"unknown activation {activation!r}")


def layer_accumulator(x: QTensor, layer: "LayerSpec") -> np.ndarray:
    """The pre-rescale values of one layer: window sums for avgpool, the
    int32 MAC plus effective bias for weighted layers."""
    if layer.kind == "avgpool":
        return window_sum(x.data, layer.window)
    b_eff = compute_effective_bias(layer.bias, layer.weights, x.zero_point)
    if layer.kind == "dense":
        return dense_int(x, layer.weights, b_eff)
    if layer.kind == "conv2d":
        return conv2d_int(x, layer.weights, b_eff, layer.stride, layer.padding)
    if layer.kind == "depthwise":
        return depthwise_conv2d_int(x, layer.weights, b_eff, layer.stride, layer.padding)
    raise ShapeError(f"layer kind {layer.kind!r} has no rescale stage")


def rescaler_vectors(layer: "LayerSpec", k: int) -> tuple[np.ndarray, np.ndarray]:
    """The layer's per-channel multiplicands and shifts as int64 vectors
    (one entry for avgpool); raises if a rescaler is not at width ``k``."""
    for r in layer.rescalers:
        if r.k != k:
            raise ShapeError(f"layer rescaler width {r.k} does not match k={k}")
    return (np.array([r.m for r in layer.rescalers], dtype=np.int64),
            np.array([r.s for r in layer.rescalers], dtype=np.int64))


def flatten(x: np.ndarray) -> np.ndarray:
    """(n, ...) -> (n, features), also for an empty batch."""
    return x.reshape(x.shape[0], math.prod(x.shape[1:]))


def layer_forward_int(x: QTensor, layer: "LayerSpec", k: int) -> QTensor:
    """Run one layer of the integer engine.

    The layer's rescalers must already be materialized at width ``k``.
    Weighted layers end with rescale, zero-point add, and activation clamp;
    avgpool rescales its window sums by the k-bit encoding of 1/area and
    keeps the input's quantization parameters.
    """
    if layer.kind == "flatten":
        return QTensor(flatten(x.data), x.qparams)
    m, s = rescaler_vectors(layer, k)
    acc = layer_accumulator(x, layer)
    shifted = rescale_accumulator(acc, m, s)
    if layer.kind == "avgpool":
        np.clip(shifted, INT8_MIN, INT8_MAX, out=shifted)
        return QTensor(shifted.astype(np.int8), x.qparams)
    shifted += layer.output.zero_point
    np.clip(shifted, *activation_clamp(layer.activation, layer.output), out=shifted)
    return QTensor(shifted.astype(np.int8), layer.output)


def run_model_int(model: "ModelGraph", x_q: np.ndarray) -> np.ndarray:
    """Run the integer engine over a pre-quantized int8 input batch and
    return the int8 logits."""
    tensor = QTensor(np.asarray(x_q, dtype=np.int8), model.input_params)
    for layer in model.layers:
        tensor = layer_forward_int(tensor, layer, model.k)
    return tensor.data


def predict_int(model: "ModelGraph", images_u8: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Classify uint8 images: scale to [0, 1], quantize with the model's
    input parameters, run the engine, argmax (ties to the lowest index)."""
    images = np.asarray(images_u8)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    preds = []
    for start in range(0, images.shape[0], batch_size):
        chunk = images[start : start + batch_size].astype(np.float64) / 255.0
        x_q = quantize_real(chunk, model.input_params)
        logits = run_model_int(model, x_q)
        preds.append(np.argmax(logits, axis=1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def evaluate_int(
    model: "ModelGraph",
    images_u8: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 512,
) -> float:
    """Top-1 accuracy of the integer engine on a labeled image set, in percent."""
    preds = predict_int(model, images_u8, batch_size=batch_size)
    return 100.0 * float(np.mean(preds == np.asarray(labels)))
