"""Integer-only inference kernels.

All layer arithmetic happens on integers: int8 tensors in, a 32-bit
accumulator per output element, then a dyadic rescale back to int8.
Where floats do integer work, :func:`exact_float_type` picks the type
from a static bound on the integers involved: float32 when every one has
magnitude <= 2**24, float64 up to 2**53.  Each weighted layer has one
such bound, :func:`accumulator_bound` (``r * sum|w_c| + |b_c|`` per
channel, ``r`` the largest input magnitude), which covers every partial
sum of its MAC; avgpool's is :func:`window_bound`.  Its maximum over the
channels picks the float type of the multiply-accumulate, which runs in
floats for speed (matmuls, and one multiply-add per tap for depthwise),
proves the int32 envelope and bounds the rescale.  conv2d builds its
im2col matrix tap-major, one strided copy (with the cast) per layer into
(kh, kw, c) planes of (n, oh, ow), and hands BLAS its transpose.  The
MAC core (:func:`accumulate`, the one check of every MAC's operands, and
:func:`window_sum`) also serves the training emulation and the float
reference network, and the emulation shares every stage after it:
:func:`add_bias` (the int32 envelope check, then the bias add),
:func:`rescale_accumulator` (int32 for the engine wherever the
accumulator's own peak times ``max(m)`` fits it, int64 otherwise; a
float type the bound proves exact for the emulation where there is one) and
:func:`output_bounds` (the clamp and zero point).  The engine runs every
layer over blocks of :data:`RESCALE_BLOCK` images
(:func:`accumulator_blocks`): MAC, bias, rescale and clamp, straight into
that block's int8 output slice, so its working memory does not grow with
the batch.  uint8 images enter through :func:`quantize_images`, a
256-entry table of :func:`quantize_real`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, OverflowEnvelopeError, ShapeError
from .qcore import INT8_MAX, INT8_MIN, INT32_MAX, INT32_MIN, QuantParams, round_half_up

if TYPE_CHECKING:  # pragma: no cover
    from .model_io import LayerSpec, ModelGraph

# A layer may accumulate at most this many products per output element;
# together with int8 operand bounds it keeps |acc| < 2**31.
MAX_MAC_COUNT = 1 << 16
# Images the engine runs through a layer at once: the im2col planes, the
# accumulator and rescale_accumulator's buffer are one block's, however
# large the batch.
RESCALE_BLOCK = 32


def exact_float_type(bound: int) -> type | None:
    """The narrowest float type that holds every integer of magnitude <=
    ``bound`` exactly: float32 up to 2**24, float64 up to 2**53, None past
    that.  Sums, products and power-of-two scalings whose exact results
    stay within the bound are then exact in that type, in any order."""
    if bound <= 1 << 24:
        return np.float32
    if bound <= 1 << 53:
        return np.float64
    return None


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
        scales = check_channels("scales", self.qparams, self.data).astype(np.float64)
        if not np.all(np.isfinite(scales)) or np.any(scales <= 0.0):
            raise ShapeError("per-channel scales must be finite and positive")
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


# The layer rules, each raising ShapeError, shared by validate_model, the
# MAC core and the float network.  The kind table holds the operand ranks
# (x, w) of each kind with a multiply-accumulate.
_MAC_RANKS = {"dense": (2, 2), "conv2d": (4, 4), "depthwise": (4, 3)}
WEIGHTED_KINDS = tuple(_MAC_RANKS)
LAYER_KINDS = WEIGHTED_KINDS + ("avgpool", "flatten")
_ACTIVATION_RANGES = {"none": (-math.inf, math.inf), "relu": (0.0, math.inf),
                      "relu6": (0.0, 6.0)}


def activation_range(activation: str) -> tuple[float, float]:
    """The real range ``(lo, hi)`` an activation clamps to."""
    if not isinstance(activation, str) or activation not in _ACTIVATION_RANGES:
        raise ShapeError(f"unknown activation {activation!r}")
    return _ACTIVATION_RANGES[activation]


def check_layer(kind: str, activation: str) -> tuple[float, float]:
    """The :func:`activation_range` of a layer of a known kind; avgpool and
    flatten take none only."""
    if kind not in LAYER_KINDS:
        raise ShapeError(f"unknown kind {kind!r}")
    if activation != "none" and kind not in WEIGHTED_KINDS:
        raise ShapeError(f"{kind} takes no activation {activation!r}")
    return activation_range(activation)


def check_mac(kind: str, weights: np.ndarray, stride=(1, 1),
              padding: str = "VALID") -> tuple[int, int]:
    """The operand ranks (x, w) of a layer of a kind with a multiply-
    accumulate: weights of rank w with at least one output channel and at
    most :data:`MAX_MAC_COUNT` taps a channel, a stride of two steps >= 1,
    and SAME or VALID padding."""
    ranks = _MAC_RANKS.get(kind)
    if ranks is None:
        raise ShapeError(f"layer kind {kind!r} has no multiply-accumulate")
    if weights.ndim != ranks[1]:
        raise ShapeError(f"{kind} takes weights of rank {ranks[1]}, got {weights.shape}")
    if channel_count(weights) == 0:
        raise ShapeError(f"{kind} weights {weights.shape} have no output channels")
    if mac_count(weights) > MAX_MAC_COUNT:
        raise ShapeError(f"MAC count {mac_count(weights)} exceeds {MAX_MAC_COUNT}")
    if padding not in ("SAME", "VALID"):
        raise ShapeError(f"unknown padding {padding!r}")
    check_steps("stride", stride)
    return ranks


def check_steps(what: str, steps) -> None:
    """A stride or an avgpool window is two steps >= 1."""
    if steps is None or len(steps) != 2 or min(steps) < 1:
        raise ShapeError(f"{what} {steps} needs two steps >= 1")


def check_channels(what: str, vector, weights: np.ndarray) -> np.ndarray:
    """``vector`` (a bias, or scales) as an array, one entry per channel of ``weights``."""
    vector = np.asarray(vector)
    if vector.shape != (channel_count(weights),):
        raise ShapeError(f"{what} shape {vector.shape} does not match "
                         f"{channel_count(weights)} channels")
    return vector


def accumulator_bound(w: np.ndarray, bias, z: int | None = None) -> np.ndarray:
    """Per output channel, a static bound on ``|acc|`` of one weighted
    layer: ``r * sum_taps |w_c| + |b_c|``, as int64.  ``r`` bounds the
    input's magnitude: 128 for int8 input padded with an int8 zero point
    (``z`` None, the engine), ``max(127 - z, z + 128)`` for the
    zero-point-corrected ``x - z``.  Any subset of a channel's products sums
    to at most ``r * sum|w_c|``, so the bound covers every partial sum of
    the MAC as well as the accumulator."""
    r = -INT8_MIN if z is None else max(INT8_MAX - z, z - INT8_MIN)
    w = np.asarray(w)
    return (r * np.abs(w.astype(np.int64)).sum(axis=tap_axes(w))
            + np.abs(np.asarray(bias).astype(np.int64)))


def window_bound(window: tuple[int, int]) -> int:
    """A static bound on an avgpool window sum of int8 values: 128 a tap."""
    return -INT8_MIN * window[0] * window[1]


def unit_images(images_u8: np.ndarray) -> np.ndarray:
    """The float network's images as float64 NHWC: uint8 divided by 255,
    float taken as unit images; (n, h, w) input gains a channel axis and
    any other dtype raises ShapeError."""
    images = np.asarray(images_u8)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    if images.dtype == np.uint8:
        return images.astype(np.float64) / 255.0
    if images.dtype.kind == "f":
        return images.astype(np.float64, copy=False)
    raise ShapeError(f"images must be uint8 or float, got {images.dtype}")


def quantize_real(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize real values to int8: round-half-up of value/scale, plus the
    zero point, clamped."""
    q = round_half_up(np.asarray(values, dtype=np.float64) / params.scale)
    q += params.zero_point
    return np.clip(q, INT8_MIN, INT8_MAX).astype(np.int8)


def check_uint8_images(images_u8: np.ndarray) -> np.ndarray:
    """``images_u8`` as an array; raises ShapeError unless it is uint8."""
    images = np.asarray(images_u8)
    if images.dtype != np.uint8:
        raise ShapeError(f"images must be uint8, got {images.dtype}")
    return images


def quantize_images(images_u8: np.ndarray, params: QuantParams) -> np.ndarray:
    """uint8 images quantized with ``params``, as NHWC int8: the bits of
    ``quantize_real(unit_images(images_u8), params)``, read from a table of
    :func:`quantize_real` over the 256 byte values (both steps are
    elementwise).  Input of any other dtype raises ShapeError."""
    images = check_uint8_images(images_u8)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    table = quantize_real(np.arange(256, dtype=np.float64) / 255.0, params)
    return np.take(table, images)


def dequantize_real(q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map int8 values back to reals: ``scale * (q - zero_point)``."""
    return params.scale * (np.asarray(q, dtype=np.float64) - params.zero_point)


def compute_effective_bias(
    bias: np.ndarray, weights: QTensor | np.ndarray, z_in: int
) -> np.ndarray:
    """Fold the input zero point into the bias.

    ``b_eff[c] = bias[c] - z_in * sum(weights of channel c)``; with the input
    padded by ``z_in`` this makes every accumulator equal the zero-corrected
    sum regardless of position.  Raises OverflowEnvelopeError if a component
    leaves int32 instead of wrapping.
    """
    w = weights.data if isinstance(weights, QTensor) else np.asarray(weights)
    bias = check_channels("bias", bias, w)
    tap_sum = w.astype(np.int64).sum(axis=tap_axes(w))
    b_eff = bias.astype(np.int64) - np.int64(z_in) * tap_sum
    if np.any(b_eff < INT32_MIN) or np.any(b_eff > INT32_MAX):
        raise OverflowEnvelopeError("effective bias leaves the int32 range")
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
    # A filled buffer with the input copied in: np.pad gives the same array
    # at several times the fixed cost, which every block of a layer pays.
    n, h, w, c = x.shape
    out = np.full((n, top + h + bottom, left + w + right, c), value, x.dtype)
    out[:, top : top + h, left : left + w] = x
    return out


def _conv_geometry(x_shape, k_h, k_w, stride, padding):
    _, in_h, in_w, _ = x_shape
    s_h, s_w = stride
    if padding == "SAME":
        out_h, pad_t, pad_b = _same_padding(in_h, k_h, s_h)
        out_w, pad_l, pad_r = _same_padding(in_w, k_w, s_w)
    else:  # VALID
        if in_h < k_h or in_w < k_w:
            raise ShapeError("input smaller than kernel under VALID padding")
        out_h = (in_h - k_h) // s_h + 1
        out_w = (in_w - k_w) // s_w + 1
        pad_t = pad_b = pad_l = pad_r = 0
    return out_h, out_w, (pad_t, pad_b, pad_l, pad_r)


def accumulate(x, w, kind, stride=(1, 1), padding="VALID", pad_value=0, bound=None):
    """The multiply-accumulate of one layer, without bias, in the float type
    :func:`exact_float_type` gives ``bound``, a static bound on every
    partial sum of integer-valued operands (int8 operands imply theirs,
    the maximum of :func:`accumulator_bound` without bias); float64 without
    one, which includes every real operand.

    ``x`` is (n, d) for dense and NHWC otherwise; ``w`` is in the layout of
    :func:`channel_axis`; SAME padding fills with ``pad_value``.  A layer
    failing :func:`check_mac`, an ``x`` of another rank than the kind's, or
    ``x`` and ``w`` with different last (input-channel) axes raise
    ShapeError.  Returns
    ``(acc, cols, pads)``: ``cols`` is the operand the weights met and
    ``pads`` the (top, bottom, left, right) padding, both kept for the
    backward pass.  ``cols`` is ``x`` itself for dense, the im2col matrix
    (n*oh*ow, kh*kw*c) for conv2d, columns in (kh, kw, c) order, and the
    (n, oh, ow, c, kh, kw) window view for depthwise.  conv2d's matrix is
    Fortran-ordered: the transpose of contiguous tap-major planes
    (kh, kw, c, n, oh, ow).  Integer operands give exact sums.
    """
    x_rank = check_mac(kind, w, stride, padding)[0]
    if x.ndim != x_rank or x.shape[-1] != w.shape[-1]:
        raise ShapeError(f"{kind} takes x of rank {x_rank} sharing the weights' "
                         f"last axis, got {x.shape} and {w.shape}")
    if bound is None and x.dtype == np.int8 and w.dtype == np.int8:
        bound = int(accumulator_bound(w, 0).max(initial=0))
    dtype = np.float64 if bound is None else exact_float_type(bound) or np.float64
    w = w.astype(dtype, copy=False)
    if kind == "dense":
        return x.astype(dtype, copy=False) @ w.T, x, None
    k_h, k_w = w.shape[1:3] if kind == "conv2d" else w.shape[:2]
    out_h, out_w, pads = _conv_geometry(x.shape, k_h, k_w, stride, padding)
    x_pad = _pad_nhwc(x, pads, pad_value)
    if kind == "depthwise":
        x_pad = x_pad.astype(dtype, copy=False)
    cols = sliding_window_view(x_pad, (k_h, k_w), axis=(1, 2))[:, ::stride[0], ::stride[1]]
    if kind == "conv2d":
        # Each tap's (n, oh, ow) plane is a strided run of the input, so
        # this one copy (which also casts) moves whole rows, where the
        # row-major im2col copy moved c elements at a time.
        planes = np.empty((k_h, k_w, x.shape[3], x.shape[0], out_h, out_w), dtype)
        np.copyto(planes, cols.transpose(4, 5, 3, 0, 1, 2))
        cols = planes.reshape(mac_count(w), -1).T
        acc = cols @ w.reshape(w.shape[0], -1).T
        acc = acc.reshape(x.shape[0], out_h, out_w, w.shape[0])
    else:  # depthwise
        # One multiply-add per tap, in (kh, kw) order, over rows of
        # (ow, c) that meet the weights tiled to the row's length.
        n, oh, ow, c = cols.shape[:4]
        w_rows = np.tile(w, (1, 1, ow))
        acc = np.zeros((n, oh, ow * c), dtype)
        prod = np.empty_like(acc)
        for i in range(k_h):
            for j in range(k_w):
                np.multiply(cols[..., i, j].reshape(n, oh, ow * c), w_rows[i, j], out=prod)
                acc += prod
        acc = acc.reshape(n, oh, ow, c)
    return acc, cols, pads


def window_sum(x: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """Sum of each non-overlapping (wh, ww) window of an NHWC batch, tap by
    tap in (wh, ww) order; int8 input sums into int32, and float input keeps
    its type wherever :func:`window_bound` proves int8-valued sums exact."""
    if x.ndim != 4:
        raise ShapeError("avgpool expects x (n, h, w, c)")
    check_steps("window", window)
    n, in_h, in_w, c = x.shape
    w_h, w_w = window
    if in_h % w_h or in_w % w_w:
        raise ShapeError(f"input {in_h}x{in_w} not divisible by window {w_h}x{w_w}")
    blocks = x.reshape(n, in_h // w_h, w_h, in_w // w_w, w_w, c)
    taps = [blocks[:, :, i, :, j] for i in range(w_h) for j in range(w_w)]
    exact = exact_float_type(window_bound(window)) if x.dtype.kind == "f" else None
    out = taps[0].astype(np.result_type(x.dtype, exact or np.int32))
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


def add_bias(acc: np.ndarray, bias: np.ndarray, reach: int | None,
             dtype: type | None = None) -> np.ndarray:
    """``acc + bias`` (bias along the last axis) in ``dtype``: int32 for the
    engine; by default the integer-valued float ``acc``'s own type, in
    place, which the MAC took from the same bound ``reach`` (the layer's
    :func:`accumulator_bound`), so the sum is exact in it too.  Raises OverflowEnvelopeError first if any sum leaves int32: a reach
    within int32 proves the envelope at no cost; otherwise whole-tensor
    extremes give a cheap conservative bound, and only when it fails are
    the channels decided one by one."""
    bias = np.asarray(bias)
    b64 = bias.astype(np.int64)
    if acc.size and (reach is None or reach > INT32_MAX) and not (
            int(acc.max()) + int(b64.max()) <= INT32_MAX
            and int(acc.min()) + int(b64.min()) >= INT32_MIN):
        per_channel = acc.reshape(-1, acc.shape[-1])
        hi = per_channel.max(axis=0).astype(np.int64) + b64
        lo = per_channel.min(axis=0).astype(np.int64) + b64
        if np.any(hi > INT32_MAX) or np.any(lo < INT32_MIN):
            raise OverflowEnvelopeError("accumulator left the int32 envelope")
    out = acc.astype(dtype or acc.dtype, copy=False)
    # The bias is cast to the sum's type first (exact: |bias| <= reach), so
    # the in-place add runs in one type.
    rows, (b_rows,) = _channel_rows(out, bias.astype(out.dtype, copy=False))
    rows += b_rows
    return out


def _int_accumulate(x: QTensor, w: QTensor, b_eff: np.ndarray, kind: str,
                    stride=(1, 1), padding="VALID") -> np.ndarray:
    """Exact int32 accumulator of one weighted layer: MAC plus effective
    bias, with SAME padding by the input zero point; raises if it leaves
    the int32 envelope."""
    bound = int(accumulator_bound(w.data, b_eff).max(initial=0))
    acc, _, _ = accumulate(x.data, w.data, kind, stride, padding, x.zero_point, bound)
    # |MAC| <= MAX_MAC_COUNT * 128 * 128 = 2**30 fits int32.
    return add_bias(acc, b_eff, bound, np.int32)


def dense_int(x: QTensor, w: QTensor, b_eff: np.ndarray) -> np.ndarray:
    """Integer dense layer: returns the int32 accumulator ``x @ w.T + b_eff``."""
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
    return _int_accumulate(x, w, b_eff, "depthwise", stride, padding)


def rescale_accumulator(
    acc: np.ndarray, m: np.ndarray, s: np.ndarray, reach: int | None = None
) -> np.ndarray:
    """Vectorized round-half-up rescale of int32 accumulators by per-channel
    dyadic multipliers, saturated to int32: ``floor((acc*m + 2**(s-1)) /
    2**s)``.

    ``acc`` must lie in int32; it may be integer or integer-valued float
    (the emulation passes its exact float accumulator).  ``m`` and ``s``
    broadcast against the trailing (channel) axis.  ``reach`` is a bound
    on ``|acc|``, and ``reach * max(m) + 2**(max(s)-1)`` bounds the
    numerator.  Left out, it is the accumulator's own peak ``max|acc|``
    (0 when empty) for integer input, an exact bound from two reductions,
    and the int32 envelope for float input.

    Integer input whose bound is <= INT32_MAX runs in place on one int32
    buffer and gives int32: every product, numerator and result lies
    within the bound, so none wraps and none needs saturating.  This is
    the engine's route at narrow widths, where a k-bit ``m`` times a
    layer's peak fits 32 bits.

    Float input runs as ``floor(acc * M_q + 0.5)`` in the float type
    :func:`exact_float_type` gives that bound, and returns that type:
    ``acc * m`` and the numerator are integers within it, so the product,
    the half step (``2**(s-1)`` over ``2**s``) and the floor are exact.

    Other integer input, and float input past 2**53, run in place on one
    int64 buffer, and give int64 and float64.  The product cannot wrap
    (|acc| <= 2**31, m < 2**32).  Adding the half step to it cannot either
    while the bound is below 2**63, which holds for every width below 32;
    otherwise the shift goes in two steps, as ``((acc*m >> (s-1)) + 1) >>
    1`` is the same floor.

    When every channel has ``m <= 2**s`` (``M_q <= 1``) each result lies
    between 0 and its accumulator, so the saturation runs only when some
    ``m > 2**s``.
    """
    m = np.asarray(m, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    is_float = acc.dtype.kind == "f"
    if reach is None and is_float:
        reach = 1 << 31
    elif reach is None:
        reach = max(int(acc.max()), -int(acc.min())) if acc.size else 0
    bound = reach * int(m.max()) + (1 << (int(s.max()) - 1))
    if is_float:
        dtype = exact_float_type(bound)
    else:
        dtype = np.int32 if bound <= INT32_MAX else None
    if dtype is np.int32:
        # m fits int32 unless reach is 0, where every product is 0 anyway.
        out = np.empty(acc.shape, np.int32)
        rows, (m32, h32, s32) = _channel_rows(
            out, m.astype(np.int32), np.left_shift(1, s - 1).astype(np.int32),
            s.astype(np.int32))
        np.multiply(acc.reshape(rows.shape), m32, out=rows, dtype=np.int32,
                    casting="unsafe")
        rows += h32
        rows >>= s32
        return out
    if dtype is not None:
        out = np.empty(acc.shape, dtype)
        rows, (q_rows,) = _channel_rows(out, np.ldexp(m.astype(dtype), -s))
        np.multiply(acc.reshape(rows.shape), q_rows, out=rows, dtype=dtype)
        rows += 0.5
        np.floor(rows, out=rows)
    else:
        out = np.empty(acc.shape, np.int64)
        rows, (m64, s64) = _channel_rows(out, m, s)
        # Cast to int64 and multiply in one pass.
        np.multiply(acc.reshape(rows.shape), m64, out=rows, dtype=np.int64,
                    casting="unsafe")
        if bound < 1 << 63:
            rows += np.left_shift(1, s64 - 1)
            rows >>= s64
        else:
            rows >>= s64 - 1
            rows += 1
            rows >>= 1
        if is_float:
            out = out.astype(np.float64)
    if np.all(m <= np.ldexp(1.0, s)):  # exact: m < 2**53, 2**s a power of two
        return out
    return np.clip(out, INT32_MIN, INT32_MAX, out=out)


def activation_clamp(activation: str, out_params: QuantParams) -> tuple[int, int]:
    """Integer clamp bounds for an activation applied in the quantized domain:
    its :func:`activation_range` quantized with ``out_params``, saturated to
    int8.  Real zero is the output zero point itself, where ReLU clamps."""
    lo, hi = activation_range(activation)
    z, scale = out_params.zero_point, out_params.scale
    lo = INT8_MIN if lo == -math.inf else z if lo == 0.0 else int(round_half_up(lo / scale)) + z
    hi = INT8_MAX if hi == math.inf else z if hi == 0.0 else int(round_half_up(hi / scale)) + z
    return max(INT8_MIN, lo), min(INT8_MAX, hi)


def layer_accumulator(x: QTensor, layer: "LayerSpec",
                      b_eff: np.ndarray | None) -> np.ndarray:
    """The pre-rescale values of one layer: window sums for avgpool (which
    ignores ``b_eff``), the int32 MAC plus the effective bias ``b_eff`` for
    weighted layers."""
    if layer.kind == "avgpool":
        return window_sum(x.data, layer.window)
    if layer.kind == "dense":
        return dense_int(x, layer.weights, b_eff)
    if layer.kind == "conv2d":
        return conv2d_int(x, layer.weights, b_eff, layer.stride, layer.padding)
    if layer.kind == "depthwise":
        return depthwise_conv2d_int(x, layer.weights, b_eff, layer.stride, layer.padding)
    raise ShapeError(f"layer kind {layer.kind!r} has no rescale stage")


def accumulator_blocks(x: QTensor, layer: "LayerSpec") -> Iterator[tuple[slice, np.ndarray]]:
    """The layer's pre-rescale values one block of :data:`RESCALE_BLOCK`
    images at a time, as ``(images, accumulator)`` pairs, so that nothing a
    block makes grows with the batch.  The effective bias is computed once.
    An empty batch still gives one (empty) block, so shape errors surface."""
    b_eff = (None if layer.kind == "avgpool"
             else compute_effective_bias(layer.bias, layer.weights, x.zero_point))
    for start in range(0, max(x.data.shape[0], 1), RESCALE_BLOCK):
        block = slice(start, start + RESCALE_BLOCK)
        yield block, layer_accumulator(QTensor(x.data[block], x.qparams), layer, b_eff)


def rescaler_vectors(layer: "LayerSpec") -> tuple[np.ndarray, np.ndarray]:
    """The layer's per-channel multiplicands and shifts as int64 vectors
    (one entry for avgpool)."""
    return (np.array([r.m for r in layer.rescalers], dtype=np.int64),
            np.array([r.s for r in layer.rescalers], dtype=np.int64))


def flatten(x: np.ndarray) -> np.ndarray:
    """(n, ...) -> (n, features), also for an empty batch."""
    return x.reshape(x.shape[0], math.prod(x.shape[1:]))


def output_bounds(layer: "LayerSpec") -> tuple[int, int, int]:
    """The output stage of a rescaled layer: clamp bounds ``(lo, hi)`` and
    the zero point ``z`` added to the rescaled accumulator.  Weighted
    layers clamp to their activation and add their output zero point;
    avgpool clamps to int8 and adds 0, as its window sums already carry the
    zero point."""
    if layer.kind == "avgpool":
        return INT8_MIN, INT8_MAX, 0
    return (*activation_clamp(layer.activation, layer.output), layer.output.zero_point)


def layer_forward_int(x: QTensor, layer: "LayerSpec") -> QTensor:
    """Run one layer of the integer engine at the width its rescalers carry,
    block by block (:func:`accumulator_blocks`): accumulator, rescale, then
    the zero-point add and clamp of :func:`output_bounds`.  avgpool's
    rescaler is the dyadic encoding of 1/area, and its output parameters
    are its input's."""
    if layer.kind == "flatten":
        return QTensor(flatten(x.data), x.qparams)
    m, s = rescaler_vectors(layer)
    # Rescale and clamp each block to [lo - z, hi - z] straight into its
    # int8 slice, then add the zero point z in int8: the cast may wrap, but
    # v + z lies in [lo, hi] inside int8, so the wrapped sum is exact (two's
    # complement).
    lo, hi, z = output_bounds(layer)
    out = None
    for block, acc in accumulator_blocks(x, layer):
        if out is None:
            out = np.empty(x.data.shape[:1] + acc.shape[1:], np.int8)
        np.clip(rescale_accumulator(acc, m, s), lo - z, hi - z,
                out=out[block], casting="unsafe")
    out += np.int8(z)
    return QTensor(out, layer.output)


def run_model_int(model: "ModelGraph", x_q: np.ndarray) -> np.ndarray:
    """Run the integer engine over a pre-quantized int8 input batch and
    return the int8 logits."""
    tensor = QTensor(np.asarray(x_q, dtype=np.int8), model.input_params)
    for layer in model.layers:
        tensor = layer_forward_int(tensor, layer)
    return tensor.data


def predict_int(model: "ModelGraph", images_u8: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Classify uint8 images, ``batch_size`` (>= 1, else DomainError) at a
    time: quantize them with the model's input parameters
    (:func:`quantize_images`), run the engine, argmax (ties to the lowest
    index)."""
    if batch_size < 1:
        raise DomainError(f"batch size must be >= 1, got {batch_size}")
    images = np.asarray(images_u8)
    preds = np.empty(images.shape[0], np.int64)
    for start in range(0, images.shape[0], batch_size):
        x_q = quantize_images(images[start : start + batch_size], model.input_params)
        preds[start : start + batch_size] = np.argmax(run_model_int(model, x_q), axis=1)
    return preds


def check_classes(labels: np.ndarray) -> np.ndarray:
    """``labels`` as an array.  Raises ShapeError unless it is 1-D, and
    DomainError, naming the first index, unless every label is an integer
    in 0..9 (a label of any other dtype is not)."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be one-dimensional, got shape {labels.shape}")
    bad = (np.flatnonzero((labels < 0) | (labels > 9)) if labels.dtype.kind in "iu"
           else np.arange(labels.size))
    if bad.size:
        raise DomainError(f"label {labels[bad[0]]} at index {bad[0]} is not a class 0..9")
    return labels


def check_labels(images: np.ndarray, labels: np.ndarray | None) -> None:
    """Raise ShapeError, naming both counts, unless there is one label per
    image, then apply :func:`check_classes` (labels that are not 1-D fail
    its ShapeError before they are counted)."""
    if labels is None:
        raise ShapeError(f"no labels for {len(images)} images")
    if np.ndim(labels) == 1 and len(images) != len(labels):
        raise ShapeError(f"{len(labels)} labels for {len(images)} images")
    check_classes(labels)


def check_scored(images: np.ndarray, labels: np.ndarray | None) -> None:
    """The rule of every set an accuracy is taken on: :func:`check_labels`,
    then DomainError unless there is at least one image."""
    check_labels(images, labels)
    if len(images) == 0:
        raise DomainError("accuracy of an empty image set")


def evaluate_int(model: "ModelGraph", images_u8: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of the integer engine on a scored set, in percent."""
    check_scored(images_u8, labels)
    preds = predict_int(model, images_u8)
    return 100.0 * float(np.mean(preds == np.asarray(labels)))
