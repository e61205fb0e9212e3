"""Training: float64 emulation of the integer engine with straight-through
gradients, SGD fine-tuning under a fixed rescaler width, and float-mode
baseline training.

The emulated forward runs fake-quantized weights through the engine's own
stages.  It accumulates in float64 over the zero-point-corrected input
``x - z``, which equals the engine's MAC plus effective bias; every partial
sum is an integer below 2**31, so the MAC is exact.  Everything after the
MAC is the engine's code: :func:`kernels.check_envelope` on the MAC and the
bias, then :func:`kernels.rescale_accumulator` (int64) on the accumulator,
with the zero-point add and clamps back in float64.  Its outputs are
therefore bit-identical to the integer engine — training sees precisely
the numbers deployment will produce.

Backward passes use the straight-through estimator: rounding nodes have
derivative one, saturation nodes pass gradient only inside their clamp
range, the rescale node contributes exactly its dyadic factor, and the
weight fake-quantizer passes gradient only while the shadow weight is
within the int8 clamp range.  The forward caches the operand each layer's
weights met; for conv2d that is the im2col matrix ``cols`` of
:func:`kernels.accumulate`, so the conv weight gradient is one matmul
with it and the input gradient one matmul with the weights, scattered
back tap by tap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import floatnet
from .errors import DomainError, ShapeError
from .kernels import (
    INT8_MAX,
    INT8_MIN,
    _channel_rows,
    accumulate,
    activation_clamp,
    check_envelope,
    evaluate_int,
    flatten,
    quantize_real,
    rescale_accumulator,
    rescaler_vectors,
    window_sum,
)
from .model_io import (
    ModelGraph,
    WEIGHTED_KINDS,
    fake_quantize_biases,
    fake_quantize_weights,
    layer_input_params,
    materialize_rescalers,
    redeploy_weights,
)
from .qcore import INT32_MAX, INT32_MIN, QuantParams

_INT32_LO = float(INT32_MIN)
_INT32_HI = float(INT32_MAX)


# ---------------------------------------------------------------------------
# Configuration and shadow state
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Hyperparameters shared by fine-tuning and float baseline training."""

    learning_rate: float = 0.01
    epochs: int = 2
    batch_size: int = 32
    seed: int = 0
    train_bias: bool = True

    def __post_init__(self) -> None:
        if not self.learning_rate >= 0:
            raise DomainError(
                f"learning rate must be non-negative, got {self.learning_rate}")
        if self.batch_size < 1:
            raise DomainError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class ShadowModel:
    """Real-valued copies of a model's integer weights for training.

    Weights and biases are cast directly from the integers (no
    dequantization); quantization parameters and rescalers stay frozen in
    the underlying graph and never change during training.
    """

    graph: ModelGraph
    weights: list[np.ndarray | None]
    biases: list[np.ndarray | None]

    @property
    def k(self) -> int:
        return self.graph.k


def init_shadow(model: ModelGraph) -> ShadowModel:
    weights: list[np.ndarray | None] = []
    biases: list[np.ndarray | None] = []
    for layer in model.layers:
        if layer.kind in WEIGHTED_KINDS:
            weights.append(layer.weights.data.astype(np.float64))
            biases.append(layer.bias.astype(np.float64))
        else:
            weights.append(None)
            biases.append(None)
    return ShadowModel(graph=model, weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# Emulated forward
# ---------------------------------------------------------------------------


def _mac(layer, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, dict]:
    """One layer's multiply-accumulate on the shared kernels core (padding
    with 0), plus the cache entry :func:`ste_backward` runs it backwards
    from.  ``layer`` is a ``LayerSpec`` or a ``floatnet.FloatLayer``."""
    acc, cols, pads = accumulate(x, w, layer.kind, layer.stride, layer.padding)
    return acc, {"kind": layer.kind, "cols": cols, "pads": pads, "in_shape": x.shape,
                 "stride": layer.stride, "w_fq": w}


def _rescale(acc: np.ndarray, m: np.ndarray, s: np.ndarray,
             rounding: bool) -> np.ndarray:
    """The engine's rescale of an exact accumulator, returned in float64;
    without rounding, the smooth surrogate ``acc * M_q`` clipped to int32."""
    if rounding:
        return rescale_accumulator(acc, m, s).astype(np.float64)
    return np.clip(acc * (m / np.exp2(s)), _INT32_LO, _INT32_HI)


def emulated_forward(
    shadow: ShadowModel, x_q: np.ndarray, rounding: bool = True
) -> tuple[np.ndarray, list[dict]]:
    """Emulate the integer engine, bit for bit, with fake-quantized weights.

    ``x_q`` must already be quantized with the model's input parameters.
    Returns the final int8-valued logits and a per-layer cache for
    :func:`ste_backward`.  With ``rounding=False`` the rounding nodes are
    removed (exact multiply by the dyadic factor, no floor): the smooth
    surrogate used for finite-difference checking.
    """
    model = shadow.graph
    x = np.asarray(x_q, dtype=np.float64)
    cache: list[dict] = []
    for idx, layer in enumerate(model.layers):
        if layer.kind == "flatten":
            cache.append({"kind": "flatten", "in_shape": x.shape})
            x = flatten(x)
            continue
        m, s = rescaler_vectors(layer, model.k)

        if layer.kind == "avgpool":
            shifted = _rescale(window_sum(x, layer.window), m, s, rounding)
            cache.append({
                "kind": "avgpool",
                "window": layer.window,
                "in_shape": x.shape,
                "factor": layer.rescalers[0].quantized_value,
                "mask": (shifted >= INT8_MIN) & (shifted <= INT8_MAX),
            })
            x = np.clip(shifted, INT8_MIN, INT8_MAX)
            continue

        # Weighted layer: fake-quantize parameters, MAC, rescale, clamp.
        # In surrogate mode the rounding is removed, leaving only the clamp.
        w_shadow = shadow.weights[idx]
        b_shadow = shadow.biases[idx]
        if rounding:
            w_fq = fake_quantize_weights(w_shadow)
            b_fq = fake_quantize_biases(b_shadow)
        else:
            w_fq = np.clip(w_shadow, INT8_MIN, INT8_MAX)
            b_fq = np.clip(b_shadow, _INT32_LO, _INT32_HI)
        if layer.kind == "dense" and x.ndim != 2:
            raise ShapeError(f"layer {idx}: dense expects a flat batch")
        # The MAC over the zero-point-corrected input is exactly the engine's
        # MAC plus effective bias.
        x = x - layer_input_params(model, idx).zero_point
        acc, entry = _mac(layer, x, w_fq)
        check_envelope(acc, b_fq)
        acc += b_fq

        lo, hi = activation_clamp(layer.activation, layer.output)
        raw = _rescale(acc, m, s, rounding) + layer.output.zero_point
        x = np.clip(raw, lo, hi)
        entry.update(
            w_mask=(w_shadow >= INT8_MIN) & (w_shadow <= INT8_MAX),
            b_mask=(b_shadow >= _INT32_LO) & (b_shadow <= _INT32_HI),
            factor=np.array([r.quantized_value for r in layer.rescalers]),
            mask=(raw >= lo) & (raw <= hi),
        )
        cache.append(entry)
    return x, cache


# ---------------------------------------------------------------------------
# Straight-through backward
# ---------------------------------------------------------------------------


@dataclass
class Gradients:
    weights: list[np.ndarray | None]
    biases: list[np.ndarray | None]


def _through_nodes(g: np.ndarray, mask, factor) -> np.ndarray:
    """The gradient through a clamp node (``mask``) and then a rescale node
    (``factor``: one scalar, or M_q per channel along the last axis, applied
    over channel-tiled rows).  Float training's identity nodes, ``True``
    and ``1.0``, are skipped, so the result may be ``g`` itself; only fresh
    arrays are written in place."""
    if np.ndim(factor) == 0:
        if mask is not True:
            g = g * mask
        return g if factor == 1.0 else g * factor
    g = g * mask  # a fresh array, scaled in place below
    rows, (f_rows,) = _channel_rows(g, factor)
    rows *= f_rows
    return g


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a channels-last array over every axis but the last: its
    channel-tiled rows first, in long loops, then the tiles of one row."""
    rows, _ = _channel_rows(a)
    return rows.sum(axis=0).reshape(-1, a.shape[-1]).sum(axis=0)


def _weight_grad(g: np.ndarray, entry: dict) -> np.ndarray:
    """Gradient of a weighted layer's weights from its accumulator gradient
    and the operand the weights met in the forward."""
    cols, w = entry["cols"], entry["w_fq"]
    if entry["kind"] == "dense":
        return g.T @ cols
    if entry["kind"] == "conv2d":
        return (g.reshape(-1, w.shape[0]).T @ cols).reshape(w.shape)
    # Depthwise: one product per tap with the tap's window slice.
    d_w = np.empty(w.shape)
    prod = np.empty(g.shape)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            np.multiply(g, cols[..., i, j], out=prod)
            d_w[i, j] = _channel_sum(prod)
    return d_w


def _input_grad(g: np.ndarray, entry: dict) -> np.ndarray:
    """Gradient of a weighted layer's input from its accumulator gradient:
    the transposed MAC, scattered back tap by tap over the padded input."""
    w = entry["w_fq"]
    if entry["kind"] == "dense":
        return g @ w
    conv = entry["kind"] == "conv2d"
    k_h, k_w = w.shape[1:3] if conv else w.shape[:2]
    n, oh, ow, o = g.shape
    _, h, w_, c = entry["in_shape"]
    top, bottom, left, right = entry["pads"]
    s_h, s_w = entry["stride"]
    if conv:
        # One matmul gives every tap's columns (col2im scatters them below).
        taps = (g.reshape(-1, o) @ w.reshape(o, -1)).reshape(n, oh, ow, k_h, k_w, c)
    else:
        # Rows of (ow, c) meet the weights tiled to the row's length.
        g_rows = g.reshape(n, oh, ow * c)
        w_rows = np.tile(w, (1, 1, ow))
    dx_pad = np.zeros((n, h + top + bottom, w_ + left + right, c))
    for ky in range(k_h):
        for kx in range(k_w):
            contrib = (taps[:, :, :, ky, kx] if conv
                       else (g_rows * w_rows[ky, kx]).reshape(n, oh, ow, c))
            # Add into the strided slice itself: reshaping it would copy
            # at stride 2 and lose the add.
            dx_pad[:, ky : ky + oh * s_h : s_h, kx : kx + ow * s_w : s_w, :] += contrib
    return dx_pad[:, top : top + h, left : left + w_, :]


def ste_backward(cache: list[dict], grad_out: np.ndarray) -> Gradients:
    """Backpropagate through a cached forward with clipped STE.

    ``cache`` comes from :func:`emulated_forward` or from float training
    and holds everything the pass reads; neither it nor ``grad_out`` is
    written.  ``grad_out`` is the loss gradient with respect to the final
    outputs.  Returns gradients aligned with the cached layers (``None``
    for layers without parameters).  Weight and input gradients of conv2d
    layers are matmuls on the cached im2col matrix; the input gradient of
    layer 0 is never formed.
    """
    d_weights: list[np.ndarray | None] = [None] * len(cache)
    d_biases: list[np.ndarray | None] = [None] * len(cache)
    g = np.asarray(grad_out, dtype=np.float64)
    for idx in range(len(cache) - 1, -1, -1):
        entry = cache[idx]
        kind = entry["kind"]
        if kind == "flatten":
            g = g.reshape(entry["in_shape"])
            continue
        # Clamp node, then rescale node: exactly M_q (per channel for
        # weighted layers).
        g = _through_nodes(g, entry["mask"], entry["factor"])
        if kind == "avgpool":
            w_h, w_w = entry["window"]
            n, oh, ow, c = g.shape
            g = np.broadcast_to(
                g[:, :, None, :, None, :], (n, oh, w_h, ow, w_w, c)
            ).reshape(entry["in_shape"])
            continue

        # Weighted layer.  Fake-quant STE: gradient passes only while the
        # shadow value is inside its clamp range.
        d_weights[idx] = _weight_grad(g, entry) * entry["w_mask"]
        d_biases[idx] = _channel_sum(g) * entry["b_mask"]
        if idx > 0:
            g = _input_grad(g, entry)
    return Gradients(weights=d_weights, biases=d_biases)


# ---------------------------------------------------------------------------
# Loss head
# ---------------------------------------------------------------------------


def softmax_cross_entropy(
    logits_q: np.ndarray, labels: np.ndarray, out_params
) -> tuple[float, np.ndarray]:
    """Real softmax + cross-entropy on dequantized logits.

    Returns the mean loss and its gradient with respect to the integer
    logits (chain rule through ``y_real = scale * (y_q - zero_point)``).
    """
    n = logits_q.shape[0]
    y_real = out_params.scale * (np.asarray(logits_q, dtype=np.float64)
                                 - out_params.zero_point)
    shifted = y_real - y_real.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    eps = np.finfo(np.float64).tiny
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + eps)))
    grad_real = probs.copy()
    grad_real[np.arange(n), labels] -= 1.0
    grad_real /= n
    return loss, out_params.scale * grad_real


# ---------------------------------------------------------------------------
# Weight-change statistics
# ---------------------------------------------------------------------------


@dataclass
class WeightChangeStats:
    """How far retraining moved the deployed integers."""

    changed_ratio: float
    mean_abs_diff: float
    per_layer_histograms: list[dict[int, int]]
    layers_affected: int
    bias_changed_ratio: float

    def summary(self) -> str:
        return (
            f"changed {100 * self.changed_ratio:.4f}% of weights "
            f"(mean |delta| {self.mean_abs_diff:.4f}, "
            f"{self.layers_affected} layers affected, "
            f"bias changed {100 * self.bias_changed_ratio:.4f}%)"
        )


def weight_change_stats(original: ModelGraph, retrained: ModelGraph) -> WeightChangeStats:
    if len(original.layers) != len(retrained.layers):
        raise ShapeError("models have different layer counts")
    total = 0
    changed = 0
    abs_sum = 0
    layers_affected = 0
    histograms: list[dict[int, int]] = []
    bias_total = 0
    bias_changed = 0
    for before, after in zip(original.layers, retrained.layers):
        if before.kind != after.kind:
            raise ShapeError(f"layer kinds differ: {before.kind} vs {after.kind}")
        if before.kind not in WEIGHTED_KINDS:
            continue
        if before.weights.data.shape != after.weights.data.shape:
            raise ShapeError("weight shapes differ")
        delta = after.weights.data.astype(np.int64) - before.weights.data.astype(np.int64)
        values, counts = np.unique(delta[delta != 0], return_counts=True)
        hist = {int(v): int(c) for v, c in zip(values, counts)}
        histograms.append(hist)
        total += delta.size
        layer_changed = int(np.count_nonzero(delta))
        changed += layer_changed
        abs_sum += int(np.abs(delta).sum())
        if layer_changed:
            layers_affected += 1
        b_delta = after.bias.astype(np.int64) - before.bias.astype(np.int64)
        bias_total += b_delta.size
        bias_changed += int(np.count_nonzero(b_delta))
    return WeightChangeStats(
        changed_ratio=changed / total if total else 0.0,
        mean_abs_diff=abs_sum / changed if changed else 0.0,
        per_layer_histograms=histograms,
        layers_affected=layers_affected,
        bias_changed_ratio=bias_changed / bias_total if bias_total else 0.0,
    )


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float


@dataclass
class FinetuneResult:
    model: ModelGraph
    stats: WeightChangeStats
    history: list[EpochRecord] = field(default_factory=list)


def finetune(
    model: ModelGraph,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    cfg: TrainConfig,
    k: int,
    eval_images: np.ndarray | None = None,
    eval_labels: np.ndarray | None = None,
) -> FinetuneResult:
    """Rescale-aware fine-tuning at width ``k`` with plain SGD.

    Shadow weights start as exact copies of the integers; every forward
    pass is the bit-exact emulation of the integer engine; after each epoch
    the shadow is re-deployed (rounded back to integers) and evaluated.
    Quantization parameters and rescalers never change.
    """
    base = materialize_rescalers(model, k) if model.k != k else model
    shadow = init_shadow(base)
    rng = np.random.default_rng(cfg.seed)
    images = np.asarray(train_images)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    labels = np.asarray(train_labels)
    history: list[EpochRecord] = []
    current = base
    for epoch in range(cfg.epochs):
        order = rng.permutation(images.shape[0])
        losses = []
        for start in range(0, images.shape[0], cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            x_q = quantize_real(images[sel].astype(np.float64) / 255.0,
                                base.input_params)
            logits, cache = emulated_forward(shadow, x_q)
            loss, grad = softmax_cross_entropy(logits, labels[sel],
                                               base.layers[-1].output)
            grads = ste_backward(cache, grad)
            for i in range(len(shadow.weights)):
                if grads.weights[i] is None:
                    continue
                shadow.weights[i] -= cfg.learning_rate * grads.weights[i]
                if cfg.train_bias:
                    shadow.biases[i] -= cfg.learning_rate * grads.biases[i]
            losses.append(loss)
        current = redeploy_weights(base, shadow)
        accuracy = (
            evaluate_int(current, eval_images, eval_labels)
            if eval_images is not None
            else math.nan
        )
        history.append(EpochRecord(epoch=epoch + 1,
                                   loss=float(np.mean(losses)) if losses else math.nan,
                                   accuracy=accuracy))
    if cfg.epochs == 0:
        current = redeploy_weights(base, shadow)
    stats = weight_change_stats(base, current)
    return FinetuneResult(model=current, stats=stats, history=history)


# ---------------------------------------------------------------------------
# Float baseline training
# ---------------------------------------------------------------------------


def _float_forward(model, x: np.ndarray) -> tuple[np.ndarray, list[dict]]:
    """The float network's forward along ``floatnet.LAYERS``, leaving the
    cache :func:`ste_backward` reads.  Nothing is quantized: every weight
    is its own fake-quantized value, pads are real zero, rescale factors
    are 1 (1/area for avgpool), and ReLU6 passes gradient where 0 < h < 6.
    """
    cache: list[dict] = []
    for layer in floatnet.LAYERS:
        if layer.kind == "flatten":
            cache.append({"kind": "flatten", "in_shape": x.shape})
            x = flatten(x)
        elif layer.kind == "avgpool":
            area = layer.window[0] * layer.window[1]
            cache.append({"kind": "avgpool", "window": layer.window, "in_shape": x.shape,
                          "factor": 1.0 / area, "mask": True})
            x = floatnet.avgpool_real(x, layer.window)
        else:
            w, b = floatnet.layer_params(model, layer)
            h, entry = _mac(layer, x, w)
            h = h + b
            relu6 = layer.activation == "relu6"
            entry.update(w_mask=True, b_mask=True, factor=1.0,
                         mask=(h > 0.0) & (h < 6.0) if relu6 else True)
            x = floatnet.relu6(h) if relu6 else h
            cache.append(entry)
    return x, cache


def train_float(
    train_images: np.ndarray,
    train_labels: np.ndarray,
    cfg: TrainConfig,
    eval_images: np.ndarray | None = None,
    eval_labels: np.ndarray | None = None,
):
    """Train the float reference network from scratch with plain SGD.

    Deterministic for a fixed config: initialization, batch order, and all
    arithmetic depend only on the seed and the data.  Returns the trained
    float model and a per-epoch history of (loss, accuracy) records, where
    accuracy is the float model's own top-1 on the eval set.
    """
    model = floatnet.init_float_model(seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    images = np.asarray(train_images)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    x_all = images.astype(np.float64) / 255.0
    labels = np.asarray(train_labels)
    real_logits = QuantParams(scale=1.0)  # float logits are already real
    history: list[EpochRecord] = []
    for epoch in range(cfg.epochs):
        # Halve the step size each epoch after the second so the weights
        # settle instead of orbiting the optimum.
        lr = cfg.learning_rate * 0.5 ** max(0, epoch - 1)
        order = rng.permutation(x_all.shape[0])
        losses = []
        for start in range(0, x_all.shape[0], cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            logits, cache = _float_forward(model, x_all[sel])
            loss, grad = softmax_cross_entropy(logits, labels[sel], real_logits)
            grads = ste_backward(cache, grad)
            for layer, d_w, d_b in zip(floatnet.LAYERS, grads.weights, grads.biases):
                if layer.param is not None:
                    w, b = floatnet.layer_params(model, layer)
                    setattr(model, f"{layer.param}_w", w - lr * d_w)
                    setattr(model, f"{layer.param}_b", b - lr * d_b)
            losses.append(loss)
        accuracy = math.nan
        if eval_images is not None:
            accuracy = float_accuracy(model, eval_images, eval_labels)
        history.append(EpochRecord(epoch=epoch + 1,
                                   loss=float(np.mean(losses)) if losses else math.nan,
                                   accuracy=accuracy))
    return model, history


def float_accuracy(model, images_u8: np.ndarray, labels: np.ndarray,
                   batch_size: int = 512) -> float:
    """Top-1 accuracy of the float network on uint8 images, in percent."""
    images = np.asarray(images_u8)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    hits = 0
    for start in range(0, images.shape[0], batch_size):
        chunk = images[start : start + batch_size].astype(np.float64) / 255.0
        logits = floatnet.forward(model, chunk)
        hits += int(np.sum(np.argmax(logits, axis=1) ==
                           labels[start : start + batch_size]))
    return 100.0 * hits / images.shape[0]
