"""Training: emulation of the integer engine with straight-through
gradients, SGD fine-tuning under a fixed rescaler width, and float-mode
baseline training.

The emulated forward runs fake-quantized weights through the engine's own
stages.  It accumulates over the zero-point-corrected input ``x - z``,
which equals the engine's MAC plus effective bias.  Every value it
handles is an integer, so each stage runs in the float type
:func:`kernels.exact_float_type` proves exact from a static bound: the
int8 activations, ``x - z`` (``|x - z| <= 255``) and avgpool's window
sums in float32; the MAC and the bias add in float32 while the layer's
:func:`kernels.accumulator_bound` (``max(127 - z, z + 128) * sum|w_c| +
|b_c|`` at its largest channel) is <= 2**24, as it is on every layer of
desk-cnn-v1.  Everything after the MAC is the engine's code, one path
for weighted layers and avgpool alike: :func:`kernels.add_bias` (the
envelope check and the bias add), then
:func:`kernels.rescale_accumulator` (``floor(acc * M_q + 0.5)``, in
float32 while ``reach * max(m) + 2**(max(s)-1) <= 2**24``, in float64 to
2**53, in int64 past that), then the zero-point add and clamp of
:func:`kernels.output_bounds`.  Its outputs are therefore bit-identical to
the integer engine — training sees precisely the numbers deployment will
produce.  The smooth surrogate (``rounding=False``) handles real values
and stays in float64.

Backward passes use the straight-through estimator: rounding nodes have
derivative one, saturation nodes pass gradient only inside their clamp
range, the rescale node contributes exactly its dyadic factor, and the
weight fake-quantizer passes gradient only while the shadow weight is
within the int8 clamp range.  The backward runs in float64.  The forward
caches the operand each layer's weights met; for conv2d that is the
im2col matrix ``cols`` of :func:`kernels.accumulate`, so the conv weight
gradient is one matmul with it and the input gradient one matmul with the
weights, scattered back tap by tap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import floatnet
from .errors import DomainError, ShapeError
from .kernels import (
    INT8_MAX,
    INT8_MIN,
    _channel_rows,
    accumulate,
    accumulator_bound,
    add_bias,
    check_labels,
    check_scored,
    dequantize_real,
    evaluate_int,
    flatten,
    output_bounds,
    quantize_images,
    rescale_accumulator,
    rescaler_vectors,
    unit_images,
    window_bound,
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

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise DomainError(f"{name} must be an int, got {value!r}")
        lr = self.learning_rate
        if (not isinstance(lr, numbers.Real) or isinstance(lr, bool)
                or not (math.isfinite(lr) and lr >= 0)):
            raise DomainError(f"learning rate must be a finite real >= 0, got {lr!r}")
        if self.batch_size < 1:
            raise DomainError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


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


def _mac_entry(layer, in_shape, w: np.ndarray, cols, pads) -> dict:
    """The cache entry :func:`ste_backward` runs a weighted layer backwards
    from: the operand ``cols`` the weights ``w`` met and the ``pads`` of
    :func:`kernels.accumulate`.  ``layer`` is a ``LayerSpec`` or a
    ``floatnet.FloatLayer``."""
    return {"kind": layer.kind, "cols": cols, "pads": pads, "in_shape": in_shape,
            "stride": layer.stride, "w_fq": w}


def emulated_forward(
    shadow: ShadowModel, x_q: np.ndarray, rounding: bool = True
) -> tuple[np.ndarray, list[dict]]:
    """Emulate the integer engine, bit for bit, with fake-quantized weights.

    ``x_q`` must already be quantized with the model's input parameters.
    Returns the final int8-valued logits (float32, float64 for the
    surrogate) and a per-layer cache for :func:`ste_backward`.  With ``rounding=False`` the rounding nodes are
    removed (exact multiply by the dyadic factor, no floor): the smooth
    surrogate used for finite-difference checking.
    """
    model = shadow.graph
    # int8-valued activations are exact in float32; the surrogate's are real.
    act = np.float32 if rounding else np.float64
    x = np.asarray(x_q, dtype=act)
    cache: list[dict] = []
    for idx, layer in enumerate(model.layers):
        if layer.kind == "flatten":
            cache.append({"kind": "flatten", "in_shape": x.shape})
            x = flatten(x)
            continue
        if layer.kind == "avgpool":
            acc = window_sum(x, layer.window)
            reach = window_bound(layer.window)
            entry = {"kind": "avgpool", "window": layer.window, "in_shape": x.shape}
        else:
            # Fake-quantize the parameters; in surrogate mode the rounding
            # is removed, leaving only the clamp.
            w_shadow = shadow.weights[idx]
            b_shadow = shadow.biases[idx]
            z = layer_input_params(model, idx).zero_point
            if rounding:
                w_fq = fake_quantize_weights(w_shadow)
                b_fq = fake_quantize_biases(b_shadow)
                reach = int(accumulator_bound(w_fq, b_fq, z).max(initial=0))
            else:
                w_fq = np.clip(w_shadow, INT8_MIN, INT8_MAX)
                b_fq = np.clip(b_shadow, _INT32_LO, _INT32_HI)
                reach = None
            # The MAC over the zero-point-corrected input (padded with 0,
            # in the float type ``reach`` allows) is exactly the engine's
            # MAC plus effective bias.
            acc, cols, pads = accumulate(x - z, w_fq, layer.kind, layer.stride,
                                         layer.padding, bound=reach)
            entry = _mac_entry(layer, x.shape, w_fq, cols, pads)
            acc = add_bias(acc, b_fq, reach)
            entry.update(w_mask=(w_shadow >= INT8_MIN) & (w_shadow <= INT8_MAX),
                         b_mask=(b_shadow >= _INT32_LO) & (b_shadow <= _INT32_HI))
        # The engine's rescale, or the smooth surrogate ``acc * M_q``
        # clipped to int32; then its zero-point add and clamp, exact in the
        # rescale's type (its values lie in int32, or within 2**23 in
        # float32), and the clamped int8 values in the activations' type.
        m, s = rescaler_vectors(layer)
        factor = m / np.exp2(s)
        raw = (rescale_accumulator(acc, m, s, reach) if rounding
               else np.clip(acc * factor, _INT32_LO, _INT32_HI))
        lo, hi, z = output_bounds(layer)
        raw += z
        x = np.clip(raw, lo, hi)
        entry.update(factor=factor, mask=x == raw)  # inside the clamp range
        x = x.astype(act, copy=False)
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
    (``factor``: one scalar, or M_q per channel along the last axis, one
    entry for avgpool, applied over channel-tiled rows).  Float training's
    identity nodes, ``True`` and ``1.0``, are skipped, so the result may be
    ``g`` itself; only fresh arrays are written in place."""
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
    if entry["kind"] != "depthwise":
        # The emulation caches float32 operands; widened with their layout
        # kept, they meet the same dgemm as float64 ones and give its bits.
        cols = cols.astype(np.float64, order="K", copy=False)
    if entry["kind"] == "dense":
        return g.T @ cols
    if entry["kind"] == "conv2d":
        return (g.reshape(-1, w.shape[0]).T @ cols).reshape(w.shape)
    # Depthwise: one product per tap with the tap's window slice, in float64.
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
        # Rows of (ow, c) meet the weights tiled to the row's length, each
        # tap's product written into one reused buffer.
        g_rows = g.reshape(n, oh, ow * c)
        w_rows = np.tile(w, (1, 1, ow))
        prod = np.empty(g_rows.shape)
    dx_pad = np.zeros((n, h + top + bottom, w_ + left + right, c))
    for ky in range(k_h):
        for kx in range(k_w):
            contrib = (taps[:, :, :, ky, kx] if conv else
                       np.multiply(g_rows, w_rows[ky, kx], out=prod).reshape(n, oh, ow, c))
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
        # Clamp node, then rescale node: exactly M_q per channel.
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
    y_real = dequantize_real(logits_q, out_params)
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
# Training: one SGD loop for fine-tuning and float baseline training
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float


def _sgd(forward, weights, biases, labels, batch_size, rates, rng, out_params,
         evaluate) -> list[EpochRecord]:
    """Plain SGD over shuffled batches, one epoch per learning rate.

    ``forward(sel)`` runs the batch of sample indices ``sel`` and returns
    logits (dequantized with ``out_params``) and the cache
    :func:`ste_backward` reads; ``weights`` and ``biases`` are aligned with
    that cache and updated in place.  ``evaluate()`` gives each epoch's
    accuracy, or is ``None`` to record NaN.
    """
    history: list[EpochRecord] = []
    for epoch, lr in enumerate(rates):
        order = rng.permutation(len(labels))
        losses = []
        for start in range(0, len(labels), batch_size):
            sel = order[start : start + batch_size]
            logits, cache = forward(sel)
            loss, grad = softmax_cross_entropy(logits, labels[sel], out_params)
            grads = ste_backward(cache, grad)
            for w, b, d_w, d_b in zip(weights, biases, grads.weights, grads.biases):
                if d_w is not None:
                    w -= lr * d_w
                    b -= lr * d_b
            losses.append(loss)
        history.append(EpochRecord(epoch=epoch + 1,
                                   loss=float(np.mean(losses)) if losses else math.nan,
                                   accuracy=evaluate() if evaluate else math.nan))
    return history


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
    pass is the bit-exact emulation of the integer engine.  With an eval
    set, the shadow is re-deployed (rounded back to integers) and evaluated
    after each epoch; it is re-deployed once more at the end to give the
    result.  Quantization parameters and rescalers never change.  Image and
    label counts that differ raise ShapeError; an empty eval set, DomainError.
    """
    check_labels(train_images, train_labels)
    if eval_images is not None:
        check_scored(eval_images, eval_labels)
    base = materialize_rescalers(model, k)
    shadow = init_shadow(base)
    images = np.asarray(train_images)

    def forward(sel):
        return emulated_forward(shadow, quantize_images(images[sel], base.input_params))

    def evaluate():
        return evaluate_int(redeploy_weights(base, shadow), eval_images, eval_labels)

    history = _sgd(forward, shadow.weights, shadow.biases, np.asarray(train_labels),
                   cfg.batch_size, [cfg.learning_rate] * cfg.epochs,
                   np.random.default_rng(cfg.seed), base.layers[-1].output,
                   evaluate if eval_images is not None else None)
    current = redeploy_weights(base, shadow)
    return FinetuneResult(model=current, stats=weight_change_stats(base, current),
                          history=history)


# ---------------------------------------------------------------------------
# Float baseline training
# ---------------------------------------------------------------------------


def _float_forward(model, x: np.ndarray) -> tuple[np.ndarray, list[dict]]:
    """The float network's forward along ``floatnet.LAYERS``, one
    :func:`floatnet.layer_step` per layer, leaving the cache
    :func:`ste_backward` reads.  Nothing is quantized: every weight is its
    own fake-quantized value, pads are real zero, rescale factors are 1
    (1/area for avgpool), and the activation's mask is where it passes
    gradient (ReLU where h > 0, ReLU6 where 0 < h < 6).
    """
    cache: list[dict] = []
    for layer, (w, b) in zip(floatnet.LAYERS, floatnet.model_params(model)):
        in_shape = x.shape
        x, cols, pads, mask = floatnet.layer_step(layer, x, w, b, with_mask=True)
        if layer.kind == "flatten":
            cache.append({"kind": "flatten", "in_shape": in_shape})
        elif layer.kind == "avgpool":
            area = layer.window[0] * layer.window[1]
            cache.append({"kind": "avgpool", "window": layer.window, "in_shape": in_shape,
                          "factor": 1.0 / area, "mask": True})
        else:
            entry = _mac_entry(layer, in_shape, w, cols, pads)
            entry.update(w_mask=True, b_mask=True, factor=1.0, mask=mask)
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
    accuracy is the float model's own top-1 on the eval set.  Image and
    label counts that differ raise ShapeError; an empty eval set, DomainError.
    """
    check_labels(train_images, train_labels)
    if eval_images is not None:
        check_scored(eval_images, eval_labels)
    model = floatnet.init_float_model(seed=cfg.seed)
    images = np.asarray(train_images)
    weights, biases = zip(*floatnet.model_params(model))
    # Halve the step size each epoch after the second so the weights
    # settle instead of orbiting the optimum.
    rates = [cfg.learning_rate * 0.5 ** max(0, epoch - 1) for epoch in range(cfg.epochs)]
    history = _sgd(lambda sel: _float_forward(model, unit_images(images[sel])),
                   weights, biases, np.asarray(train_labels), cfg.batch_size, rates,
                   np.random.default_rng(cfg.seed + 1),
                   QuantParams(scale=1.0),  # float logits are already real
                   (lambda: float_accuracy(model, eval_images, eval_labels))
                   if eval_images is not None else None)
    return model, history


def float_accuracy(model, images_u8: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of the float network on a scored set of uint8 or unit
    images, in percent."""
    check_scored(images_u8, labels)
    hits = int(np.sum(np.argmax(floatnet.forward(model, images_u8), axis=1) == labels))
    return 100.0 * hits / len(images_u8)
