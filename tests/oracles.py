"""Independent reference implementations used to check the library.

Everything here is deliberately written on a different route than the
code under test: arbitrary-precision integers and fractions instead of
shifts, exhaustive search instead of bit extraction, and plain nested
loops instead of vectorized kernels.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rescale_lab import floatnet
from rescale_lab.errors import OverflowEnvelopeError
from rescale_lab.kernels import (accumulate, evaluate_int, output_bounds, quantize_real,
                                 window_sum)
from rescale_lab.model_io import (fake_quantize_biases, fake_quantize_weights,
                                  layer_input_params, materialize_rescalers,
                                  redeploy_weights)
from rescale_lab.qcore import QuantParams
from rescale_lab.trainer import (_float_forward, emulated_forward, init_shadow,
                                 softmax_cross_entropy, ste_backward)

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def oracle_rescale(x: int, m: int, s: int) -> int:
    """Round-half-up of ``x * m / 2**s`` via divmod, saturated to int32."""
    q, r = divmod(x * m, 1 << s)  # Python divmod: 0 <= r < 2**s for any sign
    result = q + (1 if r >= (1 << (s - 1)) else 0)
    return max(INT32_MIN, min(INT32_MAX, result))


def oracle_round_half_up(value: Fraction) -> int:
    """Exact round-half-up (toward +inf) of a rational number."""
    q, r = divmod(value.numerator, value.denominator)
    return q + (1 if 2 * r >= value.denominator else 0)


def oracle_best_dyadic(value: float, k: int, max_shift: int = 56) -> tuple[int, int]:
    """Exhaustive search for the largest ``m * 2**-s <= value`` with a k-bit
    leading-1 multiplicand.  Returns ``(m, s)``; ties resolved to the smaller
    shift so the winner is unique by value."""
    target = Fraction(value)
    best: tuple[Fraction, int, int] | None = None
    for s in range(1, max_shift + 1):
        # Largest m with m / 2**s <= value, clipped into the leading-1 band.
        m = (target.numerator << s) // target.denominator
        m = min(m, (1 << k) - 1)
        if m < (1 << (k - 1)):
            continue
        candidate = Fraction(m, 1 << s)
        if candidate <= target and (best is None or candidate > best[0]):
            best = (candidate, m, s)
    assert best is not None, f"no k={k} dyadic under {value}"
    return best[1], best[2]


def oracle_decompose(value: float) -> tuple[float, int]:
    """Normalize into [1, 2) by repeated doubling; returns (fraction, exponent)."""
    exponent = 0
    scaled = value
    while scaled < 1.0:
        scaled *= 2.0  # exact: power-of-two scaling
        exponent -= 1
    return scaled - 1.0, exponent


def oracle_dense(x, w, b_eff):
    """Nested-loop integer dense layer over Python ints."""
    n, d = x.shape
    c = w.shape[0]
    out = [[0] * c for _ in range(n)]
    for i in range(n):
        for j in range(c):
            acc = int(b_eff[j])
            for t in range(d):
                acc += int(x[i, t]) * int(w[j, t])
            out[i][j] = acc
    return np.array(out, dtype=np.int64)


def oracle_conv2d(x, w, b_eff, stride, pad_top, pad_left, out_h, out_w, pad_value):
    """Nested-loop integer conv2d, NHWC input and OHWI weights."""
    n, in_h, in_w, in_c = x.shape
    out_c, k_h, k_w, _ = w.shape
    s_h, s_w = stride
    out = np.zeros((n, out_h, out_w, out_c), dtype=np.int64)
    for i in range(n):
        for oy in range(out_h):
            for ox in range(out_w):
                for oc in range(out_c):
                    acc = int(b_eff[oc])
                    for ky in range(k_h):
                        for kx in range(k_w):
                            iy = oy * s_h + ky - pad_top
                            ix = ox * s_w + kx - pad_left
                            inside = 0 <= iy < in_h and 0 <= ix < in_w
                            for ic in range(in_c):
                                v = int(x[i, iy, ix, ic]) if inside else int(pad_value)
                                acc += v * int(w[oc, ky, kx, ic])
                    out[i, oy, ox, oc] = acc
    return out


def oracle_im2col(x, k_h, k_w, stride, pads, pad_value):
    """The conv2d im2col matrix (n*oh*ow, kh*kw*c), columns in (kh, kw, c)
    order, by the route the engine took before tap-major planes: the
    padded input's window view transposed to (n, oh, ow, kh, kw, c) and
    reshaped row by row."""
    top, bottom, left, right = pads
    x_pad = np.pad(x, ((0, 0), (top, bottom), (left, right), (0, 0)),
                   constant_values=pad_value)
    windows = sliding_window_view(x_pad, (k_h, k_w), axis=(1, 2))
    windows = windows[:, :: stride[0], :: stride[1]]
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k_h * k_w * x.shape[3])


def oracle_depthwise(x, w, b_eff, stride, pad_top, pad_left, out_h, out_w, pad_value):
    """Nested-loop integer depthwise conv, NHWC input and HWC weights."""
    n, in_h, in_w, channels = x.shape
    k_h, k_w, _ = w.shape
    s_h, s_w = stride
    out = np.zeros((n, out_h, out_w, channels), dtype=np.int64)
    for i in range(n):
        for oy in range(out_h):
            for ox in range(out_w):
                for c in range(channels):
                    acc = int(b_eff[c])
                    for ky in range(k_h):
                        for kx in range(k_w):
                            iy = oy * s_h + ky - pad_top
                            ix = ox * s_w + kx - pad_left
                            if 0 <= iy < in_h and 0 <= ix < in_w:
                                v = int(x[i, iy, ix, c])
                            else:
                                v = int(pad_value)
                            acc += v * int(w[ky, kx, c])
                    out[i, oy, ox, c] = acc
    return out


def oracle_avgpool(x, window, m: int, s: int):
    """Nested-loop window-sum average using the oracle rescale."""
    n, in_h, in_w, channels = x.shape
    w_h, w_w = window
    out_h, out_w = in_h // w_h, in_w // w_w
    out = np.zeros((n, out_h, out_w, channels), dtype=np.int64)
    for i in range(n):
        for oy in range(out_h):
            for ox in range(out_w):
                for c in range(channels):
                    total = 0
                    for ky in range(w_h):
                        for kx in range(w_w):
                            total += int(x[i, oy * w_h + ky, ox * w_w + kx, c])
                    out[i, oy, ox, c] = max(-128, min(127, oracle_rescale(total, m, s)))
    return out


def _oracle_float_layers(model, layers, x, tensors):
    """Walk ``layers`` from ``x``, keeping each output in ``tensors`` under
    the layer's name."""
    for layer in layers:
        if layer.kind == "avgpool":
            x = window_sum(x, layer.window) / (layer.window[0] * layer.window[1])
        elif layer.kind == "flatten":
            x = x.reshape(x.shape[0], math.prod(x.shape[1:]))
        else:
            w, b = floatnet.layer_params(model, layer)
            x = accumulate(x, w, layer.kind, layer.stride, layer.padding)[0] + b
            if layer.activation == "relu6":
                x = np.clip(x, 0.0, 6.0)
        tensors[layer.name] = x


def oracle_float_forward(model, x) -> dict:
    """Every tensor of the float network, keyed as
    ``floatnet.forward_intermediates`` keys its ranges, from a walk of
    ``floatnet.LAYERS``: each weighted layer's MAC on the shared core, then
    a fresh ``acc + b`` and ``np.clip`` for ReLU6; avgpool as window sums
    over the area.  The layers up to flatten walk one image at a time,
    whose conv matmuls BLAS runs on one thread, and the dense layer the
    whole batch.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[..., np.newaxis]
    tensors = {"input": x}
    if x.shape[0] == 0:
        _oracle_float_layers(model, floatnet.LAYERS, x, tensors)
        return tensors
    flat = next(i for i, layer in enumerate(floatnet.LAYERS) if layer.kind == "flatten")
    images = [{} for _ in range(x.shape[0])]
    for i, image in enumerate(images):
        _oracle_float_layers(model, floatnet.LAYERS[:flat + 1], x[i:i + 1], image)
    for layer in floatnet.LAYERS[:flat + 1]:
        tensors[layer.name] = np.concatenate([image[layer.name] for image in images])
    _oracle_float_layers(model, floatnet.LAYERS[flat + 1:], tensors["flat"], tensors)
    return tensors


def oracle_emulated_forward(shadow, x_q):
    """The rounding emulation in float64 throughout, the route the trainer
    took before it ran in float32 where exact: float64 activations, the
    float64 MAC over ``x - z``, the bias added after an exact int32 envelope
    check, and each rescale by :func:`oracle_rescale` in Python ints.
    Returns the float64 logits and a cache in the layout of
    ``trainer.emulated_forward``."""
    model = shadow.graph
    x = np.asarray(x_q, dtype=np.float64)
    cache = []
    for idx, layer in enumerate(model.layers):
        if layer.kind == "flatten":
            cache.append({"kind": "flatten", "in_shape": x.shape})
            x = x.reshape(x.shape[0], -1)
            continue
        if layer.kind == "avgpool":
            acc = window_sum(x, layer.window)
            entry = {"kind": "avgpool", "window": layer.window, "in_shape": x.shape}
        else:
            w_shadow, b_shadow = shadow.weights[idx], shadow.biases[idx]
            w_fq = fake_quantize_weights(w_shadow)
            x = x - layer_input_params(model, idx).zero_point
            acc, cols, pads = accumulate(x, w_fq, layer.kind, layer.stride, layer.padding)
            acc = acc + fake_quantize_biases(b_shadow)
            if np.any(acc < INT32_MIN) or np.any(acc > INT32_MAX):
                raise OverflowEnvelopeError("accumulator left the int32 envelope")
            entry = {"kind": layer.kind, "cols": cols, "pads": pads, "in_shape": x.shape,
                     "stride": layer.stride, "w_fq": w_fq,
                     "w_mask": (w_shadow >= -128) & (w_shadow <= 127),
                     "b_mask": (b_shadow >= INT32_MIN) & (b_shadow <= INT32_MAX)}
        m = np.array([r.m for r in layer.rescalers])
        s = np.array([r.s for r in layer.rescalers])
        channel = np.broadcast_to(np.arange(acc.shape[-1]) % len(m), acc.shape)
        raw = np.array([float(oracle_rescale(int(a), int(m[c]), int(s[c])))
                        for a, c in zip(acc.ravel(), channel.ravel())]).reshape(acc.shape)
        lo, hi, z = output_bounds(layer)
        raw += z
        x = np.clip(raw, lo, hi)
        entry.update(factor=m / np.exp2(s), mask=x == raw)
        cache.append(entry)
    return x, cache


def oracle_error_report(model, probes):
    """The fields of ``errmodel.model_error_report`` for every rescaled layer
    of ``model``, with the whole uint8 probe batch at once: the route the
    report took before the engine worked in blocks.  Each layer's
    accumulator is the float64 MAC over ``x - z`` plus the bias (the
    emulation's route; window sums for avgpool) over the whole batch, its
    peak one reduction, and the next layer's input the whole tensor
    rescaled in Python ints (``floor((acc*m + 2**(s-1)) / 2**s)``) and
    clamped.  The mismatch bound and the safe flag are exact rationals.
    Returns one dict of fields per rescaled layer."""
    images = np.asarray(probes)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    x = quantize_real(images.astype(np.float64) / 255.0, model.input_params)
    x = x.astype(np.int64)
    reports = []
    for idx, layer in enumerate(model.layers):
        if layer.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
            continue
        if layer.kind == "avgpool":
            acc = window_sum(x, layer.window)
            analytic = [128 * layer.window[0] * layer.window[1]] * len(layer.rescalers)
        else:
            z = layer_input_params(model, idx).zero_point
            w = layer.weights.data.astype(np.float64)
            acc, _, _ = accumulate((x - z).astype(np.float64), w, layer.kind,
                                   layer.stride, layer.padding)
            acc = (acc + layer.bias).astype(np.int64)
            reach = max(127 - z, z + 128)
            taps = [a for a in range(w.ndim) if a != (2 if w.ndim == 3 else 0)]
            analytic = [reach * int(t) + abs(int(b)) for t, b in
                        zip(np.abs(layer.weights.data.astype(np.int64)).sum(axis=tuple(taps)),
                            layer.bias)]
        rescalers = layer.rescalers
        peak = np.abs(acc).reshape(-1, len(rescalers)).max(axis=0)
        m_q = [Fraction(r.m, 1 << r.s) for r in rescalers]
        excess = [abs(q - Fraction(r.real_value)) * int(a)
                  for q, r, a in zip(m_q, rescalers, peak)]
        s_y = layer.output.scale
        reports.append({
            "layer_id": idx, "kind": layer.kind, "k": rescalers[0].k, "s_y": s_y,
            "m_real": np.array([r.real_value for r in rescalers]),
            "m_quantized": np.array([float(q) for q in m_q]),
            "mismatch": np.array([float(abs(q - Fraction(r.real_value)))
                                  for q, r in zip(m_q, rescalers)]),
            "max_abs_acc": peak,
            "analytic_max_abs_acc": np.array(analytic, dtype=np.int64),
            "mismatch_bound": np.array([float(e * Fraction(s_y)) for e in excess]),
            "rounding_floor": s_y / 2,
            "safe": np.array([e <= Fraction(1, 2) for e in excess]),
        })
        m = np.array([r.m for r in rescalers], dtype=object)
        s = np.array([r.s for r in rescalers], dtype=object)
        half = np.array([1 << (r.s - 1) for r in rescalers], dtype=object)
        y = (acc.astype(object) * m + half) // (2 ** s)
        y = np.clip(y, INT32_MIN, INT32_MAX)
        lo, hi, z_out = output_bounds(layer)
        x = np.clip(y + z_out, lo, hi).astype(np.int64)
    return reports


def oracle_ste_backward(cache, grad_out):
    """Straight-through backward by einsums over (n, oh, ow, ...) window
    views, with per-tap einsums scattering the input gradients: the route
    the trainer took before its matmul backward.  Reads the cache of
    ``trainer.emulated_forward`` (conv2d's ``cols`` is the im2col matrix)
    and returns ``(weight_grads, bias_grads)`` aligned with it."""
    d_weights = [None] * len(cache)
    d_biases = [None] * len(cache)
    g = np.asarray(grad_out, dtype=np.float64)
    for idx in range(len(cache) - 1, -1, -1):
        entry = cache[idx]
        kind = entry["kind"]
        if kind == "flatten":
            g = g.reshape(entry["in_shape"])
            continue
        g = g * entry["mask"] * entry["factor"]
        if kind == "avgpool":
            w_h, w_w = entry["window"]
            n, oh, ow, c = g.shape
            g = np.broadcast_to(g[:, :, None, :, None, :],
                                (n, oh, w_h, ow, w_w, c)).reshape(entry["in_shape"])
            continue
        w = entry["w_fq"]
        d_biases[idx] = g.sum(axis=tuple(range(g.ndim - 1))) * entry["b_mask"]
        if kind == "dense":
            d_weights[idx] = np.einsum("no,nd->od", g, entry["cols"]) * entry["w_mask"]
            g = np.einsum("no,od->nd", g, w)
            continue
        n, oh, ow, _ = g.shape
        _, h, w_in, c = entry["in_shape"]
        top, bottom, left, right = entry["pads"]
        s_h, s_w = entry["stride"]
        if kind == "conv2d":
            o, k_h, k_w, _ = w.shape
            windows = entry["cols"].reshape(n, oh, ow, k_h, k_w, c)
            d_w = np.einsum("nhwo,nhwklc->oklc", g, windows)
        else:
            k_h, k_w, _ = w.shape
            d_w = np.einsum("nhwc,nhwckl->klc", g, entry["cols"])
        d_weights[idx] = d_w * entry["w_mask"]
        dx_pad = np.zeros((n, h + top + bottom, w_in + left + right, c))
        for ky in range(k_h):
            for kx in range(k_w):
                contrib = (np.einsum("nhwo,oc->nhwc", g, w[:, ky, kx, :])
                           if kind == "conv2d" else g * w[ky, kx, :])
                dx_pad[:, ky : ky + oh * s_h : s_h, kx : kx + ow * s_w : s_w, :] += contrib
        g = dx_pad[:, top : top + h, left : left + w_in, :]
    return d_weights, d_biases


def oracle_stroke_ink(segs: np.ndarray, width: np.ndarray,
                      intensity: np.ndarray) -> np.ndarray:
    """Ink of a batch of images as one (b, pixels, strokes, 2) broadcast:
    each pixel's projection onto every stroke clamped to the segment, the
    Euclidean distance to that closest point by ``np.linalg.norm``, a
    linear falloff over half the stroke width, and the brightest stroke by
    ``max`` over the stroke axis.  ``segs`` is (b, S, 2, 2) endpoints,
    ``width`` (b,), ``intensity`` (b, S); returns (b, 784) for 28x28 images."""
    px = (np.arange(28) + 0.5) / 28
    gx, gy = np.meshgrid(px, px, indexing="xy")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)  # (pixels, 2)
    a = segs[:, :, 0, :]  # (b, S, 2)
    ab = segs[:, :, 1, :] - a
    diff = grid[None, :, None, :] - a[:, None, :, :]  # (b, pixels, S, 2)
    denom = np.maximum((ab * ab).sum(-1), 1e-12)  # (b, S)
    t = (diff * ab[:, None, :, :]).sum(-1) / denom[:, None, :]
    t = np.clip(t, 0.0, 1.0)
    closest = a[:, None, :, :] + t[..., None] * ab[:, None, :, :]
    dist = np.linalg.norm(grid[None, :, None, :] - closest, axis=-1)
    falloff = np.clip((width[:, None, None] - dist)
                      / (0.5 * width[:, None, None]) + 1.0, 0.0, 1.0)
    return (falloff * intensity[:, None, :]).max(axis=2)


def oracle_finetune_loop(model, images, labels, cfg, k, eval_images, eval_labels):
    """Fine-tuning as its own epoch loop, the route the trainer took before
    float training and fine-tuning shared one: shuffle, emulated forward,
    STE backward and SGD step per batch, a redeploy and an evaluation after
    every epoch.  Biases always train.  Returns ``(model, history)`` with
    history as ``(epoch, loss, accuracy)`` tuples."""
    base = materialize_rescalers(model, k)
    shadow = init_shadow(base)
    rng = np.random.default_rng(cfg.seed)
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    labels = np.asarray(labels)
    history = []
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
                shadow.biases[i] -= cfg.learning_rate * grads.biases[i]
            losses.append(loss)
        current = redeploy_weights(base, shadow)
        accuracy = (evaluate_int(current, eval_images, eval_labels)
                    if eval_images is not None else math.nan)
        history.append((epoch + 1, float(np.mean(losses)) if losses else math.nan,
                        accuracy))
    if cfg.epochs == 0:
        current = redeploy_weights(base, shadow)
    return current, history


def oracle_train_float_loop(images, labels, cfg, eval_images, eval_labels):
    """Float training as its own epoch loop over a float64 copy of the
    whole training set, replacing each parameter array by ``w - lr * d_w``
    after every batch, with the step size halved each epoch after the
    second, and float accuracy counted as ``100.0 * hits / n``.  Returns
    ``(model, history)`` with history as ``(epoch, loss, accuracy)``."""
    def accuracy_of(model):
        x = np.asarray(eval_images)
        if x.ndim == 3:
            x = x[..., np.newaxis]
        x = x.astype(np.float64) / 255.0
        hits = 0
        for start in range(0, x.shape[0], 512):
            logits = floatnet.forward(model, x[start : start + 512])
            hits += int(np.sum(np.argmax(logits, axis=1) ==
                               eval_labels[start : start + 512]))
        return 100.0 * hits / x.shape[0]

    model = floatnet.init_float_model(seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    x_all = images.astype(np.float64) / 255.0
    labels = np.asarray(labels)
    real_logits = QuantParams(scale=1.0)
    history = []
    for epoch in range(cfg.epochs):
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
        accuracy = accuracy_of(model) if eval_images is not None else math.nan
        history.append((epoch + 1, float(np.mean(losses)) if losses else math.nan,
                        accuracy))
    return model, history
