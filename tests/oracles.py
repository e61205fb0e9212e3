"""Independent reference implementations used to check the library.

Everything here is deliberately written on a different route than the
code under test: arbitrary-precision integers and fractions instead of
shifts, exhaustive search instead of bit extraction, and plain nested
loops instead of vectorized kernels.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

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
