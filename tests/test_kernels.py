"""Integer kernel tests: frozen examples, oracle fuzz, and algebraic laws."""

import numpy as np
import pytest

from rescale_lab.errors import OverflowEnvelopeError, ShapeError
from rescale_lab.kernels import (
    MAX_MAC_COUNT,
    QTensor,
    activation_clamp,
    compute_effective_bias,
    conv2d_int,
    dense_int,
    depthwise_conv2d_int,
    dequantize_real,
    layer_forward_int,
    quantize_real,
)
from rescale_lab.model_io import LayerSpec
from rescale_lab.qcore import INT32_MAX, QuantParams, quantize_rescaler

from oracles import (
    oracle_avgpool,
    oracle_conv2d,
    oracle_dense,
    oracle_depthwise,
    oracle_rescale,
)

QP = QuantParams(scale=0.1, zero_point=0)


def qt(data, qparams=QP, dtype=np.int8):
    return QTensor(np.asarray(data, dtype=dtype), qparams)


def wt(data, channels=None):
    """Weight tensor with unit per-channel scales."""
    data = np.asarray(data, dtype=np.int8)
    n = channels if channels is not None else (
        data.shape[-1] if data.ndim == 3 else data.shape[0]
    )
    return QTensor(data, np.ones(n))


def same_pads(in_size, k, stride):
    """Independent SAME padding arithmetic (ceil output, before-heavy split
    mirrored: total//2 before)."""
    out = -(-in_size // stride)
    total = max((out - 1) * stride + k - in_size, 0)
    return out, total // 2


# ---------------------------------------------------------------------------
# Frozen examples
# ---------------------------------------------------------------------------


class TestEffectiveBias:
    def test_zero_input_zero_point_passthrough(self):
        w = wt([[1, 2], [3, 4]])
        out = compute_effective_bias(np.array([5, -7]), w, 0)
        assert out.tolist() == [5, -7]
        assert out.dtype == np.int32

    def test_hand_sum(self):
        w = wt([[1, 2, 3]])
        assert compute_effective_bias(np.array([10]), w, 2).tolist() == [-2]

    def test_zero_weights(self):
        w = wt(np.zeros((1, 4)))
        assert compute_effective_bias(np.array([0]), w, -128).tolist() == [0]

    def test_overflow_checked_not_wrapped(self):
        w = wt([[-1]])
        with pytest.raises(OverflowError):
            compute_effective_bias(np.array([INT32_MAX]), w, 1)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            compute_effective_bias(np.array([1, 2]), wt([[1, 2, 3]]), 0)


class TestDense:
    def test_tiny(self):
        acc = dense_int(qt([[1, 2]]), wt([[1, 1]]), np.array([0]))
        assert acc.tolist() == [[3]]
        assert acc.dtype == np.int32

    def test_ramp_hand_sum(self):
        x = qt([[-128, -43, 42, 127]])
        w = wt([[1, -1, 1, -1]])
        assert dense_int(x, w, np.array([100])).tolist() == [[-70]]

    def test_envelope_peak(self):
        x = qt(np.full((1, 256), 127))
        w = wt(np.full((1, 256), 127))
        assert dense_int(x, w, np.array([0])).tolist() == [[4129024]]

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            dense_int(qt([[1, 2, 3]]), wt([[1, 1]]), np.array([0]))
        with pytest.raises(ShapeError):
            dense_int(qt([1, 2]), wt([[1, 1]]), np.array([0]))

    def test_mac_budget_enforced(self):
        n = MAX_MAC_COUNT + 1
        with pytest.raises(ShapeError):
            dense_int(qt(np.zeros((1, n))), wt(np.zeros((1, n))), np.array([0]))

    def test_accumulator_overflow_raises(self):
        x = qt(np.full((1, MAX_MAC_COUNT), 127))
        w = wt(np.full((1, MAX_MAC_COUNT), 127))
        with pytest.raises(OverflowEnvelopeError):
            dense_int(x, w, np.array([INT32_MAX]))


class TestConv2d:
    def test_identity_1x1(self):
        x = qt(np.arange(-8, 8).reshape(1, 4, 4, 1))
        w = wt(np.ones((1, 1, 1, 1)))
        acc = conv2d_int(x, w, np.array([0]))
        assert np.array_equal(acc[..., 0], x.data[..., 0])

    def test_counting_kernel(self):
        x = qt(np.ones((1, 3, 3, 1)))
        w = wt(np.ones((1, 3, 3, 1)))
        assert conv2d_int(x, w, np.array([0])).tolist() == [[[[9]]]]

    def test_hand_convolution(self):
        x = qt(np.arange(1, 10).reshape(1, 3, 3, 1))
        w = wt(np.array([[1, 0], [0, 1]]).reshape(1, 2, 2, 1))
        acc = conv2d_int(x, w, np.array([0]))
        assert acc[0, :, :, 0].tolist() == [[6, 8], [12, 14]]

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_int(qt(np.zeros((1, 3, 3, 2))), wt(np.ones((1, 1, 1, 1))),
                       np.array([0]))

    def test_valid_smaller_than_kernel(self):
        with pytest.raises(ShapeError):
            conv2d_int(qt(np.zeros((1, 2, 2, 1))), wt(np.ones((1, 3, 3, 1))),
                       np.array([0]))

    def test_unknown_padding(self):
        with pytest.raises(ShapeError):
            conv2d_int(qt(np.zeros((1, 3, 3, 1))), wt(np.ones((1, 3, 3, 1))),
                       np.array([0]), padding="FULL")


class TestDepthwise:
    def test_identity(self):
        x = qt(np.arange(-8, 8).reshape(1, 4, 4, 1))
        w = wt(np.ones((1, 1, 1)))
        acc = depthwise_conv2d_int(x, w, np.array([0]))
        assert np.array_equal(acc[..., 0], x.data[..., 0])

    def test_per_channel_scalars(self):
        x = qt(np.ones((1, 1, 1, 2)))
        w = wt(np.array([2, 3]).reshape(1, 1, 2))
        acc = depthwise_conv2d_int(x, w, np.array([0, 0]))
        assert acc[0, 0, 0].tolist() == [2, 3]

    def test_averaging_kernel(self):
        x = qt(np.full((1, 3, 3, 1), 5))
        w = wt(np.ones((3, 3, 1)))
        assert depthwise_conv2d_int(x, w, np.array([0])).tolist() == [[[[45]]]]


def avgpool(x, window, k):
    """Run one avgpool layer through the engine at width k."""
    layer = LayerSpec(kind="avgpool", window=window, output=x.qparams,
                      rescalers=[quantize_rescaler(1.0 / (window[0] * window[1]), k)])
    return layer_forward_int(x, layer, k)


class TestAvgpool:
    def test_constant(self):
        x = qt(np.full((1, 2, 2, 1), 4))
        out = avgpool(x, (2, 2), k=8)
        assert out.data.tolist() == [[[[4]]]]
        assert out.qparams == x.qparams

    def test_half_up(self):
        x = qt(np.array([[1, 2], [3, 4]]).reshape(1, 2, 2, 1))
        assert avgpool(x, (2, 2), k=8).data.tolist() == [[[[3]]]]

    def test_unit_window_identity(self):
        x = qt(np.arange(-8, 8).reshape(1, 4, 4, 1))
        out = avgpool(x, (1, 1), k=8)
        assert np.array_equal(out.data, x.data)

    def test_window_must_divide(self):
        with pytest.raises(ShapeError):
            avgpool(qt(np.zeros((1, 3, 3, 1))), (2, 2), k=8)


def dense_layer(w, bias, in_scale, w_scales, out_scale, z_out=0, k=8,
                activation="none"):
    w = np.asarray(w, dtype=np.int8)
    w_scales = np.asarray(w_scales, dtype=np.float64)
    return LayerSpec(
        kind="dense",
        activation=activation,
        weights=QTensor(w, w_scales),
        bias=np.asarray(bias, dtype=np.int32),
        bias_scales=in_scale * w_scales,
        output=QuantParams(scale=out_scale, zero_point=z_out),
        rescalers=[
            quantize_rescaler(in_scale * float(sc) / out_scale, k) for sc in w_scales
        ],
    )


class TestLayerForward:
    def test_identity_layer(self):
        layer = dense_layer([[1]], [0], in_scale=0.5, w_scales=[1.0], out_scale=0.5)
        x = QTensor(np.array([[7]], dtype=np.int8), QuantParams(0.5, 0))
        out = layer_forward_int(x, layer, k=8)
        assert out.data.tolist() == [[7]]
        assert out.qparams == layer.output

    def test_saturating_rescale(self):
        # acc = 111 * 9 = 999; M = 0.5 rescales half-up to 500, which clamps.
        layer = dense_layer([[9]], [0], in_scale=0.5, w_scales=[1.0], out_scale=1.0)
        x = QTensor(np.array([[111]], dtype=np.int8), QuantParams(0.5, 0))
        assert layer_forward_int(x, layer, k=8).data.tolist() == [[127]]

    def test_relu6_ceiling(self):
        # acc = 18, M = 0.5 -> 9; ReLU6 at S_y=1, Z_y=0 clamps to round(6/1)=6.
        layer = dense_layer([[1]], [0], in_scale=0.5, w_scales=[1.0],
                            out_scale=1.0, activation="relu6")
        x = QTensor(np.array([[18]], dtype=np.int8), QuantParams(0.5, 0))
        assert layer_forward_int(x, layer, k=8).data.tolist() == [[6]]

    def test_rescaler_width_must_match_engine(self):
        layer = dense_layer([[1]], [0], in_scale=0.5, w_scales=[1.0],
                            out_scale=0.5, k=8)
        x = QTensor(np.array([[1]], dtype=np.int8), QuantParams(0.5, 0))
        with pytest.raises(ShapeError):
            layer_forward_int(x, layer, k=16)

    def test_flatten(self):
        x = QTensor(np.arange(8, dtype=np.int8).reshape(1, 2, 2, 2), QP)
        out = layer_forward_int(x, LayerSpec(kind="flatten", output=QP), k=8)
        assert out.data.shape == (1, 8)
        assert out.data.tolist() == [[0, 1, 2, 3, 4, 5, 6, 7]]


class TestActivationClamp:
    def test_none(self):
        assert activation_clamp("none", QuantParams(0.1, 5)) == (-128, 127)

    def test_relu_floors_at_zero_point(self):
        assert activation_clamp("relu", QuantParams(0.1, -3)) == (-3, 127)

    def test_relu6_interior_bound(self):
        # 6 / 0.047 = 127.66 -> 128; 128 + (-128) = 0.
        assert activation_clamp("relu6", QuantParams(0.047, -128)) == (-128, 0)

    def test_relu6_saturates_to_int8(self):
        assert activation_clamp("relu6", QuantParams(0.01, 0)) == (0, 127)

    def test_unknown_activation(self):
        with pytest.raises(ShapeError):
            activation_clamp("gelu", QP)


class TestQuantizeReal:
    def test_round_half_up_both_signs(self):
        params = QuantParams(0.01, 0)
        q = quantize_real(np.array([0.005, -0.005, 0.014, -0.016]), params)
        assert q.tolist() == [1, 0, 1, -2]

    def test_zero_point_shift_and_clamp(self):
        params = QuantParams(0.01, -128)
        q = quantize_real(np.array([0.0, 2.55, 3.0]), params)
        assert q.tolist() == [-128, 127, 127]

    def test_dequantize_inverse_on_grid(self):
        params = QuantParams(0.25, 3)
        reals = dequantize_real(np.array([3, 7, -128]), params)
        assert np.array_equal(quantize_real(reals, params),
                              np.array([3, 7, -128], dtype=np.int8))


# ---------------------------------------------------------------------------
# Oracle fuzz: bit-identical to nested-loop arbitrary-precision references
# ---------------------------------------------------------------------------


def test_fuzz_dense_against_oracle():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 33))
        c = int(rng.integers(1, 6))
        x = qt(rng.integers(-128, 128, size=(n, d)))
        w = wt(rng.integers(-128, 128, size=(c, d)))
        b_eff = rng.integers(-(1 << 20), 1 << 20, size=c).astype(np.int32)
        got = dense_int(x, w, b_eff)
        assert np.array_equal(got, oracle_dense(x.data, w.data, b_eff))


def test_fuzz_conv2d_against_oracle():
    rng = np.random.default_rng(202)
    for _ in range(300):
        n = int(rng.integers(1, 3))
        h = int(rng.integers(1, 7))
        w_ = int(rng.integers(1, 7))
        in_c = int(rng.integers(1, 4))
        out_c = int(rng.integers(1, 4))
        k_h = int(rng.integers(1, min(h, 3) + 1))
        k_w = int(rng.integers(1, min(w_, 3) + 1))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        padding = "SAME" if rng.integers(2) else "VALID"
        z_in = int(rng.integers(-128, 128))
        x = QTensor(rng.integers(-128, 128, size=(n, h, w_, in_c)).astype(np.int8),
                    QuantParams(0.1, z_in))
        w = wt(rng.integers(-128, 128, size=(out_c, k_h, k_w, in_c)))
        b_eff = rng.integers(-1000, 1000, size=out_c).astype(np.int32)
        got = conv2d_int(x, w, b_eff, stride, padding)
        if padding == "SAME":
            out_h, pad_t = same_pads(h, k_h, stride[0])
            out_w, pad_l = same_pads(w_, k_w, stride[1])
        else:
            out_h = (h - k_h) // stride[0] + 1
            out_w = (w_ - k_w) // stride[1] + 1
            pad_t = pad_l = 0
        want = oracle_conv2d(x.data, w.data, b_eff, stride, pad_t, pad_l,
                             out_h, out_w, pad_value=z_in)
        assert np.array_equal(got, want)


def test_fuzz_depthwise_against_oracle():
    rng = np.random.default_rng(303)
    for _ in range(250):
        n = int(rng.integers(1, 3))
        h = int(rng.integers(1, 7))
        w_ = int(rng.integers(1, 7))
        c = int(rng.integers(1, 5))
        k_h = int(rng.integers(1, min(h, 3) + 1))
        k_w = int(rng.integers(1, min(w_, 3) + 1))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        padding = "SAME" if rng.integers(2) else "VALID"
        z_in = int(rng.integers(-128, 128))
        x = QTensor(rng.integers(-128, 128, size=(n, h, w_, c)).astype(np.int8),
                    QuantParams(0.1, z_in))
        w = wt(rng.integers(-128, 128, size=(k_h, k_w, c)))
        b_eff = rng.integers(-1000, 1000, size=c).astype(np.int32)
        got = depthwise_conv2d_int(x, w, b_eff, stride, padding)
        if padding == "SAME":
            out_h, pad_t = same_pads(h, k_h, stride[0])
            out_w, pad_l = same_pads(w_, k_w, stride[1])
        else:
            out_h = (h - k_h) // stride[0] + 1
            out_w = (w_ - k_w) // stride[1] + 1
            pad_t = pad_l = 0
        want = oracle_depthwise(x.data, w.data, b_eff, stride, pad_t, pad_l,
                                out_h, out_w, pad_value=z_in)
        assert np.array_equal(got, want)


def test_fuzz_avgpool_against_oracle():
    rng = np.random.default_rng(404)
    for _ in range(200):
        w_h = int(rng.integers(1, 4))
        w_w = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        h = w_h * int(rng.integers(1, 4))
        w_ = w_w * int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        k = int(rng.integers(2, 33))
        x = qt(rng.integers(-128, 128, size=(n, h, w_, c)))
        got = avgpool(x, (w_h, w_w), k=k)
        r = quantize_rescaler(1.0 / (w_h * w_w), k)
        want = oracle_avgpool(x.data, (w_h, w_w), r.m, r.s)
        assert np.array_equal(got.data, want)


# ---------------------------------------------------------------------------
# Algebraic laws
# ---------------------------------------------------------------------------


def test_dense_linearity_at_zero_input_zero_point():
    rng = np.random.default_rng(505)
    for _ in range(50):
        d = int(rng.integers(1, 20))
        c = int(rng.integers(1, 5))
        w = wt(rng.integers(-128, 128, size=(c, d)))
        b_eff = rng.integers(-500, 500, size=c).astype(np.int32)
        x1 = rng.integers(-60, 61, size=(2, d))
        x2 = rng.integers(-60, 61, size=(2, d))
        f1 = dense_int(qt(x1), w, b_eff).astype(np.int64)
        f2 = dense_int(qt(x2), w, b_eff).astype(np.int64)
        f12 = dense_int(qt(x1 + x2), w, b_eff).astype(np.int64)
        assert np.array_equal(f1 + f2 - b_eff, f12)


def test_conv_linearity_at_zero_input_zero_point():
    rng = np.random.default_rng(606)
    w = wt(rng.integers(-128, 128, size=(2, 3, 3, 2)))
    b_eff = np.array([7, -9], dtype=np.int32)
    x1 = rng.integers(-60, 61, size=(1, 5, 5, 2))
    x2 = rng.integers(-60, 61, size=(1, 5, 5, 2))
    f1 = conv2d_int(qt(x1), w, b_eff, (1, 1), "SAME").astype(np.int64)
    f2 = conv2d_int(qt(x2), w, b_eff, (1, 1), "SAME").astype(np.int64)
    f12 = conv2d_int(qt(x1 + x2), w, b_eff, (1, 1), "SAME").astype(np.int64)
    assert np.array_equal(f1 + f2 - b_eff, f12)


def test_batch_permutation_equivariance():
    rng = np.random.default_rng(707)
    x = rng.integers(-128, 128, size=(6, 4, 4, 2))
    w = wt(rng.integers(-128, 128, size=(3, 2, 2, 2)))
    b_eff = rng.integers(-100, 100, size=3).astype(np.int32)
    perm = rng.permutation(6)
    full = conv2d_int(qt(x), w, b_eff, (1, 1), "SAME")
    permuted = conv2d_int(qt(x[perm]), w, b_eff, (1, 1), "SAME")
    assert np.array_equal(full[perm], permuted)


def test_conv1x1_equals_dense_per_position():
    rng = np.random.default_rng(808)
    x = rng.integers(-128, 128, size=(2, 3, 3, 5))
    w4 = rng.integers(-128, 128, size=(4, 1, 1, 5))
    b_eff = rng.integers(-100, 100, size=4).astype(np.int32)
    conv = conv2d_int(qt(x), wt(w4), b_eff, (1, 1), "VALID")
    dense = dense_int(qt(x.reshape(-1, 5)), wt(w4.reshape(4, 5)), b_eff)
    assert np.array_equal(conv.reshape(-1, 4), dense)


def test_same_padding_taps_are_neutral():
    """Padded positions contribute zero real signal: with the zero-point fill
    and the effective bias, a conv over an all-Z_x input equals plain bias."""
    rng = np.random.default_rng(909)
    z_in = 17
    w_int = rng.integers(-128, 128, size=(3, 3, 3, 2)).astype(np.int8)
    w = wt(w_int)
    bias = rng.integers(-50, 50, size=3).astype(np.int32)
    b_eff = compute_effective_bias(bias, w, z_in)
    x = QTensor(np.full((1, 4, 4, 2), z_in, dtype=np.int8), QuantParams(0.1, z_in))
    acc = conv2d_int(x, w, b_eff, (1, 1), "SAME")
    assert np.array_equal(acc, np.broadcast_to(bias, acc.shape))


def test_avgpool_matches_requantize_semantics():
    rng = np.random.default_rng(111)
    x = qt(rng.integers(-128, 128, size=(1, 4, 4, 3)))
    out = avgpool(x, (2, 2), k=8)
    r = quantize_rescaler(0.25, 8)
    sums = x.data.astype(np.int64).reshape(1, 2, 2, 2, 2, 3).sum(axis=(2, 4))
    want = np.array([[[[
        max(-128, min(127, oracle_rescale(int(v), r.m, r.s)))
        for v in sums[i, a, b]] for b in range(2)] for a in range(2)]
        for i in range(1)])
    assert np.array_equal(out.data, want)
