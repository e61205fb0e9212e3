"""Integer kernel tests: frozen examples, oracle fuzz, and algebraic laws."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rescale_lab import kernels
from rescale_lab.errors import DomainError, OverflowEnvelopeError, ShapeError
from rescale_lab.kernels import (
    MAX_MAC_COUNT,
    RESCALE_BLOCK,
    QTensor,
    accumulate,
    accumulator_bound,
    activation_clamp,
    compute_effective_bias,
    conv2d_int,
    dense_int,
    depthwise_conv2d_int,
    dequantize_real,
    layer_accumulator,
    layer_forward_int,
    predict_int,
    quantize_images,
    quantize_real,
    rescale_accumulator,
    rescaler_vectors,
    run_model_int,
    unit_images,
    window_sum,
)
from rescale_lab.model_io import LayerSpec
from rescale_lab.qcore import INT32_MAX, INT32_MIN, QuantParams, quantize_rescaler

from oracles import (
    oracle_avgpool,
    oracle_conv2d,
    oracle_dense,
    oracle_depthwise,
    oracle_im2col,
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

    def test_overflow_raises_the_envelope_error(self):
        # The add_bias fault's type, which stays an OverflowError as well.
        assert issubclass(OverflowEnvelopeError, OverflowError)
        with pytest.raises(OverflowEnvelopeError):
            compute_effective_bias(np.array([INT32_MIN]), wt([[1]]), 1)

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

    def test_zero_output_channels(self):
        with pytest.raises(ShapeError, match="no output channels"):
            dense_int(qt([[1, 2]]), wt(np.zeros((0, 2))), np.zeros(0, dtype=np.int32))

    def test_mac_budget_enforced(self):
        n = MAX_MAC_COUNT + 1
        with pytest.raises(ShapeError):
            dense_int(qt(np.zeros((1, n))), wt(np.zeros((1, n))), np.array([0]))

    def test_accumulator_overflow_raises(self):
        x = qt(np.full((1, MAX_MAC_COUNT), 127))
        w = wt(np.full((1, MAX_MAC_COUNT), 127))
        with pytest.raises(OverflowEnvelopeError):
            dense_int(x, w, np.array([INT32_MAX]))


class TestMacPrecision:
    """int8 MACs run in float32 only while every partial sum is an integer
    of magnitude <= 2**24; past that they fall back to float64."""

    @staticmethod
    def dense_and_1x1_conv(x, w):
        b_eff = np.zeros(w.shape[0], dtype=np.int32)
        dense = dense_int(qt(x), wt(w), b_eff)
        conv = conv2d_int(qt(x.reshape(x.shape[0], 1, 1, -1)),
                          wt(w.reshape(w.shape[0], 1, 1, -1)), b_eff)
        return dense, conv.reshape(dense.shape)

    def test_partial_sums_reaching_2_pow_24_stay_float32(self):
        x = np.full((2, 1024), -128)
        w = np.full((3, 1024), -128)
        want = x @ w.T
        assert want.max() == 1 << 24
        assert accumulate(x.astype(np.int8), w.astype(np.int8), "dense")[0].dtype \
            == np.float32
        for got in self.dense_and_1x1_conv(x, w):
            assert np.array_equal(got, want)

    def test_odd_sums_past_2_pow_24_fall_back_to_float64(self):
        # 127 * 127 is odd; the second row's last tap makes its total odd
        # too, a value float32 cannot hold.
        x = np.full((2, 1100), 127)
        x[1, -1] = 2
        w = np.full((3, 1100), 127)
        want = x @ w.T
        assert want.min() > 1 << 24 and want[1, 0] % 2 == 1
        assert accumulate(x.astype(np.int8), w.astype(np.int8), "dense")[0].dtype \
            == np.float64
        for got in self.dense_and_1x1_conv(x, w):
            assert np.array_equal(got, want)


class TestOneBound:
    """The MAC's float type comes from the largest channel's
    accumulator_bound, not from the layer's shape.  2048 int8 taps have a
    shape bound of 2048 * 128 * 128 = 2**25, but channel 0's weights sum to
    2**17 in magnitude: a bound of 128 * 2**17 = 2**24, exact in float32.
    An effective bias of -1 takes the bound to 2**24 + 1, and one more unit
    of weight to 2**24 + 128, where the input drives channel 0 to the odd
    sum -(2**24 + 63), which float32 cannot hold; channel 1's sum is odd
    and small."""

    N = 2048

    @classmethod
    def operands(cls, extra):
        w = np.full((2, cls.N), 64, np.int8)
        w[0, 0] += extra
        w[1] = 3
        x = np.full((1, cls.N), -128, np.int8)
        x[0, 0] = -127
        return x, w

    @staticmethod
    def exact(x, w, b_eff=0):
        return x.astype(np.int64) @ w.T.astype(np.int64) + b_eff

    @pytest.mark.parametrize("z, r", [(None, 128), (0, 128), (-128, 255), (127, 255),
                                      (-1, 128), (1, 129)])
    def test_input_reach(self, z, r):
        w = np.array([[[-2, 3], [1, 0]], [[4, -5], [0, 1]]], np.int8)  # depthwise (2, 2, 2)
        bias = np.array([-7, 9], np.int32)
        assert accumulator_bound(w, bias, z).tolist() == [r * 7 + 7, r * 9 + 9]

    @pytest.mark.parametrize("extra, dtype", [(0, np.float32), (1, np.float64)])
    def test_accumulate_int8_default(self, extra, dtype):
        x, w = self.operands(extra)
        assert int(accumulator_bound(w, 0).max()) == (1 << 24) + 128 * extra
        acc = accumulate(x, w, "dense")[0]
        assert acc.dtype == dtype
        assert np.array_equal(acc, self.exact(x, w))
        assert acc[0, 0] == -(1 << 24) + 64 - 127 * extra

    @pytest.mark.parametrize("extra, bias, dtype", [
        (0, 0, np.float32), (0, -1, np.float64), (1, 0, np.float64)])
    def test_dense_int(self, monkeypatch, extra, bias, dtype):
        seen = []

        def spy(*args, **kwargs):
            out = accumulate(*args, **kwargs)
            seen.append(out[0].dtype)
            return out

        monkeypatch.setattr(kernels, "accumulate", spy)
        x, w = self.operands(extra)
        b_eff = np.array([bias, 0], np.int32)
        got = dense_int(qt(x), wt(w), b_eff)
        assert seen == [dtype]
        assert np.array_equal(got, self.exact(x, w, b_eff))
        assert got[0, 1] % 2 == 1


class TestAccumulateOperands:
    """accumulate is the one operand check of every MAC: the engine, the
    emulation and the float network all reach it."""

    def test_dense_rejects_an_image_batch(self):
        with pytest.raises(ShapeError, match="dense"):
            accumulate(np.zeros((2, 3, 3, 4)), np.zeros((5, 4)), "dense")

    def test_depthwise_channel_mismatch(self):
        with pytest.raises(ShapeError, match="depthwise"):
            accumulate(np.zeros((1, 3, 3, 2)), np.zeros((3, 3, 4)), "depthwise")

    def test_unknown_kind_raises_up_front(self):
        with pytest.raises(ShapeError, match="'avgpool' has no multiply-accumulate"):
            accumulate(np.zeros((1, 4)), np.zeros((2, 4)), "avgpool")

    @pytest.mark.parametrize("stride", [(0, 1), (-1, 1)])
    def test_stride_below_one_is_refused(self, stride):
        # (0, 1) divided by zero and (-1, 1) sliced backwards into a
        # ValueError; the stride rule validate_model applies refuses both.
        with pytest.raises(ShapeError, match="needs two steps >= 1"):
            accumulate(np.zeros((1, 4, 4, 2), np.int8), np.zeros((3, 2, 2, 2), np.int8),
                       "conv2d", stride, "SAME")


class TestEnvelopeCheck:
    """The whole-tensor bound is only a shortcut: the decision is per
    channel.  Two channels with accumulators +-16129 and the bias of the
    other sign's channel at the int32 limit overrun the whole-tensor bound
    without any channel leaving int32."""

    @staticmethod
    def run(kind, sign, b_eff):
        x = np.array([[127]])
        w = sign * np.array([[127], [-127]])
        b_eff = np.array(b_eff, dtype=np.int32)
        if kind == "dense":
            return dense_int(qt(x), wt(w), b_eff)
        return conv2d_int(qt(x.reshape(1, 1, 1, 1)), wt(w.reshape(2, 1, 1, 1)),
                          b_eff).reshape(1, 2)

    @pytest.mark.parametrize("kind", ["dense", "conv2d"])
    def test_high_side_decided_per_channel(self, kind):
        got = self.run(kind, 1, [INT32_MAX - 16129, INT32_MAX])
        assert got.tolist() == [[INT32_MAX, INT32_MAX - 16129]]
        with pytest.raises(OverflowEnvelopeError):
            self.run(kind, 1, [INT32_MAX - 16128, INT32_MAX])

    @pytest.mark.parametrize("kind", ["dense", "conv2d"])
    def test_low_side_decided_per_channel(self, kind):
        got = self.run(kind, -1, [INT32_MIN + 16129, INT32_MIN])
        assert got.tolist() == [[INT32_MIN, INT32_MIN + 16129]]
        with pytest.raises(OverflowEnvelopeError):
            self.run(kind, -1, [INT32_MIN + 16128, INT32_MIN])


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


class TestConvColumns:
    """conv2d's columns come from tap-major planes; they must equal the
    row-major im2col matrix, and the accumulator the product with it."""

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    @pytest.mark.parametrize("padding", ["SAME", "VALID"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("c", [1, 3, 8])
    def test_columns_equal_im2col(self, c, k, stride, padding, dtype):
        rng = np.random.default_rng(c * 100 + k * 10 + stride)
        if dtype == np.int8:
            x = rng.integers(-128, 128, size=(3, 7, 6, c)).astype(np.int8)
            w = rng.integers(-128, 128, size=(4, k, k, c)).astype(np.int8)
            pad_value = -5
        else:
            # Multiples of 1/8: every sum is exact whatever the BLAS order.
            x = rng.integers(-64, 64, size=(3, 7, 6, c)) / 8.0
            w = rng.integers(-64, 64, size=(4, k, k, c)) / 8.0
            pad_value = 0.375
        acc, cols, pads = accumulate(x, w, "conv2d", (stride, stride), padding,
                                     pad_value)
        if padding == "SAME":
            out_h, top = same_pads(7, k, stride)
            out_w, left = same_pads(6, k, stride)
            bottom = max((out_h - 1) * stride + k - 7, 0) - top
            right = max((out_w - 1) * stride + k - 6, 0) - left
            want_pads = (top, bottom, left, right)
        else:
            out_h, out_w = (7 - k) // stride + 1, (6 - k) // stride + 1
            want_pads = (0, 0, 0, 0)
        assert pads == want_pads
        mac = np.float32 if dtype == np.int8 else np.float64
        want_cols = oracle_im2col(x, k, k, (stride, stride), pads,
                                  pad_value).astype(mac)
        assert cols.dtype == acc.dtype == mac
        assert np.array_equal(cols, want_cols)
        want_acc = want_cols @ w.reshape(4, -1).T.astype(mac)
        assert np.array_equal(acc, want_acc.reshape(3, out_h, out_w, 4))


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
    return layer_forward_int(x, layer)


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

    @pytest.mark.parametrize("window", [(0, 2), (-1, 2)])
    def test_window_below_one_is_refused(self, window):
        with pytest.raises(ShapeError, match="needs two steps >= 1"):
            window_sum(np.zeros((1, 4, 4, 1), np.int8), window)

    @pytest.mark.parametrize("value, total", [(-128, -512), (127, 508)])
    def test_int8_window_sum_does_not_wrap(self, value, total):
        x = np.full((1, 2, 2, 1), value, dtype=np.int8)
        assert window_sum(x, (2, 2)).tolist() == [[[[total]]]]

    def test_accumulator_equals_int64_reduction(self):
        rng = np.random.default_rng(112)
        for c, window in ((1, (2, 2)), (3, (3, 2)), (5, (1, 3)), (7, (2, 1))):
            x = qt(rng.integers(-128, 128, size=(3, 6, 6, c)))
            layer = LayerSpec(kind="avgpool", window=window, output=QP)
            want = x.data.astype(np.int64).reshape(
                3, 6 // window[0], window[0], 6 // window[1], window[1], c
            ).sum(axis=(2, 4))
            assert np.array_equal(layer_accumulator(x, layer, None), want)


def dense_layer(w, bias, in_scale, w_scales, out_scale, z_out=0, k=8,
                activation="none"):
    w = np.asarray(w, dtype=np.int8)
    w_scales = np.asarray(w_scales, dtype=np.float64)
    return LayerSpec(
        kind="dense",
        activation=activation,
        weights=QTensor(w, w_scales),
        bias=np.asarray(bias, dtype=np.int32),
        output=QuantParams(scale=out_scale, zero_point=z_out),
        rescalers=[
            quantize_rescaler(in_scale * float(sc) / out_scale, k) for sc in w_scales
        ],
    )


class TestLayerForward:
    def test_identity_layer(self):
        layer = dense_layer([[1]], [0], in_scale=0.5, w_scales=[1.0], out_scale=0.5)
        x = QTensor(np.array([[7]], dtype=np.int8), QuantParams(0.5, 0))
        out = layer_forward_int(x, layer)
        assert out.data.tolist() == [[7]]
        assert out.qparams == layer.output

    def test_saturating_rescale(self):
        # acc = 111 * 9 = 999; M = 0.5 rescales half-up to 500, which clamps.
        layer = dense_layer([[9]], [0], in_scale=0.5, w_scales=[1.0], out_scale=1.0)
        x = QTensor(np.array([[111]], dtype=np.int8), QuantParams(0.5, 0))
        assert layer_forward_int(x, layer).data.tolist() == [[127]]

    def test_relu6_ceiling(self):
        # acc = 18, M = 0.5 -> 9; ReLU6 at S_y=1, Z_y=0 clamps to round(6/1)=6.
        layer = dense_layer([[1]], [0], in_scale=0.5, w_scales=[1.0],
                            out_scale=1.0, activation="relu6")
        x = QTensor(np.array([[18]], dtype=np.int8), QuantParams(0.5, 0))
        assert layer_forward_int(x, layer).data.tolist() == [[6]]

    def test_runs_at_the_width_its_rescalers_carry(self):
        # acc = 100, M = 0.3: k=2 truncates M to 0.25 (m=2, s=3), k=16 keeps 0.3.
        x = QTensor(np.array([[100]], dtype=np.int8), QuantParams(0.5, 0))
        for k, want in ((2, 25), (16, 30)):
            layer = dense_layer([[1]], [0], in_scale=0.5, w_scales=[0.6],
                                out_scale=1.0, k=k)
            assert layer_forward_int(x, layer).data.tolist() == [[want]]

    def test_flatten(self):
        x = QTensor(np.arange(8, dtype=np.int8).reshape(1, 2, 2, 2), QP)
        out = layer_forward_int(x, LayerSpec(kind="flatten", output=QP))
        assert out.data.shape == (1, 8)
        assert out.data.tolist() == [[0, 1, 2, 3, 4, 5, 6, 7]]


class TestLayerForwardTail:
    """The weighted tail clamps to [lo - z, hi - z], casts to int8 and adds
    the output zero point z in int8.  At z = 127 and no activation,
    lo - z = -255 lies outside int8, so the cast wraps and the sum must
    wrap back; the reference adds z and clamps in Python ints."""

    OUT_SCALE = 0.04  # ReLU6 ceiling 150 + z before saturation

    @staticmethod
    def bounds(activation, z):
        if activation == "none":
            return -128, 127
        if activation == "relu":
            return z, 127
        return z, min(127, math.floor(6.0 / TestLayerForwardTail.OUT_SCALE + 0.5) + z)

    @staticmethod
    def layer(kind, w, bias, acc_peak, activation, z):
        # Multipliers spread the raw outputs over about +-600 output steps.
        channels = w.shape[0]
        values = [600.0 / acc_peak * (1 - 0.05 * ch) for ch in range(channels)]
        return LayerSpec(kind=kind, activation=activation,
                         weights=QTensor(w, np.ones(channels)), bias=bias,
                         stride=(2, 2), padding="SAME",
                         output=QuantParams(TestLayerForwardTail.OUT_SCALE, z),
                         rescalers=[quantize_rescaler(v, 16) for v in values])

    def check(self, x, layer, acc, activation, z):
        m, s = rescaler_vectors(layer)
        raw = np.vectorize(oracle_rescale)(acc, m, s)
        lo, hi = self.bounds(activation, z)
        assert raw.min() < lo - z and raw.max() > hi - z  # both edges clamp
        want = np.clip(raw + z, lo, hi)
        got = layer_forward_int(x, layer)
        assert got.data.dtype == np.int8
        assert got.qparams == layer.output
        assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("activation", ["none", "relu", "relu6"])
    @pytest.mark.parametrize("z", [-128, 0, 127])
    def test_conv2d_against_oracle(self, z, activation):
        rng = np.random.default_rng(7)
        z_in = -9
        x = rng.integers(-128, 128, size=(2, 7, 6, 3)).astype(np.int8)
        w = rng.integers(-128, 128, size=(5, 3, 3, 3)).astype(np.int8)
        bias = rng.integers(-3000, 3000, size=5).astype(np.int32)
        out_h, top = same_pads(7, 3, 2)
        out_w, left = same_pads(6, 3, 2)
        acc = oracle_conv2d(x.astype(np.int64) - z_in, w, bias, (2, 2), top, left,
                            out_h, out_w, 0)
        layer = self.layer("conv2d", w, bias, np.abs(acc).max(), activation, z)
        self.check(QTensor(x, QuantParams(0.1, z_in)), layer, acc, activation, z)

    @pytest.mark.parametrize("activation", ["none", "relu", "relu6"])
    @pytest.mark.parametrize("z", [-128, 0, 127])
    def test_dense_against_oracle(self, z, activation):
        rng = np.random.default_rng(8)
        z_in = 11
        x = rng.integers(-128, 128, size=(40, 12)).astype(np.int8)
        w = rng.integers(-128, 128, size=(6, 12)).astype(np.int8)
        bias = rng.integers(-3000, 3000, size=6).astype(np.int32)
        acc = oracle_dense(x.astype(np.int64) - z_in, w, bias)
        layer = self.layer("dense", w, bias, np.abs(acc).max(), activation, z)
        self.check(QTensor(x, QuantParams(0.1, z_in)), layer, acc, activation, z)


class TestRescalerVectors:
    def test_int64_vectors_per_channel(self):
        layer = dense_layer([[1], [2]], [0, 0], in_scale=0.5, w_scales=[0.25, 0.75],
                            out_scale=1.0, k=8)
        m, s = rescaler_vectors(layer)
        assert m.dtype == np.int64 and s.dtype == np.int64
        assert m.tolist() == [r.m for r in layer.rescalers]
        assert s.tolist() == [r.s for r in layer.rescalers]

    def test_avgpool_has_one_entry(self):
        layer = LayerSpec(kind="avgpool", window=(2, 2), output=QP,
                          rescalers=[quantize_rescaler(0.25, 4)])
        m, s = rescaler_vectors(layer)
        assert (m.tolist(), s.tolist()) == ([8], [5])


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


class TestUnitImages:
    def test_adds_channel_axis_and_scales_to_unit_range(self):
        images = np.array([[[0, 51], [255, 128]]], dtype=np.uint8)
        x = unit_images(images)
        assert x.shape == (1, 2, 2, 1) and x.dtype == np.float64
        assert x[..., 0].tolist() == [[[0.0, 0.2], [1.0, 128 / 255]]]

    def test_keeps_nhwc_input(self):
        images = np.full((3, 2, 2, 1), 255, dtype=np.uint8)
        assert np.array_equal(unit_images(images), np.ones((3, 2, 2, 1)))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_float_input_is_unit_images_already(self, dtype):
        images = np.array([[[0.0, 0.25], [1.0, 0.5]]], dtype=dtype)
        x = unit_images(images)
        assert x.shape == (1, 2, 2, 1) and x.dtype == np.float64
        assert x[..., 0].tolist() == [[[0.0, 0.25], [1.0, 0.5]]]

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.bool_])
    def test_other_dtypes_are_refused(self, dtype):
        with pytest.raises(ShapeError, match="images must be uint8 or float"):
            unit_images(np.zeros((1, 2, 2), dtype))


class TestQuantizeImages:
    BYTES = np.arange(256, dtype=np.uint8)

    # 2/255 puts every odd byte on an exact .5 tie (v/255 / (2/255) = v/2).
    @pytest.mark.parametrize("scale", [1 / 255, 2 / 255, 0.0123])
    @pytest.mark.parametrize("zero_point", [-128, 0, 127])
    @pytest.mark.parametrize("shape", [(4, 8, 8), (4, 8, 8, 1)])
    def test_every_byte_equals_quantize_real(self, scale, zero_point, shape):
        params = QuantParams(scale, zero_point)
        images = self.BYTES.reshape(shape)
        want = quantize_real(unit_images(images), params)
        got = quantize_images(images, params)
        assert got.dtype == np.int8 and got.shape == (4, 8, 8, 1)
        assert np.array_equal(got, want)

    def test_the_tie_scale_has_ties(self):
        q = unit_images(self.BYTES).ravel() / (2 / 255)
        assert np.count_nonzero(q - np.floor(q) == 0.5) == 128

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.float64])
    def test_other_dtypes_are_refused(self, dtype):
        with pytest.raises(ShapeError, match="uint8"):
            quantize_images(np.zeros((1, 2, 2), dtype), QP)


class TestEngineBlocks:
    """Each layer runs RESCALE_BLOCK images at a time; any batch gives the
    logits and predictions of its images run one by one."""

    @pytest.fixture(scope="class")
    def desk(self):
        from rescale_lab import floatnet
        from rescale_lab.model_io import quantize_float_model

        rng = np.random.default_rng(33)
        model = quantize_float_model(floatnet.init_float_model(seed=33),
                                     [rng.random((6, 28, 28, 1))])
        images = rng.integers(0, 256, size=(2 * RESCALE_BLOCK + 3, 28, 28),
                              dtype=np.uint8)
        return model, images

    @pytest.mark.parametrize("count", [0, 1, RESCALE_BLOCK - 1, RESCALE_BLOCK,
                                       RESCALE_BLOCK + 1, 2 * RESCALE_BLOCK + 3])
    @pytest.mark.parametrize("k", [32, 2])
    def test_batches_equal_single_images(self, desk, count, k):
        from rescale_lab.model_io import materialize_rescalers

        model = materialize_rescalers(desk[0], k)
        images = desk[1][:count]
        x_q = quantize_images(images, model.input_params)
        logits = run_model_int(model, x_q)
        singles = [run_model_int(model, x_q[i : i + 1]) for i in range(count)]
        assert logits.dtype == np.int8 and logits.shape == (count, 10)
        assert np.array_equal(logits, np.concatenate(singles) if singles
                              else np.zeros((0, 10), np.int8))
        preds = predict_int(model, images)
        assert preds.dtype == np.int64
        assert preds.tolist() == [int(np.argmax(row)) for row in logits]
        assert preds.tolist() == [int(predict_int(model, images[i : i + 1])[0])
                                  for i in range(count)]

    def test_predict_int_batches_equal_one_batch(self, desk):
        model, images = desk
        assert np.array_equal(predict_int(model, images, batch_size=RESCALE_BLOCK + 1),
                              predict_int(model, images))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_predict_int_refuses_a_batch_size_below_one(self, desk, batch_size):
        # -1 returned uninitialised memory as predictions; 0 failed in range().
        model, images = desk
        with pytest.raises(DomainError, match="batch size must be >= 1"):
            predict_int(model, images, batch_size=batch_size)


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


# ---------------------------------------------------------------------------
# The vectorized rescale against the arbitrary-precision oracle
# ---------------------------------------------------------------------------

ACC_EDGES = (INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX)


def tie_accumulators(m, s):
    """The int32 accumulators ``a`` closest to zero whose product ``a*m``
    lies exactly half-way between multiples of ``2**s``."""
    if m == 0:
        return []
    t = (m & -m).bit_length() - 1  # m = odd * 2**t
    if t >= s:
        return []  # every product is a multiple of 2**s
    period = 1 << (s - t)
    a0 = ((1 << (s - 1 - t)) * pow(m >> t, -1, period)) % period
    return [a for a in (a0, a0 - period) if INT32_MIN <= a <= INT32_MAX]


@st.composite
def rescaler_channels(draw):
    """Per-channel rescalers at one width k: from quantize_rescaler's normal
    range (down to 2**-25, whose shift is the budget 24 + k), including the all-ones multiplicands
    of values just under a power of two, or clamp-policy underflows whose
    multiplicand lost bits, down to m=0."""
    k = draw(st.integers(2, 32))
    just_under = st.integers(0, 24).map(lambda e: math.nextafter(2.0**-e, 0.0))
    rescalers = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            value = draw(st.one_of(st.floats(2.0**-25, 1.0), just_under))
            rescalers.append(quantize_rescaler(value, k))
        else:
            value = draw(st.floats(2.0**-(k + 30), 2.0**-25, exclude_max=True))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rescalers.append(quantize_rescaler(value, k, on_underflow="clamp"))
    return rescalers


class TestRescaleAccumulator:
    @settings(max_examples=300, deadline=None)
    @given(rescalers=rescaler_channels(), data=st.data())
    def test_matches_oracle(self, rescalers, data):
        # Every channel sees the int32 edges, its own exact ties (0 where it
        # has none) and a few drawn accumulators.
        drawn = st.lists(st.integers(INT32_MIN, INT32_MAX), min_size=4, max_size=4)
        columns = [list(ACC_EDGES) + (tie_accumulators(r.m, r.s) + [0, 0])[:2]
                   + data.draw(drawn) for r in rescalers]
        acc = np.array(columns, dtype=np.int64).T
        m = np.array([r.m for r in rescalers])
        s = np.array([r.s for r in rescalers])
        want = [[oracle_rescale(int(a), r.m, r.s) for a, r in zip(row, rescalers)]
                for row in acc]
        # The engine passes int32 accumulators, whose peak here is 2**31 (the
        # INT32_MIN edge): int32 comes back where 2**31 * max(m) + 2**(max(s)-1)
        # fits int32 (only all-zero multiplicands), int64 otherwise.  Exact
        # float64 input (the emulation's, without a tighter reach) stays
        # float64.
        bound = (1 << 31) * int(m.max()) + (1 << (int(s.max()) - 1))
        int_type = np.int32 if bound <= INT32_MAX else np.int64
        for dtype, out_type in ((np.int32, int_type), (np.float64, np.float64)):
            got = rescale_accumulator(acc.astype(dtype), m, s)
            assert got.dtype == out_type
            assert got.tolist() == want

    def test_ties_round_up(self):
        r = quantize_rescaler(0.75, 8)  # m=192, s=8: 3 * 0.75 = 2.25, 2 * 0.75 = 1.5
        ties = tie_accumulators(r.m, r.s)
        assert ties == [2, -2]
        got = rescale_accumulator(np.array([ties], dtype=np.int32), r.m, r.s)
        assert got.tolist() == [[2, -1]]

    @pytest.mark.parametrize("e", range(1, 25))
    def test_half_step_add_cannot_wrap(self, e):
        # k=32, m = 2**32 - 1 and s = 32 + e: the product with INT32_MAX is
        # just under 2**63, so adding the half step 2**(s-1) in one go
        # wraps int64 from s = 34 on.
        r = quantize_rescaler(2.0**-e * (1 - 2.0**-40), 32)
        assert (r.m, r.s) == ((1 << 32) - 1, 32 + e)
        acc = np.array([[INT32_MAX, INT32_MIN, INT32_MAX - 1]], dtype=np.int32)
        got = rescale_accumulator(acc, np.array([r.m]), np.array([r.s]))
        assert got.ravel().tolist() == [oracle_rescale(int(a), r.m, r.s)
                                        for a in acc.ravel()]

    def test_multiplier_above_one_saturates_both_edges(self):
        # Channel 1 has m = 3 > 2**s = 2 (M_q = 1.5), so results leave int32
        # and the saturation must run; channel 0 (M_q = 1) keeps its input.
        m, s = np.array([2, 3]), np.array([1, 1])
        acc = np.array([[INT32_MAX, INT32_MAX], [INT32_MIN, INT32_MIN],
                        [1000, 1000], [-1001, -1001]], dtype=np.int32)
        got = rescale_accumulator(acc, m, s)
        assert got.tolist() == [[INT32_MAX, INT32_MAX], [INT32_MIN, INT32_MIN],
                                [1000, 1500], [-1001, -1501]]
        assert got.tolist() == [[oracle_rescale(int(a), int(mc), int(sc))
                                 for a, mc, sc in zip(row, m, s)] for row in acc]

    def test_clamp_policy_zero_multiplier(self):
        with pytest.warns(RuntimeWarning, match="underflows"):
            r = quantize_rescaler(1.5 * 2.0**-28, 2, on_underflow="clamp")
        assert r.m == 0
        acc = np.array([ACC_EDGES], dtype=np.int32).T
        assert rescale_accumulator(acc, r.m, r.s).ravel().tolist() == [0] * 7


def near_ties(m, s, reach):
    """The accumulators in [-reach, reach] nearest each end whose product
    with ``m`` lies at a tie, or one step of 2**t (``m = odd * 2**t``)
    below it: there an inexact product or half-step add moves the floor."""
    if m == 0 or (m & -m).bit_length() - 1 >= s:
        return []
    t = (m & -m).bit_length() - 1
    period = 1 << (s - t)
    found = []
    for residue in (1 << (s - 1 - t), (1 << (s - 1 - t)) - 1):
        a0 = residue * pow(m >> t, -1, period) % period
        found += [reach - (reach - a0) % period, (a0 + reach) % period - reach]
    return [a for a in found if -reach <= a <= reach]


class TestRescaleRoutes:
    """Float accumulators rescale as floor(acc * M_q + 0.5) in float32 while
    the numerator bound reach * max(m) + 2**(max(s)-1) is <= 2**24, in
    float64 while it is <= 2**53, and on the int64 route past that.
    Integer accumulators rescale in int32 while the bound is <= INT32_MAX
    and in int64 past it, with the accumulator's own peak as the reach
    when none is given.  At the edges of each route the results equal the
    oracle's."""

    @staticmethod
    def check(accs, m, s, reach):
        bound = reach * m + (1 << (s - 1))
        route = np.float32 if bound <= 1 << 24 else np.float64
        want = [oracle_rescale(a, m, s) for a in accs]
        # Float32 input holds only accumulators within 2**24.
        for dtype in (np.float32, np.float64) if reach <= 1 << 24 else (np.float64,):
            acc = np.array(accs, dtype=dtype).reshape(-1, 1)
            got = rescale_accumulator(acc, np.array([m]), np.array([s]), reach)
            assert got.dtype == route
            assert got.ravel().tolist() == want

    @pytest.mark.parametrize("numerator, m, s, reach", [
        ((1 << 24) - 1, 2, 1, 8388607),
        (1 << 24, 2, 2, 8388607),
        ((1 << 24) + 1, 2, 1, 8388608),
        ((1 << 53) - 1, 6397753, 25, 1407869175),
        (1 << 53, 4194304, 23, 2147483647),
        ((1 << 53) + 1, 6050993, 24, 1488548945),
        # One route further, where odd products near a tie are inexact in
        # the narrower type.
        (1 << 25, 3, 2, 11184810),
        (1 << 54, 10845877, 25, 1660944384),
    ])
    def test_numerator_at_the_edge(self, numerator, m, s, reach):
        assert reach * m + (1 << (s - 1)) == numerator
        accs = [reach, -reach, reach - 1, 1 - reach, 0, 1, -1] + near_ties(m, s, reach)
        self.check(accs, m, s, reach)

    @settings(max_examples=300, deadline=None)
    @given(numerator=st.sampled_from([(1 << 24) - 1, 1 << 24, (1 << 24) + 1, 1 << 25,
                                      (1 << 53) - 1, 1 << 53, (1 << 53) + 1, 1 << 54]),
           data=st.data())
    def test_numerator_near_the_edge(self, numerator, data):
        # The largest reach whose bound stays at or under the numerator, for
        # a drawn multiplicand and shift, and accumulators across it.  At
        # 2**25 and 2**54, one route further, products near a tie are
        # inexact in the narrower type.
        s = data.draw(st.integers(1, numerator.bit_length() - 2))
        rest = numerator - (1 << (s - 1))
        m = data.draw(st.integers(max(1, -(-rest // INT32_MAX)), (1 << 32) - 1))
        reach = rest // m
        assume(reach >= 1)
        drawn = st.lists(st.integers(-reach, reach), min_size=4, max_size=4)
        self.check([reach, -reach] + near_ties(m, s, reach) + data.draw(drawn), m, s, reach)

    @staticmethod
    def check_int(accs, m, s, reach):
        bound = reach * m + (1 << (s - 1))
        route = np.int32 if bound <= INT32_MAX else np.int64
        want = [oracle_rescale(a, m, s) for a in accs]
        acc = np.array(accs, dtype=np.int32).reshape(-1, 1)
        got = rescale_accumulator(acc, np.array([m]), np.array([s]), reach)
        assert got.dtype == route
        assert got.ravel().tolist() == want
        # Left out, the reach is the peak: the same route as passing it.
        peak = max(abs(a) for a in accs)
        explicit = rescale_accumulator(acc, np.array([m]), np.array([s]), peak)
        omitted = rescale_accumulator(acc, np.array([m]), np.array([s]))
        assert omitted.dtype == explicit.dtype
        assert omitted.ravel().tolist() == explicit.ravel().tolist() == want

    @pytest.mark.parametrize("numerator, m, s, reach", [
        (INT32_MAX, 3, 3, 715827881),
        (INT32_MAX, 143, 11, 15017361),
        (INT32_MAX, 2401, 19, 894303),
        (INT32_MAX + 1, 3, 2, 715827882),
        (INT32_MAX + 1, 153, 8, 14035840),
        (INT32_MAX + 1, 65535, 16, 32768),
        # m > 2**s (M_q = 1.5): results beyond their accumulators, which
        # the int32 route still holds without saturating.
        (INT32_MAX, 3, 1, 715827882),
        (INT32_MAX + 3, 3, 1, 715827883),
    ])
    def test_integer_numerator_at_the_int32_edge(self, numerator, m, s, reach):
        assert reach * m + (1 << (s - 1)) == numerator
        accs = ([reach, -reach, reach - 1, 1 - reach, 0, 1, -1]
                + tie_accumulators(m, s) + near_ties(m, s, reach))
        self.check_int(accs, m, s, reach)

    @pytest.mark.parametrize("peak", [1, 1 << 15, INT32_MAX, 1 << 31])
    @pytest.mark.parametrize("m, s", [(0, 31), (0, 32), (1, 1), (3, 1), (5, 3),
                                      (153, 8), (65535, 16)])
    def test_negative_peak_picks_the_route(self, peak, m, s):
        # The peak is the most negative accumulator, down to INT32_MIN at
        # peak 2**31; the positive side stays smaller.  m = 0 keeps int32
        # up to s = 31, whose half step 2**30 is the whole bound.
        accs = [-peak, peak // 2, -(peak // 3), 0] + [
            a for a in tie_accumulators(m, s) if -peak <= a < peak]
        self.check_int(accs, m, s, peak)

    def test_empty_accumulator_has_peak_zero(self):
        got = rescale_accumulator(np.zeros((0, 2), np.int32), np.array([153, 65535]),
                                  np.array([8, 16]))
        assert got.shape == (0, 2) and got.dtype == np.int32
