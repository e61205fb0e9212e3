"""Tests for the training emulation, STE gradients, and fine-tuning."""

import copy
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rescale_lab import datagen, errmodel, floatnet, kernels, model_io, trainer
from rescale_lab.errors import DomainError, OverflowEnvelopeError, ShapeError
from rescale_lab.kernels import QTensor, run_model_int
from rescale_lab.model_io import (
    LayerSpec,
    ModelGraph,
    materialize_rescalers,
    models_equal,
    quantize_float_model,
    validate_model,
)
from rescale_lab.qcore import QuantParams, quantize_rescaler
from oracles import (oracle_emulated_forward, oracle_finetune_loop, oracle_ste_backward,
                     oracle_train_float_loop)
from rescale_lab.trainer import (
    ShadowModel,
    TrainConfig,
    emulated_forward,
    finetune,
    init_shadow,
    softmax_cross_entropy,
    ste_backward,
    train_float,
    weight_change_stats,
)


def small_dense_model(zero_point_in=3, seed=0, n_in=4, n_out=3):
    rng = np.random.default_rng(seed)
    w = rng.integers(-40, 40, size=(n_out, n_in)).astype(np.int8)
    b = rng.integers(-50, 50, size=(n_out,)).astype(np.int32)
    in_qp = QuantParams(scale=0.02, zero_point=zero_point_in)
    out_qp = QuantParams(scale=0.05, zero_point=-2)
    w_scales = 0.005 + 0.01 * rng.random(n_out)
    layer = LayerSpec(
        kind="dense",
        activation="none",
        weights=QTensor(w, w_scales),
        bias=b,
        output=out_qp,
        rescalers=[
            quantize_rescaler(in_qp.scale * float(s) / out_qp.scale, 32)
            for s in w_scales
        ],
    )
    model = ModelGraph(name="unit-dense", input_params=in_qp, layers=[layer])
    validate_model(model)
    return model


def _weighted_layer(rng, k, kind, shape, in_params, out_qp, activation, stride,
                    padding, tiny_channel=None):
    """A random int8 layer whose rescalers come from ``quantize_rescaler`` at
    width ``k`` under the clamp policy; ``tiny_channel`` gets a multiplier of
    1.5 * 2**-28, past the shift budget at every width."""
    w = rng.integers(-128, 128, size=shape).astype(np.int8)
    channels = kernels.channel_count(w)
    w_scales = rng.uniform(1e-3, 4e-3, size=channels) * out_qp.scale / in_params.scale
    if tiny_channel is not None:
        w_scales[tiny_channel] = 1.5 * 2.0**-28 * out_qp.scale / in_params.scale
    rescalers = [quantize_rescaler(in_params.scale * float(sc) / out_qp.scale,
                                   k, on_underflow="clamp") for sc in w_scales]
    return LayerSpec(
        kind=kind, activation=activation, weights=QTensor(w, w_scales),
        bias=rng.integers(-3000, 3000, size=channels).astype(np.int32),
        stride=stride, padding=padding,
        output=out_qp, rescalers=rescalers)


def strided_uneven_graph(k):
    """A non-desk graph at width ``k``: stride-2 SAME conv, stride-2 VALID
    depthwise, avgpool, flatten, dense; depthwise channel 1 carries a
    multiplier of 1.5 * 2**-28, past the shift budget at every width."""
    rng = np.random.default_rng(21)
    in_qp = QuantParams(0.02, -5)
    conv_qp = QuantParams(0.05, -128)
    dw_qp = QuantParams(0.04, -100)
    logits_qp = QuantParams(0.1, 7)
    layers = [
        _weighted_layer(rng, k, "conv2d", (4, 3, 3, 2), in_qp, conv_qp, "relu6",
                        (2, 2), "SAME"),
        _weighted_layer(rng, k, "depthwise", (3, 3, 4), conv_qp, dw_qp, "relu",
                        (2, 2), "VALID", tiny_channel=1),
        LayerSpec(kind="avgpool", window=(2, 5), output=dw_qp,
                  rescalers=[quantize_rescaler(0.1, k)]),
        LayerSpec(kind="flatten", output=dw_qp),
        _weighted_layer(rng, k, "dense", (3, 12), dw_qp, logits_qp, "none",
                        (1, 1), "VALID"),
    ]
    return ModelGraph(name="strided-uneven", input_params=in_qp, layers=layers)


def strided_conv_graph(k):
    """A graph at width ``k`` whose second layer is a 3x3, 3-channel,
    stride-2 SAME conv, so a conv input gradient scatters into a padded,
    strided buffer: stride-1 SAME conv 11x9x2 -> 11x9x3, stride-2 SAME conv
    -> 6x5x4, flatten, dense."""
    rng = np.random.default_rng(22)
    in_qp = QuantParams(0.02, -5)
    conv1_qp = QuantParams(0.05, -128)
    conv2_qp = QuantParams(0.04, -30)
    logits_qp = QuantParams(0.1, 7)
    layers = [
        _weighted_layer(rng, k, "conv2d", (3, 3, 3, 2), in_qp, conv1_qp, "relu6",
                        (1, 1), "SAME"),
        _weighted_layer(rng, k, "conv2d", (4, 3, 3, 3), conv1_qp, conv2_qp, "relu",
                        (2, 2), "SAME"),
        LayerSpec(kind="flatten", output=conv2_qp),
        _weighted_layer(rng, k, "dense", (3, 120), conv2_qp, logits_qp, "none",
                        (1, 1), "VALID"),
    ]
    return ModelGraph(name="strided-conv", input_params=in_qp, layers=layers)


def _desk_graph():
    rng = np.random.default_rng(11)
    fm = floatnet.init_float_model(seed=4)
    return quantize_float_model(fm, [rng.random((6, 28, 28, 1))], name="desk-fixture")


@pytest.fixture(scope="module")
def desk_model():
    return _desk_graph()


@pytest.fixture(scope="module")
def toy_images():
    rng = np.random.default_rng(99)
    images = rng.integers(0, 256, size=(48, 28, 28, 1)).astype(np.uint8)
    labels = rng.integers(0, 10, size=48)
    return images, labels


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.epochs == 2
        assert cfg.batch_size == 32

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(DomainError):
            TrainConfig(batch_size=0)
        with pytest.raises(DomainError):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [1.5, 8.0, True, "2"])
    def test_counts_must_be_ints(self, field, value):
        # 1.5 and 8.0 died in train_float with a bare TypeError, and
        # epochs=True trained one epoch.
        with pytest.raises(DomainError, match=f"{field} must be an int"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("seed", 1.5, "seed must be an int"),
        ("seed", True, "seed must be an int"),
        ("seed", -1, "seed must be >= 0"),
        ("learning_rate", "x", "learning rate must be a finite real"),
        ("learning_rate", True, "learning rate must be a finite real"),
        ("learning_rate", float("inf"), "learning rate must be a finite real"),
        ("learning_rate", float("nan"), "learning rate must be a finite real"),
    ], ids=["seed-float", "seed-bool", "seed-negative", "rate-str", "rate-bool", "rate-inf",
            "rate-nan"])
    def test_seed_and_learning_rate_domains(self, field, value, message):
        # seed=1.5 and seed=-1 died in np.random.default_rng, "x" in a bare
        # comparison, and an infinite rate trained into non-finite weights.
        with pytest.raises(DomainError, match=message):
            TrainConfig(**{field: value})


class TestShadowModel:
    def test_init_copies_integers_exactly(self, desk_model):
        shadow = init_shadow(desk_model)
        for idx, layer in enumerate(desk_model.layers):
            if layer.kind in model_io.WEIGHTED_KINDS:
                assert shadow.weights[idx].dtype == np.float64
                assert np.array_equal(shadow.weights[idx], layer.weights.data)
                assert np.array_equal(shadow.biases[idx], layer.bias)
            else:
                assert shadow.weights[idx] is None
                assert shadow.biases[idx] is None

    def test_shadow_is_a_copy(self, desk_model):
        shadow = init_shadow(desk_model)
        idx = next(i for i, l in enumerate(desk_model.layers)
                   if l.kind in model_io.WEIGHTED_KINDS)
        shadow.weights[idx][...] += 1000.0
        assert not np.array_equal(shadow.weights[idx],
                                  desk_model.layers[idx].weights.data)


class TestEmulatedParity:
    """The emulation must be bit-identical to the integer engine."""

    def batch(self, rng, n=4):
        return rng.integers(-128, 128, size=(n, 28, 28, 1)).astype(np.int8)

    def test_parity_at_init(self, desk_model):
        rng = np.random.default_rng(0)
        mk = materialize_rescalers(desk_model, 8)
        shadow = init_shadow(mk)
        x = self.batch(rng)
        ref = run_model_int(mk, x).astype(np.float64)
        emu, _ = emulated_forward(shadow, x)
        assert np.array_equal(ref, emu)

    def test_parity_on_rounding_plateau(self, desk_model):
        # +0.4 on every shadow weight rounds back to the original integers,
        # so the emulated outputs must still match the *unmodified* model.
        rng = np.random.default_rng(1)
        mk = materialize_rescalers(desk_model, 8)
        shadow = init_shadow(mk)
        for i, w in enumerate(shadow.weights):
            if w is not None:
                shadow.weights[i] = w + 0.4
        x = self.batch(rng)
        ref = run_model_int(mk, x).astype(np.float64)
        emu, _ = emulated_forward(shadow, x)
        assert np.array_equal(ref, emu)

    def test_parity_after_crossing_the_rounding_boundary(self, desk_model):
        # +0.6 rounds every weight up by one; the emulation must match the
        # integer engine running the redeployed model.
        rng = np.random.default_rng(2)
        mk = materialize_rescalers(desk_model, 8)
        shadow = init_shadow(mk)
        for i, w in enumerate(shadow.weights):
            if w is not None:
                shadow.weights[i] = w + 0.6
        redeployed = model_io.redeploy_weights(mk, shadow)
        x = self.batch(rng)
        ref = run_model_int(redeployed, x).astype(np.float64)
        emu, _ = emulated_forward(shadow, x)
        assert np.array_equal(ref, emu)
        # And the redeployed integers really did move.
        idx = next(i for i, l in enumerate(mk.layers)
                   if l.kind in model_io.WEIGHTED_KINDS)
        assert not np.array_equal(redeployed.layers[idx].weights.data,
                                  mk.layers[idx].weights.data)

    @pytest.mark.parametrize("k", [2, 3, 4, 7, 8, 16, 17, 24, 32])
    def test_parity_across_widths(self, desk_model, k):
        rng = np.random.default_rng(100 + k)
        mk = materialize_rescalers(desk_model, k)
        shadow = init_shadow(mk)
        for _ in range(2):
            x = self.batch(rng, n=3)
            ref = run_model_int(mk, x).astype(np.float64)
            emu, _ = emulated_forward(shadow, x)
            assert np.array_equal(ref, emu)

    def test_parity_random_variants(self):
        rng = np.random.default_rng(7)
        for variant in range(3):
            fm = floatnet.init_float_model(seed=50 + variant)
            model = quantize_float_model(fm, [rng.random((4, 28, 28, 1))])
            for k in (2, 8, 32):
                mk = materialize_rescalers(model, k)
                shadow = init_shadow(mk)
                x = self.batch(rng, n=3)
                ref = run_model_int(mk, x).astype(np.float64)
                emu, _ = emulated_forward(shadow, x)
                assert np.array_equal(ref, emu)

    @pytest.mark.parametrize("k", [32, 8, 2])
    def test_parity_on_strided_uneven_graph(self, k):
        # Stride-2 SAME conv 25x21 -> 13x11, stride-2 VALID depthwise on the
        # uneven 13x11 -> 6x5, avgpool (2, 5), flatten, dense.  Depthwise
        # channel 1 needs a shift past the budget: at k=2 the clamp policy
        # leaves it with m=0.
        with pytest.warns(RuntimeWarning, match="underflows"):
            model = strided_uneven_graph(k)
        validate_model(model)
        underflowed = model.layers[1].rescalers[1]
        assert underflowed.underflowed and (underflowed.m == 0) == (k == 2)
        x = np.random.default_rng(k).integers(
            -128, 128, size=(5, 25, 21, 2)).astype(np.int8)
        ref = run_model_int(model, x).astype(np.float64)
        emu, _ = emulated_forward(init_shadow(model), x)
        assert ref.shape == (5, 3)
        assert np.array_equal(ref, emu)

    def test_emulated_envelope_check(self):
        model = small_dense_model()
        shadow = init_shadow(model)
        shadow.biases[0][:] = 2.0**31 + 1e6  # fake-quant clamps to int32 max
        x = np.full((1, 4), 100, dtype=np.int8)
        with pytest.raises(OverflowEnvelopeError):
            emulated_forward(shadow, x)

    @pytest.mark.parametrize("rounding", [True, False])
    def test_parity_at_lower_envelope_edge(self, rounding):
        # (x - z) * w + b = 255 * -128 + (-2**31 + 32640) is exactly -2**31:
        # inside the int32 envelope, so both paths saturate to -128.
        in_qp, out_qp = QuantParams(0.02, -128), QuantParams(0.05, 0)
        layer = LayerSpec(
            kind="dense", weights=QTensor(np.array([[-128]], np.int8), [0.005]),
            bias=np.array([-(1 << 31) + 32640], np.int32),
            output=out_qp,
            rescalers=[quantize_rescaler(0.02 * 0.005 / 0.05, 32)])
        model = ModelGraph(name="edge", input_params=in_qp, layers=[layer])
        x = np.array([[127]], dtype=np.int8)
        assert run_model_int(model, x).tolist() == [[-128]]
        emu, _ = emulated_forward(init_shadow(model), x, rounding=rounding)
        assert emu.tolist() == [[-128.0]]

    def test_empty_batch_gives_empty_logits(self, desk_model):
        # Flatten must not infer the feature count from an empty batch.
        x = np.zeros((0, 28, 28, 1), dtype=np.int8)
        assert run_model_int(desk_model, x).shape == (0, 10)
        shadow = init_shadow(desk_model)
        for rounding in (True, False):
            emu, _ = emulated_forward(shadow, x, rounding=rounding)
            assert emu.shape == (0, 10)
        fm = floatnet.init_float_model(seed=4)
        assert floatnet.forward(fm, np.zeros((0, 28, 28, 1))).shape == (0, 10)

    def test_dense_requires_flat_input(self):
        model = small_dense_model()
        shadow = init_shadow(model)
        with pytest.raises(ShapeError):
            emulated_forward(shadow, np.zeros((1, 2, 2), dtype=np.int8))


class TestEmulationAtItsBounds:
    """The static bound that picks float32 is not optimistic.  A dense layer
    whose products (x - z) * w all reach 255 * 127, with a MAC count that
    takes its odd sum past 2**24, agrees with the engine; one channel's
    accumulator sits at a rounding tie and one just below it, so an error
    of either sign in the sum moves a logit."""

    @pytest.mark.parametrize("n", [515, 601, 1023])
    def test_odd_sums_past_2_pow_24(self, n):
        in_qp, out_qp, w_scale = QuantParams(0.25, -128), QuantParams(0.5, 0), 3 * 2.0**-19
        r = quantize_rescaler(in_qp.scale * w_scale / out_qp.scale, 2)
        assert (r.m, r.s) == (3, 20)
        mac = n * 255 * 127
        period = 1 << r.s
        tie = (period // 2) * pow(r.m, -1, period) % period  # tie * m = 2**(s-1) mod 2**s
        at_tie = mac - (mac - tie) % period
        layer = LayerSpec(
            kind="dense", weights=QTensor(np.full((2, n), 127, np.int8), [w_scale] * 2),
            bias=np.array([at_tie - mac, at_tie - 1 - mac], np.int32), output=out_qp,
            rescalers=[r, r])
        model = ModelGraph(name="bounds", input_params=in_qp, layers=[layer])
        validate_model(model)
        x = np.full((1, n), 127, np.int8)
        engine = run_model_int(model, x)
        assert engine[0, 0] == engine[0, 1] + 1
        emu, _ = emulated_forward(init_shadow(model), x)
        assert np.array_equal(engine, emu)


class TestEmulationAtTheOneBound:
    """The emulated MAC and bias add run in the float type of the layer's
    accumulator_bound, ``255 * sum|w_c| + |b_c|`` at input zero point -128,
    not in that of its shape.  519 taps give a shape bound of
    519 * 255 * 128 > 2**24; channel 0's weights sum to -65793, so
    255 * 65793 = 2**24 - 1, and a bias of -1 puts its bound at exactly
    2**24, -2 at 2**24 + 1.  At input 127 channel 0's accumulator is minus
    its bound, and the rescale 3 * 2**-25 puts -2**24 on a rounding tie:
    -(2**24 + 1) rounded to float32 would move its logit from -2 to -1."""

    @pytest.mark.parametrize("bias, dtype, logit", [(-1, np.float32, -1),
                                                    (-2, np.float64, -2)])
    def test_dense(self, monkeypatch, bias, dtype, logit):
        in_qp, out_qp, w_scale = QuantParams(0.25, -128), QuantParams(0.5, 0), 3 * 2.0**-24
        r = quantize_rescaler(in_qp.scale * w_scale / out_qp.scale, 2)
        assert (r.m, r.s) == (3, 25)
        w = np.full((2, 519), -1, np.int8)
        w[0, :-1], w[0, -1] = -127, -7
        layer = LayerSpec(kind="dense", weights=QTensor(w, [w_scale] * 2),
                          bias=np.array([bias, 5], np.int32), output=out_qp,
                          rescalers=[r, r])
        model = ModelGraph(name="one-bound", input_params=in_qp, layers=[layer])
        validate_model(model)
        assert kernels.mac_count(w) * 255 * 128 > 1 << 24
        assert kernels.accumulator_bound(w, layer.bias, -128).tolist() == [
            (1 << 24) - 1 - bias, 255 * 519 + 5]
        seen = []

        def spy(*args, **kwargs):
            out = kernels.accumulate(*args, **kwargs)
            seen.append(out[0].dtype)
            return out

        monkeypatch.setattr(trainer, "accumulate", spy)
        x = np.full((1, 519), 127, np.int8)
        shadow = init_shadow(model)
        emu, _ = emulated_forward(shadow, x)
        assert seen == [dtype]
        want, _ = oracle_emulated_forward(shadow, x)
        assert np.array_equal(emu, want) and emu[0, 0] == logit
        assert np.array_equal(run_model_int(model, x), emu)

    def test_avgpool_sums_stay_float32(self, desk_cnn_v1, monkeypatch):
        # A window sum of int8 values is at most window_bound = 128 * area,
        # exact in float32, so the emulated avgpool keeps its input's type.
        seen = []

        def spy(x, window):
            out = kernels.window_sum(x, window)
            seen.append((x.dtype, out.dtype))
            return out

        monkeypatch.setattr(trainer, "window_sum", spy)
        model, x = desk_cnn_v1
        emulated_forward(init_shadow(materialize_rescalers(model, 2)), x)
        assert seen == [(np.float32, np.float32)] * 2


class TestSTEGradients:
    def test_rescale_node_factor_is_exactly_m_q(self):
        # Identity upstream on one logit, unit input, zero input offset:
        # the weight gradient must be bitwise equal to the dyadic factor.
        model = small_dense_model(zero_point_in=0)
        shadow = init_shadow(model)
        x = np.ones((1, 4), dtype=np.int8)
        _, cache = emulated_forward(shadow, x)
        for c in range(3):
            upstream = np.zeros((1, 3))
            upstream[0, c] = 1.0
            grads = ste_backward(cache, upstream)
            m_q = model.layers[0].rescalers[c].quantized_value
            assert np.all(grads.weights[0][c] == m_q)

    def test_hand_worked_dense_gradient(self):
        # dLoss/dW[c,i] = M_q[c] * x_i when the loss is the c-th logit,
        # nothing clamps, and the input zero point is zero.
        model = small_dense_model(zero_point_in=0)
        shadow = init_shadow(model)
        x = np.array([[5, -7, 11, 2]], dtype=np.int8)
        _, cache = emulated_forward(shadow, x)
        upstream = np.zeros((1, 3))
        upstream[0, 1] = 1.0
        grads = ste_backward(cache, upstream)
        m_q = model.layers[0].rescalers[1].quantized_value
        assert np.array_equal(grads.weights[0][1],
                              m_q * x[0].astype(np.float64))
        assert np.all(grads.weights[0][[0, 2]] == 0.0)
        assert grads.biases[0][1] == m_q
        assert np.all(grads.biases[0][[0, 2]] == 0.0)

    def test_input_offset_enters_the_weight_gradient(self):
        model = small_dense_model(zero_point_in=3)
        shadow = init_shadow(model)
        x = np.array([[5, -7, 11, 2]], dtype=np.int8)
        _, cache = emulated_forward(shadow, x)
        upstream = np.zeros((1, 3))
        upstream[0, 0] = 1.0
        grads = ste_backward(cache, upstream)
        m_q = model.layers[0].rescalers[0].quantized_value
        assert np.array_equal(grads.weights[0][0],
                              m_q * (x[0].astype(np.float64) - 3))

    def test_saturated_output_blocks_all_gradient(self):
        # Weights and input large enough that every output pins at +127:
        # the clamp node must zero the gradient for weights and biases.
        rng = np.random.default_rng(5)
        w = np.full((3, 4), 100, dtype=np.int8)
        b = np.zeros(3, dtype=np.int32)
        in_qp = QuantParams(scale=0.02, zero_point=0)
        out_qp = QuantParams(scale=0.05, zero_point=0)
        w_scales = np.full(3, 0.1)
        layer = LayerSpec(
            kind="dense", activation="none", weights=QTensor(w, w_scales),
            bias=b, output=out_qp,
            rescalers=[quantize_rescaler(0.04, 32)] * 3,
        )
        model = ModelGraph(name="sat", input_params=in_qp, layers=[layer])
        shadow = init_shadow(model)
        x = np.full((1, 4), 120, dtype=np.int8)
        out, cache = emulated_forward(shadow, x)
        assert np.all(out == 127)
        grads = ste_backward(cache, np.ones((1, 3)))
        assert np.all(grads.weights[0] == 0.0)
        assert np.all(grads.biases[0] == 0.0)

    def test_saturation_blocks_gradient_to_earlier_layers(self):
        # Two dense layers; the second saturates, so the first layer's
        # weights see no gradient at all.
        in_qp = QuantParams(scale=0.02, zero_point=0)
        mid_qp = QuantParams(scale=0.05, zero_point=0)
        out_qp = QuantParams(scale=0.05, zero_point=0)
        w1 = np.array([[10, 10], [5, 5]], dtype=np.int8)
        w2 = np.full((2, 2), 100, dtype=np.int8)
        mk_scales = np.full(2, 0.02)
        layer1 = LayerSpec(
            kind="dense", activation="none", weights=QTensor(w1, mk_scales),
            bias=np.zeros(2, dtype=np.int32),
            output=mid_qp, rescalers=[quantize_rescaler(0.008, 32)] * 2,
        )
        w2_scales = np.full(2, 0.1)
        layer2 = LayerSpec(
            kind="dense", activation="none", weights=QTensor(w2, w2_scales),
            bias=np.zeros(2, dtype=np.int32),
            output=out_qp, rescalers=[quantize_rescaler(0.1, 32)] * 2,
        )
        model = ModelGraph(name="sat2", input_params=in_qp,
                           layers=[layer1, layer2])
        shadow = init_shadow(model)
        x = np.full((1, 2), 120, dtype=np.int8)
        out, cache = emulated_forward(shadow, x)
        assert np.all(np.abs(out) == 127)
        grads = ste_backward(cache, np.ones((1, 2)))
        assert np.all(grads.weights[0] == 0.0)
        assert np.all(grads.weights[1] == 0.0)

    def test_weight_outside_clamp_gets_no_gradient(self):
        model = small_dense_model(zero_point_in=0)
        shadow = init_shadow(model)
        shadow.weights[0][0, 0] = 130.0  # beyond int8: fake-quant clamps
        x = np.ones((1, 4), dtype=np.int8)
        _, cache = emulated_forward(shadow, x)
        upstream = np.ones((1, 3))
        grads = ste_backward(cache, upstream)
        assert grads.weights[0][0, 0] == 0.0
        assert grads.weights[0][0, 1] != 0.0

    def test_avgpool_backward_spreads_by_dyadic_factor(self):
        in_qp = QuantParams(scale=0.1, zero_point=0)
        layer = LayerSpec(kind="avgpool", window=(2, 2),
                          output=QuantParams(scale=0.1, zero_point=0),
                          rescalers=[quantize_rescaler(0.25, 32)])
        model = ModelGraph(name="pool", input_params=in_qp, layers=[layer])
        shadow = init_shadow(model)
        x = np.arange(16, dtype=np.int8).reshape(1, 4, 4, 1)
        out, cache = emulated_forward(shadow, x)
        g = np.ones_like(out)
        # No parameters, but the upstream gradient spread is observable via
        # a dense layer placed before the pool; here just assert it runs and
        # produces no parameter gradients.
        grads = ste_backward(cache, g)
        assert grads.weights == [None]
        assert grads.biases == [None]

    def test_pool_then_dense_chain_gradient(self):
        # dense after avgpool: input gradient through the pool is g*M_q
        # replicated over each window; verify via the dense layer's weight
        # gradient shape and a finite-difference probe on the surrogate.
        rng = np.random.default_rng(8)
        in_qp = QuantParams(scale=0.1, zero_point=0)
        mid_qp = QuantParams(scale=0.1, zero_point=0)
        out_qp = QuantParams(scale=0.2, zero_point=0)
        pool = LayerSpec(kind="avgpool", window=(2, 2), output=mid_qp,
                         rescalers=[quantize_rescaler(0.25, 32)])
        flat = LayerSpec(kind="flatten", output=mid_qp)
        w = rng.integers(-30, 30, size=(2, 4)).astype(np.int8)
        w_scales = np.full(2, 0.04)
        dense = LayerSpec(kind="dense", activation="none",
                          weights=QTensor(w, w_scales),
                          bias=np.zeros(2, dtype=np.int32),
                          output=out_qp,
                          rescalers=[quantize_rescaler(0.02, 32)] * 2)
        model = ModelGraph(name="chain", input_params=in_qp,
                           layers=[pool, flat, dense])
        validate_model(model)
        shadow = init_shadow(model)
        x = rng.integers(-50, 50, size=(2, 4, 4, 1)).astype(np.int8)
        labels = np.array([0, 1])

        def loss_at():
            logits, _ = emulated_forward(shadow, x, rounding=False)
            return softmax_cross_entropy(logits, labels, out_qp)[0]

        logits, cache = emulated_forward(shadow, x, rounding=False)
        loss, grad = softmax_cross_entropy(logits, labels, out_qp)
        grads = ste_backward(cache, grad)
        g_an = grads.weights[2]
        fd = np.zeros_like(g_an)
        h = 1e-3
        for i in range(fd.shape[0]):
            for j in range(fd.shape[1]):
                shadow.weights[2][i, j] += h
                up = loss_at()
                shadow.weights[2][i, j] -= 2 * h
                dn = loss_at()
                shadow.weights[2][i, j] += h
                fd[i, j] = (up - dn) / (2 * h)
        assert np.linalg.norm(fd - g_an) / np.linalg.norm(fd) < 1e-6


class TestFiniteDifference:
    """Analytic STE gradients equal true gradients of the smooth surrogate."""

    def _fd_check(self, model, x, labels, layer_idx, h=1e-3):
        shadow = init_shadow(model)
        out_qp = model.layers[-1].output

        def loss_at():
            logits, _ = emulated_forward(shadow, x, rounding=False)
            return softmax_cross_entropy(logits, labels, out_qp)[0]

        logits, cache = emulated_forward(shadow, x, rounding=False)
        _, grad = softmax_cross_entropy(logits, labels, out_qp)
        grads = ste_backward(cache, grad)
        g_an = grads.weights[layer_idx]
        w = shadow.weights[layer_idx]
        fd = np.zeros_like(g_an)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            w[ix] += h
            up = loss_at()
            w[ix] -= 2 * h
            dn = loss_at()
            w[ix] += h
            fd[ix] = (up - dn) / (2 * h)
        denom = np.linalg.norm(fd)
        assert denom > 0
        return np.linalg.norm(fd - g_an) / denom

    def test_dense_fd(self):
        model = small_dense_model(zero_point_in=3)
        rng = np.random.default_rng(1)
        x = rng.integers(-100, 100, size=(6, 4)).astype(np.int8)
        labels = rng.integers(0, 3, size=6)
        assert self._fd_check(model, x, labels, 0) < 1e-6

    def test_conv2d_fd(self):
        rng = np.random.default_rng(2)
        in_qp = QuantParams(scale=0.02, zero_point=1)
        out_qp = QuantParams(scale=0.06, zero_point=0)
        w = rng.integers(-20, 20, size=(2, 3, 3, 1)).astype(np.int8)
        w_scales = np.array([0.01, 0.012])
        conv = LayerSpec(kind="conv2d", activation="none",
                         weights=QTensor(w, w_scales),
                         bias=rng.integers(-40, 40, size=2).astype(np.int32),
                         padding="SAME",
                         output=out_qp,
                         rescalers=[quantize_rescaler(in_qp.scale * s / out_qp.scale, 32)
                                    for s in w_scales])
        flat = LayerSpec(kind="flatten", output=out_qp)
        mid = out_qp
        wd = rng.integers(-10, 10, size=(3, 32)).astype(np.int8)
        wd_scales = np.full(3, 0.01)
        final_qp = QuantParams(scale=0.1, zero_point=0)
        dense = LayerSpec(kind="dense", activation="none",
                          weights=QTensor(wd, wd_scales),
                          bias=np.zeros(3, dtype=np.int32),
                          output=final_qp,
                          rescalers=[quantize_rescaler(mid.scale * 0.01 / final_qp.scale, 32)] * 3)
        model = ModelGraph(name="fd-conv", input_params=in_qp,
                           layers=[conv, flat, dense])
        validate_model(model)
        x = rng.integers(-60, 60, size=(2, 4, 4, 1)).astype(np.int8)
        labels = rng.integers(0, 3, size=2)
        assert self._fd_check(model, x, labels, 0) < 1e-6

    def test_depthwise_fd(self):
        rng = np.random.default_rng(3)
        in_qp = QuantParams(scale=0.02, zero_point=-1)
        out_qp = QuantParams(scale=0.05, zero_point=2)
        w = rng.integers(-15, 15, size=(3, 3, 2)).astype(np.int8)
        w_scales = np.array([0.01, 0.008])
        dw = LayerSpec(kind="depthwise", activation="none",
                       weights=QTensor(w, w_scales),
                       bias=rng.integers(-30, 30, size=2).astype(np.int32),
                       padding="SAME",
                       output=out_qp,
                       rescalers=[quantize_rescaler(in_qp.scale * s / out_qp.scale, 32)
                                  for s in w_scales])
        flat = LayerSpec(kind="flatten", output=out_qp)
        wd = rng.integers(-10, 10, size=(2, 32)).astype(np.int8)
        wd_scales = np.full(2, 0.01)
        final_qp = QuantParams(scale=0.1, zero_point=0)
        dense = LayerSpec(kind="dense", activation="none",
                          weights=QTensor(wd, wd_scales),
                          bias=np.zeros(2, dtype=np.int32),
                          output=final_qp,
                          rescalers=[quantize_rescaler(out_qp.scale * 0.01 / final_qp.scale, 32)] * 2)
        model = ModelGraph(name="fd-dw", input_params=in_qp,
                           layers=[dw, flat, dense])
        validate_model(model)
        x = rng.integers(-60, 60, size=(2, 4, 4, 2)).astype(np.int8)
        labels = rng.integers(0, 2, size=2)
        assert self._fd_check(model, x, labels, 0) < 1e-6


    @pytest.mark.filterwarnings("ignore:.*underflows:RuntimeWarning")
    @pytest.mark.parametrize("build, shape", [
        (strided_uneven_graph, (4, 25, 21, 2)),
        (strided_conv_graph, (4, 11, 9, 2)),
    ], ids=["strided_uneven", "strided_conv"])
    def test_strided_graph_fd(self, build, shape):
        # Every weight tensor: a stride-2 layer after layer 0 passes its
        # input gradient to the weights before it, so a lost scatter shows
        # there.  Weights at the int8 edges move one step inside, because
        # the fake-quant clamp has a kink there that a central difference
        # cannot see past.
        model = build(32)
        weighted = [i for i, l in enumerate(model.layers)
                    if l.kind in model_io.WEIGHTED_KINDS]
        for i in weighted:
            np.clip(model.layers[i].weights.data, -127, 126,
                    out=model.layers[i].weights.data)
        rng = np.random.default_rng(40)
        x = rng.integers(-128, 128, size=shape).astype(np.int8)
        labels = rng.integers(0, 3, size=shape[0])
        for i in weighted:
            assert self._fd_check(model, x, labels, i) < 1e-6, i


def _perturbed_cache(model, x, labels, seed):
    """Emulated forward cache and loss gradient of a shadow moved by up to
    +-0.4 from the model's integers (some -128 weights leave the clamp
    range, so the weight masks are exercised too)."""
    shadow = init_shadow(model)
    rng = np.random.default_rng(seed)
    for i, w in enumerate(shadow.weights):
        if w is not None:
            shadow.weights[i] = w + rng.uniform(-0.4, 0.4, size=w.shape)
            shadow.biases[i] = shadow.biases[i] + rng.uniform(-0.4, 0.4, size=shadow.biases[i].shape)
    logits, cache = emulated_forward(shadow, x)
    _, grad = softmax_cross_entropy(logits, labels, model.layers[-1].output)
    return cache, grad


def _graph_case(name, k):
    """(model, x, labels) for one of the graphs the backward is checked on."""
    rng = np.random.default_rng(k)
    if name == "desk":
        model = materialize_rescalers(_desk_graph(), k)
        shape, classes = (6, 28, 28, 1), 10
    elif name == "strided_uneven":
        with pytest.warns(RuntimeWarning, match="underflows"):
            model = strided_uneven_graph(k)
        shape, classes = (5, 25, 21, 2), 3
    else:
        model = strided_conv_graph(k)
        shape, classes = (5, 11, 9, 2), 3
    x = rng.integers(-128, 128, size=shape).astype(np.int8)
    return model, x, rng.integers(0, classes, size=shape[0])


class TestBackwardAgainstOracle:
    """The matmul backward equals the einsum reference of ``oracles`` to
    1e-12 relative: the same sums, in another order."""

    @pytest.mark.parametrize("k", [32, 8, 2])
    @pytest.mark.parametrize("name", ["desk", "strided_uneven", "strided_conv"])
    def test_matches_einsum_reference(self, name, k):
        model, x, labels = _graph_case(name, k)
        cache, grad = _perturbed_cache(model, x, labels, seed=k)
        got = ste_backward(cache, grad)
        ref_w, ref_b = oracle_ste_backward(cache, grad)
        for idx, layer in enumerate(model.layers):
            if layer.kind not in model_io.WEIGHTED_KINDS:
                assert got.weights[idx] is None and got.biases[idx] is None
                continue
            for mine, ref in ((got.weights[idx], ref_w[idx]), (got.biases[idx], ref_b[idx])):
                assert mine.shape == ref.shape
                scale = np.abs(ref).max()
                assert scale > 0, (idx, layer.kind)
                assert np.abs(mine - ref).max() <= 1e-12 * scale, (idx, layer.kind)


@st.composite
def small_graph_specs(draw):
    """Plain-value specs of small valid graphs: an input shape, up to three
    conv2d, depthwise or avgpool layers (stride 1-2, SAME or VALID,
    none/relu/relu6, windows that divide the map, non-powers of two
    included), then flatten and dense, at a width k in 2..32.  The seed
    draws the weights, biases, scales and zero points."""
    h, w, c = draw(st.integers(3, 9)), draw(st.integers(3, 9)), draw(st.integers(1, 3))
    spec = {"k": draw(st.integers(2, 32)), "seed": draw(st.integers(0, 2**32 - 1)),
            "in_shape": (h, w, c), "layers": [], "classes": draw(st.integers(1, 4))}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["conv2d", "depthwise", "avgpool"]))
        if kind == "avgpool":
            window = tuple(draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
                           for n in (h, w))
            spec["layers"].append(("avgpool", window))
            h, w = h // window[0], w // window[1]
            continue
        kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        fits = kernel[0] <= h and kernel[1] <= w
        padding = draw(st.sampled_from(["SAME", "VALID"] if fits else ["SAME"]))
        c = draw(st.integers(1, 4)) if kind == "conv2d" else c
        spec["layers"].append((kind, c, kernel, stride, padding,
                               draw(st.sampled_from(["none", "relu", "relu6"]))))
        h, w, _ = kernels._conv_geometry((1, h, w, c), *kernel, stride, padding)
    return spec


def _random_qparams(rng):
    return QuantParams(float(rng.uniform(0.02, 0.2)), int(rng.integers(-128, 128)))


def graph_from_spec(spec):
    """The validated ModelGraph a :func:`small_graph_specs` spec describes."""
    rng = np.random.default_rng(spec["seed"])
    k, (h, w, c) = spec["k"], spec["in_shape"]
    in_qp = qp = _random_qparams(rng)
    layers = []
    for kind, *rest in spec["layers"]:
        if kind == "avgpool":
            (window,) = rest
            layers.append(LayerSpec(kind="avgpool", window=window, output=qp,
                                    rescalers=[quantize_rescaler(1.0 / math.prod(window), k)]))
            h, w = h // window[0], w // window[1]
            continue
        channels, kernel, stride, padding, activation = rest
        shape = (channels, *kernel, c) if kind == "conv2d" else (*kernel, c)
        out_qp = _random_qparams(rng)
        layers.append(_weighted_layer(rng, k, kind, shape, qp, out_qp, activation,
                                      stride, padding))
        qp, c = out_qp, channels
        h, w, _ = kernels._conv_geometry((1, h, w, c), *kernel, stride, padding)
    layers.append(LayerSpec(kind="flatten", output=qp))
    layers.append(_weighted_layer(rng, k, "dense", (spec["classes"], h * w * c), qp,
                                  _random_qparams(rng), "none", (1, 1), "VALID"))
    model = ModelGraph(name="random", input_params=in_qp, layers=layers)
    validate_model(model)
    return model


class TestRandomGraphs:
    """On small random graphs of every layer kind: engine and emulation
    agree bit for bit, the backward matches the einsum reference, each
    rescaled layer's cached factor is exactly its rescalers' M_q, and the
    emulation and its gradients give the float64 oracle's bits."""

    @settings(max_examples=60, deadline=None)
    @given(spec=small_graph_specs())
    # A single-channel avgpool over a 3x3 window: its 1-entry factor meets
    # channel-tiled rows of length 1.
    @example(spec={"k": 2, "seed": 1, "in_shape": (6, 9, 1), "layers": [("avgpool", (3, 3))],
                   "classes": 3})
    @example(spec={"k": 5, "seed": 2, "in_shape": (6, 6, 2), "classes": 2, "layers": [
        ("depthwise", 2, (3, 3), (1, 1), "SAME", "relu6"), ("avgpool", (3, 2)),
        ("conv2d", 3, (2, 2), (2, 2), "VALID", "relu")]})
    def test_parity_backward_and_factors(self, spec):
        model = graph_from_spec(spec)
        rng = np.random.default_rng(spec["seed"])
        x = rng.integers(-128, 128, size=(3, *spec["in_shape"])).astype(np.int8)
        logits, cache = emulated_forward(init_shadow(model), x)
        assert np.array_equal(run_model_int(model, x).astype(np.float64), logits)

        for layer, entry in zip(model.layers, cache):
            if layer.kind != "flatten":
                want = [r.quantized_value for r in layer.rescalers]
                assert entry["factor"].dtype == np.float64
                assert entry["factor"].tolist() == want, layer.kind

        grad = rng.standard_normal(logits.shape)
        got = ste_backward(cache, grad)
        ref_w, ref_b = oracle_ste_backward(cache, grad)
        for mine, ref in zip(got.weights + got.biases, ref_w + ref_b):
            assert (mine is None) == (ref is None)
            if ref is not None:
                assert mine.shape == ref.shape
                assert np.abs(mine - ref).max() <= 1e-12 * np.abs(ref).max()
        assert_float64_oracle_bits(init_shadow(model), x, rng)

    @settings(max_examples=60, deadline=None)
    @given(spec=small_graph_specs())
    def test_container_round_trip(self, spec):
        model = graph_from_spec(spec)
        data = model_io.model_to_bytes(model)
        loaded = model_io.model_from_bytes(data)
        assert model_io.model_to_bytes(loaded) == data
        rng = np.random.default_rng(spec["seed"])
        x = rng.integers(-128, 128, size=(3, *spec["in_shape"])).astype(np.int8)
        assert np.array_equal(run_model_int(loaded, x), run_model_int(model, x))

    @settings(max_examples=60, deadline=None)
    @given(spec=small_graph_specs())
    def test_accumulator_bound_covers_the_peak(self, spec):
        # Random uint8 probes plus the all-0 and all-255 images.
        model = graph_from_spec(spec)
        rng = np.random.default_rng(spec["seed"])
        probes = rng.integers(0, 256, size=(6, *spec["in_shape"]), dtype=np.uint8)
        probes[0], probes[1] = 0, 255
        for idx, layer in enumerate(model.layers):
            if layer.kind != "flatten":
                report = errmodel.layer_error_report(model, idx, probes)
                assert np.all(report.max_abs_acc <= report.analytic_max_abs_acc), idx


def assert_float64_oracle_bits(shadow, x, rng):
    """The emulation, and the STE gradients of its cache, equal the float64
    oracle's bit for bit: logits, masks and factors, then every gradient."""
    logits, cache = emulated_forward(shadow, x)
    want, want_cache = oracle_emulated_forward(shadow, x)
    assert np.array_equal(logits, want)
    for entry, ref in zip(cache, want_cache, strict=True):
        assert entry.keys() == ref.keys()
        if "mask" in ref:
            assert np.array_equal(entry["mask"], ref["mask"]), ref["kind"]
            assert entry["factor"].tobytes() == ref["factor"].tobytes(), ref["kind"]
    grad = rng.standard_normal(logits.shape)
    got, ref = ste_backward(cache, grad), ste_backward(want_cache, grad)
    for mine, theirs in zip(got.weights + got.biases, ref.weights + ref.biases):
        assert (mine is None) == (theirs is None)
        if theirs is not None:
            assert mine.dtype == theirs.dtype == np.float64
            assert mine.tobytes() == theirs.tobytes()


@pytest.fixture(scope="module")
def desk_cnn_v1():
    """The committed desk-cnn-v1 float model, quantized on 64 rendered
    digits, and 6 more digits as int8 input."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "desk_cnn_v1_float.npz")
    rng = np.random.default_rng(31)
    images = datagen.render_digits(rng.integers(0, 10, size=70), rng)
    model = quantize_float_model(floatnet.load_float_model(path),
                                 [kernels.unit_images(images[:64])])
    return model, kernels.quantize_real(kernels.unit_images(images[64:]),
                                        model.input_params)


class TestFloat64Oracle:
    """Where a static bound proves float32 exact the emulation runs in it,
    and nothing moves: every width gives the float64 route's bits."""

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16, 32])
    def test_desk_cnn_v1(self, desk_cnn_v1, k):
        model, x = desk_cnn_v1
        shadow = init_shadow(materialize_rescalers(model, k))
        rng = np.random.default_rng(k)
        for i, w in enumerate(shadow.weights):
            if w is not None:
                shadow.weights[i] = w + rng.uniform(-0.6, 0.6, size=w.shape)
        assert_float64_oracle_bits(shadow, x, rng)

    def test_cached_operands_are_float32_where_exact(self, desk_cnn_v1):
        # Every rounding-mode activation is float32, and every layer caches
        # it as its float32 MAC operand: each layer's accumulator bound is
        # <= 2**24 (dense's, over 784 taps, is far below its shape bound).
        # The surrogate stays float64.
        model, x = desk_cnn_v1
        _, cache = emulated_forward(init_shadow(materialize_rescalers(model, 2)), x)
        kinds = {e["kind"]: e["cols"].dtype for e in cache if "cols" in e}
        assert kinds == {"conv2d": np.float32, "depthwise": np.float32,
                         "dense": np.float32}
        _, surrogate = emulated_forward(init_shadow(model), x, rounding=False)
        assert all(e["cols"].dtype == np.float64 for e in surrogate if "cols" in e)


class TestBackwardLeavesInputsAlone:
    """ste_backward works in place only on arrays it made: two calls on one
    cache agree, and neither the cache nor ``grad_out`` changes."""

    def _check(self, cache, grad):
        saved_cache, saved_grad = copy.deepcopy(cache), grad.copy()
        first = ste_backward(cache, grad)
        second = ste_backward(cache, grad)
        for a, b in zip(first.weights + first.biases, second.weights + second.biases):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert np.array_equal(grad, saved_grad)
        for entry, saved in zip(cache, saved_cache):
            assert entry.keys() == saved.keys()
            for key in entry:
                assert np.array_equal(entry[key], saved[key]), (entry["kind"], key)

    @pytest.mark.parametrize("name", ["desk", "strided_uneven", "strided_conv"])
    def test_emulated_cache(self, name):
        model, x, labels = _graph_case(name, 2)
        self._check(*_perturbed_cache(model, x, labels, seed=5))

    def test_float_training_cache(self):
        # Float training's identity nodes (mask True, factor 1.0) hand
        # grad_out itself to the dense layer's gradients.
        rng = np.random.default_rng(6)
        x = rng.random((4, 28, 28, 1))
        logits, cache = trainer._float_forward(floatnet.init_float_model(seed=6), x)
        _, grad = softmax_cross_entropy(logits, np.array([0, 3, 5, 9]),
                                        QuantParams(scale=1.0))
        self._check(cache, grad)


class TestFinetune:
    def test_byte_identity_at_vanishing_learning_rate(self, desk_model, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=1e-30, epochs=1, batch_size=16, seed=3)
        result = finetune(desk_model, images, labels, cfg, k=8)
        base = materialize_rescalers(desk_model, 8)
        assert models_equal(result.model, base)
        assert result.stats.changed_ratio == 0.0
        assert result.stats.layers_affected == 0

    def test_zero_epochs_returns_identical_model(self, desk_model, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=0.5, epochs=0, batch_size=16, seed=3)
        result = finetune(desk_model, images, labels, cfg, k=8)
        assert models_equal(result.model, materialize_rescalers(desk_model, 8))
        assert result.history == []

    def test_deterministic_for_fixed_seed(self, desk_model, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=0.3, epochs=1, batch_size=16, seed=12)
        r1 = finetune(desk_model, images, labels, cfg, k=8)
        r2 = finetune(desk_model, images, labels, cfg, k=8)
        assert models_equal(r1.model, r2.model)
        assert [e.loss for e in r1.history] == [e.loss for e in r2.history]

    def test_quantization_parameters_frozen(self, desk_model, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=500.0, epochs=2, batch_size=16, seed=3)
        base = materialize_rescalers(desk_model, 8)
        result = finetune(base, images, labels, cfg, k=8)
        tuned = result.model
        assert tuned.k == base.k
        assert tuned.input_params == base.input_params
        moved = 0
        for before, after in zip(base.layers, tuned.layers):
            assert after.output == before.output
            assert after.stride == before.stride
            assert after.padding == before.padding
            if before.kind in model_io.WEIGHTED_KINDS:
                assert np.array_equal(after.weights.qparams, before.weights.qparams)
                for r_b, r_a in zip(before.rescalers, after.rescalers):
                    assert (r_a.m, r_a.s, r_a.k) == (r_b.m, r_b.s, r_b.k)
                    assert r_a.real_value == r_b.real_value
                if not np.array_equal(after.weights.data, before.weights.data):
                    moved += 1
        assert moved > 0  # the large step size must actually move integers

    def test_materializes_when_width_differs(self, desk_model, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=1e-30, epochs=1, batch_size=16, seed=3)
        result = finetune(desk_model, images, labels, cfg, k=4)
        assert result.model.k == 4

    def test_history_records_accuracy_when_eval_given(self, desk_model, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=16, seed=3)
        result = finetune(desk_model, images, labels, cfg, k=8,
                          eval_images=images, eval_labels=labels)
        assert len(result.history) == 2
        assert [e.epoch for e in result.history] == [1, 2]
        for record in result.history:
            assert 0.0 <= record.accuracy <= 100.0
            assert math.isfinite(record.loss)

    def test_history_accuracy_nan_without_eval_set(self, desk_model, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=16, seed=3)
        result = finetune(desk_model, images, labels, cfg, k=8)
        assert math.isnan(result.history[0].accuracy)

    def test_loss_descends_when_overfitting_a_few_samples(self, desk_model):
        rng = np.random.default_rng(21)
        images = rng.integers(0, 256, size=(8, 28, 28, 1)).astype(np.uint8)
        labels = rng.integers(0, 10, size=8)
        cfg = TrainConfig(learning_rate=500.0, epochs=8, batch_size=8, seed=0)
        result = finetune(desk_model, images, labels, cfg, k=8)
        losses = [e.loss for e in result.history]
        assert losses[-1] < losses[0]

    def test_matches_the_separate_loop_bit_for_bit(self, desk_model, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=500.0, epochs=2, batch_size=20, seed=4)
        result = finetune(desk_model, images, labels, cfg, k=2,
                          eval_images=images[:30], eval_labels=labels[:30])
        model, history = oracle_finetune_loop(desk_model, images, labels, cfg, 2,
                                              images[:30], labels[:30])
        assert result.stats.changed_ratio > 0
        assert models_equal(result.model, model)  # every weight and bias byte
        assert [(e.epoch, e.loss, e.accuracy) for e in result.history] == history


class TestTrainFloat:
    def test_matches_the_separate_loop_bit_for_bit(self):
        # Three epochs so the step size halves; (n, h, w) images with a
        # ragged last batch; an eval set so every epoch measures accuracy.
        rng = np.random.default_rng(41)
        images = rng.integers(0, 256, size=(40, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=40)
        cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=16, seed=7)
        got, history = train_float(images, labels, cfg,
                                   eval_images=images[:24], eval_labels=labels[:24])
        want, want_history = oracle_train_float_loop(images, labels, cfg,
                                                     images[:24], labels[:24])
        for name in vars(want):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert [(e.epoch, e.loss, e.accuracy) for e in history] == want_history

    def test_deterministic(self, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=16, seed=9)
        m1, h1 = train_float(images, labels, cfg)
        m2, h2 = train_float(images, labels, cfg)
        for name in ("conv1_w", "dw_w", "conv2_w", "dense_w", "dense_b"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))
        assert [e.loss for e in h1] == [e.loss for e in h2]

    def test_float_unit_images_train_as_their_uint8_images(self, toy_images):
        # Float input is unit images, as forward and float_accuracy read it;
        # it was divided by 255 a second time.
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=16, seed=9)
        want, _ = train_float(images, labels, cfg)
        got, _ = train_float(images / 255.0, labels, cfg)
        for name in vars(want):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_int8_images_are_refused(self, toy_images):
        images, labels = toy_images
        with pytest.raises(ShapeError, match="images must be uint8 or float, got int8"):
            train_float(images.astype(np.int8), labels,
                        TrainConfig(learning_rate=0.05, epochs=1, batch_size=16, seed=9))

    def test_loss_descends_across_epochs(self):
        rng = np.random.default_rng(30)
        images = rng.integers(0, 256, size=(16, 28, 28, 1)).astype(np.uint8)
        labels = rng.integers(0, 10, size=16)
        cfg = TrainConfig(learning_rate=0.1, epochs=5, batch_size=16, seed=2)
        _, history = train_float(images, labels, cfg)
        losses = [e.loss for e in history]
        assert losses[-1] < losses[0]

    def test_eval_accuracy_reported(self, toy_images):
        images, labels = toy_images
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=16, seed=9)
        _, history = train_float(images, labels, cfg,
                                 eval_images=images, eval_labels=labels)
        assert 0.0 <= history[0].accuracy <= 100.0

    def test_float_gradients_match_finite_differences(self):
        # Float training backpropagates through ste_backward from the float
        # forward's cache; spot-check every parameter tensor against central
        # differences of the loss of floatnet.forward.
        rng = np.random.default_rng(17)
        images = rng.integers(0, 256, size=(3, 28, 28, 1)).astype(np.uint8)
        labels = np.array([1, 4, 7])
        model = floatnet.init_float_model(seed=6)
        # Nonzero biases keep pre-activations off the ReLU6 kinks, where
        # central differences are undefined: with zero biases, windows that
        # see only zeros sit exactly at 0.
        for name in ("conv1_b", "dw_b", "conv2_b", "dense_b"):
            setattr(model, name, rng.normal(0.0, 0.1, size=getattr(model, name).shape))
        x = images.astype(np.float64) / 255.0

        def loss_of(model):
            logits = floatnet.forward(model, x)
            shifted = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
            return float(-np.mean(np.log(probs[np.arange(3), labels])))

        logits, cache = trainer._float_forward(model, x)
        _, grad = softmax_cross_entropy(logits, labels, QuantParams(scale=1.0))
        result = ste_backward(cache, grad)
        grads = {}
        for layer, d_w, d_b in zip(floatnet.LAYERS, result.weights, result.biases):
            if layer.param is not None:
                grads[f"{layer.param}_w"] = d_w
                grads[f"{layer.param}_b"] = d_b
        assert sorted(grads) == sorted(vars(model))
        h = 1e-6
        rng2 = np.random.default_rng(0)
        for name in grads:
            tensor = getattr(model, name)
            for _ in range(4):
                ix = tuple(rng2.integers(0, d) for d in tensor.shape)
                tensor[ix] += h
                up = loss_of(model)
                tensor[ix] -= 2 * h
                dn = loss_of(model)
                tensor[ix] += h
                fd = (up - dn) / (2 * h)
                an = grads[name][ix]
                assert abs(fd - an) <= 1e-5 * max(1.0, abs(fd)), (name, ix, fd, an)


class TestLabelCounts:
    """One label per image, or ShapeError naming both counts: broadcasting
    would score 5 images against 1 label, and training would silently use
    only the labeled images."""

    def test_evaluate_int(self, desk_model):
        with pytest.raises(ShapeError, match="1 labels for 5 images"):
            kernels.evaluate_int(desk_model, np.zeros((5, 28, 28), np.uint8),
                                 np.zeros(1, np.uint8))

    def test_float_accuracy(self):
        with pytest.raises(ShapeError, match="1 labels for 5 images"):
            trainer.float_accuracy(floatnet.init_float_model(seed=0),
                                   np.zeros((5, 28, 28), np.uint8), np.zeros(1, np.uint8))

    def test_finetune(self, desk_model):
        cfg = TrainConfig(learning_rate=1.0, epochs=1, batch_size=32, seed=0)
        with pytest.raises(ShapeError, match="50 labels for 100 images"):
            finetune(desk_model, np.zeros((100, 28, 28), np.uint8),
                     np.zeros(50, np.uint8), cfg, k=8)
        with pytest.raises(ShapeError, match="1 labels for 5 images"):
            finetune(desk_model, np.zeros((4, 28, 28), np.uint8), np.zeros(4, np.uint8),
                     cfg, k=8, eval_images=np.zeros((5, 28, 28), np.uint8),
                     eval_labels=np.zeros(1, np.uint8))

    def test_train_float(self):
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=32, seed=0)
        with pytest.raises(ShapeError, match="50 labels for 100 images"):
            train_float(np.zeros((100, 28, 28), np.uint8), np.zeros(50, np.uint8), cfg)
        with pytest.raises(ShapeError, match="1 labels for 5 images"):
            train_float(np.zeros((4, 28, 28), np.uint8), np.zeros(4, np.uint8), cfg,
                        eval_images=np.zeros((5, 28, 28), np.uint8),
                        eval_labels=np.zeros(1, np.uint8))

    @pytest.mark.parametrize("call", ["evaluate_int", "float_accuracy", "finetune",
                                      "train_float"])
    def test_a_label_column(self, desk_model, call):
        # (5, 1) labels broadcast against (5,) predictions to (5, 5): accuracy
        # counted 25 comparisons for 5 images.
        images, labels = np.zeros((5, 28, 28), np.uint8), np.zeros((5, 1), np.uint8)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=32, seed=0)
        run = {"evaluate_int": lambda: kernels.evaluate_int(desk_model, images, labels),
               "float_accuracy": lambda: trainer.float_accuracy(
                   floatnet.init_float_model(seed=0), images, labels),
               "finetune": lambda: finetune(desk_model, images, labels, cfg, k=8),
               "train_float": lambda: train_float(images, labels, cfg)}[call]
        with pytest.raises(ShapeError, match=r"one-dimensional, got shape \(5, 1\)"):
            run()

    @pytest.mark.parametrize("call", ["evaluate_int", "float_accuracy", "finetune",
                                      "train_float"])
    def test_a_scalar_label(self, desk_model, call):
        # A 0-d label escaped the count check as a bare TypeError from len().
        images, label = np.zeros((1, 28, 28), np.uint8), np.int64(3)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=32, seed=0)
        run = {"evaluate_int": lambda: kernels.evaluate_int(desk_model, images, label),
               "float_accuracy": lambda: trainer.float_accuracy(
                   floatnet.init_float_model(seed=0), images, label),
               "finetune": lambda: finetune(desk_model, images, label, cfg, k=8),
               "train_float": lambda: train_float(images, label, cfg)}[call]
        with pytest.raises(ShapeError, match=r"one-dimensional, got shape \(\)"):
            run()

    def test_eval_images_without_labels(self, desk_model):
        images = np.zeros((4, 28, 28), np.uint8)
        labels = np.zeros(4, np.uint8)
        with pytest.raises(ShapeError, match="no labels for 5 images"):
            finetune(desk_model, images, labels,
                     TrainConfig(learning_rate=1.0, epochs=1, batch_size=32, seed=0),
                     k=8, eval_images=np.zeros((5, 28, 28), np.uint8))
        with pytest.raises(ShapeError, match="no labels for 5 images"):
            train_float(images, labels,
                        TrainConfig(learning_rate=0.01, epochs=1, batch_size=32, seed=0),
                        eval_images=np.zeros((5, 28, 28), np.uint8))


class TestLabelValues:
    """Every label is an integer class 0..9, or DomainError naming the first
    index that is not: numpy's negative indexing would train on -1 as
    class 9, and scoring would count it as a miss."""

    LABELS = np.array([3, 0, -1, 9, 7], np.int64)
    MATCH = "label -1 at index 2 is not a class 0..9"

    def test_evaluate_int(self, desk_model):
        with pytest.raises(DomainError, match=self.MATCH):
            kernels.evaluate_int(desk_model, np.zeros((5, 28, 28), np.uint8), self.LABELS)

    def test_float_accuracy(self):
        with pytest.raises(DomainError, match=self.MATCH):
            trainer.float_accuracy(floatnet.init_float_model(seed=0),
                                   np.zeros((5, 28, 28), np.uint8), self.LABELS)

    def test_finetune(self, desk_model):
        cfg = TrainConfig(learning_rate=1.0, epochs=1, batch_size=32, seed=0)
        with pytest.raises(DomainError, match=self.MATCH):
            finetune(desk_model, np.zeros((5, 28, 28), np.uint8), self.LABELS, cfg, k=8)

    def test_train_float(self):
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=32, seed=0)
        with pytest.raises(DomainError, match=self.MATCH):
            train_float(np.zeros((5, 28, 28), np.uint8), self.LABELS, cfg)

    @pytest.mark.parametrize("labels", [np.array([0, 1, 10]), np.array([0.0, 1.0, 2.5])],
                             ids=["ten", "float"])
    def test_a_label_past_nine_or_of_float_dtype(self, labels):
        with pytest.raises(DomainError, match="is not a class 0..9"):
            kernels.check_labels(np.zeros((3, 28, 28), np.uint8), labels)


class TestEmptyEvalSet:
    def test_evaluate_int_rejects_no_images(self, desk_model):
        with pytest.raises(DomainError, match="empty"):
            kernels.evaluate_int(desk_model, np.zeros((0, 28, 28), np.uint8),
                                 np.zeros(0, np.uint8))

    def test_float_accuracy_rejects_no_images(self):
        with pytest.raises(DomainError, match="empty"):
            trainer.float_accuracy(floatnet.init_float_model(seed=0),
                                   np.zeros((0, 28, 28), np.uint8), np.zeros(0, np.uint8))

    @pytest.mark.parametrize("call", ["finetune", "train_float"])
    def test_training_refuses_it_before_any_step(self, desk_model, monkeypatch, call):
        # The first evaluation used to refuse it, after a whole epoch.
        steps = []
        backward = trainer.ste_backward
        monkeypatch.setattr(trainer, "ste_backward",
                            lambda *args: steps.append(1) or backward(*args))
        images, labels = np.zeros((64, 28, 28), np.uint8), np.zeros(64, np.uint8)
        empty = {"eval_images": np.zeros((0, 28, 28), np.uint8),
                 "eval_labels": np.zeros(0, np.uint8)}
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=32, seed=0)
        with pytest.raises(DomainError, match="empty"):
            if call == "finetune":
                finetune(desk_model, images, labels, cfg, k=8, **empty)
            else:
                train_float(images, labels, cfg, **empty)
        assert steps == []


class TestWeightChangeStats:
    def _clone(self, model):
        return model_io.model_from_bytes(model_io.model_to_bytes(model))

    def test_identical_models(self, desk_model):
        stats = weight_change_stats(desk_model, self._clone(desk_model))
        assert stats.changed_ratio == 0.0
        assert stats.mean_abs_diff == 0.0
        assert stats.layers_affected == 0
        assert all(h == {} for h in stats.per_layer_histograms)

    def test_single_weight_changed_by_one(self):
        rng = np.random.default_rng(1)
        w = rng.integers(-20, 20, size=(10, 10)).astype(np.int8)  # 100 weights
        in_qp = QuantParams(scale=0.02, zero_point=0)
        out_qp = QuantParams(scale=0.05, zero_point=0)
        scales = np.full(10, 0.01)
        layer = LayerSpec(kind="dense", activation="none",
                          weights=QTensor(w, scales),
                          bias=np.zeros(10, dtype=np.int32),
                          output=out_qp,
                          rescalers=[quantize_rescaler(0.004, 32)] * 10)
        model = ModelGraph(name="stats", input_params=in_qp, layers=[layer])
        other = self._clone(model)
        other.layers[0].weights.data[3, 7] += 1
        stats = weight_change_stats(model, other)
        assert stats.changed_ratio == pytest.approx(0.01)
        assert stats.mean_abs_diff == 1.0
        assert stats.layers_affected == 1
        assert stats.per_layer_histograms[0] == {1: 1}

    def test_histogram_counts_planted_deltas(self, desk_model):
        other = self._clone(desk_model)
        idx = next(i for i, l in enumerate(desk_model.layers)
                   if l.kind == "dense")
        data = other.layers[idx].weights.data
        flat = data.reshape(-1)
        flat[0] -= 2
        flat[1] -= 2
        flat[2] -= 1
        flat[3] -= 1
        flat[4] -= 1
        flat[5:10] += 1
        stats = weight_change_stats(desk_model, other)
        dense_pos = sum(1 for l in desk_model.layers[:idx]
                        if l.kind in model_io.WEIGHTED_KINDS)
        assert stats.per_layer_histograms[dense_pos] == {-2: 2, -1: 3, 1: 5}
        assert stats.mean_abs_diff == pytest.approx((2 * 2 + 3 * 1 + 5 * 1) / 10)

    def test_bias_changes_tracked_separately(self, desk_model):
        other = self._clone(desk_model)
        idx = next(i for i, l in enumerate(desk_model.layers)
                   if l.kind in model_io.WEIGHTED_KINDS)
        other.layers[idx].bias[0] += 5
        stats = weight_change_stats(desk_model, other)
        assert stats.changed_ratio == 0.0
        assert stats.bias_changed_ratio > 0.0

    def test_topology_mismatch_raises(self, desk_model):
        model = small_dense_model()
        with pytest.raises(ShapeError):
            weight_change_stats(desk_model, model)

    def test_summary_is_printable(self, desk_model):
        stats = weight_change_stats(desk_model, self._clone(desk_model))
        text = stats.summary()
        assert "changed" in text and "%" in text
