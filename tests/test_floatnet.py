"""The float reference network: the blocked forward keeps the bits of a
walk one image at a time, at any BLAS thread count, and every layer
applies its activation."""

import os
from dataclasses import replace

import numpy as np
import pytest

from oracles import oracle_float_forward
from rescale_lab import floatnet, trainer
from rescale_lab.errors import ShapeError
from rescale_lab.floatnet import FLOAT_BLOCK, FloatLayer, layer_step
from rescale_lab.kernels import unit_images

DESK = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                    "desk_cnn_v1_float.npz")


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(21).random((1000, 28, 28, 1))


@pytest.fixture(scope="module", params=["seed0", "seed1", "seed2", "desk"])
def model(request):
    if request.param == "desk":
        return floatnet.load_float_model(DESK)
    return floatnet.init_float_model(seed=int(request.param[-1]))


class TestBlockedForward:
    # 21 and 31 images are odd batches whose whole-batch conv2 matmul
    # OpenBLAS splits over two threads at a row count of 4 mod 8.
    @pytest.mark.parametrize("n", [0, 1, FLOAT_BLOCK - 1, FLOAT_BLOCK, FLOAT_BLOCK + 1,
                                   21, 31, 32, 33, 512, 1000])
    def test_logits_equal_the_walk_one_image_at_a_time(self, model, images, n):
        logits = floatnet.forward(model, images[:n])
        assert logits.shape == (n, 10)
        expected = oracle_float_forward(model, images[:n])["logits"]
        assert np.array_equal(logits, expected)

    def test_a_block_keeps_every_conv_matmul_on_one_blas_thread(self, images):
        """OpenBLAS runs a matmul on one thread while M*N*K stays below
        2 * 262,144; a thread split can change bits at its seam.  The
        dense logit layer runs per block too, so it counts as well."""
        tensors = oracle_float_forward(floatnet.init_float_model(seed=0), images[:1])
        matmuls = [layer for layer in floatnet.LAYERS if layer.kind in ("conv2d", "dense")]
        assert matmuls[-1].kind == "dense"
        for layer in matmuls:
            rows = int(np.prod(tensors[layer.name].shape[1:-1]))
            k, n_out = int(np.prod(layer.shape[1:])), layer.shape[0]
            assert FLOAT_BLOCK * rows * k * n_out < 2 * 262_144, layer.name

    def test_a_prefix_of_the_batch_keeps_its_logits(self, model, images):
        # Every tensor is that of its own block, so batching moves no bit.
        logits = floatnet.forward(model, images)
        for k in (FLOAT_BLOCK, 64, 512, 992, 1000):
            assert np.array_equal(logits[:k], floatnet.forward(model, images[:k])), k

    def test_uint8_images_are_unit_images(self, model):
        images_u8 = np.random.default_rng(5).integers(0, 256, (2 * FLOAT_BLOCK + 3, 28, 28),
                                                      dtype=np.uint8)
        assert np.array_equal(floatnet.forward(model, images_u8),
                              floatnet.forward(model, unit_images(images_u8)))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
    def test_input_that_is_neither_uint8_nor_float_is_refused(self, dtype):
        x = np.zeros((2, 28, 28, 1), dtype)
        with pytest.raises(ShapeError, match="uint8 or float"):
            floatnet.forward(floatnet.init_float_model(seed=0), x)

    def test_intermediate_ranges_equal_those_of_the_walk(self, model, images):
        for sizes in ([1], [7], [8], [9], [21], [33], [9, 1, 21, 7], [8, 33, 0]):
            bounds = np.cumsum([0] + sizes)
            batches = [images[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
            walks = [oracle_float_forward(model, batch) for batch in batches]
            ranges = floatnet.forward_intermediates(model, iter(batches))
            assert list(ranges) == list(walks[0])
            for key, (lo, hi) in ranges.items():
                tensors = [walk[key] for walk in walks if walk[key].size]
                assert lo == min(t.min() for t in tensors), (sizes, key)
                assert hi == max(t.max() for t in tensors), (sizes, key)

    def test_input_is_left_alone(self, images):
        x = images[:FLOAT_BLOCK + 3].copy()
        floatnet.forward(floatnet.init_float_model(seed=0), x)
        assert np.array_equal(x, images[:FLOAT_BLOCK + 3])


def _dense(activation, model, x, with_mask=False):
    """A hand-built dense layer with ``activation`` on ``model``'s logit
    parameters, run on ``x``."""
    layer = FloatLayer("dense", "logits", "dense", (10, 784), activation)
    return layer_step(layer, x, model.dense_w, model.dense_b, with_mask=with_mask)


class TestActivations:
    """Hand-built layers: relu runs as relu, not linear, and an activation
    the network does not know is refused."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(3)
        model = floatnet.init_float_model(seed=3)
        model.dense_b = rng.normal(0.0, 4.0, 10)
        return model, rng.normal(0.0, 1.0, (64, 784))

    def test_relu_clamps_below_only(self, case):
        linear = _dense("none", *case)[0]
        assert linear.min() < 0.0 and linear.max() > 6.0
        y, _, _, mask = _dense("relu", *case, with_mask=True)
        assert np.array_equal(y, np.maximum(linear, 0.0))
        assert np.array_equal(mask, linear > 0.0)

    def test_relu6_clamps_both_ends(self, case):
        linear = _dense("none", *case)[0]
        y, _, _, mask = _dense("relu6", *case, with_mask=True)
        assert np.array_equal(y, np.clip(linear, 0.0, 6.0))
        assert np.array_equal(mask, (linear > 0.0) & (linear < 6.0))

    def test_none_passes_every_gradient(self, case):
        assert _dense("none", *case, with_mask=True)[3] is True

    def test_unknown_activation_is_refused(self, case):
        with pytest.raises(ShapeError):
            _dense("tanh", *case)

    @pytest.mark.parametrize("layer", [
        FloatLayer("avgpool", "pool1", window=(2, 2), activation="relu"),
        FloatLayer("flatten", "flat", activation="relu6"),
    ])
    def test_activation_on_a_layer_without_weights_is_refused(self, layer):
        with pytest.raises(ShapeError):
            layer_step(layer, np.zeros((2, 4, 4, 1)))

    def test_float_training_runs_relu_with_its_mask(self, case, monkeypatch):
        model, _ = case
        relu = tuple(replace(l, activation="relu") if l.activation == "relu6" else l
                     for l in floatnet.LAYERS)
        x = np.random.default_rng(4).random((3, 28, 28, 1)) * 20.0
        conv1 = layer_step(replace(relu[0], activation="none"), x,
                           model.conv1_w, model.conv1_b)[0]
        assert conv1.min() < 0.0 and conv1.max() > 6.0
        monkeypatch.setattr(floatnet, "LAYERS", relu)
        logits, cache = trainer._float_forward(model, x)
        assert np.array_equal(cache[0]["mask"], conv1 > 0.0)
        assert np.array_equal(logits, floatnet.forward(model, x))
        monkeypatch.setattr(floatnet, "LAYERS",
                            tuple(replace(l, activation="none") for l in relu))
        assert not np.array_equal(logits, floatnet.forward(model, x))
