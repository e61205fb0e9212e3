"""Container format, post-training quantization, redeploy, and IDX tests."""

import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from rescale_lab import floatnet
from rescale_lab.errors import FormatError, RescalerUnderflow, ShapeError
from rescale_lab.kernels import QTensor, quantize_real, run_model_int
from rescale_lab.model_io import (
    MAGIC,
    CalibrationStats,
    LayerSpec,
    ModelGraph,
    activation_qparams,
    hex_to_float,
    float_to_hex,
    load_idx_dataset,
    load_model,
    materialize_rescalers,
    model_from_bytes,
    model_to_bytes,
    models_equal,
    quantize_bias,
    quantize_float_model,
    quantize_weights,
    redeploy_weights,
    save_model,
    validate_model,
    weight_channel_scales,
)
from rescale_lab.qcore import QuantParams, quantize_rescaler


def tiny_dense_model(k=32):
    """Minimal one-layer valid model used by round-trip tests."""
    in_params = QuantParams(scale=0.5, zero_point=3)
    out_params = QuantParams(scale=2.0, zero_point=-1)
    w = np.array([[1, -2, 3], [-4, 5, -6]], dtype=np.int8)
    w_scales = np.array([0.25, 0.125])
    layer = LayerSpec(
        kind="dense",
        activation="relu",
        weights=QTensor(w, w_scales),
        bias=np.array([10, -20], dtype=np.int32),
        bias_scales=0.5 * w_scales,
        output=out_params,
        rescalers=[quantize_rescaler(0.5 * s / 2.0, k) for s in w_scales],
    )
    return ModelGraph(name="tiny", input_params=in_params, layers=[layer], k=k)


@pytest.fixture(scope="module")
def desk_quantized():
    """A PTQ'd desk model from a randomly initialized float network."""
    fm = floatnet.init_float_model(seed=7)
    rng = np.random.default_rng(7)
    batches = [rng.random((8, 28, 28, 1)) for _ in range(2)]
    return quantize_float_model(fm, batches)


# ---------------------------------------------------------------------------
# Post-training quantization
# ---------------------------------------------------------------------------


class TestWeightQuantization:
    def test_symmetric_extremes(self):
        w = np.array([[-1.27, 1.27]])
        assert weight_channel_scales(w, 0).tolist() == [0.01]
        q = quantize_weights(w, 0)
        assert q.data.tolist() == [[-127, 127]]
        assert q.qparams.tolist() == [0.01]

    def test_per_channel_independence(self):
        w = np.array([[1.27, 0.0], [0.0, 12.7]])
        q = quantize_weights(w, 0)
        assert q.qparams.tolist() == [1.27 / 127, 12.7 / 127]
        assert q.qparams.tolist() == pytest.approx([0.01, 0.1])
        assert q.data.tolist() == [[127, 0], [0, 127]]

    def test_all_zero_channel_uses_scale_floor(self):
        q = quantize_weights(np.zeros((1, 4)), 0)
        assert q.qparams.tolist() == [1e-7]
        assert q.data.tolist() == [[0, 0, 0, 0]]

    def test_half_up_rounding(self):
        # scale 0.01; 0.005/0.01 = 0.5 rounds up, -0.005 rounds to 0.
        w = np.array([[1.27, 0.005, -0.005]])
        assert quantize_weights(w, 0).data.tolist() == [[127, 1, 0]]


class TestActivationQuantization:
    def test_affine_formula(self):
        qp = activation_qparams(0.0, 2.55)
        assert qp.scale == 2.55 / 255
        assert qp.scale == pytest.approx(0.01)
        assert qp.zero_point == -128

    def test_symmetric_range(self):
        qp = activation_qparams(-1.275, 1.275)
        assert qp.scale == pytest.approx(0.01)
        assert qp.zero_point == 0

    def test_degenerate_range_policy(self):
        qp = activation_qparams(0.0, 0.0)
        assert qp.scale == 1e-7
        assert qp.zero_point == 0

    def test_zero_point_is_clamped(self):
        qp = activation_qparams(10.0, 12.55)
        assert qp.zero_point == -128

    def test_range_is_widened_to_include_zero(self):
        # Real zero must be exactly representable: [0.5, 1.0] quantizes as
        # [0, 1.0], so the top of the observed range does not saturate.
        qp = activation_qparams(0.5, 1.0)
        assert qp.scale == 1.0 / 255
        assert qp.zero_point == -128
        assert quantize_real(np.array([0.0, 1.0]), qp).tolist() == [-128, 127]
        qp = activation_qparams(-2.0, -1.0)
        assert qp.scale == 2.0 / 255
        assert qp.zero_point == 127
        assert quantize_real(np.array([-2.0, 0.0]), qp).tolist() == [-128, 127]

    def test_inverted_range_rejected(self):
        from rescale_lab.errors import CalibrationError
        with pytest.raises(CalibrationError):
            activation_qparams(1.0, 0.0)


class TestBiasQuantization:
    def test_half_up(self):
        scales = np.array([0.01])
        assert quantize_bias(np.array([0.125]), scales).tolist() == [13]
        assert quantize_bias(np.array([-0.125]), scales).tolist() == [-12]

    def test_int32_clamp(self):
        assert quantize_bias(np.array([1e18]), np.array([1.0])).tolist() == [2**31 - 1]


class TestCalibrationStats:
    def test_running_extremes(self):
        stats = CalibrationStats()
        stats.update("t", np.array([1.0, 2.0]))
        stats.update("t", np.array([-5.0, 0.5]))
        assert stats.range_of("t") == (-5.0, 2.0)

    def test_rejects_nan(self):
        from rescale_lab.errors import CalibrationError
        stats = CalibrationStats()
        with pytest.raises(CalibrationError):
            stats.update("t", np.array([np.nan]))


class TestQuantizeFloatModel:
    def test_structure(self, desk_quantized):
        kinds = [l.kind for l in desk_quantized.layers]
        assert kinds == ["conv2d", "avgpool", "depthwise", "conv2d",
                         "avgpool", "flatten", "dense"]
        assert desk_quantized.k == 32
        validate_model(desk_quantized)

    def test_requires_calibration_data(self):
        from rescale_lab.errors import CalibrationError
        fm = floatnet.init_float_model(seed=1)
        with pytest.raises(CalibrationError):
            quantize_float_model(fm, [])

    def test_calibration_determinism(self):
        fm = floatnet.init_float_model(seed=3)
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        a = quantize_float_model(fm, [rng1.random((4, 28, 28, 1))])
        b = quantize_float_model(fm, [rng2.random((4, 28, 28, 1))])
        assert models_equal(a, b)

    def test_quantized_inference_tracks_float(self, desk_quantized):
        """At k=32 the integer engine's dequantized logits stay within a few
        output steps of the float network's logits."""
        fm = floatnet.init_float_model(seed=7)
        rng = np.random.default_rng(99)
        x = rng.random((16, 28, 28, 1))
        float_logits = floatnet.forward(fm, x)
        from rescale_lab.kernels import quantize_real, dequantize_real
        x_q = quantize_real(x, desk_quantized.input_params)
        q_logits = run_model_int(desk_quantized, x_q)
        deq = dequantize_real(q_logits, desk_quantized.layers[-1].output)
        scale = desk_quantized.layers[-1].output.scale
        assert np.max(np.abs(deq - float_logits)) < 20 * scale


# ---------------------------------------------------------------------------
# Rescaler materialization
# ---------------------------------------------------------------------------


class TestMaterializeRescalers:
    def test_k32_fidelity(self, desk_quantized):
        for layer in desk_quantized.layers:
            for r in layer.rescalers:
                assert abs(r.quantized_value - r.real_value) / r.real_value < 2.0**-31

    def test_known_k8_encoding(self):
        model = tiny_dense_model()
        model.layers[0].output = QuantParams(scale=1.25, zero_point=0)
        # channel 0: M = 0.5 * 0.25 / 1.25 = 0.1 -> m=204, s=11 at k=8
        model.layers[0].rescalers = [
            quantize_rescaler(0.5 * s / 1.25, 32)
            for s in model.layers[0].weights.qparams
        ]
        low = materialize_rescalers(model, 8)
        assert (low.layers[0].rescalers[0].m, low.layers[0].rescalers[0].s) == (204, 11)
        assert low.k == 8

    def test_idempotence(self, desk_quantized):
        once = materialize_rescalers(desk_quantized, 8)
        twice = materialize_rescalers(once, 8)
        assert models_equal(once, twice)

    def test_real_value_retained(self, desk_quantized):
        low = materialize_rescalers(desk_quantized, 6)
        for before, after in zip(desk_quantized.layers, low.layers):
            for rb, ra in zip(before.rescalers, after.rescalers):
                assert ra.real_value == rb.real_value
                assert ra.k == 6

    def test_underflow_names_layer_and_channel(self):
        model = tiny_dense_model()
        model.layers[0].output = QuantParams(scale=2.0**26, zero_point=0)
        with pytest.warns(RuntimeWarning):
            model.layers[0].rescalers = [
                quantize_rescaler(0.5 * s / 2.0**26, 32, on_underflow="clamp")
                for s in model.layers[0].weights.qparams
            ]
        with pytest.raises(RescalerUnderflow, match="layer 0 .* channel 0"):
            materialize_rescalers(model, 8)

    def test_original_model_unchanged(self, desk_quantized):
        before = model_to_bytes(desk_quantized)
        materialize_rescalers(desk_quantized, 4)
        assert model_to_bytes(desk_quantized) == before

    def test_no_classification_flips_k32_vs_k31(self, desk_quantized):
        rng = np.random.default_rng(5)
        x = rng.random((32, 28, 28, 1))
        from rescale_lab.kernels import quantize_real
        x_q = quantize_real(x, desk_quantized.input_params)
        l32 = run_model_int(desk_quantized, x_q).astype(np.int64)
        l31 = run_model_int(materialize_rescalers(desk_quantized, 31), x_q).astype(np.int64)
        assert np.max(np.abs(l32 - l31)) <= 1


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def split_container(data):
    """Parse an RQM1 byte string into (manifest dict, blob bytes)."""
    (mlen,) = struct.unpack("<Q", data[8:16])
    manifest = json.loads(data[16 : 16 + mlen])
    (blen,) = struct.unpack("<Q", data[16 + mlen : 24 + mlen])
    blob = data[24 + mlen : 24 + mlen + blen]
    return manifest, blob


def join_container(manifest, blob):
    """Reassemble a container, recomputing the manifest checksum so tampered
    manifests exercise the semantic validation behind it."""
    import zlib

    manifest = dict(manifest)
    manifest.pop("manifest_crc32", None)
    core = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    manifest["manifest_crc32"] = zlib.crc32(core)
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<Q", len(mbytes)) + mbytes + struct.pack("<Q", len(blob)) + blob


class TestContainer:
    def test_round_trip_bytes_identical(self, desk_quantized, tmp_path):
        path = tmp_path / "m.rqm"
        save_model(desk_quantized, str(path))
        loaded = load_model(str(path))
        assert models_equal(desk_quantized, loaded)
        again = tmp_path / "m2.rqm"
        save_model(loaded, str(again))
        assert path.read_bytes() == again.read_bytes()

    def test_round_trip_tiny(self):
        model = tiny_dense_model()
        loaded = model_from_bytes(model_to_bytes(model))
        assert models_equal(model, loaded)
        assert loaded.layers[0].weights.data.tolist() == \
            model.layers[0].weights.data.tolist()
        assert loaded.input_params == model.input_params

    def test_scales_round_trip_bit_exact(self):
        for value in (0.1, 1e-7, 2.55 / 255, np.nextafter(0.25, 1.0)):
            assert hex_to_float(float_to_hex(value)) == value

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated"):
            model_from_bytes(b"RQM1\x00\x00")

    def test_bad_magic_reports_offset(self):
        data = bytearray(model_to_bytes(tiny_dense_model()))
        data[0] = ord("X")
        with pytest.raises(FormatError, match="byte 0"):
            model_from_bytes(bytes(data))

    def test_manifest_length_overruns_file(self):
        data = bytearray(model_to_bytes(tiny_dense_model()))
        data[8:16] = struct.pack("<Q", 1 << 40)
        with pytest.raises(FormatError, match="manifest length"):
            model_from_bytes(bytes(data))

    def test_blob_length_mismatch(self):
        data = model_to_bytes(tiny_dense_model())
        with pytest.raises(FormatError, match="blob length"):
            model_from_bytes(data + b"extra")

    def test_tensor_size_mismatch_names_tensor(self):
        manifest, blob = split_container(model_to_bytes(tiny_dense_model()))
        manifest["layers"][0]["tensors"]["weights"]["size"] = 5
        with pytest.raises(FormatError, match="tensor 'weights'"):
            model_from_bytes(join_container(manifest, blob))

    def test_tensor_offset_out_of_blob(self):
        manifest, blob = split_container(model_to_bytes(tiny_dense_model()))
        manifest["layers"][0]["tensors"]["bias"]["offset"] = len(blob)
        with pytest.raises(FormatError, match="tensor 'bias'"):
            model_from_bytes(join_container(manifest, blob))

    def test_corrupted_blob_fails_checksum(self):
        data = bytearray(model_to_bytes(tiny_dense_model()))
        data[-1] ^= 0xFF
        with pytest.raises(FormatError, match="checksum"):
            model_from_bytes(bytes(data))

    def test_manifest_not_json(self):
        data = bytearray(model_to_bytes(tiny_dense_model()))
        data[16] = ord("!")
        with pytest.raises(FormatError):
            model_from_bytes(bytes(data))

    def test_load_revalidates_invariants(self):
        manifest, blob = split_container(model_to_bytes(tiny_dense_model()))
        # Tamper with a stored rescaler so it no longer matches the scales.
        manifest["layers"][0]["rescalers"][0]["real"] = float_to_hex(0.25)
        manifest["layers"][0]["rescalers"][0]["m"] = 1 << 31
        manifest["layers"][0]["rescalers"][0]["s"] = 33
        with pytest.raises(FormatError):
            model_from_bytes(join_container(manifest, blob))

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(str(tmp_path / "missing.rqm"))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_model(str(tmp_path))  # a directory is not a readable file

    def test_manifest_checksum_covers_every_header_byte(self):
        # Flip a byte inside a free-text manifest field (the model name);
        # nothing semantic breaks, so only the manifest checksum can notice.
        base = model_to_bytes(tiny_dense_model())
        pos = base.index(b'"name":"tiny"') + len('"name":"')
        data = bytearray(base)
        data[pos] ^= 0x01
        with pytest.raises(FormatError, match="manifest checksum"):
            model_from_bytes(bytes(data))

    def test_byte_flip_fuzz_always_rejected(self):
        """Every single-byte corruption raises FormatError: no byte of the
        container is spare, and nothing else ever escapes."""
        base = model_to_bytes(tiny_dense_model())
        rng = np.random.default_rng(42)
        for _ in range(300):
            data = bytearray(base)
            pos = int(rng.integers(len(data)))
            data[pos] ^= int(rng.integers(1, 256))
            with pytest.raises(FormatError):
                model_from_bytes(bytes(data))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class TestValidateModel:
    def test_valid(self):
        validate_model(tiny_dense_model())

    def test_envelope_counts_weights_at_minus_128(self):
        # Redeployed weights may reach -128, so the certified bound is
        # N * 128 * 255 + max|b|: 65536 * 128 * 255 + 10**7 >= 2**31.
        w_scales = np.array([0.25])
        layer = LayerSpec(
            kind="dense",
            weights=QTensor(np.ones((1, 1 << 16), dtype=np.int8), w_scales),
            bias=np.array([10_000_000], dtype=np.int32),
            bias_scales=0.5 * w_scales,
            output=QuantParams(scale=2.0),
            rescalers=[quantize_rescaler(0.5 * 0.25 / 2.0, 32)],
        )
        model = ModelGraph(name="wide", input_params=QuantParams(scale=0.5),
                           layers=[layer], k=32)
        with pytest.raises(ShapeError, match="worst-case accumulator"):
            validate_model(model)

    def test_bias_scale_mismatch(self):
        model = tiny_dense_model()
        model.layers[0].bias_scales = model.layers[0].bias_scales * 2
        with pytest.raises(ShapeError, match="bias scales"):
            validate_model(model)

    def test_rescaler_value_mismatch(self):
        model = tiny_dense_model()
        model.layers[0].rescalers[0] = quantize_rescaler(0.125, 32)
        with pytest.raises(ShapeError, match="rescale factor"):
            validate_model(model)

    def test_rescaler_count_mismatch(self):
        model = tiny_dense_model()
        model.layers[0].rescalers = model.layers[0].rescalers[:1]
        with pytest.raises(ShapeError, match="rescalers"):
            validate_model(model)

    def test_rescaler_width_mismatch(self):
        model = tiny_dense_model()
        model.k = 8
        with pytest.raises(ShapeError, match="width"):
            validate_model(model)

    def test_missing_weights(self):
        model = tiny_dense_model()
        model.layers[0].weights = None
        with pytest.raises(ShapeError, match="missing weights"):
            validate_model(model)

    def test_unknown_kind(self):
        model = tiny_dense_model()
        model.layers[0].kind = "attention"
        with pytest.raises(ShapeError, match="unknown kind"):
            validate_model(model)

    def test_empty_model(self):
        with pytest.raises(ShapeError, match="no layers"):
            validate_model(ModelGraph("x", QuantParams(0.1, 0), [], 32))

    def test_avgpool_must_pass_qparams_through(self, desk_quantized):
        import copy
        model = copy.deepcopy(desk_quantized)
        model.layers[1].output = QuantParams(scale=123.0, zero_point=0)
        with pytest.raises(ShapeError, match="keep qparams"):
            validate_model(model)


# ---------------------------------------------------------------------------
# Redeployment
# ---------------------------------------------------------------------------


def shadow_from_model(model, transform=lambda w: w):
    weights, biases = [], []
    for layer in model.layers:
        if layer.weights is None:
            weights.append(None)
            biases.append(None)
        else:
            weights.append(transform(layer.weights.data.astype(np.float64)))
            biases.append(layer.bias.astype(np.float64))
    return SimpleNamespace(weights=weights, biases=biases)


class TestRedeploy:
    def test_identity(self, desk_quantized):
        shadow = shadow_from_model(desk_quantized)
        assert models_equal(redeploy_weights(desk_quantized, shadow), desk_quantized)

    def test_rounding_table(self):
        model = tiny_dense_model()
        shadow = shadow_from_model(model)
        shadow.weights[0] = np.array([[3.4, -3.5, 2.5], [140.0, -129.0, 0.49]])
        out = redeploy_weights(model, shadow)
        assert out.layers[0].weights.data.tolist() == [[3, -3, 3], [127, -128, 0]]

    def test_bias_rounds_too(self):
        model = tiny_dense_model()
        shadow = shadow_from_model(model)
        shadow.biases[0] = np.array([10.5, -20.5])
        out = redeploy_weights(model, shadow)
        assert out.layers[0].bias.tolist() == [11, -20]

    def test_qparams_and_rescalers_untouched(self, desk_quantized):
        shadow = shadow_from_model(desk_quantized, lambda w: w + 0.4)
        out = redeploy_weights(desk_quantized, shadow)
        for before, after in zip(desk_quantized.layers, out.layers):
            assert after.output == before.output
            assert [(r.m, r.s) for r in after.rescalers] == \
                [(r.m, r.s) for r in before.rescalers]
            if before.weights is not None:
                assert np.array_equal(after.weights.qparams, before.weights.qparams)

    def test_shape_mismatch(self, desk_quantized):
        shadow = shadow_from_model(desk_quantized)
        shadow.weights[0] = shadow.weights[0][:, :2]
        with pytest.raises(ShapeError):
            redeploy_weights(desk_quantized, shadow)

    def test_layer_count_mismatch(self, desk_quantized):
        shadow = shadow_from_model(desk_quantized)
        shadow.weights = shadow.weights[:-1]
        with pytest.raises(ShapeError):
            redeploy_weights(desk_quantized, shadow)


# ---------------------------------------------------------------------------
# IDX datasets
# ---------------------------------------------------------------------------


def write_idx_images(path, arr):
    arr = np.asarray(arr, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, *arr.shape))
        fh.write(arr.tobytes())


def write_idx_labels(path, arr):
    arr = np.asarray(arr, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, arr.shape[0]))
        fh.write(arr.tobytes())


class TestIdx:
    def test_well_formed(self, tmp_path):
        images = np.arange(4 * 28 * 28, dtype=np.uint8).reshape(4, 28, 28)
        labels = np.array([0, 1, 2, 3], dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "lbls", labels)
        got_images, got_labels = load_idx_dataset(
            str(tmp_path / "imgs"), str(tmp_path / "lbls"))
        assert got_images.shape == (4, 28, 28)
        assert np.array_equal(got_images, images)
        assert np.array_equal(got_labels, labels)

    def test_wrong_magic(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        with open(tmp_path / "imgs", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x802, 2, 4, 4))
            fh.write(images.tobytes())
        write_idx_labels(tmp_path / "lbls", np.zeros(2, dtype=np.uint8))
        with pytest.raises(FormatError, match="magic"):
            load_idx_dataset(str(tmp_path / "imgs"), str(tmp_path / "lbls"))

    def test_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((3, 4, 4), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", np.zeros(2, dtype=np.uint8))
        with pytest.raises(FormatError, match="3 images but 2 labels"):
            load_idx_dataset(str(tmp_path / "imgs"), str(tmp_path / "lbls"))

    def test_truncated_payload(self, tmp_path):
        with open(tmp_path / "imgs", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, 2, 4, 4))
            fh.write(b"\x00" * 10)
        write_idx_labels(tmp_path / "lbls", np.zeros(2, dtype=np.uint8))
        with pytest.raises(FormatError, match="payload"):
            load_idx_dataset(str(tmp_path / "imgs"), str(tmp_path / "lbls"))
