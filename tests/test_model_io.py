"""Container format, post-training quantization, redeploy, and IDX tests."""

import json
import operator
import os
import struct
from dataclasses import fields, replace
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescale_lab import floatnet
from rescale_lab.datagen import balanced_labels, render_digits
from rescale_lab.errors import DomainError, FormatError, RescalerUnderflow, ShapeError
from rescale_lab.kernels import QTensor, quantize_real, run_model_int, unit_images
from rescale_lab.model_io import (
    MAGIC,
    LayerSpec,
    ModelGraph,
    activation_qparams,
    hex_to_float,
    fake_quantize_biases,
    float_to_hex,
    load_idx_dataset,
    load_model,
    materialize_rescalers,
    model_from_bytes,
    model_to_bytes,
    models_equal,
    quantize_float_model,
    quantize_weights,
    redeploy_weights,
    save_idx_images,
    save_idx_labels,
    save_model,
    validate_model,
    weight_channel_scales,
)
from rescale_lab.qcore import DyadicRescaler, QuantParams, quantize_rescaler


DESK_FLOAT = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "desk_cnn_v1_float.npz")


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
        output=out_params,
        rescalers=[quantize_rescaler(0.5 * s / 2.0, k) for s in w_scales],
    )
    return ModelGraph(name="tiny", input_params=in_params, layers=[layer])


def zero_channel_model():
    """tiny_dense_model followed by a dense layer with no output channels
    (weights (0, 2), bias (0,), so no rescalers either)."""
    model = tiny_dense_model()
    empty = LayerSpec(kind="dense", weights=QTensor(np.zeros((0, 2), dtype=np.int8),
                                                    np.zeros(0)),
                      bias=np.zeros(0, dtype=np.int32), output=QuantParams(scale=1.0))
    return replace(model, layers=model.layers + [empty])


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


def in_layout(rows, layout: str) -> np.ndarray:
    """A (channels, taps) matrix as dense (out, in), conv (out, 1, taps, 1)
    or depthwise (1, taps, channels) weights."""
    rows = np.asarray(rows)
    if layout == "conv2d":
        return rows.reshape(rows.shape[0], 1, rows.shape[1], 1)
    if layout == "depthwise":
        return rows.T.reshape(1, rows.shape[1], rows.shape[0])
    return rows


LAYOUTS = ("dense", "conv2d", "depthwise")


class TestWeightQuantization:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_symmetric_extremes(self, layout):
        w = in_layout([[-1.27, 1.27]], layout)
        assert weight_channel_scales(w).tolist() == [0.01]
        q = quantize_weights(w)
        assert q.data.tolist() == in_layout([[-127, 127]], layout).tolist()
        assert q.qparams.tolist() == [0.01]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_per_channel_independence(self, layout):
        w = in_layout([[1.27, 0.0], [0.0, 12.7]], layout)
        q = quantize_weights(w)
        assert q.qparams.tolist() == [1.27 / 127, 12.7 / 127]
        assert q.qparams.tolist() == pytest.approx([0.01, 0.1])
        assert q.data.tolist() == in_layout([[127, 0], [0, 127]], layout).tolist()

    def test_all_zero_channel_uses_scale_floor(self):
        q = quantize_weights(np.zeros((1, 4)))
        assert q.qparams.tolist() == [1e-7]
        assert q.data.tolist() == [[0, 0, 0, 0]]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_half_up_rounding(self, layout):
        # scale 0.01; 0.005/0.01 = 0.5 rounds up, -0.005 rounds to 0.
        w = in_layout([[1.27, 0.005, -0.005]], layout)
        q = quantize_weights(w)
        assert q.data.tolist() == in_layout([[127, 1, 0]], layout).tolist()


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
    """PTQ quantizes biases as ``fake_quantize_biases(b / S_x*S_w)``."""

    def test_half_up(self):
        scales = np.array([0.01])
        assert fake_quantize_biases(np.array([0.125]) / scales).tolist() == [13]
        assert fake_quantize_biases(np.array([-0.125]) / scales).tolist() == [-12]

    def test_int32_clamp(self):
        assert fake_quantize_biases(np.array([1e18]) / np.array([1.0])).tolist() == [2**31 - 1]


class TestCalibrationRanges:
    # Image 9 is in a batch's second block of floatnet.FLOAT_BLOCK (8)
    # images; Python's min and max would drop a NaN that comes after a
    # finite range.
    @pytest.mark.parametrize("nan_batch, nan_image", [(0, 1), (2, 1), (0, 9)],
                             ids=["0", "2", "0-second-block"])
    def test_nan_in_any_batch_names_the_input(self, nan_batch, nan_image):
        from rescale_lab.errors import CalibrationError
        batches = [np.random.default_rng(i).random((10, 28, 28, 1)) for i in range(3)]
        batches[nan_batch][nan_image, 5, 5, 0] = np.nan
        with pytest.raises(CalibrationError, match="tensor 'input'"):
            quantize_float_model(floatnet.init_float_model(seed=1), batches)

    def test_nan_inside_the_network_names_its_tensor(self):
        from rescale_lab.errors import CalibrationError
        fm = floatnet.init_float_model(seed=1)
        fm.conv2_w[0, 0, 0, 0] = np.nan
        batch = np.random.default_rng(0).random((2, 28, 28, 1))
        with pytest.raises(CalibrationError, match="tensor 'conv2'"):
            quantize_float_model(fm, [batch])

    def test_ranges_over_batches_equal_the_range_of_their_union(self, monkeypatch):
        # BLAS may sum the dense layer in another order at another batch
        # size, so the float forward runs one image at a time here.
        ranges = floatnet.forward_intermediates

        def per_image(model, batches):
            return ranges(model, (b[i : i + 1] for b in batches for i in range(len(b))))

        monkeypatch.setattr(floatnet, "forward_intermediates", per_image)
        fm = floatnet.init_float_model(seed=5)
        x = np.random.default_rng(5).random((6, 28, 28, 1))
        x[0] *= 0.1  # the batches' extremes differ, so the union must merge them
        whole = quantize_float_model(fm, [x])
        assert models_equal(quantize_float_model(fm, [x[:2], x[2:4], x[4:]]), whole)
        assert models_equal(quantize_float_model(fm, [x[4:], x[:4]]), whole)


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

    def test_one_array_is_one_batch(self):
        fm = floatnet.init_float_model(seed=1)
        batch = np.random.default_rng(1).random((4, 28, 28, 1))
        assert models_equal(quantize_float_model(fm, batch), quantize_float_model(fm, [batch]))

    def test_uint8_images_and_any_batching_give_the_same_bytes(self):
        # The walk runs 8-image blocks and converts uint8 blocks as
        # unit_images does, so neither the batching nor the dtype moves a
        # calibration range.
        fm = floatnet.load_float_model(DESK_FLOAT)
        rng = np.random.default_rng(7)
        images = render_digits(balanced_labels(256, rng), rng)
        unit = unit_images(images)
        want = model_to_bytes(quantize_float_model(fm, images))
        assert model_to_bytes(quantize_float_model(fm, unit)) == want
        batches = [unit[i:i + 32] for i in range(0, 256, 32)]
        assert model_to_bytes(quantize_float_model(fm, batches)) == want

    def test_empty_batches_add_nothing(self):
        from rescale_lab.errors import CalibrationError
        fm = floatnet.init_float_model(seed=1)
        batch = np.random.default_rng(1).random((4, 28, 28, 1))
        empty = batch[:0]
        assert models_equal(quantize_float_model(fm, [empty, batch, empty]),
                            quantize_float_model(fm, [batch]))
        with pytest.raises(CalibrationError, match="no calibration image"):
            quantize_float_model(fm, [empty, empty])

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

    def test_rescale_factor_above_one_is_refused(self):
        # A dead conv1 puts its output scale at the 1e-7 floor, so
        # M = S_x * S_w / S_y is far above 1 and no rescaler can carry it.
        fm = replace(floatnet.init_float_model(seed=7), conv1_b=np.full(8, -1e3))
        rng = np.random.default_rng(7)
        with pytest.raises(DomainError,
                           match=r"layer 0 \(conv2d\) channel \d+: .*outside \(0, 1\]"):
            quantize_float_model(fm, [rng.random((4, 28, 28, 1))])


class TestFloatModelFile:
    @pytest.fixture
    def saved(self, tmp_path):
        model = floatnet.init_float_model(seed=7)
        path = tmp_path / "float.npz"
        floatnet.save_float_model(model, str(path))
        return model, path

    def test_every_truncation_and_bit_flip_is_format_error(self, saved, tmp_path):
        model, path = saved
        base = path.read_bytes()
        blobs = [base[:n] for n in range(0, len(base), 211)]
        for bit in np.random.default_rng(400).integers(0, 8 * len(base), size=400):
            flipped = bytearray(base)
            flipped[bit // 8] ^= 1 << (bit % 8)
            blobs.append(bytes(flipped))
        # The first member's compression method in the central directory, 0 -> 1.
        method = base.index(b"PK\x01\x02") + 10
        blobs.append(base[:method] + b"\x01" + base[method + 1:])
        bad = tmp_path / "bad.npz"
        escaped, changed = [], []
        for idx, blob in enumerate(blobs):
            bad.write_bytes(blob)
            try:
                loaded = floatnet.load_float_model(str(bad))
            except FormatError:
                continue
            except Exception as exc:  # noqa: BLE001 - the property is "never a crash"
                escaped.append((idx, type(exc).__name__))
                continue
            if not all(np.array_equal(getattr(loaded, f.name), getattr(model, f.name))
                       for f in fields(model)):
                changed.append(idx)
        assert not escaped, f"non-FormatError escapes: {escaped[:10]}"
        assert not changed, f"corrupt files loaded different arrays: {changed[:10]}"

    @pytest.mark.parametrize("field,array", [("conv1_b", np.zeros(1)),
                                             ("dense_w", np.zeros((10, 10)))])
    def test_wrong_shape_is_format_error(self, saved, field, array):
        model, path = saved
        floatnet.save_float_model(replace(model, **{field: array}), str(path))
        with pytest.raises(FormatError, match=field.split("_")[0]):
            floatnet.load_float_model(str(path))


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

    def test_own_width_returns_the_graph_itself(self, desk_quantized):
        assert materialize_rescalers(desk_quantized, desk_quantized.k) is desk_quantized

    def test_own_width_keeps_clamp_built_rescalers(self):
        # Re-quantizing these k=32 rescalers at k=32 would raise
        # RescalerUnderflow; the graph already has that width.
        model = tiny_dense_model()
        model.layers[0].output = QuantParams(scale=2.0**26, zero_point=0)
        with pytest.warns(RuntimeWarning):
            model.layers[0].rescalers = [
                quantize_rescaler(0.5 * s / 2.0**26, 32, on_underflow="clamp")
                for s in model.layers[0].weights.qparams
            ]
        assert materialize_rescalers(model, 32) is model

    def test_mixed_widths_are_rewidthed(self, desk_quantized):
        mixed = materialize_rescalers(desk_quantized, 8)
        mixed.layers[0] = desk_quantized.layers[0]  # k=32 beside k=8
        with pytest.raises(ShapeError, match="one rescaler width"):
            mixed.k
        for k in (8, 32):
            out = materialize_rescalers(mixed, k)
            assert out is not mixed and out.k == k
            assert models_equal(out, materialize_rescalers(desk_quantized, k))

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

    @pytest.mark.parametrize("k", [1, 33])
    def test_bad_width_names_no_layer(self, k):
        with pytest.raises(DomainError, match=rf"^bit-width k={k} outside \[2, 32\]$"):
            materialize_rescalers(tiny_dense_model(), k)

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


def set_field(manifest, path, value):
    """Set the manifest value at ``path``, a tuple of keys and indices."""
    *parents, key = path
    reduce(operator.getitem, parents, manifest)[key] = value


def field_paths(node, prefix=()):
    """The path of every value below ``node`` of a parsed manifest."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


TINY_CONTAINER = model_to_bytes(tiny_dense_model())
TINY_FIELDS = [path for path in field_paths(split_container(TINY_CONTAINER)[0])
               if path != ("manifest_crc32",)]
# Values at the edges of JSON numbers and types; NaN and Infinity are JSON
# as Python's json module writes and reads it.
EDGE_VALUES = [0, -1, 1 << 31, 1 << 63, float("nan"), float("inf"), 3.5, "x", None]


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

    @pytest.mark.parametrize("name", [0, None, float("nan"), ["a"]],
                             ids=["zero", "null", "nan", "list"])
    def test_name_that_is_not_a_string_is_rejected(self, name):
        # The canonical re-encoding writes the name back as it came, so only
        # an explicit check keeps a non-string name out of the graph.
        manifest, blob = split_container(TINY_CONTAINER)
        manifest["name"] = name
        with pytest.raises(FormatError, match="'name' is not a string"):
            model_from_bytes(join_container(manifest, blob))

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

    # Each tampered container below passes both checksums (the blob is
    # untouched and join_container recomputes the manifest's), every tensor
    # bound and validate_model, so only the canonical-encoding rule rejects it.

    def test_manifest_k_must_match_the_rescalers(self):
        manifest, blob = split_container(model_to_bytes(tiny_dense_model(k=8)))
        assert manifest["k"] == 8
        manifest["k"] = 32
        with pytest.raises(FormatError, match="canonical"):
            model_from_bytes(join_container(manifest, blob))

    def test_bias_scales_one_ulp_off(self):
        manifest, blob = split_container(model_to_bytes(tiny_dense_model()))
        scales = manifest["layers"][0]["bias_scales"]
        scales[1] = float_to_hex(np.nextafter(hex_to_float(scales[1]), 1.0))
        with pytest.raises(FormatError, match="canonical"):
            model_from_bytes(join_container(manifest, blob))

    def test_json_layout_must_be_canonical(self):
        manifest, blob = split_container(model_to_bytes(tiny_dense_model()))
        mbytes = json.dumps(manifest, sort_keys=True).encode()  # spaces after , and :
        data = MAGIC + struct.pack("<Q", len(mbytes)) + mbytes + struct.pack(
            "<Q", len(blob)) + blob
        with pytest.raises(FormatError, match="canonical"):
            model_from_bytes(data)

    def test_missing_underflowed_key(self):
        manifest, blob = split_container(model_to_bytes(tiny_dense_model()))
        del manifest["layers"][0]["rescalers"][0]["underflowed"]
        with pytest.raises(FormatError, match="underflowed"):
            model_from_bytes(join_container(manifest, blob))

    # Each tampered container below passes both checksums and every tensor
    # bound; it describes a field outside its domain, which validate_model
    # (or, for a short list, the parser) rejects and the loader reports as
    # FormatError.

    @pytest.mark.parametrize("kind, field, value, message", [
        ("conv2d", "stride", [0, 0], "stride"),
        ("conv2d", "stride", [-1, -1], "stride"),
        ("dense", "activation", "gelu", "activation"),
        ("dense", "activation", ["relu"], "activation"),
        ("avgpool", "activation", "relu", "activation"),
        ("conv2d", "padding", "FULL", "padding"),
        ("conv2d", "stride", [1], "out of range"),
        ("avgpool", "window", [2], "out of range"),
        ("depthwise", "kind", "dense", "dense takes weights of rank 2"),
        ("conv2d", "kind", "depthwise", "depthwise takes weights of rank 3"),
    ], ids=["stride-0", "stride-minus-1", "dense-gelu", "dense-list", "avgpool-relu",
            "padding-full", "one-stride", "one-window", "depthwise-as-dense",
            "conv2d-as-depthwise"])
    def test_field_outside_its_domain(self, desk_quantized, kind, field, value,
                                      message):
        manifest, blob = split_container(model_to_bytes(desk_quantized))
        entry = next(e for e in manifest["layers"] if e["kind"] == kind)
        entry[field] = value
        with pytest.raises(FormatError, match=message):
            model_from_bytes(join_container(manifest, blob))

    # Each value below is JSON that no integer field can hold: int() raises
    # ValueError or OverflowError on it, and the loader reports it as a
    # FormatError naming the part it sits in.

    @pytest.mark.parametrize("path, value, where", [
        (("input", "zero_point"), "x", "input"),
        (("input", "zero_point"), float("nan"), "input"),
        (("input", "zero_point"), float("inf"), "input"),
        (("layers", 0, "output", "zero_point"), float("inf"), "layer 0"),
        (("layers", 0, "rescalers", 0, "m"), float("inf"), "layer 0"),
        (("layers", 0, "stride"), [float("inf"), 1], "layer 0"),
        (("layers", 0, "tensors", "weights", "offset"), float("inf"), "layer 0"),
    ], ids=["zero-point-x", "zero-point-nan", "zero-point-inf", "output-zero-point-inf",
            "m-inf", "stride-inf", "offset-inf"])
    def test_integer_field_holding_no_integer(self, path, value, where):
        manifest, blob = split_container(TINY_CONTAINER)
        set_field(manifest, path, value)
        with pytest.raises(FormatError, match=f"^{where}: "):
            model_from_bytes(join_container(manifest, blob))

    def test_zero_output_channels(self, tmp_path):
        model = zero_channel_model()
        with pytest.raises(ShapeError, match="layer 1: .*no output channels"):
            validate_model(model)
        with pytest.raises(ShapeError, match="no output channels"):
            save_model(model, str(tmp_path / "empty.rqm"))
        with pytest.raises(FormatError, match="^model: layer 1: .*no output channels"):
            model_from_bytes(model_to_bytes(model))

    def test_manifest_nested_past_the_recursion_limit(self):
        manifest = b"[" * 100_000
        data = MAGIC + struct.pack("<Q", len(manifest)) + manifest + struct.pack("<Q", 0)
        with pytest.raises(FormatError, match="^manifest: .*recursion"):
            model_from_bytes(data)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_manifest_field_fuzz(self, data):
        """One or two manifest fields set to an edge value, or a list
        shortened, lengthened or led by 0, and the container resealed: the
        loader raises FormatError or returns the model the bytes encode."""
        manifest, blob = split_container(TINY_CONTAINER)
        paths = data.draw(st.lists(st.sampled_from(TINY_FIELDS), min_size=1, max_size=2,
                                   unique=True))
        for path in sorted(paths, key=len, reverse=True):  # a field before its parent
            old = reduce(operator.getitem, path, manifest)
            lists = [old[:-1], old + old[-1:], [0] + old[1:]] if isinstance(old, list) else []
            set_field(manifest, path, data.draw(st.sampled_from(EDGE_VALUES + lists)))
        container = join_container(manifest, blob)
        try:
            model = model_from_bytes(container)
        except FormatError:
            return
        assert model_to_bytes(model) == container

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
            output=QuantParams(scale=2.0),
            rescalers=[quantize_rescaler(0.5 * 0.25 / 2.0, 32)],
        )
        model = ModelGraph(name="wide", input_params=QuantParams(scale=0.5),
                           layers=[layer])
        with pytest.raises(ShapeError, match="worst-case accumulator"):
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

    def test_mixed_widths_rejected(self):
        model = tiny_dense_model()
        r = model.layers[0].rescalers[1]
        model.layers[0].rescalers[1] = quantize_rescaler(r.real_value, 8)
        with pytest.raises(ShapeError, match=r"one rescaler width, has \[8, 32\]"):
            validate_model(model)
        with pytest.raises(ShapeError, match="width"):
            model.k

    def test_rescaler_free_graph_rejected(self):
        qp = QuantParams(scale=0.5, zero_point=3)
        model = ModelGraph("flat", qp, [LayerSpec(kind="flatten", output=qp)])
        with pytest.raises(ShapeError, match="one rescaler width, has none"):
            validate_model(model)
        with pytest.raises(ShapeError):
            model_to_bytes(model)

    def test_missing_weights(self):
        model = tiny_dense_model()
        model.layers[0].weights = None
        with pytest.raises(ShapeError, match="missing weights"):
            validate_model(model)

    @pytest.mark.parametrize("index, kind", [(2, "dense"), (0, "depthwise")],
                             ids=["depthwise-as-dense", "conv2d-as-depthwise"])
    def test_kind_must_match_the_weight_rank(self, desk_quantized, tmp_path, index,
                                             kind):
        model = replace(desk_quantized, layers=list(desk_quantized.layers))
        model.layers[index] = replace(model.layers[index], kind=kind)
        path = tmp_path / "relabelled.rqm"
        with pytest.raises(ShapeError, match=f"layer {index}: {kind} takes weights of rank"):
            save_model(model, str(path))
        assert not path.exists()

    def test_unknown_kind(self):
        model = tiny_dense_model()
        model.layers[0].kind = "attention"
        with pytest.raises(ShapeError, match="unknown kind"):
            validate_model(model)

    def test_avgpool_rescaler_is_validated(self, tmp_path):
        # 0.25 is 1/area, but m=1 lacks the leading bit a k=8 rescaler needs.
        qp = QuantParams(scale=0.5, zero_point=3)
        pool = LayerSpec(kind="avgpool", window=(2, 2), output=qp,
                         rescalers=[DyadicRescaler(m=1, s=2, k=8, real_value=0.25)])
        model = ModelGraph("pool", qp, [pool])
        with pytest.raises(DomainError, match="layer 0 rescaler 0: .*leading bit"):
            validate_model(model)
        path = tmp_path / "pool.rqm"
        with pytest.raises(DomainError, match="leading bit"):
            save_model(model, str(path))
        assert not path.exists()

    def test_empty_model(self):
        with pytest.raises(ShapeError, match="no layers"):
            validate_model(ModelGraph("x", QuantParams(0.1, 0), []))

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
        with pytest.raises(FormatError, match="lbls: 2 labels for 3 images"):
            load_idx_dataset(str(tmp_path / "imgs"), str(tmp_path / "lbls"))

    @pytest.mark.parametrize("labels", [[3, 256, 265], [3, -1, 9], [3.0, 1.5, 9.0]],
                             ids=["past-255", "negative", "float"])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, labels):
        # [3, 256, 265] was written as bytes and loaded back as [3, 0, 9].
        with pytest.raises(DomainError, match="is not a class 0..9"):
            save_idx_labels(str(tmp_path / "lbls"), np.array(labels))
        assert not (tmp_path / "lbls").exists()

    @pytest.mark.parametrize("dtype", [np.float64, np.int8, np.int64])
    def test_writer_refuses_images_other_than_uint8(self, tmp_path, dtype):
        # Images filled with 0.6 were written as all zeros.
        with pytest.raises(ShapeError, match="images must be uint8"):
            save_idx_images(str(tmp_path / "imgs"), np.full((2, 4, 4), 0.6).astype(dtype))
        assert not (tmp_path / "imgs").exists()

    def test_dims_whose_product_wraps_int64(self, tmp_path):
        # 2**22 * 2**22 * 2**20 = 2**64 is 0 in int64, which matched the
        # empty payload of this 16-byte file.
        with open(tmp_path / "imgs", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, 1 << 22, 1 << 22, 1 << 20))
        write_idx_labels(tmp_path / "lbls", np.zeros(2, dtype=np.uint8))
        with pytest.raises(FormatError, match="payload"):
            load_idx_dataset(str(tmp_path / "imgs"), str(tmp_path / "lbls"))

    def test_truncated_payload(self, tmp_path):
        with open(tmp_path / "imgs", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, 2, 4, 4))
            fh.write(b"\x00" * 10)
        write_idx_labels(tmp_path / "lbls", np.zeros(2, dtype=np.uint8))
        with pytest.raises(FormatError, match="payload"):
            load_idx_dataset(str(tmp_path / "imgs"), str(tmp_path / "lbls"))
