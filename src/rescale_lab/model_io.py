"""Model container, post-training quantization, redeployment, datasets.

The on-disk container ("RQM1") is a single file:

    8 bytes   magic  b"RQM1\\0\\0\\0\\0"
    8 bytes   little-endian u64: manifest byte length
    manifest  UTF-8 JSON (topology, shapes, scales, rescalers, blob layout)
    8 bytes   little-endian u64: blob byte length
    blob      raw little-endian tensor data in manifest order

Scales and other real-valued fields are serialized as 16-hex-digit
binary64 bit patterns so round-trips are bit-exact in any language.
The manifest also carries a CRC-32 of the blob so corrupted tensor
bytes are detected at load time.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import floatnet
from .errors import CalibrationError, DomainError, FormatError, RescalerUnderflow, ShapeError
from .kernels import (LAYER_KINDS, WEIGHTED_KINDS, QTensor, check_channels, check_classes,
                      check_labels, check_layer, check_mac, check_steps, check_uint8_images,
                      mac_count, tap_axes)
from .qcore import (
    INT8_MAX,
    INT8_MIN,
    INT32_MAX,
    INT32_MIN,
    DyadicRescaler,
    QuantParams,
    bias_scales,
    check_bitwidth,
    quantize_rescaler,
    rescale_factors,
    round_half_up,
)

if TYPE_CHECKING:  # pragma: no cover
    from .trainer import ShadowModel

MAGIC = b"RQM1\x00\x00\x00\x00"
FORMAT_VERSION = 1

# Quantization grid sizes of the int8 scheme.
_ACT_LEVELS = 255.0
_WEIGHT_LEVELS = 127.0
_SCALE_FLOOR = 1e-7


# ---------------------------------------------------------------------------
# Graph types
# ---------------------------------------------------------------------------


@dataclass
class LayerSpec:
    """One layer of a quantized model."""

    kind: str
    activation: str = "none"
    weights: QTensor | None = None
    bias: np.ndarray | None = None
    stride: tuple[int, int] = (1, 1)
    padding: str = "VALID"
    window: tuple[int, int] | None = None
    output: QuantParams | None = None
    rescalers: list[DyadicRescaler] = field(default_factory=list)


@dataclass
class ModelGraph:
    """Ordered quantized layers plus input quantization and metadata.  The
    rescalers are the only record of the width."""

    name: str
    input_params: QuantParams
    layers: list[LayerSpec]

    @property
    def k(self) -> int:
        """The one width every rescaler carries; raises ShapeError for mixed
        widths or a graph without rescalers."""
        widths = sorted({r.k for layer in self.layers for r in layer.rescalers})
        if len(widths) != 1:
            raise ShapeError(f"model needs one rescaler width, has {widths or 'none'}")
        return widths[0]


def fake_quantize_weights(w: np.ndarray) -> np.ndarray:
    """Deployment-identical integerization of real-valued weights: round
    half-up, clamp to int8.  Returns float64."""
    return np.clip(round_half_up(w), INT8_MIN, INT8_MAX)


def fake_quantize_biases(b: np.ndarray) -> np.ndarray:
    """Round half-up, clamp to int32; returns float64."""
    return np.clip(round_half_up(b), float(INT32_MIN), float(INT32_MAX))


# ---------------------------------------------------------------------------
# Post-training quantization
# ---------------------------------------------------------------------------


def activation_qparams(lo: float, hi: float) -> QuantParams:
    """Affine int8 parameters covering the observed range [lo, hi].

    The range is first widened to include 0 so that real zero (ReLU floors,
    zero padding) is exactly representable.  A degenerate range (hi == lo,
    to within the 1e-7 scale floor) falls back to scale 1e-7 with zero
    point 0.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CalibrationError(f"non-finite activation range [{lo}, {hi}]")
    if hi < lo:
        raise CalibrationError(f"inverted activation range [{lo}, {hi}]")
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    scale = (hi - lo) / _ACT_LEVELS
    if scale < _SCALE_FLOOR:
        return QuantParams(scale=_SCALE_FLOOR, zero_point=0)
    zero_point = int(round_half_up(-128.0 - lo / scale))
    zero_point = max(INT8_MIN, min(INT8_MAX, zero_point))
    return QuantParams(scale=scale, zero_point=zero_point)


def weight_channel_scales(w: np.ndarray) -> np.ndarray:
    """Symmetric per-channel scales max|w_c| / 127, floored at 1e-7."""
    peak = np.max(np.abs(w), axis=tap_axes(w))
    return np.maximum(peak / _WEIGHT_LEVELS, _SCALE_FLOOR)


def quantize_weights(w: np.ndarray) -> QTensor:
    """Per-channel symmetric int8 weights (channel scales, zero point 0),
    rounded by redeployment's :func:`fake_quantize_weights`."""
    scales = weight_channel_scales(w)
    ints = fake_quantize_weights(w / np.expand_dims(scales, tap_axes(w)))
    return QTensor(ints.astype(np.int8), scales)


def quantize_float_model(
    float_model: "floatnet.FloatModel",
    calibration_batches: Iterable[np.ndarray],
    name: str = floatnet.ARCH_NAME,
) -> ModelGraph:
    """Post-training quantization of the reference float network.

    Reads each tensor's min/max over the calibration batches (or one
    array), uint8 images or float unit images, from
    :func:`floatnet.forward_intermediates`, derives affine activation
    parameters and symmetric per-channel weight parameters, quantizes
    biases at S_x * S_w_c, and materializes per-channel rescalers
    M_c = S_x * S_w_c / S_y at k=32.  Empty batches add nothing.
    """
    ranges = floatnet.forward_intermediates(float_model, calibration_batches)
    if ranges["input"][0] > ranges["input"][1]:
        raise CalibrationError("no calibration image in any batch")
    for key in ["input"] + [l.name for l in floatnet.LAYERS if l.param is not None]:
        if not all(map(math.isfinite, ranges[key])):
            raise CalibrationError(f"non-finite values observed for tensor {key!r}")

    input_params = in_qp = activation_qparams(*ranges["input"])
    layers = []
    for idx, layer in enumerate(floatnet.LAYERS):
        if layer.kind == "avgpool":
            area = layer.window[0] * layer.window[1]
            layers.append(LayerSpec(kind="avgpool", window=layer.window, output=in_qp,
                                    rescalers=_layer_rescalers([1.0 / area], 32, idx,
                                                               layer.kind)))
        elif layer.kind == "flatten":
            layers.append(LayerSpec(kind="flatten", output=in_qp))
        else:
            out_qp = activation_qparams(*ranges[layer.name])
            w_real, b_real = floatnet.layer_params(float_model, layer)
            weights = quantize_weights(w_real)
            b_scales = bias_scales(in_qp.scale, weights.qparams)
            layers.append(LayerSpec(
                kind=layer.kind,
                activation=layer.activation,
                weights=weights,
                bias=fake_quantize_biases(b_real / b_scales).astype(np.int32),
                stride=layer.stride,
                padding=layer.padding,
                output=out_qp,
                rescalers=_layer_rescalers(
                    rescale_factors(in_qp.scale, weights.qparams, out_qp.scale),
                    32, idx, layer.kind),
            ))
            in_qp = out_qp
    model = ModelGraph(name=name, input_params=input_params, layers=layers)
    validate_model(model)
    return model


def _layer_rescalers(factors, k: int, idx: int, kind: str) -> list[DyadicRescaler]:
    """Layer ``idx``'s real factors as width-``k`` rescalers; a factor that
    fails names its layer and channel."""
    rescalers = []
    for c, m in enumerate(factors):
        try:
            rescalers.append(quantize_rescaler(m, k))
        except (DomainError, RescalerUnderflow) as exc:
            raise type(exc)(f"layer {idx} ({kind}) channel {c}: {exc}") from exc
    return rescalers


def materialize_rescalers(model: ModelGraph, k: int) -> ModelGraph:
    """Re-quantize every rescaler at width ``k`` from its stored real value.
    A graph whose rescalers all have width ``k`` already is returned as it
    is, so clamp-built rescalers run at their own width."""
    check_bitwidth(k)  # a bad width is the caller's, not a layer's
    if all(r.k == k for layer in model.layers for r in layer.rescalers):
        return model
    return replace(model, layers=[
        replace(layer, rescalers=_layer_rescalers(
            [r.real_value for r in layer.rescalers], k, idx, layer.kind))
        for idx, layer in enumerate(model.layers)
    ])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def layer_input_params(model: ModelGraph, index: int) -> QuantParams:
    """Quantization parameters of layer ``index``'s input."""
    return model.input_params if index == 0 else model.layers[index - 1].output


def validate_model(model: ModelGraph) -> None:
    """Check every field of every layer, the one judge of the graphs that
    load_model reads and save_model writes; raises ShapeError/DomainError,
    naming the layer.  The layer rules are those of :mod:`kernels`."""
    if not model.layers:
        raise ShapeError("model has no layers")
    if not isinstance(model.input_params, QuantParams):
        raise ShapeError("model input parameters missing")
    for idx, layer in enumerate(model.layers):
        for c, r in enumerate(layer.rescalers):
            try:
                r.validate()
            except DomainError as exc:
                raise DomainError(f"layer {idx} rescaler {c}: {exc}") from exc
        try:
            _validate_layer(layer, layer_input_params(model, idx))
        except ShapeError as exc:
            raise ShapeError(f"layer {idx}: {exc}") from exc
    model.k  # the one-width rule: raises ShapeError unless every rescaler agrees


def _validate_layer(layer: LayerSpec, in_params: QuantParams) -> None:
    check_layer(layer.kind, layer.activation)
    if layer.output is None:
        raise ShapeError("missing output parameters")
    if layer.kind == "avgpool":
        check_steps("window", layer.window)
        if [r.real_value for r in layer.rescalers] != [1.0 / math.prod(layer.window)]:
            raise ShapeError("avgpool needs one rescaler, of 1/area")
    elif layer.kind == "flatten" and layer.rescalers:
        raise ShapeError("flatten takes no rescalers")
    if layer.kind not in WEIGHTED_KINDS:
        if layer.output != in_params:
            raise ShapeError(f"{layer.kind} must keep qparams")
        return
    if layer.weights is None or layer.bias is None:
        raise ShapeError("weighted layer missing weights or bias")
    if not layer.weights.is_per_channel:
        raise ShapeError("weights must carry per-channel scales")
    check_mac(layer.kind, layer.weights.data, layer.stride, layer.padding)
    channels = check_channels("bias", layer.bias, layer.weights.data).shape[0]
    if len(layer.rescalers) != channels:
        raise ShapeError(f"{len(layer.rescalers)} rescalers for {channels} channels")
    factors = rescale_factors(in_params.scale, layer.weights.qparams, layer.output.scale)
    for c, (r, expected_m) in enumerate(zip(layer.rescalers, factors)):
        if r.real_value != expected_m:
            raise ShapeError(f"channel {c}: stored rescale factor "
                             f"{r.real_value!r} != S_x*S_w/S_y {expected_m!r}")
    # No-overflow envelope: |acc| <= N * 128 * 255 + |b_q| must fit int32.
    # Unlike kernels.accumulator_bound it ignores the weights and the zero
    # point, so it admits every weight vector a fine-tune can redeploy
    # (which may reach -128).  It also bounds the effective bias:
    # |b_q - z * sum(w_c)| <= |b_q| + 128 * 128 * N.
    worst = (mac_count(layer.weights.data) * 128 * 255
             + int(np.max(np.abs(layer.bias.astype(np.int64)))))
    if worst >= (1 << 31):
        raise ShapeError(f"worst-case accumulator {worst} leaves int32")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def float_to_hex(value: float) -> str:
    return struct.pack(">d", float(value)).hex()


def hex_to_float(text: str) -> float:
    if not isinstance(text, str) or len(text) != 16:
        raise FormatError(f"bad binary64 hex field {text!r}")
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise FormatError(f"bad binary64 hex field {text!r}") from exc
    return struct.unpack(">d", raw)[0]


def _qparams_to_json(qp: QuantParams) -> dict:
    return {"scale": float_to_hex(qp.scale), "zero_point": qp.zero_point}


def _qparams_from_json(obj: dict) -> QuantParams:
    return QuantParams(scale=hex_to_float(obj["scale"]), zero_point=int(obj["zero_point"]))


def _canonical_json(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def model_to_bytes(model: ModelGraph) -> bytes:
    """Serialize to the RQM1 container (deterministic bytes)."""
    blob = bytearray()
    layers_json = []
    for idx, layer in enumerate(model.layers):
        entry: dict = {
            "kind": layer.kind,
            "activation": layer.activation,
            "output": _qparams_to_json(layer.output),
            "rescalers": [
                {
                    "m": r.m,
                    "s": r.s,
                    "k": r.k,
                    "real": float_to_hex(r.real_value),
                    "underflowed": r.underflowed,
                }
                for r in layer.rescalers
            ],
        }
        if layer.kind in WEIGHTED_KINDS:
            entry["stride"] = list(layer.stride)
            entry["padding"] = layer.padding
            entry["weight_scales"] = [
                float_to_hex(v) for v in np.asarray(layer.weights.qparams)
            ]
            entry["bias_scales"] = [float_to_hex(v) for v in bias_scales(
                layer_input_params(model, idx).scale, layer.weights.qparams)]
            entry["tensors"] = {"weights": _write_tensor(blob, layer.weights.data, "int8"),
                                "bias": _write_tensor(blob, layer.bias, "int32")}
        elif layer.kind == "avgpool":
            entry["window"] = list(layer.window)
        layers_json.append(entry)
    manifest = {
        "format": "rqm1",
        "version": FORMAT_VERSION,
        "name": model.name,
        "k": model.k,
        "input": _qparams_to_json(model.input_params),
        "layers": layers_json,
        "blob_crc32": zlib.crc32(bytes(blob)),
    }
    # The manifest checksum covers the canonical serialization of every other
    # manifest field, so no header byte can change without detection.
    manifest["manifest_crc32"] = zlib.crc32(_canonical_json(manifest))
    manifest_bytes = _canonical_json(manifest)
    out = bytearray()
    out.extend(MAGIC)
    out.extend(struct.pack("<Q", len(manifest_bytes)))
    out.extend(manifest_bytes)
    out.extend(struct.pack("<Q", len(blob)))
    out.extend(blob)
    return bytes(out)


# The blob's tensor types, by manifest name, in little-endian layout.
_TENSOR_DTYPES = {"int8": np.dtype("<i1"), "int32": np.dtype("<i4")}


def _write_tensor(blob: bytearray, values: np.ndarray, dtype: str) -> dict:
    """Append ``values`` to ``blob`` as ``dtype``; return their manifest entry."""
    offset = len(blob)
    blob.extend(np.ascontiguousarray(values, dtype=_TENSOR_DTYPES[dtype]).tobytes())
    return {"dtype": dtype, "shape": list(values.shape), "offset": offset,
            "size": len(blob) - offset}


def _read_tensor(blob: bytes, meta: dict, dtype: str, where: str) -> np.ndarray:
    shape = tuple(int(v) for v in meta["shape"])
    offset = int(meta["offset"])
    size = int(meta["size"])
    declared_dtype = meta["dtype"]
    if declared_dtype != dtype:
        raise FormatError(f"{where}: expected dtype {dtype}, got {declared_dtype!r}")
    expected_size = math.prod(shape) * _TENSOR_DTYPES[dtype].itemsize
    if size != expected_size:
        raise FormatError(
            f"{where}: size {size} does not match shape {shape} ({expected_size})"
        )
    if offset < 0 or offset + size > len(blob):
        raise FormatError(
            f"{where}: tensor bytes [{offset}, {offset + size}) leave the blob "
            f"of {len(blob)} bytes"
        )
    raw = np.frombuffer(blob[offset : offset + size], dtype=_TENSOR_DTYPES[dtype])
    return raw.reshape(shape).astype(dtype)


def model_from_bytes(data: bytes) -> ModelGraph:
    """Parse and fully re-validate an RQM1 container.  Only the canonical
    encoding loads: the file must equal :func:`model_to_bytes` of the model
    it parses to, so a stored copy of a fact (the manifest ``k``, the bias
    scales) must agree with the graph.  Every malformed value is a
    FormatError naming the part that holds it: the manifest, the input, a
    layer or the model."""
    if len(data) < 16:
        raise FormatError(f"truncated header: {len(data)} bytes, need at least 16")
    if data[:8] != MAGIC:
        raise FormatError(f"bad magic {data[:8]!r} at byte 0")
    (manifest_len,) = struct.unpack("<Q", data[8:16])
    manifest_end = 16 + manifest_len
    if manifest_end + 8 > len(data):
        raise FormatError(
            f"manifest length {manifest_len} at byte 8 leaves the file of "
            f"{len(data)} bytes"
        )
    (blob_len,) = struct.unpack("<Q", data[manifest_end : manifest_end + 8])
    blob_start = manifest_end + 8
    if blob_start + blob_len != len(data):
        raise FormatError(
            f"blob length {blob_len} at byte {manifest_end} does not match "
            f"the {len(data) - blob_start} bytes present"
        )
    blob = data[blob_start : blob_start + blob_len]
    where = "manifest"
    try:
        manifest = json.loads(data[16:manifest_end].decode("utf-8"))
        if not isinstance(manifest, dict):
            raise FormatError("manifest is not a JSON object")
        if manifest["format"] != "rqm1" or manifest["version"] != FORMAT_VERSION:
            raise FormatError(
                f"unsupported format {manifest.get('format')!r} "
                f"version {manifest.get('version')!r}"
            )
        stored_crc = manifest.pop("manifest_crc32", None)
        if stored_crc != zlib.crc32(_canonical_json(manifest)):
            raise FormatError("manifest checksum mismatch: header corrupted")
        if manifest["blob_crc32"] != zlib.crc32(blob):
            raise FormatError("blob checksum mismatch: tensor data corrupted")
        name = manifest["name"]
        if not isinstance(name, str):
            raise FormatError("manifest 'name' is not a string")
        layer_entries = manifest["layers"]
        if not isinstance(layer_entries, list):
            raise FormatError("manifest 'layers' is not a list")
        where = "input"
        input_params = _qparams_from_json(manifest["input"])
        layers = []
        for idx, entry in enumerate(layer_entries):
            where = f"layer {idx}"
            layers.append(_layer_from_json(entry, blob, where))
        where = "model"
        model = ModelGraph(name=name, input_params=input_params, layers=layers)
        validate_model(model)
    # JSON nested past the interpreter's recursion limit is a RecursionError.
    except (LookupError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        raise FormatError(f"{where}: {exc}") from exc
    if model_to_bytes(model) != data:
        raise FormatError("not the canonical RQM1 encoding of the model it describes")
    return model


def _layer_from_json(entry: dict, blob: bytes, where: str) -> LayerSpec:
    kind = entry["kind"]
    output = _qparams_from_json(entry["output"])
    rescalers = [
        DyadicRescaler(
            m=int(robj["m"]),
            s=int(robj["s"]),
            k=int(robj["k"]),
            real_value=hex_to_float(robj["real"]),
            underflowed=bool(robj["underflowed"]),
        )
        for robj in entry["rescalers"]
    ]
    spec = LayerSpec(kind=kind, activation=entry["activation"],
                     output=output, rescalers=rescalers)
    if kind in WEIGHTED_KINDS:
        stride = entry["stride"]
        spec.stride = (int(stride[0]), int(stride[1]))
        spec.padding = entry["padding"]
        w_scales = np.array([hex_to_float(v) for v in entry["weight_scales"]])
        w_data = _read_tensor(blob, entry["tensors"]["weights"], "int8",
                              f"{where} tensor 'weights'")
        spec.weights = QTensor(w_data, w_scales)
        spec.bias = _read_tensor(blob, entry["tensors"]["bias"], "int32",
                                 f"{where} tensor 'bias'")
    elif kind == "avgpool":
        window = entry["window"]
        spec.window = (int(window[0]), int(window[1]))
    return spec


def save_model(model: ModelGraph, path: str) -> None:
    """Write ``model`` as RQM1 if :func:`validate_model` accepts it."""
    validate_model(model)
    data = model_to_bytes(model)
    with open(path, "wb") as fh:
        fh.write(data)


def _read_file(path: str) -> bytes:
    """The bytes of ``path``.  A missing file stays FileNotFoundError (a
    usage error to the CLI); any other OSError becomes a FormatError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def load_model(path: str) -> ModelGraph:
    return model_from_bytes(_read_file(path))


def models_equal(a: ModelGraph, b: ModelGraph) -> bool:
    """Structural equality (used by tests and the zero-epoch guarantees)."""
    return model_to_bytes(a) == model_to_bytes(b)


# ---------------------------------------------------------------------------
# Redeployment
# ---------------------------------------------------------------------------


def redeploy_weights(model: ModelGraph, shadow: "ShadowModel") -> ModelGraph:
    """Substitute rounded shadow weights into a copy of the model.

    The integers come from :func:`fake_quantize_weights` and
    :func:`fake_quantize_biases`, the same integerization the training
    emulation runs.  Scales, zero points, and rescalers are untouched.
    """
    if len(shadow.weights) != len(model.layers):
        raise ShapeError("shadow layer count does not match the model")
    new_layers = []
    for idx, layer in enumerate(model.layers):
        shadow_w = shadow.weights[idx]
        shadow_b = shadow.biases[idx]
        if layer.kind not in WEIGHTED_KINDS:
            if shadow_w is not None:
                raise ShapeError(f"layer {idx}: unexpected shadow weights")
            new_layers.append(replace(layer))
            continue
        if shadow_w is None or shadow_b is None:
            raise ShapeError(f"layer {idx}: missing shadow tensors")
        if shadow_w.shape != layer.weights.data.shape:
            raise ShapeError(
                f"layer {idx}: shadow weights {shadow_w.shape} vs "
                f"{layer.weights.data.shape}"
            )
        check_channels(f"layer {idx}: shadow bias", shadow_b, layer.weights.data)
        w_int = fake_quantize_weights(shadow_w).astype(np.int8)
        b_int = fake_quantize_biases(shadow_b).astype(np.int32)
        new_layers.append(
            replace(layer, weights=QTensor(w_int, layer.weights.qparams), bias=b_int)
        )
    return replace(model, layers=new_layers)


# ---------------------------------------------------------------------------
# IDX datasets
# ---------------------------------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path: str, magic: int, rank: int) -> np.ndarray:
    data = _read_file(path)
    header = 4 + 4 * rank
    if len(data) < header:
        raise FormatError(f"{path}: truncated IDX header")
    (got_magic,) = struct.unpack(">I", data[:4])
    if got_magic != magic:
        raise FormatError(
            f"{path}: IDX magic 0x{got_magic:08x}, expected 0x{magic:08x}"
        )
    dims = struct.unpack(f">{rank}I", data[4:header])
    count = math.prod(dims)
    if len(data) != header + count:
        raise FormatError(
            f"{path}: {len(data) - header} payload bytes for dimensions {dims}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims).copy()


def load_idx_images(path: str) -> np.ndarray:
    """The u8 image stack (n, h, w) of an IDX image file."""
    return _read_idx(path, IDX_IMAGES_MAGIC, 3)


def load_idx_dataset(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a u8 image/label pair of IDX files (big-endian headers); labels
    failing :func:`kernels.check_labels` are a FormatError naming the file."""
    images = load_idx_images(images_path)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    try:
        check_labels(images, labels)
    except (ShapeError, DomainError) as exc:
        raise FormatError(f"{labels_path}: {exc}") from exc
    return images, labels


def save_idx_images(path: str, images_u8: np.ndarray) -> None:
    """Write a u8 image stack as an IDX file (big-endian header); other
    dtypes raise ShapeError (:func:`kernels.check_uint8_images`)."""
    images = check_uint8_images(images_u8)
    if images.ndim != 3:
        raise ShapeError(f"expected images (n, h, w), got shape {images.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", IDX_IMAGES_MAGIC))
        fh.write(struct.pack(">3I", *images.shape))
        fh.write(images.tobytes())


def save_idx_labels(path: str, labels: np.ndarray) -> None:
    """Write class labels, checked by :func:`kernels.check_classes`, as a
    u8 IDX file (big-endian header)."""
    labels = check_classes(labels).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", IDX_LABELS_MAGIC))
        fh.write(struct.pack(">I", labels.shape[0]))
        fh.write(labels.tobytes())
