"""Real-valued reference network.

The fixed desk-scale architecture "desk-cnn-v1" (28x28x1 input, 10
classes) is written down once, as the layer list :data:`LAYERS`.
Initialization and the forward pass here, post-training quantization
(``model_io.quantize_float_model``) and float training
(``trainer.train_float``) all walk that list.  Forward passes run in
float64 on the multiply-accumulate core of :mod:`kernels`; the quantizer
calibrates on the per-tensor intermediates this module exposes.
"""

from __future__ import annotations

import io
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .errors import FormatError
from .kernels import accumulate, channel_count, flatten, mac_count, window_sum

ARCH_NAME = "desk-cnn-v1"

_FLOAT_MAGIC = "rescale-lab-float-v1"


@dataclass(frozen=True)
class FloatLayer:
    """One layer of desk-cnn-v1.

    ``name`` keys the layer's output in :func:`forward_intermediates`.  A
    weighted layer keeps its parameters in the :class:`FloatModel` fields
    ``<param>_w`` (of shape ``shape``, kernels layout) and ``<param>_b``.
    """

    kind: str
    name: str
    param: str | None = None
    shape: tuple[int, ...] = ()
    activation: str = "none"
    padding: str = "VALID"
    stride: tuple[int, int] = (1, 1)
    window: tuple[int, int] | None = None


LAYERS = (
    FloatLayer("conv2d", "conv1", "conv1", (8, 3, 3, 1), "relu6", "SAME"),
    FloatLayer("avgpool", "pool1", window=(2, 2)),
    FloatLayer("depthwise", "dw", "dw", (3, 3, 8), "relu6", "SAME"),
    FloatLayer("conv2d", "conv2", "conv2", (16, 1, 1, 8), "relu6"),
    FloatLayer("avgpool", "pool2", window=(2, 2)),
    FloatLayer("flatten", "flat"),
    FloatLayer("dense", "logits", "dense", (10, 784)),
)


@dataclass
class FloatModel:
    """Parameters of desk-cnn-v1: a weight and a bias per weighted layer of
    :data:`LAYERS`, shaped as that layer declares."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    dw_w: np.ndarray
    dw_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray


def layer_params(model: FloatModel, layer: FloatLayer) -> tuple[np.ndarray, np.ndarray]:
    """The (weights, bias) of a weighted layer."""
    return getattr(model, f"{layer.param}_w"), getattr(model, f"{layer.param}_b")


def init_float_model(seed: int) -> FloatModel:
    """He-style initialization, zero biases, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for layer in LAYERS:
        if layer.param is not None:
            template = np.empty(layer.shape)
            params[f"{layer.param}_w"] = rng.normal(
                0.0, np.sqrt(2.0 / mac_count(template)), size=layer.shape)
            params[f"{layer.param}_b"] = np.zeros(channel_count(template))
    return FloatModel(**params)


def relu6(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 6.0)


def conv2d_real(x, w, b, stride=(1, 1), padding="VALID"):
    """Float convolution, NHWC x OHWI; SAME pads with real zero."""
    return accumulate(x, w, "conv2d", stride, padding)[0] + b


def depthwise_real(x, w, b, stride=(1, 1), padding="VALID"):
    """Float depthwise convolution, weights (kh, kw, channels)."""
    return accumulate(x, w, "depthwise", stride, padding)[0] + b


def avgpool_real(x, window=(2, 2)):
    return window_sum(x, window) / (window[0] * window[1])


def forward_intermediates(model: FloatModel, x: np.ndarray) -> dict[str, np.ndarray]:
    """Forward pass returning every tensor the quantizer calibrates on.

    Keys: ``input`` and each layer's name in :data:`LAYERS` (``conv1``,
    ``pool1``, ``dw``, ``conv2``, ``pool2``, ``flat``, ``logits``);
    activation tensors are post-ReLU6.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[..., np.newaxis]
    tensors = {"input": x}
    for layer in LAYERS:
        if layer.kind == "avgpool":
            x = avgpool_real(x, layer.window)
        elif layer.kind == "flatten":
            x = flatten(x)
        else:
            w, b = layer_params(model, layer)
            if layer.kind == "dense":
                x = accumulate(x, w, "dense")[0] + b
            else:
                conv = conv2d_real if layer.kind == "conv2d" else depthwise_real
                x = conv(x, w, b, layer.stride, layer.padding)
            if layer.activation == "relu6":
                x = relu6(x)
        tensors[layer.name] = x
    return tensors


def forward(model: FloatModel, x: np.ndarray) -> np.ndarray:
    return forward_intermediates(model, x)["logits"]


def save_float_model(model: FloatModel, path: str) -> None:
    arrays = {f.name: getattr(model, f.name) for f in fields(FloatModel)}
    np.savez(path, magic=_FLOAT_MAGIC, **arrays)


def load_float_model(path: str) -> FloatModel:
    """Read a :func:`save_float_model` file; raises FormatError unless it
    holds every array, shaped as :data:`LAYERS` declares."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "magic" not in data or str(data["magic"]) != _FLOAT_MAGIC:
                raise FormatError(f"{path}: not a rescale-lab float model")
            kwargs = {
                f.name: np.asarray(data[f.name], dtype=np.float64)
                for f in fields(FloatModel)
            }
    except (FormatError, FileNotFoundError):
        raise
    except (OSError, KeyError, ValueError, io.UnsupportedOperation, EOFError,
            NotImplementedError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: cannot read float model ({exc})") from exc
    model = FloatModel(**kwargs)
    for layer in (layer for layer in LAYERS if layer.param is not None):
        shapes = tuple(a.shape for a in layer_params(model, layer))
        if shapes != (layer.shape, (channel_count(np.empty(layer.shape)),)):
            raise FormatError(f"{path}: {layer.param}_w, {layer.param}_b have shapes "
                              f"{shapes}, not those of layer {layer.name}")
    return model
