"""Real-valued reference network.

The fixed desk-scale architecture "desk-cnn-v1" (28x28x1 input, 10
classes) is written down once, as the layer list :data:`LAYERS`.
Initialization, inference, post-training quantization
(``model_io.quantize_float_model``) and float training
(``trainer.train_float``) all walk that list, in float64 on the
multiply-accumulate core of :mod:`kernels`.

Every layer runs through one step, :func:`layer_step`: the MAC, the bias
added in place over channel rows, then the activation in place.
Inference has one walk, read by :func:`forward` (the logits) and by
:func:`forward_intermediates` (the per-tensor ranges PTQ calibrates on,
all that calibration keeps).  It runs the layers up to ``flatten`` over
blocks of :data:`FLOAT_BLOCK` images into one (n, features) buffer, so
its working memory does not grow with the batch, and the layers after it
once over the whole batch.  A block is small enough that BLAS runs each
conv matmul on one thread, where a row's sum does not depend on the row
count, so the conv outputs are those of a walk one image at a time, at
any BLAS thread count.  The dense matmul's order may change with its row
count, so the logits are those of the whole call's batch.
"""

from __future__ import annotations

import io
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .errors import FormatError, ShapeError
from .kernels import (_channel_rows, accumulate, channel_count, flatten,
                      mac_count, window_sum)

ARCH_NAME = "desk-cnn-v1"

_FLOAT_MAGIC = "rescale-lab-float-v1"

# Images per block of forward's conv layers.  OpenBLAS splits a matmul
# over threads only once M*N*K reaches 2 * 262,144, and under its Haswell
# and Zen kernels a split changes the last bits of the rows at its seam.
# conv1 (784 rows an image, K=9, N=8) reaches that at 10 images and conv2
# (196 rows, K=8, N=16) at 21; 8 images keep both on one thread.
FLOAT_BLOCK = 8


@dataclass(frozen=True)
class FloatLayer:
    """One layer of desk-cnn-v1.

    ``name`` keys the layer's output range in :func:`forward_intermediates`.
    A weighted layer keeps its parameters in the :class:`FloatModel` fields
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


def model_params(model: FloatModel) -> list[tuple]:
    """:func:`layer_params` of every layer of :data:`LAYERS`, in order;
    ``(None, None)`` for avgpool and flatten."""
    return [layer_params(model, layer) if layer.param else (None, None) for layer in LAYERS]


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


def _biased_mac(x, w, b, kind, stride, padding):
    """:func:`kernels.accumulate` with the bias added in place over channel
    rows: ``(acc + b, cols, pads)``."""
    acc, cols, pads = accumulate(x, w, kind, stride, padding)
    rows, (b_rows,) = _channel_rows(acc, b)
    rows += b_rows
    return acc, cols, pads


def conv2d_real(x, w, b, stride=(1, 1), padding="VALID"):
    """Float convolution, NHWC x OHWI; SAME pads with real zero.  Returns
    the biased accumulator with the im2col matrix and pads of
    :func:`kernels.accumulate`."""
    return _biased_mac(x, w, b, "conv2d", stride, padding)


def depthwise_real(x, w, b, stride=(1, 1), padding="VALID"):
    """Float depthwise convolution, weights (kh, kw, channels); returns as
    :func:`conv2d_real` does."""
    return _biased_mac(x, w, b, "depthwise", stride, padding)


def avgpool_real(x, window=(2, 2)):
    out = window_sum(x, window)
    out /= window[0] * window[1]
    return out


def _activate(h: np.ndarray, activation: str, with_mask: bool):
    """Apply ``activation`` to ``h`` in place.  With ``with_mask``, return
    where it passes gradient (``True`` for none), computed before the clip;
    otherwise None.  An unknown activation raises ShapeError."""
    if activation == "none":
        return True if with_mask else None
    if activation == "relu":
        mask = h > 0.0 if with_mask else None
        np.maximum(h, 0.0, out=h)
    elif activation == "relu6":
        mask = (h > 0.0) & (h < 6.0) if with_mask else None
        np.clip(h, 0.0, 6.0, out=h)
    else:
        raise ShapeError(f"unknown activation {activation!r}")
    return mask


def layer_step(layer: FloatLayer, x: np.ndarray, w=None, b=None,
               with_mask: bool = False):
    """Run one layer on ``x``; returns ``(y, cols, pads, mask)``.

    Weighted layers run the MAC with weights ``w`` and the bias ``b`` added
    in place (:func:`conv2d_real`, :func:`depthwise_real`, or dense), then
    the activation (none, relu or relu6) in place; ``cols`` and ``pads``
    are those of :func:`kernels.accumulate`, and ``mask`` (only with
    ``with_mask``) is where the activation passes gradient.  avgpool and
    flatten take no parameters and give None for all three.  An unknown
    activation, or any activation on avgpool or flatten, raises ShapeError.
    """
    if layer.param is None:
        if layer.activation != "none":
            raise ShapeError(f"{layer.kind} layer {layer.name} takes no activation")
        y = avgpool_real(x, layer.window) if layer.kind == "avgpool" else flatten(x)
        return y, None, None, None
    if layer.kind == "conv2d":
        h, cols, pads = conv2d_real(x, w, b, layer.stride, layer.padding)
    elif layer.kind == "depthwise":
        h, cols, pads = depthwise_real(x, w, b, layer.stride, layer.padding)
    else:
        h, cols, pads = _biased_mac(x, w, b, layer.kind, layer.stride, layer.padding)
    return h, cols, pads, _activate(h, layer.activation, with_mask)


# The layers the walk runs block by block: those up to and including flatten.
_BLOCKED = next(i for i, layer in enumerate(LAYERS) if layer.kind == "flatten") + 1


def _walk(model: FloatModel, x):
    """The one inference walk: yield ``(name, tensor)`` for ``input`` and
    each layer of :data:`LAYERS`, those up to flatten per block of
    :data:`FLOAT_BLOCK` images, the rest once over the whole batch."""
    x = np.asarray(x, dtype=np.float64)
    x = x[..., np.newaxis] if x.ndim == 3 else x
    steps = list(zip(LAYERS, model_params(model)))
    features = None
    # An empty batch still runs one (empty) block, so shape errors surface.
    for start in range(0, max(x.shape[0], 1), FLOAT_BLOCK):
        block = slice(start, start + FLOAT_BLOCK)
        h = x[block]
        yield "input", h
        for layer, (w, b) in steps[:_BLOCKED]:
            h = layer_step(layer, h, w, b)[0]
            yield layer.name, h
        if features is None:
            features = np.empty(x.shape[:1] + h.shape[1:], h.dtype)
        features[block] = h
    for layer, (w, b) in steps[_BLOCKED:]:
        features = layer_step(layer, features, w, b)[0]
        yield layer.name, features


def forward_intermediates(model: FloatModel, batches) -> dict[str, tuple[float, float]]:
    """The (min, max) over every image of ``batches`` (or of one array) of
    each tensor the quantizer calibrates on, keyed ``input`` and by layer
    name (activations post-ReLU6).  A NaN stays NaN; no image at all gives
    ``(inf, -inf)``."""
    if isinstance(batches, np.ndarray):
        batches = [batches]
    ranges = dict.fromkeys(["input"] + [layer.name for layer in LAYERS],
                           (np.inf, -np.inf))
    for batch in batches:
        for name, h in _walk(model, batch):
            lo, hi = ranges[name]  # seeds: a NaN stays NaN, an empty h keeps them
            ranges[name] = (h.min(initial=lo), h.max(initial=hi))
    return {name: (float(lo), float(hi)) for name, (lo, hi) in ranges.items()}


def forward(model: FloatModel, x: np.ndarray) -> np.ndarray:
    """The logits, the walk's last tensor: working memory does not grow
    with the batch past the input, the (n, features) buffer and the logits."""
    for _, logits in _walk(model, x):
        pass
    return logits


def save_float_model(model: FloatModel, path: str) -> None:
    # Through an open file, so np.savez does not append ".npz" to the name.
    arrays = {f.name: getattr(model, f.name) for f in fields(FloatModel)}
    with open(path, "wb") as fh:
        np.savez(fh, magic=_FLOAT_MAGIC, **arrays)


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
