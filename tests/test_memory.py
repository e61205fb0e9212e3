"""Working-memory bounds, measured with tracemalloc (NumPy reports its
buffers to it).

The engine runs every layer one block of RESCALE_BLOCK images at a time,
the error model reduces its peaks block by block, uint8 images are
quantized through a 256-entry table, the renderer builds each chunk's
pixels in place, and the float forward runs every layer, logits
included, over blocks of FLOAT_BLOCK (8) images, for inference and for
PTQ calibration alike, which keeps only ranges.  The bounds are 1.5x to
2x the measured peaks, and well below what whole-batch layers need
(conv1 alone at 512 images: a 26 MB float accumulator and its int32 and
int64 copies, or, in the float forward, its 29 MB im2col matrix).
"""

import tracemalloc

import numpy as np
import pytest

from rescale_lab import datagen, floatnet
from rescale_lab.errmodel import model_error_report
from rescale_lab.kernels import predict_int
from rescale_lab.model_io import quantize_float_model
from rescale_lab.trainer import float_accuracy

MB = 1 << 20


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, above what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def desk():
    rng = np.random.default_rng(41)
    model = quantize_float_model(floatnet.init_float_model(seed=41),
                                 [rng.random((6, 28, 28, 1))])
    images = rng.integers(0, 256, size=(2048, 28, 28), dtype=np.uint8)
    return model, images


def test_predict_int_stays_small_and_flat(desk):
    model, images = desk
    predict_int(model, images)  # fills NumPy's small-allocation caches
    peak_512 = traced_peak(lambda: predict_int(model, images[:512]))
    peak_2048 = traced_peak(lambda: predict_int(model, images))
    assert peak_512 < 8 * MB
    # 2,048 images add their own output (int64 predictions) and nothing that
    # grows with the batch; the slack covers allocator bookkeeping.
    assert peak_2048 - peak_512 <= images.shape[0] * 8 + MB // 4


def test_float_accuracy_stays_small_and_flat(desk):
    _, images = desk
    model = floatnet.init_float_model(seed=41)
    labels = np.zeros(images.shape[0], np.int64)
    float_accuracy(model, images, labels)
    peak_512 = traced_peak(lambda: float_accuracy(model, images[:512], labels[:512]))
    peak_2048 = traced_peak(lambda: float_accuracy(model, images, labels))
    assert peak_512 < 2 * MB
    # The walk runs 8 images at a time, so 2,048 images add only their
    # logits (kept per block, then joined) and allocator bookkeeping.
    assert peak_2048 - peak_512 <= MB // 4


def test_quantize_float_model_stays_small():
    # One 512-image batch: the walk holds one 8-image block's tensors and
    # the ranges, nothing of the whole batch.
    model = floatnet.init_float_model(seed=41)
    batch = np.random.default_rng(41).random((512, 28, 28, 1))
    assert traced_peak(lambda: quantize_float_model(model, [batch])) < 2 * MB


def test_model_error_report_stays_small(desk):
    model, images = desk
    assert traced_peak(lambda: model_error_report(model, images[:256], 8)) < 6 * MB


def test_render_digits_stays_small():
    labels = datagen.balanced_labels(512, np.random.default_rng(0))
    assert traced_peak(
        lambda: datagen.render_digits(labels, np.random.default_rng(1))) < 10 * MB
