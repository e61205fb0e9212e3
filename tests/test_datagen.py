"""Tests for the synthetic digit renderer and the dataset around it."""

import hashlib

import numpy as np
import pytest

from oracles import oracle_stroke_ink
from rescale_lab import datagen
from rescale_lab.errors import DomainError, FormatError, ShapeError

# sha256 of render_digits(balanced_labels(n, rng), rng) with
# rng = default_rng(n).  The counts straddle the 64-image geometry passes
# (63, 65) and the 512-image chunks (512, 513), and 1,100 spans three
# chunks, the last of them partial.
RENDER_DIGESTS = {
    1: "38fb57ded635e9f1126458979656527ce07d092808d1063cadcb3a96d27ca22c",
    63: "02744e1abce8e22be9e0423f886a7e181504fa8252f53e0c259c69e3c591249e",
    65: "5a1da66a75dfbdfa9ed750eb12439d42c40a7a65f11b4a7c0f2d77696b9c273d",
    512: "3da67641017d539ffa23c223cc8debc12ef65f1b000da76b29142e8a3d43d7e4",
    513: "8ee17509456c19613c91674ecaed3b94395b9bd9b98c80df7a75a04f89615313",
    1100: "290602f81a3687e17ea736dca51862f0b03a5f358817a7105b941b6e77908006",
}

CENTRES = (np.arange(datagen.IMAGE_SIZE) + 0.5) / datagen.IMAGE_SIZE


@pytest.mark.parametrize("n", sorted(RENDER_DIGESTS))
def test_render_digits_bytes_are_pinned(n):
    rng = np.random.default_rng(n)
    images = datagen.render_digits(datagen.balanced_labels(n, rng), rng)
    assert images.shape == (n, datagen.IMAGE_SIZE, datagen.IMAGE_SIZE)
    assert images.dtype == np.uint8
    assert hashlib.sha256(images.tobytes()).hexdigest() == RENDER_DIGESTS[n]


# Strokes for the boxes' edge cases, one past or along each border of the
# canvas in the order left, right, top, bottom.
OFF_CANVAS_STROKES = [
    [[-0.40, 0.20], [-0.20, 0.80]],
    [[1.20, 0.20], [1.40, 0.80]],
    [[0.20, -0.40], [0.80, -0.20]],
    [[0.20, 1.20], [0.80, 1.40]],
]
BORDER_STROKES = [
    [[0.01, 0.30], [0.02, 0.70]],
    [[0.99, 0.30], [0.98, 0.70]],
    [[0.30, 0.01], [0.70, 0.02]],
    [[0.30, 0.99], [0.70, 0.98]],
]


STROKE_BATCHES = [1, datagen._GEOMETRY_BATCH - 1, datagen._GEOMETRY_BATCH,
                  datagen._GEOMETRY_BATCH + 1]
BOX_EDGES = ["off-canvas", "borders", "extreme-widths", "all-dead"]


@pytest.mark.parametrize("b, edge", [
    *(pytest.param(b, None, id=str(b)) for b in STROKE_BATCHES),
    *(pytest.param(b, edge, id=f"{b}-{edge}")
      for edge in BOX_EDGES for b in STROKE_BATCHES),
])
def test_stroke_ink_equals_the_broadcast_formulation(b, edge):
    # Nine strokes per image as the renderer draws them, with edge cases
    # mixed in: endpoints off the canvas, a zero-length stroke (the 1e-12
    # denominator floor), an axis-aligned stroke through pixel centres
    # (distances of exactly zero) and a zero-intensity stroke.  Each edge
    # then moves the boxes the strokes are drawn in: four strokes wholly off
    # the canvas (empty boxes) or along its four borders (clipped boxes),
    # the narrowest and widest strokes, or every other image, the first
    # one included, with no live stroke.
    rng = np.random.default_rng(b)
    segs = rng.uniform(-0.2, 1.2, size=(b, 9, 2, 2))
    segs[:, 3, 1] = segs[:, 3, 0]
    segs[:, 4] = [[CENTRES[3], CENTRES[5]], [CENTRES[20], CENTRES[5]]]
    width = rng.uniform(0.055, 0.085, size=b)
    intensity = rng.uniform(0.2, 1.0, size=(b, 9))
    intensity[:, 6] = 0.0
    if edge == "off-canvas":
        segs[:, 5:] = OFF_CANVAS_STROKES
    elif edge == "borders":
        segs[:, 5:] = BORDER_STROKES
    elif edge == "extreme-widths":
        width[0::2], width[1::2] = 0.055, 0.085
    elif edge == "all-dead":
        intensity[0::2] = 0.0
    ink = datagen._stroke_ink(CENTRES, segs, width, intensity)
    assert ink.shape == (b, datagen.IMAGE_SIZE * datagen.IMAGE_SIZE)
    assert ink.dtype == np.float64
    # Bytes, not ==, so that a -0.0 for +0.0 fails too.
    assert ink.tobytes() == oracle_stroke_ink(segs, width, intensity).tobytes()


def test_empty_labels_give_an_empty_image_stack():
    for labels in ([], np.zeros(0, dtype=np.uint8)):
        images = datagen.render_digits(labels, np.random.default_rng(0))
        assert images.shape == (0, datagen.IMAGE_SIZE, datagen.IMAGE_SIZE)
        assert images.dtype == np.uint8


@pytest.mark.parametrize("labels", [
    np.array([1.0, 2.0]),
    np.array([True, False]),
    np.array(["1", "2"]),
], ids=["float", "bool", "str"])
def test_non_integer_labels_are_rejected(labels):
    with pytest.raises(DomainError, match="at index 0 is not a class 0..9"):
        datagen.render_digits(labels, np.random.default_rng(0))


@pytest.mark.parametrize("labels", [np.zeros((2, 1), np.uint8), np.uint8(3)],
                         ids=["column", "scalar"])
def test_labels_of_other_ranks_are_rejected(labels):
    with pytest.raises(ShapeError, match="one-dimensional"):
        datagen.render_digits(labels, np.random.default_rng(0))


@pytest.mark.parametrize("labels", [[-1, 2], [3, 10]], ids=["negative", "ten"])
def test_labels_outside_the_digits_are_rejected(labels):
    with pytest.raises(DomainError, match="0..9"):
        datagen.render_digits(np.array(labels), np.random.default_rng(0))


def test_integer_labels_of_any_width_render_the_same_bytes():
    labels = np.arange(10)
    reference = datagen.render_digits(labels, np.random.default_rng(3))
    for dtype in (np.int8, np.uint8, np.int16, np.uint32, np.int64, np.uint64):
        images = datagen.render_digits(labels.astype(dtype),
                                       np.random.default_rng(3))
        assert np.array_equal(images, reference), dtype


@pytest.mark.parametrize("count", [1, 9, 10, 11, 1234])
def test_balanced_labels_class_counts_differ_by_at_most_one(count):
    labels = datagen.balanced_labels(count, np.random.default_rng(count))
    assert labels.shape == (count,)
    counts = np.bincount(labels, minlength=10)
    assert counts.sum() == count
    assert counts.max() - counts.min() <= 1


def test_cross_annotate_moves_labels_only_within_confusable_pairs():
    rng = np.random.default_rng(0)
    labels = datagen.balanced_labels(5000, rng)
    noisy = datagen.cross_annotate(labels, rng)
    moved = noisy != labels
    swaps = {(int(c), int(d)) for c, d in zip(labels[moved], noisy[moved])}
    assert swaps == set(datagen._CONFUSABLE_PARTNER.items())


def test_generate_dataset_keeps_test_labels_clean(tmp_path):
    paths = datagen.generate_dataset(str(tmp_path), 200, 100, seed=4)
    assert sorted(paths) == ["test_images", "test_labels",
                             "train_images", "train_labels"]
    (train_x, train_y), (test_x, test_y) = datagen.load_dataset(str(tmp_path))
    assert train_x.shape == (200, 28, 28) and test_x.shape == (100, 28, 28)
    # Replay the generator's draws: the train labels are cross-annotated,
    # the test labels are the balanced draw as it came.
    rng = np.random.default_rng(4)
    clean_train = datagen.balanced_labels(200, rng)
    datagen.render_digits(clean_train, rng)
    assert np.array_equal(train_y, datagen.cross_annotate(clean_train, rng))
    assert not np.array_equal(train_y, clean_train)
    assert np.array_equal(test_y, datagen.balanced_labels(100, rng))
    assert np.array_equal(test_x, datagen.render_digits(test_y, rng))


@pytest.mark.parametrize("split", ["train", "test"])
def test_load_dataset_rejects_a_label_past_nine(tmp_path, split):
    # Library callers of train_float and finetune used to reach the loss
    # with it and fail there with an IndexError.
    paths = datagen.generate_dataset(str(tmp_path), 20, 10, seed=1)
    # Patched in the file: save_idx_labels refuses to write it.
    with open(paths[f"{split}_labels"], "r+b") as fh:
        fh.seek(8 + 7)
        fh.write(bytes([200]))
    with pytest.raises(FormatError) as info:
        datagen.load_dataset(str(tmp_path))
    assert str(info.value) == (f"{paths[f'{split}_labels']}: label 200 at index 7 "
                               "is not a class 0..9")


@pytest.mark.parametrize("train_count, test_count", [(0, 10), (10, 0), (-1, 10)])
def test_generate_dataset_rejects_counts_below_one(tmp_path, train_count,
                                                   test_count):
    with pytest.raises(DomainError):
        datagen.generate_dataset(str(tmp_path), train_count, test_count)
    assert not any(tmp_path.iterdir())
