"""Deterministic synthetic digit dataset.

Digits are rendered on a shared seven-segment layout.  Lit segments are
drawn at full intensity while unlit segments often appear as faint ghosts,
so the evidence separating confusable classes (8/9, 5/6, 8/0) is the
contrast of single strokes rather than gross shape.  Together with affine
jitter, stroke-width and brightness variation, clutter strokes, and pixel
noise, this produces a task a small CNN can learn to high accuracy while
keeping its decision margins riding on threshold-level features.

Everything is a pure function of the seed; the IDX files regenerate
bit-identically anywhere.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError
from .kernels import check_classes
from .model_io import load_idx_dataset, save_idx_images, save_idx_labels
from .qcore import round_half_up

IMAGE_SIZE = 28

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


def dataset_paths(data_dir: str) -> dict[str, str]:
    return {
        "train_images": os.path.join(data_dir, TRAIN_IMAGES),
        "train_labels": os.path.join(data_dir, TRAIN_LABELS),
        "test_images": os.path.join(data_dir, TEST_IMAGES),
        "test_labels": os.path.join(data_dir, TEST_LABELS),
    }


# The shared segment frame, endpoints in a unit box (x right, y down).
_SEGMENT_ENDPOINTS = np.array(
    [
        [[0.25, 0.12], [0.75, 0.12]],  # a: top
        [[0.75, 0.12], [0.75, 0.50]],  # b: upper right
        [[0.75, 0.50], [0.75, 0.88]],  # c: lower right
        [[0.25, 0.88], [0.75, 0.88]],  # d: bottom
        [[0.25, 0.50], [0.25, 0.88]],  # e: lower left
        [[0.25, 0.12], [0.25, 0.50]],  # f: upper left
        [[0.25, 0.50], [0.75, 0.50]],  # g: middle
    ]
)

_DIGIT_SEGMENTS = {
    0: "abcdef",
    1: "bc",
    2: "abged",
    3: "abgcd",
    4: "fgbc",
    5: "afgcd",
    6: "afgedc",
    7: "abc",
    8: "abcdefg",
    9: "abcdfg",
}

_SEGMENT_INDEX = {name: i for i, name in enumerate("abcdefg")}

LIT_MASK = np.zeros((10, 7), dtype=bool)
for _digit, _segments in _DIGIT_SEGMENTS.items():
    for _name in _segments:
        LIT_MASK[_digit, _SEGMENT_INDEX[_name]] = True

_N_SEGMENTS = 7
_CLUTTER_MAX = 2
_GHOST_PROBABILITY = 1.0

# Visually adjacent digit pairs (one segment apart on this layout) whose
# training labels are cross-annotated at this rate.  Test labels stay clean;
# the noise caps the confidence a trained model can justify for these
# classes, which keeps their decision margins small.
_CONFUSABLE_PARTNER = {8: 9, 9: 8, 5: 6, 6: 5, 1: 7, 7: 1}
_LABEL_NOISE_RATE = 0.30

# Images per draw of the random jitter.  The draws are made chunk by chunk,
# so the rendered pixels depend on this value: changing it changes the data.
_CHUNK = 512

# Images per pass of the stroke geometry.  A pass keeps a (28, 28, b)
# float64 ink plane, 0.4 MB at 64 images, and a few (box, b) planes per
# stroke.  On a two-CPU Xeon, rendering 2,560 labels took 0.153 s at 64
# images per pass, 2% longer at 128, 6% at 256, 15% at 32 and 25% at 512
# (medians of 11), and the traced peak of rendering 512 labels grows with
# the pass: 8.2 MB at 64, 9.4 at 128, 11.8 at 256.  So each 512-image
# chunk runs its geometry 64 images at a time.
_GEOMETRY_BATCH = 64


def _box_pixels(lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """Pixel indices (n, m) along one axis of m boxes ``[lo, hi)`` on a
    canvas of ``size`` pixels, all of the longest box's length n: each box
    is widened past ``hi``, or moved back from the far edge, to n pixels."""
    n = (hi - lo).max()
    return np.minimum(lo, size - n) + np.arange(n)[:, None]


def _stroke_ink(centres: np.ndarray, segs: np.ndarray, width: np.ndarray,
                intensity: np.ndarray) -> np.ndarray:
    """Ink of every pixel of a batch of images: the brightest stroke within
    reach, each stroke fading linearly over half its width.  ``centres``
    holds the pixel centres along one axis (x along a row, y down a
    column), ``segs`` (b, S, 2, 2) stroke endpoints, ``width`` (b,),
    ``intensity`` (b, S), all finite and the intensities >= 0; returns
    (b, pixels).

    The float64 operations per pixel are those of the (b, pixels, S, 2)
    broadcast in ``tests/oracles.oracle_stroke_ink``, with x and y written
    out (a two-element sum is exactly ``a + b``), so the ink is the same
    bit for bit.

    A stroke is drawn only where it can leave ink.  At a distance past its
    reach of 1.5 widths, ``(w - dist) / (w/2) + 1`` is below 0 and clips to
    +0.0; a stroke of intensity 0 gives +0.0 everywhere.  The running
    maximum starts at +0.0 and keeps its value against +0.0, so those
    pixels need no work.  Each live stroke of an image (intensity > 0) is
    drawn inside its box: the stroke's axis-aligned extent widened by the
    reach plus one pixel, clipped to the canvas.  The extra pixel covers
    the rounding of ``dist`` many times over, so every pixel left out gets
    +0.0 in float64 as well; a stroke whose box is empty is skipped.
    One stroke's boxes share one size, the batch's largest, and are
    gathered from and scattered back to (rows, cols, images) planes by one
    flat index, with no index repeated since each image's box is its own.
    The image axis is the inner one, so each pass over a box runs along
    the images rather than along a box row of 12 to 25 pixels.
    """
    size, b = centres.shape[0], segs.shape[0]
    ax, ay = segs[:, :, 0, 0], segs[:, :, 0, 1]
    abx = segs[:, :, 1, 0] - ax
    aby = segs[:, :, 1, 1] - ay
    denom = np.maximum(abx * abx + aby * aby, 1e-12)
    half_w = 0.5 * width
    # Box edges [lo, hi) in pixels, (b, S, 2) for x and y: the endpoints'
    # extent widened by the reach plus one pixel, clipped to the canvas.
    margin = (1.5 * width * size + 1.0)[:, None, None]
    lo = np.floor(segs.min(axis=2) * size - margin)
    hi = np.ceil(segs.max(axis=2) * size + margin)
    lo, hi = (np.clip(e, 0, size).astype(np.intp) for e in (lo, hi))
    live = (intensity > 0) & (hi > lo).all(axis=-1)
    ink = np.zeros((size, size, b))
    flat = ink.reshape(-1)
    for s in range(segs.shape[1]):
        img = np.flatnonzero(live[:, s])
        if img.size == 0:
            continue
        cols = _box_pixels(lo[img, s, 0], hi[img, s, 0], size)  # (W, m)
        rows = _box_pixels(lo[img, s, 1], hi[img, s, 1], size)  # (H, m)
        index = (rows * (size * b) + img)[:, None] + (cols * b)[None]
        gx = centres[cols][None]  # (1, W, m)
        gy = centres[rows][:, None]  # (H, 1, m)
        a_x, a_y = ax[img, s], ay[img, s]
        ab_x, ab_y = abx[img, s], aby[img, s]
        # t: projection onto the stroke, clamped to [0, 1]; ex: squared x
        # offset from the closest point; d: squared y offset, distance,
        # then the stroke's ink.
        t = (gx - a_x) * ab_x + (gy - a_y) * ab_y
        t /= denom[img, s]
        np.clip(t, 0.0, 1.0, out=t)
        ex = t * ab_x
        ex += a_x
        np.subtract(gx, ex, out=ex)
        ex *= ex
        d = np.multiply(t, ab_y, out=t)
        d += a_y
        np.subtract(gy, d, out=d)
        d *= d
        d += ex
        np.sqrt(d, out=d)
        np.subtract(width[img], d, out=d)
        d /= half_w[img]
        d += 1.0
        np.clip(d, 0.0, 1.0, out=d)
        d *= intensity[img, s]
        np.maximum(flat[index], d, out=d)
        flat[index] = d
    return ink.reshape(size * size, b).T


def render_digits(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Render one glyph image per label with random jitter; uint8 (n, 28, 28).
    ``labels`` must pass :func:`kernels.check_classes`."""
    labels = check_classes(labels)
    n = labels.shape[0]
    centres = (np.arange(IMAGE_SIZE) + 0.5) / IMAGE_SIZE
    out = np.empty((n, IMAGE_SIZE, IMAGE_SIZE), dtype=np.uint8)
    for start in range(0, n, _CHUNK):
        sel = labels[start : start + _CHUNK]
        b = sel.shape[0]
        lit = LIT_MASK[sel]  # (b, 7)

        theta = rng.uniform(-0.12, 0.12, size=b)
        scale_x = rng.uniform(0.85, 1.12, size=b)
        scale_y = rng.uniform(0.85, 1.12, size=b)
        shear = rng.uniform(-0.06, 0.06, size=b)
        shift = rng.uniform(-0.06, 0.06, size=(b, 2))
        # Global brightness spans a wide range while pixel noise scales with
        # it, so detection SNR is constant but no absolute intensity
        # threshold separates lit strokes from ghosts across images.
        width = rng.uniform(0.055, 0.085, size=b)
        brightness = rng.uniform(0.35, 1.00, size=b)
        sigma = 0.03 * brightness
        noise = rng.normal(0.0, 1.0, size=(b, IMAGE_SIZE * IMAGE_SIZE))
        noise *= sigma[:, None]

        # Per-segment intensities: lit segments strong, unlit ones a faint
        # ghost, so class evidence is within-image stroke contrast.
        lit_level = rng.uniform(0.72, 1.00, size=(b, _N_SEGMENTS))
        ghost_level = rng.uniform(0.20, 0.40, size=(b, _N_SEGMENTS))
        ghost_on = rng.random(size=(b, _N_SEGMENTS)) < _GHOST_PROBABILITY
        seg_intensity = np.where(lit, lit_level,
                                 np.where(ghost_on, ghost_level, 0.0))

        n_clutter = rng.integers(0, _CLUTTER_MAX + 1, size=b)
        clutter_a = rng.uniform(0.0, 1.0, size=(b, _CLUTTER_MAX, 2))
        clutter_len = rng.uniform(0.06, 0.18, size=(b, _CLUTTER_MAX, 1))
        clutter_dir = rng.uniform(-np.pi, np.pi, size=(b, _CLUTTER_MAX))
        clutter_level = rng.uniform(0.20, 0.55, size=(b, _CLUTTER_MAX))
        clutter_live = np.arange(_CLUTTER_MAX)[None, :] < n_clutter[:, None]

        cos, sin = np.cos(theta), np.sin(theta)
        # Rotation composed with anisotropic scale and shear, about (.5, .5).
        a00 = cos * scale_x - sin * scale_x * shear
        a01 = cos * shear * scale_y - sin * scale_y
        a10 = sin * scale_x + cos * scale_x * shear
        a11 = sin * shear * scale_y + cos * scale_y
        affine = np.stack(
            [np.stack([a00, a01], axis=-1), np.stack([a10, a11], axis=-1)],
            axis=-2,
        )  # (b, 2, 2)
        segs = np.broadcast_to(_SEGMENT_ENDPOINTS,
                               (b, _N_SEGMENTS, 2, 2)) - 0.5
        segs = np.einsum("bij,bskj->bski", affine, segs) + 0.5
        segs = segs + shift[:, None, None, :]

        heading = np.stack([np.cos(clutter_dir), np.sin(clutter_dir)], axis=-1)
        clutter_b = clutter_a + clutter_len * heading
        clutter = np.stack([clutter_a, clutter_b], axis=2)  # (b, C, 2, 2)
        segs = np.concatenate([segs, clutter], axis=1)
        intensity = np.concatenate(
            [seg_intensity, np.where(clutter_live, clutter_level, 0.0)], axis=1
        )  # (b, 7 + C)

        # The pixels are built in place in the ink buffer: the same float64
        # operations, in the same order, as
        # round_half_up(clip(ink * brightness + noise, 0, 1) * 255).
        ink = np.empty((b, IMAGE_SIZE * IMAGE_SIZE))
        for lo in range(0, b, _GEOMETRY_BATCH):
            sub = slice(lo, lo + _GEOMETRY_BATCH)
            ink[sub] = _stroke_ink(centres, segs[sub], width[sub],
                                   intensity[sub])
        ink *= brightness[:, None]
        ink += noise
        np.clip(ink, 0.0, 1.0, out=ink)
        ink *= 255.0
        round_half_up(ink, out=ink)
        out[start : start + _CHUNK] = ink.reshape(b, IMAGE_SIZE, IMAGE_SIZE)
    return out


def balanced_labels(count: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffled labels with class counts as even as possible."""
    reps = count // 10 + 1
    labels = np.tile(np.arange(10, dtype=np.uint8), reps)[:count]
    rng.shuffle(labels)
    return labels


def cross_annotate(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Swap a fraction of labels within each confusable digit pair.

    Models the annotation noise of such a corpus: digits one segment apart
    get mislabeled as each other at :data:`_LABEL_NOISE_RATE`.
    """
    labels = np.asarray(labels)
    noisy = labels.copy()
    flip = rng.random(size=labels.shape) < _LABEL_NOISE_RATE
    for digit, partner in _CONFUSABLE_PARTNER.items():
        noisy[(labels == digit) & flip] = partner
    return noisy


def generate_dataset(
    out_dir: str,
    train_count: int = 60000,
    test_count: int = 10000,
    seed: int = 0,
) -> dict[str, str]:
    """Render and save a complete train/test digit dataset.

    Returns the four file paths.  The output is a pure function of
    (train_count, test_count, seed).
    """
    if train_count < 1 or test_count < 1:
        raise DomainError("train and test counts must be positive")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    train_labels = balanced_labels(train_count, rng)
    train_images = render_digits(train_labels, rng)
    train_labels = cross_annotate(train_labels, rng)
    test_labels = balanced_labels(test_count, rng)
    test_images = render_digits(test_labels, rng)
    paths = dataset_paths(out_dir)
    save_idx_images(paths["train_images"], train_images)
    save_idx_labels(paths["train_labels"], train_labels)
    save_idx_images(paths["test_images"], test_images)
    save_idx_labels(paths["test_labels"], test_labels)
    return paths


def load_dataset(data_dir: str):
    """Load the four IDX files produced by :func:`generate_dataset`."""
    paths = dataset_paths(data_dir)
    train = load_idx_dataset(paths["train_images"], paths["train_labels"])
    test = load_idx_dataset(paths["test_images"], paths["test_labels"])
    return train, test
