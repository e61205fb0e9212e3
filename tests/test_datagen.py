"""Tests for the synthetic digit renderer."""

import hashlib

import numpy as np
import pytest

from rescale_lab import datagen

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


@pytest.mark.parametrize("n", sorted(RENDER_DIGESTS))
def test_render_digits_bytes_are_pinned(n):
    rng = np.random.default_rng(n)
    images = datagen.render_digits(datagen.balanced_labels(n, rng), rng)
    assert images.shape == (n, datagen.IMAGE_SIZE, datagen.IMAGE_SIZE)
    assert images.dtype == np.uint8
    assert hashlib.sha256(images.tobytes()).hexdigest() == RENDER_DIGESTS[n]
