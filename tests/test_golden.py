"""Golden digests of the integer engine's outputs.

The committed float model ``perfbench/desk_cnn_v1_float.npz``, quantized on
seed-0 data exactly as the ``quantize`` command does, gives fixed int8
logits and fixed error reports at every width.  The digests below pin
those bytes, so a speed change to the engine or the error model cannot move
a single bit unnoticed, and the RQM1 digests pin the container bytes of the
quantized model at three widths.  ``perfbench/expected.json`` pins only the
argmax.  The training digests pin one epoch of rescale-aware fine-tuning at
three widths and one epoch of float training on the same train images, so
the rounding and the loss gradient that feed training cannot move a bit
unnoticed either.
"""

import hashlib
import os
from dataclasses import fields

import numpy as np
import pytest

from rescale_lab import cli, datagen, floatnet
from rescale_lab.errmodel import model_error_report
from rescale_lab.kernels import quantize_real, run_model_int, unit_images
from rescale_lab.model_io import (
    materialize_rescalers,
    model_from_bytes,
    model_to_bytes,
    quantize_float_model,
)
from rescale_lab.trainer import TrainConfig, finetune, train_float

FLOAT_MODEL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "desk_cnn_v1_float.npz")
TRAIN, TEST = 256, 256

# sha256 of the int8 logits of run_model_int on the TEST images.
LOGITS = {
    32: "92237f595e7892b486a0cd36e211e9a4fc41c25c00088d19fa663b1b7e355e6b",
    8: "37e77ca1567051b408408d4a0857b3c63e1d4e286ac1b227c7a075dae9990e03",
    4: "f0cf42e747f4983e266c8175a68245077c1043447c7148e5fb03d73bfb7abfda",
    2: "922c078ff4ed4a6bdc095aee976d968793ba705def347b0b363278fd965ca4d4",
}
# sha256 of model_error_report's per-layer max_abs_acc (int64) and safe
# (one byte per channel) on the TEST images as probes.
REPORTS = {
    32: "ca86e6aaa39faa93e9360219a506943227f09dc5dc2240a2509754f1fd3a6e13",
    8: "5e4768763db4142f05608983adc7ff3fc675d03c331ce36327c7cf3b5c904bd7",
    4: "1237cc76684d5a0089bdbde5003585b507febbf39675b3291bf5b8db84d81a10",
    2: "458d78d21bd3253e0297d8febd91196a1d24d31e08788094cf745b990444bcc7",
}
# sha256 of every field of every report of model_error_report, in
# LayerErrorReport field order, on the TEST images as probes.
REPORT_FIELDS = {
    32: "515b2178a5158af00ddceac194c091b18a24df973186b2cf8ad91500d41b023d",
    8: "54e5e91a734bc9f901bb78ac50eb217d4de499334717940fe09929bec5bd0309",
    4: "680117d42985847119dc8a9d434474986d01ec1fe005fd89edae8a8bfa009766",
    2: "0e6e71690ca1482aec4cdece3f8e9dd9059331a71fa8b2b4867488ed860802df",
}

# sha256 of model_to_bytes of the quantized model materialized at width k.
RQM1 = {
    32: "cdb048218a22ab6f434b58a6cae34ca17d22c5b9549a160b2a8fb2f6f5586ab1",
    8: "c4f948961162cfe14aef6d776ecced2ea4c513c4edb89a23a8996821d8f72221",
    2: "91ce6a363de9e60bff16c4b517132c94c853e306e0edd87e542451fd82d3a45f",
}

# sha256 of model_to_bytes of the k=2 fine-tune (lr 500, 1 epoch, batch 32,
# seed 3) of the quantized model, and its epoch loss.
FINETUNE_RQM1 = "c1bd2d4c1736a2d2d59753fb48e54eeb1ff5350c3fdfc9d0e6e7494bb4843422"
FINETUNE_LOSS = "0x1.204897380f3d3p-1"
# The same for the fine-tunes at k=8 and k=4, where some rescales of the
# emulation leave float32 for float64.
FINETUNE_AT = {
    8: ("11d07e80915d46619f37fec9f98822026df368413b72f849d8b8384534ca5ed1",
        "0x1.ddeb95a0c60a5p-2"),
    4: ("9a1dd46439fe08c97125306a17f0b7ee5b4d05aed74fe54173e6b90fc1ab75bf",
        "0x1.f3918d7ae423fp-2"),
}
# sha256 of the eight arrays of train_float (lr 0.1, 1 epoch, seed 0), in
# FloatModel field order, and its epoch loss.
FLOAT_WEIGHTS = "c600584346dd5363cfa4ad8de0d9db695c1b2b4a0c2b6bc44782af5b9c009c82"
FLOAT_LOSS = "0x1.2b85910c66771p+1"


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("golden"))
    datagen.generate_dataset(path, TRAIN, TEST, seed=0)
    return datagen.load_dataset(path)


@pytest.fixture(scope="module")
def deployment(dataset):
    (train_x, _), (test_x, _) = dataset
    model = quantize_float_model(floatnet.load_float_model(FLOAT_MODEL),
                                 train_x[:cli._CALIB_IMAGES])
    return model, test_x


@pytest.mark.parametrize("k", sorted(LOGITS, reverse=True))
def test_engine_logits_are_pinned(deployment, k):
    model, images = deployment
    mk = materialize_rescalers(model, k)
    logits = run_model_int(mk, quantize_real(unit_images(images), mk.input_params))
    assert logits.dtype == np.int8 and logits.shape == (TEST, 10)
    assert sha256(logits) == LOGITS[k]


@pytest.mark.parametrize("k", sorted(REPORTS, reverse=True))
def test_error_report_peaks_are_pinned(deployment, k):
    model, images = deployment
    reports = model_error_report(model, images, k)
    assert len(reports) == 6
    parts = [a for r in reports
             for a in (r.max_abs_acc.astype(np.int64), r.safe.astype(np.uint8))]
    assert sha256(*parts) == REPORTS[k]


@pytest.mark.parametrize("k", sorted(REPORT_FIELDS, reverse=True))
def test_error_report_fields_are_pinned(deployment, k):
    model, images = deployment
    reports = model_error_report(model, images, k)
    assert sha256(*(np.asarray(getattr(r, f.name)) for r in reports
                    for f in fields(r))) == REPORT_FIELDS[k]


@pytest.mark.parametrize("k", sorted(RQM1, reverse=True))
def test_container_bytes_are_pinned(deployment, k):
    model, _ = deployment
    data = model_to_bytes(materialize_rescalers(model, k))
    assert hashlib.sha256(data).hexdigest() == RQM1[k]
    assert model_to_bytes(model_from_bytes(data)) == data


def finetuned(deployment, dataset, k):
    """sha256 of the RQM1 bytes and the hex epoch loss of the pinned
    fine-tune at width k."""
    model, _ = deployment
    (train_x, train_y), _ = dataset
    cfg = TrainConfig(learning_rate=500.0, epochs=1, batch_size=32, seed=3)
    result = finetune(model, train_x, train_y, cfg, k=k)
    return (hashlib.sha256(model_to_bytes(result.model)).hexdigest(),
            result.history[0].loss.hex())


def test_finetuned_weights_are_pinned(deployment, dataset):
    # lr 500 moves about 2% of the integer weights in one epoch; at small
    # rates the result would equal RQM1[2] and pin nothing.
    assert finetuned(deployment, dataset, 2) == (FINETUNE_RQM1, FINETUNE_LOSS)


@pytest.mark.parametrize("k", sorted(FINETUNE_AT, reverse=True))
def test_finetuned_weights_are_pinned_at_wider_widths(deployment, dataset, k):
    assert finetuned(deployment, dataset, k) == FINETUNE_AT[k]


def test_float_trained_weights_are_pinned(dataset):
    (train_x, train_y), _ = dataset
    cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=32, seed=0)
    model, history = train_float(train_x, train_y, cfg)
    assert sha256(*(getattr(model, f.name) for f in fields(model))) == FLOAT_WEIGHTS
    assert history[0].loss.hex() == FLOAT_LOSS
