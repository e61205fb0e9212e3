"""Regenerate the benchmark's committed inputs.

    python3 perfbench/make_fixtures.py            # rewrite expected.json
    python3 perfbench/make_fixtures.py --model    # retrain the float model first

``desk_cnn_v1_float.npz`` is desk-cnn-v1 trained by ``train_float`` on
20,000 images of seed 0 for 2 epochs (learning rate 0.1, batch 32, training
seed 0).  It shows the rescale cliff the ``sweep`` and ``finetune``
workloads need; training it takes about a minute, which is why it is
committed rather than trained in every run.  ``expected.json`` holds the
values the output checks compare against, as the current code computes
them.  Regenerate it only for a change whose new output bits are explained.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import workloads
from rescale_lab import datagen, floatnet, trainer

MODEL_TRAIN, MODEL_TEST, MODEL_EPOCHS, MODEL_SEED = 20_000, 5_000, 2, 0


def train_model(workdir: str) -> None:
    datagen.generate_dataset(workdir, MODEL_TRAIN, MODEL_TEST, seed=MODEL_SEED)
    (train_x, train_y), (test_x, test_y) = datagen.load_dataset(workdir)
    cfg = trainer.TrainConfig(learning_rate=workloads.FLOAT_LR, epochs=MODEL_EPOCHS,
                              batch_size=workloads.TRAIN_BATCH, seed=MODEL_SEED)
    model, _ = trainer.train_float(train_x, train_y, cfg)
    print(f"float accuracy {trainer.float_accuracy(model, test_x, test_y):.2f}%")
    floatnet.save_float_model(model, workloads.FLOAT_MODEL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", action="store_true",
                        help="retrain and rewrite the float model first")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        if args.model:
            train_model(workdir)
        values = workloads.reference_values(workdir)
    with open(workloads.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
