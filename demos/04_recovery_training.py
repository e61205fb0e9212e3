"""Rescale-aware fine-tuning: recovering a damaged narrow-width model.

Narrow rescalers bend every channel by its own factor M_q/M.  At k=2 that
factor can be anywhere in (0.5, 1], which scrambles cross-channel
comparisons and costs real accuracy.  The fix is cheap: fine-tune the
integer weights *through* the damaged deployment, so SGD learns weights
that compensate for the exact rescalers the hardware will use.

This walkthrough runs the whole loop on a small synthetic dataset:
generate data, train a float baseline, quantize, sweep the width, then
repair the worst width.  Takes about a minute.

Run:  python3 demos/04_recovery_training.py
"""

import tempfile
import time

import numpy as np

from rescale_lab import datagen
from rescale_lab.kernels import evaluate_int
from rescale_lab.model_io import materialize_rescalers, quantize_float_model
from rescale_lab.trainer import TrainConfig, finetune, train_float

# ---------------------------------------------------------------------------
# 1. Data: seven-segment digits with ghost segments and brightness jitter
# ---------------------------------------------------------------------------
# The generator renders digits on a seven-segment layout where unlit
# segments still ghost faintly and global brightness varies, so the model
# must compare channel intensities *within* an image rather than threshold
# them absolutely - exactly the kind of computation per-channel rescaler
# distortion damages.  Training labels carry pairwise noise between
# single-segment-confusable digits, which keeps logit margins tight.

t0 = time.time()
data_dir = tempfile.mkdtemp(prefix="rescale-demo-")
datagen.generate_dataset(data_dir, train_count=12_000, test_count=2_000, seed=0)
(train_x, train_y), (test_x, test_y) = datagen.load_dataset(data_dir)
print(f"generated {train_x.shape[0]} train / {test_x.shape[0]} test images "
      f"in {time.time() - t0:.0f}s")

# ---------------------------------------------------------------------------
# 2. Float baseline
# ---------------------------------------------------------------------------

cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=32, seed=0)
t0 = time.time()
fmodel, history = train_float(train_x, train_y, cfg, test_x, test_y)
for rec in history:
    print(f"  epoch {rec.epoch}: loss {rec.loss:.4f}  "
          f"test accuracy {rec.accuracy:.2f}%")
print(f"float training took {time.time() - t0:.0f}s")

# ---------------------------------------------------------------------------
# 3. Quantize and sweep the rescaler width
# ---------------------------------------------------------------------------

calibration = [train_x[i * 32:(i + 1) * 32].astype(np.float64) / 255.0
               for i in range(8)]
qmodel = quantize_float_model(fmodel, calibration, name="demo-recovery")

accuracies = {}
for k in (32, 16, 8, 4, 3, 2):
    deployed = materialize_rescalers(qmodel, k)
    accuracies[k] = evaluate_int(deployed, test_x, test_y)
    print(f"  k={k:>2}: {accuracies[k]:6.2f}%  "
          f"({accuracies[k] - accuracies[32]:+.2f} vs k=32)")

# ---------------------------------------------------------------------------
# 4. Repair the damaged width in place
# ---------------------------------------------------------------------------
# Fine-tuning replays the *integer* deployment in float64 (bit-identical),
# so the loss sees exactly the damage the narrow rescalers cause, and the
# straight-through estimator lets SGD walk the integer weights to a point
# that compensates.  Rescalers, scales, and zero points never change.

k_damaged = 2
t0 = time.time()
result = finetune(qmodel, train_x, train_y,
                  TrainConfig(learning_rate=10.0, epochs=2, batch_size=32,
                              seed=0),
                  k=k_damaged, eval_images=test_x, eval_labels=test_y)
repaired = result.history[-1].accuracy
print(f"fine-tuned k={k_damaged} for 2 epochs in {time.time() - t0:.0f}s:")
print(f"  {accuracies[k_damaged]:.2f}%  ->  {repaired:.2f}%  "
      f"(k=32 reference {accuracies[32]:.2f}%)")
print(f"  integer weights changed: {100 * result.stats.changed_ratio:.2f}%  "
      f"mean |change|: {result.stats.mean_abs_diff:.3f} steps")
print()
print("almost all of the lost accuracy returns, and only a few percent of")
print("the integer weights had to move to get it back.")
