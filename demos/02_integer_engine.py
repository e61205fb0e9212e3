"""The integer inference engine, end to end.

A quantized model runs on int8 tensors and int32 accumulators only; every
real-valued scale has been folded into per-channel dyadic rescalers ahead
of time.  This walkthrough quantizes a randomly initialized float network
with a handful of calibration batches, runs the integer engine, and shows
that the float64 training-time emulation reproduces it bit for bit.

Run:  python3 demos/02_integer_engine.py
"""

import numpy as np

from rescale_lab import floatnet
from rescale_lab.kernels import run_model_int
from rescale_lab.model_io import materialize_rescalers, quantize_float_model
from rescale_lab.trainer import emulated_forward, init_shadow

# ---------------------------------------------------------------------------
# 1. Post-training quantization
# ---------------------------------------------------------------------------
# Weights get symmetric per-channel int8 scales; activations get affine
# scale/zero-point pairs measured on calibration data; each channel's
# accumulator-to-output ratio S_x * S_w / S_y becomes a real rescaler in
# (0, 1], stored exactly.

rng = np.random.default_rng(7)
fmodel = floatnet.init_float_model(seed=1)
calibration = [rng.random((16, 28, 28, 1)) for _ in range(4)]
qmodel = quantize_float_model(fmodel, calibration, name="demo-cnn")

print(f"model {qmodel.name!r}: {len(qmodel.layers)} layers, "
      f"rescaler width k={qmodel.k}")
for idx, layer in enumerate(qmodel.layers):
    n = len(layer.rescalers)
    if n:
        reals = [r.real_value for r in layer.rescalers]
        print(f"  layer {idx} {layer.kind:<9} {n:>3} rescalers, "
              f"M in [{min(reals):.3e}, {max(reals):.3e}]")
    else:
        print(f"  layer {idx} {layer.kind:<9}   no rescalers")
print()

# ---------------------------------------------------------------------------
# 2. Running the engine
# ---------------------------------------------------------------------------
# Inputs are int8 (uint8 pixels shifted by the input zero point); logits
# come back as int8.  Real logit values are scale * (q - zero_point).

x = rng.integers(-128, 128, size=(4, 28, 28, 1)).astype(np.int8)
logits_q = run_model_int(qmodel, x)
out = qmodel.layers[-1].output
print("int8 logits batch:")
print(logits_q)
print(f"real logits of sample 0: "
      f"{np.round(out.scale * (logits_q[0].astype(float) - out.zero_point), 4)}")
print(f"argmax per sample: {logits_q.argmax(axis=1)}\n")

# ---------------------------------------------------------------------------
# 3. Output parity with the float emulation
# ---------------------------------------------------------------------------
# The trainer runs the MAC in floats (float32 where a static bound proves
# every partial sum an exact integer, float64 elsewhere) so gradients can
# flow, then hands the accumulator to the engine's own envelope check and
# rescale.  The contract is bit-identical outputs, not approximately-equal
# outputs.

shadow = init_shadow(qmodel)
emulated, _ = emulated_forward(shadow, x)
assert np.array_equal(logits_q.astype(np.float64), emulated)
print("emulated_forward matches run_model_int exactly on this batch")

mismatches = 0
for trial in range(50):
    xb = rng.integers(-128, 128, size=(2, 28, 28, 1)).astype(np.int8)
    if not np.array_equal(run_model_int(qmodel, xb).astype(np.float64),
                          emulated_forward(shadow, xb)[0]):
        mismatches += 1
print(f"50 more random batches: {mismatches} mismatches\n")

# ---------------------------------------------------------------------------
# 4. Redeploying at a narrower rescaler width
# ---------------------------------------------------------------------------
# The stored model keeps exact real multipliers, so it can be materialized
# at any width after the fact.  Narrow widths perturb each channel by its
# own factor M_q/M in (1 - 2**-(k-1), 1] - watch the logits drift.

print(f"{'k':>3}  logits of sample 0")
for k in (32, 8, 4, 2):
    deployed = materialize_rescalers(qmodel, k)
    print(f"{k:>3}  {run_model_int(deployed, x)[0]}")
print()
print("k=32 and k=8 normally agree; k=2 visibly bends every channel.")
