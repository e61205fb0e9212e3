r"""Anatomy of the rescaling error.

Replacing the real multiplier M with the dyadic M_q = m * 2**-s makes each
output wrong by

    eps_r = S_y * a_q * (M_q - M)  +  S_y * delta_r
            \__ scale mismatch __/    \_ rounding _/

where a_q is the int32 accumulator and delta_r in (-1/2, 1/2] is the
residual of the integer multiply-shift.  The rounding term is unavoidable
noise; the mismatch term grows linearly with the accumulator and is the
part that narrow widths inflate.  This walkthrough measures both, checks
the worst-case bound, and reads a per-layer safety report.

Run:  python3 demos/03_error_model.py
"""

import numpy as np

from rescale_lab import floatnet
from rescale_lab.errmodel import (
    min_safe_bitwidth,
    model_error_report,
    rescale_error_bound,
    rescale_error_decompose,
)
from rescale_lab.model_io import quantize_float_model
from rescale_lab.qcore import quantize_rescaler

# ---------------------------------------------------------------------------
# 1. Decomposing the error of single accumulators
# ---------------------------------------------------------------------------

M = 0.2969
S_Y = 0.05
r8 = quantize_rescaler(M, 8)
r2 = quantize_rescaler(M, 2)
print(f"M = {M}, output scale S_y = {S_Y}")
print(f"k=8: M_q = {r8.quantized_value:.6f}   k=2: M_q = {r2.quantized_value:.6f}")
print(f"{'a_q':>8} | {'mismatch@8':>11} {'rounding@8':>11} | "
      f"{'mismatch@2':>11} {'rounding@2':>11}")
for a_q in (10, 1_000, 100_000):
    d8 = rescale_error_decompose(a_q, r8, S_Y)
    d2 = rescale_error_decompose(a_q, r2, S_Y)
    print(f"{a_q:>8} | {d8.scale_mismatch:>11.5f} {d8.rounding:>11.5f} | "
          f"{d2.scale_mismatch:>11.5f} {d2.rounding:>11.5f}")
print()
print("rounding stays within half an output step no matter what; the")
print("mismatch term scales with a_q and explodes at k=2.\n")

# ---------------------------------------------------------------------------
# 2. The worst-case bound, checked empirically
# ---------------------------------------------------------------------------
# |eps_r| <= |M_q - M| * S_y * max|a_q| + S_y/2 must hold for every
# accumulator in range.

rng = np.random.default_rng(0)
max_abs = 1 << 20
for k in (2, 8, 16):
    r = quantize_rescaler(M, k)
    bound = rescale_error_bound(r, S_Y, max_abs)
    observed = max(
        abs(rescale_error_decompose(int(a), r, S_Y).eps_r)
        for a in rng.integers(-max_abs, max_abs + 1, size=4000)
    )
    print(f"k={k:<2}  bound {bound:.5f}   worst of 4000 random accumulators "
          f"{observed:.5f}")
print()

# ---------------------------------------------------------------------------
# 3. How wide is wide enough?
# ---------------------------------------------------------------------------
# min_safe_bitwidth finds the smallest k whose mismatch error cannot exceed
# half an output step for the given accumulator range - the point where
# narrowing starts to bite.

for max_acc in (100, 10_000, 1_000_000):
    print(f"max |a_q| = {max_acc:>9}: min safe width k = "
          f"{min_safe_bitwidth(M, max_acc)}")
print()

# ---------------------------------------------------------------------------
# 4. A per-layer report for a real model
# ---------------------------------------------------------------------------
# model_error_report runs calibration data through the integer engine and
# compares each layer's measured error against its analytic worst case.

rng = np.random.default_rng(3)
fmodel = floatnet.init_float_model(seed=3)
qmodel = quantize_float_model(fmodel, [rng.random((16, 28, 28, 1))])
probe = rng.integers(0, 256, size=(16, 28, 28, 1)).astype(np.uint8)

for k in (8, 2):
    print(f"--- width k={k} ---")
    for rep in model_error_report(qmodel, [probe], k):
        safe_channels = int(rep.safe.sum())
        print(f"layer {rep.layer_id} {rep.kind:<9} "
              f"peak |a_q| {int(rep.max_abs_acc.max()):>8}  "
              f"worst mismatch bound {rep.mismatch_bound.max():.6f}  "
              f"rounding floor {rep.rounding_floor:.6f}  "
              f"safe {safe_channels}/{rep.safe.size}")
    print()
print("a channel is safe while its mismatch bound stays at or below the")
print("half-step rounding floor; k=8 clears it, k=2 does not.")
