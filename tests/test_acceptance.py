"""Release-gate acceptance suite.

Eight end-to-end checks, one test per criterion, each printing a single
``[criterion N] PASS/FAIL`` line (echoed in the terminal summary by
``conftest.py``):

1. The integer rescale kernel matches an arbitrary-precision round-half-up
   oracle on >= 10^5 fuzzed (x, M, k) triples, in under 10 seconds.
2. Rescaler quantization honors its bounds (M_q <= M, relative error below
   2^-(k-1)) for 10^4 random multipliers across every width k in [2, 32].
3. The float64 training emulation and the integer engine produce
   bit-identical int8 outputs for 100 random desk-cnn-v1 variants
   x 10 batches x k in {2, 4, 8, 16, 32}.
4. The rescale error model is sound on 10^5 fuzzed no-saturation cases:
   measured |eps_r| never exceeds rescale_error_bound and the decomposition
   eps_r = S_y*a_q*(M_q - M) + S_y*delta_r holds exactly in rationals.
5. Full pipeline: the float baseline reaches >= 97% test accuracy within
   10 minutes; after post-training quantization, a width sweep keeps k=8
   within 0.5 points of k=32, degrades monotonically (1-point noise
   tolerance) below the degradation point, and loses >= 5 points at k=2.
6. At the smallest width showing > 2 points of degradation, 2 epochs of
   rescale-aware fine-tuning recover to within 0.5 points of the k=32
   baseline inside 15 minutes (weight-change stats reported, not asserted).
7. Analytic gradients of the smooth surrogate (rounding disabled) match
   central finite differences to relative error < 1e-6 on 10 random small
   layers.
8. 100 random models survive save/load/save byte-identically, and every
   fuzzed corrupt container is rejected with FormatError - never a crash.

The pipeline behind criteria 5 and 6 (dataset generation, float training,
quantization, sweep) runs once as a session fixture; everything is seeded,
so its numbers are reproducible run to run.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import oracle_rescale

from rescale_lab import datagen, floatnet
from rescale_lab.cli import degradation_point
from rescale_lab.errmodel import rescale_error_bound, rescale_error_decompose
from rescale_lab.errors import FormatError
from rescale_lab.kernels import QTensor, evaluate_int, run_model_int
from rescale_lab.model_io import (
    LayerSpec,
    ModelGraph,
    load_model,
    materialize_rescalers,
    model_from_bytes,
    model_to_bytes,
    models_equal,
    quantize_float_model,
    save_model,
    validate_model,
)
from rescale_lab.qcore import (
    INT32_MAX,
    INT32_MIN,
    QuantParams,
    multiply_by_quantized_multiplier,
    quantize_rescaler,
)
from rescale_lab.trainer import (
    TrainConfig,
    emulated_forward,
    finetune,
    init_shadow,
    softmax_cross_entropy,
    ste_backward,
    train_float,
)

RESULTS: list[str] = []


def _record(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}"
    RESULTS.append(line)
    print(line)


# ---------------------------------------------------------------------------
# Criterion 1: rescale kernel vs arbitrary-precision oracle
# ---------------------------------------------------------------------------


def test_criterion_1_rescale_kernel_matches_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    mismatches = 0
    checked = 0

    # 2500 random rescalers x 40 accumulators each = 100k fuzzed triples.
    ks = rng.integers(2, 33, size=2500)
    m_reals = np.exp(rng.uniform(np.log(2.0**-20), 0.0, size=2500))
    for m_real, k in zip(m_reals.tolist(), ks.tolist()):
        r = quantize_rescaler(min(m_real, 1.0), int(k))
        xs_small = rng.integers(-4096, 4097, size=20)
        xs_wide = rng.integers(INT32_MIN, INT32_MAX + 1, size=20)
        for x in np.concatenate([xs_small, xs_wide]).tolist():
            if multiply_by_quantized_multiplier(int(x), r) != oracle_rescale(
                int(x), r.m, r.s
            ):
                mismatches += 1
            checked += 1

    # Directed edges: extreme multipliers, extreme accumulators, and inputs
    # engineered to land exactly on the round-half-up tie (x*m = odd*2^(s-1)).
    for k in (2, 3, 8, 31, 32):
        for m_real in (1.0, 0.5, 2.0**-20, 1.0 - 2.0**-52, 0.75, 1.0 / 3.0):
            r = quantize_rescaler(m_real, k)
            ties = [x for x in range(-600, 601)
                    if (x * r.m) % (1 << r.s) == 1 << (r.s - 1)]
            for x in [0, 1, -1, INT32_MAX, INT32_MIN, INT32_MIN + 1] + ties:
                if multiply_by_quantized_multiplier(x, r) != oracle_rescale(
                    x, r.m, r.s
                ):
                    mismatches += 1
                checked += 1

    elapsed = time.perf_counter() - start
    ok = checked >= 100_000 and mismatches == 0 and elapsed < 10.0
    _record(1, ok, f"{checked} fuzzed triples, {mismatches} mismatches, "
                   f"{elapsed:.2f}s (limit 10s)")
    assert checked >= 100_000
    assert mismatches == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: rescaler quantization bounds at every width
# ---------------------------------------------------------------------------


def test_criterion_2_rescaler_quantization_bounds():
    rng = np.random.default_rng(202)
    n = 10_000
    uniform = rng.random(n // 2)
    uniform = np.where(uniform == 0.0, 1.0, uniform)  # (0, 1]
    log_uniform = np.exp(rng.uniform(np.log(2.0**-24), 0.0, size=n - n // 2))
    multipliers = np.concatenate(
        [uniform, log_uniform,
         np.array([1.0, 0.5, 0.25, 2.0**-24, np.nextafter(1.0, 0.0),
                   1.0 / 3.0, 0.1, 1.0 - 2.0**-24])]
    )

    violations = 0
    checked = 0
    for m_real in multipliers.tolist():
        m_exact = Fraction(m_real)
        for k in range(2, 33):
            r = quantize_rescaler(m_real, k)
            m_q = Fraction(r.m, 1 << r.s)
            if m_q > m_exact:
                violations += 1
            if (m_exact - m_q) / m_exact >= Fraction(1, 1 << (k - 1)):
                violations += 1
            checked += 1

    ok = violations == 0 and checked >= 10_000 * 31
    _record(2, ok, f"{len(multipliers)} multipliers x 31 widths "
                   f"({checked} rescalers), {violations} bound violations")
    assert checked >= 10_000 * 31
    assert violations == 0


# ---------------------------------------------------------------------------
# Criterion 3: emulation/engine output parity on random model variants
# ---------------------------------------------------------------------------


def test_criterion_3_output_parity_random_variants():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    mismatches = 0
    compared = 0
    for variant in range(100):
        fmodel = floatnet.init_float_model(seed=1000 + variant)
        calib = [rng.random((4, 28, 28, 1)) for _ in range(2)]
        qmodel = quantize_float_model(fmodel, calib)
        batches = [
            rng.integers(-128, 128, size=(4, 28, 28, 1)).astype(np.int8)
            for _ in range(10)
        ]
        for k in (2, 4, 8, 16, 32):
            deployed = materialize_rescalers(qmodel, k)
            shadow = init_shadow(deployed)
            for x in batches:
                ref = run_model_int(deployed, x)
                assert ref.dtype == np.int8
                emulated, _ = emulated_forward(shadow, x)
                if not np.array_equal(ref.astype(np.float64), emulated):
                    mismatches += 1
                compared += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and compared == 100 * 5 * 10
    _record(3, ok, f"100 variants x 10 batches x 5 widths "
                   f"({compared} comparisons), {mismatches} mismatches, "
                   f"{elapsed:.0f}s")
    assert compared == 100 * 5 * 10
    assert mismatches == 0


# ---------------------------------------------------------------------------
# Criterion 4: error-bound soundness and exact decomposition identity
# ---------------------------------------------------------------------------


def test_criterion_4_error_bound_and_decomposition():
    rng = np.random.default_rng(404)
    max_abs_acc = 1 << 23  # |a_q*M_q| stays far from int32 saturation
    violations = 0
    checked = 0

    ks = rng.integers(2, 33, size=2000)
    m_reals = np.exp(rng.uniform(np.log(2.0**-20), 0.0, size=2000))
    s_ys = np.exp(rng.uniform(np.log(1e-5), np.log(10.0), size=2000))
    for m_real, k, s_y in zip(m_reals.tolist(), ks.tolist(), s_ys.tolist()):
        r = quantize_rescaler(min(m_real, 1.0), int(k))
        m_q = Fraction(r.m, 1 << r.s)
        m_exact = Fraction(float(r.real_value))
        s_y_exact = Fraction(s_y)
        bound_exact = abs(m_q - m_exact) * s_y_exact * max_abs_acc + s_y_exact / 2
        bound_float = rescale_error_bound(r, s_y, max_abs_acc)
        for a_q in rng.integers(-max_abs_acc, max_abs_acc + 1, size=50).tolist():
            y_int = multiply_by_quantized_multiplier(int(a_q), r)
            delta = y_int - a_q * m_q
            eps = s_y_exact * (y_int - a_q * m_exact)
            # Decomposition identity, exactly in rationals.
            if eps != s_y_exact * a_q * (m_q - m_exact) + s_y_exact * delta:
                violations += 1
            # Rounding residual and total error bounds.
            if abs(delta) > Fraction(1, 2):
                violations += 1
            if abs(eps) > bound_exact:
                violations += 1
            # The float API reports the correctly rounded values of the same
            # rationals, and its bound still dominates its measured error.
            decomposed = rescale_error_decompose(int(a_q), r, s_y)
            if decomposed.eps_r != float(eps):
                violations += 1
            if decomposed.delta_r != float(delta):
                violations += 1
            if abs(decomposed.eps_r) > bound_float:
                violations += 1
            checked += 1

    ok = violations == 0 and checked >= 100_000
    _record(4, ok, f"{checked} no-saturation cases, "
                   f"{violations} bound/identity violations")
    assert checked >= 100_000
    assert violations == 0


# ---------------------------------------------------------------------------
# Criteria 5 & 6: the full train -> quantize -> sweep -> recover pipeline
# ---------------------------------------------------------------------------

SWEEP_WIDTHS = (32, 16, 12, 8, 6, 5, 4, 3, 2)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("acceptance-data")
    datagen.generate_dataset(str(data_dir), 60_000, 10_000, seed=0)
    (train_images, train_labels), (test_images, test_labels) = datagen.load_dataset(
        str(data_dir)
    )

    cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=32, seed=0)
    start = time.perf_counter()
    fmodel, history = train_float(train_images, train_labels, cfg,
                                  test_images, test_labels)
    train_seconds = time.perf_counter() - start

    calib = [train_images[i * 32:(i + 1) * 32].astype(np.float64) / 255.0
             for i in range(8)]
    qmodel = quantize_float_model(fmodel, calib, name="desk-cnn-acceptance")

    sweep = {}
    for k in SWEEP_WIDTHS:
        deployed = materialize_rescalers(qmodel, k)
        sweep[k] = evaluate_int(deployed, test_images, test_labels)

    return {
        "train_images": train_images,
        "train_labels": train_labels,
        "test_images": test_images,
        "test_labels": test_labels,
        "float_accuracy": history[-1].accuracy,
        "train_seconds": train_seconds,
        "qmodel": qmodel,
        "sweep": sweep,
    }


def test_criterion_5_accuracy_sweep(pipeline):
    float_acc = pipeline["float_accuracy"]
    train_seconds = pipeline["train_seconds"]
    sweep = pipeline["sweep"]
    base = sweep[32]

    float_ok = float_acc >= 97.0
    time_ok = train_seconds <= 600.0
    k8_ok = sweep[8] >= base - 0.5
    k2_ok = sweep[2] <= base - 5.0

    dp = degradation_point(base, {k: a for k, a in sweep.items() if k != 32})
    widths_below = [k for k in SWEEP_WIDTHS if dp is not None and k <= dp]
    monotone_ok = all(
        sweep[lo] <= sweep[hi] + 1.0
        for hi, lo in zip(widths_below, widths_below[1:])
    )

    table = " ".join(f"k={k}:{sweep[k]:.2f}" for k in SWEEP_WIDTHS)
    ok = float_ok and time_ok and k8_ok and k2_ok and dp is not None and monotone_ok
    _record(5, ok,
            f"float {float_acc:.2f}% in {train_seconds:.0f}s (limits 97%/600s); "
            f"{table}; k8 delta {sweep[8] - base:+.2f} (>= -0.5), "
            f"k2 delta {sweep[2] - base:+.2f} (<= -5), "
            f"degradation point {dp}, monotone below it: {monotone_ok}")
    assert float_ok, f"float accuracy {float_acc:.2f}% < 97%"
    assert time_ok, f"float training took {train_seconds:.0f}s > 600s"
    assert k8_ok, f"k=8 accuracy {sweep[8]:.2f}% < base {base:.2f}% - 0.5"
    assert dp is not None, "no degradation point found in the sweep"
    assert monotone_ok, f"non-monotone sweep below k={dp}: {sweep}"
    assert k2_ok, f"k=2 accuracy {sweep[2]:.2f}% not 5 points below {base:.2f}%"


def test_criterion_6_finetune_recovery(pipeline):
    sweep = pipeline["sweep"]
    base = sweep[32]
    degraded = [k for k, acc in sweep.items() if k != 32 and base - acc > 2.0]
    assert degraded, "sweep shows no width with > 2 points of degradation"
    k_star = min(degraded)

    cfg = TrainConfig(learning_rate=10.0, epochs=2, batch_size=32, seed=0)
    start = time.perf_counter()
    result = finetune(pipeline["qmodel"], pipeline["train_images"],
                      pipeline["train_labels"], cfg, k=k_star)
    finetune_seconds = time.perf_counter() - start
    recovered = evaluate_int(result.model, pipeline["test_images"],
                             pipeline["test_labels"])

    acc_ok = recovered >= base - 0.5
    time_ok = finetune_seconds <= 900.0
    ok = acc_ok and time_ok
    _record(6, ok,
            f"k={k_star} recovered {sweep[k_star]:.2f}% -> {recovered:.2f}% "
            f"(target >= {base - 0.5:.2f}%) in {finetune_seconds:.0f}s "
            f"(limit 900s); changed_ratio={result.stats.changed_ratio:.4f}, "
            f"mean_abs_diff={result.stats.mean_abs_diff:.3f}")
    assert acc_ok, (f"fine-tuned k={k_star} accuracy {recovered:.2f}% "
                    f"below {base - 0.5:.2f}%")
    assert time_ok, f"fine-tuning took {finetune_seconds:.0f}s > 900s"


# ---------------------------------------------------------------------------
# Criterion 7: surrogate gradients vs central finite differences
# ---------------------------------------------------------------------------


def _fd_relative_error(model, x, labels, layer_idx, h=1e-3):
    shadow = init_shadow(model)
    out_params = model.layers[-1].output

    def loss_at():
        logits, _ = emulated_forward(shadow, x, rounding=False)
        return softmax_cross_entropy(logits, labels, out_params)[0]

    logits, cache = emulated_forward(shadow, x, rounding=False)
    _, grad = softmax_cross_entropy(logits, labels, out_params)
    analytic = ste_backward(cache, grad).weights[layer_idx]
    w = shadow.weights[layer_idx]
    fd = np.zeros_like(analytic)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        w[ix] += h
        up = loss_at()
        w[ix] -= 2 * h
        down = loss_at()
        w[ix] += h
        fd[ix] = (up - down) / (2 * h)
    denom = np.linalg.norm(fd)
    assert denom > 0
    return np.linalg.norm(fd - analytic) / denom


def _random_fd_case(case: int, boost: float):
    """A random small weighted layer under test, plus a dense head when the
    layer's output is spatial.  Rescalers always derive from the actual
    scale ratios so the model validates.  ``boost`` widens every output
    scale; the caller grows it until the logits sit inside the int8 rails
    and the surrogate gradient actually flows."""
    rng = np.random.default_rng(7000 + case)
    kind = ("dense", "conv2d", "depthwise")[case % 3]
    in_scale = float(rng.uniform(0.01, 0.05))
    in_params = QuantParams(scale=in_scale, zero_point=int(rng.integers(-3, 4)))

    def dense_layer(n_in, n_out, in_qp, final):
        w = rng.integers(-30, 31, size=(n_out, n_in)).astype(np.int8)
        w_scales = rng.uniform(0.005, 0.02, size=n_out)
        out_scale = (in_qp.scale * float(w_scales.max())
                     * float(rng.uniform(1.1, 3.0)) * boost)
        out_qp = QuantParams(scale=out_scale,
                             zero_point=0 if final else int(rng.integers(-2, 3)))
        return LayerSpec(
            kind="dense", activation="none",
            weights=QTensor(w, w_scales),
            bias=rng.integers(-40, 41, size=n_out).astype(np.int32),
            output=out_qp,
            rescalers=[quantize_rescaler(in_qp.scale * float(s) / out_scale, 32)
                       for s in w_scales],
        )

    if kind == "dense":
        n_in = int(rng.integers(3, 7))
        n_out = int(rng.integers(2, 5))
        layer = dense_layer(n_in, n_out, in_params, final=True)
        model = ModelGraph(name=f"fd-{case}", input_params=in_params,
                           layers=[layer])
        x = rng.integers(-60, 61, size=(3, n_in)).astype(np.int8)
        labels = rng.integers(0, n_out, size=3)
    else:
        side = int(rng.integers(4, 6))
        channels_in = int(rng.integers(1, 3))
        if kind == "conv2d":
            channels_out = int(rng.integers(2, 4))
            w = rng.integers(-20, 21,
                             size=(channels_out, 3, 3, channels_in)).astype(np.int8)
        else:
            channels_out = channels_in
            w = rng.integers(-15, 16, size=(3, 3, channels_in)).astype(np.int8)
        w_scales = rng.uniform(0.006, 0.015, size=channels_out)
        mid_scale = (in_scale * float(w_scales.max())
                     * float(rng.uniform(1.1, 2.5)) * boost)
        mid_params = QuantParams(scale=mid_scale, zero_point=int(rng.integers(-2, 3)))
        layer = LayerSpec(
            kind=kind, activation="none",
            weights=QTensor(w, w_scales),
            bias=rng.integers(-30, 31, size=channels_out).astype(np.int32),
            padding="SAME",
            output=mid_params,
            rescalers=[quantize_rescaler(in_scale * float(s) / mid_scale, 32)
                       for s in w_scales],
        )
        flat = LayerSpec(kind="flatten", output=mid_params)
        head = dense_layer(side * side * channels_out, 3, mid_params, final=True)
        model = ModelGraph(name=f"fd-{case}", input_params=in_params,
                           layers=[layer, flat, head])
        x = rng.integers(-60, 61,
                         size=(2, side, side, channels_in)).astype(np.int8)
        labels = rng.integers(0, 3, size=2)
    validate_model(model)
    return model, x, labels


def _healthy_fd_case(case: int):
    """Grow the output scales until no logit saturates and the layer under
    test receives a usable gradient."""
    for boost in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0):
        model, x, labels = _random_fd_case(case, boost)
        shadow = init_shadow(model)
        logits, cache = emulated_forward(shadow, x, rounding=False)
        _, grad = softmax_cross_entropy(logits, labels, model.layers[-1].output)
        g0 = ste_backward(cache, grad).weights[0]
        if np.max(np.abs(logits)) < 120.0 and np.linalg.norm(g0) > 1e-6:
            return model, x, labels
    pytest.fail(f"case {case}: could not scale the logits into range")


def test_criterion_7_surrogate_gradient_check():
    worst = 0.0
    failures = []
    for case in range(10):
        model, x, labels = _healthy_fd_case(case)
        rel = _fd_relative_error(model, x, labels, 0)
        worst = max(worst, rel)
        if not rel < 1e-6:
            failures.append((case, rel))
    ok = not failures
    _record(7, ok, f"10 random layers (dense/conv2d/depthwise), worst "
                   f"relative error {worst:.2e} (limit 1e-6)")
    assert not failures, f"finite-difference mismatches: {failures}"


# ---------------------------------------------------------------------------
# Criterion 8: container round-trip and corrupt-file rejection
# ---------------------------------------------------------------------------


def _random_container_model(seed: int) -> ModelGraph:
    """A random valid model: dense stacks or a small cnn, random widths,
    scales, zero points, and activations."""
    rng = np.random.default_rng(9000 + seed)
    k = int(rng.integers(2, 33))
    in_params = QuantParams(scale=float(rng.uniform(0.002, 0.3)),
                            zero_point=int(rng.integers(-128, 128)))
    activation = ("none", "relu", "relu6")[int(rng.integers(0, 3))]

    def weighted(kind, w_shape, n_ch, in_qp, spatial):
        w = rng.integers(-127, 128, size=w_shape).astype(np.int8)
        w_scales = rng.uniform(0.004, 0.02, size=n_ch)
        out_scale = in_qp.scale * float(w_scales.max()) * float(rng.uniform(1.05, 4.0))
        out_qp = QuantParams(scale=out_scale, zero_point=int(rng.integers(-30, 31)))
        return LayerSpec(
            kind=kind, activation=activation,
            weights=QTensor(w, w_scales),
            bias=rng.integers(-5000, 5001, size=n_ch).astype(np.int32),
            padding="SAME" if spatial else "VALID",
            output=out_qp,
            rescalers=[quantize_rescaler(in_qp.scale * float(s) / out_scale, k)
                       for s in w_scales],
        ), out_qp

    layers = []
    if rng.random() < 0.5:  # dense stack on vector input
        n_in = int(rng.integers(2, 9))
        qp = in_params
        for _ in range(int(rng.integers(1, 4))):
            n_out = int(rng.integers(2, 7))
            layer, qp = weighted("dense", (n_out, n_in), n_out, qp, spatial=False)
            layers.append(layer)
            n_in = n_out
    else:  # conv / depthwise / avgpool / flatten / dense
        channels = int(rng.integers(1, 4))
        conv, qp = weighted("conv2d", (channels, 3, 3, 1), channels,
                            in_params, spatial=True)
        layers.append(conv)
        if rng.random() < 0.5:
            dw, qp = weighted("depthwise", (3, 3, channels), channels,
                              qp, spatial=True)
            layers.append(dw)
        if rng.random() < 0.5:
            layers.append(LayerSpec(kind="avgpool", window=(2, 2), output=qp,
                                    rescalers=[quantize_rescaler(0.25, k)]))
            side = 4
        else:
            side = 8
        layers.append(LayerSpec(kind="flatten", output=qp))
        n_out = int(rng.integers(2, 6))
        head, qp = weighted("dense", (n_out, side * side * channels), n_out,
                            qp, spatial=False)
        layers.append(head)
    model = ModelGraph(name=f"fuzz-{seed}", input_params=in_params,
                       layers=layers)
    validate_model(model)
    return model


def test_criterion_8_format_roundtrip_and_corruption(tmp_path):
    roundtrip_failures = []
    for seed in range(100):
        model = _random_container_model(seed)
        blob = model_to_bytes(model)
        reloaded = model_from_bytes(blob)
        if model_to_bytes(reloaded) != blob or not models_equal(model, reloaded):
            roundtrip_failures.append(seed)

    # The same property through actual files for a sample of seeds.
    for seed in (0, 41, 99):
        first = tmp_path / f"m{seed}-a.rqm"
        second = tmp_path / f"m{seed}-b.rqm"
        save_model(_random_container_model(seed), str(first))
        save_model(load_model(str(first)), str(second))
        if first.read_bytes() != second.read_bytes():
            roundtrip_failures.append(("file", seed))

    rng = np.random.default_rng(808)
    base = model_to_bytes(_random_container_model(0))
    corrupted_blobs = []
    for _ in range(300):  # single-byte mutations anywhere in the container
        pos = int(rng.integers(0, len(base)))
        delta = int(rng.integers(1, 256))
        mutated = bytearray(base)
        mutated[pos] = (mutated[pos] + delta) % 256
        corrupted_blobs.append(bytes(mutated))
    for _ in range(60):  # truncations
        corrupted_blobs.append(base[: int(rng.integers(0, len(base)))])
    for _ in range(20):  # random garbage, half of it wearing the real prefix
        blob = rng.integers(0, 256, size=int(rng.integers(1, 200))).astype(
            np.uint8).tobytes()
        corrupted_blobs.append(blob)
        corrupted_blobs.append(base[:8] + blob)
    corrupted_blobs.append(b"")

    accepted = []
    crashes = []
    for idx, blob in enumerate(corrupted_blobs):
        try:
            model_from_bytes(blob)
            accepted.append(idx)
        except FormatError:
            pass
        except Exception as exc:  # noqa: BLE001 - the criterion is "never a crash"
            crashes.append((idx, type(exc).__name__, str(exc)[:80]))

    # A sample of corrupt files must also be rejected through the file API.
    for idx in (0, 150, 350):
        path = tmp_path / f"corrupt-{idx}.rqm"
        path.write_bytes(corrupted_blobs[idx])
        with pytest.raises(FormatError):
            load_model(str(path))

    ok = not roundtrip_failures and not accepted and not crashes
    _record(8, ok,
            f"100 models round-tripped byte-identically "
            f"({len(roundtrip_failures)} failures); "
            f"{len(corrupted_blobs)} corrupt containers: "
            f"{len(accepted)} wrongly accepted, {len(crashes)} crashes")
    assert not roundtrip_failures, f"round-trip failures: {roundtrip_failures}"
    assert not accepted, f"corrupt containers accepted: {accepted[:10]}"
    assert not crashes, f"non-FormatError escapes: {crashes[:10]}"
