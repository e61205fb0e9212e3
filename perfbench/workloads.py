"""The benchmark's three workloads, their output checks and their metrics.

Each workload repeats *rounds* until the measuring time is used up.  A
round is one set-up followed by the workload's operations; every round of
a run works on the same inputs, which are a pure function of the seed.
After the rounds, the outputs are checked: every round must produce the
same bytes, and each workload has its own checks against the engine, the
training emulation and values recorded in ``expected.json``.

An operation counts as failed when it raised or when one of its output
checks failed; ``ops_ok_frac`` is the share that did neither.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# The benchmark runs the library from the checkout it sits in.
sys.path.insert(0, SRC)

from rescale_lab import (  # noqa: E402
    cli, datagen, errmodel, floatnet, kernels, model_io, trainer)
from rescale_lab.errors import RescaleLabError  # noqa: E402
from spans import Tracer  # noqa: E402

FLOAT_MODEL = os.path.join(HERE, "desk_cnn_v1_float.npz")
EXPECTED = os.path.join(HERE, "expected.json")

WIDTHS = (32, 16, 12, 8, 6, 5, 4, 3, 2)
SWEEP_BATCH = 512      # evaluate_int's default, which run_sweep uses
PROBES = 256           # probe images per width, as the analyze command
FLOAT_LR = 0.1         # train-float command default
FINETUNE_K = 2
FINETUNE_LR = 10.0     # finetune command default
TRAIN_BATCH = 32       # both training commands
CALIB_IMAGES = 256     # 8 batches of 32, as the quantize command
CALIB_BATCH = 32
PARITY_IMAGES = 64
REFERENCE_SEED = 0     # the recorded reference deployment and dataset
REFERENCE_TEST = 512
REFERENCE_IDX = (200, 100)

WORKLOADS = ("train", "sweep", "finetune")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_s": ("s", "lower"),
    "work_img_per_s": ("img/s", "higher"),
    "datagen_img_per_s": ("img/s", "higher"),
    "acc_pct": ("%", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_ok_frac": ("frac", "higher"),
}

# What work_img_per_s and acc_pct measure on each workload.
WORK_METRIC = {"train": "train_float_img_per_s", "sweep": "sweep_img_per_s",
               "finetune": "finetune_img_per_s"}
ACC_METRIC = {"train": "float_acc_pct", "sweep": "base_acc_pct",
              "finetune": "recovered_acc_pct"}

_LAYER_FORWARD_SELF = ("conv2d_int", "depthwise_conv2d_int", "dense_int",
                       "rescale_accumulator", "compute_effective_bias",
                       "layer_forward_int", "quantize_real", "predict_int")

# name -> unit; every value is per traced round.
PER_LAYER = {
    **{f"kernels.L{i}.s": "s" for i in range(7)},
    **{f"kernels.{fn}.self_s": "s" for fn in _LAYER_FORWARD_SELF},
    "kernels.macs": "count",
    "kernels.bytes_computed": "bytes",
    "errmodel.layer_error_report.self_s": "s",
    "errmodel.layer_error_report.calls": "count",
    "errmodel.upstream_layer_calls": "count",
    "qcore.quantize_rescaler.calls": "count",
    "qcore.quantize_rescaler.self_s": "s",
    "model_io.materialize_rescalers.self_s": "s",
    "trainer.emulated_forward.self_s": "s",
    "trainer.ste_backward.self_s": "s",
    "trainer.softmax_cross_entropy.self_s": "s",
    "trainer.finetune.self_s": "s",
    "model_io.redeploy_weights.self_s": "s",
    "trainer.steps": "count",
    "trainer.train_float.self_s": "s",
    "trainer.float_accuracy.self_s": "s",
    "floatnet.conv2d_real.self_s": "s",
    "floatnet.depthwise_real.self_s": "s",
    "floatnet.avgpool_real.self_s": "s",
    "floatnet.forward_intermediates.self_s": "s",
    "datagen.render_digits.self_s": "s",
    "datagen.images": "count",
    "model_io.save_idx.s": "s",
    "model_io.load_idx_dataset.s": "s",
    "model_io.quantize_float_model.self_s": "s",
    "cli.run_sweep.self_s": "s",
    "trace.round_s": "s",
    "trace.covered_frac": "frac",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark runs :data:`STANDARD`."""

    train_images: int = 1500
    train_test_images: int = 1000
    train_epochs: int = 4
    sweep_images: int = 512
    finetune_images: int = 2500
    finetune_epochs: int = 2
    finetune_test_images: int = 1000
    min_rounds: int = 3


STANDARD = Sizes()


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def calibration_batches(train_images: np.ndarray) -> list[np.ndarray]:
    chunk = train_images[:CALIB_IMAGES].astype(np.float64)[..., np.newaxis] / 255.0
    return [chunk[i:i + CALIB_BATCH] for i in range(0, chunk.shape[0], CALIB_BATCH)]


def quantize(float_model, train_images):
    return model_io.quantize_float_model(float_model, calibration_batches(train_images))


def model_digest(model) -> str:
    return hashlib.sha256(model_io.model_to_bytes(model)).hexdigest()[:16]


def float_digest(model) -> str:
    return digest(*(getattr(model, f) for f in sorted(vars(model))))


@dataclass
class Deployment:
    """A seed's dataset plus the committed float model quantized on it."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    model: object
    datagen_img_per_s: float


def deploy(workdir: str, seed: int, train_count: int, test_count: int) -> Deployment:
    start = time.perf_counter()
    datagen.generate_dataset(workdir, train_count, test_count, seed=seed)
    (train_x, train_y), (test_x, test_y) = datagen.load_dataset(workdir)
    rate = (train_count + test_count) / (time.perf_counter() - start)
    model = quantize(floatnet.load_float_model(FLOAT_MODEL), train_x)
    return Deployment(train_x, train_y, test_x, test_y, model, rate)


def parity_ok(model, images: np.ndarray) -> bool:
    """Engine logits equal the training emulation's, bit for bit."""
    x = images[:PARITY_IMAGES].astype(np.float64)[..., np.newaxis] / 255.0
    x_q = kernels.quantize_real(x, model.input_params)
    engine = kernels.run_model_int(model, x_q).astype(np.float64)
    emulated, _ = trainer.emulated_forward(trainer.init_shadow(model), x_q)
    return bool(np.array_equal(engine, emulated))


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """Stage times and per-operation outputs of one round.

    ``outputs`` maps each completed operation to a value that every round
    must reproduce exactly; an operation missing from it did not finish.
    """

    times: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    state: dict[str, object] = field(default_factory=dict)
    wall_s: float = 0.0
    traced: bool = False

    @contextmanager
    def timed(self, tracer: Tracer, stage: str):
        """Time one stage into ``times``; a span too when tracing."""
        with tracer.span(f"bench.{stage}"):
            start = time.perf_counter()
            yield
            self.times[stage] = time.perf_counter() - start


class Workload:
    """One workload: its operations, a round, its checks and metrics."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed, self.sizes, self.workdir = seed, sizes, workdir

    def ops(self) -> list[str]:
        raise NotImplementedError

    def round(self, rnd: Round, tracer: Tracer) -> None:
        raise NotImplementedError

    def check(self, rnd: Round) -> dict[str, str]:
        """Output checks on a finished round: failed operation -> reason."""
        raise NotImplementedError

    def figures(self, rounds: list[Round], state: dict) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


class TrainWorkload(Workload):
    """generate -> train_float -> quantize_float_model for a new model."""

    name = "train"

    def ops(self):
        return ["setup", "generate", "train", "quantize"]

    def round(self, rnd, tracer):
        s = self.sizes
        with rnd.timed(tracer, "setup"):
            # Warm every stage on 32 images so the timed stages run steady.
            warm = self.fresh_dir("warm")
            datagen.generate_dataset(warm, 32, 32, seed=self.seed)
            (wx, wy), (tx, ty) = datagen.load_dataset(warm)
            cfg = trainer.TrainConfig(learning_rate=FLOAT_LR, epochs=1,
                                      batch_size=TRAIN_BATCH, seed=self.seed)
            wmodel, _ = trainer.train_float(wx, wy, cfg)
            trainer.float_accuracy(wmodel, tx, ty)
            quantize(wmodel, wx)
        rnd.outputs["setup"] = True
        data = self.fresh_dir("data")
        with rnd.timed(tracer, "generate"):
            paths = datagen.generate_dataset(data, s.train_images,
                                             s.train_test_images, seed=self.seed)
            (train_x, train_y), (test_x, test_y) = datagen.load_dataset(data)
        rnd.outputs["generate"] = file_digest(paths[k] for k in sorted(paths))
        cfg = trainer.TrainConfig(learning_rate=FLOAT_LR, epochs=s.train_epochs,
                                  batch_size=TRAIN_BATCH, seed=self.seed)
        with rnd.timed(tracer, "train"):
            fmodel, _ = trainer.train_float(train_x, train_y, cfg)
            acc = trainer.float_accuracy(fmodel, test_x, test_y)
        rnd.outputs["train"] = (float_digest(fmodel), acc)
        with rnd.timed(tracer, "quantize"):
            qmodel = quantize(fmodel, train_x)
        rnd.outputs["quantize"] = model_digest(qmodel)
        rnd.state.update(acc=acc, qmodel=qmodel, test_x=test_x,
                         fmodel=fmodel)

    def check(self, rnd):
        failed = {}
        if reference_idx(self.fresh_dir("reference")) != load_expected()["idx"]:
            failed["generate"] = "reference IDX files differ from expected.json"
        fmodel = rnd.state["fmodel"]
        if not all(np.all(np.isfinite(getattr(fmodel, f))) for f in vars(fmodel)):
            failed["train"] = "float model has non-finite parameters"
        qmodel = rnd.state["qmodel"]
        try:
            model_io.validate_model(qmodel)
        except (RescaleLabError, OverflowError) as exc:
            failed["quantize"] = f"quantized model invalid: {exc!r}"
        else:
            if not parity_ok(qmodel, rnd.state["test_x"]):
                failed["quantize"] = "engine and emulation logits differ at k=32"
        return failed

    def figures(self, rounds, state):
        s = self.sizes
        return {
            "datagen_img_per_s": (median(
                (s.train_images + s.train_test_images) / r.times["generate"]
                for r in rounds), "img/s"),
            "train_float_img_per_s": (median(
                s.train_images * s.train_epochs / r.times["train"]
                for r in rounds), "img/s"),
            "float_acc_pct": (rounds[0].state["acc"], "%"),
        }


class SweepWorkload(Workload):
    """run_sweep over every width, then an error report per width."""

    name = "sweep"

    def ops(self):
        return (["setup", "sweep.base"] + [f"sweep.k{k}" for k in WIDTHS]
                + [f"analyze.k{k}" for k in WIDTHS])

    def round(self, rnd, tracer):
        with rnd.timed(tracer, "setup"):
            dep = deploy(self.fresh_dir("data"), self.seed, CALIB_IMAGES,
                         self.sizes.sweep_images)
        rnd.outputs["setup"] = model_digest(dep.model)
        with rnd.timed(tracer, "sweep"):
            result = cli.run_sweep(dep.model, dep.test_x, dep.test_y, list(WIDTHS))
        rnd.outputs["sweep.base"] = result.base_accuracy
        for row in result.rows:
            if row.accuracy is not None:
                rnd.outputs[f"sweep.k{row.k}"] = row.accuracy
        probes = dep.test_x[:PROBES]
        reports = {}
        for k in WIDTHS:
            with rnd.timed(tracer, f"analyze.k{k}"):
                reports[k] = errmodel.model_error_report(dep.model, probes, k)
            rnd.outputs[f"analyze.k{k}"] = digest(
                *(np.concatenate([r.max_abs_acc, r.safe]) for r in reports[k]))
        rnd.state.update(dep=dep, reports=reports,
                         base_acc=result.base_accuracy)

    def check(self, rnd):
        failed = {}
        dep = rnd.state["dep"]
        expected = load_expected()["sweep"]
        reference = reference_sweep(self.fresh_dir("reference"))
        if reference["model"] != expected["model"]:
            failed["setup"] = "reference quantized model differs from expected.json"
        for k in WIDTHS:
            op = f"sweep.k{k}"
            if reference["widths"][str(k)] != expected["widths"][str(k)]:
                failed[op] = "reference accuracy or predictions differ from expected.json"
            elif not parity_ok(model_io.materialize_rescalers(dep.model, k), dep.test_x):
                failed[op] = f"engine and emulation logits differ at k={k}"
        if "sweep.k32" in failed:
            failed["sweep.base"] = failed["sweep.k32"]
        layers = sum(layer.kind != "flatten" for layer in dep.model.layers)
        for k, reports in rnd.state["reports"].items():
            if len(reports) != layers:
                failed[f"analyze.k{k}"] = f"{len(reports)} layer reports, expected {layers}"
            elif any(np.any(r.max_abs_acc > r.analytic_max_abs_acc) for r in reports):
                failed[f"analyze.k{k}"] = "probe peak exceeds the analytic worst case"
            elif k == 32 and not all(r.all_safe for r in reports):
                failed[f"analyze.k{k}"] = "a layer is unsafe at k=32"
        return failed

    def figures(self, rounds, state):
        per_width = [r.times[f"analyze.k{k}"] for r in rounds for k in WIDTHS]
        return {
            "datagen_img_per_s": (median(r.state["dep"].datagen_img_per_s
                                         for r in rounds), "img/s"),
            "sweep_img_per_s": (median(
                self.sizes.sweep_images * (1 + len(WIDTHS)) / r.times["sweep"]
                for r in rounds), "img/s"),
            "analyze_s": (statistics.median(per_width), "s"),
            "base_acc_pct": (rounds[0].state["base_acc"], "%"),
        }


class FinetuneWorkload(Workload):
    """Rescale-aware fine-tuning at k=2, then an untimed evaluation."""

    name = "finetune"

    def ops(self):
        return ["setup", "finetune"]

    def round(self, rnd, tracer):
        s = self.sizes
        with rnd.timed(tracer, "setup"):
            dep = deploy(self.fresh_dir("data"), self.seed, s.finetune_images,
                         s.finetune_test_images)
        rnd.outputs["setup"] = model_digest(dep.model)
        cfg = trainer.TrainConfig(learning_rate=FINETUNE_LR, epochs=s.finetune_epochs,
                                  batch_size=TRAIN_BATCH, seed=self.seed)
        with rnd.timed(tracer, "finetune"):
            result = trainer.finetune(dep.model, dep.train_x, dep.train_y, cfg,
                                      k=FINETUNE_K, eval_images=None)
        rnd.outputs["finetune"] = model_digest(result.model)
        rnd.state.update(dep=dep, repaired=result.model)

    def check(self, rnd):
        dep, repaired = rnd.state["dep"], rnd.state["repaired"]
        before = kernels.evaluate_int(
            model_io.materialize_rescalers(dep.model, FINETUNE_K),
            dep.test_x, dep.test_y)
        after = kernels.evaluate_int(repaired, dep.test_x, dep.test_y)
        rnd.state.update(before=before, after=after)
        try:
            model_io.validate_model(repaired)
        except (RescaleLabError, OverflowError) as exc:
            return {"finetune": f"repaired model invalid: {exc!r}"}
        if not parity_ok(repaired, dep.test_x):
            return {"finetune": f"engine and emulation logits differ at k={FINETUNE_K}"}
        if not after > before:
            return {"finetune": f"accuracy {after:.2f}% not above {before:.2f}% "
                                f"before fine-tuning"}
        return {}

    def figures(self, rounds, state):
        return {
            "datagen_img_per_s": (median(r.state["dep"].datagen_img_per_s
                                         for r in rounds), "img/s"),
            "finetune_img_per_s": (median(
                self.sizes.finetune_images * self.sizes.finetune_epochs
                / r.times["finetune"]
                for r in rounds), "img/s"),
            "recovered_acc_pct": (state["after"], "%"),
            "pre_finetune_acc_pct": (state["before"], "%"),
        }


WORKLOAD_TYPES = {w.name: w for w in (TrainWorkload, SweepWorkload, FinetuneWorkload)}


def median(values) -> float:
    return statistics.median(list(values))


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def reference_sweep(workdir: str) -> dict:
    """Accuracy and a prediction digest per width on the reference seed."""
    dep = deploy(workdir, REFERENCE_SEED, CALIB_IMAGES, REFERENCE_TEST)
    widths = {}
    for k in WIDTHS:
        preds = kernels.predict_int(model_io.materialize_rescalers(dep.model, k),
                                    dep.test_x, batch_size=SWEEP_BATCH)
        acc = 100.0 * float(np.mean(preds == dep.test_y))
        widths[str(k)] = [acc, digest(preds.astype(np.int64))]
    return {"model": model_digest(dep.model), "widths": widths}


def reference_idx(workdir: str) -> str:
    """Digest of the IDX files of the reference dataset."""
    paths = datagen.generate_dataset(workdir, *REFERENCE_IDX, seed=REFERENCE_SEED)
    return file_digest(paths[k] for k in sorted(paths))


def reference_values(workdir: str) -> dict:
    """Everything ``expected.json`` records, computed by the current code."""
    return {
        "idx": reference_idx(os.path.join(workdir, "idx")),
        "sweep": reference_sweep(os.path.join(workdir, "sweep")),
    }


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


@dataclass
class Result:
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    figures: dict[str, tuple[float, str]]
    failures: list[str]
    rounds: int
    traced_rounds: int
    trace_path: str | None = None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = STANDARD, out_dir: str | None = None) -> Result:
    """Run rounds of one workload for ``seconds``, check them, measure.

    With ``trace`` the rounds alternate untraced and traced, so the traced
    rounds give the per-layer metrics and the untraced ones after the first
    (which runs cold) the tracing overhead; the spans are written to
    ``out_dir`` at the end.
    """
    out_dir = out_dir or os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    tracer = Tracer()
    try:
        workload = WORKLOAD_TYPES[name](seed, sizes, workdir)
        ops = workload.ops()
        min_rounds = max(sizes.min_rounds, 3 if trace else 1)
        rounds: list[Round] = []
        failures: list[str] = []
        failed = 0
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
            rnd = Round(traced=trace and len(rounds) % 2 == 1)
            t0 = time.perf_counter()
            try:
                if rnd.traced:
                    with tracer.installed(), tracer.span("bench.round"):
                        workload.round(rnd, tracer)
                else:
                    workload.round(rnd, tracer)
            except Exception:  # a failing round must not stop the run
                failures.append(f"round {len(rounds)}: {traceback.format_exc()}")
            rnd.wall_s = time.perf_counter() - t0
            rounds.append(rnd)

        done = [r for r in rounds if len(r.outputs) == len(ops)]
        state: dict = {}
        check_failed: dict[str, str] = {}
        if done:
            try:
                check_failed = workload.check(done[0])
            except Exception:  # a crashing check fails every operation
                failures.append(f"check: {traceback.format_exc()}")
                check_failed = {op: "check raised" for op in ops}
            state = done[0].state
        for op, reason in sorted(check_failed.items()):
            failures.append(f"{op}: {reason}")
        reference = done[0].outputs if done else {}
        for i, rnd in enumerate(rounds):
            for op in ops:
                if op not in rnd.outputs or op in check_failed:
                    failed += 1
                elif rnd.outputs[op] != reference[op]:
                    failed += 1
                    failures.append(f"round {i} {op}: output differs from round 0")
        attempted = len(rounds) * len(ops)

        metrics: dict[str, dict] = {}
        figures: dict[str, tuple[float, str]] = {}
        timed = [r for r in done if not r.traced]
        if timed:
            figures = workload.figures(timed, state)
            figures["ops_failed_frac"] = (failed / attempted, "frac")
            if trace:
                metrics = per_layer_metrics(tracer, rounds)
            else:
                metrics = end_to_end_metrics(workload, timed, figures,
                                             failed, attempted)
        trace_path = None
        if trace:
            trace_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl")
            tracer.write(trace_path, {"workload": name, "seed": seed,
                                      "traced_rounds": sum(r.traced for r in rounds)})
        return Result(name, failed == 0 and bool(metrics), attempted, failed,
                      metrics, figures, failures, len(rounds),
                      sum(r.traced for r in rounds), trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_metrics(workload: Workload, rounds: list[Round], figures: dict,
                       failed: int, attempted: int) -> dict[str, dict]:
    op_names = [op for op in rounds[0].times if op != "setup"]
    values = {
        "setup_s": median(r.times["setup"] for r in rounds),
        "op_s": median(sum(r.times[op] for op in op_names) for r in rounds),
        "work_img_per_s": figures[WORK_METRIC[workload.name]][0],
        "datagen_img_per_s": figures["datagen_img_per_s"][0],
        "acc_pct": figures[ACC_METRIC[workload.name]][0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - failed / attempted,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}


def per_layer_metrics(tracer: Tracer, rounds: list[Round]) -> dict[str, dict]:
    """Per-layer figures per traced round, from the spans and counters."""
    traced = [r for r in rounds if r.traced]
    warm_plain = [r for r in rounds[1:] if not r.traced]
    n = len(traced)
    summary = tracer.summary()

    def field_of(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0)

    values = {}
    for metric in PER_LAYER:
        base, _, key = metric.rpartition(".")
        if key in ("s", "self_s", "calls") and base != "model_io.save_idx":
            values[metric] = field_of(base, key) / n
        elif metric == "model_io.save_idx.s":
            values[metric] = (field_of("model_io.save_idx_images", "s")
                              + field_of("model_io.save_idx_labels", "s")) / n
        else:
            values[metric] = tracer.counts.get(metric, 0) / n
    round_s = field_of("bench.round", "s") / n
    library_self = sum(v["self_s"] for k, v in summary.items()
                       if not k.startswith("bench.") and not k.startswith("kernels.L"))
    values["trace.round_s"] = round_s
    values["trace.covered_frac"] = library_self / (round_s * n)
    values["trace.overhead_pct"] = 100.0 * (
        median(r.wall_s for r in traced) / median(r.wall_s for r in warm_plain) - 1.0)
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
