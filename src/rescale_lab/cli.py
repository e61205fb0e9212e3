"""Command-line interface.

Subcommands cover the full workflow: generate the synthetic dataset, train
the float reference network, quantize it, sweep accuracy across rescaler
widths, analyze per-layer rescale error, fine-tune at a fixed width, run
single inputs, and check training/deployment parity.

Every command is deterministic given its flags, seed, and input files; CSV
output carries a fixed versioned header line so downstream tooling can
detect schema changes.  Exit codes: 0 success, 2 usage, 3 file-format
errors, 4 numeric/domain errors.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import datagen, floatnet
from .errors import (
    CalibrationError,
    DomainError,
    FormatError,
    OverflowEnvelopeError,
    RescaleLabError,
    RescalerUnderflow,
    ShapeError,
)
from .kernels import evaluate_int, predict_int, run_model_int, unit_images
from .model_io import (
    load_idx_dataset,
    load_model,
    materialize_rescalers,
    save_model,
)
from .trainer import TrainConfig, emulated_forward, finetune, init_shadow, train_float

CSV_HEADER = "# rescale-lab v1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4

_USAGE_ERRORS = (FileNotFoundError,)
_FORMAT_ERRORS = (FormatError,)
_NUMERIC_ERRORS = (
    DomainError,
    ShapeError,
    RescalerUnderflow,
    OverflowEnvelopeError,
    CalibrationError,
    OverflowError,
)


# ---------------------------------------------------------------------------
# Sweep result and degradation point
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    k: int
    accuracy: float | None  # None when the width underflowed
    delta_vs_base: float | None
    note: str = ""


@dataclass
class SweepResult:
    base_accuracy: float
    rows: list[SweepRow]
    degradation_point: int | None

    def accuracies(self) -> dict[int, float]:
        return {r.k: r.accuracy for r in self.rows if r.accuracy is not None}


def degradation_point(
    base_acc: float, per_k_acc: dict[int, float], threshold: float = 0.5
) -> int | None:
    """Largest width whose accuracy drops more than ``threshold`` points
    below the baseline; ``None`` when every width holds up."""
    failing = [k for k, acc in per_k_acc.items() if base_acc - acc > threshold]
    return max(failing) if failing else None


def run_sweep(model, images, labels, k_list, threshold=0.5) -> SweepResult:
    base = materialize_rescalers(model, 32)
    base_acc = evaluate_int(base, images, labels)
    rows: list[SweepRow] = []
    per_k: dict[int, float] = {}
    for k in k_list:
        try:
            mk = materialize_rescalers(model, k)
        except RescalerUnderflow as exc:
            rows.append(SweepRow(k=k, accuracy=None, delta_vs_base=None,
                                 note=f"underflow: {exc}"))
            continue
        acc = evaluate_int(mk, images, labels)
        per_k[k] = acc
        rows.append(SweepRow(k=k, accuracy=acc, delta_vs_base=acc - base_acc))
    return SweepResult(
        base_accuracy=base_acc,
        rows=rows,
        degradation_point=degradation_point(base_acc, per_k, threshold),
    )


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _resolve_data_dir(args) -> str:
    data_dir = args.data_dir or os.environ.get("RESCALE_LAB_DATA")
    if not data_dir:
        raise UsageError("--data-dir is required (or set RESCALE_LAB_DATA)")
    return data_dir


class UsageError(Exception):
    pass


def _load_train(data_dir):
    paths = datagen.dataset_paths(data_dir)
    return load_idx_dataset(paths["train_images"], paths["train_labels"])


def _load_test(data_dir):
    paths = datagen.dataset_paths(data_dir)
    return load_idx_dataset(paths["test_images"], paths["test_labels"])


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(value: float | None, digits: int = 4) -> str:
    if value is None:
        return ""
    return f"{value:.{digits}f}"


def _parse_k(value: str) -> int:
    try:
        k = int(value)
    except ValueError as exc:
        raise UsageError(f"width must be an integer, got {value!r}") from exc
    return k


def _parse_k_list(value: str) -> list[int]:
    if not value.strip():
        raise UsageError("--k-list must name at least one width")
    return [_parse_k(part) for part in value.split(",")]


_CALIB_BATCHES = 8
_CALIB_BATCH_SIZE = 32


def _calibration_batches(train_images: np.ndarray) -> list[np.ndarray]:
    chunk = unit_images(train_images[: _CALIB_BATCHES * _CALIB_BATCH_SIZE])
    return [chunk[i : i + _CALIB_BATCH_SIZE]
            for i in range(0, chunk.shape[0], _CALIB_BATCH_SIZE)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if not args.out:
        raise UsageError("--out directory is required")
    paths = datagen.generate_dataset(args.out, seed=args.seed)
    for name in ("train_images", "train_labels", "test_images", "test_labels"):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def cmd_train_float(args) -> int:
    data_dir = _resolve_data_dir(args)
    if not args.out:
        raise UsageError("--out file is required")
    (train_images, train_labels) = _load_train(data_dir)
    (test_images, test_labels) = _load_test(data_dir)
    cfg = TrainConfig(
        learning_rate=args.lr if args.lr is not None else 0.1,
        epochs=args.epochs if args.epochs is not None else 3,
        batch_size=32,
        seed=args.seed,
    )
    model, history = train_float(train_images, train_labels, cfg,
                                 eval_images=test_images, eval_labels=test_labels)
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    buf.write("epoch,loss,accuracy\n")
    for record in history:
        buf.write(f"{record.epoch},{_fmt(record.loss)},{_fmt(record.accuracy, 2)}\n")
    sys.stdout.write(buf.getvalue())
    floatnet.save_float_model(model, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    data_dir = _resolve_data_dir(args)
    if not args.model:
        raise UsageError("--model (float model file) is required")
    if not args.out:
        raise UsageError("--out file is required")
    float_model = floatnet.load_float_model(args.model)
    (train_images, _) = _load_train(data_dir)
    from .model_io import quantize_float_model

    model = quantize_float_model(float_model, _calibration_batches(train_images))
    save_model(model, args.out)
    print(f"wrote {args.out} (widths start at k=32)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    data_dir = _resolve_data_dir(args)
    if not args.model:
        raise UsageError("--model is required")
    k_list = _parse_k_list(args.k_list) if args.k_list else [32, 16, 12, 8, 6, 5, 4, 3, 2]
    model = load_model(args.model)
    (test_images, test_labels) = _load_test(data_dir)
    result = run_sweep(model, test_images, test_labels, k_list,
                       threshold=args.threshold)
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    buf.write("k,accuracy,delta_vs_base,note\n")
    for row in result.rows:
        buf.write(f"{row.k},{_fmt(row.accuracy, 2)},"
                  f"{_fmt(row.delta_vs_base, 2)},{row.note}\n")
    point = result.degradation_point
    buf.write(f"# base_accuracy={result.base_accuracy:.2f}\n")
    buf.write(f"# degradation_point={'none' if point is None else point}\n")
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    data_dir = _resolve_data_dir(args)
    if not args.model:
        raise UsageError("--model is required")
    if args.k is None:
        raise UsageError("--k is required")
    from .errmodel import model_error_report

    model = load_model(args.model)
    (test_images, _) = _load_test(data_dir)
    probes = test_images[:256]
    reports = model_error_report(model, probes, k=_parse_k(args.k))
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    buf.write("layer,kind,k,out_scale,max_abs_acc,analytic_max_abs_acc,"
              "mismatch_bound,rounding_floor,safe\n")
    for r in reports:
        buf.write(
            f"{r.layer_id},{r.kind},{r.k},{_fmt(r.s_y, 6)},"
            f"{int(np.max(r.max_abs_acc))},{int(np.max(r.analytic_max_abs_acc))},"
            f"{np.max(r.mismatch_bound):.6e},{_fmt(r.rounding_floor, 6)},"
            f"{'yes' if r.all_safe else 'no'}\n"
        )
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_finetune(args) -> int:
    data_dir = _resolve_data_dir(args)
    if not args.model:
        raise UsageError("--model is required")
    if args.k is None:
        raise UsageError("--k is required")
    if not args.out:
        raise UsageError("--out file is required")
    model = load_model(args.model)
    (train_images, train_labels) = _load_train(data_dir)
    (test_images, test_labels) = _load_test(data_dir)
    cfg = TrainConfig(
        learning_rate=args.lr if args.lr is not None else 10.0,
        epochs=args.epochs if args.epochs is not None else 2,
        batch_size=32,
        seed=args.seed,
    )
    result = finetune(model, train_images, train_labels, cfg, k=_parse_k(args.k),
                      eval_images=test_images, eval_labels=test_labels)
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    buf.write("epoch,loss,accuracy\n")
    for record in result.history:
        buf.write(f"{record.epoch},{_fmt(record.loss)},{_fmt(record.accuracy, 2)}\n")
    stats = result.stats
    buf.write(f"# changed_ratio={stats.changed_ratio:.6f}\n")
    buf.write(f"# mean_abs_diff={stats.mean_abs_diff:.6f}\n")
    buf.write(f"# layers_affected={stats.layers_affected}\n")
    buf.write(f"# bias_changed_ratio={stats.bias_changed_ratio:.6f}\n")
    sys.stdout.write(buf.getvalue())
    # The checkpoint keeps the input model's rescaler widths; the training
    # width k only selects the deployment the weights were adapted to.
    layers = [
        replace(orig, weights=new.weights, bias=new.bias)
        if orig.weights is not None
        else orig
        for orig, new in zip(model.layers, result.model.layers)
    ]
    save_model(replace(model, layers=layers), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    if not args.model:
        raise UsageError("--model is required")
    model = load_model(args.model)
    if args.k is not None:
        model = materialize_rescalers(model, _parse_k(args.k))
    from .model_io import IDX_IMAGES_MAGIC, _read_idx

    images = _read_idx(args.input, IDX_IMAGES_MAGIC, 3)
    classes = predict_int(model, images)
    for value in classes:
        print(int(value))
    return EXIT_OK


def cmd_parity(args) -> int:
    if not args.model:
        raise UsageError("--model is required")
    model = load_model(args.model)
    k = _parse_k(args.k) if args.k is not None else model.k
    mk = materialize_rescalers(model, k)
    shadow = init_shadow(mk)
    rng = np.random.default_rng(args.seed)
    batches = args.batches
    for i in range(batches):
        x = rng.integers(-128, 128, size=(4, 28, 28, 1)).astype(np.int8)
        ref = run_model_int(mk, x).astype(np.float64)
        emu, _ = emulated_forward(shadow, x)
        if not np.array_equal(ref, emu):
            print(f"parity: FAIL at batch {i} (k={k})")
            return EXIT_NUMERIC
    print(f"parity: PASS ({batches} batches, k={k})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 with message on stderr
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rescale-lab",
                     description="Integer-only inference with dyadic rescalers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *names):
        if "model" in names:
            p.add_argument("--model")
        if "data" in names:
            p.add_argument("--data-dir", dest="data_dir")
        if "k" in names:
            p.add_argument("--k")
        if "k_list" in names:
            p.add_argument("--k-list", dest="k_list")
        if "epochs" in names:
            p.add_argument("--epochs", type=int)
        if "lr" in names:
            p.add_argument("--lr", type=float)
        if "seed" in names:
            p.add_argument("--seed", type=int, default=0)
        if "out" in names:
            p.add_argument("--out")
        if "threshold" in names:
            p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("gen-data", help="render the synthetic digit dataset")
    common(p, "seed", "out")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-float", help="train the float reference network")
    common(p, "data", "epochs", "lr", "seed", "out")
    p.set_defaults(func=cmd_train_float)

    p = sub.add_parser("quantize", help="post-training quantize a float model")
    common(p, "model", "data", "out")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("sweep", help="accuracy across rescaler widths")
    common(p, "model", "data", "k_list", "threshold", "out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="per-layer rescale error report")
    common(p, "model", "data", "k", "out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("finetune", help="rescale-aware fine-tuning at width k")
    common(p, "model", "data", "k", "epochs", "lr", "seed", "out")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("infer", help="classify images from an IDX file")
    common(p, "model", "k")
    p.add_argument("input", help="IDX image file")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("parity", help="training emulation vs integer engine")
    common(p, "model", "k", "seed")
    p.add_argument("batches", nargs="?", type=int, default=20)
    p.set_defaults(func=cmd_parity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _FORMAT_ERRORS as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RescaleLabError as exc:  # catch-all for library errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
