"""Command-line interface.

Subcommands cover the full workflow: generate the synthetic dataset, train
the float reference network, quantize it, sweep accuracy across rescaler
widths, analyze per-layer rescale error, fine-tune at a fixed width, run
single inputs, and check training/deployment parity.

Every command is deterministic given its flags, seed, and input files; CSV
output carries a fixed versioned header line so downstream tooling can
detect schema changes.  argparse checks the flags, so a missing required
flag, a malformed width, a negative seed, a threshold that is not finite,
or an ``--out`` that names or sits in a path of the wrong kind is a usage
error in argparse's words, raised before any work.  Each data split a
command needs is loaded before any work starts; an empty one is a domain
error, and a label outside 0..9 a format error.  Exit codes: 0 success,
2 usage, 3 file-format errors, 4 numeric/domain errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import datagen, floatnet
from .errmodel import model_error_report
from .errors import DomainError, FormatError, RescaleLabError, RescalerUnderflow, ShapeError
from .kernels import evaluate_int, predict_int, run_model_int
from .model_io import (
    load_idx_dataset,
    load_idx_images,
    load_model,
    materialize_rescalers,
    quantize_float_model,
    redeploy_weights,
    save_model,
)
from .qcore import check_bitwidth
from .trainer import TrainConfig, emulated_forward, finetune, init_shadow, train_float

CSV_HEADER = "# rescale-lab v1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4


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


def degradation_point(
    base_acc: float, per_k_acc: dict[int, float], threshold: float = 0.5
) -> int | None:
    """Largest width whose accuracy drops more than ``threshold`` points
    below the baseline; ``None`` when every width holds up."""
    failing = [k for k, acc in per_k_acc.items() if base_acc - acc > threshold]
    return max(failing) if failing else None


def run_sweep(model, images, labels, k_list, threshold=0.5) -> SweepResult:
    # Every width is checked before the first evaluation, so a bad one
    # costs nothing.
    for k in k_list:
        check_bitwidth(k)
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


class UsageError(Exception):
    pass


def _load(args, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Images and labels of one split ("train" or "test") of the data set
    in ``--data-dir``, else in ``$RESCALE_LAB_DATA``."""
    data_dir = args.data_dir or os.environ.get("RESCALE_LAB_DATA")
    if not data_dir:
        raise UsageError("no data directory: pass --data-dir or set RESCALE_LAB_DATA")
    paths = datagen.dataset_paths(data_dir)
    images, labels = load_idx_dataset(paths[f"{split}_images"],
                                      paths[f"{split}_labels"])
    if len(labels) == 0:
        raise DomainError(f"the {split} set in {data_dir} is empty")
    return images, labels


def _write_csv(header: str, rows, out: str | None = None, **footers) -> None:
    """The version line, the column ``header``, one line per row and one
    ``# key=value`` line per footer, to the file ``out`` or to stdout."""
    lines = [CSV_HEADER, header]
    lines += [",".join(map(str, row)) for row in rows]
    lines += [f"# {key}={value}" for key, value in footers.items()]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_history(history, **footers) -> None:
    rows = [(r.epoch, _fmt(r.loss), _fmt(r.accuracy, 2)) for r in history]
    _write_csv("epoch,loss,accuracy", rows, **footers)


def _fmt(value: float | None, digits: int = 4) -> str:
    if value is None:
        return ""
    return f"{value:.{digits}f}"


def out_file(path: str) -> str:
    """``--out`` of a command that writes one file: its directory must
    exist and the path must not be a directory, checked before any work."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no directory {parent} for {path}")
    return path


def out_dir(path: str) -> str:
    """gen-data's ``--out``, a directory made if missing: the nearest path
    at or above it that exists must be a directory."""
    probe = path
    while probe and not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if probe and not os.path.isdir(probe):
        raise argparse.ArgumentTypeError(f"{probe} is not a directory")
    return path


def width_list(value: str) -> list[int]:
    """``--k-list``: comma-separated integer widths, at least one."""
    return [int(part) for part in value.split(",")]


def int_at_least(low: int, what: str):
    """The argparse type of ``what``: an integer of at least ``low``."""
    def parse(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {number}")
        return number
    parse.__name__ = what  # argparse's word for a value that is no integer
    return parse


batch_count = int_at_least(1, "batch count")  # parity's positional argument


def finite_float(value: str) -> float:
    """``--threshold``: a finite real number."""
    number = float(value)
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"{value} is not a finite number")
    return number


def _train_config(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                       batch_size=32, seed=args.seed)


_CALIB_IMAGES = 256


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    paths = datagen.generate_dataset(args.out, seed=args.seed)
    for name in ("train_images", "train_labels", "test_images", "test_labels"):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def cmd_train_float(args) -> int:
    train_images, train_labels = _load(args, "train")
    test_images, test_labels = _load(args, "test")
    model, history = train_float(train_images, train_labels, _train_config(args),
                                 eval_images=test_images, eval_labels=test_labels)
    _write_history(history)
    floatnet.save_float_model(model, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    float_model = floatnet.load_float_model(args.model)
    train_images, _ = _load(args, "train")
    model = quantize_float_model(float_model, train_images[:_CALIB_IMAGES])
    save_model(model, args.out)
    print(f"wrote {args.out} (widths start at k=32)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    model = load_model(args.model)
    test_images, test_labels = _load(args, "test")
    result = run_sweep(model, test_images, test_labels, args.k_list,
                       threshold=args.threshold)
    rows = [(row.k, _fmt(row.accuracy, 2), _fmt(row.delta_vs_base, 2), row.note)
            for row in result.rows]
    point = result.degradation_point
    _write_csv("k,accuracy,delta_vs_base,note", rows, args.out,
               base_accuracy=f"{result.base_accuracy:.2f}",
               degradation_point="none" if point is None else point)
    return EXIT_OK


def cmd_analyze(args) -> int:
    model = load_model(args.model)
    test_images, _ = _load(args, "test")
    reports = model_error_report(model, test_images[:256], k=args.k)
    rows = [
        (r.layer_id, r.kind, r.k, _fmt(r.s_y, 6),
         int(np.max(r.max_abs_acc)), int(np.max(r.analytic_max_abs_acc)),
         f"{np.max(r.mismatch_bound):.6e}", _fmt(r.rounding_floor, 6),
         "yes" if r.all_safe else "no")
        for r in reports
    ]
    _write_csv("layer,kind,k,out_scale,max_abs_acc,analytic_max_abs_acc,"
               "mismatch_bound,rounding_floor,safe", rows, args.out)
    return EXIT_OK


def cmd_finetune(args) -> int:
    model = load_model(args.model)
    train_images, train_labels = _load(args, "train")
    test_images, test_labels = _load(args, "test")
    result = finetune(model, train_images, train_labels, _train_config(args),
                      k=args.k, eval_images=test_images, eval_labels=test_labels)
    stats = result.stats
    _write_history(result.history,
                   changed_ratio=f"{stats.changed_ratio:.6f}",
                   mean_abs_diff=f"{stats.mean_abs_diff:.6f}",
                   layers_affected=stats.layers_affected,
                   bias_changed_ratio=f"{stats.bias_changed_ratio:.6f}")
    # The checkpoint keeps the input model's rescaler widths; the training
    # width k only selects the deployment the weights were adapted to.
    save_model(redeploy_weights(model, init_shadow(result.model)), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    model = load_model(args.model)
    if args.k is not None:
        model = materialize_rescalers(model, args.k)
    images = load_idx_images(args.input)
    for value in predict_int(model, images):
        print(int(value))
    return EXIT_OK


_MAX_SIDE = 1024  # the largest square input side parity tries


def parity_input_shape(model) -> tuple[int, ...]:
    """The shape of one image the engine runs ``model`` on, without the
    batch axis: ``(c,)`` if that runs, else the smallest square
    ``(s, s, c)``, with ``c`` the input channels (features, for dense) of
    the first weighted layer.  The graph records no input shape, so each
    candidate is tried on an empty batch."""
    c = next((l.weights.data.shape[-1] for l in model.layers if l.weights is not None), 1)
    for shape in [(c,)] + [(side, side, c) for side in range(1, _MAX_SIDE + 1)]:
        try:
            run_model_int(model, np.zeros((0,) + shape, np.int8))
            return shape
        except ShapeError:
            continue
    raise DomainError(f"no input of shape ({c},) or (s, s, {c}) with s <= {_MAX_SIDE} "
                      "fits the model")


def cmd_parity(args) -> int:
    model = load_model(args.model)
    if args.k is not None:
        model = materialize_rescalers(model, args.k)
    k = model.k
    shadow = init_shadow(model)
    shape = parity_input_shape(model)
    rng = np.random.default_rng(args.seed)
    batches = args.batches
    for i in range(batches):
        x = rng.integers(-128, 128, size=(4,) + shape).astype(np.int8)
        ref = run_model_int(model, x).astype(np.float64)
        emu, _ = emulated_forward(shadow, x)
        if not np.array_equal(ref, emu):
            print(f"parity: FAIL at batch {i} (k={k})")
            return EXIT_NUMERIC
    print(f"parity: PASS ({batches} batches, k={k})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# Every flag a command may take, with its argparse options.  argparse exits
# with EXIT_USAGE (2) and its own message on a missing or malformed flag.
_FLAGS = {
    "model": {"required": True},
    "data-dir": {},
    "k": {"type": int},
    "k-list": {"type": width_list, "default": (32, 16, 12, 8, 6, 5, 4, 3, 2)},
    "epochs": {"type": int},
    "lr": {"type": float},
    "seed": {"type": int_at_least(0, "seed"), "default": 0},
    "out": {"type": out_file},
    "threshold": {"type": finite_float, "default": 0.5},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rescale-lab", description="Integer-only inference with dyadic rescalers")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, flags, required=(), **defaults):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(f"--{flag}", **{"required": flag in required, **_FLAGS[flag]})
        p.set_defaults(func=func, **defaults)
        return p

    p = command("gen-data", cmd_gen_data, "render the synthetic digit dataset",
                ["seed"])
    p.add_argument("--out", required=True, type=out_dir)
    command("train-float", cmd_train_float, "train the float reference network",
            ["data-dir", "epochs", "lr", "seed", "out"], required=["out"],
            lr=0.1, epochs=3)
    command("quantize", cmd_quantize, "post-training quantize a float model",
            ["model", "data-dir", "out"], required=["out"])
    command("sweep", cmd_sweep, "accuracy across rescaler widths",
            ["model", "data-dir", "k-list", "threshold", "out"])
    command("analyze", cmd_analyze, "per-layer rescale error report",
            ["model", "data-dir", "k", "out"], required=["k"])
    command("finetune", cmd_finetune, "rescale-aware fine-tuning at width k",
            ["model", "data-dir", "k", "epochs", "lr", "seed", "out"],
            required=["k", "out"], lr=10.0, epochs=2)
    p = command("infer", cmd_infer, "classify images from an IDX file", ["model", "k"])
    p.add_argument("input", help="IDX image file")
    p = command("parity", cmd_parity, "training emulation vs integer engine",
                ["model", "k", "seed"])
    p.add_argument("batches", nargs="?", type=batch_count, default=20)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (RescaleLabError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
