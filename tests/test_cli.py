"""End-to-end tests for the rescale-lab command line interface."""

import shutil
import struct
from dataclasses import replace

import numpy as np
import pytest

from rescale_lab import cli, datagen, floatnet
from rescale_lab.cli import (
    CSV_HEADER,
    EXIT_FORMAT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    degradation_point,
    main,
    run_sweep,
)
from rescale_lab.errors import DomainError, RescalerUnderflow
from rescale_lab.kernels import QTensor, evaluate_int
from rescale_lab.model_io import (
    LayerSpec,
    ModelGraph,
    load_model,
    model_to_bytes,
    save_idx_images,
    save_idx_labels,
    save_model,
    validate_model,
)
from rescale_lab.qcore import QuantParams, quantize_rescaler
from test_model_io import tiny_dense_model


class TestDegradationPoint:
    def test_mixed_precision_backbone_curve(self):
        per_k = {8: 70.93, 6: 69.83, 5: 69.20, 4: 65.39, 3: 21.72}
        assert degradation_point(71.28, per_k, threshold=0.5) == 6

    def test_early_cliff_curve(self):
        per_k = {8: 70.51, 6: 70.41, 5: 67.24, 4: 63.67, 3: 5.11}
        assert degradation_point(70.51, per_k, threshold=0.5) == 5

    def test_all_equal_gives_none(self):
        per_k = {k: 83.0 for k in (8, 6, 5, 4, 3, 2)}
        assert degradation_point(83.0, per_k, threshold=0.5) is None

    def test_threshold_moves_the_point(self):
        per_k = {8: 70.93, 6: 69.83, 5: 69.20, 4: 65.39, 3: 21.72}
        assert degradation_point(71.28, per_k, threshold=2.0) == 5
        assert degradation_point(71.28, per_k, threshold=60.0) is None

    def test_empty_curve_gives_none(self):
        assert degradation_point(90.0, {}, threshold=0.5) is None


# ---------------------------------------------------------------------------
# Shared artifacts: a tiny dataset, a trained float model, a quantized model.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("dataset")
    datagen.generate_dataset(str(path), train_count=300, test_count=100, seed=3)
    return str(path)


@pytest.fixture(scope="module")
def float_path(tmp_path_factory, data_dir, capsys_module):
    path = str(tmp_path_factory.mktemp("models") / "float.npz")
    code = main(["train-float", "--data-dir", data_dir, "--epochs", "1",
                 "--lr", "0.1", "--seed", "0", "--out", path])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, data_dir, float_path):
    path = str(tmp_path_factory.mktemp("models") / "model.rlab")
    code = main(["quantize", "--model", float_path, "--data-dir", data_dir,
                 "--out", path])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def capsys_module():
    # Module-scoped fixtures cannot use function-scoped capsys; the CLI
    # output they trigger is simply left on stdout for pytest to swallow.
    return None


def test_train_float_emits_versioned_csv(float_path, data_dir, capsys):
    # Re-run training to observe its stdout in a function-scoped capture.
    out_path = float_path + ".again"
    code = main(["train-float", "--data-dir", data_dir, "--epochs", "1",
                 "--lr", "0.1", "--seed", "0", "--out", out_path])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    lines = captured.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "epoch,loss,accuracy"
    first = lines[2].split(",")
    assert first[0] == "1"
    float(first[1]), float(first[2])  # parse


def test_identical_flags_reproduce_identical_model_bytes(float_path, data_dir,
                                                         tmp_path):
    again = str(tmp_path / "float2.npz")
    assert main(["train-float", "--data-dir", data_dir, "--epochs", "1",
                 "--lr", "0.1", "--seed", "0", "--out", again]) == EXIT_OK
    with open(float_path, "rb") as fh:
        a = fh.read()
    with open(again, "rb") as fh:
        b = fh.read()
    assert a == b


def test_quantize_is_deterministic(model_path, float_path, data_dir, tmp_path):
    again = str(tmp_path / "model2.rlab")
    assert main(["quantize", "--model", float_path, "--data-dir", data_dir,
                 "--out", again]) == EXIT_OK
    with open(model_path, "rb") as fh:
        a = fh.read()
    with open(again, "rb") as fh:
        b = fh.read()
    assert a == b


def test_float_model_is_written_under_the_name_given(float_path, data_dir, tmp_path,
                                                     capsys):
    out = tmp_path / "float.bin"
    assert main(["train-float", "--data-dir", data_dir, "--epochs", "1",
                 "--lr", "0.1", "--seed", "0", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
    assert [p.name for p in tmp_path.iterdir()] == ["float.bin"]
    with open(float_path, "rb") as fh:
        assert out.read_bytes() == fh.read()
    assert main(["quantize", "--model", str(out), "--data-dir", data_dir,
                 "--out", str(tmp_path / "model.rlab")]) == EXIT_OK


class TestSweep:
    def test_csv_shape_and_footers(self, model_path, data_dir, capsys):
        code = main(["sweep", "--model", model_path, "--data-dir", data_dir,
                     "--k-list", "32,8,2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "k,accuracy,delta_vs_base,note"
        ks = [row.split(",")[0] for row in lines[2:5]]
        assert ks == ["32", "8", "2"]
        assert lines[5].startswith("# base_accuracy=")
        assert lines[6].startswith("# degradation_point=")

    def test_identical_output_bytes_across_runs(self, model_path, data_dir,
                                                tmp_path):
        out1 = str(tmp_path / "sweep1.csv")
        out2 = str(tmp_path / "sweep2.csv")
        for out in (out1, out2):
            assert main(["sweep", "--model", model_path, "--data-dir",
                         data_dir, "--k-list", "32,4,2", "--out", out]) == EXIT_OK
        with open(out1, "rb") as fh:
            a = fh.read()
        with open(out2, "rb") as fh:
            b = fh.read()
        assert a == b

    def test_data_dir_falls_back_to_environment(self, model_path, data_dir,
                                                monkeypatch, capsys):
        monkeypatch.setenv("RESCALE_LAB_DATA", data_dir)
        code = main(["sweep", "--model", model_path, "--k-list", "32"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_missing_data_dir_is_usage_error(self, model_path, monkeypatch,
                                             capsys):
        monkeypatch.delenv("RESCALE_LAB_DATA", raising=False)
        code = main(["sweep", "--model", model_path, "--k-list", "32"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_underflow_rows_are_marked_not_fatal(self, monkeypatch):
        model = _constant_logit_model()
        images = np.zeros((4, 1, 1, 1), dtype=np.uint8)
        labels = np.zeros(4, dtype=np.int64)
        real_materialize = cli.materialize_rescalers

        def flaky(m, k):
            if k == 2:
                raise RescalerUnderflow("synthetic underflow for test")
            return real_materialize(m, k)

        monkeypatch.setattr(cli, "materialize_rescalers", flaky)
        result = run_sweep(model, images, labels, [32, 2])
        by_k = {row.k: row for row in result.rows}
        assert by_k[2].accuracy is None
        assert "underflow" in by_k[2].note
        assert by_k[32].accuracy is not None


    def test_clamp_built_model_sweeps_as_loaded(self, tmp_path, capsys):
        # conv2d -> flatten -> dense whose logit scale 2^26 underflows every
        # width; the k=32 rescalers were built with the clamp policy, and
        # re-quantizing them at k=32 would raise RescalerUnderflow.
        in_qp, mid_qp, out_qp = (QuantParams(1 / 255, -128), QuantParams(0.2, -128),
                                 QuantParams(2.0**26, 0))
        rng = np.random.default_rng(4)
        conv = _weighted("conv2d", rng.integers(-128, 128, (2, 3, 3, 1)).astype(np.int8),
                         in_qp, mid_qp, activation="relu")
        with pytest.warns(RuntimeWarning):
            dense = LayerSpec(
                kind="dense", weights=QTensor(rng.integers(-128, 128, (10, 8))
                                              .astype(np.int8), np.ones(10)),
                bias=np.zeros(10, dtype=np.int32), output=out_qp,
                rescalers=[quantize_rescaler(mid_qp.scale / out_qp.scale, 32,
                                             on_underflow="clamp")] * 10)
        model = ModelGraph("clamped", in_qp,
                           [conv, LayerSpec(kind="flatten", output=mid_qp), dense])
        model_file = str(tmp_path / "clamped.rqm")
        save_model(model, model_file)
        paths = datagen.dataset_paths(str(tmp_path))
        images = rng.integers(0, 256, (6, 4, 4)).astype(np.uint8)
        labels = np.arange(6, dtype=np.uint8)
        save_idx_images(paths["test_images"], images)
        save_idx_labels(paths["test_labels"], labels)
        code = main(["sweep", "--model", model_file, "--data-dir", str(tmp_path),
                     "--k-list", "32,8,2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        as_loaded = f"{evaluate_int(model, images, labels):.2f}"
        assert lines[2] == f"32,{as_loaded},0.00,"
        for line, k in zip(lines[3:5], ("8", "2")):
            assert line.startswith(f"{k},,,underflow: layer 2 (dense) channel 0:")
        assert lines[5] == f"# base_accuracy={as_loaded}"


class TestAnalyze:
    def test_full_width_reports_all_layers_safe(self, model_path, data_dir,
                                                capsys):
        code = main(["analyze", "--model", model_path, "--data-dir", data_dir,
                     "--k", "32"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        header = lines[1].split(",")
        assert header[0] == "layer" and header[-1] == "safe"
        rows = [line.split(",") for line in lines[2:]]
        assert rows, "expected at least one analyzed layer"
        assert all(row[-1] == "yes" for row in rows)


class TestFinetune:
    def test_zero_epochs_keeps_model_bytes(self, model_path, data_dir,
                                           tmp_path, capsys):
        out = str(tmp_path / "tuned.rlab")
        code = main(["finetune", "--model", model_path, "--data-dir", data_dir,
                     "--k", "4", "--epochs", "0", "--out", out])
        capsys.readouterr()
        assert code == EXIT_OK
        with open(model_path, "rb") as fh:
            a = fh.read()
        with open(out, "rb") as fh:
            b = fh.read()
        assert a == b

    def test_zero_learning_rate_changes_nothing(self, model_path, data_dir,
                                                tmp_path, capsys):
        out = str(tmp_path / "tuned0.rlab")
        code = main(["finetune", "--model", model_path, "--data-dir", data_dir,
                     "--k", "4", "--epochs", "1", "--lr", "0", "--out", out])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "# changed_ratio=0.000000" in captured


def _constant_logit_model():
    """Dense 1x1 model with zero weights: every class gets the same logit."""
    in_qp = QuantParams(scale=1.0 / 255.0, zero_point=-128)
    out_qp = QuantParams(scale=0.1, zero_point=0)
    w = np.zeros((10, 1), dtype=np.int8)
    bias = np.zeros(10, dtype=np.int32)
    w_scales = np.full(10, 0.5)
    flatten = LayerSpec(kind="flatten", output=in_qp)
    dense = LayerSpec(
        kind="dense",
        activation="none",
        weights=QTensor(w, w_scales),
        bias=bias,
        output=out_qp,
        rescalers=[
            quantize_rescaler(in_qp.scale * 0.5 / out_qp.scale, 32)
            for _ in range(10)
        ],
    )
    model = ModelGraph(name="tie-break", input_params=in_qp,
                       layers=[flatten, dense])
    validate_model(model)
    return model


class TestInfer:
    def test_one_class_per_line(self, model_path, data_dir, capsys):
        images = datagen.dataset_paths(data_dir)["test_images"]
        code = main(["infer", "--model", model_path, "--k", "32", images])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 100
        assert all(line.isdigit() and 0 <= int(line) <= 9 for line in lines)

    def test_all_equal_logits_tie_break_to_class_zero(self, tmp_path, capsys):
        model_file = str(tmp_path / "ties.rlab")
        save_model(_constant_logit_model(), model_file)
        idx_file = str(tmp_path / "zeros.idx")
        save_idx_images(idx_file, np.zeros((3, 1, 1), dtype=np.uint8))
        code = main(["infer", "--model", model_file, "--k", "32", idx_file])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["0", "0", "0"]


def _weighted(kind, w, in_qp, out_qp, **kwargs):
    """A weighted layer with unit weight scales and the matching k=32
    rescalers."""
    channels = w.shape[-1] if kind == "depthwise" else w.shape[0]
    return LayerSpec(kind=kind, weights=QTensor(w, np.ones(channels)),
                     bias=np.arange(channels, dtype=np.int32), output=out_qp,
                     rescalers=[quantize_rescaler(in_qp.scale / out_qp.scale, 32)]
                     * channels, **kwargs)


def _dense_only_model():
    in_qp, out_qp = QuantParams(0.01, -3), QuantParams(0.5, 2)
    w = np.random.default_rng(1).integers(-128, 128, size=(4, 6)).astype(np.int8)
    return ModelGraph("dense-only", in_qp, [_weighted("dense", w, in_qp, out_qp)])


def _strided_conv_model():
    """stride-2 SAME conv (c=2 -> 3) on 5x5 -> 3x3, flatten, dense(27 -> 4)."""
    rng = np.random.default_rng(2)
    in_qp, mid_qp, out_qp = (QuantParams(0.01, -3), QuantParams(0.2, -100),
                             QuantParams(2.0, 0))
    conv = _weighted("conv2d", rng.integers(-128, 128, (3, 3, 3, 2)).astype(np.int8),
                     in_qp, mid_qp, activation="relu", stride=(2, 2), padding="SAME")
    dense = _weighted("dense", rng.integers(-128, 128, (4, 27)).astype(np.int8),
                      mid_qp, out_qp)
    return ModelGraph("strided", in_qp,
                      [conv, LayerSpec(kind="flatten", output=mid_qp), dense])


class TestParity:
    def test_reports_pass(self, model_path, capsys):
        code = main(["parity", "--model", model_path, "--k", "4",
                     "--seed", "5", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out

    @pytest.mark.parametrize("batches", ["0", "-3"])
    def test_batch_count_below_one_is_usage_error(self, model_path, batches, capsys):
        code = main(["parity", "--model", model_path, "--k", "4", "--", batches])
        captured = capsys.readouterr()
        assert "batch count must be >= 1" in captured.err
        assert "PASS" not in captured.out
        assert code == EXIT_USAGE

    def test_desk_input_is_28_by_28(self, model_path):
        assert cli.parity_input_shape(load_model(model_path)) == (28, 28, 1)

    @pytest.mark.parametrize("build, shape", [(_dense_only_model, (6,)),
                                              (_strided_conv_model, (5, 5, 2))])
    def test_input_shape_comes_from_the_model(self, build, shape, tmp_path, capsys):
        model = build()
        validate_model(model)
        assert cli.parity_input_shape(model) == shape
        path = str(tmp_path / "m.rqm")
        save_model(model, path)
        code = main(["parity", "--model", path, "--k", "8", "2"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "parity: PASS (2 batches, k=8)\n"

    def test_without_k_checks_the_model_as_loaded(self, tmp_path, capsys):
        # Clamp-built k=32 rescalers load and run, but re-quantizing them at
        # k=32 would raise RescalerUnderflow.
        model = tiny_dense_model()
        model.layers[0].output = QuantParams(scale=2.0**26, zero_point=0)
        with pytest.warns(RuntimeWarning):
            model.layers[0].rescalers = [
                quantize_rescaler(0.5 * s / 2.0**26, 32, on_underflow="clamp")
                for s in model.layers[0].weights.qparams
            ]
        path = str(tmp_path / "underflowed.rqm")
        save_model(model, path)
        code = main(["parity", "--model", path])
        assert capsys.readouterr().out == "parity: PASS (20 batches, k=32)\n"
        assert code == EXIT_OK

    def test_no_input_fits(self):
        model = _dense_only_model()
        model.layers.insert(0, LayerSpec(kind="avgpool", window=(2, 2),
                                         output=model.input_params,
                                         rescalers=[quantize_rescaler(0.25, 32)]))
        with pytest.raises(DomainError, match="no input"):
            cli.parity_input_shape(model)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code = main(["sweep", "--model", "x", "--frobnicate", "9"])
        assert "error: unrecognized arguments: --frobnicate 9" in capsys.readouterr().err
        assert code == EXIT_USAGE

    def test_missing_required_out_is_usage_error(self, capsys):
        code = main(["gen-data"])
        err = capsys.readouterr().err
        assert "error: the following arguments are required: --out" in err
        assert code == EXIT_USAGE

    def test_bad_k_list_is_usage_error(self, model_path, data_dir, capsys):
        for k_list in ("8,banana", " ", ""):
            code = main(["sweep", "--model", model_path, "--data-dir", data_dir,
                         "--k-list", k_list])
            assert "argument --k-list" in capsys.readouterr().err
            assert code == EXIT_USAGE

    def test_reason_follows_the_usage_line(self, capsys):
        assert main(["infer", "--model", "m.rqm"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: rescale-lab infer")
        assert "error: the following arguments are required: input" in err
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_missing_model_file_is_usage_error(self, data_dir, capsys):
        code = main(["sweep", "--model", "/nonexistent/model.rlab",
                     "--data-dir", data_dir])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_corrupt_model_file_is_format_error(self, data_dir, tmp_path,
                                                capsys):
        bad = tmp_path / "bad.rlab"
        bad.write_bytes(b"this is not a model")
        code = main(["sweep", "--model", str(bad), "--data-dir", data_dir])
        capsys.readouterr()
        assert code == EXIT_FORMAT

    def test_zero_stride_model_file_is_format_error(self, model_path, tmp_path,
                                                    capsys):
        # model_to_bytes writes any graph, so the file is CRC-valid; only
        # validate_model at load time can refuse the stride.
        model = load_model(model_path)
        model.layers[0].stride = (0, 0)
        bad = tmp_path / "stride0.rlab"
        bad.write_bytes(model_to_bytes(model))
        code = main(["parity", "--model", str(bad), "2"])
        assert "stride" in capsys.readouterr().err
        assert code == EXIT_FORMAT

    @pytest.mark.parametrize("corruption", ["truncated", "short-bias"])
    def test_corrupt_float_model_is_format_error(self, float_path, data_dir, tmp_path,
                                                 capsys, corruption):
        bad = tmp_path / "float.npz"
        if corruption == "truncated":
            with open(float_path, "rb") as fh:
                bad.write_bytes(fh.read(100))
        else:  # a bias that would broadcast: only the shape check refuses it
            model = floatnet.load_float_model(float_path)
            floatnet.save_float_model(replace(model, conv1_b=np.zeros(1)), str(bad))
        out = tmp_path / "model.rlab"
        code = main(["quantize", "--model", str(bad), "--data-dir", data_dir,
                     "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_FORMAT
        assert not out.exists()

    def test_idx_dims_past_int64_are_format_error(self, tmp_path_factory, data_dir,
                                                  capsys):
        # 2**22 * 2**22 * 2**20 wraps to 0 in int64: the 16-byte header alone
        # looked like a complete file.
        path = tmp_path_factory.mktemp("huge-dims")
        src, dst = datagen.dataset_paths(data_dir), datagen.dataset_paths(str(path))
        for name in src:
            shutil.copy(src[name], dst[name])
        with open(dst["train_images"], "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, 1 << 22, 1 << 22, 1 << 20))
        code = main(["train-float", "--data-dir", str(path), "--epochs", "1",
                     "--out", str(path / "float.npz")])
        assert "payload" in capsys.readouterr().err
        assert code == EXIT_FORMAT

    @pytest.mark.usefixtures("no_training")
    @pytest.mark.parametrize("command", ["train-float", "finetune"])
    def test_label_past_nine_is_format_error(self, command, model_path, data_dir,
                                             tmp_path_factory, tmp_path, capsys):
        # One train label of 200 used to reach the loss as an IndexError.
        path = tmp_path_factory.mktemp("label-200")
        src, dst = datagen.dataset_paths(data_dir), datagen.dataset_paths(str(path))
        for name in src:
            shutil.copy(src[name], dst[name])
        (_, labels), _ = datagen.load_dataset(data_dir)
        labels = labels.copy()
        labels[17] = 200
        save_idx_labels(dst["train_labels"], labels)
        out = tmp_path / "out"
        code = main(_training_argv(command, str(path), model_path, out))
        err = capsys.readouterr().err
        assert dst["train_labels"] in err and "label 200 at index 17" in err
        assert code == EXIT_FORMAT
        assert not out.exists()

    def test_out_of_range_width_is_numeric_error(self, model_path, data_dir,
                                                 capsys):
        code = main(["finetune", "--model", model_path, "--data-dir", data_dir,
                     "--k", "64", "--epochs", "0", "--out", "/tmp/unused.rlab"])
        capsys.readouterr()
        assert code == EXIT_NUMERIC

    def test_negative_learning_rate_is_numeric_error(self, model_path,
                                                     data_dir, capsys):
        code = main(["finetune", "--model", model_path, "--data-dir", data_dir,
                     "--k", "4", "--epochs", "1", "--lr", "-2",
                     "--out", "/tmp/unused.rlab"])
        capsys.readouterr()
        assert code == EXIT_NUMERIC


def _with_empty_split(tmp_path_factory, data_dir, split):
    # The shared data set with ``split`` replaced by a valid IDX set of 0 images.
    path = tmp_path_factory.mktemp(f"empty-{split}")
    src, dst = datagen.dataset_paths(data_dir), datagen.dataset_paths(str(path))
    for name in src:
        shutil.copy(src[name], dst[name])
    save_idx_images(dst[f"{split}_images"], np.zeros((0, 28, 28), dtype=np.uint8))
    save_idx_labels(dst[f"{split}_labels"], np.zeros(0, dtype=np.uint8))
    return str(path)


@pytest.fixture(scope="module")
def empty_test_dir(tmp_path_factory, data_dir):
    return _with_empty_split(tmp_path_factory, data_dir, "test")


@pytest.fixture(scope="module")
def empty_train_dir(tmp_path_factory, data_dir):
    return _with_empty_split(tmp_path_factory, data_dir, "train")


@pytest.fixture
def no_training(monkeypatch):
    # An empty data set must stop a command before any training starts.
    def refuse(*args, **kwargs):
        raise AssertionError("training started on an empty data set")

    monkeypatch.setattr(cli, "train_float", refuse)
    monkeypatch.setattr(cli, "finetune", refuse)


def _training_argv(command, data, model_path, out):
    argv = [command, "--data-dir", data, "--epochs", "1", "--out", str(out)]
    if command == "finetune":
        argv += ["--model", model_path, "--k", "4"]
    return argv


@pytest.mark.usefixtures("no_training")
class TestEmptyTestSet:
    def test_train_float_is_numeric_error(self, empty_test_dir, tmp_path, capsys):
        out = tmp_path / "float.npz"
        code = main(_training_argv("train-float", empty_test_dir, None, out))
        assert "empty" in capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert not out.exists()

    def test_finetune_is_numeric_error(self, model_path, empty_test_dir, tmp_path,
                                       capsys):
        out = tmp_path / "tuned.rlab"
        code = main(_training_argv("finetune", empty_test_dir, model_path, out))
        assert "the test set" in capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert not out.exists()

    def test_sweep_is_numeric_error(self, model_path, empty_test_dir, capsys):
        code = main(["sweep", "--model", model_path, "--data-dir", empty_test_dir])
        assert "empty" in capsys.readouterr().err
        assert code == EXIT_NUMERIC

    def test_analyze_is_numeric_error(self, model_path, empty_test_dir, capsys):
        code = main(["analyze", "--model", model_path, "--data-dir", empty_test_dir,
                     "--k", "8"])
        assert "empty" in capsys.readouterr().err
        assert code == EXIT_NUMERIC


@pytest.mark.usefixtures("no_training")
@pytest.mark.parametrize("command", ["train-float", "finetune"])
def test_empty_train_set_is_numeric_error(command, model_path, empty_train_dir,
                                          tmp_path, capsys):
    out = tmp_path / "out"
    code = main(_training_argv(command, empty_train_dir, model_path, out))
    assert "the train set" in capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert not out.exists()


def _writing_argv(command, data, model_path, out):
    # Every command that writes one file, with valid inputs and ``out``.
    argv = {
        "train-float": ["train-float", "--data-dir", data, "--epochs", "1"],
        "quantize": ["quantize", "--model", model_path, "--data-dir", data],
        "sweep": ["sweep", "--model", model_path, "--data-dir", data],
        "analyze": ["analyze", "--model", model_path, "--data-dir", data, "--k", "8"],
        "finetune": ["finetune", "--model", model_path, "--data-dir", data,
                     "--k", "4", "--epochs", "1"],
    }[command]
    return argv + ["--out", str(out)]


@pytest.mark.usefixtures("no_training")
@pytest.mark.parametrize("command", ["train-float", "quantize", "sweep", "analyze",
                                     "finetune"])
class TestUnwritableOut:
    @pytest.fixture(autouse=True)
    def no_loading(self, monkeypatch):
        # The check must come before the command loads any data.
        def refuse(*args, **kwargs):
            raise AssertionError("data loaded before --out was checked")

        monkeypatch.setattr(cli, "_load", refuse)

    def test_missing_directory_is_usage_error(self, command, model_path, data_dir,
                                              tmp_path, capsys):
        out = tmp_path / "nodir" / "out.file"
        code = main(_writing_argv(command, data_dir, model_path, out))
        captured = capsys.readouterr()
        assert f"error: argument --out: no directory {out.parent}" in captured.err
        assert captured.out == ""
        assert code == EXIT_USAGE
        assert not out.parent.exists()

    def test_existing_directory_is_usage_error(self, command, model_path, data_dir,
                                               tmp_path, capsys):
        code = main(_writing_argv(command, data_dir, model_path, tmp_path))
        captured = capsys.readouterr()
        assert f"error: argument --out: {tmp_path} is a directory" in captured.err
        assert captured.out == ""
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []


def test_gen_data_out_is_a_directory_it_makes(tmp_path, monkeypatch, capsys):
    made = []
    monkeypatch.setattr(datagen, "generate_dataset",
                        lambda out, seed: made.append(out) or datagen.dataset_paths(out))
    out = str(tmp_path / "new" / "data")
    assert main(["gen-data", "--out", out]) == EXIT_OK
    assert made == [out]
    capsys.readouterr()
