import base64
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anomix import cli, losses
from anomix.artifact import ModelArtifact, config_hash, load_model, save_model, write_manifest
from anomix.cli import _TRAIN_KNOBS, build_parser, main
from anomix.data import (
    CHUNK_ROWS,
    NormState,
    generate_toy,
    load_csv,
    normalize_features,
    prepare_training,
    split_dataset,
    write_csv,
    write_rows,
)
from anomix.errors import ContractViolationError, CorruptArtifactError
from anomix.rng import child_seed
from anomix.scorer import build_scorer, score_batch
from anomix.training import TrainConfig, train
from tests.conftest import identity_bounds, nan_loss_at


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    write_csv(generate_toy(600, seed=21, anomaly_fraction=0.1), path)
    return path


def _train_args(toy_csv, out, command="train", **extra):
    """argv of a small run; `anomix sweep` takes the same flags for a 1x1x1 grid."""
    args = [
        command, "--data", str(toy_csv), "--label-col", "label",
        "--labeled-anomalies", "10", "--contamination", "0.03",
        "--epochs", "4", "--batches-per-epoch", "4", "--batch-size", "8",
        "--rep-dim", "16", "--seed", "5", "--out", str(out),
    ]
    for key, value in extra.items():
        args += [key, str(value)]
    return args


def test_train_happy_path(toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_args(toy_csv, out)) == 0
    assert (out / "model.json").exists()
    assert (out / "history.json").exists()
    assert (out / "test_split.csv").exists()
    manifest = json.loads((out / "train_manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 5
    assert len(manifest["config_hash"]) == 64
    assert manifest["dataset_fingerprint"]
    history = json.loads((out / "history.json").read_text())
    assert len(history) == 4
    assert all("seconds" not in rec for rec in history)  # timing lives in the manifest
    epoch_seconds = manifest["metrics"]["epoch_seconds"]
    assert len(epoch_seconds) == 4
    assert all(isinstance(s, float) and s >= 0.0 for s in epoch_seconds)
    assert manifest["metrics"]["zero_feature_epochs"] == 0


def test_last_epoch_returns_the_last_epochs_weights(toy_csv, tmp_path, capsys):
    best, last = tmp_path / "best", tmp_path / "last"
    assert main(_train_args(toy_csv, best)) == 0
    assert main([*_train_args(toy_csv, last), "--last-epoch"]) == 0
    status = capsys.readouterr().out
    val = [rec["val_auc_pr"] for rec in json.loads((best / "history.json").read_text())]
    # On this input the best validation epoch is not the last one, so the two runs differ.
    assert max(val) > val[-1]
    assert (last / "history.json").read_bytes() == (best / "history.json").read_bytes()
    # Each run prints the validation AUC-PR of the weights it returns.
    assert f"best validation AUC-PR: {max(val):.4f}\n" in status
    assert f"final validation AUC-PR: {val[-1]:.4f}\n" in status

    prepared = prepare_training(split_dataset(load_csv(toy_csv, "label"), 5),
                                labeled_anomalies=10, contamination=0.03, seed=5)
    expected, _history = train(prepared, TrainConfig(n_epoch=4, n_batch=4, batch_size=8,
                                                     rep_dim=16, seed=5, select_best=False))
    flat = expected.flat.tobytes()
    assert load_model(last / "model.json").params.flat.tobytes() == flat
    assert load_model(best / "model.json").params.flat.tobytes() != flat


def _progress_line(record) -> str:
    """The stderr line `train --verbose` prints for one history.json record."""
    feat = f" loss_feature={record['loss_feature']:.4f}" if record["loss_feature"] is not None else ""
    val = f" val_auc_pr={record['val_auc_pr']:.4f}" if record["val_auc_pr"] is not None else ""
    return (f"epoch {record['epoch']}: loss_scoring={record['loss_scoring']:.4f}{feat} "
            f"w={record['weight']:.3f}{val}")


def test_verbose_prints_each_epoch_and_writes_the_same_files(toy_csv, tmp_path, capsys):
    quiet, verbose = tmp_path / "quiet", tmp_path / "verbose"
    assert main(_train_args(toy_csv, quiet)) == 0
    quiet_run = capsys.readouterr()
    assert main([*_train_args(toy_csv, verbose), "--verbose"]) == 0
    verbose_run = capsys.readouterr()
    assert quiet_run.err == ""
    history = json.loads((verbose / "history.json").read_text())
    assert len(history) == 4
    assert verbose_run.err.splitlines() == [_progress_line(record) for record in history]
    assert verbose_run.out == quiet_run.out.replace(str(quiet), str(verbose))
    outputs = [json.loads((run / "train_manifest.json").read_text())["outputs"]
               for run in (quiet, verbose)]
    assert sorted(outputs[0]) == sorted(outputs[1]) == ["history", "model", "test_split"]
    for name in outputs[0]:
        assert Path(outputs[0][name]).read_bytes() == Path(outputs[1][name]).read_bytes(), name


def test_zero_epochs_save_the_initial_weights_and_an_empty_history(toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_args(toy_csv, out, **{"--epochs": 0})) == 0
    run = capsys.readouterr()
    assert (run.out, run.err) == (f"model written to {out / 'model.json'}\n", "")
    assert json.loads((out / "history.json").read_text()) == []
    metrics = json.loads((out / "train_manifest.json").read_text())["metrics"]
    assert metrics == {"epochs_run": 0, "final_loss_scoring": None, "final_loss_feature": None,
                       "final_val_auc_pr": None, "best_val_auc_pr": None,
                       "zero_feature_epochs": 0, "epoch_seconds": []}
    initial = build_scorer(load_csv(toy_csv, "label").n_features, 16, seed=child_seed(5, "init"))
    assert load_model(out / "model.json").params.flat.tobytes() == initial.flat.tobytes()


def test_no_regularizer_prints_and_records_no_feature_loss(toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    argv = _train_args(toy_csv, out, **{"--ablation": "no_regularizer", "--epochs": 2})
    assert main([*argv, "--verbose"]) == 0
    lines = capsys.readouterr().err.splitlines()
    history = json.loads((out / "history.json").read_text())
    assert lines == [_progress_line(record) for record in history] and len(lines) == 2
    assert all("loss_feature=" not in line and " w=1.000" in line for line in lines)
    metrics = json.loads((out / "train_manifest.json").read_text())["metrics"]
    assert metrics["final_loss_feature"] is None
    assert metrics["zero_feature_epochs"] == 0


def test_a_validation_split_without_anomalies_selects_nothing(tmp_path, capsys):
    # 4 anomalies in 300 rows split 4/0/0: validation and test hold normal rows only,
    # so no epoch has a validation AUC-PR and the last epoch's weights come back.
    data = tmp_path / "few.csv"
    write_csv(generate_toy(300, seed=3, anomaly_fraction=4 / 300), data)
    best, last = tmp_path / "best", tmp_path / "last"
    argv = ["train", "--data", str(data), "--label-col", "label", "--labeled-anomalies", "2",
            "--epochs", "3", "--batches-per-epoch", "2", "--batch-size", "8",
            "--rep-dim", "8", "--seed", "2"]
    assert main([*argv, "--out", str(best), "--verbose"]) == 0
    run = capsys.readouterr()
    history = json.loads((best / "history.json").read_text())
    assert [record["val_auc_pr"] for record in history] == [None, None, None]
    metrics = json.loads((best / "train_manifest.json").read_text())["metrics"]
    assert metrics["best_val_auc_pr"] is None
    assert metrics["final_val_auc_pr"] is None
    assert run.out == f"model written to {best / 'model.json'}\n"
    assert run.err.splitlines() == [_progress_line(record) for record in history]
    assert "val_auc_pr" not in run.err
    assert load_csv(best / "test_split.csv", "label").y.sum() == 0

    assert main([*argv, "--out", str(last), "--last-epoch"]) == 0
    flat = load_model(last / "model.json").params.flat.tobytes()
    assert load_model(best / "model.json").params.flat.tobytes() == flat


def _for_train_and_sweep(*cases):
    """Each case once per command that takes train's flags. A train case keeps the
    id pytest gives it by default; a sweep case's id starts with "sweep"."""
    ids = {"train": lambda case: case, "sweep": lambda case: ("sweep", *case)}
    return [pytest.param(command, *case, id="-".join(map(str, ids[command](case))))
            for command in ids for case in cases]


def test_train_rejects_zero_labeled_anomalies(toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(_train_args(toy_csv, out)[:-2] + ["--labeled-anomalies", "0", "--out", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    # A flag value out of range, like every other: the data is not read.
    assert record == {"error": "InvalidParameterError",
                      "message": "labeled_anomalies must be positive: training needs anomaly "
                                 "examples, got 0"}
    assert not out.exists()


def test_train_rejects_a_budget_the_data_cannot_meet(toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_args(toy_csv, out, **{"--labeled-anomalies": 400})) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "UnusableDatasetError",
                      "message": "labeled_anomalies asks for 400 labeled anomalies, but the "
                                 "training split holds only 36"}
    assert not out.exists()


def test_a_train_that_fails_writes_nothing(tmp_path, capsys):
    # 100 rows at a 20% anomaly share leave an unlabeled pool too small for the
    # default batch size: train() fails only after the inputs load and the data
    # protocol runs, and still nothing is written.
    data = tmp_path / "data"
    assert main(["synth", "--kind", "toy", "--n", "100", "--anomaly-fraction", "0.2",
                 "--out", str(data)]) == 0
    out = tmp_path / "run"
    assert main(["train", "--data", str(data / "toy.csv"), "--label-col", "label",
                 "--labeled-anomalies", "5", "--epochs", "1", "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "UnusableDatasetError",
                      "message": "training requires an unlabeled pool of at least "
                                 "2 * batch_size = 64 rows, got 49"}
    assert not out.exists()


@pytest.mark.parametrize("loss, message", [
    ("scoring_loss_graph", "scoring loss diverged at epoch 1, batch 2"),
    ("feature_regularizer_graph", "feature regularizer diverged at epoch 1, batch 2"),
])
def test_a_diverged_train_is_one_error_record_and_writes_nothing(loss, message, toy_csv,
                                                                 tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(f"anomix.losses.{loss}", nan_loss_at(getattr(losses, loss), 1))
    out = tmp_path / "run"
    assert main(_train_args(toy_csv, out)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in err] == [{"error": "TrainingDivergedError",
                                                   "message": message}]
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", _for_train_and_sweep(
    ("--batch-size", 0), ("--contamination", 0.7), ("--rep-dim", 1),
    ("--k", 17),  # above 2 * batch_size = 16
))
def test_train_checks_its_flags_before_writing(command, flag, value, toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_args(toy_csv, out, command, **{flag: value})) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "InvalidParameterError"
    assert not (out / "test_split.csv").exists()
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_label_only_csv_is_refused_before_writing(command, tmp_path, capsys):
    # No feature column leaves the scorer no input width. Checked with the flags, it
    # stops a sweep that would otherwise record the error in every cell and exit 0.
    data = tmp_path / "labels.csv"
    labels = generate_toy(600, seed=21, anomaly_fraction=0.1).y.tolist()
    write_rows(data, ["label"], [[y] for y in labels])
    out = tmp_path / "run"
    assert main(_train_args(data, out, command)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in err] == [{
        "error": "UnusableDatasetError",
        "message": f"{data}: no feature column besides 'label'"}]
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, expected", _for_train_and_sweep(
    ("--contamination", 0.7, "contamination must lie in [0, 0.5), got 0.7"),
    ("--epochs", -1, "n_epoch must be >= 0, got -1"),
    ("--rep-dim", 0, "rep_dim must be >= 2, got 0"),
    # inf passes a `> 0` check, and a run would then diverge or fail to save its JSON.
    *((f"--{name}", "inf", f"{name} must be positive and finite, got inf")
      for name in ("lr", "alpha", "margin", "temperature")),
    ("--temperature", "nan", "temperature must be positive and finite, got nan"),
    ("--weight-decay", "inf", "weight_decay must be finite and >= 0, got inf"),
    ("--weight-decay", "nan", "weight_decay must be finite and >= 0, got nan"),
    # At the default lr of 0.005 Adam would scale every weight by 1 - 1.5 = -0.5.
    ("--weight-decay", 300, "weight_decay times lr = 0.005 must be < 1, got 300.0"),
))
def test_train_error_states_the_value_and_the_limit(command, flag, value, expected, toy_csv,
                                                    tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_args(toy_csv, out, command, **{flag: value})) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in err] == [{"error": "InvalidParameterError",
                                                   "message": expected}]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "synth-toy", "synth-novel", "sweep"])
def test_negative_seed_is_an_error_record_and_writes_nothing(command, toy_csv, tmp_path, capsys):
    out = tmp_path / "out"
    if command.startswith("synth"):
        argv = ["synth", "--kind", command.split("-")[1], "--seed", "-1", "--out", str(out)]
    else:
        argv = _train_args(toy_csv, out, command, **{"--seed": -1})
    assert main(argv) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "InvalidParameterError"
    assert "seed" in record["message"] and "negative" in record["message"]
    assert not out.exists()


def test_every_train_config_field_is_a_train_flag_and_a_sweep_key():
    # seed is set by --seed, select_best by --last-epoch, every other field by a knob flag.
    fields = {field for field, _help in _TRAIN_KNOBS.values()}
    assert {f.name for f in dataclasses.fields(TrainConfig)} == fields | {"seed", "select_best"}
    for command in ("train", "sweep"):
        args = build_parser().parse_args([command, "--data", "d.csv", "--label-col", "y"])
        knobs = {field: getattr(args, name) for name, (field, _help) in _TRAIN_KNOBS.items()}
        # Each flag's default is TrainConfig()'s.
        assert TrainConfig(**knobs, seed=args.seed, select_best=not args.last_epoch) == TrainConfig()


_TRAIN_DEFAULTS = {"out": None, "seed": 0, "epochs": 50, "batches_per_epoch": 20,
                   "batch_size": 32, "lr": 0.005, "rep_dim": 128, "k": 2, "alpha": 0.5,
                   "margin": 1.0, "temperature": 2.0, "weight_decay": 1e-05, "ablation": "full",
                   "last_epoch": False}


# Minimal argv -> everything it parses to besides "command": every flag and default.
_PARSED = {
    ("train", "--data", "d.csv", "--label-col", "y"):
        {**_TRAIN_DEFAULTS, "data": "d.csv", "label_col": "y", "labeled_anomalies": 30,
         "contamination": 0.02, "verbose": False, "func": cli.cmd_train},
    ("sweep", "--data", "d.csv", "--label-col", "y"):
        {**_TRAIN_DEFAULTS, "data": "d.csv", "label_col": "y", "labeled_anomalies": [30],
         "contamination": [0.02], "repeats": 1, "func": cli.cmd_sweep},
    ("evaluate", "--model", "m.json", "--data", "d.csv", "--label-col", "y"):
        {"out": None, "model": "m.json", "data": "d.csv", "label_col": "y",
         "func": cli.cmd_evaluate},
    ("score", "--model", "m.json", "--data", "d.csv"):
        {"out": None, "model": "m.json", "data": "d.csv", "label_col": None,
         "func": cli.cmd_score},
    ("synth", "--kind", "toy"):
        {"out": None, "kind": "toy", "n": 5000, "seed": 0, "anomaly_fraction": 0.05,
         "func": cli.cmd_synth},
}


@pytest.mark.parametrize("argv", list(_PARSED), ids=lambda argv: argv[0])
def test_each_command_parses_its_flags_and_defaults(argv):
    assert vars(build_parser().parse_args(argv)) == {"command": argv[0], **_PARSED[argv]}


def test_train_determinism_byte_identical(toy_csv, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(toy_csv, out1)) == 0
    assert main(_train_args(toy_csv, out2)) == 0
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
    assert (out1 / "history.json").read_bytes() == (out2 / "history.json").read_bytes()


def test_evaluate_on_held_out_split(toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    main(_train_args(toy_csv, out))
    capsys.readouterr()
    code = main([
        "evaluate", "--model", str(out / "model.json"),
        "--data", str(out / "test_split.csv"), "--label-col", "label",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["auc_roc"] <= 1.0
    assert 0.0 <= payload["auc_pr"] <= 1.0
    assert (out / "evaluate_manifest.json").exists()

    # identical report on a second invocation
    main([
        "evaluate", "--model", str(out / "model.json"),
        "--data", str(out / "test_split.csv"), "--label-col", "label",
        "--out", str(out),
    ])
    assert json.loads(capsys.readouterr().out) == payload


def test_evaluate_requires_label_column(toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    main(_train_args(toy_csv, out))
    code = main([
        "evaluate", "--model", str(out / "model.json"),
        "--data", str(out / "test_split.csv"), "--label-col", "missing",
        "--out", str(out),
    ])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "DatasetError"


def test_score_outputs_rows_in_order(toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    main(_train_args(toy_csv, out))
    code = main([
        "score", "--model", str(out / "model.json"),
        "--data", str(out / "test_split.csv"), "--label-col", "label",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "scores.csv").read_text().strip().splitlines()
    assert lines[0] == "row_index,score"
    test_rows = load_csv(out / "test_split.csv", "label").n_rows
    assert len(lines) == test_rows + 1
    scores = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(-1.0 < s < 1.0 for s in scores)
    indices = [int(line.split(",")[0]) for line in lines[1:]]
    assert indices == list(range(test_rows))


def test_score_rejects_rows_that_normalize_to_non_finite(tmp_path, capsys):
    # A span of 1e-10 sends the finite cell 1e300 past the float range.
    model = tmp_path / "model.json"
    save_model(ModelArtifact(build_scorer(2, 4, seed=0), NormState([0.0, 0.0], [1e-10, 1.0]),
                             {}, 0), model)
    data = tmp_path / "rows.csv"
    write_rows(data, ["a", "b"], [[0.5e-10, 0.5]] * 6 + [[1e300, 0.5]])
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would fail here
        code = main(["score", "--model", str(model), "--data", str(data), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "DatasetError",
        "message": "input row 6, feature 0 became non-finite when scaled by the min-max bounds"}
    assert not (out / "scores.csv").exists()


def test_score_refuses_bounds_whose_span_overflows(tmp_path, capsys):
    # Each bound is finite, their span is not: every finite value of feature 0 would
    # scale to 0, so rows differing only there would share one score.
    model = tmp_path / "model.json"
    save_model(ModelArtifact(build_scorer(2, 4, seed=0),
                             NormState([-1e308, 0.0], [1e308, 1.0]), {}, 0), model)
    data = tmp_path / "rows.csv"
    write_rows(data, ["a", "b"], [[x, 0.5] for x in (-1e308, -1.0, 0.0, 1.0, 1e300)])
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would fail here
        code = main(["score", "--model", str(model), "--data", str(data), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in err] == [{
        "error": "DatasetError",
        "message": "the min-max bounds of feature 0 span (max - min) beyond the float64 range"}]
    assert not out.exists()


def test_train_names_a_feature_whose_span_overflows(tmp_path, capsys):
    toy = generate_toy(600, seed=1)
    toy.X[::2, 3], toy.X[1::2, 3] = 1.5e308, -1.5e308  # each finite, their span is not
    data = tmp_path / "huge.csv"
    write_csv(toy, data)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would fail here
        code = main(_train_args(data, out))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "DatasetError",
        "message": "the min-max bounds of feature 3 span (max - min) beyond the float64 range"}
    assert not (out / "model.json").exists()


def test_score_empty_input_gives_header_only(toy_csv, tmp_path):
    out = tmp_path / "run"
    main(_train_args(toy_csv, out))
    empty = tmp_path / "empty.csv"
    header = ",".join(f"f{i}" for i in range(10))
    empty.write_text(header + "\n", encoding="utf-8")
    assert main(["score", "--model", str(out / "model.json"),
                 "--data", str(empty), "--out", str(out)]) == 0
    assert (out / "scores.csv").read_text().strip() == "row_index,score"


# scores.csv holds CHUNK_ROWS // 2 rows per write.
@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS // 2 - 1, CHUNK_ROWS // 2, CHUNK_ROWS // 2 + 1,
                               CHUNK_ROWS, CHUNK_ROWS + 1])
def test_scores_csv_has_the_bytes_csv_writer_gives(n, tmp_path):
    model = tmp_path / "model.json"
    norm = NormState([-2.0, -2.0], [2.0, 2.0])
    save_model(ModelArtifact(build_scorer(2, 8, seed=3), norm, {}, 0), model)
    X = np.random.default_rng(n).normal(size=(n, 2))
    data = tmp_path / "rows.csv"
    write_rows(data, ["a", "b"], X.tolist())
    out = tmp_path / "run"
    assert main(["score", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
    scores = score_batch(load_model(model).params, normalize_features(X, norm))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["row_index", "score"])
    writer.writerows(enumerate(scores.tolist()))
    assert (out / "scores.csv").read_bytes() == expected.getvalue().encode("utf-8")


def test_quoted_twins_score_as_the_unquoted_file(tmp_path, capsys, monkeypatch):
    # One model scores a 10000-row file, a copy with every field quoted and a copy with
    # one cell quoted in row 6000, inside the second CHUNK_ROWS-line chunk. Ingest hands
    # over to csv.reader never, at the first chunk or at the second.
    from anomix.data import _parse_lines as parse

    assert CHUNK_ROWS < 5999 <= 2 * CHUNK_ROWS  # row 6000 of the file, the header being row 1
    plain = tmp_path / "toy.csv"
    write_csv(generate_toy(10000, seed=1), plain)
    with open(plain, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(tmp_path / "all.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
    rows[5999][0] = f'"{rows[5999][0]}"'
    (tmp_path / "one.csv").write_bytes("".join(",".join(row) + "\r\n" for row in rows).encode())
    taken = []

    def spy(chunk, *args):
        block = parse(chunk, *args)
        taken.append(block is not None)
        return block

    monkeypatch.setattr("anomix.data._parse_lines", spy)
    model = _untrained_model(tmp_path, 1)
    scores = {}
    for name, fast in (("toy", [True, True, True]), ("all", [False]), ("one", [True, False])):
        taken.clear()
        out = tmp_path / f"scores-{name}"
        assert main(["score", "--model", model, "--data", str(tmp_path / f"{name}.csv"),
                     "--label-col", "label", "--out", str(out)]) == 0
        assert taken == fast, name
        scores[name] = (out / "scores.csv").read_bytes()
    assert scores["all"] == scores["toy"]
    assert scores["one"] == scores["toy"]


def test_synth_round_trips(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--kind", "toy", "--n", "200", "--seed", "3",
                 "--out", str(out)]) == 0
    ds = load_csv(out / "toy.csv", "label")
    assert ds.n_rows == 200 and ds.n_features == 10

    assert main(["synth", "--kind", "novel", "--n", "150", "--seed", "3",
                 "--out", str(out)]) == 0
    assert load_csv(out / "novel_train.csv", "label").n_rows == 150
    assert load_csv(out / "novel_test.csv", "label").n_rows == 150


def test_out_dir_env_var(toy_csv, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("ANOMIX_OUT", str(target))
    args = _train_args(toy_csv, "ignored")
    args = args[:args.index("--out")]  # drop the explicit --out
    assert main(args) == 0
    assert (target / "model.json").exists()


# -- persistence ------------------------------------------------------------------


def test_save_load_round_trip_is_bit_exact(tmp_path, rng):
    params = build_scorer(6, 12, seed=9)
    artifact = ModelArtifact(params=params, norm_state=identity_bounds(6),
                             train_config={"seed": 9}, seed=9)
    path = tmp_path / "model.json"
    save_model(artifact, path)
    loaded = load_model(path)
    X = rng.uniform(0, 1, size=(40, 6))
    assert np.array_equal(score_batch(params, X), score_batch(loaded.params, X))
    assert loaded.seed == 9


def test_load_rejects_truncated_file(tmp_path):
    params = build_scorer(4, 8, seed=1)
    path = tmp_path / "model.json"
    save_model(ModelArtifact(params, identity_bounds(4), {}, 1), path)
    path.write_text(path.read_text()[: path.stat().st_size // 2], encoding="utf-8")
    with pytest.raises(CorruptArtifactError):
        load_model(path)


def _first_bits(bits: bytes):
    """An edit of a layer's base64 text: its first 8 bytes replaced by `bits`."""
    return lambda text: base64.b64encode(bits + base64.b64decode(text)[8:]).decode("ascii")


def test_load_rejects_nan_weight(tmp_path):
    params = build_scorer(4, 8, seed=1)
    path = tmp_path / "model.json"
    save_model(ModelArtifact(params, identity_bounds(4), {}, 1), path)
    payload = json.loads(path.read_text())
    layer = payload["layers"]["rep_hidden"]
    # a signalling NaN: its bits are not those of float("nan")
    layer["weights"] = _first_bits(struct.pack("<Q", 0x7FF0000000000001))(layer["weights"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptArtifactError, match="layer 'rep_hidden' holds non-finite"):
        load_model(path)


def test_load_rejects_version_and_shape_tampering(tmp_path):
    params = build_scorer(4, 8, seed=1)
    path = tmp_path / "model.json"
    save_model(ModelArtifact(params, identity_bounds(4), {}, 1), path)

    bad = tmp_path / "versioned.json"
    # A version-1 file, whose layers are decimal lists. 2.0 compares equal to 2, but no
    # anomix writer produces it.
    v1 = json.loads(path.read_text())
    v1["layers"] = {name: {"weights": layer.weights.tolist(), "bias": layer.bias.tolist()}
                    for name, layer in params.named_layers()}
    for version in (99, True, 1.0, 2.0, 1):
        bad.write_text(json.dumps({**v1, "format_version": version}), encoding="utf-8")
        message = f"{bad}: format version {version!r} unsupported (expected 2)"
        with pytest.raises(CorruptArtifactError, match=f"^{re.escape(message)}$"):
            load_model(bad)

    payload = json.loads(path.read_text())
    # score_out is (1, 4): three values are 24 bytes, not 32
    payload["layers"]["score_out"]["weights"] = base64.b64encode(
        struct.pack("<3d", 1.0, 2.0, 3.0)).decode("ascii")
    bad2 = tmp_path / "shapes.json"
    bad2.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptArtifactError, match="layer 'score_out' weights holds 24 bytes"):
        load_model(bad2)

    # Swapped min-max bounds would scale every such feature to 0.
    save_model(ModelArtifact(params, NormState([0.0, -1.0, 2.0, 0.0], [1.0, 1.0, 2.0, 3.0]),
                             {}, 1), path)
    payload = json.loads(path.read_text())
    norm = payload["normalization"]
    norm["min"], norm["max"] = norm["max"], norm["min"]
    bad3 = tmp_path / "bounds.json"
    bad3.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptArtifactError, match="min above the max"):
        load_model(bad3)


@pytest.mark.parametrize("d, h", [(1, 2), (4, 8)])  # (1, 2) has 1x1 layers
# None stands for identity bounds; the other pair has min <= max, as load_model requires,
# with -0.0 against 0.0 and a tied pair
@pytest.mark.parametrize("bounds", [None, ([-0.0, 5e-324, 2.5, 1e300], [0.0, 1.0, 2.5, 1e300])])
def test_model_json_has_the_bytes_json_dumps_gives(d, h, bounds, tmp_path):
    params = build_scorer(d, h, seed=3)
    params.flat[:4] = [-0.0, 5e-324, 1e300, -1e-300]
    norm = identity_bounds(d) if bounds is None else NormState(bounds[0][:d], bounds[1][:d])
    config = {"lr": 0.001}
    path = tmp_path / "model.json"
    save_model(ModelArtifact(params, norm, config, 4), path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=1, allow_nan=False)
    # each layer array is the base64 of its little-endian float64 bytes, row-major
    stored = json.loads(text)["layers"]["rep_hidden"]["weights"]
    assert base64.b64decode(stored) == params.rep_hidden.weights.astype("<f8").tobytes()
    loaded = load_model(path)
    assert loaded.params.flat.tobytes() == params.flat.tobytes()
    assert loaded.train_config == config
    assert loaded.norm_state.mins.tobytes() == norm.mins.tobytes()
    assert loaded.norm_state.maxs.tobytes() == norm.maxs.tobytes()


# A layer value is checked in order: a string, valid base64, 8 bytes per value of the
# layer's shape, every value finite. `value` is the new value, or an edit of the saved one.
@pytest.mark.parametrize("key, value, named", [
    pytest.param("layers.rep_out.weights", [0.5, 0.25], "layer 'rep_out' weights is list",
                 id="list"),
    pytest.param("layers.score_out.bias", True, "layer 'score_out' bias is bool", id="bool"),
    # one character inserted: a decoder that skipped it would read the saved bytes
    pytest.param("layers.rep_hidden.weights", lambda text: text[:4] + "*" + text[4:],
                 "layer 'rep_hidden' weights is not valid base64", id="non-alphabet"),
    pytest.param("layers.score_hidden.bias", lambda text: text[:4] + "\u00e9" + text[4:],
                 "layer 'score_hidden' bias is not valid base64", id="non-ascii"),
    # score_out's bias is one value, 8 bytes, so its text ends in one "="
    pytest.param("layers.score_out.bias", lambda text: text.removesuffix("="),
                 "layer 'score_out' bias is not valid base64", id="bad-padding"),
    pytest.param("layers.rep_out.bias",
                 lambda text: base64.b64encode(base64.b64decode(text)[:-8]).decode("ascii"),
                 "layer 'rep_out' bias holds 56 bytes, not the 64", id="8-bytes-short"),
    pytest.param("layers.score_hidden.weights",
                 lambda text: base64.b64encode(base64.b64decode(text) + bytes(8)).decode("ascii"),
                 "layer 'score_hidden' weights holds 264 bytes, not the 256", id="8-bytes-long"),
    pytest.param("layers.rep_hidden.bias", _first_bits(struct.pack("<d", math.nan)),
                 "layer 'rep_hidden' holds non-finite values", id="nan-bits"),
    pytest.param("layers.score_out.weights", _first_bits(struct.pack("<d", -math.inf)),
                 "layer 'score_out' holds non-finite values", id="inf-bits"),
    pytest.param("normalization.min.0", None,
                 "normalization bounds hold a value that is not a number (read as object)",
                 id="null-bound"),
    # 1e999 reads as inf
    pytest.param("normalization.max.2", "BIG", "normalization bounds hold non-finite",
                 id="infinite-bound"),
])
def test_score_rejects_a_model_with_malformed_numbers(key, value, named, toy_csv, tmp_path,
                                                       capsys):
    X = load_csv(toy_csv, "label").X
    path = tmp_path / "model.json"
    save_model(ModelArtifact(build_scorer(X.shape[1], 8, seed=1),
                             NormState(X.min(axis=0), X.max(axis=0)), {}, 1), path)
    payload = json.loads(path.read_text())
    *parents, last = key.split(".")
    block = payload
    for name in parents:
        block = block[int(name)] if isinstance(block, list) else block[name]
    last = int(last) if isinstance(block, list) else last
    block[last] = value(block[last]) if callable(value) else value
    path.write_text(json.dumps(payload).replace('"BIG"', "1e999"), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["score", "--model", str(path), "--data", str(toy_csv), "--label-col", "label",
            "--out", str(out)]
    assert main(argv) == 1
    [line] = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "CorruptArtifactError"
    assert named in record["message"]
    assert not out.exists()


# JSON integers are numbers, a bool among them and any up to 2**64 - 1: such bounds build a
# NormState, and load from a model file, as the float64 values float() gives them.
def test_integer_bounds_load_as_their_float64_values(tmp_path):
    mins, maxs = [1, 1, True, 0], [2**64 - 1, 2, 2, 2**63]
    expected = np.array([float(v) for v in mins]), np.array([float(v) for v in maxs])
    path = tmp_path / "model.json"
    save_model(ModelArtifact(build_scorer(4, 8, seed=1), identity_bounds(4), {}, 1), path)
    payload = json.loads(path.read_text())
    payload["normalization"] = {"min": mins, "max": maxs}
    path.write_text(json.dumps(payload), encoding="utf-8")
    for state in (NormState(mins, maxs), load_model(path).norm_state):
        assert state.mins.tobytes() == expected[0].tobytes()
        assert state.maxs.tobytes() == expected[1].tobytes()


# JSON has no NaN or Infinity, though Python's json reads both tokens; a file that holds
# one is refused by its name.
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("block", ["normalization", "train_config"])
def test_load_refuses_a_non_finite_token_by_the_file_name(block, token, tmp_path):
    path = tmp_path / "model.json"
    save_model(ModelArtifact(build_scorer(4, 8, seed=1), identity_bounds(4), {"lr": 0.001}, 1),
               path)
    payload = json.loads(path.read_text())
    if block == "normalization":
        payload["normalization"]["min"][0] = "TOKEN"
    else:
        payload["train_config"]["lr"] = "TOKEN"
    path.write_text(json.dumps(payload).replace('"TOKEN"', token), encoding="utf-8")
    with pytest.raises(CorruptArtifactError) as caught:
        load_model(path)
    assert str(caught.value) == f"{path}: not valid JSON (non-finite value {token!r})"


def test_load_rejects_seed_and_train_config_tampering(tmp_path):
    params = build_scorer(4, 8, seed=1)
    path = tmp_path / "model.json"
    save_model(ModelArtifact(params, identity_bounds(4), {}, 1), path)
    bad = tmp_path / "tampered.json"
    missing = object()
    for key, value in (("seed", "abc"), ("seed", None), ("seed", 1.5), ("seed", missing),
                       ("train_config", [1, 2]), ("train_config", missing),
                       ("architecture.d_in", 3.9), ("architecture.d_in", "4"),
                       ("architecture.d_in", 0), ("architecture.h1", None),
                       ("architecture.rep_dim", True), ("architecture.rep_dim", 1),
                       ("architecture.slope", "0.01"), ("architecture.slope", True),
                       ("architecture.slope", 1.5), ("architecture.slope", 0.0),
                       ("architecture.slope", -0.2), ("architecture.slope", 0.2)):
        payload = json.loads(path.read_text())
        *parents, field = key.split(".")
        block = payload[parents[0]] if parents else payload
        if value is missing:
            del block[field]
        else:
            block[field] = value
        bad.write_text(json.dumps(payload), encoding="utf-8")
        # The error names the file and the field.
        with pytest.raises(CorruptArtifactError, match=re.escape(str(bad)) + ".*" + field):
            load_model(bad)


def _untrained_model(tmp_path, seed):
    path = tmp_path / f"untrained_{seed}.json"
    save_model(ModelArtifact(build_scorer(10, 8, seed=seed), identity_bounds(10), {}, seed),
               path)
    return str(path)


def _sweep_args(toy_csv, out, seed, *grid):
    """argv of a short sweep over `grid` flags, one 0.02 x 5 cell by default."""
    return ["sweep", "--data", str(toy_csv), "--label-col", "label",
            "--contamination", "0.02", "--labeled-anomalies", "5", "--seed", str(seed),
            "--epochs", "1", "--batches-per-epoch", "2", "--batch-size", "8", "--rep-dim", "8",
            "--out", str(out), *grid]


# Output file -> a call writing it into `out`, whose bytes depend on `seed`. The
# calls through `main` return its exit code; the others are library writers.
_WRITE_SITES = {
    "model.json": lambda tmp_path, toy_csv, out, seed: save_model(
        ModelArtifact(build_scorer(4, 8, seed=seed), identity_bounds(4), {}, seed),
        out / "model.json"),
    "manifest.json": lambda tmp_path, toy_csv, out, seed: write_manifest(
        out / "manifest.json", command="train", config={}, dataset_fingerprint=None,
        seed=seed, metrics={}, wall_clock_s=0.0, outputs={}),
    "data.csv": lambda tmp_path, toy_csv, out, seed: write_csv(
        generate_toy(60, seed=seed), out / "data.csv"),
    "scores.csv": lambda tmp_path, toy_csv, out, seed: main([
        "score", "--model", _untrained_model(tmp_path, seed), "--data", str(toy_csv),
        "--label-col", "label", "--out", str(out)]),
    "metrics.json": lambda tmp_path, toy_csv, out, seed: main([
        "evaluate", "--model", _untrained_model(tmp_path, seed), "--data", str(toy_csv),
        "--label-col", "label", "--out", str(out)]),
    "history.json": lambda tmp_path, toy_csv, out, seed: main(
        _train_args(toy_csv, out, **{"--seed": seed})),
    "sweep_results.csv": lambda tmp_path, toy_csv, out, seed: main(
        _sweep_args(toy_csv, out, seed)),
}


_CLI_WRITES = ("history.json", "metrics.json", "scores.csv", "sweep_results.csv")


@pytest.mark.parametrize("target", sorted(_WRITE_SITES))
def test_failed_write_leaves_previous_file_intact(target, toy_csv, tmp_path, monkeypatch,
                                                  capsys):
    out = tmp_path / "out"
    out.mkdir()
    write = _WRITE_SITES[target]
    write(tmp_path, toy_csv, out, 1)
    before = (out / target).read_bytes()
    real_replace = os.replace

    def fail(src, dst):
        if os.path.basename(dst) == target:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail)
    if target in _CLI_WRITES:
        capsys.readouterr()
        assert write(tmp_path, toy_csv, out, 2) == 1
        [line] = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": "OSError", "message": "disk full"}
    else:
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, toy_csv, out, 2)
    assert (out / target).read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    monkeypatch.undo()  # the second write does change the file once the rename works
    write(tmp_path, toy_csv, out, 2)
    assert (out / target).read_bytes() != before


@pytest.mark.parametrize("command, last", [
    ("train", "history.json"), ("evaluate", "metrics.json"), ("score", "scores.csv"),
    ("sweep", "sweep_results.csv"),
])
def test_a_failed_run_leaves_no_manifest_behind(command, last, toy_csv, tmp_path, monkeypatch,
                                                capsys):
    # A seed-2 run whose last rename fails must not leave the seed-1 manifest
    # describing a directory that now holds some seed-2 files.
    out = tmp_path / "out"
    write = _WRITE_SITES[last]
    assert write(tmp_path, toy_csv, out, 1) == 0
    manifest = out / f"{command}_manifest.json"
    assert json.loads(manifest.read_text())["command"] == command
    model_before = (out / "model.json").read_bytes() if command == "train" else None
    real_replace = os.replace

    def fail(src, dst):
        if os.path.basename(dst) == last:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail)
    assert write(tmp_path, toy_csv, out, 2) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "OSError"
    if command == "train":  # the earlier outputs were replaced: the directory mixes two runs
        assert (out / "model.json").read_bytes() != model_before
    assert not manifest.exists()
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("site, blocked", [
    ("history.json", "model.json"), ("metrics.json", "metrics.json"),
    ("scores.csv", "scores.csv"), ("sweep_results.csv", "sweep_results.csv"),
])
def test_an_output_path_that_is_a_directory_is_a_json_error(site, blocked, toy_csv, tmp_path,
                                                            capsys):
    # train, evaluate, score and sweep, each with one output path taken by a directory
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert _WRITE_SITES[site](tmp_path, toy_csv, out, 1) == 1
    [line] = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "IsADirectoryError"
    assert repr(str(out / blocked)) in record["message"]
    assert (out / blocked).is_dir()
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_save_rejects_nonfinite_weights(tmp_path):
    params = build_scorer(4, 8, seed=1)
    params.rep_hidden.weights[0, 0] = np.inf
    with pytest.raises(CorruptArtifactError):
        save_model(ModelArtifact(params, identity_bounds(4), {}, 1), tmp_path / "m.json")


def _inf_weight_scorer():
    params = build_scorer(4, 8, seed=1)
    params.score_hidden.bias[2] = -np.inf
    return params


# Each artifact breaks one rule of a model file. `hand` is the same break in a
# payload written by hand, where JSON can express it.
@pytest.mark.parametrize("field, value, hand, named", [
    pytest.param("norm_state", None, {"normalization": None}, "missing normalization block",
                 id="no-bounds"),
    pytest.param("norm_state", NormState([0.0] * 3, [1.0] * 3),
                 {"normalization": {"min": [0.0] * 3, "max": [1.0] * 3}},
                 "mis-sized", id="short-bounds"),
    pytest.param("seed", True, {"seed": True}, "seed", id="seed-true"),
    pytest.param("seed", 3.0, {"seed": 3.0}, "seed", id="seed-float"),
    pytest.param("train_config", [1, 2], {"train_config": [1, 2]}, "train_config",
                 id="config-list"),
    pytest.param("params", _inf_weight_scorer(), None,
                 "layer 'score_hidden' holds non-finite values", id="inf-weight"),
    pytest.param("train_config", {"lr": np.nan}, None, "train_config", id="nan-config"),
    # json.dumps writes 1 as "1" beside the "1" key, and the tuple as a list
    pytest.param("train_config", {1: (2, 3), "a": 1, "1": 5}, None,
                 "train_config does not load back as saved", id="int-key-config"),
    pytest.param("train_config", {"a": (2, 3)}, None,
                 "train_config does not load back as saved", id="tuple-config"),
    pytest.param("seed", np.int64(3), None, "seed", id="int64-seed"),
])
def test_save_refuses_what_load_refuses(field, value, hand, named, tmp_path):
    good = ModelArtifact(build_scorer(4, 8, seed=1), identity_bounds(4), {}, 1)
    bad = dataclasses.replace(good, **{field: value})
    path = tmp_path / "model.json"

    def refused():
        with pytest.raises(CorruptArtifactError, match=re.escape(named)) as caught:
            save_model(bad, path)
        assert str(path) in str(caught.value)
        assert [p.name for p in tmp_path.iterdir()] == ([path.name] if path.exists() else [])
        return str(caught.value)

    message = refused()
    assert not path.exists()
    save_model(good, path)
    before = path.read_bytes()
    assert refused() == message
    assert path.read_bytes() == before
    if hand is not None:
        # load_model gives the same message for the same break at the same path.
        path.write_text(json.dumps({**json.loads(before), **hand}), encoding="utf-8")
        with pytest.raises(CorruptArtifactError) as caught:
            load_model(path)
        assert str(caught.value) == message


_NOT_A_NUMBER = "normalization bounds hold a value that is not a number (read as {})"


# Bounds NormState refuses, and the same break in a model file written by hand, where
# load_model gives NormState's message after the path. `hand` None writes the bounds as
# they are. No JSON number reads as nan; 1e999 reads as inf. An int past uint64 reads
# as an object, as does 10**400, which no float64 holds.
@pytest.mark.parametrize("mins, maxs, hand, message", [
    pytest.param([0.0, 2.0, 0.0, 0.0], [1.0] * 4, None,
                 "normalization bounds have a min above the max", id="swapped-bounds"),
    pytest.param([0.0, np.nan, 0.0, 0.0], [1.0] * 4,
                 {"min": [0.0] * 4, "max": [1.0, "INF", 1.0, 1.0]},
                 "normalization bounds hold non-finite values", id="nan-bound"),
    pytest.param(["0", "1"], ["1", "2"], None, _NOT_A_NUMBER.format("<U1"), id="string-bounds"),
    pytest.param([False, False], [True, True], None, _NOT_A_NUMBER.format("bool"),
                 id="bool-bounds"),
    pytest.param([None, 0.0], [1.0, 1.0], None, _NOT_A_NUMBER.format("object"), id="null-bound"),
    pytest.param([0, 0], [1, 10**20], None, _NOT_A_NUMBER.format("object"), id="past-uint64"),
    pytest.param([0, 10**400], [1, 10**401], None, _NOT_A_NUMBER.format("object"),
                 id="past-float64"),
    pytest.param([[0.0], [0.0, 1.0]], [1.0, 1.0], None,
                 "normalization bounds must be matching vectors", id="ragged-bounds"),
])
def test_norm_state_refuses_what_load_model_refuses(mins, maxs, hand, message, tmp_path):
    with pytest.raises(ContractViolationError) as caught:
        NormState(mins, maxs)
    assert str(caught.value) == message
    path = tmp_path / "model.json"
    good = ModelArtifact(build_scorer(4, 8, seed=1), identity_bounds(4), {}, 1)
    save_model(good, path)
    payload = json.loads(path.read_text())
    payload["normalization"] = hand or {"min": mins, "max": maxs}
    path.write_text(json.dumps(payload).replace('"INF"', "1e999"), encoding="utf-8")
    with pytest.raises(CorruptArtifactError) as caught:
        load_model(path)
    assert str(caught.value) == f"{path}: {message}"
    if not all(type(value) is float for value in mins + maxs):
        return  # a float64 array holds only floats, so no other break can be made in place
    # Bounds edited in place after NormState checked them still do not reach a file.
    before = path.read_bytes()
    good.norm_state.mins[:], good.norm_state.maxs[:] = mins, maxs
    with pytest.raises(CorruptArtifactError) as caught:
        save_model(good, path)
    assert str(caught.value) == f"{path}: {message}"
    assert path.read_bytes() == before


_ODD_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.5])
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | _ODD_FLOATS
# One key in eight is an int, which json.dumps writes as a string: it does not load
# back as saved.
_KEYS = st.integers(0, 7).flatmap(lambda n: st.integers(0, 9) if n == 7 else st.text(max_size=4))
_JSON_CONFIG = st.dictionaries(_KEYS, st.recursive(
    st.none() | st.booleans() | st.integers() | _FINITE | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6), max_size=4)


def _str_keys(value) -> bool:
    """Whether every dict key in `value`, at every depth, is a string."""
    if isinstance(value, dict):
        return all(isinstance(key, str) and _str_keys(item) for key, item in value.items())
    return not isinstance(value, list) or all(map(_str_keys, value))


@st.composite
def _artifacts(draw):
    d, h = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    params = build_scorer(d, h, seed=0)
    params.flat[:] = draw(hnp.arrays(np.float64, params.flat.size, elements=_FINITE))
    pairs = draw(st.lists(st.tuples(_FINITE, _FINITE).map(sorted), min_size=d, max_size=d))
    return ModelArtifact(params, NormState(*zip(*pairs)), draw(_JSON_CONFIG),
                         draw(st.integers(-2**70, 2**70)))


def _odd_artifact():
    params = build_scorer(2, 4, seed=0)
    params.flat[:3] = [-0.0, 5e-324, 1e300]
    return ModelArtifact(params, NormState([-0.0, 2.5], [0.0, 2.5]), {"lr": 1e-3}, 7)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(artifact=_artifacts())
@example(artifact=_odd_artifact())
def test_every_saved_model_loads_back_and_saves_to_the_same_bytes(artifact, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    if not _str_keys(artifact.train_config):
        with pytest.raises(CorruptArtifactError, match="train_config does not load back"):
            save_model(artifact, path)
        return
    save_model(artifact, path)
    saved = path.read_bytes()
    loaded = load_model(path)
    assert loaded.params.flat.tobytes() == artifact.params.flat.tobytes()
    assert loaded.norm_state.mins.tobytes() == artifact.norm_state.mins.tobytes()
    assert loaded.norm_state.maxs.tobytes() == artifact.norm_state.maxs.tobytes()
    assert loaded.train_config == artifact.train_config
    assert loaded.seed == artifact.seed
    save_model(loaded, path)
    assert path.read_bytes() == saved


# -- sweep -------------------------------------------------------------------------


def test_sweep_grid_and_infeasible_cells(toy_csv, tmp_path):
    out = tmp_path / "sweep"
    grid = ["--contamination", "0.0", "0.02", "0.04", "0.08", "--repeats", "3"]
    assert main(_sweep_args(toy_csv, out, 11, *grid, "--labeled-anomalies", "10", "400")) == 0
    lines = (out / "sweep_results.csv").read_text().strip().splitlines()
    assert lines[0] == "contamination,labeled_anomalies,repeat,seed,status,auc_pr,auc_roc"
    assert len(lines) == 1 + 4 * 2 * 3  # 24 grid cells
    # The 600-row file holds fewer than 400 training anomalies: that depends on the
    # data, so it is recorded per cell, not fatal.
    for cell in csv.DictReader(lines):
        assert cell["status"] == "ok" if cell["labeled_anomalies"] == "10" else (
            cell["status"] == "error: labeled_anomalies asks for 400 labeled anomalies, but the "
                              "training split holds only 36")

    # 2 * 300 rows exceed the unlabeled pool of the 600-row file: also recorded per cell.
    assert main(_sweep_args(toy_csv, out, 11, *grid, "--labeled-anomalies", "10",
                            "--batch-size", "300")) == 0
    rows = (out / "sweep_results.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4 * 3
    assert all("error: training requires an unlabeled pool of at least 2 * batch_size" in row
               for row in rows)


def test_a_sweep_cell_is_the_train_run_with_its_seed(toy_csv, tmp_path, capsys):
    assert main(_sweep_args(toy_csv, tmp_path / "sweep", 4)) == 0
    header, row = (tmp_path / "sweep" / "sweep_results.csv").read_text().splitlines()
    cell = dict(zip(header.split(","), row.split(",")))
    assert cell["status"] == "ok"
    run = tmp_path / "train"
    argv = _sweep_args(toy_csv, run, cell["seed"])
    assert main(["train", *argv[1:]]) == 0
    assert main(["evaluate", "--model", str(run / "model.json"), "--data",
                 str(run / "test_split.csv"), "--label-col", "label", "--out", str(run)]) == 0
    metrics = json.loads((run / "metrics.json").read_text())
    assert (float(cell["auc_pr"]), float(cell["auc_roc"])) == (metrics["auc_pr"],
                                                               metrics["auc_roc"])


@pytest.mark.parametrize("flags, expected", [
    # Values a flag's type admits but no run can use: a JSON error record.
    pytest.param(["--repeats", "-3"], "repeats must be >= 1, got -3", id="repeats-negative"),
    pytest.param(["--batch-size", "0"], "batch_size must be >= 1, got 0", id="batch-size-zero"),
    pytest.param(["--epochs", "-1"], "n_epoch must be >= 0, got -1", id="epochs-negative"),
    pytest.param(["--rep-dim", "1"], "rep_dim must be >= 2, got 1", id="rep-dim-one"),
    pytest.param(["--contamination", "0.02", "0.7"], "contamination must lie in [0, 0.5), got 0.7",
                 id="contamination-0.7"),
    pytest.param(["--labeled-anomalies", "5", "0"], "labeled_anomalies must be positive: training "
                 "needs anomaly examples, got 0", id="budget-zero"),
    pytest.param(["--labeled-anomalies", "-3"], "labeled_anomalies must be positive: training "
                 "needs anomaly examples, got -3", id="budget-negative"),
    # Flags argparse rejects: a usage error, exit 2.
    pytest.param(["--n-epoch", "0"], None, id="n-epoch-flag"),
    pytest.param(["--config", "sweep.json"], None, id="config-flag"),
    pytest.param(["--data"], None, id="no-data"),
    pytest.param(["--repeats", "x"], None, id="repeats-str"),
    pytest.param(["--repeats", "2.0"], None, id="repeats-float"),
    pytest.param(["--contamination", "0.02,0.04"], None, id="levels-not-list"),
    pytest.param(["--labeled-anomalies", "5", "ten"], None, id="budget-str"),
    pytest.param(["--epochs", "two"], None, id="epochs-str"),
    pytest.param(["--epochs", "True"], None, id="epochs-bool"),
    pytest.param(["--lr", "False"], None, id="lr-bool"),
    pytest.param(["--ablation", "1"], None, id="ablation-int"),
    pytest.param(["--last-epoch", "no"], None, id="last-epoch-str"),
    pytest.param(["--last-epoch", "0"], None, id="last-epoch-int"),
])
def test_sweep_refuses_unusable_flags_before_writing(flags, expected, toy_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = _sweep_args(toy_csv, out, 1, *flags)
    if expected is None:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
    else:
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "InvalidParameterError", "message": expected}
    assert not out.exists()


def test_sweep_empty_grid(toy_csv, tmp_path, capsys):
    # A grid with no cells cannot be asked for: each axis needs at least one value.
    out = tmp_path / "sweep"
    for axis in ("--contamination", "--labeled-anomalies"):
        with pytest.raises(SystemExit) as exit_:
            main(_sweep_args(toy_csv, out, 1, axis))
        assert exit_.value.code == 2
    assert main(_sweep_args(toy_csv, out, 1, "--repeats", "0")) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "InvalidParameterError", "message": "repeats must be >= 1, got 0"}
    assert not out.exists()


def test_an_int_contamination_level_gives_the_rows_of_its_float(toy_csv, tmp_path):
    results = []
    for level in ("0", "0.0"):
        out = tmp_path / f"sweep_{level}"
        assert main(_sweep_args(toy_csv, out, 3, "--contamination", level, "0.02")) == 0
        results.append((out / "sweep_results.csv").read_bytes())
    assert results[0] == results[1]
    assert results[0].splitlines()[1].startswith(b"0.0,5,0,")


# -- the run path shared by every command ---------------------------------------------


_MANIFEST_KEYS = {"command", "config", "config_hash", "dataset_fingerprint", "seed", "metrics",
                  "wall_clock_s", "outputs", "output_sha256"}


def _command_argv(command, toy_csv, tmp_path, out):
    """argv of a successful `command` run writing into `out`, and the data file it reads."""
    if command == "synth":
        return ["synth", "--kind", "toy", "--n", "200", "--out", str(out)], None
    if command == "train":
        return _train_args(toy_csv, out), toy_csv
    if command == "sweep":
        return _sweep_args(toy_csv, out, 1), toy_csv
    return [command, "--model", _untrained_model(tmp_path, 4), "--data", str(toy_csv),
            "--label-col", "label", "--out", str(out)], toy_csv


@pytest.mark.parametrize("command", ["train", "evaluate", "score", "synth", "sweep"])
def test_each_command_writes_one_manifest(command, toy_csv, tmp_path):
    out = tmp_path / "out"
    argv, data = _command_argv(command, toy_csv, tmp_path, out)
    assert main(argv) == 0
    assert sorted(p.name for p in out.glob("*manifest*")) == [f"{command}_manifest.json"]
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    assert set(manifest) == _MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["wall_clock_s"] >= 0.0
    expected = None if data is None else hashlib.sha256(data.read_bytes()).hexdigest()
    assert manifest["dataset_fingerprint"] == expected
    assert all(os.path.exists(path) for path in manifest["outputs"].values())
    assert manifest["output_sha256"] == {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in manifest["outputs"].items()}


def test_a_manifest_never_turns_a_value_into_a_string(tmp_path):
    # As a string, np.int64(5) would hash and record like the config value "5".
    with pytest.raises(TypeError):
        config_hash({"a": np.int64(5)})
    path = tmp_path / "train_manifest.json"
    manifest = dict(command="train", config={"a": 5}, dataset_fingerprint=None, seed=0,
                    wall_clock_s=0.0, outputs={})
    write_manifest(path, metrics={"cells": 5}, **manifest)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_manifest(path, metrics={"cells": np.int64(5)}, **manifest)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train_manifest.json"]


# Model files that do not decode, and what the error then says.
_UNDECODABLE = {"not-utf8": b"\xff{}", "nested-too-deep": b"[" * 100_000}
_NAMED = {"not-utf8": ": not valid JSON (", "nested-too-deep": ": not valid JSON (",
          "empty-label": ": label column '' not in header",
          "one-column-short": "the min-max bounds cover 10 features, the data has 9"}


@pytest.mark.parametrize("command, fault, error", [
    ("evaluate", "no-model", "CorruptArtifactError"),
    ("score", "no-model", "CorruptArtifactError"),
    ("evaluate", "no-label", "DatasetError"),
    ("sweep", "no-data", "DatasetError"),
    *[(command, fault, "CorruptArtifactError") for fault in _UNDECODABLE
      for command in ("evaluate", "score")],
    # "" is a missing column on both commands, not an absent flag
    ("evaluate", "empty-label", "DatasetError"),
    ("score", "empty-label", "DatasetError"),
    # the model's width is checked once, by normalize_features against its bounds
    ("evaluate", "one-column-short", "DatasetError"),
    ("score", "one-column-short", "DatasetError"),
])
def test_a_failed_input_leaves_no_output_directory(command, fault, error, toy_csv, tmp_path,
                                                   capsys):
    out = tmp_path / "out"
    if command == "sweep":
        argv = _sweep_args(tmp_path / "missing.csv", out, 1)
    else:
        model = str(tmp_path / "nope.json") if fault == "no-model" else _untrained_model(tmp_path, 1)
        if fault in _UNDECODABLE:
            Path(model).write_bytes(_UNDECODABLE[fault])
        label = {"no-label": "missing", "empty-label": ""}.get(fault, "label")
        data = toy_csv
        if fault == "one-column-short":
            data = tmp_path / "short.csv"
            lines = toy_csv.read_text(encoding="utf-8").splitlines()
            data.write_text("".join(line.split(",", 1)[1] + "\n" for line in lines),
                            encoding="utf-8")
        argv = [command, "--model", model, "--data", str(data), "--label-col", label,
                "--out", str(out)]
    assert main(argv) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == error
    assert _NAMED.get(fault, "") in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_label_column_named_twice_is_rejected_before_training(command, toy_csv, tmp_path,
                                                                capsys):
    # a second `label` column would otherwise stay in as a feature: the model
    # would train on the label itself
    lines = toy_csv.read_text(encoding="utf-8").splitlines()
    twice = tmp_path / "twice.csv"
    twice.write_text("\n".join(f"{line},{line.rsplit(',', 1)[1]}" for line in lines) + "\n",
                     encoding="utf-8")
    out = tmp_path / "out"
    assert main(_train_args(twice, out, command=command)) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "DatasetError"
    assert "label column 'label' named 2 times in header" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "score", "sweep"])
@pytest.mark.parametrize("fault, expected", [
    ("missing", "label column 'label' not in header"),
    ("doubled", "label column 'label' named 2 times in header"),
])
def test_a_bad_label_column_fails_before_any_row_is_read(command, fault, expected, toy_csv,
                                                         tmp_path, capsys, monkeypatch):
    header, *rows = toy_csv.read_text(encoding="utf-8").splitlines()
    header = header.replace("label", "lable") if fault == "missing" else header + ",label"
    if fault == "doubled":
        rows = [f"{row},{row.rsplit(',', 1)[1]}" for row in rows]
    data = tmp_path / "bad_label.csv"
    data.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    if command in ("train", "sweep"):
        argv = _train_args(data, out) if command == "train" else _sweep_args(data, out, 1)
    else:
        argv = [command, "--model", _untrained_model(tmp_path, 1), "--data", str(data),
                "--label-col", "label", "--out", str(out)]

    def a_row_was_read(*_args):
        raise AssertionError("a row was read before the label column was checked")

    monkeypatch.setattr("anomix.data._parse_lines", a_row_was_read)
    monkeypatch.setattr("anomix.data._records", a_row_was_read)
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "DatasetError"
    assert record["message"].startswith(f"{data}: {expected} [")
    assert not out.exists()


def test_an_unusable_out_directory_is_an_error_record(tmp_path, capsys):
    blocker = tmp_path / "toy.csv"
    blocker.write_text("a file, not a directory\n", encoding="utf-8")
    for out in (blocker / "sub", blocker):
        assert main(["synth", "--kind", "toy", "--n", "100", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1  # the record, no traceback
        record = json.loads(err[0])
        assert record["error"] == "InvalidParameterError"
        assert record["message"].startswith(f"cannot use {str(out)!r} as output directory")


@pytest.mark.parametrize("command", ["train", "evaluate", "score", "synth", "sweep"])
def test_a_closed_stdout_loses_no_output(command, toy_csv, tmp_path, capsys, monkeypatch):
    # stdout is a pipe whose reader has exited, as in `anomix ... | head -0`
    run, out = tmp_path / "run", tmp_path / "out"
    assert main(_train_args(toy_csv, run)) == 0
    scorable = ["--model", str(run / "model.json"), "--data", str(run / "test_split.csv"),
                "--label-col", "label", "--out", str(out)]
    argv, files = {
        "train": (_train_args(toy_csv, out), ["history.json", "model.json", "test_split.csv"]),
        "evaluate": (["evaluate", *scorable], ["metrics.json"]),
        "score": (["score", *scorable], ["scores.csv"]),
        "synth": (["synth", "--kind", "clustered", "--n", "200", "--out", str(out)],
                  ["clustered_test.csv", "clustered_train.csv"]),
        "sweep": (_train_args(toy_csv, out, command="sweep"), ["sweep_results.csv"]),
    }[command]
    capsys.readouterr()
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1  # the record, no traceback
    assert json.loads(err[0])["error"] == "BrokenPipeError"
    assert sorted(p.name for p in out.iterdir()) == sorted([*files, f"{command}_manifest.json"])


def test_package_exports_resolve():
    import anomix

    assert len(set(anomix.__all__)) == len(anomix.__all__)
    assert all(hasattr(anomix, name) for name in anomix.__all__)
