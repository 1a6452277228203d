import json
import os

import numpy as np
import pytest

from anomix.artifact import ModelArtifact, load_model, save_model, write_manifest
from anomix.cli import main
from anomix.data import generate_toy, load_csv, write_csv
from anomix.errors import CorruptArtifactError
from anomix.scorer import build_scorer, score_batch


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    write_csv(generate_toy(600, seed=21, anomaly_fraction=0.1), path)
    return path


def _train_args(toy_csv, out, **extra):
    args = [
        "train", "--data", str(toy_csv), "--label-col", "label",
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


def test_train_rejects_zero_labeled_anomalies(toy_csv, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(_train_args(toy_csv, out)[:-2] + ["--labeled-anomalies", "0", "--out", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "UnusableDatasetError"


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


def test_score_empty_input_gives_header_only(toy_csv, tmp_path):
    out = tmp_path / "run"
    main(_train_args(toy_csv, out))
    empty = tmp_path / "empty.csv"
    header = ",".join(f"f{i}" for i in range(10))
    empty.write_text(header + "\n", encoding="utf-8")
    assert main(["score", "--model", str(out / "model.json"),
                 "--data", str(empty), "--out", str(out)]) == 0
    assert (out / "scores.csv").read_text().strip() == "row_index,score"


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
    artifact = ModelArtifact(params=params, norm_state=None, train_config={"seed": 9}, seed=9)
    path = tmp_path / "model.json"
    save_model(artifact, path)
    loaded = load_model(path)
    X = rng.uniform(0, 1, size=(40, 6))
    assert np.array_equal(score_batch(params, X), score_batch(loaded.params, X))
    assert loaded.seed == 9


def test_load_rejects_truncated_file(tmp_path):
    params = build_scorer(4, 8, seed=1)
    path = tmp_path / "model.json"
    save_model(ModelArtifact(params, None, {}, 1), path)
    path.write_text(path.read_text()[: path.stat().st_size // 2], encoding="utf-8")
    with pytest.raises(CorruptArtifactError):
        load_model(path)


def test_load_rejects_nan_weight(tmp_path):
    params = build_scorer(4, 8, seed=1)
    path = tmp_path / "model.json"
    save_model(ModelArtifact(params, None, {}, 1), path)
    payload = json.loads(path.read_text())
    payload["layers"]["rep_hidden"]["weights"][0][0] = "NaN"
    path.write_text(json.dumps(payload).replace('"NaN"', "NaN"), encoding="utf-8")
    with pytest.raises(CorruptArtifactError, match="non-finite"):
        load_model(path)


def test_load_rejects_version_and_shape_tampering(tmp_path):
    params = build_scorer(4, 8, seed=1)
    path = tmp_path / "model.json"
    save_model(ModelArtifact(params, None, {}, 1), path)

    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    bad = tmp_path / "versioned.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptArtifactError, match="version"):
        load_model(bad)

    payload = json.loads(path.read_text())
    payload["layers"]["score_out"]["weights"] = [[1.0, 2.0, 3.0]]
    bad2 = tmp_path / "shapes.json"
    bad2.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptArtifactError):
        load_model(bad2)


def test_load_rejects_seed_and_train_config_tampering(tmp_path):
    params = build_scorer(4, 8, seed=1)
    path = tmp_path / "model.json"
    save_model(ModelArtifact(params, None, {}, 1), path)
    for key, value in (("seed", "abc"), ("seed", None), ("seed", 1.5),
                       ("train_config", [1, 2])):
        payload = json.loads(path.read_text())
        payload[key] = value
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorruptArtifactError, match=key):
            load_model(bad)


def test_failed_write_leaves_previous_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(ModelArtifact(build_scorer(4, 8, seed=1), None, {}, 1), path)
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, command="train", config={}, dataset_fingerprint=None, seed=1,
                   metrics={}, wall_clock_s=0.0, outputs={})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_model(ModelArtifact(build_scorer(4, 8, seed=2), None, {}, 2), path)
    with pytest.raises(OSError):
        write_manifest(manifest, command="score", config={}, dataset_fingerprint=None, seed=2,
                       metrics={}, wall_clock_s=1.0, outputs={})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_save_rejects_nonfinite_weights(tmp_path):
    params = build_scorer(4, 8, seed=1)
    params.rep_hidden.weights[0, 0] = np.inf
    with pytest.raises(CorruptArtifactError):
        save_model(ModelArtifact(params, None, {}, 1), tmp_path / "m.json")


# -- sweep -------------------------------------------------------------------------


def test_sweep_grid_and_infeasible_cells(toy_csv, tmp_path):
    out = tmp_path / "sweep"
    config = {
        "data": str(toy_csv),
        "label_col": "label",
        "contamination_levels": [0.0, 0.02, 0.04, 0.08],
        "labeled_budgets": [10],
        "repeats": 3,
        "seed": 11,
        "epochs": 1,
        "batches_per_epoch": 2,
        "batch_size": 8,
        "rep_dim": 8,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "sweep_results.csv").read_text().strip().splitlines()
    assert lines[0] == "contamination,labeled_anomalies,repeat,seed,status,auc_pr,auc_roc"
    assert len(lines) == 1 + 4 * 3  # 12 grid cells

    config["labeled_budgets"] = [0]  # infeasible: recorded per cell, not fatal
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "sweep_results.csv").read_text().strip().splitlines()[1:]
    assert all("error" in row for row in rows)


def test_sweep_rejects_unknown_override_keys(toy_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "data": str(toy_csv), "label_col": "label", "contamination_levels": [0.02],
        "n_epoch": 0, "epoch": 1,
    }), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "DatasetError"
    assert "unknown key(s) epoch, n_epoch;" in record["message"]
    assert not (out / "sweep_results.csv").exists()


def test_sweep_empty_grid(toy_csv, tmp_path):
    out = tmp_path / "sweep"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "data": str(toy_csv), "label_col": "label",
        "contamination_levels": [], "repeats": 2,
    }), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "sweep_results.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only
