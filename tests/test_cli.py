import json
import os
import re
import warnings

import numpy as np
import pytest

from anomix.artifact import ModelArtifact, load_model, save_model, write_manifest
from anomix.cli import main
from anomix.data import NormState, generate_toy, load_csv, write_csv, write_rows
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
    epoch_seconds = manifest["metrics"]["epoch_seconds"]
    assert len(epoch_seconds) == 4
    assert all(isinstance(s, float) and s >= 0.0 for s in epoch_seconds)


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
        "message": "input row 6 became non-finite when scaled by the model's min-max bounds"}
    assert not (out / "scores.csv").exists()


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
    bad = tmp_path / "tampered.json"
    for key, value in (("seed", "abc"), ("seed", None), ("seed", 1.5),
                       ("train_config", [1, 2]),
                       ("architecture.d_in", 3.9), ("architecture.d_in", "4"),
                       ("architecture.d_in", 0), ("architecture.h1", None),
                       ("architecture.rep_dim", True), ("architecture.rep_dim", 1),
                       ("architecture.slope", "0.01"), ("architecture.slope", True),
                       ("architecture.slope", 1.5), ("architecture.slope", 0.0),
                       ("architecture.slope", -0.2)):
        payload = json.loads(path.read_text())
        *parents, field = key.split(".")
        block = payload[parents[0]] if parents else payload
        block[field] = value
        bad.write_text(json.dumps(payload), encoding="utf-8")
        # The error names the file and the field.
        with pytest.raises(CorruptArtifactError, match=re.escape(str(bad)) + ".*" + field):
            load_model(bad)


def _untrained_model(tmp_path, seed):
    path = tmp_path / f"untrained_{seed}.json"
    save_model(ModelArtifact(build_scorer(10, 8, seed=seed), None, {}, seed), path)
    return str(path)


def _sweep_config(tmp_path, toy_csv, seed):
    path = tmp_path / f"sweep_{seed}.json"
    path.write_text(json.dumps({
        "data": str(toy_csv), "contamination_levels": [0.02], "labeled_budgets": [5],
        "seed": seed, "epochs": 1, "batches_per_epoch": 2, "batch_size": 8, "rep_dim": 8,
    }), encoding="utf-8")
    return str(path)


# Output file -> a call writing it into `out`, whose bytes depend on `seed`.
_WRITE_SITES = {
    "model.json": lambda tmp_path, toy_csv, out, seed: save_model(
        ModelArtifact(build_scorer(4, 8, seed=seed), None, {}, seed), out / "model.json"),
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
    "sweep_results.csv": lambda tmp_path, toy_csv, out, seed: main([
        "sweep", "--config", _sweep_config(tmp_path, toy_csv, seed), "--out", str(out)]),
}


@pytest.mark.parametrize("target", sorted(_WRITE_SITES))
def test_failed_write_leaves_previous_file_intact(target, toy_csv, tmp_path, monkeypatch):
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
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path, toy_csv, out, 2)
    assert (out / target).read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    monkeypatch.undo()  # the second write does change the file once the rename works
    write(tmp_path, toy_csv, out, 2)
    assert (out / target).read_bytes() != before


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


@pytest.mark.parametrize("extra, expected", [
    pytest.param({"n_epoch": 0, "epoch": 1}, "unknown key(s) epoch, n_epoch;", id="unknown-keys"),
    pytest.param(None, "expected a JSON object, got list", id="not-an-object"),
    pytest.param({"data": None}, "missing required key 'data'", id="no-data"),
    pytest.param({"repeats": "x"}, "'repeats' must be int, got 'x'", id="repeats-str"),
    pytest.param({"repeats": 2.0}, "'repeats' must be int", id="repeats-float"),
    pytest.param({"contamination_levels": 0.02}, "'contamination_levels' must be list of float",
                 id="levels-not-list"),
    pytest.param({"labeled_budgets": [5, "10"]}, "'labeled_budgets' must be list of int",
                 id="budget-str"),
    pytest.param({"epochs": "2"}, "'epochs' must be int, got '2'", id="epochs-str"),
    pytest.param({"epochs": True}, "'epochs' must be int, got True", id="epochs-bool"),
    pytest.param({"lr": False}, "'lr' must be float, got False", id="lr-bool"),
    pytest.param({"ablation": 1}, "'ablation' must be str", id="ablation-int"),
    pytest.param({"select_best": "no"}, "'select_best' must be bool, got 'no'",
                 id="select-best-str"),
    pytest.param({"select_best": 0}, "'select_best' must be bool, got 0", id="select-best-int"),
])
def test_sweep_rejects_unknown_override_keys(extra, expected, toy_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg_path = tmp_path / "sweep.json"
    if extra is None:
        config = [1, 2]
    else:
        config = {"data": str(toy_csv), "label_col": "label", "contamination_levels": [0.02],
                  **extra}
        config = {key: value for key, value in config.items() if value is not None}
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "DatasetError"
    assert expected in record["message"]
    assert not (out / "sweep_results.csv").exists()
    assert not out.exists()  # rejected before anything is written


def test_sweep_empty_grid(toy_csv, tmp_path):
    out = tmp_path / "sweep"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "data": str(toy_csv), "label_col": "label",
        "contamination_levels": [], "repeats": 2,
        "alpha": 1, "select_best": False,  # an int may stand for a float
    }), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "sweep_results.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_package_exports_resolve():
    import anomix

    assert len(set(anomix.__all__)) == len(anomix.__all__)
    assert all(hasattr(anomix, name) for name in anomix.__all__)
