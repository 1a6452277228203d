"""Command-line surface: train, evaluate, score, synth, sweep.

Every command writes exactly one JSON manifest (config hash, dataset
fingerprint, seed, metrics, wall clock) into the output directory, which
defaults to $ANOMIX_OUT or the working directory. Apart from manifests
and wall-clock fields, all outputs are byte-deterministic for a fixed
seed. Errors exit nonzero with a machine-readable JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import data as D
from .artifact import (
    ModelArtifact,
    file_fingerprint,
    load_model,
    save_model,
    write_manifest,
)
from .data import Dataset, Role
from .errors import AnomixError, DatasetError, UnusableDatasetError
from .losses import ABLATION_MODES
from .metrics import MetricsReport, evaluate_scores
from .rng import child_seed, substream
from .scorer import score_batch
from .training import TrainConfig, train

_SWEEP_COLUMNS = ("contamination", "labeled_anomalies", "repeat", "seed", "status",
                  "auc_pr", "auc_roc")


def _out_dir(arg: str | None) -> Path:
    path = Path(arg or os.environ.get("ANOMIX_OUT") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


# CLI flag (dashes for underscores) and sweep key -> (TrainConfig field, help).
# Defaults come from TrainConfig(). Model selection is set by --last-epoch on
# the CLI and by the "select_best" key in a sweep.
_TRAIN_KNOBS = {
    "epochs": ("n_epoch", None),
    "batches_per_epoch": ("n_batch", None),
    "batch_size": ("batch_size", None),
    "lr": ("lr", None),
    "rep_dim": ("rep_dim", "representation width H"),
    "k": ("k", "sources per mixed sample"),
    "alpha": ("alpha", "Beta/Dirichlet concentration"),
    "margin": ("margin", None),
    "temperature": ("temperature", None),
    "weight_decay": ("weight_decay", None),
    "ablation": ("ablation", None),
}
# Sweep settings and train overrides -> default; a sweep value must have its
# default's type (see _fits), and "data" is required. The train flags take
# their defaults from _SWEEP_OVERRIDES too.
_SWEEP_SETTINGS = {"data": "", "label_col": "label", "contamination_levels": [D.CONTAMINATION],
                   "labeled_budgets": [D.LABELED_ANOMALIES], "repeats": 1, "seed": 0}
_SWEEP_OVERRIDES = {**{name: getattr(TrainConfig(), field)
                       for name, (field, _help) in _TRAIN_KNOBS.items()},
                    "select_best": TrainConfig.select_best,
                    "feature_fraction": D.FEATURE_FRACTION}


def _add_train_knobs(p: argparse.ArgumentParser) -> None:
    for name, (field, help_text) in _TRAIN_KNOBS.items():
        default = _SWEEP_OVERRIDES[name]
        choices = ABLATION_MODES if field == "ablation" else None
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                       choices=choices, help=help_text)
    p.add_argument("--last-epoch", action="store_true",
                   help="return last-epoch weights instead of the best validation snapshot")


def _train_config(values: dict, seed: int, select_best: bool) -> TrainConfig:
    """TrainConfig from the value of every train flag or sweep key in `values`."""
    fields = {field: values[name] for name, (field, _help) in _TRAIN_KNOBS.items()}
    return TrainConfig(**fields, seed=seed, select_best=select_best)


def cmd_train(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args.out)
    if args.labeled_anomalies <= 0:
        raise UnusableDatasetError("--labeled-anomalies must be positive: training needs anomaly examples")
    dataset = D.load_csv(args.data, args.label_col)
    split = D.split_dataset(dataset, rng=substream(args.seed, "split"))
    test_rows = split.indices(Role.TEST)
    test_path = out / "test_split.csv"
    D.write_csv(Dataset(split.X[test_rows], split.y[test_rows], split.roles[test_rows],
                        split.feature_names), test_path, label_column=args.label_col)
    prepared = D.prepare_training(
        split,
        labeled_anomalies=args.labeled_anomalies,
        contamination=args.contamination,
        feature_fraction=args.feature_fraction,
        seed=args.seed,
    )
    config = _train_config(vars(args), args.seed, select_best=not args.last_epoch)
    progress = _print_progress if args.verbose else None
    params, history = train(prepared, config, progress=progress)

    artifact = ModelArtifact(
        params=params,
        norm_state=prepared.norm_state,
        train_config={**asdict(config), "labeled_anomalies": args.labeled_anomalies,
                      "contamination": args.contamination,
                      "feature_fraction": args.feature_fraction},
        seed=args.seed,
    )
    model_path = out / "model.json"
    save_model(artifact, model_path)
    history_path = out / "history.json"
    D.write_json(history_path, history.as_dicts(), indent=1)

    last = history.records[-1] if history.records else None
    metrics = {
        "epochs_run": len(history),
        "final_loss_scoring": last.loss_scoring if last else None,
        "final_loss_feature": last.loss_feature if last else None,
        "final_val_auc_pr": last.val_auc_pr if last else None,
        "best_val_auc_pr": max((r.val_auc_pr for r in history.records
                                if r.val_auc_pr is not None), default=None),
        # Wall clock per epoch; kept out of history.json so that file stays deterministic.
        "epoch_seconds": [r.seconds for r in history.records],
    }
    write_manifest(
        out / "train_manifest.json",
        command="train",
        config=artifact.train_config,
        dataset_fingerprint=file_fingerprint(args.data),
        seed=args.seed,
        metrics=metrics,
        wall_clock_s=time.perf_counter() - started,
        outputs={"model": str(model_path), "history": str(history_path),
                 "test_split": str(test_path)},
    )
    print(f"model written to {model_path}")
    if metrics["best_val_auc_pr"] is not None:
        print(f"best validation AUC-PR: {metrics['best_val_auc_pr']:.4f}")
    return 0


def _print_progress(record) -> None:
    val = f" val_auc_pr={record.val_auc_pr:.4f}" if record.val_auc_pr is not None else ""
    feat = f" loss_feature={record.loss_feature:.4f}" if record.loss_feature is not None else ""
    print(f"epoch {record.epoch}: loss_scoring={record.loss_scoring:.4f}{feat} "
          f"w={record.weight:.3f}{val}", file=sys.stderr)


def _load_scorable(args, require_labels: bool):
    """(features, labels-or-None) for a model-consuming command."""
    artifact = load_model(args.model)
    if require_labels or args.label_col:
        if not args.label_col:
            raise DatasetError("this command needs --label-col to find the labels")
        dataset = D.load_csv(args.data, args.label_col)
        X, y = dataset.X, dataset.y
    else:
        X, _names = D.load_features(args.data)
        y = None
    if X.shape[1] != artifact.params.d_in:
        raise DatasetError(
            f"model expects {artifact.params.d_in} features, data has {X.shape[1]}"
        )
    if artifact.norm_state is not None:
        X = D.normalize_features(X, artifact.norm_state)
    return artifact, X, y


def _write_scoring_manifest(command: str, args, out: Path, artifact: ModelArtifact,
                            started: float, metrics: dict, outputs: dict) -> None:
    """The manifest of `evaluate` or `score`: both record the model and data they read."""
    write_manifest(
        out / f"{command}_manifest.json",
        command=command,
        config={"model": str(args.model), "data": str(args.data), "label_col": args.label_col},
        dataset_fingerprint=file_fingerprint(args.data),
        seed=artifact.seed,
        metrics=metrics,
        wall_clock_s=time.perf_counter() - started,
        outputs=outputs,
    )


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args.out)
    artifact, X, y = _load_scorable(args, require_labels=True)
    report = evaluate_scores(score_batch(artifact.params, X), y)
    payload = {"auc_roc": report.auc_roc, "auc_pr": report.auc_pr,
               "n_pos": report.n_pos, "n_neg": report.n_neg}
    print(json.dumps(payload, indent=1))
    D.write_json(out / "metrics.json", payload, indent=1)
    _write_scoring_manifest("evaluate", args, out, artifact, started, payload,
                            {"metrics": str(out / "metrics.json")})
    return 0


def cmd_score(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args.out)
    artifact, X, _ = _load_scorable(args, require_labels=False)
    scores = score_batch(artifact.params, X)
    score_path = out / "scores.csv"
    D.write_rows(score_path, ["row_index", "score"], enumerate(scores.tolist()))
    _write_scoring_manifest("score", args, out, artifact, started,
                            {"rows_scored": int(len(scores))}, {"scores": str(score_path)})
    print(f"{len(scores)} scores written to {score_path}")
    return 0


def cmd_synth(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args.out)
    if args.kind == "toy":
        files = {"data": ("toy.csv", D.generate_toy(args.n, args.seed, args.anomaly_fraction))}
    else:
        pair = D.generate_case(args.kind, args.n, args.seed, args.anomaly_fraction)
        files = {part: (f"{args.kind}_{part}.csv", ds) for part, ds in zip(("train", "test"), pair)}
    outputs = {}
    for label, (name, dataset) in files.items():
        D.write_csv(dataset, out / name)
        outputs[label] = str(out / name)
    write_manifest(
        out / "synth_manifest.json",
        command="synth",
        config={"kind": args.kind, "n": args.n, "seed": args.seed,
                "anomaly_fraction": args.anomaly_fraction},
        dataset_fingerprint=None,
        seed=args.seed,
        metrics={},
        wall_clock_s=time.perf_counter() - started,
        outputs=outputs,
    )
    for label, path in outputs.items():
        print(f"{label}: {path}")
    return 0


def _sweep_cell(dataset: Dataset, level: float, budget: int, cell_seed: int,
                cfg: dict) -> MetricsReport:
    prepared = D.prepare_dataset(dataset, labeled_anomalies=budget, contamination=level,
                                 feature_fraction=cfg["feature_fraction"], seed=cell_seed)
    config = _train_config(cfg, cell_seed, cfg["select_best"])
    if budget <= 0:
        raise UnusableDatasetError("labeled budget must be positive")
    params, _history = train(prepared, config)
    test_idx = prepared.indices(Role.TEST)
    return evaluate_scores(score_batch(params, prepared.X[test_idx]), prepared.y[test_idx])


def _fits(value, default) -> bool:
    """Whether a sweep value has its default's type; an int may stand for a float,
    a bool never for a number, and a list's items must fit its first item."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(item, default[0]) for item in value)
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _read_sweep_config(path) -> dict:
    """The sweep config as written, once every key and value is known valid."""
    try:
        sweep_cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read sweep config {path}: {exc}") from exc
    if not isinstance(sweep_cfg, dict):
        raise DatasetError(f"sweep config {path}: expected a JSON object, "
                           f"got {type(sweep_cfg).__name__}")
    if "data" not in sweep_cfg:
        raise DatasetError(f"sweep config {path}: missing required key 'data'")
    defaults = {**_SWEEP_SETTINGS, **_SWEEP_OVERRIDES}
    unknown = sorted(set(sweep_cfg) - set(defaults))
    if unknown:
        raise DatasetError(f"sweep config {path}: unknown key(s) {', '.join(unknown)}; "
                           f"train overrides are {', '.join(_SWEEP_OVERRIDES)}")
    for key, value in sweep_cfg.items():
        default = defaults[key]
        if not _fits(value, default):
            kind = (f"list of {type(default[0]).__name__}" if isinstance(default, list)
                    else type(default).__name__)
            raise DatasetError(f"sweep config {path}: {key!r} must be {kind}, got {value!r}")
    return sweep_cfg


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    sweep_cfg = _read_sweep_config(args.config)
    cfg = {**_SWEEP_SETTINGS, **_SWEEP_OVERRIDES, **sweep_cfg}
    out = _out_dir(args.out)
    dataset = D.load_csv(cfg["data"], cfg["label_col"])

    rows = []
    for level in cfg["contamination_levels"]:
        for budget in cfg["labeled_budgets"]:
            for rep in range(cfg["repeats"]):
                cell_seed = child_seed(cfg["seed"], f"cell:{level}:{budget}:{rep}")
                try:
                    report = _sweep_cell(dataset, float(level), budget, cell_seed, cfg)
                    outcome = ["ok", report.auc_pr, report.auc_roc]
                except AnomixError as exc:
                    outcome = [f"error: {exc}", "", ""]
                rows.append([level, budget, rep, cell_seed, *outcome])

    results_path = out / "sweep_results.csv"
    D.write_rows(results_path, _SWEEP_COLUMNS, rows)
    n_ok = sum(row[_SWEEP_COLUMNS.index("status")] == "ok" for row in rows)
    write_manifest(
        out / "sweep_manifest.json",
        command="sweep",
        config=sweep_cfg,
        dataset_fingerprint=file_fingerprint(cfg["data"]),
        seed=cfg["seed"],
        metrics={"cells": len(rows), "cells_ok": n_ok},
        wall_clock_s=time.perf_counter() - started,
        outputs={"results": str(results_path)},
    )
    print(f"{len(rows)} sweep rows written to {results_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomix",
        description="Semi-supervised anomaly scoring for tabular CSV data.",
        epilog="Output directory defaults to $ANOMIX_OUT, then the working directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="split, normalize, label, adjust contamination, train")
    p.add_argument("--data", required=True, help="CSV with a header row and a binary label column")
    p.add_argument("--label-col", required=True)
    p.add_argument("--labeled-anomalies", type=int, default=D.LABELED_ANOMALIES)
    p.add_argument("--contamination", type=float, default=D.CONTAMINATION,
                   help="target anomaly share of the unlabeled pool")
    p.add_argument("--feature-fraction", type=float, default=D.FEATURE_FRACTION,
                   help="feature share spliced when injecting anomalies")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--verbose", action="store_true")
    _add_train_knobs(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a labeled CSV and report AUC-ROC / AUC-PR")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", help="write scores.csv (row_index, score) in input order")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", default=None,
                   help="drop this label column before scoring, if the file has one")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="generate a synthetic dataset as CSV")
    p.add_argument("--kind", required=True, choices=("toy", "clustered", "scattered", "novel"))
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--anomaly-fraction", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "sweep",
        help="grid of contamination levels x labeled budgets x repeats",
        description="Sweep config is JSON: {data, label_col, contamination_levels, "
                    "labeled_budgets, repeats, seed, ...train overrides}. Results CSV "
                    "columns, in order: " + ", ".join(_SWEEP_COLUMNS) + ". Infeasible "
                    "cells are recorded in the status column, not fatal.",
    )
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AnomixError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
