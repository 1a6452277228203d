"""Command-line surface: train, evaluate, score, synth, sweep.

`sweep` takes `train`'s flags, with one or more values for --contamination and
--labeled-anomalies, and runs train once per grid cell under the cell's seed.
Each command checks and loads its inputs, and `train` also trains, before it
creates the output directory, which defaults to $ANOMIX_OUT or the working
directory, so a run that fails by then creates and removes nothing. Opening the
directory removes the command's old manifest, `{command}_manifest.json`, before
the first output is written. Once the command returns, `main` writes the new
manifest (config hash, dataset fingerprint, seed, metrics, wall clock, output
paths and their SHA-256), and only then prints the command's status lines, so
a closed stdout costs no file. Each output file is replaced atomically, but the
set is not: a directory without `{command}_manifest.json` holds an unfinished or
failed run, whose files may sit beside an earlier run's. Apart from manifests and wall-clock fields, all outputs
are byte-deterministic for a fixed seed.
Errors, a failed write and a closed stdout among them, exit 1 with a
machine-readable JSON record on stderr. A flag argparse cannot parse (say
`--k abc`, `--ablation bogus` or a missing `--data`) exits 2 with
argparse's usage text instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace
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
from .errors import AnomixError, InvalidParameterError, UnusableDatasetError
from .losses import ABLATION_MODES
from .metrics import evaluate_scores
from .rng import child_seed
from .scorer import score_batch
from .training import TrainConfig, train

_SWEEP_COLUMNS = ("contamination", "labeled_anomalies", "repeat", "seed", "status",
                  "auc_pr", "auc_roc")


def _manifest_path(out: Path, command: str) -> Path:
    return out / f"{command}_manifest.json"


def _out_dir(args) -> Path:
    """The command's output directory, created if need be, without its old manifest:
    until `main` writes the new one, the directory marks an unfinished run."""
    path = Path(args.out or os.environ.get("ANOMIX_OUT") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
        _manifest_path(path, args.command).unlink(missing_ok=True)
    except OSError as exc:
        raise InvalidParameterError(f"cannot use {str(path)!r} as output directory: {exc}") from exc
    return path


# Flag (dashes for underscores) -> (TrainConfig field, help); train and sweep
# share these flags, and each takes its default from TrainConfig(). The two
# remaining fields are set by --seed and --last-epoch.
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


def _check_run(args, budgets: list, levels: list) -> tuple[TrainConfig, dict, Dataset]:
    """The TrainConfig a train or sweep command sets, the run record that model.json
    and the manifest keep (a sweep adds repeats), and the data it reads, once every
    flag value is usable and the data loads with a feature column, so a rejected run
    writes nothing. Each flag message names the field it rejects and its value."""
    knobs = {field: getattr(args, name) for name, (field, _help) in _TRAIN_KNOBS.items()}
    config = TrainConfig(**knobs, seed=args.seed, select_best=not args.last_epoch)
    for budget in budgets:
        D.check_labeled_anomalies(budget)
    for level in levels:
        D.check_contamination(level)
    dataset = D.load_csv(args.data, args.label_col)
    if dataset.n_features == 0:
        raise UnusableDatasetError(f"{args.data}: no feature column besides {args.label_col!r}")
    record = {**asdict(config), "labeled_anomalies": args.labeled_anomalies,
              "contamination": args.contamination}
    return config, record, dataset


def _train_run(dataset: Dataset, config: TrainConfig, labeled_anomalies: int,
               contamination: float, progress=None):
    """Split, prepare and train under config.seed: the run of `anomix train`, and of
    each sweep cell under the cell's seed. Returns (split, prepared, params, history)."""
    split = D.split_dataset(dataset, config.seed)
    prepared = D.prepare_training(split, labeled_anomalies=labeled_anomalies,
                                  contamination=contamination, seed=config.seed)
    params, history = train(prepared, config, progress=progress)
    return split, prepared, params, history


def cmd_train(args):
    config, record, dataset = _check_run(args, [args.labeled_anomalies], [args.contamination])
    split, prepared, params, history = _train_run(
        dataset, config, args.labeled_anomalies, args.contamination,
        progress=_print_progress if args.verbose else None)

    out = _out_dir(args)
    test_rows = split.indices(Role.TEST)
    test_path = out / "test_split.csv"
    D.write_csv(Dataset(split.X[test_rows], split.y[test_rows], split.roles[test_rows],
                        split.feature_names), test_path, label_column=args.label_col)

    artifact = ModelArtifact(params=params, norm_state=prepared.norm_state,
                             train_config=record, seed=args.seed)
    model_path = out / "model.json"
    save_model(artifact, model_path)
    history_path = out / "history.json"
    # Wall-clock seconds go to the manifest only, so history.json stays deterministic.
    D.write_json(history_path, [{k: v for k, v in asdict(r).items() if k != "seconds"}
                                for r in history])

    last = history[-1] if history else None
    metrics = {
        "epochs_run": len(history),
        "final_loss_scoring": last.loss_scoring if last else None,
        "final_loss_feature": last.loss_feature if last else None,
        "final_val_auc_pr": last.val_auc_pr if last else None,
        "best_val_auc_pr": max((r.val_auc_pr for r in history if r.val_auc_pr is not None),
                               default=None),
        # Epochs with every triplet hinge inactive; each kept the previous feature average.
        "zero_feature_epochs": sum(r.loss_feature == 0.0 for r in history),
        "epoch_seconds": [r.seconds for r in history],
    }
    status = [f"model written to {model_path}"]
    # The validation AUC-PR of the returned weights: the best epoch's, or the last one's.
    returned = "best" if config.select_best else "final"
    val_auc = metrics[f"{returned}_val_auc_pr"]
    if val_auc is not None:
        status.append(f"{returned} validation AUC-PR: {val_auc:.4f}")
    return (out, record, args.data, args.seed, metrics,
            {"model": str(model_path), "history": str(history_path), "test_split": str(test_path)},
            status)


def _print_progress(record) -> None:
    val = f" val_auc_pr={record.val_auc_pr:.4f}" if record.val_auc_pr is not None else ""
    feat = f" loss_feature={record.loss_feature:.4f}" if record.loss_feature is not None else ""
    print(f"epoch {record.epoch}: loss_scoring={record.loss_scoring:.4f}{feat} "
          f"w={record.weight:.3f}{val}", file=sys.stderr)


def _scored(args):
    """(scores, labels-or-None, manifest config, model seed) of `--data` under `--model`:
    the front end of evaluate and score. The rows are read with their labels exactly
    when --label-col is given; evaluate requires it, and "" names a missing column."""
    artifact = load_model(args.model)
    if args.label_col is None:
        X, y = D.load_features(args.data)[0], None
    else:
        dataset = D.load_csv(args.data, args.label_col)
        X, y = dataset.X, dataset.y
    X = D.normalize_features(X, artifact.norm_state)
    config = {"model": str(args.model), "data": str(args.data), "label_col": args.label_col}
    return score_batch(artifact.params, X), y, config, artifact.seed


def cmd_evaluate(args):
    scores, y, config, seed = _scored(args)
    payload = asdict(evaluate_scores(scores, y))
    out = _out_dir(args)
    D.write_json(out / "metrics.json", payload)
    return (out, config, args.data, seed, payload, {"metrics": str(out / "metrics.json")},
            [json.dumps(payload, indent=1)])


def cmd_score(args):
    scores, _, config, seed = _scored(args)
    out = _out_dir(args)
    score_path = out / "scores.csv"
    D.write_scores(score_path, scores)
    return (out, config, args.data, seed, {"rows_scored": int(len(scores))},
            {"scores": str(score_path)}, [f"{len(scores)} scores written to {score_path}"])


def cmd_synth(args):
    if args.kind == "toy":
        files = {"data": ("toy.csv", D.generate_toy(args.n, args.seed, args.anomaly_fraction))}
    else:
        pair = D.generate_case(args.kind, args.n, args.seed, args.anomaly_fraction)
        files = {part: (f"{args.kind}_{part}.csv", ds) for part, ds in zip(("train", "test"), pair)}
    out = _out_dir(args)
    outputs = {}
    for label, (name, dataset) in files.items():
        D.write_csv(dataset, out / name)
        outputs[label] = str(out / name)
    config = {"kind": args.kind, "n": args.n, "seed": args.seed,
              "anomaly_fraction": args.anomaly_fraction}
    return (out, config, None, args.seed, {}, outputs,
            [f"{label}: {path}" for label, path in outputs.items()])


def cmd_sweep(args):
    if args.repeats < 1:
        raise InvalidParameterError(f"repeats must be >= 1, got {args.repeats!r}")
    config, record, dataset = _check_run(args, args.labeled_anomalies, args.contamination)
    out = _out_dir(args)
    rows = []
    for level in args.contamination:
        for budget in args.labeled_anomalies:
            for rep in range(args.repeats):
                cell_seed = child_seed(args.seed, f"cell:{level}:{budget}:{rep}")
                try:
                    _split, prepared, params, _history = _train_run(
                        dataset, replace(config, seed=cell_seed), budget, level)
                    test_rows = prepared.indices(Role.TEST)
                    report = evaluate_scores(score_batch(params, prepared.X[test_rows]),
                                             prepared.y[test_rows])
                    outcome = ["ok", report.auc_pr, report.auc_roc]
                except AnomixError as exc:
                    outcome = [f"error: {exc}", "", ""]
                rows.append([level, budget, rep, cell_seed, *outcome])

    results_path = out / "sweep_results.csv"
    D.write_rows(results_path, _SWEEP_COLUMNS, rows)
    n_ok = sum(row[_SWEEP_COLUMNS.index("status")] == "ok" for row in rows)
    return (out, {**record, "repeats": args.repeats}, args.data, args.seed,
            {"cells": len(rows), "cells_ok": n_ok}, {"results": str(results_path)},
            [f"{len(rows)} sweep rows written to {results_path}"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomix",
        description="Semi-supervised anomaly scoring for tabular CSV data.",
        epilog="Output directory defaults to $ANOMIX_OUT, then the working directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command takes --out; evaluate and score read --data under --model.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    scorable = argparse.ArgumentParser(add_help=False, parents=[out])
    scorable.add_argument("--model", required=True)
    scorable.add_argument("--data", required=True)

    # The flags train and sweep share; sweep runs train once per grid cell.
    run = argparse.ArgumentParser(add_help=False, parents=[out])
    run.add_argument("--data", required=True,
                     help="CSV with a header row and a binary label column")
    run.add_argument("--label-col", required=True)
    run.add_argument("--seed", type=int, default=0)
    defaults = TrainConfig()
    for name, (field, help_text) in _TRAIN_KNOBS.items():
        default = getattr(defaults, field)
        run.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                         choices=ABLATION_MODES if field == "ablation" else None, help=help_text)
    run.add_argument("--last-epoch", action="store_true",
                     help="return last-epoch weights instead of the best validation snapshot")

    p = sub.add_parser("train", parents=[run],
                       help="split, normalize, label, adjust contamination, train")
    p.add_argument("--labeled-anomalies", type=int, default=D.LABELED_ANOMALIES)
    p.add_argument("--contamination", type=float, default=D.CONTAMINATION,
                   help="target anomaly share of the unlabeled pool")
    p.add_argument("--verbose", action="store_true",
                   help="print each epoch's losses, loss weight and validation AUC-PR on stderr")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[scorable],
                       help="score a labeled CSV and report AUC-ROC / AUC-PR")
    p.add_argument("--label-col", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", parents=[scorable],
                       help="write scores.csv (row_index, score) in input order")
    p.add_argument("--label-col", default=None,
                   help="drop this label column before scoring; the column must exist and "
                        "hold 0/1 or -1/+1")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", parents=[out], help="generate a synthetic dataset as CSV")
    p.add_argument("--kind", required=True, choices=("toy", *D.CASE_KINDS))
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--anomaly-fraction", type=float, default=D.ANOMALY_FRACTION)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "sweep", parents=[run],
        help="grid of contamination levels x labeled budgets x repeats",
        description="Runs `anomix train` with the given flags once per grid cell "
                    "(contamination level, labeled budget, repeat), each under its own seed "
                    "drawn from --seed, and scores the cell's test split. Results CSV "
                    "columns, in order: " + ", ".join(_SWEEP_COLUMNS) + ". Infeasible "
                    "cells are recorded in the status column, not fatal.",
    )
    p.add_argument("--labeled-anomalies", type=int, nargs="+", default=[D.LABELED_ANOMALIES],
                   metavar="B", help="labeled-anomaly budgets")
    p.add_argument("--contamination", type=float, nargs="+", default=[D.CONTAMINATION],
                   metavar="L", help="target anomaly shares of the unlabeled pool")
    p.add_argument("--repeats", type=int, default=1, help="seeds per (level, budget) cell")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # Each command returns what its manifest records, then its status lines.
        out, config, data, seed, metrics, outputs, status = args.func(args)
        write_manifest(
            _manifest_path(out, args.command),
            command=args.command,
            config=config,
            dataset_fingerprint=None if data is None else file_fingerprint(data),
            seed=seed,
            metrics=metrics,
            wall_clock_s=time.perf_counter() - started,
            outputs=outputs,
        )
    except (AnomixError, OSError) as exc:
        return _error_record(type(exc).__name__, str(exc))
    try:
        print("\n".join(status), flush=True)
    except BrokenPipeError:
        # Every file is written; the interpreter's flush of stdout at exit goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _error_record("BrokenPipeError", "stdout was closed before the status lines; "
                                                "every output and the manifest were written")
    return 0


def _error_record(error: str, message: str) -> int:
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
