"""Workload definitions, their generated inputs, and the session plan.

`plan()` writes a workload's inputs under a work directory and returns
the plan of one session (the `anomix` commands, in order), the SHA-256
fingerprints of the inputs, and a description of the machine. Inputs
depend only on the workload and the seed; the program receives nothing
but the CSV files.

Every workload is the same user session through the CLI, sized to put
its weight on different layers:

    anomix train     on train.csv (labeled)
    anomix evaluate  on holdout.csv (fresh labeled rows)
    anomix score     on score.csv (fresh unlabeled rows)
    score(params, x) in a closed loop over the normalized score.csv rows
"""

from __future__ import annotations

import hashlib
import os
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from anomix.data import generate_toy


@dataclass(frozen=True)
class Workload:
    train_rows: int
    holdout_rows: int
    score_rows: int
    wide: bool
    train_args: tuple[str, ...]
    single_calls: int


WORKLOADS = {
    # Paper-default config on d=10: bound by Python per-op overhead on
    # small matrices (augment, tape, forward chains).
    "train_toy": Workload(
        train_rows=5000, holdout_rows=20_000, score_rows=20_000, wide=False, train_args=(),
        single_calls=20_000,
    ),
    # d=64, b=128, H=256, k=3 at contamination 0.1: BLAS FLOPs, the
    # Dirichlet path and a large CSV ingest carry more of the time.
    "train_wide": Workload(
        train_rows=20_000, holdout_rows=10_000, score_rows=5000, wide=True,
        train_args=("--batch-size", "128", "--rep-dim", "256", "--k", "3",
                    "--epochs", "10", "--contamination", "0.1"),
        single_calls=20_000,
    ),
    # A short train, then ingest + batch scoring of 100k rows and 50k
    # single-row calls per session: the scoring path dominates.
    "score": Workload(
        train_rows=5000, holdout_rows=20_000, score_rows=100_000, wide=False,
        train_args=("--epochs", "20"),
        single_calls=50_000,
    ),
}

# The self-test shrinks every workload to a few seconds.
TINY_TRAIN_ROWS = 1000
TINY_HOLDOUT_ROWS = 1000
TINY_SCORE_ROWS = 1000
TINY_TRAIN_ARGS = ("--epochs", "2", "--batches-per-epoch", "3")
TINY_SINGLE_CALLS = 1000

LABEL = "label"
TRAIN_SEED = 0  # the program's own --seed; the workload seed only shapes the data

# train_wide: the 10 toy features, then 54 fixed projections of them plus
# seeded noise. The projection is a constant of the benchmark.
WIDE_PROJECTION_SEED = 20230725
WIDE_EXTRA = 54
WIDE_NOISE = 0.1


def _child_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _widen(X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    d = X.shape[1]
    proj = np.random.default_rng(WIDE_PROJECTION_SEED).standard_normal((d, WIDE_EXTRA)) / np.sqrt(d)
    # Column-by-column sums instead of X @ proj keep the inputs independent
    # of the BLAS build and its thread count.
    extra = WIDE_NOISE * rng.standard_normal((len(X), WIDE_EXTRA))
    for j in range(d):
        extra += X[:, j:j + 1] * proj[j]
    return np.hstack([X, extra])


def _write_csv(path: Path, X: np.ndarray, labels: np.ndarray | None) -> None:
    header = [f"f{i}" for i in range(X.shape[1])] + ([LABEL] if labels is not None else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(X.tolist()):
            tail = f",{int(labels[i])}\n" if labels is not None else "\n"
            fh.write(",".join(map(repr, row)) + tail)


def sha256(path) -> str:
    """Same digest as anomix.artifact.file_fingerprint, computed here."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def generate_inputs(spec: Workload, seed: int, workdir: Path, tiny: bool) -> dict:
    """Write train.csv, holdout.csv (both labeled) and score.csv (unlabeled).

    The hold-out rows are fresh draws from the training distribution, many
    more than the CLI's test split, so AUC varies little from seed to seed.
    """
    rows = {
        "train.csv": TINY_TRAIN_ROWS if tiny else spec.train_rows,
        "holdout.csv": TINY_HOLDOUT_ROWS if tiny else spec.holdout_rows,
        "score.csv": TINY_SCORE_ROWS if tiny else spec.score_rows,
    }
    inputs = {}
    for stream, (name, n) in enumerate(rows.items()):
        data = generate_toy(n, seed=_child_seed(seed, stream))
        X = _widen(data.X, np.random.default_rng(_child_seed(seed, 10 + stream))) if spec.wide else data.X
        path = workdir / name
        if name == "score.csv":
            _write_csv(path, X, None)
            # The raw rows, for the single-row loop; repr() round-trips, so
            # they equal what the CLI parses.
            np.save(workdir / "score.npy", X)
        else:
            _write_csv(path, X, data.y)
        inputs[name] = {"path": str(path), "rows": n, "columns": int(X.shape[1]),
                        "sha256": sha256(path)}
    return inputs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def plan(workload: str, seed: int, workdir: Path, tiny: bool) -> dict:
    spec = WORKLOADS[workload]
    inputs = generate_inputs(spec, seed, workdir, tiny)
    out = {name: workdir / "out" / name for name in ("train", "evaluate", "score")}
    model = out["train"] / "model.json"
    train_args = list(spec.train_args) + (list(TINY_TRAIN_ARGS) if tiny else [])
    return {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "inputs": inputs,
        "commands": {
            "train": ["train", "--data", inputs["train.csv"]["path"], "--label-col", LABEL,
                      "--seed", str(TRAIN_SEED), "--out", str(out["train"]), *train_args],
            "evaluate": ["evaluate", "--model", str(model),
                         "--data", inputs["holdout.csv"]["path"],
                         "--label-col", LABEL, "--out", str(out["evaluate"])],
            "score": ["score", "--model", str(model), "--data", inputs["score.csv"]["path"],
                      "--out", str(out["score"])],
        },
        "outputs": {
            "model": str(model),
            "metrics": str(out["evaluate"] / "metrics.json"),
            "scores": str(out["score"] / "scores.csv"),
            "score_features": str(workdir / "score.npy"),
            "single_scores": str(workdir / "single.npy"),
        },
        "single_calls": TINY_SINGLE_CALLS if tiny else spec.single_calls,
        "machine": machine(),
    }
