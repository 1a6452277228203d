"""The console script in separate processes: what one process cannot check.

Each check runs `python -m anomix.cli` as a child process, in the test's own
directory, with its own environment: `OPENBLAS_NUM_THREADS`, numpy's overflow and
invalid-value warnings as errors, and an absolute PYTHONPATH to the `src/` this
suite imports. What one process can check lives in test_cli.py.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anomix
from anomix.artifact import ModelArtifact, save_model
from anomix.data import generate_toy, write_csv
from anomix.scorer import build_scorer
from tests.conftest import identity_bounds

SRC = str(Path(anomix.__file__).resolve().parent.parent)
# The train_wide shape: matrix products large enough for OpenBLAS to thread.
WIDE = ["--label-col", "label", "--seed", "1", "--epochs", "3", "--batch-size", "128",
        "--rep-dim", "256", "--k", "3"]


def _anomix(cwd, *argv, threads=1, stdout=subprocess.PIPE):
    """`python -m anomix.cli *argv` run to its end in `cwd` at `threads` OpenBLAS threads.

    PYTHONUNBUFFERED is dropped: a buffered stdout is what the interpreter flushes at
    exit. No bytecode is written, so the child writes under `cwd` only.
    """
    env = {name: value for name, value in os.environ.items()
           if name not in ("PYTHONUNBUFFERED", "ANOMIX_OUT")}
    env.update(OPENBLAS_NUM_THREADS=str(threads), PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "anomix.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300)


def _ok(cwd, *argv, threads=1):
    done = _anomix(cwd, *argv, threads=threads)
    assert (done.returncode, done.stderr) == (0, ""), argv


def _same_bytes(cwd, *paths):
    """Assert each {n} path holds the same bytes at one and at two threads."""
    for path in paths:
        one, two = ((cwd / path.format(n=n)).read_bytes() for n in (1, 2))
        assert one == two, f"{path} differs between one and two OpenBLAS threads"


# -- trained bytes across processes and BLAS threads --------------------------------


@pytest.fixture(scope="module")
def blas(tmp_path_factory):
    """A directory holding blas/toy.csv (3000 rows) and its train at one and two threads."""
    cwd = tmp_path_factory.mktemp("blas")
    _ok(cwd, "synth", "--kind", "toy", "--n", "3000", "--seed", "1", "--out", "blas")
    for n in (1, 2):
        _ok(cwd, "train", "--data", "blas/toy.csv", *WIDE, "--out", f"blas/threads-{n}",
            threads=n)
    return cwd


def test_a_train_writes_the_same_bytes_at_one_and_two_threads(blas):
    _same_bytes(blas, "blas/threads-{n}/model.json", "blas/threads-{n}/history.json",
                "blas/threads-{n}/test_split.csv")


def test_a_model_scores_and_evaluates_the_same_bytes_at_one_and_two_threads(blas):
    # 3000 rows are twelve score_batch blocks.
    for n in (1, 2):
        for command, out in (("score", "scores"), ("evaluate", "metrics")):
            _ok(blas, command, "--model", "blas/threads-1/model.json", "--data", "blas/toy.csv",
                "--label-col", "label", "--out", f"blas/{out}-{n}", threads=n)
    _same_bytes(blas, "blas/scores-{n}/scores.csv", "blas/metrics-{n}/metrics.json")


def test_a_sweep_writes_the_same_bytes_at_one_and_two_threads(blas):
    for n in (1, 2):
        _ok(blas, "sweep", "--data", "blas/toy.csv", *WIDE, "--contamination", "0", "0.1",
            "--labeled-anomalies", "5", "400", "--out", f"blas/sweep-{n}", threads=n)
    _same_bytes(blas, "blas/sweep-{n}/sweep_results.csv")
    with open(blas / "blas/sweep-1/sweep_results.csv", newline="", encoding="utf-8") as fh:
        statuses = [row["status"].split(":")[0] for row in csv.DictReader(fh)]
    assert statuses == ["ok", "error", "ok", "error"]  # budget 400 is infeasible


# -- the console script's contract -------------------------------------------------


def _refused_inputs(cwd) -> None:
    """toy.csv, labels.csv with no feature column, model.json, and model.json with its
    first min bound the string "0" or NaN."""
    write_csv(generate_toy(200, seed=1), cwd / "toy.csv")
    (cwd / "labels.csv").write_bytes(b"label\r\n0\r\n1\r\n0\r\n")
    save_model(ModelArtifact(build_scorer(10, 8, seed=1), identity_bounds(10), {}, 1),
               cwd / "model.json")
    payload = json.loads((cwd / "model.json").read_text(encoding="utf-8"))
    for name, bound in (("string", "0"), ("nan", np.nan)):
        payload["normalization"]["min"][0] = bound
        (cwd / f"{name}-bound.json").write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("argv, error, message", [
    pytest.param(["score", "--model", "model.json", "--data", "toy.csv", "--label-col", "lable"],
                 "DatasetError", "toy.csv: label column 'lable' not in header [",
                 id="misspelled-label"),
    pytest.param(["train", "--data", "labels.csv", "--label-col", "label"],
                 "UnusableDatasetError", "labels.csv: no feature column besides 'label'",
                 id="label-only"),
    pytest.param(["score", "--model", "string-bound.json", "--data", "toy.csv"],
                 "CorruptArtifactError", "string-bound.json: normalization bounds hold a value "
                                         "that is not a number", id="string-bound"),
    pytest.param(["score", "--model", "nan-bound.json", "--data", "toy.csv"],
                 "CorruptArtifactError",
                 "nan-bound.json: not valid JSON (non-finite value 'NaN')", id="nan-bound"),
])
def test_the_console_script_refuses_with_exit_1_and_one_record(argv, error, message, tmp_path):
    # Exit 1, nothing on stdout, one JSON record on stderr naming the error class (a
    # model file's message led by its path as given), and no output directory.
    _refused_inputs(tmp_path)
    done = _anomix(tmp_path, *argv, "--out", "out")
    assert (done.returncode, done.stdout) == (1, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    record = json.loads(lines[0])
    assert record["error"] == error
    assert record["message"].startswith(message)
    assert not (tmp_path / "out").exists()


def test_a_closed_stdout_is_one_record_at_interpreter_exit(tmp_path):
    # stdout is a pipe whose reader has exited, as in `anomix ... | head -0`. The
    # interpreter flushes stdout once more at exit, which one process cannot see.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _anomix(tmp_path, "synth", "--kind", "toy", "--n", "100", "--out", "out",
                       stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert [json.loads(line) for line in done.stderr.splitlines()] == [{
        "error": "BrokenPipeError",
        "message": "stdout was closed before the status lines; every output and the "
                   "manifest were written"}]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["synth_manifest.json",
                                                                    "toy.csv"]
