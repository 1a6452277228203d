"""Memory guards for the scoring path: ingest, normalization and the batch
forward each hold their output plus bounded scratch, and the CSV writer
holds bounded scratch, measured as Python heap peaks with tracemalloc
(numpy reports its buffers to it)."""

import tracemalloc

import numpy as np
import pytest

from anomix.data import (
    Dataset,
    NormState,
    load_features,
    normalize_features,
    write_csv,
    write_rows,
)
from anomix.scorer import BLOCK_ROWS, build_scorer, score_batch

# Enough rows that one chunk of cells held as text is small next to the matrix.
ROWS, WIDTH = 40_000, 10


def _peak_bytes(fn, *args):
    """(result, peak traced bytes while fn ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def features(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "features.csv"
    rng = np.random.default_rng(7)
    write_rows(path, [f"f{i}" for i in range(WIDTH)], rng.normal(size=(ROWS, WIDTH)).tolist())
    return path


def test_ingest_and_normalization_hold_little_beyond_the_matrix(features):
    (X, _header), peak = _peak_bytes(load_features, features)
    assert X.shape == (ROWS, WIDTH)
    # The float blocks and their concatenation, not every cell as a str.
    assert peak <= 3 * X.nbytes, f"load_features peak {peak / X.nbytes:.2f}x the matrix"
    state = NormState(X.min(axis=0), X.max(axis=0))
    _out, peak = _peak_bytes(normalize_features, X, state)
    assert peak <= 1.5 * X.nbytes, f"normalize_features peak {peak / X.nbytes:.2f}x the matrix"


def test_batch_scoring_scratch_does_not_grow_with_rows():
    params = build_scorer(WIDTH, 128, seed=0)
    n = 2 * BLOCK_ROWS
    X = np.random.default_rng(8).uniform(0, 1, size=(4 * n, WIDTH))
    _scores, small = _peak_bytes(score_batch, params, X[:n])
    _scores, large = _peak_bytes(score_batch, params, X)
    extra_output = 3 * n * 8
    # 1 MiB of slack, a quarter of one block's (BLOCK_ROWS, 128) activation.
    assert large - small <= extra_output + 2**20, (
        f"peak grew by {large - small} bytes for {extra_output} more output bytes")


def test_csv_writer_peak_does_not_grow_with_rows(tmp_path):
    X = np.random.default_rng(9).normal(size=(ROWS, WIDTH))
    dataset = Dataset(X, np.zeros(ROWS, dtype=np.int64), np.zeros(ROWS, dtype=np.int64))
    small, large = (Dataset(X[:n], dataset.y[:n], dataset.roles[:n]) for n in (ROWS // 8, ROWS))
    _none, small_peak = _peak_bytes(write_csv, small, tmp_path / "small.csv")
    _none, large_peak = _peak_bytes(write_csv, large, tmp_path / "large.csv")
    # Eight times the rows; 256 KiB of slack, a small share of the 3.2 MB matrix.
    assert large_peak - small_peak <= 2**18, (
        f"write_csv peak grew from {small_peak} to {large_peak} bytes")
