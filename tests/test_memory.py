"""Memory guards for the scoring path: ingest, normalization and the batch
forward each hold their output plus bounded scratch, and the CSV writers
hold bounded scratch, measured as Python heap peaks with tracemalloc
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
    write_scores,
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
    # 256 KiB of slack, one whole (BLOCK_ROWS, 128) float64 activation at 256 rows.
    assert large - small <= extra_output + 2**18, (
        f"peak grew by {large - small} bytes for {extra_output} more output bytes")


def test_batch_scoring_scratch_stays_near_l2_size():
    # One block's activations and temporaries at H = 128: 0.71 MiB at 256
    # rows, 2.65 MiB at 1024, 10.4 MiB at 4096, whose blocks spilled out of a
    # 2 MiB L2 cache.
    params = build_scorer(WIDTH, 128, seed=0)
    X = np.random.default_rng(8).uniform(0, 1, size=(4 * BLOCK_ROWS, WIDTH))
    scores, peak = _peak_bytes(score_batch, params, X)
    assert peak - scores.nbytes <= 4 * 2**20, (
        f"score_batch held {(peak - scores.nbytes) / 2**20:.2f} MiB beside its output")


def test_validation_sized_batch_scoring_holds_under_1_mib():
    # An epoch's validation scores 1000 rows of the default toy split: 0.71 MiB
    # beside the output at 256-row blocks, 2.09 MiB at 1024, which a fresh
    # `anomix train` took as page faults every epoch.
    params = build_scorer(WIDTH, 128, seed=0)
    X = np.random.default_rng(8).uniform(0, 1, size=(1000, WIDTH))
    scores, peak = _peak_bytes(score_batch, params, X)
    assert peak - scores.nbytes <= 2**20, (
        f"score_batch held {(peak - scores.nbytes) / 2**20:.2f} MiB beside its output")


def test_csv_writer_peak_does_not_grow_with_rows(tmp_path):
    X = np.random.default_rng(9).normal(size=(ROWS, WIDTH))
    dataset = Dataset(X, np.zeros(ROWS, dtype=np.int64), np.zeros(ROWS, dtype=np.int64))
    small, large = (Dataset(X[:n], dataset.y[:n], dataset.roles[:n]) for n in (ROWS // 8, ROWS))
    _none, small_peak = _peak_bytes(write_csv, small, tmp_path / "small.csv")
    _none, large_peak = _peak_bytes(write_csv, large, tmp_path / "large.csv")
    # Eight times the rows; 256 KiB of slack, a small share of the 3.2 MB matrix.
    assert large_peak - small_peak <= 2**18, (
        f"write_csv peak grew from {small_peak} to {large_peak} bytes")


def test_scores_writer_peak_does_not_grow_with_rows(tmp_path):
    scores = np.random.default_rng(10).uniform(-1, 1, size=100_000)
    _none, small_peak = _peak_bytes(write_scores, tmp_path / "small.csv", scores[:len(scores) // 8])
    _none, large_peak = _peak_bytes(write_scores, tmp_path / "large.csv", scores)
    # Eight times the scores, made before tracing. Every score held as a Python
    # float at once would add about 2.7 MiB here; one chunk of them stays flat.
    assert large_peak - small_peak <= 2**18, (
        f"write_scores peak grew from {small_peak} to {large_peak} bytes")
