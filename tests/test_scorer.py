import math

import numpy as np
import pytest

from anomix import scorer
from anomix.artifact import ModelArtifact, load_model, save_model
from anomix.errors import ContractViolationError, InvalidParameterError
from anomix.scorer import (
    TANH_LIMIT,
    DenseLayer,
    ScorerGraph,
    ScorerParams,
    build_scorer,
    hidden_sizes,
    score,
    score_batch,
)
from tests.conftest import (
    identity_bounds,
    identity_representation_scorer,
    where_representation,
)


@pytest.mark.parametrize("d,h,expected", [
    (29, 128, (78, 64)),
    (128, 128, (128, 64)),
    (10, 128, (69, 64)),
    (10, 4, (7, 2)),  # rep narrower than input: floor division goes negative
])
def test_hidden_sizing_rule(d, h, expected):
    assert hidden_sizes(d, h) == expected


def test_sizing_rejects_collapsed_architectures():
    # In TrainConfig's words: build_scorer(8, 0) says what `--rep-dim 0` says.
    with pytest.raises(InvalidParameterError, match=r"^rep_dim must be >= 2, got 1$"):
        hidden_sizes(4, 1)  # no scoring hidden units
    with pytest.raises(InvalidParameterError, match=r"^d_in must be >= 1, got 0$"):
        hidden_sizes(0, 8)
    with pytest.raises(InvalidParameterError, match=r"^rep_dim must be >= 2, got 0$"):
        build_scorer(8, 0)


def test_build_scorer_is_seed_reproducible():
    a = build_scorer(6, 16, seed=11)
    b = build_scorer(6, 16, seed=11)
    c = build_scorer(6, 16, seed=12)
    for la, lb in zip(a.layers(), b.layers()):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    assert not np.array_equal(a.rep_hidden.weights, c.rep_hidden.weights)


def test_layers_are_views_of_one_parameter_vector(tmp_path):
    params = build_scorer(3, 6, seed=2)
    arrays = [a for _, a in params.arrays()]
    # an in-place edit of a layer shows in flat, and the other way round
    params.rep_out.bias[1] = 7.5
    assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in arrays]))
    params.flat[-1] = -2.0
    assert params.score_out.bias[0] == -2.0
    for index, label in [(0, "rep_hidden.weights"), (params.flat.size - 1, "score_out.bias")]:
        values = np.zeros_like(params.flat)
        values[index:] = np.nan
        assert params.nonfinite_label(values) == label
    # parameters built from another's layers copy them
    twin = ScorerParams(*params.layers())
    assert np.array_equal(twin.flat, params.flat)
    assert not any(np.shares_memory(a, b) for a in arrays + [params.flat]
                   for _, b in twin.arrays())
    twin.flat[:] = 0.0
    assert params.score_out.bias[0] == -2.0
    save_model(ModelArtifact(params, identity_bounds(3), {}, 0), tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json").params
    assert loaded.flat.tobytes() == params.flat.tobytes()


def test_represent_matches_hand_chain(rng):
    # 3 -> 4 -> 2 chain checked against an explicit affine/LeakyReLU walk
    w1, b1 = rng.normal(size=(4, 3)), rng.normal(size=4)
    w2, b2 = rng.normal(size=(2, 4)), rng.normal(size=2)
    params = ScorerParams(
        rep_hidden=DenseLayer(w1, b1),
        rep_out=DenseLayer(w2, b2),
        score_hidden=DenseLayer(np.zeros((1, 2)), np.zeros(1)),
        score_out=DenseLayer(np.zeros((1, 1)), np.zeros(1)),
    )
    x = rng.normal(size=3)
    pre = w1 @ x + b1
    expected = w2 @ np.where(pre >= 0.0, pre, 0.01 * pre) + b2
    assert np.allclose(ScorerGraph(params).represent(x[None, :])[0], expected, atol=1e-14)


def test_score_matches_hand_chain():
    params = ScorerParams(
        rep_hidden=DenseLayer(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([0.0, 0.1])),
        rep_out=DenseLayer(np.array([[0.5, 0.5], [1.0, -1.0]]), np.array([0.2, 0.0])),
        score_hidden=DenseLayer(np.array([[1.0, 2.0]]), np.array([-0.3])),
        score_out=DenseLayer(np.array([[2.0]]), np.array([0.1])),
    )
    x = np.array([0.4, 0.7])
    pre = params.rep_hidden.weights @ x + params.rep_hidden.bias
    z = params.rep_out.weights @ np.where(pre >= 0.0, pre, 0.01 * pre) + params.rep_out.bias
    pre = params.score_hidden.weights @ z + params.score_hidden.bias
    h2 = np.where(pre >= 0.0, pre, 0.01 * pre)
    expected = np.tanh(params.score_out.weights @ h2 + params.score_out.bias)[0]
    assert score(params, x) == pytest.approx(expected, abs=1e-15)


def _plain_score(params, x):
    """score() as plain expressions: W @ x + b, max(h, slope*h), math.tanh, the clamp."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ContractViolationError("input vector holds a non-finite value")
    slope = params.slope
    h = params.rep_hidden.weights @ x + params.rep_hidden.bias
    z = params.rep_out.weights @ np.maximum(h, slope * h) + params.rep_out.bias
    h = params.score_hidden.weights @ z + params.score_hidden.bias
    raw = (float(params.score_out.weights[0] @ np.maximum(h, slope * h))
           + float(params.score_out.bias[0]))
    return min(max(math.tanh(raw), -TANH_LIMIT), TANH_LIMIT)


@pytest.mark.parametrize("d,h", [(4, 8), (10, 128), (64, 256)])
def test_score_equals_the_plain_forward_bitwise(d, h, rng):
    params = build_scorer(d, h, seed=5)
    X = rng.normal(size=(60, d))  # both signs reach every LeakyReLU
    X[::3] *= 1e3  # and tanh saturates into the clamp
    wide = np.zeros((len(X), 3 * d))
    wide[:, ::3] = X
    rows = {"contiguous": list(X), "strided": list(wide[:, ::3]),
            "fortran": list(np.asfortranarray(X)), "list": X.tolist()}
    assert not rows["strided"][0].flags.c_contiguous
    assert not rows["fortran"][0].flags.c_contiguous
    expected = [_plain_score(params, x) for x in X]
    assert TANH_LIMIT in np.abs(expected)
    for kind, given in rows.items():
        scores = [score(params, x) for x in given]
        assert np.array(scores).tobytes() == np.array(expected).tobytes(), kind


@pytest.mark.parametrize("at", [0, 3, 6])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_rejects_a_non_finite_entry_anywhere(bad, at, rng):
    params = build_scorer(7, 12, seed=1)
    x = rng.uniform(0, 1, size=7)
    x[at] = bad
    with pytest.raises(ContractViolationError, match="non-finite"):
        score(params, x)
    with pytest.raises(ContractViolationError, match="non-finite"):
        score(params, x.tolist())


def test_score_takes_a_finite_row_whose_sum_overflows():
    params = build_scorer(4, 8, seed=2)
    params.flat *= 1e-10
    x = np.array([1e308, 1e308, 0.0, 0.0])
    assert not math.isfinite(sum(x.tolist()))
    assert score(params, x) == _plain_score(params, x)


def test_zero_network_outputs():
    params = identity_representation_scorer(3)
    x = np.array([0.3, 0.6, 0.9])
    # identity representation
    assert np.array_equal(ScorerGraph(params).represent(x[None, :])[0], x)
    assert score(params, x) == 0.0  # zero score head -> tanh(0)

    zero = ScorerParams(
        rep_hidden=DenseLayer(np.zeros((2, 2)), np.zeros(2)),
        rep_out=DenseLayer(np.zeros((2, 2)), np.zeros(2)),
        score_hidden=DenseLayer(np.zeros((1, 2)), np.zeros(1)),
        score_out=DenseLayer(np.zeros((1, 1)), np.zeros(1)),
    )
    assert np.array_equal(ScorerGraph(zero).represent(np.array([[5.0, -3.0]])), np.zeros((1, 2)))


def test_scores_live_inside_open_interval(rng):
    for trial in range(10):
        params = build_scorer(5, 8, seed=trial)
        # huge inputs push tanh deep into saturation
        X = rng.uniform(-1e3, 1e3, size=(20, 5))
        s = score_batch(params, X)
        assert np.all(s > -1.0) and np.all(s < 1.0)
        assert all(-1.0 < score(params, x) < 1.0 for x in X)


def test_score_batch_equals_rowwise_loop(rng):
    params = build_scorer(4, 8, seed=2)
    X = rng.uniform(0, 1, size=(17, 4))
    batch = score_batch(params, X)
    loop = np.array([score(params, row) for row in X])
    # matrix-matrix and matrix-vector BLAS kernels round differently in
    # the last ulp; the two paths are mathematically identical
    assert np.allclose(batch, loop, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d,h,shift", [(4, 8, 0.0), (10, 128, 0.0), (10, 128, 18.5)])
def test_score_batch_equals_rowwise_loop_across_shapes(d, h, shift, rng):
    params = build_scorer(d, h, seed=2)
    params.score_out.bias[:] = shift  # 18.5 pushes most rows into the tanh clamp
    X = rng.uniform(0, 1, size=(300, d))
    batch = score_batch(params, X)
    loop = np.array([score(params, row) for row in X])
    if shift:
        assert 0 < np.count_nonzero(np.abs(batch) == TANH_LIMIT) < len(X)
    # matrix-matrix and matrix-vector BLAS kernels round differently in
    # the last ulp; the two paths are mathematically identical
    assert np.allclose(batch, loop, rtol=0, atol=1e-15)


def _one_shot_scores(params, X):
    """The whole forward as one chain of matrix products over every row of X."""
    pre = where_representation(params, X) @ params.score_hidden.weights.T + params.score_hidden.bias
    h = np.where(pre >= 0.0, pre, params.slope * pre)
    raw = (h @ params.score_out.weights.T + params.score_out.bias)[:, 0]
    return np.clip(np.tanh(raw), -TANH_LIMIT, TANH_LIMIT)


BLOCK = 8


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_blocked_scores_equal_each_block_scored_alone(n, rng, monkeypatch):
    monkeypatch.setattr(scorer, "BLOCK_ROWS", BLOCK)
    params = build_scorer(5, 12, seed=4)
    X = rng.normal(size=(n, 5))
    X[::3] *= 1e3  # both LeakyReLU branches and the tanh clamp
    scores = score_batch(params, X)
    assert scores.shape == (n,)
    for start in range(0, n, BLOCK):
        alone = score_batch(params, X[start:start + BLOCK].copy())
        assert scores[start:start + BLOCK].tobytes() == alone.tobytes()
    one_shot = _one_shot_scores(params, X)
    if n <= BLOCK:
        assert scores.tobytes() == one_shot.tobytes()
    else:
        assert np.allclose(scores, one_shot, rtol=0, atol=1e-15)


def _where_scores(params, X):
    """score_batch as plain expressions, BLOCK_ROWS rows at a time: np.where
    LeakyReLU and each bias added to a fresh product."""
    def hidden(pre):
        return np.where(pre >= 0.0, pre, params.slope * pre)

    (w1, b1), (w2, b2), (w3, b3), (w4, b4) = ((l.weights, l.bias) for l in params.layers())
    blocks = [np.empty(0)]
    for start in range(0, len(X), scorer.BLOCK_ROWS):
        z = hidden(X[start:start + scorer.BLOCK_ROWS] @ w1.T + b1) @ w2.T + b2
        raw = (hidden(z @ w3.T + b3) @ w4.T + b4)[:, 0]
        blocks.append(np.clip(np.tanh(raw), -TANH_LIMIT, TANH_LIMIT))
    return np.concatenate(blocks)


# 2055 and 8199 rows are many blocks plus a partial one at any power-of-two
# BLOCK_ROWS up to 1024 and 4096; the BLOCK_ROWS-relative case follows the
# current block size.
@pytest.mark.parametrize("n", [100, 2 * scorer.BLOCK_ROWS + 7, 2055, 8199])
def test_score_batch_equals_the_where_forward_bitwise(n, rng):
    params = build_scorer(5, 16, seed=3)
    X = rng.normal(size=(n, 5))
    X[::3] *= 1e3  # both LeakyReLU branches and the tanh clamp
    assert score_batch(params, X).tobytes() == _where_scores(params, X).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_rejected_by_row(bad, rng, monkeypatch):
    monkeypatch.setattr(scorer, "BLOCK_ROWS", 4)
    params = build_scorer(3, 6, seed=1)
    X = rng.uniform(0, 1, size=(12, 3))
    X[9, 2] = bad
    X[11, 0] = bad
    with pytest.raises(ContractViolationError, match=r"^input row 9 holds a non-finite value$"):
        score_batch(params, X)
    with pytest.raises(ContractViolationError, match="non-finite"):
        score(params, X[9])
    assert np.isfinite(score_batch(params, X[:8])).all()


def test_score_batch_edges(rng):
    params = build_scorer(4, 8, seed=2)
    assert score_batch(params, np.empty((0, 4))).shape == (0,)
    row = rng.uniform(0, 1, size=4)
    twice = score_batch(params, np.vstack([row, row]))
    assert twice[0] == twice[1]


def test_dimension_mismatches_raise(rng):
    params = build_scorer(4, 8, seed=2)
    with pytest.raises(ContractViolationError):
        score(params, np.ones(5))
    with pytest.raises(ContractViolationError):
        ScorerGraph(params).represent(np.ones((2, 3)))
    with pytest.raises(ContractViolationError):
        score_batch(params, np.ones((3, 5)))
    # Layers whose widths do not chain into one score are refused at construction.
    layers = params.layers()  # widths 4 -> 6 -> 8 -> 4 -> 1
    with pytest.raises(ContractViolationError,
                       match=r"^layer rep_out takes 5 inputs, the layer before it gives 6$"):
        ScorerParams(layers[0], DenseLayer(np.zeros((8, 5)), np.zeros(8)), *layers[2:])
    with pytest.raises(ContractViolationError, match=r"^layer score_out has 3 units, expected 1$"):
        ScorerParams(*layers[:3], DenseLayer(np.zeros((3, 4)), np.zeros(3)))


def test_forward_stays_finite_on_unit_box(rng):
    for trial in range(5):
        params = build_scorer(6, 12, seed=100 + trial)
        X = rng.uniform(0, 1, size=(50, 6))
        assert np.isfinite(ScorerGraph(params).represent(X)).all()
        assert np.isfinite(score_batch(params, X)).all()


def test_graph_forward_equals_numpy_forward_bitwise(rng):
    params = build_scorer(5, 12, seed=3)
    X = rng.normal(size=(33, 5))  # both signs reach every LeakyReLU
    X[:3] *= 1e3  # and tanh saturates into the clamp
    graph = ScorerGraph(params)
    assert graph.represent(X).tobytes() == where_representation(params, X).tobytes()
    assert np.array_equal(graph.forward(X, len(X)), score_batch(params, X))
    # the stacked forward represents every row and scores only the prefix
    prefix = graph.forward(X, 20)
    assert prefix.shape == (20,)
    assert graph.rep.tobytes() == where_representation(params, X).tobytes()
    assert np.array_equal(prefix, score_batch(params, X[:20]))
    with pytest.raises(ContractViolationError):
        graph.forward(X, 0)
