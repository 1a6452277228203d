import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anomix.errors import InvalidParameterError
from anomix.interpolation import augment_batch


def _weights(k, alpha, m, rng):
    """The (m, k) mixing weights of one augment_batch call over k sources."""
    x = np.zeros((k, 1))
    y = np.array([1.0] + [-1.0] * (k - 1))
    return augment_batch(x, y, k=k, alpha=alpha, m=m, rng=rng).lambdas


def test_weights_sum_to_one_for_pairs(rng):
    lam = _weights(2, 0.5, 200, rng)
    assert lam.shape == (200, 2)
    assert np.all(lam >= 0)
    assert np.all(np.abs(lam.sum(axis=1) - 1.0) <= 1e-12)


def test_weights_simplex_for_k3(rng):
    lam = _weights(3, 0.5, 200, rng)
    assert lam.shape == (200, 3)
    assert np.all(lam >= 0)
    assert np.all(np.abs(lam.sum(axis=1) - 1.0) <= 1e-12)


def test_weights_parameter_validation(rng):
    x = rng.normal(size=(3, 2))
    y = np.array([1.0, -1.0, -1.0])
    with pytest.raises(InvalidParameterError,
                       match=re.escape("k must lie in [2, 3] for a batch of 3 rows, got 1")):
        augment_batch(x, y, k=1, alpha=0.5, m=2, rng=rng)
    # k is checked before alpha, against the batch size too.
    with pytest.raises(InvalidParameterError, match=re.escape("k must lie in [2, 3]")):
        augment_batch(x, y, k=4, alpha=0.0, m=2, rng=rng)
    with pytest.raises(InvalidParameterError, match="^alpha must be positive$"):
        augment_batch(x, y, k=2, alpha=0.0, m=2, rng=rng)
    with pytest.raises(InvalidParameterError, match="^alpha must be positive$"):
        augment_batch(x, y, k=2, alpha=-1.0, m=2, rng=rng)


def test_pair_weights_are_symmetric_and_u_shaped(rng):
    draws = _weights(2, 0.5, 20000, rng)[:, 0]
    assert abs(draws.mean() - 0.5) < 0.02
    tail = np.mean((draws < 0.1) | (draws > 0.9))
    assert tail > 0.35  # Beta(0.5, 0.5) piles mass near the endpoints


def test_triple_weights_have_symmetric_marginals(rng):
    # each weight of a symmetric Dirichlet over 3 sources has mean 1/3
    draws = _weights(3, 0.5, 20000, rng)[:, 0]
    assert abs(draws.mean() - 1.0 / 3.0) < 0.02


def test_augment_batch_shapes_and_bookkeeping(rng):
    x = rng.uniform(0, 1, size=(8, 3))
    y = np.array([1.0] * 4 + [-1.0] * 4)
    batch = augment_batch(x, y, k=2, alpha=0.5, m=16, rng=rng)
    assert len(batch) == 16
    assert batch.x.shape == (16, 3)
    assert batch.sources.shape == (16, 2)
    for i in range(16):
        idx = batch.sources[i]
        assert len(set(idx.tolist())) == 2  # sources drawn without replacement
        lam = batch.lambdas[i]
        assert abs(lam.sum() - 1.0) <= 1e-12
        assert np.allclose(batch.x[i], lam @ x[idx], atol=1e-15)
        assert batch.y[i] == pytest.approx(float(lam @ y[idx]), abs=1e-15)


def test_source_subsets_are_uniform():
    # n=5, k=3: each of the C(5, 3) = 10 subsets has probability 1/10. Over
    # 20000 rows a frequency's standard deviation is 0.0021; the 0.01
    # tolerance is about 4.7 of them.
    x = np.zeros((5, 1))
    y = np.array([1.0, 1.0, -1.0, -1.0, -1.0])
    batch = augment_batch(x, y, k=3, alpha=0.5, m=20000, rng=np.random.default_rng(5))
    subsets, counts = np.unique(np.sort(batch.sources, axis=1), axis=0, return_counts=True)
    assert len(subsets) == 10
    assert np.all(np.abs(counts / 20000 - 0.1) <= 0.01)


def test_augment_targets_interpolate_between_classes(rng):
    x = rng.uniform(0, 1, size=(6, 2))
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    batch = augment_batch(x, y, k=2, alpha=0.5, m=200, rng=rng)
    assert np.all(batch.y >= -1.0) and np.all(batch.y <= 1.0)
    mixed_pairs = y[batch.sources].sum(axis=1) == 0.0
    assert mixed_pairs.any()
    # an anomaly/unlabeled mix lands strictly between the extremes
    assert np.all(np.abs(batch.y[mixed_pairs]) < 1.0)
    same_pairs = ~mixed_pairs
    assert np.all(np.abs(batch.y[same_pairs]) == 1.0)


def test_augment_convex_hull_containment(rng):
    x = rng.normal(size=(10, 4))
    y = np.array([1.0] * 5 + [-1.0] * 5)
    batch = augment_batch(x, y, k=3, alpha=0.5, m=300, rng=rng)
    lows = x[batch.sources].min(axis=1) - 1e-12
    highs = x[batch.sources].max(axis=1) + 1e-12
    assert np.all(batch.x >= lows) and np.all(batch.x <= highs)


def test_augment_batch_determinism():
    x = np.arange(12.0).reshape(6, 2)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    a = augment_batch(x, y, 2, 0.5, 10, np.random.default_rng(99))
    b = augment_batch(x, y, 2, 0.5, 10, np.random.default_rng(99))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.sources, b.sources)
    assert np.array_equal(a.lambdas, b.lambdas)


def test_augment_batch_validation(rng):
    x = rng.normal(size=(3, 2))
    y = np.array([1.0, -1.0, -1.0])
    with pytest.raises(InvalidParameterError,
                       match=re.escape("k must lie in [2, 3] for a batch of 3 rows, got 4")):
        augment_batch(x, y, k=4, alpha=0.5, m=2, rng=rng)
    with pytest.raises(InvalidParameterError):
        augment_batch(x, y, k=2, alpha=0.5, m=0, rng=rng)
    with pytest.raises(InvalidParameterError):
        augment_batch(x, np.array([1.0, 0.5, -1.0]), k=2, alpha=0.5, m=2, rng=rng)


@pytest.mark.parametrize("x, y", [
    pytest.param(np.zeros(3), np.zeros(3), id="x-1d"),
    pytest.param(np.zeros((3, 2)), np.zeros(2), id="labels-short"),
    pytest.param(np.zeros((3, 2)), np.zeros((3, 1)), id="labels-2d"),
])
def test_augment_batch_source_shape_errors(x, y, rng):
    with pytest.raises(InvalidParameterError) as caught:
        augment_batch(x, y, k=2, alpha=0.5, m=2, rng=rng)
    assert type(caught.value) is InvalidParameterError
    assert str(caught.value) == "sources must be an (n, d) matrix with n labels"


def test_beta_tail_mass_matches_arcsine_law(rng):
    # Monte-Carlo check against the closed-form Beta(0.5, 0.5) CDF
    draws = _weights(2, 0.5, 30000, rng)[:, 0]
    expected_tail = 2.0 * (2.0 / math.pi) * math.asin(math.sqrt(0.1))
    observed = np.mean((draws < 0.1) | (draws > 0.9))
    assert abs(observed - expected_tail) < 0.03


@st.composite
def _augment_inputs(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 5))
    x = draw(hnp.arrays(np.float64, (n, d),
                        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
    y = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    k = draw(st.integers(2, n))
    m = draw(st.integers(1, 20))
    alpha = draw(st.floats(0.05, 5.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return x, y, k, alpha, m, seed


@settings(deadline=None, derandomize=True)
@given(inputs=_augment_inputs())
def test_augment_batch_properties(inputs):
    x, y, k, alpha, m, seed = inputs
    batch = augment_batch(x, y, k, alpha, m, np.random.default_rng(seed))
    n, d = x.shape
    assert batch.x.shape == (m, d) and batch.y.shape == (m,)
    assert batch.sources.shape == (m, k) and batch.lambdas.shape == (m, k)
    assert np.all(batch.y >= -1.0) and np.all(batch.y <= 1.0)
    assert np.all(batch.lambdas >= 0.0)
    assert np.all(np.abs(batch.lambdas.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all((batch.sources >= 0) & (batch.sources < n))
    for row in batch.sources:
        assert len(set(row.tolist())) == k
    for i in range(m):  # the row-by-row reference, 1e-12 relative to the sources' magnitude
        rows = x[batch.sources[i]]
        tol = 1e-12 * np.abs(rows).max() + np.finfo(np.float64).tiny  # slack for subnormals
        assert np.all(np.abs(batch.x[i] - batch.lambdas[i] @ rows) <= tol)
    again = augment_batch(x, y, k, alpha, m, np.random.default_rng(seed))
    for field in ("x", "y", "sources", "lambdas"):
        assert getattr(again, field).tobytes() == getattr(batch, field).tobytes()


@settings(deadline=None, derandomize=True)
@given(inputs=_augment_inputs(), k=st.sampled_from([2, 3]))
def test_mix_of_equal_labels_stays_extreme(inputs, k):
    # Dirichlet weights sum to 1 only up to rounding; a same-label mix must
    # still get its label exactly, not a value an ulp inside it.
    x, y, _k, alpha, m, seed = inputs
    assume(k <= len(x))
    batch = augment_batch(x, y, k, alpha, m, np.random.default_rng(seed))
    labels = y[batch.sources]
    same = np.all(labels == labels[:, :1], axis=1)
    assert np.array_equal(batch.y[same], labels[same, 0])
