import itertools
import math

import numpy as np
import pytest

from anomix.data import NormState
from anomix.losses import feature_regularizer_graph, scoring_loss_graph
from anomix.nn import DenseLayer
from anomix.scorer import ScorerParams


def identity_bounds(d: int) -> NormState:
    """Min-max bounds under which d already-normalized features score as they are.

    x - 0.0 and x / 1.0 are exact; test_data pins that these give the features bit for bit.
    """
    return NormState(np.zeros(d), np.ones(d))


def where_representation(params: ScorerParams, X) -> np.ndarray:
    """The representation stage as plain expressions over every row of X at once:
    each bias added to a fresh product, and np.where LeakyReLU."""
    pre = X @ params.rep_hidden.weights.T + params.rep_hidden.bias
    hidden = np.where(pre >= 0.0, pre, params.slope * pre)
    return hidden @ params.rep_out.weights.T + params.rep_out.bias


def identity_representation_scorer(d: int) -> ScorerParams:
    """Scorer whose representation is the identity for nonnegative inputs.

    The score head is all-zero, so scores are tanh(0) = 0 everywhere.
    """
    eye = np.eye(d)
    h2 = max(d // 2, 1)
    return ScorerParams(
        rep_hidden=DenseLayer(eye.copy(), np.zeros(d)),
        rep_out=DenseLayer(eye.copy(), np.zeros(d)),
        score_hidden=DenseLayer(np.zeros((h2, d)), np.zeros(h2)),
        score_out=DenseLayer(np.zeros((1, h2)), np.zeros(1)),
    )


def tanh_line_scorer(gain: float = 1.0, shift: float = 10.0) -> ScorerParams:
    """1-d scorer computing tanh(gain * x) for inputs above -shift.

    The shift keeps every hidden pre-activation positive so the LeakyReLU
    stages are exact identities on the range of interest.
    """
    return ScorerParams(
        rep_hidden=DenseLayer(np.array([[1.0]]), np.array([shift])),
        rep_out=DenseLayer(np.array([[1.0]]), np.array([0.0])),
        score_hidden=DenseLayer(np.array([[1.0]]), np.array([0.0])),
        score_out=DenseLayer(np.array([[gain]]), np.array([-gain * shift])),
    )


def step_losses(graph, mode, blocks, mixed, margin=1.0):
    """(scoring loss, feature loss or None) as train() evaluates them in `mode`.

    Each loss is its (value, gradient function) pair. `blocks` is the
    (anomaly, unlabeled, anchor) triple from sample_batches and `mixed` the
    augmented batch drawn from its first two blocks (None in
    plain_regression).
    """
    loss = scoring_loss_graph(graph, mode, blocks, mixed)
    if mode == "no_regularizer":
        return loss, None
    return loss, feature_regularizer_graph(graph, len(blocks[0]), margin)


def nan_loss_at(loss, call: int):
    """The loss function `loss` of train()'s step, whose value is nan at its `call`-th call
    (0-based, counted over the run) and as computed at every other call."""
    calls = itertools.count()

    def wrapped(*args):
        value, grad = loss(*args)
        return (math.nan if next(calls) == call else value), grad

    return wrapped


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
