import dataclasses
import math
import re

import numpy as np
import pytest

from anomix.errors import ContractViolationError, TrainingDivergedError
from anomix.interpolation import augment_batch
from anomix.losses import ABLATION_MODES
from anomix.nn import Var, v_linear
from anomix.scorer import (
    TANH_LIMIT,
    DenseLayer,
    ScorerGraph,
    ScorerParams,
    _leaky_relu,
    backward,
    build_scorer,
)
from anomix.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, TrainConfig, adam_step
from tests.conftest import step_losses, tanh_line_scorer


def _affine(layer: DenseLayer, rows) -> np.ndarray:
    return v_linear(np.asarray(rows, dtype=np.float64), Var(layer.weights), Var(layer.bias))


def test_affine_identity():
    layer = DenseLayer(np.eye(2), np.zeros(2))
    assert np.array_equal(_affine(layer, [[1.0, 2.0]]), [[1.0, 2.0]])


def test_affine_zero_input_passes_bias():
    layer = DenseLayer(np.array([[2.0, 3.0], [4.0, 5.0]]), np.array([0.5, -0.5]))
    assert np.array_equal(_affine(layer, [[0.0, 0.0]]), [[0.5, -0.5]])


def test_affine_hand_product():
    layer = DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
    assert np.array_equal(_affine(layer, [[1.0, 1.0], [0.0, 1.0]]), [[4.0, 8.0], [3.0, 5.0]])


def test_affine_dimension_mismatch():
    # the training forward checks input widths before any layer runs
    graph = ScorerGraph(build_scorer(2, 4, seed=0))
    with pytest.raises(ContractViolationError):
        graph.forward(np.ones((1, 3)), 1)
    with pytest.raises(ContractViolationError):
        graph.represent(np.ones(2))


def test_dense_layer_shape_contract():
    with pytest.raises(ContractViolationError):
        DenseLayer(np.eye(2), np.zeros(3))


@pytest.mark.parametrize("weights, bias, message", [
    pytest.param(np.zeros(3), np.zeros(3), "weights must be a 2-d matrix", id="weights-1d"),
    pytest.param(np.zeros((1, 2, 2)), np.zeros(1), "weights must be a 2-d matrix",
                 id="weights-3d"),
    pytest.param(np.eye(2), np.zeros((2, 1)), "bias shape (2, 1) does not match 2 output units",
                 id="bias-2d"),
])
def test_dense_layer_contract_errors(weights, bias, message):
    with pytest.raises(ContractViolationError) as caught:
        DenseLayer(weights, bias)
    assert type(caught.value) is ContractViolationError
    assert str(caught.value) == message


def test_leaky_relu_values():
    value, factor = _leaky_relu(np.array([2.0, 0.0, -1.0]), 0.01)
    assert np.array_equal(value, [2.0, 0.0, -0.01])
    assert np.array_equal(factor, [1.0, 1.0, 0.01])
    assert np.allclose(_leaky_relu(np.array([-2.0, 3.0]), 0.1)[0], [-0.2, 3.0])


@pytest.mark.parametrize("slope", [0.01, 0.3, 0.5, float(np.nextafter(1.0, 0.0))])
def test_leaky_relu_forms_equal_the_where_form_bitwise(slope):
    # max(x, slope*x), written over x as the inference forwards write it, and
    # x * max(x >= 0, slope) give np.where's bits, signed zeros, subnormals and
    # the float64 extremes included
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300, 1.5, -1.5]
    x = np.concatenate([edges, np.random.default_rng(0).normal(size=50)]).reshape(6, 10)
    expected = np.where(x >= 0.0, x, slope * x)
    factor = np.where(x >= 0.0, 1.0, slope)
    inference = x.copy()
    np.maximum(inference, slope * inference, out=inference)
    assert inference.tobytes() == expected.tobytes()
    value, got_factor = _leaky_relu(x.copy(), slope)
    assert got_factor.tobytes() == factor.tobytes()
    assert value.tobytes() == (x * factor).tobytes() == expected.tobytes()


def test_leaky_relu_slope_domain():
    # one slope for every model, a class constant that the parameters do not take
    layers = build_scorer(2, 4, seed=0).layers()
    with pytest.raises(TypeError, match="slope"):
        ScorerParams(*layers, slope=0.2)
    assert ScorerParams.slope == 0.01
    assert ScorerParams(*layers).slope == 0.01
    assert "slope" not in {field.name for field in dataclasses.fields(ScorerParams)}


def test_tanh_values():
    # the score head's output is the input here, so the forward's clamped tanh shows
    graph = ScorerGraph(tanh_line_scorer(shift=30.0))
    out = graph.forward(np.array([[0.0], [1.0], [20.0], [-20.0]]), 4)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.7615941559557649, abs=1e-12)
    assert abs(out[2] - 1.0) < 1e-9
    assert out[2] < 1.0
    assert out[3] > -1.0


def test_build_scorer_deterministic_and_scaled():
    a = build_scorer(9, 16, seed=5)
    assert np.array_equal(a.flat, build_scorer(9, 16, seed=5).flat)
    assert not np.array_equal(a.flat, build_scorer(9, 16, seed=6).flat)
    for name, layer in a.named_layers():
        limit = 1.0 / math.sqrt(layer.weights.shape[1])
        assert 0 < np.abs(layer.weights).max() < limit, name
        assert np.array_equal(layer.bias, np.zeros(layer.weights.shape[0])), name


# -- explicit backward ---------------------------------------------------------


def _split(params, vector):
    """`vector`, laid out like `params.flat`, cut into the eight arrays' shapes."""
    shapes = [a.shape for _, a in params.arrays()]
    parts = np.split(vector, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def test_constant_loss_gives_zero_gradients(rng):
    # a loss that does not depend on the scores gives zeros in the parameters' layout
    params = build_scorer(3, 4, seed=0)
    graph = ScorerGraph(params)
    graph.forward(rng.normal(size=(5, 3)), 5)
    grad = backward(graph, np.zeros(5), None)
    assert grad.shape == params.flat.shape
    assert not grad.any()


def test_single_layer_squared_error_closed_form(rng):
    # a sum of squared residuals on the representation reaches the score
    # head not at all, the output layer as 2 r^T h and its input as 2 r W
    params = build_scorer(3, 4, seed=1)
    params.rep_hidden.bias += 10.0  # every hidden unit active: LeakyReLU is the identity
    x = rng.uniform(0, 1, size=(2, 3))
    target = rng.normal(size=(2, 4))
    hidden = x @ params.rep_hidden.weights.T + params.rep_hidden.bias
    residual = (hidden @ params.rep_out.weights.T + params.rep_out.bias) - target
    graph = ScorerGraph(params)
    graph.forward(x, 2)
    d_w1, d_b1, d_w2, d_b2, *head = _split(params, backward(graph, np.zeros(2),
                                                          2.0 * (graph.rep - target)))
    assert np.allclose(d_w2, 2.0 * residual.T @ hidden, atol=1e-12)
    assert np.allclose(d_b2, 2.0 * residual.sum(axis=0), atol=1e-12)
    d_hidden = 2.0 * residual @ params.rep_out.weights
    assert np.allclose(d_w1, d_hidden.T @ x, atol=1e-12)
    assert np.allclose(d_b1, d_hidden.sum(axis=0), atol=1e-12)
    assert all(not g.any() for g in head)


def test_row_prefix_passes_gradient_to_its_rows_only(rng):
    # rows represented but not scored take no part in the score gradient
    params = build_scorer(3, 4, seed=2)
    x = rng.normal(size=(3, 3))
    g_scores = rng.normal(size=2)
    prefix, whole = ScorerGraph(params), ScorerGraph(params)
    prefix.forward(x, 2)
    whole.forward(x[:2], 2)
    assert np.allclose(backward(prefix, g_scores, None), backward(whole, g_scores, None),
                       rtol=0, atol=1e-15)


def _plain_forward_backward(params, x, n_scored, g_scores, g_rep):
    """(rep, t, gradient) of one step as plain expressions.

    np.where LeakyReLU factors, each bias added to a fresh product, the
    representation gradient zero-padded past the scored rows, and the
    eight gradient arrays concatenated.
    """
    (w1, b1), (w2, b2), (w3, b3), (w4, b4) = ((l.weights, l.bias) for l in params.layers())
    pre1 = x @ w1.T + b1
    f1 = np.where(pre1 >= 0.0, 1.0, params.slope)
    h1 = pre1 * f1
    rep = h1 @ w2.T + b2
    pre2 = rep[:n_scored] @ w3.T + b3
    f2 = np.where(pre2 >= 0.0, 1.0, params.slope)
    h2 = pre2 * f2
    t = np.clip(np.tanh(h2 @ w4.T + b4), -TANH_LIMIT, TANH_LIMIT)
    g_out = g_scores[:, None] * (1.0 - t * t)
    g_hidden2 = (g_out @ w4) * f2
    g_rep_total = np.zeros_like(rep)
    g_rep_total[:n_scored] = g_hidden2 @ w3
    if g_rep is not None:
        g_rep_total = g_rep_total + g_rep
    g_hidden1 = (g_rep_total @ w2) * f1
    return rep, t, np.concatenate([
        (g_hidden1.T @ x).ravel(), g_hidden1.sum(axis=0),
        (g_rep_total.T @ h1).ravel(), g_rep_total.sum(axis=0),
        (g_hidden2.T @ rep[:n_scored]).ravel(), g_hidden2.sum(axis=0),
        (g_out.T @ h2).ravel(), g_out.sum(axis=0)])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_forward_and_backward_equal_their_plain_formulation_bitwise(mode, k):
    rng = np.random.default_rng(5)
    params = build_scorer(4, 8, seed=6)
    b = 6
    anomaly, unlabeled, anchor = (rng.uniform(0, 1, size=(b, 4)) for _ in range(3))
    labels = np.concatenate([np.ones(b), -np.ones(b)])
    # The second batch repeats the anchors as its unlabeled rows: every hinge
    # is inactive, its gradient holds -0.0 entries, and zero distances take
    # the zero subgradient.
    for blocks, margin in (((anomaly, unlabeled, anchor), 0.5), ((anomaly, anchor, anchor), 1e-9)):
        mixed = augment_batch(np.vstack(blocks[:2]), labels, k, 0.5, 2 * b, rng)
        graph = ScorerGraph(params)
        (_loss, loss_grad), feature = step_losses(graph, mode, blocks, mixed, margin)
        g_scores = loss_grad(0.7)
        g_rep = None if feature is None else feature[1](0.3)
        if g_rep is not None and margin < 1e-6:
            assert feature[0] == 0.0 and np.signbit(g_rep[g_rep == 0.0]).any()
        rep, t, grad = _plain_forward_backward(params, graph.x, len(graph.t), g_scores, g_rep)
        assert graph.rep.tobytes() == rep.tobytes() and graph.t.tobytes() == t.tobytes()
        assert backward(graph, g_scores, g_rep).tobytes() == grad.tobytes()


def test_backward_without_a_representation_gradient_equals_the_plain_formulation_bitwise(rng):
    # rows represented past the scored prefix and no g_rep: those rows' gradient is the
    # zero padding alone, a path train() never takes
    params = build_scorer(4, 8, seed=7)
    graph = ScorerGraph(params)
    graph.forward(rng.uniform(0, 1, size=(9, 4)), 5)
    g_scores = rng.normal(size=5)
    _rep, _t, grad = _plain_forward_backward(params, graph.x, 5, g_scores, None)
    assert backward(graph, g_scores, None).tobytes() == grad.tobytes()


# -- optimizer ---------------------------------------------------------------


def _adam(params, lr=TrainConfig.lr, weight_decay=TrainConfig.weight_decay) -> AdamState:
    """Zeroed AdamState for `params`, by default with TrainConfig's lr and decay."""
    return AdamState(lr, weight_decay, np.zeros_like(params.flat), np.zeros_like(params.flat))


def _scalar_setup(weight=0.5):
    """Scorer of 1x1 layers, `weight` first in `flat`, with a zero gradient to fill in."""
    params = tanh_line_scorer()
    params.rep_hidden.weights[0, 0] = weight
    return params, np.zeros_like(params.flat)


def test_adam_zero_gradient_is_identity():
    params, grad = _scalar_setup()
    state = _adam(params, weight_decay=0.0)
    before = params.flat.copy()
    adam_step(params, grad, state)
    assert np.array_equal(params.flat, before)
    assert state.t == 1


def test_adam_first_step_closed_form():
    params, grad = _scalar_setup()
    state = _adam(params, lr=0.005, weight_decay=0.0)
    grad[0] = 1.0
    adam_step(params, grad, state)
    expected_delta = -0.005 * (1.0 / (1.0 + 1e-8))
    assert params.rep_hidden.weights[0, 0] == pytest.approx(0.5 + expected_delta, abs=1e-15)

    params2, grad2 = _scalar_setup()
    state2 = _adam(params2, lr=0.005, weight_decay=0.0)
    grad2[0] = -1.0
    adam_step(params2, grad2, state2)
    assert params2.rep_hidden.weights[0, 0] == pytest.approx(0.5 - expected_delta, abs=1e-15)


def test_adam_decoupled_decay_applies_before_delta():
    params, grad = _scalar_setup(weight=2.0)
    state = _adam(params, lr=0.1, weight_decay=0.5)
    adam_step(params, grad, state)
    # zero gradient: only the decay factor acts
    assert params.rep_hidden.weights[0, 0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5), abs=1e-15)


def test_adam_rejects_nonfinite_gradient():
    for index, label in [(0, "rep_hidden.weights"), (5, "score_hidden.bias"),
                         (7, "score_out.bias")]:
        params, grad = _scalar_setup()
        state = _adam(params)
        before = params.flat.copy()
        grad[index] = np.nan
        with pytest.raises(TrainingDivergedError, match=re.escape(label)):
            adam_step(params, grad, state)
        # the label comes from the parameters' layout, and nothing moved
        assert np.array_equal(params.flat, before) and state.t == 0
        assert not state.m.any() and not state.v.any()


def test_adam_names_a_non_finite_updated_value():
    params, grad = _scalar_setup()
    params.score_hidden.bias[0] = np.inf
    with pytest.raises(TrainingDivergedError, match=r"non-finite parameter in score_hidden\.bias"):
        adam_step(params, grad, _adam(params))


def test_adam_rejects_a_gradient_of_another_length():
    params, grad = _scalar_setup()
    state = _adam(params)
    before = params.flat.copy()
    with pytest.raises(ContractViolationError):
        adam_step(params, grad[:1], state)
    assert np.array_equal(params.flat, before) and state.t == 0


def test_adam_step_counter_strictly_increases():
    params, grad = _scalar_setup()
    state = _adam(params)
    for expected in (1, 2, 3):
        adam_step(params, grad, state)
        assert state.t == expected


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_steps_equal_the_plain_expression_bitwise(weight_decay):
    params = build_scorer(3, 6, seed=7)
    state = _adam(params, lr=0.01, weight_decay=weight_decay)
    p, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
    rng = np.random.default_rng(8)
    for t in range(1, 6):
        g = rng.normal(size=p.shape)
        adam_step(params, g, state)
        if weight_decay != 0.0:
            p = p * (1.0 - 0.01 * weight_decay)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        c1, c2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
        p = p - 0.01 * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        assert params.flat.tobytes() == p.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
