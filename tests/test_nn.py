import numpy as np
import pytest

from anomix.errors import ContractViolationError, InvalidParameterError, TrainingDivergedError
from anomix.nn import (
    AdamState,
    DenseLayer,
    GradientTape,
    Var,
    adam_step,
    backward,
    init_dense,
    leaky_relu,
    v_linear,
    v_mean,
    v_smooth_l1,
    v_tanh,
)
from anomix.scorer import ScorerGraph, build_scorer
from anomix.training import TrainConfig


def _affine(layer: DenseLayer, rows) -> np.ndarray:
    return v_linear(Var(rows), Var(layer.weights), Var(layer.bias)).value


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
    # the tape's forward pass checks input widths before any layer runs
    graph = ScorerGraph(build_scorer(2, 4, seed=0))
    with pytest.raises(ContractViolationError):
        graph.score(np.ones((1, 3)))
    with pytest.raises(ContractViolationError):
        graph.represent(np.ones(2))


def test_dense_layer_shape_contract():
    with pytest.raises(ContractViolationError):
        DenseLayer(np.eye(2), np.zeros(3))


def test_leaky_relu_values():
    assert leaky_relu(2.0) == 2.0
    assert leaky_relu(0.0) == 0.0
    assert leaky_relu(-1.0, 0.01) == pytest.approx(-0.01, abs=1e-15)
    assert np.allclose(leaky_relu(np.array([-2.0, 3.0]), 0.1), [-0.2, 3.0])


def test_leaky_relu_slope_domain():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InvalidParameterError):
            leaky_relu(1.0, bad)


def test_tanh_values():
    out = v_tanh(Var([0.0, 1.0, 20.0, -20.0])).value
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.7615941559557649, abs=1e-12)
    assert abs(out[2] - 1.0) < 1e-9
    assert out[2] < 1.0
    assert out[3] > -1.0


def test_init_dense_deterministic_and_scaled():
    a = init_dense(4, 9, np.random.default_rng(5))
    b = init_dense(4, 9, np.random.default_rng(5))
    c = init_dense(4, 9, np.random.default_rng(6))
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)
    assert np.abs(a.weights).max() < 1.0 / 3.0
    assert np.array_equal(a.bias, np.zeros(4))


# -- tape ------------------------------------------------------------------


def test_constant_loss_gives_zero_gradients():
    layer = DenseLayer(np.ones((2, 2)), np.zeros(2))
    tape = GradientTape([layer])
    loss = Var(0.0)
    backward(loss, [(Var(layer.weights), Var(layer.bias))], tape)
    assert np.array_equal(tape.d_weights[0], np.zeros((2, 2)))
    assert np.array_equal(tape.d_bias[0], np.zeros(2))


def test_single_layer_squared_error_closed_form(rng):
    layer = DenseLayer(rng.normal(size=(2, 3)), rng.normal(size=2))
    x = rng.normal(size=(1, 3))
    target = rng.normal(size=(1, 2))
    w_var, b_var = Var(layer.weights), Var(layer.bias)
    pred = v_linear(Var(x), w_var, b_var)
    diff = pred - target
    # smooth L1 with beta above every residual is 0.5 r^2 / beta; the
    # power-of-two beta keeps the rescaling to a sum of squares exact
    beta = 1024.0
    loss = v_mean(v_smooth_l1(diff, beta)) * (2.0 * beta * diff.value.size)
    tape = GradientTape([layer])
    backward(loss, [(w_var, b_var)], tape)
    residual = (x @ layer.weights.T + layer.bias) - target
    expected_w = 2.0 * residual.T @ x
    expected_b = 2.0 * residual[0]
    assert np.allclose(tape.d_weights[0], expected_w, atol=1e-12)
    assert np.allclose(tape.d_bias[0], expected_b, atol=1e-12)


def test_backward_rejects_nonscalar_loss():
    layer = DenseLayer(np.eye(2), np.zeros(2))
    tape = GradientTape([layer])
    w_var, b_var = Var(layer.weights), Var(layer.bias)
    vec = v_linear(Var(np.ones((1, 2))), w_var, b_var)
    with pytest.raises(ContractViolationError):
        backward(vec, [(w_var, b_var)], tape)


def test_backward_zeroes_previous_gradients(rng):
    layer = DenseLayer(rng.normal(size=(2, 2)), rng.normal(size=2))
    tape = GradientTape([layer])
    tape.d_weights[0][:] = 123.0

    w_var, b_var = Var(layer.weights), Var(layer.bias)
    loss = v_mean(v_linear(Var(np.ones((1, 2))), w_var, b_var))
    backward(loss, [(w_var, b_var)], tape)
    assert np.abs(tape.d_weights[0]).max() < 10.0


# -- optimizer ---------------------------------------------------------------


def _adam(layers, **overrides) -> AdamState:
    """AdamState for `layers` with TrainConfig's hyperparameters, some overridden."""
    cfg = TrainConfig()
    hyper = dict(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
                 weight_decay=cfg.weight_decay)
    return AdamState.for_layers(layers, **{**hyper, **overrides})


def _scalar_setup(weight=0.5):
    layer = DenseLayer(np.array([[weight]]), np.zeros(1))
    tape = GradientTape([layer])
    return layer, tape


def test_adam_zero_gradient_is_identity():
    layer, tape = _scalar_setup()
    state = _adam([layer], weight_decay=0.0)
    before = layer.weights.copy()
    adam_step([layer], tape, state)
    assert np.array_equal(layer.weights, before)
    assert state.t == 1


def test_adam_first_step_closed_form():
    layer, tape = _scalar_setup()
    state = _adam([layer], lr=0.005, weight_decay=0.0)
    tape.d_weights[0][0, 0] = 1.0
    adam_step([layer], tape, state)
    expected_delta = -0.005 * (1.0 / (1.0 + 1e-8))
    assert layer.weights[0, 0] == pytest.approx(0.5 + expected_delta, abs=1e-15)

    layer2, tape2 = _scalar_setup()
    state2 = _adam([layer2], lr=0.005, weight_decay=0.0)
    tape2.d_weights[0][0, 0] = -1.0
    adam_step([layer2], tape2, state2)
    assert layer2.weights[0, 0] == pytest.approx(0.5 - expected_delta, abs=1e-15)


def test_adam_decoupled_decay_applies_before_delta():
    layer, tape = _scalar_setup(weight=2.0)
    state = _adam([layer], lr=0.1, weight_decay=0.5)
    adam_step([layer], tape, state)
    # zero gradient: only the decay factor acts
    assert layer.weights[0, 0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5), abs=1e-15)


def test_adam_rejects_nonfinite_gradient():
    layer, tape = _scalar_setup()
    state = _adam([layer])
    tape.d_weights[0][0, 0] = np.nan
    with pytest.raises(TrainingDivergedError, match="weights"):
        adam_step([layer], tape, state, names=["only"])


def test_adam_step_counter_strictly_increases():
    layer, tape = _scalar_setup()
    state = _adam([layer])
    for expected in (1, 2, 3):
        adam_step([layer], tape, state)
        assert state.t == expected
