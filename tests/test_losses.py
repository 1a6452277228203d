import math

import numpy as np
import pytest

from anomix.errors import ContractViolationError, InvalidParameterError
from anomix.interpolation import AugmentedBatch, augment_batch
from anomix.losses import (
    ABLATION_MODES,
    LossState,
    dynamic_weight,
    feature_regularizer_graph,
    plain_regression_graph,
    scoring_loss_graph,
    update_epoch_averages,
)
from anomix.nn import DenseLayer, GradientTape, Var, backward, v_smooth_l1
from anomix.scorer import ScorerGraph, build_scorer, represent_batch, score_batch
from tests.conftest import identity_representation_scorer, step_losses, tanh_line_scorer


def _smooth(residual, beta=1.0):
    return v_smooth_l1(Var(residual), beta).value


def _huber(residual):
    """Smooth L1 with beta = 1, written out for the reference values below."""
    return np.where(np.abs(residual) < 1.0, 0.5 * residual * residual, np.abs(residual) - 0.5)


def _scoring(params, batch, source_x, **flags):
    return float(scoring_loss_graph(ScorerGraph(params), batch, source_x, **flags).value)


def _feature(params, anomalies, unlabeled, anchors, margin=1.0):
    graph = ScorerGraph(params)
    return float(feature_regularizer_graph(graph, anomalies, unlabeled, anchors, margin).value)


# -- smooth l1 ----------------------------------------------------------------


def test_smooth_l1_closed_forms():
    assert _smooth(1.0 - 1.0) == 0.0
    assert _smooth(0.9 - 0.4) == pytest.approx(0.125, abs=1e-12)
    assert _smooth(2.0) == pytest.approx(1.5, abs=1e-12)
    assert _smooth(-2.0) == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(_smooth(np.array([0.5, -2.0])), [0.125, 1.5], rtol=0, atol=1e-12)


def test_smooth_l1_branch_boundary_and_beta():
    # |d| = beta lands on the linear branch; both branches agree there
    assert _smooth(1.0, beta=1.0) == pytest.approx(0.5, abs=1e-12)
    assert _smooth(0.5, beta=2.0) == pytest.approx(0.0625, abs=1e-12)


# -- scoring loss --------------------------------------------------------------


def _solve_source_offsets():
    """Two pre-activations with mean atanh(0.2) whose tanhs average 0.1."""
    total = 2.0 * math.atanh(0.2)

    def f(u):
        return math.tanh(u) + math.tanh(total - u) - 0.2

    lo, hi = -40.0, math.atanh(0.2)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    u1 = 0.5 * (lo + hi)
    return u1, total - u1


def test_scoring_loss_worked_example():
    # scorer computes tanh(x); sources chosen so the mixed score is 0.2,
    # the target 0.4, and the interpolated source score 0.1
    params = tanh_line_scorer()
    u1, u2 = _solve_source_offsets()
    source_x = np.array([[u1], [u2]])
    mixed_x = np.array([[0.5 * u1 + 0.5 * u2]])
    batch = AugmentedBatch(mixed_x, np.array([0.4]), np.array([[0, 1]]),
                           np.array([[0.5, 0.5]]))
    assert _scoring(params, batch, source_x) == pytest.approx(0.025, abs=1e-10)
    assert _scoring(params, batch, source_x, consistency=False) == pytest.approx(0.02, abs=1e-10)
    # discretized target snaps 0.4 up to +1: 0.5 * 0.8^2 + 0.5 * 0.1^2
    assert _scoring(params, batch, source_x, discrete_targets=True) == \
        pytest.approx(0.325, abs=1e-9)


def test_scoring_loss_perfect_fit_is_zero():
    params = identity_representation_scorer(2)  # scores everything to 0
    x = np.array([[0.1, 0.2], [0.6, 0.1]])
    batch = AugmentedBatch(np.array([[0.35, 0.15]]), np.array([0.0]),
                           np.array([[0, 1]]), np.array([[0.5, 0.5]]))
    assert _scoring(params, batch, x) == 0.0


def test_scoring_loss_permutation_invariance(rng):
    params = build_scorer(3, 6, seed=0)
    x = rng.uniform(0, 1, size=(8, 3))
    y = np.array([1.0] * 4 + [-1.0] * 4)
    batch = augment_batch(x, y, 2, 0.5, 12, rng)
    perm = rng.permutation(12)
    shuffled = AugmentedBatch(batch.x[perm], batch.y[perm],
                              batch.sources[perm], batch.lambdas[perm])
    assert _scoring(params, batch, x) == pytest.approx(_scoring(params, shuffled, x), abs=1e-12)


def test_consistency_term_vanishes_for_constant_scorer(rng):
    # constant scoring functions commute with convex combinations
    params = identity_representation_scorer(3)
    x = rng.uniform(0, 1, size=(6, 3))
    y = np.array([1.0] * 3 + [-1.0] * 3)
    batch = augment_batch(x, y, 2, 0.5, 9, rng)
    with_consistency = _scoring(params, batch, x, consistency=True)
    without = _scoring(params, batch, x, consistency=False)
    assert with_consistency == without


def test_scoring_loss_rejects_dangling_sources(rng):
    params = build_scorer(2, 4, seed=0)
    batch = AugmentedBatch(np.array([[0.5, 0.5]]), np.array([0.0]),
                           np.array([[0, 7]]), np.array([[0.5, 0.5]]))
    with pytest.raises(ContractViolationError):
        _scoring(params, batch, np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_scoring_loss_graph_matches_plain_value(rng):
    # the loss written out in numpy over the reference forward pass
    params = build_scorer(3, 6, seed=5)
    x = rng.uniform(0, 1, size=(6, 3))
    y = np.array([1.0] * 3 + [-1.0] * 3)
    batch = augment_batch(x, y, 2, 0.5, 8, rng)
    s_mixed = score_batch(params, batch.x)
    interpolated = (score_batch(params, x)[batch.sources] * batch.lambdas).sum(axis=1)
    expected = np.mean(_huber(s_mixed - batch.y) + _huber(s_mixed - interpolated))
    assert _scoring(params, batch, x) == expected


# -- feature regularizer --------------------------------------------------------


def test_feature_regularizer_margin_satisfied():
    params = identity_representation_scorer(2)
    assert _feature(params, [[1.5, 0.0]], [[0.2, 0.0]], [[0.0, 0.0]]) == 0.0


def test_feature_regularizer_equal_distances_leave_margin():
    params = identity_representation_scorer(2)
    assert _feature(params, [[0.5, 0.0]], [[0.5, 0.0]], [[0.0, 0.0]]) == \
        pytest.approx(1.0, abs=1e-12)


def test_feature_regularizer_saturates_for_isolated_anomalies():
    params = identity_representation_scorer(2)
    loss = _feature(params, [[9.0, 0.0], [0.0, 8.0]], [[0.3, 0.0], [0.0, 0.2]],
                    [[0.0, 0.0], [0.0, 0.0]])
    assert loss == 0.0


def test_feature_regularizer_rigid_motion_invariance(rng):
    # a rotation plus shift of the representation space, folded into its
    # output layer, moves all three blocks together
    params = build_scorer(3, 2, seed=6)
    blocks = [rng.uniform(0, 1, size=(5, 3)) for _ in range(3)]
    base = _feature(params, *blocks)
    theta = 0.77
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    shift = np.array([3.0, -2.0])
    moved = params.copy()
    moved.rep_out = DenseLayer(rot @ params.rep_out.weights, rot @ params.rep_out.bias + shift)
    assert base > 0.0
    assert _feature(moved, *blocks) == pytest.approx(base, abs=1e-12)


def test_feature_regularizer_graph_matches_plain(rng):
    # the hinge written out in numpy over the reference representations
    params = build_scorer(3, 6, seed=9)
    xa = rng.uniform(0, 1, size=(4, 3))
    xu = rng.uniform(0, 1, size=(4, 3))
    xq = rng.uniform(0, 1, size=(4, 3))
    za, zu, zq = (represent_batch(params, x) for x in (xa, xu, xq))
    d_neg = np.linalg.norm(zu - zq, axis=1)
    d_pos = np.linalg.norm(za - zq, axis=1)
    expected = float(np.mean(np.maximum(d_neg - d_pos + 1.0, 0.0)))
    assert _feature(params, xa, xu, xq) == expected


# -- dynamic weighting ----------------------------------------------------------


def test_dynamic_weight_symmetry_and_worked_example():
    state = LossState(temperature=2.0)
    assert dynamic_weight(3.0, 3.0, state) == pytest.approx(0.5, abs=1e-15)
    w = dynamic_weight(2.0, 1.0, LossState(l_bar=1.0, l_prime_bar=1.0, temperature=2.0))
    expected = math.e / (math.e + math.exp(0.5))
    assert w == pytest.approx(expected, abs=1e-12)
    assert w == pytest.approx(0.62246, abs=5e-6)


def test_dynamic_weight_scale_identity():
    a = dynamic_weight(2.0, 1.0, LossState(l_bar=1.0, l_prime_bar=1.0, temperature=2.0))
    b = dynamic_weight(6.0, 3.0, LossState(l_bar=1.0, l_prime_bar=1.0, temperature=6.0))
    assert a == pytest.approx(b, abs=1e-12)


def test_dynamic_weight_monotone_in_scoring_loss():
    state = LossState(l_bar=0.7, l_prime_bar=1.3, temperature=2.0)
    values = [dynamic_weight(l, 1.0, state) for l in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(0.0 < v < 1.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_dynamic_weight_overflow_guard():
    state = LossState(l_bar=1e-6, l_prime_bar=1.0, temperature=1.0)
    w = dynamic_weight(5.0, 1.0, state)  # raw exponent would be 5e6
    assert w == 1.0  # saturates without overflow


def test_dynamic_weight_validation():
    with pytest.raises(InvalidParameterError):
        dynamic_weight(1.0, 1.0, LossState(temperature=2.0, l_bar=0.0))
    with pytest.raises(InvalidParameterError):
        dynamic_weight(1.0, 1.0, LossState(temperature=0.0))


def test_update_epoch_averages():
    state = LossState(temperature=2.0)
    assert state.l_bar == 1.0 and state.l_prime_bar == 1.0  # pre-first-epoch init
    updated = update_epoch_averages(state, [4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
    assert updated.l_bar == 4.0
    assert updated.l_prime_bar == 2.0
    assert state.l_bar == 1.0  # original untouched
    with pytest.raises(ContractViolationError):
        update_epoch_averages(state, [], [1.0])


# -- ablation modes -------------------------------------------------------------


def test_ablation_plain_regression_value(rng):
    params = build_scorer(2, 4, seed=1)
    x = rng.uniform(0, 1, size=(6, 2))
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    expected = float(np.mean(_huber(score_batch(params, x) - y)))
    assert float(plain_regression_graph(ScorerGraph(params), x, y).value) == expected


def test_ablation_discrete_maps_balanced_mix_to_negative(rng):
    params = tanh_line_scorer()
    batch = AugmentedBatch(np.array([[0.0]]), np.array([0.0]),
                           np.array([[0, 1]]), np.array([[0.5, 0.5]]))
    x = np.array([[0.0], [0.0]])
    # sign(0) -> -1: the loss targets -1, not +1; the consistency residual is 0
    assert _scoring(params, batch, x, discrete_targets=True) == pytest.approx(0.5, abs=1e-12)


# -- gradients ------------------------------------------------------------------


@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_balanced_objective_gradient_matches_finite_differences(mode):
    # central differences over every parameter; the random draws keep all
    # LeakyReLU, hinge and smooth-L1 arguments far enough from their kinks
    # that a 1e-6 step never crosses one, and the 0.1 margin leaves two of
    # the four triplet hinges active, so both sides of the hinge are checked
    rng = np.random.default_rng(3)
    params = build_scorer(3, 6, seed=4)
    b = 4
    blocks = tuple(rng.uniform(0, 1, size=(b, 3)) for _ in range(3))
    labels = np.concatenate([np.ones(b), -np.ones(b)])
    mixed = augment_batch(np.vstack(blocks[:2]), labels, 2, 0.5, 2 * b, rng)
    w = 0.3  # the balance weight is a constant for the gradient

    def objective():
        graph = ScorerGraph(params)
        loss, feature = step_losses(graph, mode, blocks, mixed, margin=0.1)
        return graph, loss if feature is None else loss * w + feature * (1.0 - w)

    graph, value = objective()
    tape = backward(value, graph.param_pairs(), GradientTape(params.layers()))
    h = 1e-6
    g_tape, g_fd = [], []
    for layer, d_weights, d_bias in zip(params.layers(), tape.d_weights, tape.d_bias):
        for array, grad in ((layer.weights, d_weights), (layer.bias, d_bias)):
            g_tape.append(grad.ravel().copy())
            for idx in np.ndindex(array.shape):
                saved = array[idx]
                array[idx] = saved + h
                up = float(objective()[1].value)
                array[idx] = saved - h
                down = float(objective()[1].value)
                array[idx] = saved
                g_fd.append((up - down) / (2.0 * h))
    g_tape = np.concatenate(g_tape)
    g_fd = np.array(g_fd)
    assert np.linalg.norm(g_tape) > 0.0
    assert np.linalg.norm(g_fd - g_tape) / np.linalg.norm(g_tape) <= 1e-6
