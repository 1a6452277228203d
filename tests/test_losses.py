import math

import numpy as np
import pytest

import anomix.losses
from anomix.data import generate_case, prepare_training
from anomix.errors import ContractViolationError, InvalidParameterError
from anomix.interpolation import AugmentedBatch, augment_batch
from anomix.losses import (
    ABLATION_MODES,
    dynamic_weight,
    feature_regularizer_graph,
    scoring_loss_graph,
    smooth_l1,
)
from anomix.scorer import (
    DenseLayer,
    ScorerGraph,
    ScorerParams,
    backward,
    build_scorer,
    score_batch,
)
from anomix.training import TrainConfig, train
from tests.conftest import (
    identity_representation_scorer,
    step_losses,
    tanh_line_scorer,
    where_representation,
)


def _smooth(residual):
    return smooth_l1(np.asarray(residual, dtype=np.float64))[0]


def _huber(residual):
    """Smooth L1 with beta = 1, written out for the reference values below."""
    return np.where(np.abs(residual) < 1.0, 0.5 * residual * residual, np.abs(residual) - 0.5)


def _halves(source_x):
    """(anomaly, unlabeled, anchor) blocks from 2b source rows; the anchors repeat the anomalies."""
    source_x = np.asarray(source_x, dtype=np.float64)
    b = len(source_x) // 2
    return source_x[:b], source_x[b:], source_x[:b]


def _scoring(params, batch, source_x, mode="full"):
    return scoring_loss_graph(ScorerGraph(params), mode, _halves(source_x), batch)[0]


def _feature(params, anomalies, unlabeled, anchors, margin=1.0):
    graph = ScorerGraph(params)
    blocks = tuple(np.asarray(x, dtype=np.float64) for x in (anomalies, unlabeled, anchors))
    scoring_loss_graph(graph, "plain_regression", blocks, None)
    return feature_regularizer_graph(graph, len(blocks[0]), margin)[0]


# -- smooth l1 ----------------------------------------------------------------


def test_smooth_l1_closed_forms():
    assert _smooth(1.0 - 1.0) == 0.0
    assert _smooth(0.9 - 0.4) == pytest.approx(0.125, abs=1e-12)
    assert _smooth(2.0) == pytest.approx(1.5, abs=1e-12)
    assert _smooth(-2.0) == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(_smooth(np.array([0.5, -2.0])), [0.125, 1.5], rtol=0, atol=1e-12)


def test_smooth_l1_branch_boundary():
    # |d| = 1 lands on the linear branch; both branches agree there
    assert _smooth(1.0) == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(smooth_l1(np.array([1.0, -1.0, 0.5]))[1], [1.0, -1.0, 0.5])


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
    assert _scoring(params, batch, source_x, "no_consistency") == pytest.approx(0.02, abs=1e-10)
    # discretized target snaps 0.4 up to +1: 0.5 * 0.8^2 + 0.5 * 0.1^2
    assert _scoring(params, batch, source_x, "discrete_targets") == \
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
    with_consistency = _scoring(params, batch, x)
    without = _scoring(params, batch, x, "no_consistency")
    assert with_consistency == without


def test_scoring_loss_rejects_dangling_sources(rng):
    params = build_scorer(2, 4, seed=0)
    batch = AugmentedBatch(np.array([[0.5, 0.5]]), np.array([0.0]),
                           np.array([[0, 7]]), np.array([[0.5, 0.5]]))
    with pytest.raises(ContractViolationError):
        _scoring(params, batch, np.array([[0.0, 0.0], [1.0, 1.0]]))


def _graph(n_forwarded=0):
    """A graph of a (2 -> 4) scorer, after a forward of that many rows if any."""
    graph = ScorerGraph(build_scorer(2, 4, seed=0))
    if n_forwarded:
        graph.forward(np.zeros((n_forwarded, 2)), n_forwarded)
    return graph


_BLOCKS = (np.zeros((2, 2)),) * 3
_EMPTY_MIX = AugmentedBatch(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2), dtype=np.int64),
                            np.zeros((0, 2)))
_NO_TRIPLETS = "the graph holds no forward with anomaly, unlabeled and anchor rows"


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: scoring_loss_graph(_graph(), "bogus", _BLOCKS, None),
                 InvalidParameterError,
                 f"unknown ablation 'bogus'; expected one of {ABLATION_MODES}", id="mode"),
    pytest.param(lambda: scoring_loss_graph(_graph(), "full", _BLOCKS, _EMPTY_MIX),
                 ContractViolationError, "augmented batch is empty", id="empty-mix"),
    pytest.param(lambda: feature_regularizer_graph(_graph(), 2, 1.0),
                 ContractViolationError, _NO_TRIPLETS, id="no-forward"),
    pytest.param(lambda: feature_regularizer_graph(_graph(5), 2, 1.0),
                 ContractViolationError, _NO_TRIPLETS, id="short-forward"),
])
def test_loss_contract_errors(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


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
    rotated = DenseLayer(rot @ params.rep_out.weights, rot @ params.rep_out.bias + shift)
    moved = ScorerParams(params.rep_hidden, rotated, params.score_hidden, params.score_out)
    assert base > 0.0
    assert _feature(moved, *blocks) == pytest.approx(base, abs=1e-12)


def test_unit_rows_equal_the_masked_division_bitwise():
    # a zero distance, also one whose squares underflowed, gives an exact zero row
    diff = np.array([[3.0, -4.0], [0.0, -0.0], [5e-324, -5e-324], [1e-200, -1e-200], [-1.0, 0.0]])
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    expected = np.divide(diff, dist[:, None], out=np.zeros_like(diff), where=dist[:, None] > 0.0)
    assert anomix.losses._unit_rows(diff, dist).tobytes() == expected.tobytes()


def test_feature_regularizer_graph_matches_plain(rng):
    # the hinge written out in numpy over the reference representations
    params = build_scorer(3, 6, seed=9)
    xa = rng.uniform(0, 1, size=(4, 3))
    xu = rng.uniform(0, 1, size=(4, 3))
    xq = rng.uniform(0, 1, size=(4, 3))
    za, zu, zq = (where_representation(params, x) for x in (xa, xu, xq))
    d_neg = np.linalg.norm(zu - zq, axis=1)
    d_pos = np.linalg.norm(za - zq, axis=1)
    expected = float(np.mean(np.maximum(d_neg - d_pos + 1.0, 0.0)))
    assert _feature(params, xa, xu, xq) == expected


@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_fused_nodes_equal_the_per_block_formulas(mode, rng):
    # each loss's value, written out in numpy over a reference forward of
    # every block on its own, where the graph forwards one stack
    params = build_scorer(3, 6, seed=8)
    b = 4
    blocks = tuple(rng.uniform(0, 1, size=(b, 3)) for _ in range(3))
    labels = np.concatenate([np.ones(b), -np.ones(b)])
    sources = np.vstack(blocks[:2])
    mixed = None
    if mode != "plain_regression":
        mixed = augment_batch(sources, labels, 2, 0.5, 2 * b, rng)
    loss, feature = step_losses(ScorerGraph(params), mode, blocks, mixed)
    if mode == "plain_regression":
        expected = np.mean(_huber(score_batch(params, sources) - labels))
    else:
        s_mixed = score_batch(params, mixed.x)
        targets = np.where(mixed.y > 0, 1.0, -1.0) if mode == "discrete_targets" else mixed.y
        per_sample = _huber(s_mixed - targets)
        if mode != "no_consistency":
            interp = (score_batch(params, sources)[mixed.sources] * mixed.lambdas).sum(axis=1)
            per_sample = per_sample + _huber(s_mixed - interp)
        expected = np.mean(per_sample)
    assert loss[0] == expected
    if mode == "no_regularizer":
        assert feature is None
        return
    za, zu, zq = (where_representation(params, x) for x in blocks)
    hinge = np.linalg.norm(zu - zq, axis=1) - np.linalg.norm(za - zq, axis=1) + 1.0
    assert feature[0] == np.mean(np.maximum(hinge, 0.0)) > 0.0


# -- dynamic weighting ----------------------------------------------------------


def test_dynamic_weight_symmetry_and_worked_example():
    assert dynamic_weight(3.0, 3.0, 2.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    w = dynamic_weight(2.0, 1.0, 2.0, 1.0, 1.0)
    expected = math.e / (math.e + math.exp(0.5))
    assert w == pytest.approx(expected, abs=1e-12)
    assert w == pytest.approx(0.62246, abs=5e-6)


def test_dynamic_weight_scale_identity():
    a = dynamic_weight(2.0, 1.0, 2.0, 1.0, 1.0)
    b = dynamic_weight(6.0, 3.0, 6.0, 1.0, 1.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_dynamic_weight_monotone_in_scoring_loss():
    values = [dynamic_weight(l, 1.0, 2.0, 0.7, 1.3) for l in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(0.0 < v < 1.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_dynamic_weight_overflow_guard():
    w = dynamic_weight(5.0, 1.0, 1.0, 1e-6, 1.0)  # raw exponent would be 5e6
    assert w == 1.0  # saturates without overflow


def test_dynamic_weight_validation():
    with pytest.raises(InvalidParameterError):
        dynamic_weight(1.0, 1.0, 2.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        dynamic_weight(1.0, 1.0, 0.0, 1.0, 1.0)


def test_an_epoch_with_zero_feature_loss_keeps_the_previous_average(monkeypatch):
    # every triplet hinge of epoch 13 is inactive: a zero average would make
    # the next weight undefined, so epoch 14 divides by epoch 12's
    averages = []

    def recording(loss, feature, temperature, l_bar, l_prime_bar):
        averages.append((l_bar, l_prime_bar))
        return dynamic_weight(loss, feature, temperature, l_bar, l_prime_bar)

    monkeypatch.setattr(anomix.losses, "dynamic_weight", recording)
    train_half, _test = generate_case("clustered", 1000, seed=1)
    prepared = prepare_training(train_half, labeled_anomalies=10, contamination=0.0, seed=1)
    cfg = TrainConfig(batch_size=8, n_epoch=14, n_batch=5, rep_dim=32, seed=1,
                      select_best=False)
    records = train(prepared, cfg)[1]
    assert [r.loss_feature == 0.0 for r in records].index(True) == 12
    # each epoch divides by the averages of the one before it, starting from 1
    assert set(averages[:5]) == {(1.0, 1.0)}
    assert set(averages[60:65]) == {(records[11].loss_scoring, records[11].loss_feature)}
    assert set(averages[65:]) == {(records[12].loss_scoring, records[11].loss_feature)}
    assert 0.0 < records[13].weight < 1.0


# -- ablation modes -------------------------------------------------------------


def test_ablation_plain_regression_value(rng):
    params = build_scorer(2, 4, seed=1)
    x = rng.uniform(0, 1, size=(6, 2))
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    expected = float(np.mean(_huber(score_batch(params, x) - y)))
    assert _scoring(params, None, x, "plain_regression") == expected


def test_ablation_discrete_maps_balanced_mix_to_negative(rng):
    params = tanh_line_scorer()
    batch = AugmentedBatch(np.array([[0.0]]), np.array([0.0]),
                           np.array([[0, 1]]), np.array([[0.5, 0.5]]))
    x = np.array([[0.0], [0.0]])
    # sign(0) -> -1: the loss targets -1, not +1; the consistency residual is 0
    assert _scoring(params, batch, x, "discrete_targets") == pytest.approx(0.5, abs=1e-12)


# -- gradients ------------------------------------------------------------------


@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_balanced_objective_gradient_matches_finite_differences(mode):
    # central differences over every parameter; the random draws keep all
    # LeakyReLU, hinge and smooth-L1 arguments far enough from their kinks
    # that a 1e-6 step never crosses one, and the 0.1 margin leaves two of
    # the four triplet hinges active, so both sides of the hinge are checked.
    # k=3 mixes reach three source rows each, so the consistency gradient
    # gathers three columns of weights per mixed row.
    for k in (2, 3):
        rng = np.random.default_rng(3)
        params = build_scorer(3, 6, seed=4)
        b = 4
        blocks = tuple(rng.uniform(0, 1, size=(b, 3)) for _ in range(3))
        labels = np.concatenate([np.ones(b), -np.ones(b)])
        mixed = augment_batch(np.vstack(blocks[:2]), labels, k, 0.5, 2 * b, rng)
        w = 0.3  # the balance weight is a constant for the gradient

        def objective():
            """(value, scorer.backward's arguments) of the balanced objective."""
            graph = ScorerGraph(params)
            (loss, loss_grad), feature = step_losses(graph, mode, blocks, mixed, margin=0.1)
            if feature is None:
                return loss, (graph, loss_grad(1.0), None)
            value, feature_grad = feature
            return loss * w + value * (1.0 - w), (graph, loss_grad(w), feature_grad(1.0 - w))

        g_explicit = backward(*objective()[1])
        h = 1e-6
        g_fd = np.empty_like(params.flat)
        for i, saved in enumerate(params.flat.tolist()):
            params.flat[i] = saved + h
            up = objective()[0]
            params.flat[i] = saved - h
            down = objective()[0]
            params.flat[i] = saved
            g_fd[i] = (up - down) / (2.0 * h)
        assert np.linalg.norm(g_explicit) > 0.0
        assert np.linalg.norm(g_fd - g_explicit) / np.linalg.norm(g_explicit) <= 1e-6, k
