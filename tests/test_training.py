import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from anomix.data import (
    Dataset,
    Role,
    generate_case,
    generate_toy,
    prepare_training,
    split_dataset,
)
from anomix import losses
from anomix.errors import InvalidParameterError, TrainingDivergedError, UnusableDatasetError
from anomix.interpolation import augment_batch
from anomix.losses import ABLATION_MODES, dynamic_weight
from anomix.metrics import auc_pr
from anomix.nn import AdamState, adam_step
from anomix.rng import child_seed, substream
from anomix.scorer import ScorerGraph, backward, build_scorer, score_batch
from anomix.training import TrainConfig, sample_batches, train
from tests.conftest import nan_loss_at, step_losses


def _tiny_dataset(n_anom=2, n_unlab=8, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n_anom + n_unlab, d))
    y = np.array([1] * n_anom + [0] * n_unlab)
    roles = np.array([int(Role.LABELED_ANOMALY)] * n_anom + [int(Role.UNLABELED)] * n_unlab)
    return Dataset(X, y, roles)


def _pools(ds):
    """sample_batches' first three arguments: the rows and the two index pools."""
    return ds.X, ds.indices(Role.LABELED_ANOMALY), ds.indices(Role.UNLABELED)


def _fast_config(**kw):
    base = dict(batch_size=2, n_epoch=2, n_batch=2, rep_dim=4, seed=7, select_best=False)
    base.update(kw)
    return TrainConfig(**base)


# -- batch sampling -------------------------------------------------------------


def test_sample_batches_shapes_and_oversampling():
    ds = _tiny_dataset(n_anom=3, n_unlab=20)
    rng = np.random.default_rng(1)
    xa, xu, xq = sample_batches(*_pools(ds), b=8, rng=rng)
    assert xa.shape == (8, 3) and xu.shape == (8, 3) and xq.shape == (8, 3)
    # only 3 labeled anomalies exist: the 8 draws must come with replacement
    anomaly_rows = ds.X[ds.indices(Role.LABELED_ANOMALY)]
    for row in xa:
        assert any(np.array_equal(row, a) for a in anomaly_rows)


def test_sample_batches_unlabeled_split_is_disjoint():
    ds = _tiny_dataset(n_anom=2, n_unlab=16)
    xa, xu, xq = sample_batches(*_pools(ds), b=8, rng=np.random.default_rng(3))
    pool = np.vstack([xu, xq])
    # 2b = 16 unlabeled rows drawn without replacement from a pool of 16
    assert len(np.unique(pool, axis=0)) == 16


def test_sample_batches_deterministic():
    ds = _tiny_dataset(n_anom=4, n_unlab=20)
    a = sample_batches(*_pools(ds), 4, np.random.default_rng(42))
    b = sample_batches(*_pools(ds), 4, np.random.default_rng(42))
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


# -- training loop ---------------------------------------------------------------


def test_zero_epochs_returns_initialized_params():
    ds = _tiny_dataset()
    cfg = _fast_config(n_epoch=0)
    params, history = train(ds, cfg)
    assert len(history) == 0
    fresh = build_scorer(3, cfg.rep_dim, seed=child_seed(cfg.seed, "init"))
    for got, want in zip(params.layers(), fresh.layers()):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)


def test_train_replay_oracle_matches_exactly():
    """Replaying the loop step by step reproduces train() bit for bit, in every mode.

    The last run mixes k=3 sources per sample, as the wide benchmark does.
    """
    ds = _tiny_dataset(n_anom=2, n_unlab=8)
    for mode, k in [*((mode, 2) for mode in ABLATION_MODES), ("full", 3)]:
        cfg = _fast_config(n_epoch=2, n_batch=2, ablation=mode, k=k)
        trained, history = train(ds, cfg)

        params = build_scorer(3, cfg.rep_dim, seed=child_seed(cfg.seed, "init"))
        rng_batch = substream(cfg.seed, "batching")
        rng_augment = substream(cfg.seed, "augmentation")
        optimizer = AdamState(cfg.lr, cfg.weight_decay, np.zeros_like(params.flat),
                              np.zeros_like(params.flat))
        l_bar = l_prime_bar = 1.0
        labels = np.concatenate([np.ones(cfg.batch_size), -np.ones(cfg.batch_size)])
        expected_weights = []
        for _epoch in range(cfg.n_epoch):
            ls, lps = [], []
            for _batch in range(cfg.n_batch):
                blocks = sample_batches(*_pools(ds), cfg.batch_size, rng_batch)
                mixed = None
                if mode != "plain_regression":
                    mixed = augment_batch(np.vstack(blocks[:2]), labels, cfg.k, cfg.alpha,
                                          m=2 * cfg.batch_size, rng=rng_augment)
                graph = ScorerGraph(params)
                (l_val, l_grad), feature = step_losses(graph, mode, blocks, mixed, cfg.margin)
                if feature is None:
                    w, g_rep = 1.0, None
                else:
                    f_val, f_grad = feature
                    w = dynamic_weight(l_val, f_val, cfg.temperature, l_bar, l_prime_bar)
                    g_rep = f_grad(1.0 - w)
                    lps.append(f_val)
                expected_weights.append(w)
                adam_step(params, backward(graph, l_grad(w), g_rep), optimizer)
                ls.append(l_val)
            if lps:
                l_bar = float(np.mean(ls)) or l_bar
                l_prime_bar = float(np.mean(lps)) or l_prime_bar

        for got, want in zip(trained.layers(), params.layers()):
            assert np.array_equal(got.weights, want.weights), (mode, k)
            assert np.array_equal(got.bias, want.bias), (mode, k)
        assert np.array_equal(trained.flat, params.flat), (mode, k)
        # first-epoch weights were computed against the initial averages of 1
        assert history[0].weight == pytest.approx(
            np.mean(expected_weights[:cfg.n_batch]), abs=0)


def test_train_bitwise_determinism():
    ds = _tiny_dataset(n_anom=3, n_unlab=12, seed=5)
    cfg = _fast_config(n_epoch=3, n_batch=3)
    p1, h1 = train(ds, cfg)
    p2, h2 = train(ds, cfg)
    for a, b in zip(p1.layers(), p2.layers()):
        assert np.array_equal(a.weights, b.weights)
    # every field but the wall-clock seconds
    assert [replace(r, seconds=0.0) for r in h1] == [replace(r, seconds=0.0) for r in h2]


def test_sample_batches_preconditions():
    """sample_batches only draws; train() rejects the pools it cannot draw from."""
    ds = _tiny_dataset(n_anom=0, n_unlab=10)
    with pytest.raises(UnusableDatasetError,
                       match="^training requires a non-empty labeled-anomaly pool$"):
        train(ds, _fast_config())
    with pytest.raises(UnusableDatasetError, match=re.escape(
            "training requires an unlabeled pool of at least 2 * batch_size = 4 rows, got 3")):
        train(_tiny_dataset(n_anom=2, n_unlab=3), _fast_config(batch_size=2))


def test_train_preconditions_and_validation():
    # A TrainConfig is checked when it is built, and cannot change after.
    with pytest.raises(InvalidParameterError):
        train(_tiny_dataset(), _fast_config(ablation="nope"))
    with pytest.raises(InvalidParameterError):
        _fast_config(k=1)
    # lr's own rule is reported, not a fault of the weight-decay rule that reads lr.
    with pytest.raises(InvalidParameterError, match=r"^lr must be positive and finite, got 0\.0$"):
        _fast_config(lr=0.0)
    # A decay factor 1 - lr * weight_decay of zero or below would zero or flip every weight.
    for weight_decay in (2.0, 3.0):
        with pytest.raises(InvalidParameterError, match=re.escape(
                f"weight_decay times lr = 0.5 must be < 1, got {weight_decay}")):
            TrainConfig(lr=0.5, weight_decay=weight_decay)
    assert TrainConfig(lr=0.5, weight_decay=1.99).weight_decay == 1.99
    with pytest.raises(InvalidParameterError):
        _fast_config(margin=0.0)
    with pytest.raises(InvalidParameterError, match="seed"):
        _fast_config(seed=-1)
    with pytest.raises(InvalidParameterError, match=r"rep_dim must be >= 2, got 0"):
        _fast_config(rep_dim=0)
    with pytest.raises(InvalidParameterError,
                       match=re.escape("k must lie in [2, 2 * batch_size] = [2, 64], got 1")):
        replace(TrainConfig(), k=1)
    config = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        config.k = 1
    assert not hasattr(config, "validate")


@pytest.mark.parametrize("loss, message", [
    ("scoring_loss_graph", "scoring loss diverged"),
    ("feature_regularizer_graph", "feature regularizer diverged"),
])
@pytest.mark.parametrize("call, epoch, index", [(1, 1, 1), (2, 2, 0)])
def test_a_non_finite_loss_stops_training_at_its_epoch_and_batch(loss, message, call, epoch,
                                                                  index, monkeypatch):
    # two batches per epoch: the run's 0-based `call` is the 0-based batch `index` of
    # `epoch`; the message counts batches from 1, as it counts epochs
    monkeypatch.setattr(f"anomix.losses.{loss}", nan_loss_at(getattr(losses, loss), call))
    with pytest.raises(TrainingDivergedError,
                       match=f"^{message} at epoch {epoch}, batch {index + 1}$"):
        train(_tiny_dataset(), _fast_config())


def test_an_epoch_with_every_hinge_inactive_does_not_abort_the_run():
    # separable clusters: by epoch 33 no triplet hinge is active in any batch,
    # and the next epoch once divided by that zero average
    train_half, _test = generate_case("clustered", 1000, seed=1)
    prepared = prepare_training(train_half, labeled_anomalies=30, contamination=0.0, seed=1)
    cfg = TrainConfig(batch_size=16, n_epoch=50, n_batch=20, seed=1, select_best=False)
    _params, history = train(prepared, cfg)
    assert len(history) == 50
    zero_epochs = [r.epoch for r in history if r.loss_feature == 0.0]
    assert 33 in zero_epochs and zero_epochs[-1] < 50
    assert all(0.0 < r.weight < 1.0 for r in history)


def test_no_regularizer_mode_runs_without_feature_loss():
    ds = _tiny_dataset()
    params, history = train(ds, _fast_config(ablation="no_regularizer"))
    assert all(rec.loss_feature is None for rec in history)
    assert all(rec.weight == 1.0 for rec in history)


def test_all_ablation_modes_run():
    ds = _tiny_dataset(n_anom=3, n_unlab=12)
    for mode in ("full", "discrete_targets", "plain_regression", "no_consistency"):
        params, history = train(ds, _fast_config(ablation=mode))
        assert len(history) == 2
        assert all(np.isfinite(r.loss_scoring) for r in history)


def test_history_weights_lie_in_unit_interval():
    ds = _tiny_dataset(n_anom=3, n_unlab=12)
    _, history = train(ds, _fast_config(n_epoch=4))
    for record in history:
        assert 0.0 < record.weight < 1.0
        assert record.seconds >= 0.0


def test_model_selection_returns_best_validation_snapshot():
    toy = generate_toy(400, seed=3, anomaly_fraction=0.1)
    prepared = prepare_training(split_dataset(toy, 3), labeled_anomalies=10,
                                contamination=0.05, seed=3)
    cfg = TrainConfig(batch_size=8, n_epoch=6, n_batch=6, rep_dim=16, seed=1,
                      select_best=True)
    params, history = train(prepared, cfg)
    val_idx = prepared.indices(Role.VALID)
    achieved = auc_pr(score_batch(params, prepared.X[val_idx]), prepared.y[val_idx])
    best_recorded = max(r.val_auc_pr for r in history)
    assert achieved == pytest.approx(best_recorded, abs=1e-12)


def test_score_batch_contract_after_training():
    ds = _tiny_dataset()
    params, _ = train(ds, _fast_config())
    assert score_batch(params, np.empty((0, 3))).shape == (0,)
    once = score_batch(params, ds.X)
    again = score_batch(params, ds.X)
    assert np.array_equal(once, again)


def test_trained_toy_scores_anomalies_higher():
    toy = generate_toy(400, seed=11, anomaly_fraction=0.1)
    prepared = prepare_training(split_dataset(toy, 11), labeled_anomalies=10,
                                contamination=0.05, seed=11)
    cfg = TrainConfig(batch_size=8, n_epoch=10, n_batch=10, rep_dim=16, seed=2)
    params, _ = train(prepared, cfg)
    anom = prepared.X[prepared.indices(Role.LABELED_ANOMALY)]
    unlab = prepared.X[prepared.indices(Role.UNLABELED)]
    assert score_batch(params, anom).mean() > score_batch(params, unlab).mean()
