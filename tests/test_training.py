import numpy as np
import pytest

from anomix.data import Dataset, Role, generate_toy, prepare_dataset
from anomix.errors import InvalidParameterError, UnusableDatasetError
from anomix.interpolation import augment_batch
from anomix.losses import ABLATION_MODES, LossState, dynamic_weight, update_epoch_averages
from anomix.metrics import auc_pr
from anomix.nn import AdamState, GradientTape, adam_step, backward
from anomix.rng import child_seed, substream
from anomix.scorer import LAYER_NAMES, ScorerGraph, build_scorer, score_batch
from anomix.training import TrainConfig, sample_batches, train
from tests.conftest import step_losses


def _tiny_dataset(n_anom=2, n_unlab=8, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n_anom + n_unlab, d))
    y = np.array([1] * n_anom + [0] * n_unlab)
    roles = np.array([int(Role.LABELED_ANOMALY)] * n_anom + [int(Role.UNLABELED)] * n_unlab)
    return Dataset(X, y, roles)


def _fast_config(**kw):
    base = dict(batch_size=2, n_epoch=2, n_batch=2, rep_dim=4, seed=7, select_best=False)
    base.update(kw)
    return TrainConfig(**base)


# -- batch sampling -------------------------------------------------------------


def test_sample_batches_shapes_and_oversampling():
    ds = _tiny_dataset(n_anom=3, n_unlab=20)
    rng = np.random.default_rng(1)
    xa, xu, xq = sample_batches(ds, b=8, rng=rng)
    assert xa.shape == (8, 3) and xu.shape == (8, 3) and xq.shape == (8, 3)
    # only 3 labeled anomalies exist: the 8 draws must come with replacement
    anomaly_rows = ds.X[ds.indices(Role.LABELED_ANOMALY)]
    for row in xa:
        assert any(np.array_equal(row, a) for a in anomaly_rows)


def test_sample_batches_unlabeled_split_is_disjoint():
    ds = _tiny_dataset(n_anom=2, n_unlab=16)
    xa, xu, xq = sample_batches(ds, b=8, rng=np.random.default_rng(3))
    pool = np.vstack([xu, xq])
    # 2b = 16 unlabeled rows drawn without replacement from a pool of 16
    assert len(np.unique(pool, axis=0)) == 16


def test_sample_batches_preconditions():
    ds = _tiny_dataset(n_anom=0, n_unlab=10)
    with pytest.raises(UnusableDatasetError):
        sample_batches(ds, b=2, rng=np.random.default_rng(0))
    ds2 = _tiny_dataset(n_anom=2, n_unlab=3)
    with pytest.raises(UnusableDatasetError):
        sample_batches(ds2, b=2, rng=np.random.default_rng(0))


def test_sample_batches_deterministic():
    ds = _tiny_dataset(n_anom=4, n_unlab=20)
    a = sample_batches(ds, 4, np.random.default_rng(42))
    b = sample_batches(ds, 4, np.random.default_rng(42))
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


# -- training loop ---------------------------------------------------------------


def test_zero_epochs_returns_initialized_params():
    ds = _tiny_dataset()
    cfg = _fast_config(n_epoch=0)
    params, history = train(ds, cfg)
    assert len(history) == 0
    fresh = build_scorer(3, cfg.rep_dim, seed=child_seed(cfg.seed, "init"), slope=cfg.slope)
    for got, want in zip(params.layers(), fresh.layers()):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)


def test_train_replay_oracle_matches_exactly():
    """Replaying the loop step by step reproduces train() bit for bit, in every mode."""
    ds = _tiny_dataset(n_anom=2, n_unlab=8)
    for mode in ABLATION_MODES:
        cfg = _fast_config(n_epoch=2, n_batch=2, ablation=mode)
        trained, history = train(ds, cfg)

        params = build_scorer(3, cfg.rep_dim, seed=child_seed(cfg.seed, "init"), slope=cfg.slope)
        rng_batch = substream(cfg.seed, "batching")
        rng_augment = substream(cfg.seed, "augmentation")
        tape = GradientTape(params.layers())
        optimizer = AdamState.for_layers(params.layers(), lr=cfg.lr, beta1=cfg.beta1,
                                         beta2=cfg.beta2, eps=cfg.eps,
                                         weight_decay=cfg.weight_decay)
        state = LossState(temperature=cfg.temperature)
        labels = np.concatenate([np.ones(cfg.batch_size), -np.ones(cfg.batch_size)])
        expected_weights = []
        for _epoch in range(cfg.n_epoch):
            ls, lps = [], []
            for _batch in range(cfg.n_batch):
                blocks = sample_batches(ds, cfg.batch_size, rng_batch)
                mixed = None
                if mode != "plain_regression":
                    mixed = augment_batch(np.vstack(blocks[:2]), labels, cfg.k, cfg.alpha,
                                          m=2 * cfg.batch_size, rng=rng_augment)
                graph = ScorerGraph(params)
                l_var, f_var = step_losses(graph, mode, blocks, mixed,
                                           cfg.smooth_beta, cfg.margin)
                if f_var is None:
                    w, objective = 1.0, l_var
                else:
                    w = dynamic_weight(float(l_var.value), float(f_var.value), state)
                    objective = l_var * w + f_var * (1.0 - w)
                    lps.append(float(f_var.value))
                expected_weights.append(w)
                backward(objective, graph.param_pairs(), tape)
                adam_step(params.layers(), tape, optimizer, names=LAYER_NAMES)
                ls.append(float(l_var.value))
            if lps:
                state = update_epoch_averages(state, ls, lps)

        for got, want in zip(trained.layers(), params.layers()):
            assert np.array_equal(got.weights, want.weights), mode
            assert np.array_equal(got.bias, want.bias), mode
        # first-epoch weights were computed against the initial averages of 1
        assert history.records[0].weight == pytest.approx(
            np.mean(expected_weights[:cfg.n_batch]), abs=0)


def test_train_bitwise_determinism():
    ds = _tiny_dataset(n_anom=3, n_unlab=12, seed=5)
    cfg = _fast_config(n_epoch=3, n_batch=3)
    p1, h1 = train(ds, cfg)
    p2, h2 = train(ds, cfg)
    for a, b in zip(p1.layers(), p2.layers()):
        assert np.array_equal(a.weights, b.weights)
    assert h1.as_dicts() == h2.as_dicts()


def test_train_preconditions_and_validation():
    ds = _tiny_dataset(n_anom=0, n_unlab=10)
    with pytest.raises(UnusableDatasetError):
        train(ds, _fast_config())
    with pytest.raises(InvalidParameterError):
        train(_tiny_dataset(), _fast_config(ablation="nope"))
    with pytest.raises(InvalidParameterError):
        _fast_config(k=1).validate()
    with pytest.raises(InvalidParameterError):
        _fast_config(lr=0.0).validate()
    with pytest.raises(InvalidParameterError):
        _fast_config(margin=0.0).validate()
    with pytest.raises(InvalidParameterError):
        _fast_config(smooth_beta=0.0).validate()


def test_no_regularizer_mode_runs_without_feature_loss():
    ds = _tiny_dataset()
    params, history = train(ds, _fast_config(ablation="no_regularizer"))
    assert all(rec.loss_feature is None for rec in history.records)
    assert all(rec.weight == 1.0 for rec in history.records)


def test_all_ablation_modes_run():
    ds = _tiny_dataset(n_anom=3, n_unlab=12)
    for mode in ("full", "discrete_targets", "plain_regression", "no_consistency"):
        params, history = train(ds, _fast_config(ablation=mode))
        assert len(history) == 2
        assert all(np.isfinite(r.loss_scoring) for r in history.records)


def test_history_weights_lie_in_unit_interval():
    ds = _tiny_dataset(n_anom=3, n_unlab=12)
    _, history = train(ds, _fast_config(n_epoch=4))
    for record in history.records:
        assert 0.0 < record.weight < 1.0
        assert record.seconds >= 0.0


def test_model_selection_returns_best_validation_snapshot():
    toy = generate_toy(400, seed=3, anomaly_fraction=0.1)
    prepared = prepare_dataset(toy, labeled_anomalies=10, contamination=0.05, seed=3)
    cfg = TrainConfig(batch_size=8, n_epoch=6, n_batch=6, rep_dim=16, seed=1,
                      select_best=True)
    params, history = train(prepared, cfg)
    val_idx = prepared.indices(Role.VALID)
    achieved = auc_pr(score_batch(params, prepared.X[val_idx]), prepared.y[val_idx])
    best_recorded = max(r.val_auc_pr for r in history.records)
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
    prepared = prepare_dataset(toy, labeled_anomalies=10, contamination=0.05, seed=11)
    cfg = TrainConfig(batch_size=8, n_epoch=10, n_batch=10, rep_dim=16, seed=2)
    params, _ = train(prepared, cfg)
    anom = prepared.X[prepared.indices(Role.LABELED_ANOMALY)]
    unlab = prepared.X[prepared.indices(Role.UNLABELED)]
    assert score_batch(params, anom).mean() > score_batch(params, unlab).mean()
