"""The end-to-end training loop.

Per batch: sample a labeled-anomaly block and two unlabeled blocks (pool
and anchors), build the mixed batch, evaluate the scoring loss and the
representation regularizer, balance them with the softmax weight (held
constant for the gradient), and take one Adam step. Epoch-average losses
update exactly once per epoch, after its last batch. A master seed fans
out to the "init", "batching", and "augmentation" substreams, so a fixed
(dataset, config, seed) triple reproduces the run bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import losses as L
from .data import Dataset, Role
from .errors import InvalidParameterError, TrainingDivergedError, UnusableDatasetError
from .interpolation import augment_batch
from .losses import ABLATION_MODES, LossState
from .metrics import auc_pr
from .nn import AdamState, GradientTape, adam_step, backward
from .rng import child_seed, substream
from .scorer import LAYER_NAMES, ScorerGraph, ScorerParams, build_scorer, score_batch


@dataclass
class TrainConfig:
    batch_size: int = 32
    n_epoch: int = 50
    n_batch: int = 20
    lr: float = 0.005
    rep_dim: int = 128
    k: int = 2
    alpha: float = 0.5
    margin: float = 1.0
    temperature: float = 2.0
    weight_decay: float = 1e-5
    slope: float = 0.01
    smooth_beta: float = 1.0
    ablation: str = "full"
    seed: int = 0
    select_best: bool = True
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        if self.batch_size < 1:
            raise InvalidParameterError("batch_size must be positive")
        if self.n_epoch < 0 or self.n_batch < 1:
            raise InvalidParameterError("epoch and batch counts must be sensible")
        if self.k < 2 or self.k > 2 * self.batch_size:
            raise InvalidParameterError("k must lie in [2, 2 * batch_size]")
        if not (self.lr > 0 and self.alpha > 0 and self.margin > 0
                and self.temperature > 0 and self.smooth_beta > 0):
            raise InvalidParameterError("lr, alpha, margin, temperature, smooth_beta must be positive")
        if self.weight_decay < 0:
            raise InvalidParameterError("weight_decay cannot be negative")
        if not 0.0 < self.slope < 1.0:
            raise InvalidParameterError("slope must lie in (0, 1)")
        if self.ablation not in ABLATION_MODES:
            raise InvalidParameterError(
                f"unknown ablation {self.ablation!r}; expected one of {ABLATION_MODES}"
            )


@dataclass
class EpochRecord:
    epoch: int
    loss_scoring: float
    loss_feature: float | None
    weight: float
    val_auc_pr: float | None
    seconds: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def as_dicts(self) -> list[dict]:
        """The records without wall-clock seconds, so history.json is deterministic."""
        return [{k: v for k, v in asdict(rec).items() if k != "seconds"} for rec in self.records]


def sample_batches(dataset: Dataset, b: int, rng: np.random.Generator):
    """One (anomaly, unlabeled, anchor) block triple as row matrices.

    Anomalies come with replacement when the labeled pool is smaller than
    b; 2b unlabeled rows are drawn without replacement and split evenly
    into the pool block and the anchor block.
    """
    idx_anom = dataset.indices(Role.LABELED_ANOMALY)
    idx_unlab = dataset.indices(Role.UNLABELED)
    if len(idx_anom) == 0:
        raise UnusableDatasetError("no labeled anomalies to sample from")
    if len(idx_unlab) < 2 * b:
        raise UnusableDatasetError(
            f"unlabeled pool has {len(idx_unlab)} rows; need at least {2 * b}"
        )
    pick_anom = rng.choice(idx_anom, size=b, replace=len(idx_anom) < b)
    pick_unlab = rng.choice(idx_unlab, size=2 * b, replace=False)
    X = dataset.X
    return X[pick_anom], X[pick_unlab[:b]], X[pick_unlab[b:]]


def _validation_setup(dataset: Dataset):
    idx = dataset.indices(Role.VALID)
    if len(idx) == 0:
        return None
    labels = dataset.y[idx]
    if labels.sum() == 0 or labels.sum() == len(labels):
        return None
    return idx, labels


def train(dataset: Dataset, config: TrainConfig, progress=None):
    """Run the full loop; returns (parameters, history).

    With model selection on and a usable validation split, the epoch
    snapshot with the best validation PR area is returned; otherwise the
    last-epoch parameters. `progress`, if given, receives each
    EpochRecord as it completes.
    """
    config.validate()
    if len(dataset.indices(Role.LABELED_ANOMALY)) == 0:
        raise UnusableDatasetError("training requires a non-empty labeled-anomaly pool")
    if len(dataset.indices(Role.UNLABELED)) < 2 * config.batch_size:
        raise UnusableDatasetError("training requires an unlabeled pool of at least 2 * batch_size")

    params = build_scorer(
        dataset.n_features, config.rep_dim,
        seed=child_seed(config.seed, "init"), slope=config.slope,
    )
    history = TrainHistory()
    if config.n_epoch == 0:
        return params, history

    rng_batch = substream(config.seed, "batching")
    rng_augment = substream(config.seed, "augmentation")
    tape = GradientTape(params.layers())
    optimizer = AdamState.for_layers(
        params.layers(), lr=config.lr, beta1=config.beta1, beta2=config.beta2,
        eps=config.eps, weight_decay=config.weight_decay,
    )
    state = LossState(temperature=config.temperature)
    validation = _validation_setup(dataset)
    best_auc = -np.inf
    best_params: ScorerParams | None = None
    mode = config.ablation
    b = config.batch_size
    block_labels = np.concatenate([np.ones(b), -np.ones(b)])

    for epoch in range(1, config.n_epoch + 1):
        started = time.perf_counter()
        scoring_vals: list[float] = []
        feature_vals: list[float] = []
        weights: list[float] = []
        for batch_no in range(config.n_batch):
            x_anom, x_unlab, x_anchor = sample_batches(dataset, b, rng_batch)
            x_block = np.vstack([x_anom, x_unlab])
            graph = ScorerGraph(params)
            if mode == "plain_regression":
                loss_var = L.plain_regression_graph(graph, x_block, block_labels, config.smooth_beta)
            else:
                mixed = augment_batch(x_block, block_labels, config.k, config.alpha,
                                      m=2 * b, rng=rng_augment)
                loss_var = L.scoring_loss_graph(
                    graph, mixed, x_block, config.smooth_beta,
                    discrete_targets=(mode == "discrete_targets"),
                    consistency=(mode != "no_consistency"),
                )
            loss_val = float(loss_var.value)
            if not np.isfinite(loss_val):
                raise TrainingDivergedError(f"scoring loss diverged at epoch {epoch}, batch {batch_no}")
            if mode == "no_regularizer":
                feature_val = None
                w = 1.0
                objective = loss_var
            else:
                feature_var = L.feature_regularizer_graph(graph, x_anom, x_unlab, x_anchor, config.margin)
                feature_val = float(feature_var.value)
                if not np.isfinite(feature_val):
                    raise TrainingDivergedError(
                        f"feature regularizer diverged at epoch {epoch}, batch {batch_no}"
                    )
                w = L.dynamic_weight(loss_val, feature_val, state)
                objective = loss_var * w + feature_var * (1.0 - w)
            backward(objective, graph.param_pairs(), tape)
            adam_step(params.layers(), tape, optimizer, names=LAYER_NAMES)
            scoring_vals.append(loss_val)
            weights.append(w)
            if feature_val is not None:
                feature_vals.append(feature_val)
        if mode == "no_regularizer":
            state = replace(state, l_bar=float(np.mean(scoring_vals)))
        else:
            state = L.update_epoch_averages(state, scoring_vals, feature_vals)
        val_auc = None
        if validation is not None:
            idx, labels = validation
            val_auc = auc_pr(score_batch(params, dataset.X[idx]), labels)
            if config.select_best and val_auc > best_auc:
                best_auc = val_auc
                best_params = params.copy()
        record = EpochRecord(
            epoch=epoch,
            loss_scoring=float(np.mean(scoring_vals)),
            loss_feature=float(np.mean(feature_vals)) if feature_vals else None,
            weight=float(np.mean(weights)),
            val_auc_pr=val_auc,
            seconds=time.perf_counter() - started,
        )
        history.records.append(record)
        if progress is not None:
            progress(record)

    if config.select_best and best_params is not None:
        return best_params, history
    return params, history
