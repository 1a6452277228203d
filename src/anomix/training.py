"""The end-to-end training loop.

Per batch: sample a labeled-anomaly block and two unlabeled blocks (pool
and anchors), build the mixed batch, evaluate the scoring loss (which
runs the step's one stacked forward) and the representation regularizer
on that forward, balance them with the softmax weight (held constant for
the gradient), run the scorer's explicit backward pass once on the
weighted loss gradients, and take one Adam step on the flat parameter
vector. The two epoch-average losses the weight divides by start at 1 and
update exactly once per epoch, after its last batch. A master seed fans
out to the "init", "batching", and "augmentation" substreams, so a fixed
(dataset, config, seed) triple reproduces the run bit for bit.

Adam, with beta1, beta2 and eps at the defaults of arXiv 1412.6980, updates
`ScorerParams.flat` in place in one pass, with one first and one second
moment vector laid out like it, so the update reaches the vector every
layer views. Its state, like the step's graph, is single-writer.

`TrainConfig` holds exactly the knobs a command sets, each a flag shared by
`anomix train` and `anomix sweep`, and is checked once, when it is built.
Fixed implementation details live with the code that uses them: Adam's
constants here, the smooth-L1 beta of 1 in `losses`, the LeakyReLU slope
in `ScorerParams`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import losses as L
from .data import Dataset, Role
from .errors import (
    ContractViolationError,
    InvalidParameterError,
    TrainingDivergedError,
    UnusableDatasetError,
)
from .interpolation import augment_batch
from .losses import ABLATION_MODES
from .metrics import auc_pr
from .rng import child_seed, substream
from .scorer import ScorerGraph, backward, build_scorer, score_batch

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
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
    ablation: str = "full"
    seed: int = 0
    select_best: bool = True

    def __post_init__(self):
        """Raise InvalidParameterError naming the first field out of range, its limit, its value."""
        checks = (
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("n_epoch", self.n_epoch >= 0, "must be >= 0"),
            ("n_batch", self.n_batch >= 1, "must be >= 1"),
            ("rep_dim", self.rep_dim >= 2, "must be >= 2"),
            ("k", 2 <= self.k <= 2 * self.batch_size,
             f"must lie in [2, 2 * batch_size] = [2, {2 * self.batch_size}]"),
            *((name, 0 < getattr(self, name) < math.inf, "must be positive and finite")
              for name in ("lr", "alpha", "margin", "temperature")),
            ("weight_decay", 0 <= self.weight_decay < math.inf, "must be finite and >= 0"),
            # Adam scales every weight by 1 - lr * weight_decay, which must stay positive.
            ("weight_decay", self.lr * self.weight_decay < 1,
             f"times lr = {self.lr!r} must be < 1"),
            ("seed", self.seed >= 0, "cannot be negative"),
            ("ablation", self.ablation in ABLATION_MODES, f"must be one of {ABLATION_MODES}"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise InvalidParameterError(f"{name} {rule}, got {getattr(self, name)!r}")


@dataclass
class EpochRecord:
    epoch: int
    loss_scoring: float
    loss_feature: float | None
    weight: float
    val_auc_pr: float | None
    seconds: float


@dataclass
class AdamState:
    """Adam's step counter and its two moment vectors, laid out like the parameters."""

    lr: float
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(params, grad: np.ndarray, state: AdamState) -> None:
    """One in-place Adam update of `params.flat`, with decoupled weight decay.

    `grad` and the moments share the layout of `params.flat`. Decay shrinks the parameters
    first as p * (1 - lr*decay), which rounds unlike p - lr*decay*p; then
    p -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order. A non-finite gradient (checked
    before anything moves) or updated value raises TrainingDivergedError naming its array.
    """
    if grad.shape != params.flat.shape:
        raise ContractViolationError(f"{grad.shape} gradient for {params.flat.size} parameters")
    if not np.isfinite(grad).all():
        raise TrainingDivergedError(f"non-finite gradient in {params.nonfinite_label(grad)}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    p, m, v = params.flat, state.m, state.v
    p *= 1.0 - state.lr * state.weight_decay
    m *= ADAM_BETA1
    m += grad * (1.0 - ADAM_BETA1)
    v *= ADAM_BETA2
    v += (grad * grad) * (1.0 - ADAM_BETA2)
    p -= (m / c1 * state.lr) / (np.sqrt(v / c2) + ADAM_EPS)
    if not np.isfinite(p).all():
        raise TrainingDivergedError(f"non-finite parameter in {params.nonfinite_label(p)}")


def sample_batches(X: np.ndarray, anomalies: np.ndarray, unlabeled: np.ndarray, b: int,
                   rng: np.random.Generator):
    """One (anomaly, unlabeled, anchor) block triple: rows of X drawn from two index pools.

    Anomalies come with replacement when fewer than b are labeled; 2b
    unlabeled rows are drawn without replacement and split evenly into the
    pool block and the anchor block. train() checks both pools' sizes.
    """
    pick_anom = rng.choice(anomalies, size=b, replace=len(anomalies) < b)
    pick_unlab = rng.choice(unlabeled, size=2 * b, replace=False)
    return X[pick_anom], X[pick_unlab[:b]], X[pick_unlab[b:]]


def train(dataset: Dataset, config: TrainConfig, progress=None):
    """Run the full loop; returns (parameters, one EpochRecord per epoch).

    With model selection on and a usable validation split, the parameters
    of the epoch with the best validation PR area, read against the
    validation rows' true labels, are returned; otherwise the last epoch's.
    `progress`, if given, receives each EpochRecord as it completes.
    """
    b = config.batch_size
    anomalies = dataset.indices(Role.LABELED_ANOMALY)
    unlabeled = dataset.indices(Role.UNLABELED)
    if len(anomalies) == 0:
        raise UnusableDatasetError("training requires a non-empty labeled-anomaly pool")
    if len(unlabeled) < 2 * b:
        raise UnusableDatasetError("training requires an unlabeled pool of at least "
                                   f"2 * batch_size = {2 * b} rows, got {len(unlabeled)}")

    params = build_scorer(dataset.n_features, config.rep_dim, seed=child_seed(config.seed, "init"))
    history: list[EpochRecord] = []
    rng_batch = substream(config.seed, "batching")
    rng_augment = substream(config.seed, "augmentation")
    optimizer = AdamState(config.lr, config.weight_decay, np.zeros_like(params.flat),
                          np.zeros_like(params.flat))
    l_bar = l_prime_bar = 1.0
    valid = dataset.indices(Role.VALID)
    valid_labels = dataset.y[valid]
    # The validation PR area needs both classes among the validation rows.
    X_valid = dataset.X[valid] if 0 < valid_labels.sum() < len(valid) else None
    best_auc = -np.inf
    best_flat = None
    mode = config.ablation
    block_labels = np.concatenate([np.ones(b), -np.ones(b)])

    for epoch in range(1, config.n_epoch + 1):
        started = time.perf_counter()
        scoring_vals: list[float] = []
        feature_vals: list[float] = []
        weights: list[float] = []
        for batch_no in range(1, config.n_batch + 1):
            blocks = sample_batches(dataset.X, anomalies, unlabeled, b, rng_batch)
            mixed = None
            if mode != "plain_regression":
                mixed = augment_batch(np.vstack(blocks[:2]), block_labels, config.k, config.alpha,
                                      m=2 * b, rng=rng_augment)
            graph = ScorerGraph(params)
            loss_val, loss_grad = L.scoring_loss_graph(graph, mode, blocks, mixed)
            if not np.isfinite(loss_val):
                raise TrainingDivergedError(f"scoring loss diverged at epoch {epoch}, batch {batch_no}")
            if mode == "no_regularizer":
                feature_val, w, g_rep = None, 1.0, None
            else:
                feature_val, feature_grad = L.feature_regularizer_graph(graph, b, config.margin)
                if not np.isfinite(feature_val):
                    raise TrainingDivergedError(
                        f"feature regularizer diverged at epoch {epoch}, batch {batch_no}"
                    )
                w = L.dynamic_weight(loss_val, feature_val, config.temperature, l_bar, l_prime_bar)
                g_rep = feature_grad(1.0 - w)
            adam_step(params, backward(graph, loss_grad(w), g_rep), optimizer)
            scoring_vals.append(loss_val)
            weights.append(w)
            if feature_val is not None:
                feature_vals.append(feature_val)
        loss_scoring = float(np.mean(scoring_vals))
        loss_feature = float(np.mean(feature_vals)) if feature_vals else None
        # A mean of exactly 0 (say, no triplet hinge active all epoch) keeps
        # the previous average, which stays positive: dynamic_weight divides by it.
        l_bar, l_prime_bar = loss_scoring or l_bar, loss_feature or l_prime_bar
        val_auc = None
        if X_valid is not None:
            val_auc = auc_pr(score_batch(params, X_valid), valid_labels)
            if config.select_best and val_auc > best_auc:
                best_auc = val_auc
                best_flat = params.flat.copy()
        record = EpochRecord(
            epoch=epoch,
            loss_scoring=loss_scoring,
            loss_feature=loss_feature,
            weight=float(np.mean(weights)),
            val_auc_pr=val_auc,
            seconds=time.perf_counter() - started,
        )
        history.append(record)
        if progress is not None:
            progress(record)

    if best_flat is not None:
        params.flat[:] = best_flat
    return params, history
