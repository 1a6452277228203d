"""Training objectives and their balancing.

Three pieces: a regression loss pushing mixed-sample scores onto their
graded targets (with a consistency term tying each mixed score to the
weighted sum of its sources' scores), a triplet hinge on the intermediate
representation that repels labeled anomalies from unlabeled anchors, and
a softmax weight over epoch-normalized losses that balances the two. The
weight is held constant during gradient computation. Every loss reduces
over its batch by the mean and is recorded on the gradient tape: its
`.value` is the batch loss and `nn.backward` gives its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .errors import ContractViolationError, InvalidParameterError
from .interpolation import AugmentedBatch
from .nn import Var
from .scorer import ScorerGraph

ABLATION_MODES = (
    "full",
    "discrete_targets",
    "plain_regression",
    "no_consistency",
    "no_regularizer",
)


@dataclass
class LossState:
    """Running per-epoch loss averages and the current balancing weight.

    Both averages start at 1 and are replaced after every epoch by that
    epoch's per-batch means; `w` is refreshed every batch.
    """

    l_bar: float = 1.0
    l_prime_bar: float = 1.0
    temperature: float = 2.0
    w: float = 0.5


def dynamic_weight(loss_scoring: float, loss_feature: float, state: LossState) -> float:
    """Softmax weight for the scoring loss given last-epoch averages.

    w = exp(L / (T Lbar)) / (exp(L / (T Lbar)) + exp(L' / (T L'bar))),
    guarded against overflow by subtracting the larger exponent. Callers
    treat w as a constant when computing gradients.
    """
    if not (state.l_bar > 0.0 and state.l_prime_bar > 0.0):
        raise InvalidParameterError("epoch loss averages must be positive")
    if not state.temperature > 0.0:
        raise InvalidParameterError("temperature must be positive")
    a = loss_scoring / (state.temperature * state.l_bar)
    b = loss_feature / (state.temperature * state.l_prime_bar)
    top = max(a, b)
    ea = math.exp(a - top)
    eb = math.exp(b - top)
    return ea / (ea + eb)


def update_epoch_averages(state: LossState, scoring_losses, feature_losses) -> LossState:
    """New state with both averages replaced by this epoch's means."""
    if len(scoring_losses) == 0 or len(feature_losses) == 0:
        raise ContractViolationError("epoch loss lists must be non-empty")
    return replace(
        state,
        l_bar=float(np.mean(scoring_losses)),
        l_prime_bar=float(np.mean(feature_losses)),
    )


# ---------------------------------------------------------------------------
# The objectives, recorded on the gradient tape
# ---------------------------------------------------------------------------


def _check_augmented(batch: AugmentedBatch, n_sources: int) -> None:
    if len(batch) < 1:
        raise ContractViolationError("augmented batch is empty")
    if batch.sources.min() < 0 or batch.sources.max() >= n_sources:
        raise ContractViolationError("augmented sample references a row outside the source batch")


def scoring_loss_graph(graph: ScorerGraph, augmented: AugmentedBatch, source_x,
                       beta: float = 1.0, *, discrete_targets: bool = False,
                       consistency: bool = True) -> Var:
    """Mean smooth-L1 regression of mixed-sample scores onto their targets.

    With `consistency`, each mixed score is additionally pulled toward
    the weighted sum of its source rows' scores; both passes use the same
    live parameters. `discrete_targets` snaps targets to sign(y), mapping
    an exactly balanced mix (y = 0) to -1.
    """
    source_x = np.asarray(source_x, dtype=np.float64)
    _check_augmented(augmented, len(source_x))
    s_mixed = graph.score(augmented.x)
    targets = np.where(augmented.y > 0, 1.0, -1.0) if discrete_targets else augmented.y
    per_sample = nn.v_smooth_l1(s_mixed - targets, beta)
    if consistency:
        s_sources = graph.score(source_x)
        interp = nn.v_weighted_gather(s_sources, augmented.sources, augmented.lambdas)
        per_sample = per_sample + nn.v_smooth_l1(s_mixed - interp, beta)
    return nn.v_mean(per_sample)


def plain_regression_graph(graph: ScorerGraph, x, y, beta: float = 1.0) -> Var:
    """Mean smooth-L1 regression of raw-batch scores straight onto the +/-1 labels."""
    scores = graph.score(x)
    return nn.v_mean(nn.v_smooth_l1(scores - np.asarray(y, dtype=np.float64), beta))


def feature_regularizer_graph(graph: ScorerGraph, x_anomaly, x_unlabeled, x_anchor,
                              margin: float) -> Var:
    """Mean of max(d(unlabeled, anchor) - d(anomaly, anchor) + margin, 0).

    Distances are Euclidean between row-aligned representations of the
    three blocks. Only the representation stage is involved; the scoring
    head never sees this term.
    """
    z_anomaly = graph.represent(x_anomaly)
    z_unlabeled = graph.represent(x_unlabeled)
    z_anchor = graph.represent(x_anchor)
    d_neg = nn.v_row_distance(z_unlabeled, z_anchor)
    d_pos = nn.v_row_distance(z_anomaly, z_anchor)
    return nn.v_mean(nn.v_hinge(d_neg - d_pos + margin))
