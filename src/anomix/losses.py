"""Training objectives and their balancing.

Three pieces: a smooth-L1 loss at beta = 1 (the Huber loss) pushing
mixed-sample scores onto their graded targets (with a consistency term
tying each mixed score to the weighted sum of its sources' scores), a
triplet hinge on the intermediate representation that repels labeled
anomalies from unlabeled anchors, and a softmax weight over
epoch-normalized losses that balances the two. The weight is held
constant during gradient computation. Every loss reduces by the mean.

Each step stacks its distinct rows once, as [mixed (2b, absent in
plain_regression); anomaly (b); unlabeled (b); anchor (b, absent in
no_regularizer)]. `scoring_loss_graph` runs the scorer's one forward
over that stack and returns the scoring loss; `feature_regularizer_graph`
returns the triplet hinge on the representation that forward kept. Each
also returns its hand-written gradient, with respect to the scores or
the representation rows, as a function of the loss's weight in the
objective; `scorer.backward` takes both through the network.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, InvalidParameterError
from .interpolation import AugmentedBatch
from .scorer import ScorerGraph

ABLATION_MODES = (
    "full",
    "discrete_targets",
    "plain_regression",
    "no_consistency",
    "no_regularizer",
)


def dynamic_weight(loss_scoring: float, loss_feature: float, temperature: float,
                   l_bar: float, l_prime_bar: float) -> float:
    """Softmax weight for the scoring loss given the last-epoch averages Lbar and L'bar.

    w = exp(L / (T Lbar)) / (exp(L / (T Lbar)) + exp(L' / (T L'bar))),
    guarded against overflow by subtracting the larger exponent. Callers
    treat w as a constant when computing gradients.
    """
    if not (l_bar > 0.0 and l_prime_bar > 0.0):
        raise InvalidParameterError("epoch loss averages must be positive")
    if not temperature > 0.0:
        raise InvalidParameterError("temperature must be positive")
    a = loss_scoring / (temperature * l_bar)
    b = loss_feature / (temperature * l_prime_bar)
    top = max(a, b)
    ea = math.exp(a - top)
    eb = math.exp(b - top)
    return ea / (ea + eb)


# ---------------------------------------------------------------------------
# The objectives, each a value and a gradient function
# ---------------------------------------------------------------------------


def smooth_l1(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise smooth-L1 at beta = 1 (the Huber loss) and its derivative.

    0.5 r^2 inside |r| < 1, |r| - 0.5 outside.
    """
    quadratic = np.abs(r) < 1.0
    return np.where(quadratic, 0.5 * r * r, np.abs(r) - 0.5), np.where(quadratic, r, np.sign(r))


def scoring_loss_graph(graph: ScorerGraph, mode: str, blocks, mixed: AugmentedBatch | None):
    """Forward the step's stacked rows; mean smooth-L1 of the scores onto their targets.

    `blocks` is the (anomaly, unlabeled, anchor) triple of b rows each, and
    `mixed` the batch mixed from the first two (None in plain_regression,
    which regresses those 2b rows straight onto their +/-1 labels). The
    mixed rows are regressed onto their targets, which discrete_targets
    snaps to sign(y), mapping an exactly balanced mix (y = 0) to -1.
    Unless the mode is no_consistency, each mixed score is also pulled
    toward the weighted sum of its source rows' scores; the sources are
    then scored in the same forward.

    Returns (loss, grad): grad(w) is the gradient of w * loss with respect
    to the scores `graph.forward` returned.
    """
    if mode not in ABLATION_MODES:
        raise InvalidParameterError(f"unknown ablation {mode!r}; expected one of {ABLATION_MODES}")
    x_anomaly, x_unlabeled, x_anchor = blocks
    b = len(x_anomaly)
    rows = [x_anomaly, x_unlabeled] + ([] if mode == "no_regularizer" else [x_anchor])
    mix = None
    if mode == "plain_regression":
        targets = np.concatenate([np.ones(b), -np.ones(b)])
    else:
        if len(mixed) < 1:
            raise ContractViolationError("augmented batch is empty")
        if mixed.sources.min() < 0 or mixed.sources.max() >= 2 * b:
            raise ContractViolationError(
                "augmented sample references a row outside the source batch")
        rows.insert(0, mixed.x)
        targets = np.where(mixed.y > 0, 1.0, -1.0) if mode == "discrete_targets" else mixed.y
        mix = None if mode == "no_consistency" else mixed
    m = len(targets)
    s = graph.forward(np.vstack(rows), m if mix is None else m + 2 * b)
    per_sample, slope = smooth_l1(s[:m] - targets)
    if mix is not None:
        interp = (s[m:][mix.sources] * mix.lambdas).sum(axis=1)
        consistency, slope_c = smooth_l1(s[:m] - interp)
        per_sample = per_sample + consistency
        slope = slope + slope_c

    def grad(w: float) -> np.ndarray:
        g_s = np.empty(len(s))
        g_s[:m] = (w / m) * slope
        if mix is not None:
            # Each source row collects minus its weight in every mix it entered.
            pulled = ((w / m) * slope_c)[:, None] * mix.lambdas
            g_s[m:] = -np.bincount(mix.sources.ravel(), weights=pulled.ravel(),
                                   minlength=len(s) - m)
        return g_s

    return float(per_sample.mean()), grad


def _unit_rows(diff: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """diff / dist row by row; a zero-length row gets the zero subgradient."""
    return np.divide(diff, dist[:, None], out=np.zeros_like(diff), where=dist[:, None] > 0.0)


def feature_regularizer_graph(graph: ScorerGraph, b: int, margin: float):
    """Mean of max(d(unlabeled, anchor) - d(anomaly, anchor) + margin, 0).

    The anomaly, unlabeled and anchor blocks are the last 3b rows of the
    representation `scoring_loss_graph` kept on `graph`. Distances are
    Euclidean between row-aligned blocks. Only the representation stage is
    involved; the scoring head never sees this term.

    Returns (loss, grad): grad(w) is the gradient of w * loss with respect
    to every row of `graph.rep`.
    """
    z = graph.rep
    if z is None or len(z) < 3 * b:
        raise ContractViolationError(
            "the graph holds no forward with anomaly, unlabeled and anchor rows")
    n = len(z)
    z_anomaly, z_unlabeled, z_anchor = z[n - 3 * b:].reshape(3, b, -1)
    diff_neg = z_unlabeled - z_anchor
    diff_pos = z_anomaly - z_anchor
    d_neg = np.sqrt(np.einsum("ij,ij->i", diff_neg, diff_neg))
    d_pos = np.sqrt(np.einsum("ij,ij->i", diff_pos, diff_pos))
    hinge = d_neg - d_pos + margin
    active = hinge > 0.0

    def grad(w: float) -> np.ndarray:
        coef = ((w / b) * active)[:, None]
        g_neg = coef * _unit_rows(diff_neg, d_neg)
        g_pos = coef * _unit_rows(diff_pos, d_pos)
        g_z = np.zeros_like(z)
        g_z[n - 3 * b:n - 2 * b] = -g_pos
        g_z[n - 2 * b:n - b] = g_neg
        g_z[n - b:] = g_pos - g_neg
        return g_z

    return float(np.where(active, hinge, 0.0).mean()), grad
