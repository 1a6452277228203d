"""Exact threshold-free ranking metrics from scores and labels.

Each metric sorts the scores once: the ROC area through `np.unique`, the
PR area through a stable `argsort`, so `evaluate_scores` sorts twice.
Ties are handled explicitly: the ROC area gives half credit to tied
positive/negative pairs (the rank-sum form of the pairwise statistic),
and the PR area is step-wise average precision with tied scores
processed as one block; no linear PR interpolation is used, since that
is known to overestimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError


@dataclass(frozen=True)
class MetricsReport:
    auc_roc: float
    auc_pr: float
    n_pos: int
    n_neg: int


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise UndefinedMetricError("scores and labels must have equal length")
    if len(s) == 0:
        raise UndefinedMetricError("no rows to evaluate")
    if not np.isin(y, (0, 1)).all():
        raise UndefinedMetricError("labels must be 0 or 1")
    return s, y.astype(np.int64)


def auc_roc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Ties count one half. Computed from average ranks in O(n log n);
    equals the exhaustive pairwise count.
    """
    s, y = _validate(scores, labels)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC area needs at least one positive and one negative")
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg_rank = ends - (counts - 1) / 2.0
    rank_sum = avg_rank[inverse][y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_pr(scores, labels) -> float:
    """Step-wise average precision over descending score thresholds."""
    s, y = _validate(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("PR area needs at least one positive")
    order = np.argsort(s, kind="mergesort")[::-1]
    s_desc = s[order]
    y_desc = y[order]
    block_end = np.flatnonzero(np.diff(s_desc) != 0.0)
    block_end = np.concatenate([block_end, [len(s_desc) - 1]])
    tp = np.cumsum(y_desc)[block_end].astype(np.float64)
    seen = block_end + 1.0
    precision = tp / seen
    delta_recall = np.diff(np.concatenate([[0.0], tp])) / n_pos
    return float(np.sum(precision * delta_recall))


def evaluate_scores(scores, labels) -> MetricsReport:
    """Both ranking metrics plus the class counts that produced them."""
    s, y = _validate(scores, labels)
    n_pos = int(y.sum())
    return MetricsReport(
        auc_roc=auc_roc(s, y),
        auc_pr=auc_pr(s, y),
        n_pos=n_pos,
        n_neg=len(y) - n_pos,
    )
