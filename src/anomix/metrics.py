"""Exact threshold-free ranking metrics from scores and labels.

Both metrics read the same tie blocks: one stable descending sort cut
wherever the score changes, with the positives and rows seen up to the
end of each block. The ROC area is the exact pairwise count, half
credit for a tied positive/negative pair, divided once with correct
rounding. The PR area is step-wise average precision with each tie
block taken as one step; no linear PR interpolation is used, since that
is known to overestimate. Scores must be finite: NaN has no rank.
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
    bad = np.flatnonzero(~np.isfinite(s))
    if len(bad):
        raise UndefinedMetricError(f"scores must be finite, got {s[bad[0]]} at position {bad[0]}")
    return s, y.astype(np.int64)


def _tie_blocks(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positives and rows seen, both int64, at the end of each tie block, highest first."""
    order = np.argsort(s, kind="mergesort")[::-1]
    block_end = np.append(np.flatnonzero(np.diff(s[order]) != 0.0), len(s) - 1)
    return np.cumsum(y[order])[block_end], block_end + 1


def _roc(tp: np.ndarray, seen: np.ndarray) -> float:
    n_pos = int(tp[-1])
    n_neg = int(seen[-1]) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC area needs at least one positive and one negative")
    fp = seen - tp
    pos = np.diff(tp, prepend=0)
    won = int(pos @ (n_neg - fp))  # negatives in later blocks score lower
    tied = int(pos @ np.diff(fp, prepend=0))
    return (2 * won + tied) / (2 * n_pos * n_neg)  # int / int rounds correctly


def _pr(tp: np.ndarray, seen: np.ndarray) -> float:
    n_pos = int(tp[-1])
    if n_pos == 0:
        raise UndefinedMetricError("PR area needs at least one positive")
    return float(np.sum(tp / seen * (np.diff(tp, prepend=0) / n_pos)))


def auc_roc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative; ties count one half."""
    return _roc(*_tie_blocks(*_validate(scores, labels)))


def auc_pr(scores, labels) -> float:
    """Step-wise average precision over descending score thresholds."""
    return _pr(*_tie_blocks(*_validate(scores, labels)))


def evaluate_scores(scores, labels) -> MetricsReport:
    """Both ranking metrics plus the class counts that produced them."""
    tp, seen = _tie_blocks(*_validate(scores, labels))
    return MetricsReport(auc_roc=_roc(tp, seen), auc_pr=_pr(tp, seen),
                         n_pos=int(tp[-1]), n_neg=int(seen[-1] - tp[-1]))
