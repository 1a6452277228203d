from fractions import Fraction

import numpy as np
import pytest

from anomix.errors import UndefinedMetricError
from anomix.metrics import MetricsReport, auc_pr, auc_roc, evaluate_scores
from anomix.nn import TANH_LIMIT


def roc_oracle(scores, labels) -> Fraction:
    """Exhaustive pairwise count with half credit for ties, in exact arithmetic."""
    pos = [Fraction(s).limit_denominator(10**15) if isinstance(s, float) else Fraction(s)
           for s, l in zip(scores, labels) if l == 1]
    neg = [Fraction(s).limit_denominator(10**15) if isinstance(s, float) else Fraction(s)
           for s, l in zip(scores, labels) if l == 0]
    total = Fraction(0)
    for p in pos:
        for n in neg:
            if p > n:
                total += 1
            elif p == n:
                total += Fraction(1, 2)
    return total / (len(pos) * len(neg))


def pr_oracle(scores, labels) -> Fraction:
    """Average precision over descending unique thresholds, in exact arithmetic."""
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap = Fraction(0)
    prev_tp = 0
    for t in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 0)
        ap += Fraction(tp - prev_tp, n_pos) * Fraction(tp, tp + fp)
        prev_tp = tp
    return ap


def roc_rank_sum(scores, labels) -> float:
    """The ROC area from np.unique average ranks, exact while n**2 < 2**53."""
    s, y = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = avg_rank[inverse][y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pr_float_blocks(scores, labels) -> float:
    """Average precision over tie blocks of a descending argsort, in float64 throughout."""
    s, y = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    order = np.argsort(s, kind="mergesort")[::-1]
    block_end = np.concatenate([np.flatnonzero(np.diff(s[order]) != 0.0), [len(s) - 1]])
    tp = np.cumsum(y[order])[block_end].astype(np.float64)
    precision = tp / (block_end + 1.0)
    delta_recall = np.diff(np.concatenate([[0.0], tp])) / int(y.sum())
    return float(np.sum(precision * delta_recall))


def test_roc_worked_example():
    scores = [0.9, 0.8, 0.7, 0.1]
    labels = [1, 0, 1, 0]
    assert auc_roc(scores, labels) == 0.75


def test_pr_worked_example():
    scores = [0.9, 0.8, 0.7, 0.1]
    labels = [1, 0, 1, 0]
    assert auc_pr(scores, labels) == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_perfect_ranking():
    scores = [0.9, 0.8, 0.3, 0.2, 0.1]
    labels = [1, 1, 0, 0, 0]
    assert auc_roc(scores, labels) == 1.0
    assert auc_pr(scores, labels) == 1.0


def test_all_ties():
    scores = [0.5] * 8
    labels = [1, 0, 1, 0, 0, 0, 1, 0]
    assert auc_roc(scores, labels) == 0.5
    assert auc_pr(scores, labels) == pytest.approx(3.0 / 8.0, abs=1e-15)  # prevalence


def test_random_baseline_concentrates_at_prevalence(rng):
    n = 4000
    labels = (rng.uniform(size=n) < 0.1).astype(int)
    scores = rng.uniform(size=n)
    assert abs(auc_roc(scores, labels) - 0.5) < 0.05
    assert abs(auc_pr(scores, labels) - labels.mean()) < 0.05


def test_oracle_equivalence_on_random_instances(rng):
    for trial in range(60):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        # quantized scores force plenty of ties
        scores = np.round(rng.uniform(size=n), 1)
        got_roc = auc_roc(scores, labels)
        got_pr = auc_pr(scores, labels)
        assert got_roc == float(roc_oracle(scores.tolist(), labels.tolist()))
        assert abs(got_pr - float(pr_oracle(scores.tolist(), labels.tolist()))) <= 1e-12


def _tie_heavy(rng, trial):
    n = int(rng.integers(2, 401))
    kind = trial % 4
    if kind == 0:
        scores = rng.integers(-3, 4, size=n).astype(np.float64)
    elif kind == 1:
        scores = rng.choice([0.0, -0.0, TANH_LIMIT, -TANH_LIMIT, 0.5], size=n)
    elif kind == 2:
        scores = np.clip(np.tanh(20.0 * rng.normal(size=n)), -TANH_LIMIT, TANH_LIMIT)
    else:
        scores = np.full(n, rng.choice([0.0, -0.0, TANH_LIMIT, -TANH_LIMIT]))
    labels = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(np.int64)
    labels[rng.choice(n, size=2, replace=False)] = [0, 1]
    return scores, labels


def test_metrics_equal_the_rank_sum_and_float_block_references_bitwise(rng):
    for trial in range(1200):
        scores, labels = _tie_heavy(rng, trial)
        roc, pr = roc_rank_sum(scores, labels), pr_float_blocks(scores, labels)
        assert auc_roc(scores, labels) == roc
        assert auc_pr(scores, labels) == pr
        n_pos = int(labels.sum())
        assert evaluate_scores(scores, labels) == MetricsReport(roc, pr, n_pos, len(labels) - n_pos)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", [auc_roc, auc_pr, evaluate_scores])
def test_non_finite_scores_are_rejected(metric, bad):
    with pytest.raises(UndefinedMetricError, match=f"finite, got {bad} at position 2"):
        metric([0.1, 0.9, bad, 0.2, bad], [0, 1, 1, 0, 1])


def test_monotone_transform_invariance(rng):
    scores = rng.normal(size=60)
    labels = rng.integers(0, 2, size=60)
    labels[0], labels[1] = 0, 1
    assert auc_roc(np.exp(scores), labels) == pytest.approx(auc_roc(scores, labels), abs=1e-12)
    assert auc_pr(np.exp(scores), labels) == pytest.approx(auc_pr(scores, labels), abs=1e-12)


def test_permutation_invariance(rng):
    scores = rng.normal(size=40)
    labels = rng.integers(0, 2, size=40)
    labels[:2] = [0, 1]
    perm = rng.permutation(40)
    assert auc_roc(scores[perm], labels[perm]) == pytest.approx(auc_roc(scores, labels), abs=1e-12)
    assert auc_pr(scores[perm], labels[perm]) == pytest.approx(auc_pr(scores, labels), abs=1e-12)


def test_label_reversal_complements_roc(rng):
    scores = rng.permutation(np.arange(30.0))  # tie-free
    labels = rng.integers(0, 2, size=30)
    labels[:2] = [0, 1]
    assert auc_roc(scores, 1 - labels) == pytest.approx(1.0 - auc_roc(scores, labels), abs=1e-12)


@pytest.mark.parametrize("scores, labels", [
    pytest.param([0.1, 0.2], [1], id="labels-short"),
    pytest.param([0.1], [0, 1], id="scores-short"),
])
@pytest.mark.parametrize("metric", [auc_roc, auc_pr, evaluate_scores])
def test_unequal_lengths_are_an_error(metric, scores, labels):
    with pytest.raises(UndefinedMetricError) as caught:
        metric(scores, labels)
    assert type(caught.value) is UndefinedMetricError
    assert str(caught.value) == "scores and labels must have equal length"


def test_single_class_errors():
    with pytest.raises(UndefinedMetricError):
        auc_roc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedMetricError):
        auc_roc([0.1, 0.2], [0, 0])
    with pytest.raises(UndefinedMetricError):
        auc_pr([0.1, 0.2], [0, 0])
    with pytest.raises(UndefinedMetricError):
        auc_roc([], [])
    with pytest.raises(UndefinedMetricError):
        auc_roc([0.5, 0.5], [1, 2])


def test_report_counts(rng):
    scores = rng.normal(size=25)
    labels = np.array([1] * 7 + [0] * 18)
    report = evaluate_scores(scores, labels)
    assert report.n_pos == 7 and report.n_neg == 18
    assert 0.0 <= report.auc_roc <= 1.0
    assert 0.0 <= report.auc_pr <= 1.0
