"""Convex mixing of training batches into samples with graded targets.

Each synthetic sample is a weighted sum of k distinct rows of the source
batch, and its target is the same weighted sum of the rows' +/-1 labels,
so mixing an anomaly with an unlabeled row yields a target strictly
between the extremes. The weights of every sample come from one
symmetric Dirichlet(alpha) draw, for every k; at k=2 that is the
Beta(alpha, alpha) pair (lambda, 1 - lambda). With alpha=0.5 the weights
pile up near the simplex corners, keeping most mixes close to one of
their sources. A mix whose sources share a label gets that label
exactly: Dirichlet weights sum to 1 only up to rounding, so the target
is computed as y0 + sum_i lambda_i (y_i - y0), which is exact when every
y_i equals y0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass
class AugmentedBatch:
    """Mixed samples plus the bookkeeping the consistency term needs."""

    x: np.ndarray        # (m, d) mixed samples
    y: np.ndarray        # (m,) targets in [-1, 1]
    sources: np.ndarray  # (m, k) row indices into the source batch
    lambdas: np.ndarray  # (m, k) mixing weights, each row summing to 1

    def __len__(self) -> int:
        return len(self.x)


def augment_batch(x, y, k: int, alpha: float, m: int,
                  rng: np.random.Generator) -> AugmentedBatch:
    """m mixed samples, each built from k distinct rows of (x, y), 2 <= k <= n.

    All m samples are drawn at once. Each sample's sources are a uniform
    k-subset of the n rows, from Floyd's subset sampling run on every row
    together (k integer draws per row, whatever n is), and one Dirichlet
    call gives every sample's weights. The drawn indices and weights are
    retained so the consistency term can recompute the weighted sum of
    the sources' scores.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if x.ndim != 2 or y.shape != (n,):
        raise InvalidParameterError("sources must be an (n, d) matrix with n labels")
    if not 2 <= k <= n:
        raise InvalidParameterError(f"k must lie in [2, {n}] for a batch of {n} rows, got {k!r}")
    if not alpha > 0:
        raise InvalidParameterError("alpha must be positive")
    if m < 1:
        raise InvalidParameterError("need at least one augmented sample")
    if not np.all(np.abs(y) == 1.0):
        raise InvalidParameterError("source labels must be +1 (anomaly) or -1 (unlabeled)")
    sources = np.empty((m, k), dtype=np.intp)
    for col, top in enumerate(range(n - k, n)):
        # Floyd: draw from [0, top]; a value the row already holds is replaced by top.
        draw = rng.integers(0, top + 1, size=m)
        taken = (sources[:, :col] == draw[:, None]).any(axis=1)
        sources[:, col] = np.where(taken, top, draw)
    lambdas = rng.dirichlet(np.full(k, alpha), size=m)
    x_mixed = np.einsum("ik,ikd->id", lambdas, x[sources])
    y_src = y[sources]
    y_mixed = y_src[:, 0] + np.einsum("ik,ik->i", lambdas, y_src - y_src[:, :1])
    return AugmentedBatch(x_mixed, np.clip(y_mixed, -1.0, 1.0), sources, lambdas)
