"""The two-stage scoring network: representation, then a scalar score.

Layer sizing follows h1 = D + floor((H - D) / 2) for the representation
hidden layer and h2 = floor(H / 2) for the scoring hidden layer, where D
is the input width and H the representation width. Hidden layers use
LeakyReLU. The representation output is linear so that distances in it
are not range-compressed; the final score passes through tanh and lies
strictly inside (-1, 1), higher meaning more anomalous.

`score_batch` forwards BLOCK_ROWS rows at a time into one preallocated
output, so its scratch memory is one block of activations whatever the
row count. A batch of n <= BLOCK_ROWS rows scores bit for bit as a
whole-matrix forward. Beyond that, a score's last bits (below 1e-16) can
depend on the size of its block, as in a whole-matrix forward they depend
on n. `score` has its own forward on one vector (matrix-vector products
and a scalar tanh), within 1e-15 of its `score_batch` row. Both reject
non-finite inputs, naming the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ContractViolationError, InvalidArchitectureError, InvalidParameterError
from .nn import DenseLayer, Var

LAYER_NAMES = ("rep_hidden", "rep_out", "score_hidden", "score_out")
# Rows per forward block in score_batch.
BLOCK_ROWS = 4096


@dataclass
class ScorerParams:
    rep_hidden: DenseLayer
    rep_out: DenseLayer
    score_hidden: DenseLayer
    score_out: DenseLayer
    d_in: int
    rep_dim: int
    h1: int
    h2: int
    slope: float = 0.01

    def layers(self) -> list[DenseLayer]:
        return [self.rep_hidden, self.rep_out, self.score_hidden, self.score_out]

    def named_layers(self) -> list[tuple[str, DenseLayer]]:
        return list(zip(LAYER_NAMES, self.layers()))

    def copy(self) -> "ScorerParams":
        return ScorerParams(
            *(DenseLayer(layer.weights.copy(), layer.bias.copy()) for layer in self.layers()),
            d_in=self.d_in, rep_dim=self.rep_dim, h1=self.h1, h2=self.h2, slope=self.slope,
        )


def hidden_sizes(d_in: int, rep_dim: int) -> tuple[int, int]:
    """(h1, h2) from the sizing rule; rejects widths that collapse."""
    if d_in < 1 or rep_dim < 1:
        raise InvalidArchitectureError("input and representation widths must be positive")
    h1 = d_in + (rep_dim - d_in) // 2
    h2 = rep_dim // 2
    if h1 < 1:
        raise InvalidArchitectureError(
            f"sizing rule gives h1={h1} for d_in={d_in}, rep_dim={rep_dim}"
        )
    if h2 < 1:
        raise InvalidArchitectureError(f"rep_dim={rep_dim} leaves no scoring hidden units")
    return h1, h2


def build_scorer(d_in: int, rep_dim: int, seed: int = 0, slope: float = 0.01) -> ScorerParams:
    """Freshly initialized scorer; bit-reproducible for a given seed."""
    h1, h2 = hidden_sizes(d_in, rep_dim)
    rng = np.random.default_rng(seed)
    return ScorerParams(
        rep_hidden=nn.init_dense(h1, d_in, rng),
        rep_out=nn.init_dense(rep_dim, h1, rng),
        score_hidden=nn.init_dense(h2, rep_dim, rng),
        score_out=nn.init_dense(1, h2, rng),
        d_in=d_in, rep_dim=rep_dim, h1=h1, h2=h2, slope=slope,
    )


def _as_batch(x, d_in: int) -> np.ndarray:
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d_in:
        raise ContractViolationError(f"expected (n, {d_in}) inputs, got shape {X.shape}")
    return X


def represent_batch(params: ScorerParams, X) -> np.ndarray:
    """(n, H) representations for an (n, D) batch."""
    X = _as_batch(X, params.d_in)
    hidden = nn.leaky_relu(X @ params.rep_hidden.weights.T + params.rep_hidden.bias, params.slope)
    return hidden @ params.rep_out.weights.T + params.rep_out.bias


def score_batch(params: ScorerParams, X) -> np.ndarray:
    """Anomaly scores for each row of X, in row order.

    Raises ContractViolationError naming the first row that holds a
    non-finite value.
    """
    X = _as_batch(X, params.d_in)
    scores = np.empty(len(X))
    for start in range(0, len(X), BLOCK_ROWS):
        block = X[start:start + BLOCK_ROWS]
        if not np.isfinite(block).all():
            bad = start + int(np.argmin(np.isfinite(block).all(axis=1)))
            raise ContractViolationError(f"input row {bad} holds a non-finite value")
        hidden = nn.leaky_relu(represent_batch(params, block) @ params.score_hidden.weights.T
                               + params.score_hidden.bias, params.slope)
        raw = hidden @ params.score_out.weights.T + params.score_out.bias
        scores[start:start + len(block)] = np.clip(np.tanh(raw[:, 0]), -nn.TANH_LIMIT,
                                                   nn.TANH_LIMIT)
    return scores


def score(params: ScorerParams, x) -> float:
    """Anomaly score of a single input vector, strictly inside (-1, 1).

    Raises ContractViolationError if the vector holds a non-finite value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.d_in,):
        raise ContractViolationError(f"expected input of length {params.d_in}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ContractViolationError("input vector holds a non-finite value")
    slope = params.slope
    if not 0.0 < slope < 1.0:
        raise InvalidParameterError("slope must lie in (0, 1)")
    # max(h, slope*h) is LeakyReLU for 0 < slope < 1.
    h = params.rep_hidden.weights @ x + params.rep_hidden.bias
    z = params.rep_out.weights @ np.maximum(h, slope * h) + params.rep_out.bias
    h = params.score_hidden.weights @ z + params.score_hidden.bias
    raw = (float(params.score_out.weights[0] @ np.maximum(h, slope * h))
           + float(params.score_out.bias[0]))
    return min(max(math.tanh(raw), -nn.TANH_LIMIT), nn.TANH_LIMIT)


class ScorerGraph:
    """Differentiable forward passes sharing one set of parameter Vars.

    Build one graph per optimization step: the Vars alias the live
    parameter arrays, so gradients from several forward passes (mixed
    batch, source batch, triplet blocks) accumulate into the same leaves.
    """

    def __init__(self, params: ScorerParams):
        self.params = params
        self._pairs = [(Var(layer.weights), Var(layer.bias)) for layer in params.layers()]

    def param_pairs(self) -> list[tuple[Var, Var]]:
        return self._pairs

    def represent(self, X) -> Var:
        x = Var(_as_batch(X, self.params.d_in))
        (w1, b1), (w2, b2) = self._pairs[0], self._pairs[1]
        hidden = nn.v_leaky_relu(nn.v_linear(x, w1, b1), self.params.slope)
        return nn.v_linear(hidden, w2, b2)

    def score(self, X) -> Var:
        z = self.represent(X)
        (w3, b3), (w4, b4) = self._pairs[2], self._pairs[3]
        hidden = nn.v_leaky_relu(nn.v_linear(z, w3, b3), self.params.slope)
        out = nn.v_tanh(nn.v_linear(hidden, w4, b4))
        return nn.v_reshape(out, (out.value.shape[0],))
