"""The two-stage scoring network: representation, then a scalar score.

Layer sizing follows h1 = D + floor((H - D) / 2) for the representation
hidden layer and h2 = floor(H / 2) for the scoring hidden layer, where D
is the input width and H the representation width. Hidden layers use
LeakyReLU, with the slope `ScorerParams` holds (0.01 unless a saved model
says otherwise), checked once when the parameters are built, computed as
max(h, slope*h) or as h times max(h >= 0, slope): for 0 < slope < 1 both
have the bits of "h if h >= 0 else slope*h", signed zeros included. The
representation output is linear so that distances in it are not
range-compressed; the final score passes through tanh and lies strictly
inside (-1, 1), higher meaning more anomalous.

`ScorerParams` owns the layout: four (weights, bias) layers in
LAYER_NAMES order, shaped as `layer_shapes` says, each array a view of
one float64 parameter vector `flat`, which the gradient and Adam's
moments share. Its widths are read from the weights.

`score_batch` forwards BLOCK_ROWS rows at a time into one preallocated
output, so its scratch memory is one block of activations whatever the
row count. A batch of n <= BLOCK_ROWS rows scores bit for bit as a
whole-matrix forward. Beyond that, a score's last bits (below 1e-16) can
depend on the size of its block, as in a whole-matrix forward they depend
on n. `score` has its own forward on one vector (matrix-vector products
and a scalar tanh), within 1e-15 of its `score_batch` row. Both reject
non-finite inputs, naming the row.

Training runs one `ScorerGraph` per step: a step's rows stacked once,
represented once, with the score head run on the prefix of rows that
need a score. `backward` then takes the losses' gradients with respect to
those scores and representation rows back through the four dense layers
by hand, reusing the activations and LeakyReLU factors the forward kept,
and writes each product into its view of one gradient vector laid out like
`flat`. Forwards add biases in place. Every float operation keeps its
operands and order, so trained bytes are those of the plain expressions.
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
    """The four layers, copied at construction into views of one vector `flat`.

    `flat` holds each layer's weights then its bias, row-major, in
    LAYER_NAMES order. In-place edits of either show in the other.
    """

    rep_hidden: DenseLayer
    rep_out: DenseLayer
    score_hidden: DenseLayer
    score_out: DenseLayer
    slope: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.slope < 1.0:
            raise InvalidParameterError(f"slope must lie in (0, 1), got {self.slope!r}")
        labels, arrays = zip(*self.arrays())
        self.flat = np.concatenate([a.ravel() for a in arrays])
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self._parts = list(zip(labels, [0, *ends], ends, [a.shape for a in arrays]))
        views = iter(self.views(self.flat))
        for name in LAYER_NAMES:
            setattr(self, name, DenseLayer(next(views), next(views)))

    # Widths D, h1, H, h2, read from the weight shapes.
    d_in = property(lambda self: self.rep_hidden.weights.shape[1])
    h1 = property(lambda self: self.rep_hidden.weights.shape[0])
    rep_dim = property(lambda self: self.rep_out.weights.shape[0])
    h2 = property(lambda self: self.score_hidden.weights.shape[0])

    def layers(self) -> list[DenseLayer]:
        return [self.rep_hidden, self.rep_out, self.score_hidden, self.score_out]

    def named_layers(self) -> list[tuple[str, DenseLayer]]:
        return list(zip(LAYER_NAMES, self.layers()))

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """The eight (label, array) pairs, e.g. ("rep_hidden.weights", W), in `flat` order."""
        return [(f"{name}.{part}", getattr(layer, part))
                for name, layer in self.named_layers() for part in ("weights", "bias")]

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of `vector`, laid out like `flat`, shaped as the eight arrays in `flat` order."""
        return [vector[start:end].reshape(shape) for _, start, end, shape in self._parts]

    def nonfinite_label(self, values: np.ndarray) -> str:
        """Label of the array holding the first non-finite entry of `values`, laid out as `flat`."""
        first = np.argmin(np.isfinite(values))
        return next(label for label, _, end, _ in self._parts if first < end)


def hidden_sizes(d_in: int, rep_dim: int) -> tuple[int, int]:
    """(h1, h2) from the sizing rule; rejects widths that collapse."""
    if d_in < 1 or rep_dim < 1:
        raise InvalidArchitectureError("input and representation widths must be positive")
    # h1 = floor((D + H) / 2) >= 1 here, so only h2 can collapse.
    h1 = d_in + (rep_dim - d_in) // 2
    h2 = rep_dim // 2
    if h2 < 1:
        raise InvalidArchitectureError(f"rep_dim={rep_dim} leaves no scoring hidden units")
    return h1, h2


def layer_shapes(d_in: int, rep_dim: int) -> list[tuple[int, int]]:
    """(n_out, n_in) weight shape of each layer, in LAYER_NAMES order."""
    h1, h2 = hidden_sizes(d_in, rep_dim)
    return [(h1, d_in), (rep_dim, h1), (h2, rep_dim), (1, h2)]


def build_scorer(d_in: int, rep_dim: int, seed: int = 0) -> ScorerParams:
    """Freshly initialized scorer; bit-reproducible for a given seed."""
    rng = np.random.default_rng(seed)
    return ScorerParams(*(nn.init_dense(n_out, n_in, rng)
                          for n_out, n_in in layer_shapes(d_in, rep_dim)))


def _as_batch(x, d_in: int) -> np.ndarray:
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d_in:
        raise ContractViolationError(f"expected (n, {d_in}) inputs, got shape {X.shape}")
    return X


def represent_batch(params: ScorerParams, X) -> np.ndarray:
    """(n, H) representations for an (n, D) batch."""
    hidden = _dense(_as_batch(X, params.d_in), params.rep_hidden)
    return _dense(nn.leaky_relu(hidden, params.slope), params.rep_out)


def _dense(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    out = x @ layer.weights.T
    out += layer.bias
    return out


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
        hidden = _dense(represent_batch(params, block), params.score_hidden)
        raw = _dense(nn.leaky_relu(hidden, params.slope), params.score_out)
        np.clip(np.tanh(raw[:, 0]), -nn.TANH_LIMIT, nn.TANH_LIMIT,
                out=scores[start:start + len(block)])
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
    # max(h, slope*h) is LeakyReLU for 0 < slope < 1, which ScorerParams ensures.
    h = params.rep_hidden.weights @ x + params.rep_hidden.bias
    z = params.rep_out.weights @ np.maximum(h, slope * h) + params.rep_out.bias
    h = params.score_hidden.weights @ z + params.score_hidden.bias
    raw = (float(params.score_out.weights[0] @ np.maximum(h, slope * h))
           + float(params.score_out.bias[0]))
    return min(max(math.tanh(raw), -nn.TANH_LIMIT), nn.TANH_LIMIT)


def _leaky_relu(pre: np.ndarray, slope: float) -> tuple[np.ndarray, np.ndarray]:
    """(LeakyReLU of pre, written over pre, and its factor, 1 or slope), kept for backward."""
    factor = np.maximum(pre >= 0.0, slope)
    return np.multiply(pre, factor, out=pre), factor


class ScorerGraph:
    """One optimization step's stacked forward, kept for `backward`.

    The Var handles in `leaves` alias the live parameter arrays, in `flat`
    order. `forward` represents every row of its stack once and runs the
    score head on a prefix of it; it keeps the input, each hidden
    activation with its LeakyReLU factors, the representation `rep` and
    the clamped tanh output.
    """

    def __init__(self, params: ScorerParams):
        self.params = params
        self.leaves = [Var(array) for _, array in params.arrays()]
        self.rep: np.ndarray | None = None

    def represent(self, X) -> np.ndarray:
        """(n, H) representations of the rows of X."""
        w1, b1, w2, b2 = self.leaves[:4]
        self.x = _as_batch(X, self.params.d_in)
        self.h1, self.f1 = _leaky_relu(nn.v_linear(self.x, w1, b1), self.params.slope)
        return nn.v_linear(self.h1, w2, b2)

    def forward(self, X, n_scored: int) -> np.ndarray:
        """Scores of the first n_scored rows of X.

        Every row of X is represented, once, and kept as `rep`.
        """
        X = _as_batch(X, self.params.d_in)
        if not 1 <= n_scored <= len(X):
            raise ContractViolationError(f"cannot score {n_scored} of {len(X)} rows")
        self.rep = self.represent(X)
        w3, b3, w4, b4 = self.leaves[4:]
        self.h2, self.f2 = _leaky_relu(nn.v_linear(self.rep[:n_scored], w3, b3),
                                       self.params.slope)
        self.t = np.clip(np.tanh(nn.v_linear(self.h2, w4, b4)), -nn.TANH_LIMIT, nn.TANH_LIMIT)
        return self.t[:, 0]


def backward(graph: ScorerGraph, g_scores: np.ndarray, g_rep: np.ndarray | None) -> np.ndarray:
    """The objective's gradient as one vector laid out like `graph.params.flat`.

    `g_scores` is the objective's gradient with respect to the scores
    `graph.forward` returned, `g_rep` (or None) its gradient with respect to
    every row of `graph.rep` through the representation alone.
    """
    p = graph.params
    n_scored = len(graph.t)
    g_out = g_scores[:, None] * (1.0 - graph.t * graph.t)
    g_hidden2 = (g_out @ p.score_out.weights) * graph.f2
    # Unscored rows get 0.0 + g_rep, as a zero-padded sum gave: -0.0 turns into +0.0.
    g_rep_total = np.empty_like(graph.rep)
    head = np.matmul(g_hidden2, p.score_hidden.weights, out=g_rep_total[:n_scored])
    np.add(0.0, 0.0 if g_rep is None else g_rep[n_scored:], out=g_rep_total[n_scored:])
    if g_rep is not None:
        head += g_rep[:n_scored]
    g_hidden1 = (g_rep_total @ p.rep_out.weights) * graph.f1
    grad = np.empty_like(p.flat)
    views = iter(p.views(grad))
    for g, x in ((g_hidden1, graph.x), (g_rep_total, graph.h1),
                 (g_hidden2, graph.rep[:n_scored]), (g_out, graph.h2)):
        np.matmul(g.T, x, out=next(views))
        np.add.reduce(g, axis=0, out=next(views))
    return grad
