"""The two-stage scoring network: representation, then a scalar score.

Layer sizing follows h1 = D + floor((H - D) / 2) for the representation
hidden layer and h2 = floor(H / 2) for the scoring hidden layer, where D
is the input width and H the representation width. Hidden layers use
LeakyReLU with the one slope of every model, the class constant
`ScorerParams.slope` = 0.01. The representation output is linear so that
distances in it are not range-compressed; the final score passes through
tanh and lies strictly inside (-1, 1), higher meaning more anomalous.

The forward is written once per input shape: `score` for one vector,
`score_batch` for an (n, D) matrix, and `ScorerGraph` for a training
step's stacked rows. LeakyReLU has two spellings. The inference forwards
write max(h, slope*h) over h, keeping nothing. The training graph writes h
times the factor max(h >= 0, slope), because `backward` reuses that factor
as the activation's derivative. For 0 < slope < 1 both have the bits of
"h if h >= 0 else slope*h", signed zeros included.

`ScorerParams` owns the layout: four (weights, bias) layers in
LAYER_NAMES order, shaped as `layer_shapes` says, each array a view of
one float64 parameter vector `flat`, which the gradient and Adam's
moments share. Its widths are read from the weights.

`score_batch` forwards BLOCK_ROWS rows at a time into one preallocated
output, so its scratch memory is one block of activations whatever the
row count. BLOCK_ROWS = 256 keeps that block well inside a core's L2
cache: at H = 128 scoring 1000 rows holds 0.71 MiB of activations and
temporaries, where 1024-row blocks held 2.09 MiB, and 4096-row blocks
10.4 MiB spilled into L3. A fresh process also pays for larger blocks in
page faults, taken again on every call: a default `anomix train` on 5000
toy rows, whose every epoch scores 1000 validation rows, took 31.0k minor
faults at 1024 or 4096 rows and 7.4k at 256, by its own getrusage. On a
2-vCPU host with 2 MiB of L2 per core, at one BLAS thread, a warm call
took by block size (the median of 9 with sizes alternated, over five
runs): for the toy model on 100k rows 256 -> 96-129 ms, 1024 -> 94-126 ms
(within 3% of 256 in each run), 4096 -> 117-147 ms; for a wide one
(D = 64, H = 256) on 5000 rows 256 -> 17-22 ms, 1024 -> 19-24 ms, 4096 ->
23-29 ms. A batch of n <= BLOCK_ROWS rows
scores bit for bit as a whole-matrix forward. Beyond that, on some BLAS
builds a score's last bits (below 1e-16) can depend on the size of its
block, as in a whole-matrix forward they depend on n; on the OpenBLAS
measured above every bit was the same at each size.

`score` has its own forward on one vector: `np.dot` matrix-vector products
with each bias added in place, and a scalar tanh, within 1e-15 of its
`score_batch` row. Its finiteness check is the Python sum of the
entries, with the exact numpy check run only when that sum is not finite.
Both reject non-finite inputs, `score_batch` naming the row. Both take
features already normalized by the model's bounds (`data.normalize_features`
with the artifact's `norm_state`): the CLI normalizes, these do not, and
raw rows give wrong scores without an error.

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
from typing import ClassVar

import numpy as np

from . import nn
from .errors import ContractViolationError, InvalidParameterError
from .nn import DenseLayer, Var

LAYER_NAMES = ("rep_hidden", "rep_out", "score_hidden", "score_out")
# Rows per forward block in score_batch, sized to L2 (see the module docstring).
BLOCK_ROWS = 256


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
    # The hidden layers' LeakyReLU slope, the same in every model.
    slope: ClassVar[float] = 0.01

    def __post_init__(self):
        width = self.d_in
        for name, layer in self.named_layers():
            if layer.weights.shape[1] != width:
                raise ContractViolationError(f"layer {name} takes {layer.weights.shape[1]} "
                                             f"inputs, the layer before it gives {width}")
            width = layer.weights.shape[0]
        if width != 1:
            raise ContractViolationError(f"layer score_out has {width} units, expected 1")
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
    """(h1, h2) from the sizing rule. d_in >= 1 and rep_dim >= 2, the widths that leave
    every layer a unit, or InvalidParameterError in TrainConfig's words."""
    if d_in < 1:
        raise InvalidParameterError(f"d_in must be >= 1, got {d_in!r}")
    if rep_dim < 2:
        raise InvalidParameterError(f"rep_dim must be >= 2, got {rep_dim!r}")
    return d_in + (rep_dim - d_in) // 2, rep_dim // 2


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


def _dense(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    out = x @ layer.weights.T
    out += layer.bias
    return out


def score_batch(params: ScorerParams, X) -> np.ndarray:
    """Anomaly scores for each row of X, in row order.

    X must already be normalized by the model's bounds (see the module
    docstring); raw rows give wrong scores without an error. Raises
    ContractViolationError naming the first row that holds a non-finite
    value.
    """
    X = _as_batch(X, params.d_in)
    slope = params.slope
    scores = np.empty(len(X))
    for start in range(0, len(X), BLOCK_ROWS):
        block = X[start:start + BLOCK_ROWS]
        if not np.isfinite(block).all():
            bad = start + int(np.argmin(np.isfinite(block).all(axis=1)))
            raise ContractViolationError(f"input row {bad} holds a non-finite value")
        h = _dense(block, params.rep_hidden)
        z = _dense(np.maximum(h, slope * h, out=h), params.rep_out)
        h = _dense(z, params.score_hidden)
        raw = _dense(np.maximum(h, slope * h, out=h), params.score_out)
        np.clip(np.tanh(raw[:, 0]), -nn.TANH_LIMIT, nn.TANH_LIMIT,
                out=scores[start:start + len(block)])
    return scores


def score(params: ScorerParams, x) -> float:
    """Anomaly score of a single input vector, strictly inside (-1, 1).

    x must already be normalized by the model's bounds (see the module
    docstring); a raw row gives a wrong score without an error. Raises
    ContractViolationError if the vector holds a non-finite value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.d_in,):
        raise ContractViolationError(f"expected input of length {params.d_in}, got shape {x.shape}")
    # A float sum is finite only if every entry is; only an overflowing or
    # non-finite sum pays for the exact check.
    if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
        raise ContractViolationError("input vector holds a non-finite value")
    slope = params.slope
    hidden, rep, head, out = params.layers()
    h = np.dot(hidden.weights, x)
    h += hidden.bias
    z = np.dot(rep.weights, np.maximum(h, slope * h, out=h))
    z += rep.bias
    h = np.dot(head.weights, z)
    h += head.bias
    raw = float(np.dot(out.weights[0], np.maximum(h, slope * h, out=h))) + float(out.bias[0])
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
        self.rep = self.represent(X)
        if not 1 <= n_scored <= len(self.rep):
            raise ContractViolationError(f"cannot score {n_scored} of {len(self.rep)} rows")
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
    # One output unit: the outer product is a broadcast. Where a product is zero it keeps
    # its sign (-0.0 where a matmul's 0 + a*b gave +0.0); Adam's m, starting at +0.0, absorbs it.
    g_hidden2 = (g_out * p.score_out.weights) * graph.f2
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
