"""Dense layers, a small reverse-mode gradient tape, and Adam.

Everything runs in float64 numpy. Batch losses reduce by the mean, so the
learning rate does not depend on batch size. The tape covers only the
scorer's operations: its forward pass and the terms of its training
losses. It is not a general autodiff framework. Training-time state
(tape, optimizer) is single-writer; pure forward evaluation with frozen
parameters is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidParameterError,
    TrainingDivergedError,
)

# Largest float64 strictly below 1. tanh(x) rounds to exactly +/-1 for
# |x| above ~19, so outputs are clamped by one ulp to keep the score
# range an open interval.
TANH_LIMIT = float(np.nextafter(1.0, 0.0))


@dataclass
class DenseLayer:
    """Affine map y = W x + b with W of shape (n_out, n_in)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ContractViolationError("weights must be a 2-d matrix")
        if self.bias.shape != (self.weights.shape[0],):
            raise ContractViolationError(
                f"bias shape {self.bias.shape} does not match {self.weights.shape[0]} output units"
            )


def init_dense(n_out: int, n_in: int, rng: np.random.Generator) -> DenseLayer:
    """Uniform(-1/sqrt(n_in), 1/sqrt(n_in)) weights, zero bias."""
    limit = 1.0 / math.sqrt(n_in)
    return DenseLayer(rng.uniform(-limit, limit, size=(n_out, n_in)), np.zeros(n_out))


def leaky_relu(x, slope: float = 0.01):
    """x for x >= 0, slope*x otherwise; elementwise over arrays."""
    if not 0.0 < slope < 1.0:
        raise InvalidParameterError("slope must lie in (0, 1)")
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x >= 0.0, x, slope * x)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Reverse-mode tape
# ---------------------------------------------------------------------------


class Var:
    """Node in the gradient tape: a float64 array plus a backward rule."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, _parents=(), _vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    def run_backward(self) -> None:
        """Push d(self)/d(ancestor) into every ancestor's .grad."""
        if self.value.size != 1:
            raise ContractViolationError("backward needs a scalar loss")
        topo: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    def __add__(self, other):
        return v_add(self, _as_var(other))

    def __sub__(self, other):
        return v_add(self, v_scale(_as_var(other), -1.0))

    def __mul__(self, c: float):
        return v_scale(self, float(c))


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def v_add(a: Var, b: Var) -> Var:
    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Var(a.value + b.value, (a, b), vjp)


def v_scale(a: Var, c: float) -> Var:
    def vjp(g):
        return (g * c,)

    return Var(a.value * c, (a,), vjp)


def v_linear(x: Var, w: Var, b: Var) -> Var:
    """x (n, d) @ w (o, d)^T + b (o,) -> (n, o)."""

    def vjp(g):
        return g @ w.value, g.T @ x.value, g.sum(axis=0)

    return Var(x.value @ w.value.T + b.value, (x, w, b), vjp)


def v_leaky_relu(x: Var, slope: float) -> Var:
    factor = np.where(x.value >= 0.0, 1.0, slope)

    def vjp(g):
        return (g * factor,)

    return Var(x.value * factor, (x,), vjp)


def v_tanh(x: Var) -> Var:
    t = np.clip(np.tanh(x.value), -TANH_LIMIT, TANH_LIMIT)

    def vjp(g):
        return (g * (1.0 - t * t),)

    return Var(t, (x,), vjp)


def v_hinge(x: Var) -> Var:
    """max(x, 0); subgradient 0 at the kink."""
    mask = x.value > 0.0

    def vjp(g):
        return (g * mask,)

    return Var(np.where(mask, x.value, 0.0), (x,), vjp)


def v_mean(x: Var) -> Var:
    n = x.value.size
    shape = x.value.shape

    def vjp(g):
        return (np.full(shape, float(g) / n),)

    return Var(x.value.mean(), (x,), vjp)


def v_smooth_l1(residual: Var, beta: float) -> Var:
    """Elementwise: 0.5 r^2 / beta inside |r| < beta, |r| - beta/2 outside."""
    r = residual.value
    quadratic = np.abs(r) < beta
    value = np.where(quadratic, 0.5 * r * r / beta, np.abs(r) - 0.5 * beta)
    slope = np.where(quadratic, r / beta, np.sign(r))

    def vjp(g):
        return (g * slope,)

    return Var(value, (residual,), vjp)


def v_row_distance(a: Var, b: Var) -> Var:
    """Euclidean distance between matching rows of two (n, d) arrays."""
    diff = a.value - b.value
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    safe = np.where(dist > 0.0, dist, 1.0)
    unit = diff / safe[:, None]
    unit[dist == 0.0] = 0.0

    def vjp(g):
        ga = g[:, None] * unit
        return ga, -ga

    return Var(dist, (a, b), vjp)


def v_weighted_gather(values: Var, indices: np.ndarray, weights: np.ndarray) -> Var:
    """Row-wise weighted sums of gathered entries of a flat vector."""

    def vjp(g):
        gv = np.zeros_like(values.value)
        np.add.at(gv, indices, g[:, None] * weights)
        return (gv,)

    return Var((values.value[indices] * weights).sum(axis=1), (values,), vjp)


def v_reshape(x: Var, shape: tuple) -> Var:
    def vjp(g):
        return (g.reshape(x.value.shape),)

    return Var(x.value.reshape(shape), (x,), vjp)


# ---------------------------------------------------------------------------
# Gradient buffers and the optimizer
# ---------------------------------------------------------------------------


class GradientTape:
    """Per-parameter gradient buffers mirroring a list of layers."""

    def __init__(self, layers):
        self.d_weights = [np.zeros_like(layer.weights) for layer in layers]
        self.d_bias = [np.zeros_like(layer.bias) for layer in layers]

    def zero(self) -> None:
        for g in self.d_weights:
            g.fill(0.0)
        for g in self.d_bias:
            g.fill(0.0)


def backward(loss: Var, param_pairs, tape: GradientTape) -> GradientTape:
    """Fill `tape` with d(loss)/d(parameter).

    `param_pairs` is the ordered (weight Var, bias Var) list matching the
    layers the tape was built from. Buffers are zeroed first. The loss
    must be a scalar tape node; batch reduction inside the losses is the
    mean, so these are mean-gradients.
    """
    if not isinstance(loss, Var) or loss.value.size != 1:
        raise ContractViolationError("backward expects a scalar loss recorded on the tape")
    if len(param_pairs) != len(tape.d_weights):
        raise ContractViolationError("tape does not match the parameter list")
    tape.zero()
    loss.run_backward()
    for i, (wv, bv) in enumerate(param_pairs):
        if wv.value.shape != tape.d_weights[i].shape or bv.value.shape != tape.d_bias[i].shape:
            raise ContractViolationError("tape buffer shapes do not match the parameters")
        if wv.grad is not None:
            tape.d_weights[i] += wv.grad
        if bv.grad is not None:
            tape.d_bias[i] += bv.grad
    return tape


@dataclass
class AdamState:
    """Adam moments plus step counter, one buffer per parameter array."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    weight_decay: float
    t: int = 0
    m_weights: list = field(default_factory=list)
    v_weights: list = field(default_factory=list)
    m_bias: list = field(default_factory=list)
    v_bias: list = field(default_factory=list)

    @classmethod
    def for_layers(cls, layers, **hyperparameters) -> "AdamState":
        """Zeroed moments for `layers`; the five hyperparameters come from TrainConfig."""
        return cls(**hyperparameters,
                   m_weights=[np.zeros_like(layer.weights) for layer in layers],
                   v_weights=[np.zeros_like(layer.weights) for layer in layers],
                   m_bias=[np.zeros_like(layer.bias) for layer in layers],
                   v_bias=[np.zeros_like(layer.bias) for layer in layers])


def adam_step(layers, tape: GradientTape, state: AdamState, names=None) -> None:
    """One in-place Adam update with decoupled weight decay.

    Decay shrinks each parameter first (p <- p - lr*decay*p); the
    bias-corrected Adam delta follows. Raises TrainingDivergedError,
    naming the parameter, if any gradient or updated value is non-finite.
    """
    labels = list(names) if names is not None else [f"layer{i}" for i in range(len(layers))]
    for i in range(len(layers)):
        if not np.isfinite(tape.d_weights[i]).all():
            raise TrainingDivergedError(f"non-finite gradient in {labels[i]}.weights")
        if not np.isfinite(tape.d_bias[i]).all():
            raise TrainingDivergedError(f"non-finite gradient in {labels[i]}.bias")
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    shrink = 1.0 - state.lr * state.weight_decay
    for i, layer in enumerate(layers):
        updates = (
            (layer.weights, tape.d_weights[i], state.m_weights[i], state.v_weights[i],
             f"{labels[i]}.weights"),
            (layer.bias, tape.d_bias[i], state.m_bias[i], state.v_bias[i],
             f"{labels[i]}.bias"),
        )
        for p, g, m, v, label in updates:
            if state.weight_decay != 0.0:
                p *= shrink
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * (g * g)
            p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
            if not np.isfinite(p).all():
                raise TrainingDivergedError(f"non-finite parameter in {label}")
