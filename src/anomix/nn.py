"""Dense layers, a small reverse-mode gradient tape, and Adam.

Everything runs in float64 numpy. Batch losses reduce by the mean, so the
learning rate does not depend on batch size. The tape records only the
scorer's dense layers and their activations, plus whatever fused nodes
the losses build on top of them: each training loss is one node whose
backward rule is written out by hand (see `losses`). It is not a general
autodiff framework. `backward` returns one gradient per leaf, in the
order of the leaves it is given; `adam_step` walks (label, array) pairs
in that same order, with one first and one second moment per array.
Adam's beta1, beta2 and eps are fixed at the defaults of arXiv 1412.6980.
Training-time state (tape nodes, optimizer) is single-writer; pure
forward evaluation with frozen parameters is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, TrainingDivergedError

# Largest float64 strictly below 1. tanh(x) rounds to exactly +/-1 for
# |x| above ~19, so outputs are clamped by one ulp to keep the score
# range an open interval.
TANH_LIMIT = float(np.nextafter(1.0, 0.0))
# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """x for x >= 0, slope*x otherwise, elementwise; ScorerParams checks the slope."""
    return np.where(x >= 0.0, x, slope * x)


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

    def __add__(self, other: "Var"):
        return v_add(self, other)

    def __mul__(self, c: float):
        return v_scale(self, float(c))


def v_add(a: Var, b: Var) -> Var:
    """Sum of two nodes of one shape."""
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def v_scale(a: Var, c: float) -> Var:
    return Var(a.value * c, (a,), lambda g: (g * c,))


def v_linear(x, w: Var, b: Var) -> Var:
    """x (n, d) @ w (o, d)^T + b (o,) -> (n, o).

    An ndarray `x` is a constant input (the data): no gradient is computed
    for it.
    """
    if not isinstance(x, Var):
        return Var(x @ w.value.T + b.value, (w, b), lambda g: (g.T @ x, g.sum(axis=0)))
    return Var(x.value @ w.value.T + b.value, (x, w, b),
               lambda g: (g @ w.value, g.T @ x.value, g.sum(axis=0)))


def v_rows(x: Var, n: int) -> Var:
    """The first n rows of x; the gradient of the other rows is zero."""

    def vjp(g):
        full = np.zeros_like(x.value)
        full[:n] = g
        return (full,)

    return Var(x.value[:n], (x,), vjp)


def v_leaky_relu(x: Var, slope: float) -> Var:
    factor = np.where(x.value >= 0.0, 1.0, slope)
    return Var(x.value * factor, (x,), lambda g: (g * factor,))


def v_tanh(x: Var) -> Var:
    t = np.clip(np.tanh(x.value), -TANH_LIMIT, TANH_LIMIT)
    return Var(t, (x,), lambda g: (g * (1.0 - t * t),))


# ---------------------------------------------------------------------------
# Gradients and the optimizer
# ---------------------------------------------------------------------------


def backward(loss: Var, leaves) -> list[np.ndarray]:
    """d(loss)/d(leaf) for each leaf Var, in the order of `leaves`.

    The loss must be a scalar tape node; batch reduction inside the
    losses is the mean, so these are mean-gradients. A leaf the loss does
    not reach gets zeros.
    """
    if not isinstance(loss, Var) or loss.value.size != 1:
        raise ContractViolationError("backward expects a scalar loss recorded on the tape")
    topo: list[Var] = []  # every node after all of its parents
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node._vjp is not None and node.grad is not None:
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                parent.grad = g if parent.grad is None else parent.grad + g
    return [np.zeros_like(leaf.value) if leaf.grad is None else leaf.grad for leaf in leaves]


@dataclass
class AdamState:
    """Adam moments plus step counter, one `m` and one `v` per parameter array."""

    lr: float
    weight_decay: float
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_arrays(cls, named_arrays, lr: float, weight_decay: float) -> "AdamState":
        """Zeroed moments for (label, array) pairs."""
        return cls(lr, weight_decay, m=[np.zeros_like(a) for _, a in named_arrays],
                   v=[np.zeros_like(a) for _, a in named_arrays])


def adam_step(named_arrays, grads, state: AdamState) -> None:
    """One in-place Adam update with decoupled weight decay.

    `named_arrays` holds (label, array) pairs and `grads` one gradient per
    array, in the same order as `state`'s moments. Decay shrinks each
    parameter first (p <- p - lr*decay*p); the bias-corrected Adam delta
    follows. Raises TrainingDivergedError, naming the parameter, if any
    gradient or updated value is non-finite.
    """
    if not len(named_arrays) == len(grads) == len(state.m) == len(state.v):
        raise ContractViolationError("gradients and moments do not match the parameter list")
    for (label, _), g in zip(named_arrays, grads):
        if not np.isfinite(g).all():
            raise TrainingDivergedError(f"non-finite gradient in {label}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    shrink = 1.0 - state.lr * state.weight_decay
    for (label, p), g, m, v in zip(named_arrays, grads, state.m, state.v):
        if state.weight_decay != 0.0:
            p *= shrink
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        if not np.isfinite(p).all():
            raise TrainingDivergedError(f"non-finite parameter in {label}")
