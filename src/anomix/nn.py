"""Dense layers, LeakyReLU, and Adam.

Everything runs in float64 numpy. Batch losses reduce by the mean, so the
learning rate does not depend on batch size. The gradient of the one
network trained here is written out by hand (`scorer.backward`);
`adam_step` walks (label, array) pairs in the order of those gradients,
with one first and one second moment per array. Adam's beta1, beta2 and
eps are fixed at the defaults of arXiv 1412.6980. Training-time state
(a step's `ScorerGraph`, the optimizer) is single-writer; pure forward
evaluation with frozen parameters is safe to call concurrently.
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


class Var:
    """A parameter-array handle; perfbench/tracer.py counts these and reads their shapes."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)


def v_linear(x: np.ndarray, w: Var, b: Var) -> np.ndarray:
    """x (n, d) @ w (o, d)^T + b (o,) -> (n, o); the tracer times it per layer."""
    return x @ w.value.T + b.value


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
