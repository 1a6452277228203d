"""Dense layers, LeakyReLU, and Adam.

Everything runs in float64 numpy. Batch losses reduce by the mean, so the
learning rate does not depend on batch size. The gradient of the one
network trained here is written out by hand (`scorer.backward`) as one
vector laid out like the parameter vector `ScorerParams.flat`, and
`adam_step` updates that vector in one pass, with one first and one
second moment vector. Adam's beta1, beta2 and eps are fixed at the
defaults of arXiv 1412.6980. Training-time state (a step's
`ScorerGraph`, the optimizer) is single-writer; pure forward evaluation
with frozen parameters is safe to call concurrently.
LeakyReLU is max(x, slope*x), bitwise "x if x >= 0 else slope*x" for
0 < slope < 1, signed zeros included. Hot paths write in place but keep
each float operation's operands and order, so trained bytes do not move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    return np.maximum(x, slope * x)


class Var:
    """A parameter-array handle; perfbench/tracer.py counts these and reads their shapes."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)


def v_linear(x: np.ndarray, w: Var, b: Var) -> np.ndarray:
    """x (n, d) @ w (o, d)^T + b (o,) -> (n, o); the tracer times it per layer."""
    out = x @ w.value.T
    out += b.value
    return out


@dataclass
class AdamState:
    """Adam's step counter and its two moment vectors, laid out like the parameters."""

    lr: float
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(params, grad: np.ndarray, state: AdamState) -> None:
    """One in-place Adam update of `params.flat`, with decoupled weight decay.

    `grad` and the moments share the layout of `params.flat`. Decay shrinks the parameters
    first as p * (1 - lr*decay), which rounds unlike p - lr*decay*p; then
    p -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order. A non-finite gradient (checked
    before anything moves) or updated value raises TrainingDivergedError naming its array.
    """
    if grad.shape != params.flat.shape:
        raise ContractViolationError(f"{grad.shape} gradient for {params.flat.size} parameters")
    if not np.isfinite(grad).all():
        raise TrainingDivergedError(f"non-finite gradient in {params.nonfinite_label(grad)}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    p, m, v = params.flat, state.m, state.v
    a, s = np.empty_like(p), np.empty_like(p)  # scratch for the delta's intermediates
    if state.weight_decay != 0.0:
        p *= 1.0 - state.lr * state.weight_decay
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grad, grad, out=a), 1.0 - ADAM_BETA2, out=a)
    np.multiply(np.divide(m, c1, out=a), state.lr, out=a)
    np.add(np.sqrt(np.divide(v, c2, out=s), out=s), ADAM_EPS, out=s)
    p -= np.divide(a, s, out=a)
    if not np.isfinite(p).all():
        raise TrainingDivergedError(f"non-finite parameter in {params.nonfinite_label(p)}")
