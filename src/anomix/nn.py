"""The two hooks the benchmark's tracer wraps to time a training step.

`ScorerGraph` holds one `Var` per parameter array and runs each training
dense layer through `v_linear`, always reached as `nn.v_linear`, so that
perfbench/tracer.py can count the handles and time each layer by patching
this module's attributes.
"""

from __future__ import annotations

import numpy as np


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
