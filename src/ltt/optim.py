"""AdamW with decoupled weight decay over a fixed set of named tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamW:
    """Standard AdamW: bias-corrected moments, decoupled decay.

    Owns `params` and updates every one of them: step() applies each
    tensor's gradient, then releases it, as backward releases its graph.
    State starts at t=0 with zero moments; step() bumps t by exactly 1.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001, wd: float = 0.0):
        for name, value in (("lr", lr), ("wd", wd)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"AdamW {name} must be finite and >= 0, got {value}")
        self.params = params
        self.lr = lr
        self.wd = wd
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"adamw_step: trainable tensor {name!r} has no gradient")
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            # w - lr * (m/bc1 / (sqrt(v/bc2) + eps)) - lr*wd * w, in place; out= keeps 0-d arrays
            g, m, v, w = p.grad, self.m[name], self.v[name], p.data
            tmp = np.multiply(g, 1.0 - BETA1, out=np.empty_like(w))
            m *= BETA1
            m += tmp
            v *= BETA2
            v += np.multiply(np.multiply(g, 1.0 - BETA2, out=tmp), g, out=tmp)
            np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
            tmp += EPS
            new = np.divide(m, bc1, out=np.empty_like(w))
            new /= tmp
            new *= self.lr
            p.data = np.subtract(w, new, out=new)
            p.data -= np.multiply(w, self.lr * self.wd, out=tmp)
            p.grad = None
