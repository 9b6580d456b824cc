"""Named parameters and AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Parameter:
    """A named tensor with a trainability flag. Names are unique per model."""

    __slots__ = ("name", "value", "trainable")

    def __init__(self, name: str, value: Tensor, trainable: bool = False):
        self.name = name
        self.value = value
        self.trainable = trainable
        value.requires_grad = trainable

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def grad(self):
        return self.value.grad

    def set_trainable(self, flag: bool):
        self.trainable = flag
        self.value.requires_grad = flag

    def zero_grad(self):
        self.value.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape}, trainable={self.trainable})"


class AdamW:
    """Standard AdamW: bias-corrected moments, decoupled decay.

    State starts at t=0 with zero moments; step() bumps t by exactly 1.
    """

    def __init__(self, lr: float = 0.001, wd: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.wd = wd
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: list[Parameter]):
        for p in params:
            if p.trainable and p.value.grad is None:
                raise ValueError(f"adamw_step: trainable parameter {p.name!r} has no gradient")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p in params:
            if not p.trainable:
                continue
            g = p.value.grad
            m = self.m.get(p.name)
            if m is None:
                m = np.zeros_like(p.data)
                self.m[p.name] = m
                self.v[p.name] = np.zeros_like(p.data)
            v = self.v[p.name]
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            w = p.data
            p.value.data = w - self.lr * (mhat / (np.sqrt(vhat) + self.eps)) - self.lr * self.wd * w
