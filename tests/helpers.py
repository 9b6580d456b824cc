"""Shared oracles: central finite differences, relative-error metrics, and
the keep rows of masked views."""

from __future__ import annotations

import numpy as np

from ltt.tensor import Tape, Tensor, backward


def numeric_grad(loss_fn, leaf: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued closure wrt one leaf."""
    flat = leaf.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn()
        flat[i] = orig - h
        fm = loss_fn()
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(leaf.data.shape)


def analytic_grad(loss_builder, leaves: list[Tensor]) -> list[np.ndarray]:
    for leaf in leaves:
        leaf.grad = None
        leaf.requires_grad = True
    with Tape():
        loss = loss_builder()
        backward(loss)
    return [leaf.grad.copy() for leaf in leaves]


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradients(loss_builder, leaves: list[Tensor], h: float = 1e-5,
                    tol: float = 1e-4) -> float:
    """Compare analytic grads against finite differences for every leaf."""
    analytic = analytic_grad(loss_builder, leaves)

    def value():
        return float(loss_builder().data)

    worst = 0.0
    for leaf, ag in zip(leaves, analytic):
        ng = numeric_grad(value, leaf, h=h)
        worst = max(worst, max_rel_err(ag, ng))
    assert worst < tol, f"gradient mismatch: max rel err {worst:.3e} >= {tol}"
    return worst


def keep_rows(num_patches: int, masks) -> np.ndarray:
    """(B, K) `keep` for encode_image_batch: row b holds the class token and
    every patch that masks[b] does not drop."""
    return np.stack([np.concatenate([[0], 1 + np.setdiff1d(np.arange(num_patches), m)])
                     for m in masks]).astype(np.int64)
