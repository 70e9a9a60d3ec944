"""Shared oracle helpers: numerical gradient checking and norm-based errors."""

from __future__ import annotations

import numpy as np


def rel_error(a, b) -> float:
    """Norm-based relative error between two gradient estimates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def finite_difference_gradients(loss_fn, params: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient estimates, perturbing each scalar in place.

    `loss_fn` takes no arguments and must read the current contents of
    `params` (typically a closure over a model). Parameters are restored
    exactly after each probe.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            f_plus = loss_fn()
            p[idx] = orig - h
            f_minus = loss_fn()
            p[idx] = orig
            g[idx] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def softmax_row_oracle(row):
    """Scalar softmax oracle for a single row, no vectorisation."""
    import math

    m = max(row)
    exps = [math.exp(v - m) for v in row]
    z = sum(exps)
    return [e / z for e in exps]


def cross_entropy_row_oracle(row, target) -> float:
    """Scalar -log softmax(row)[target] via logsumexp."""
    import math

    m = max(row)
    lse = m + math.log(sum(math.exp(v - m) for v in row))
    return lse - row[target]
