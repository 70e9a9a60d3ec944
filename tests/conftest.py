"""Shared oracle helpers: numerical gradient checking, norm-based errors, and
access to the gradients a DenseLayer or SplitMlp has accumulated."""

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


def _layers(layer_or_model) -> list:
    return layer_or_model.layers() if hasattr(layer_or_model, "layers") else [layer_or_model]


def zero_grads(layer_or_model) -> None:
    """Zero the parameter gradients of a DenseLayer or of every layer of a SplitMlp."""
    for layer in _layers(layer_or_model):
        layer.grad_weights[:] = 0.0
        layer.grad_biases[:] = 0.0


def gradients(layer_or_model) -> list[np.ndarray]:
    """The gradient arrays of a DenseLayer or SplitMlp, in `parameters()` order."""
    return [g for layer in _layers(layer_or_model) for g in (layer.grad_weights, layer.grad_biases)]


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


def known_rate(gaps, bias: float) -> float:
    """Fraction of instances with gap strictly above the bias: the known
    rate `calibration.select_bias` counts for every candidate at once."""
    gaps = np.asarray(gaps, dtype=np.float64)
    return float((gaps > bias).mean())


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax, stabilised by per-row max subtraction: the (B, K)
    probability matrix that `AugmentedLogits.max_softmax` avoids."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


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


def json_paths(doc, prefix=()):
    """The key path of every value nested in a parsed JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from json_paths(value, (*prefix, key))
