"""Softmax, cross-entropy, differentiable dense layers, SGD with momentum,
and Beta sampling.

Everything is float64 numpy. Layers do manual forward/backward with explicit
caches; there is no autodiff graph, only the fixed compositions this package
needs.
"""

from __future__ import annotations

import math

import numpy as np

Array = np.ndarray

ACTIVATIONS = ("linear", "relu")


def as_matrix(values) -> Array:
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def softmax_rows(logits) -> Array:
    """Row-wise softmax, stabilised by per-row max subtraction."""
    z = as_matrix(logits)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(logits) -> Array:
    # logits - logsumexp, never log(softmax)
    z = as_matrix(logits)
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_from_logits(logits, targets) -> tuple[float, Array]:
    """Mean negative log-likelihood over rows.

    Returns (loss, grad) where grad = (softmax - onehot) / batch, the gradient
    of the mean loss with respect to the logits.
    """
    z = as_matrix(logits)
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.shape[0] != z.shape[0]:
        raise ValueError(f"{t.shape[0]} targets for {z.shape[0]} logit rows")
    if t.size and (t.min() < 0 or t.max() >= z.shape[1]):
        raise IndexError(f"target out of range [0, {z.shape[1]}): {t}")
    n = z.shape[0]
    logp = log_softmax_rows(z)
    loss = float(-logp[np.arange(n), t].mean())
    grad = np.exp(logp)
    grad[np.arange(n), t] -= 1.0
    grad /= n
    return loss, grad


class DenseLayer:
    """Affine map plus optional ReLU, with manual backward.

    `backward` may only be called after `forward`; it consumes the cached
    input exactly once. Parameter gradients accumulate into `grad_weights`
    and `grad_biases` until `zero_grad`.
    """

    def __init__(self, weights: Array, biases: Array, activation: str = "linear"):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.weights = as_matrix(weights)
        self.biases = np.asarray(biases, dtype=np.float64).reshape(-1)
        if self.biases.shape[0] != self.weights.shape[1]:
            raise ValueError(
                f"bias length {self.biases.shape[0]} does not match weight shape {self.weights.shape}"
            )
        self.activation = activation
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_biases = np.zeros_like(self.biases)
        self._input: Array | None = None
        self._preact: Array | None = None

    @classmethod
    def create(cls, in_dim: int, out_dim: int, activation: str, rng: np.random.Generator,
               weight_std: float | None = None) -> DenseLayer:
        """He-scaled init for relu layers, 1/sqrt(in) for linear ones."""
        if weight_std is None:
            weight_std = math.sqrt((2.0 if activation == "relu" else 1.0) / in_dim)
        weights = rng.standard_normal((in_dim, out_dim)) * weight_std
        return cls(weights, np.zeros(out_dim), activation)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    def forward(self, x) -> Array:
        x = as_matrix(x)
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input shape {x.shape} does not match weight shape {self.weights.shape}")
        z = x @ self.weights + self.biases
        self._input = x
        if self.activation == "relu":
            self._preact = z
            return np.maximum(z, 0.0)
        self._preact = None
        return z

    def backward(self, grad_out) -> Array:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_out = as_matrix(grad_out)
        if grad_out.shape != (self._input.shape[0], self.out_dim):
            raise ValueError(
                f"grad shape {grad_out.shape} does not match output shape "
                f"{(self._input.shape[0], self.out_dim)}"
            )
        if self.activation == "relu":
            # subgradient at exactly 0 is 0
            dz = grad_out * (self._preact > 0)
        else:
            dz = grad_out
        self.grad_weights += self._input.T @ dz
        self.grad_biases += dz.sum(axis=0)
        grad_in = dz @ self.weights.T
        self._input = None
        self._preact = None
        return grad_in

    def zero_grad(self) -> None:
        self.grad_weights[:] = 0.0
        self.grad_biases[:] = 0.0

    def parameters(self) -> list[Array]:
        return [self.weights, self.biases]

    def gradients(self) -> list[Array]:
        return [self.grad_weights, self.grad_biases]


class SgdMomentum:
    """v <- mu*v + g ; w <- w - lr*v  (no dampening, no Nesterov)."""

    def __init__(self, params: list[Array], learning_rate: float, momentum: float):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.params = params
        self.velocities = [np.zeros_like(p) for p in params]

    def step(self, grads: list[Array]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"{len(grads)} gradients for {len(self.params)} parameters")
        for p, v, g in zip(self.params, self.velocities, grads):
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
            v *= self.momentum
            v += g
            p -= self.learning_rate * v


def beta_sample(alpha: float, rng: np.random.Generator) -> float:
    """One draw from the symmetric Beta(alpha, alpha)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return float(rng.beta(alpha, alpha))
