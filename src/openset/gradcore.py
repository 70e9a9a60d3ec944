"""Log-softmax, cross-entropy, differentiable dense layers and SGD with momentum.

Everything is float64 numpy. Layers are stateless: `forward` keeps nothing,
and `backward` is handed the input and output of the forward pass it
differentiates. There is no autodiff graph, only the fixed compositions this
package needs.

Shapes are checked once, by `SplitMlp`: its constructor checks the width
chain and `augmented_logits` the input width. The layers, the losses and
the optimizer check nothing per call; numpy's matmul, in-place add and
fancy indexing raise on any mismatch left over.
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


def log_softmax_rows(logits) -> Array:
    # logits - logsumexp, never log(softmax). The row max is taken down the
    # columns of a transposed copy: on a few class columns that is about half
    # the cost of z.max(axis=1), and it gives the same bytes (NaN and the
    # sign of a zero max included)
    z = as_matrix(logits)
    shifted = z - np.ascontiguousarray(z.T).max(axis=0)[:, None]
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_from_logits(logits, targets) -> tuple[float, Array]:
    """Mean negative log-likelihood over rows.

    Returns (loss, grad) where grad = (softmax - onehot) / batch, the gradient
    of the mean loss with respect to the logits. Targets must lie in [0, K):
    `LabeledSet` and the trainer check the labels once, and numpy raises
    IndexError on one of K or above.
    """
    z = as_matrix(logits)
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    n = z.shape[0]
    rows = np.arange(n)
    logp = log_softmax_rows(z)
    # sum / n is the float `mean` returns, without its wrapper
    loss = float(-logp[rows, t].sum() / n)
    grad = np.exp(logp)
    grad[rows, t] -= 1.0
    grad /= n
    return loss, grad


class DenseLayer:
    """Affine map plus optional ReLU, with manual backward.

    The layer holds parameters and gradients, never activations: whoever
    runs `forward` keeps its input and output for `backward`. Each
    `backward` overwrites `grad_weights` and `grad_biases` with the parameter
    gradients of that one pass, so a training step runs each layer's
    backward at most once and never zeroes the buffers first. The four
    arrays may be views into a model's flat buffers (`SplitMlp.pack`);
    every update writes them in place.
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

    def forward(self, x: Array) -> Array:
        out = x @ self.weights
        out += self.biases
        if self.activation == "relu":
            np.maximum(out, 0.0, out=out)
        return out

    def backward(self, grad_out: Array, x: Array, out: Array, input_grad: bool = True) -> Array | None:
        """Write the parameter gradients of the forward that mapped `x` to
        `out` (unchanged since) and return the gradient with respect to `x`;
        `input_grad=False` skips that gemm and returns None, as the input
        layer needs no input gradient."""
        if self.activation == "relu":
            # subgradient at exactly 0 is 0; relu(z) > 0 exactly where z > 0
            dz = grad_out * (out > 0)
        else:
            dz = grad_out
        # np.add.reduce, not np.sum: at these sizes np.sum's Python wrapper
        # costs about as much as the reduction
        np.matmul(x.T, dz, out=self.grad_weights)
        np.add.reduce(dz, axis=0, out=self.grad_biases)
        # not dz @ ascontiguousarray(W.T): on a few rows (1, and up to 18 on the
        # 64-wide layers) OpenBLAS then takes another kernel, and the bytes change
        return dz @ self.weights.T if input_grad else None

    def parameters(self) -> list[Array]:
        return [self.weights, self.biases]


class SgdMomentum:
    """v <- mu*v + g ; w <- w - lr*v  (no dampening, no Nesterov), on one
    parameter array updated in place, such as `SplitMlp.pack`'s flat buffer.
    `TrainConfig` checks the learning rate and momentum."""

    def __init__(self, params: Array, learning_rate: float, momentum: float):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.params = params
        self.velocity = np.zeros_like(params)
        self._update = np.empty_like(params)  # lr * v, reused by every step

    def step(self, grads: Array) -> None:
        self.velocity *= self.momentum
        self.velocity += grads
        np.multiply(self.velocity, self.learning_rate, out=self._update)
        self.params -= self._update
