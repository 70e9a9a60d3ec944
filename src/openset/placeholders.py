"""The two placeholder losses and the within-batch mixup of the data placeholder.

Both losses map (K+1)-column combined logits to (loss, gradient of the
logits) and know nothing of the network. The classifier-placeholder loss
trains the dummy column to rank second on known instances by masking the
ground-truth logit out of the softmax. The data-placeholder loss trains the
logits of mixed different-class instances as the unknown class K. Each
loss takes one log-softmax and gives the same bytes as composing
`cross_entropy_from_logits` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradcore import Array, as_matrix, cross_entropy_from_logits, log_softmax_rows

# large enough that exp(logit - max) underflows to exactly 0 in float64
MASK_SENTINEL = -1e30


@dataclass
class MixPairs:
    """Index pairs into the rows of one half-batch and the lambda they share:
    the one owner of the data placeholder's mixing. `mix` mixes the rows and
    `unmix` routes the gradient of the mixes back to them."""

    left: Array   # int indices, strictly increasing
    right: Array  # int indices, distinct, label[right[p]] != label[left[p]]
    lam: float

    def __post_init__(self):
        # `not` of the valid range, so a NaN lambda is rejected too
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if len(self.left) != len(self.right):
            raise ValueError(f"{len(self.left)} left indices for {len(self.right)} right indices")

    def __len__(self) -> int:
        return len(self.left)

    def mix(self, rows: Array) -> Array:
        """Row p is lam * rows[left[p]] + (1 - lam) * rows[right[p]]."""
        return self.lam * rows[self.left] + (1.0 - self.lam) * rows[self.right]

    def unmix(self, d_mixed: Array, n: int) -> Array:
        """The gradient for the `n` rows `mix` read, given `d_mixed`, the
        gradient of its output."""
        # neither index array repeats an index (`build_mix_pairs` draws one
        # permutation), so buffered fancy += on zeros is an exact scatter-add,
        # equal to np.add.at (and it turns -0.0 into 0.0)
        d_rows = np.zeros((n, d_mixed.shape[1]))
        d_rows[self.left] += self.lam * d_mixed
        d_rows[self.right] += (1.0 - self.lam) * d_mixed
        return d_rows


def build_mix_pairs(labels, rng: np.random.Generator, alpha: float) -> MixPairs:
    """One uniform shuffle of the batch, pair (i, perm[i]) kept iff the two
    labels differ, and one lambda ~ Beta(alpha, alpha) shared by every
    surviving pair (`TrainConfig` checks alpha)."""
    labels = np.asarray(labels)
    perm = rng.permutation(labels.size)
    keep = labels != labels[perm]
    return MixPairs(np.nonzero(keep)[0], perm[keep], float(rng.beta(alpha, alpha)))


def masked_logits(combined, targets) -> Array:
    """Copy of the combined logits with the ground-truth entry excluded
    from the softmax (sentinel, so its probability underflows to 0). The
    targets are known classes, below K: `finetune_placeholders` checks them."""
    out = as_matrix(combined).copy()
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    out[np.arange(out.shape[0]), t] = MASK_SENTINEL
    return out


def loss_classifier_placeholder(combined, labels, beta: float) -> tuple[float, Array]:
    """Cross-entropy of the combined logits against the true label, plus
    beta times cross-entropy of the masked logits against the dummy class K.

    Returns (loss, d_combined), the gradient of the loss with respect to
    `combined`. With beta == 0 this is exactly plain (K+1)-way cross-entropy.
    """
    combined = as_matrix(combined)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if beta == 0.0:
        return cross_entropy_from_logits(combined, labels)
    # one log-softmax over the rows stacked on their masked copy; rows are
    # independent, so each block gives the bytes of its own cross-entropy
    n, k = combined.shape[0], combined.shape[1] - 1
    rows = np.arange(n)
    logp = log_softmax_rows(np.concatenate([combined, masked_logits(combined, labels)]))
    loss = float(-logp[rows, labels].sum() / n) + beta * float(-logp[n:, k].sum() / n)
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad[n:, k] -= 1.0
    grad /= n
    # the sentinel entry is a constant, no gradient flows through it
    grad[n + rows, labels] = 0.0
    return loss, grad[:n] + beta * grad[n:]


def loss_data_placeholder(combined) -> tuple[float, Array]:
    """Mean cross-entropy of the combined logits of mixed instances against
    the dummy class K; returns (loss, d_combined)."""
    combined = as_matrix(combined)
    n, k = combined.shape[0], combined.shape[1] - 1
    logp = log_softmax_rows(combined)
    grad = np.exp(logp)
    grad[:, k] -= 1.0
    grad /= n
    return float(-logp[:, k].sum() / n), grad
