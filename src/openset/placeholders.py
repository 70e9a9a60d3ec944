"""The two placeholder losses and within-batch mixup pair construction.

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

from .gradcore import Array, as_matrix, beta_sample, cross_entropy_from_logits, log_softmax_rows

# large enough that exp(logit - max) underflows to exactly 0 in float64
MASK_SENTINEL = -1e30


@dataclass
class MixPairs:
    """Index pairs into one batch plus the shared mixing coefficient.

    `left` is strictly increasing and `right` holds no index twice, so a
    gradient can be scattered back with fancy `+=` instead of `np.add.at`.
    """

    left: Array   # int indices, strictly increasing
    right: Array  # int indices, distinct, label[right[p]] != label[left[p]]
    lam: float

    def __len__(self) -> int:
        return len(self.left)


def masked_pairs(labels, perm) -> tuple[Array, Array]:
    """Keep pair (i, perm[i]) iff the two labels differ."""
    labels = np.asarray(labels)
    perm = np.asarray(perm)
    keep = labels != labels[perm]
    return np.nonzero(keep)[0], perm[keep]


def build_mix_pairs(labels, rng: np.random.Generator, alpha: float) -> MixPairs:
    """One uniform shuffle of the batch, same-class pairs masked out,
    one lambda ~ Beta(alpha, alpha) shared by every surviving pair."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty batch")
    perm = rng.permutation(labels.size)
    left, right = masked_pairs(labels, perm)
    lam = beta_sample(alpha, rng)
    return MixPairs(left, right, lam)


def mix_hidden(h_left, h_right, lam: float) -> Array:
    """Elementwise convex combination lam*left + (1-lam)*right."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    h_left = as_matrix(h_left)
    h_right = as_matrix(h_right)
    if h_left.shape != h_right.shape:
        raise ValueError(f"shape mismatch: {h_left.shape} vs {h_right.shape}")
    return lam * h_left + (1.0 - lam) * h_right


def masked_logits(combined, targets) -> Array:
    """Copy of the combined logits with the ground-truth entry excluded
    from the softmax (sentinel, so its probability underflows to 0)."""
    z = as_matrix(combined)
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    num_known = z.shape[1] - 1
    if t.shape[0] != z.shape[0]:
        raise ValueError(f"{t.shape[0]} targets for {z.shape[0]} rows")
    if t.size and (t.min() < 0 or t.max() >= num_known):
        raise ValueError(f"ground truth must be a known class in [0, {num_known})")
    out = z.copy()
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
    if combined.shape[0] == 0:
        raise ValueError("empty batch")
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
